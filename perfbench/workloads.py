"""The four workloads: set-up, operations and the check of every output.

A workload's ``setup`` imports a fresh copy of the package (every round
starts from a clean import, as a command-line call does) and builds the
inputs the operations need.  ``ops`` returns the operations of one round as
groups; the runner shuffles the groups by the seed, and an operation that
reads what an earlier one built shares its group.  Each operation has a
``run`` the runner times and a ``check`` it calls afterwards, untimed, which
returns a description of the mismatch or None.

Command-line operations go through ``permutads.cli.main`` with stdout sent
to a file under the output directory, so no output stream is held in
memory; checks read the file back line by line.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

import reference

MODULES = ("surjections", "shuffles", "trees", "linalg", "permutad", "chains",
           "bruhat", "derivations", "verify", "cli")

# Every registered check at its default bound when the benchmark was
# defined.  Raising a default later leaves this workload as it is.
PINNED_BOUNDS = {
    "substitution-units": 6,
    "substitution-associativity": 4,
    "diamond": 6,
    "sequential-composition": 6,
    "unshuffle-substitution": 6,
    "shuffle-factorization": 6,
    "encoding-roundtrips": 6,
    "golden-table": None,
    "free-dimensions": 7,
    "binary-arity-four": None,
    "q-normal-form": 5,
    "q-exponent-pins": None,
    "associative-shuffle-dims": None,
    "permutohedron-f-vectors": 6,
    "boundary-squared": 6,
    "boundary-pins": None,
    "homology-contractible": 5,
    "differential-leibniz": 7,
    "skeleton-covers": 5,
    "bruhat-structure": 7,
    "derivation-relations": None,
    "derivation-monomials": 4,
    "derivation-diamond": None,
}

OP_LIMIT_S = 60.0


class OpFailed(Exception):
    """An operation ended without a result: non-zero exit or error."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    limit_s: float = OP_LIMIT_S
    span: str = ""

    def __post_init__(self) -> None:
        if not self.span:
            self.span = f"op.{self.label}"


def import_fresh() -> dict:
    """Import the package anew; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "permutads" or m.startswith("permutads.")]:
        del sys.modules[name]
    mods = {"": importlib.import_module("permutads")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"permutads.{name}")
    return mods


# ---------------------------------------------------------------------------
# Command-line calls.


class CliOutput:
    """The stdout file of one ``permutads`` call."""

    def __init__(self, path: str) -> None:
        self.path = path

    def lines(self):
        with open(self.path, encoding="utf-8", newline="") as fh:
            yield from fh

    def size(self) -> tuple[int, int]:
        """(lines, bytes) written."""
        lines = size = 0
        with open(self.path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                lines += chunk.count(b"\n")
                size += len(chunk)
        return lines, size

    def digest(self) -> str:
        return file_digest(self.path)

    def single(self) -> dict:
        rows = [json.loads(line) for line in self.lines()]
        if len(rows) != 1:
            raise ValueError(f"expected one JSON line, got {len(rows)}")
        return rows[0]


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def cli_call(cli, argv: list[str], path: str) -> CliOutput:
    """Run ``permutads <argv>`` in process with stdout written to path."""
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        sys.stdout, sys.stderr = out, err
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdout, sys.stderr = saved
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()[:300]}")
    return CliOutput(path)


def cli_op(state: dict, label: str, argv: list[str], check, **kw) -> Op:
    cli = state["mods"]["cli"]
    path = state["stdout"]
    return Op(label, lambda: cli_call(cli, argv, path), check, **kw)


def _expect(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# Workloads.


class Workload:
    name = ""

    def __init__(self, out_dir: str, rng) -> None:
        self.rng = rng
        self.stdout = os.path.join(out_dir, f"stdout-{self.name}.txt")
        self.setup_problems: list[str] = []

    def setup(self) -> dict:
        return {"mods": import_fresh(), "stdout": self.stdout}

    def ops(self, state: dict) -> list[list[Op]]:
        raise NotImplementedError


class VerifyAll(Workload):
    """Every pinned check of ``verify.CHECKS`` through ``verify.run_check``."""

    name = "verify-all"

    def __init__(self, out_dir, rng, bounds: dict | None = None) -> None:
        super().__init__(out_dir, rng)
        self.bounds = dict(PINNED_BOUNDS if bounds is None else bounds)

    def setup(self) -> dict:
        state = super().setup()
        registry = {c.name: c for c in state["mods"]["verify"].CHECKS}
        missing = sorted(set(self.bounds) - set(registry))
        if missing:
            self.setup_problems.append(f"pinned checks not registered: {missing}")
        state["checks"] = registry
        return state

    def ops(self, state):
        verify = state["mods"]["verify"]
        groups = []
        for name, bound in self.bounds.items():
            check = state["checks"].get(name)
            if check is None:
                continue

            def run(check=check, bound=bound):
                try:
                    if bound is None:
                        return "bound", verify.run_check(check)
                    return "bound", verify.run_check(check, bound)
                except verify.CheckFailed as exc:
                    return "witness", exc.witness

            def judge(result, bound=bound):
                kind, value = result
                if kind == "witness":
                    return f"check failed: {json.dumps(value)[:300]}"
                return _expect("bound used", value, bound)

            groups.append([Op(name, run, judge, span=f"verify.{name}")])
        return groups


class Stream(Workload):
    """Command-line streams: enumerations, convert, boundary CSV, covers."""

    name = "stream"

    def __init__(self, out_dir, rng, n: int = 6, boundary_n: int = 6,
                 bruhat_ns: tuple[int, ...] = (6, 7)) -> None:
        super().__init__(out_dir, rng)
        self.n = n
        self.boundary_n = boundary_n
        self.bruhat_ns = bruhat_ns
        self.convert_input = os.path.join(out_dir, "convert-input.jsonl")
        h = hashlib.sha256()
        for values in reference.surjections(n):
            h.update(reference.surjection_line(values).encode())
        self.surjection_digest = h.hexdigest()
        self.cells = sorted(reference.surjections(boundary_n), key=lambda v: (max(v), v))

    def setup(self) -> dict:
        state = super().setup()
        cli = state["mods"]["cli"]
        cli.build_parser()
        cli_call(cli, ["enum", "trees", "--n", str(self.n)], self.convert_input)
        return state

    def ops(self, state):
        n = str(self.n)
        groups = [
            [cli_op(state, "enum-surjections", ["enum", "surjections", "--n", n],
                    self.check_surjection_stream)],
            [cli_op(state, "enum-shuffles", ["enum", "shuffles", "--n", n],
                    self.check_shuffles)],
            [cli_op(state, "enum-trees", ["enum", "trees", "--n", n],
                    self.check_trees)],
            [cli_op(state, "enum-combs", ["enum", "combs", "--n", n],
                    self.check_combs)],
            [cli_op(state, "enum-cells", ["enum", "cells", "--n", n],
                    self.check_cells)],
            [cli_op(state, "convert-tree-surjection",
                    ["convert", "--from", "tree", "--to", "surjection",
                     "--input", self.convert_input],
                    self.check_surjection_stream)],
            [cli_op(state, "boundary-csv",
                    ["boundary", "--n", str(self.boundary_n), "--format", "csv"],
                    self.check_boundary)],
        ]
        for m in self.bruhat_ns:
            groups.append([cli_op(state, f"bruhat-{m}", ["bruhat", "--n", str(m)],
                                  lambda out, m=m: self.check_covers(out, m))])
        return groups

    def check_surjection_stream(self, out: CliOutput):
        problem = _expect("sha256 against the reference surjection stream",
                          out.digest(), self.surjection_digest)
        return problem or self._count(out)

    def _count(self, out: CliOutput):
        return _expect("lines", out.size()[0], reference.ordered_bell(self.n))

    def check_shuffles(self, out: CliOutput):
        for line in out.lines():
            row = json.loads(line)
            blocks, perm = row["blocks"], row["perm"]
            if sum(blocks) != self.n or sorted(perm) != list(range(1, self.n + 1)):
                return f"not a shuffle of {self.n}: {line.strip()}"
            pos = 0
            for size in blocks:
                seg = perm[pos : pos + size]
                if seg != sorted(seg):
                    return f"not increasing on its blocks: {line.strip()}"
                pos += size
        return self._count(out)

    def check_trees(self, out: CliOutput):
        problem = _expect("sha256 against the convert input written by the same command",
                          out.digest(), file_digest(self.convert_input))
        return problem or self._count(out)

    def check_combs(self, out: CliOutput):
        for line in out.lines():
            labels = json.loads(line)["labels"]
            flat = [x for level in labels for x in level]
            if sorted(flat) != list(range(1, self.n + 1)) or any(
                level != sorted(level) for level in labels
            ):
                return f"labels are not an ordered partition: {line.strip()}"
        return self._count(out)

    def check_cells(self, out: CliOutput):
        by_dim = [0] * self.n
        last = None
        for line in out.lines():
            row = json.loads(line)
            if row["dim"] != row["n"] - row["k"]:
                return f"dim is not n - k: {line.strip()}"
            key = (row["dim"], row["values"])
            if last is not None and key <= last:
                return f"cells out of order at {line.strip()}"
            last = key
            by_dim[row["dim"]] += 1
        want = [reference.surjection_count(self.n, self.n - d) for d in range(self.n)]
        return _expect("cells per dimension", by_dim, want)

    def check_boundary(self, out: CliOutput):
        lines = out.lines()
        if next(lines, "").strip() != "row,key,coeff":
            return "missing CSV header"
        index = {"-".join(map(str, v)): i for i, v in enumerate(self.cells)}
        rows: list[dict[int, int]] = [{} for _ in self.cells]
        for line in lines:
            row, key, coeff = line.strip().split(",")
            face = index.get(key)
            if face is None:
                return f"boundary names no cell: {line.strip()}"
            rows[int(row)][face] = int(coeff)
        for i, values in enumerate(self.cells):
            if len(rows[i]) != reference.facet_count(values):
                return (f"cell {values}: {len(rows[i])} facets, want "
                        f"{reference.facet_count(values)}")
            if any(max(self.cells[f]) != max(values) + 1 for f in rows[i]):
                return f"cell {values}: a face is not one dimension down"
            twice: dict[int, int] = {}
            for face, c in rows[i].items():
                for g, d in rows[face].items():
                    twice[g] = twice.get(g, 0) + c * d
            if any(twice.values()):
                return f"d(d({values})) is not zero"
        return None

    def check_covers(self, out: CliOutput, m: int):
        for line in out.lines():
            row = json.loads(line)
            src, i, dst = tuple(row["source"]), row["i"], tuple(row["target"])
            swapped = tuple(i + 1 if x == i else i if x == i + 1 else x for x in src)
            if (sorted(src) != list(range(1, m + 1)) or src.index(i) > src.index(i + 1)
                    or dst != swapped or row["kind"] != reference.cover_kind(src, i)):
                return f"not a weak-order cover: {line.strip()}"
        return _expect("covers", out.size()[0], reference.weak_order_covers(m))


class Homology(Workload):
    """``homology --n m`` for every m up to the complex bound."""

    name = "homology"

    def __init__(self, out_dir, rng, max_n: int = 6) -> None:
        super().__init__(out_dir, rng)
        self.max_n = max_n

    def setup(self) -> dict:
        state = super().setup()
        state["mods"]["cli"].build_parser()
        return state

    def ops(self, state):
        return [
            [cli_op(state, f"homology-{m}", ["homology", "--n", str(m)],
                    lambda out, m=m: self.check(out, m))]
            for m in range(1, self.max_n + 1)
        ]

    @staticmethod
    def check(out: CliOutput, m: int):
        want = {
            "n": m,
            "f_vector": [reference.surjection_count(m, m - d) for d in range(m)],
            "betti": [1] + [0] * (m - 1),
        }
        return _expect(f"homology of the permutohedron on {m} letters", out.single(), want)


class Quotient(Workload):
    """Preset dimensions, ideal membership over Q[q], and the arity the
    q-elimination cannot reach."""

    name = "quotient"
    PRESET_NAMES = ("permMag", "qPermAs", "permAsSh")

    def __init__(self, out_dir, rng, arities=range(2, 6), mag_arities=(6, 7),
                 member_arity: int = 5, slow_arity: int = 6, slow_limit_s: float = 2.0) -> None:
        super().__init__(out_dir, rng)
        self.arities = tuple(arities)
        self.mag_arities = tuple(mag_arities)
        self.member_arity = member_arity
        self.slow_arity = slow_arity
        self.slow_limit_s = slow_limit_s
        words = list(itertools.permutations(range(1, member_arity)))
        self.words = self.rng.sample(words, len(words))
        self.control_word = words[-1]
        self._ranks: dict[int, int] = {}

    def setup(self) -> dict:
        state = super().setup()
        mods = state["mods"]
        mods["cli"].build_parser()
        state["presets"] = {p: mods["permutad"].PRESETS[p]() for p in self.PRESET_NAMES}
        state["differences"] = self._differences(mods)
        return state

    def _differences(self, mods) -> list:
        """d - q^inv(d) id per word, then the control d - q^(inv(d)+1) id for
        the longest word, which must stay outside the ideal."""
        Surjection = mods["surjections"].Surjection
        Decorated = mods["permutad"].DecoratedSurjection
        LinComb, QPoly = mods["linalg"].LinComb, mods["linalg"].QPoly
        mus = ("mu",) * (self.member_arity - 1)
        identity = Decorated(Surjection(tuple(range(1, self.member_arity))), mus)

        def difference(word, shift):
            d = Decorated(Surjection(word), mus)
            e = reference.inversions(word) + shift
            if d == identity:
                return LinComb({d: QPoly.const(1) - QPoly.q(e)})
            return LinComb({d: QPoly.const(1), identity: -QPoly.q(e)})

        members = [(word, difference(word, 0)) for word in self.words]
        return members + [(self.control_word, difference(self.control_word, 1))]

    def _expected(self, state, preset: str, a: int) -> tuple[int, int]:
        free = reference.factorial(a - 1)
        if preset == "permMag":
            return free, free
        if preset == "qPermAs":
            return free, 1
        free *= 2 ** (a - 1)
        if a not in self._ranks:
            gens, rels = state["presets"][preset]
            vectors = state["mods"]["permutad"].ideal_vectors(rels, gens, a)
            self._ranks[a] = reference.fraction_rank(
                {(d.t.values, d.decorations): c for d, c in v.terms()} for v in vectors
            )
        return free, free - self._ranks[a]

    def ops(self, state):
        mods = state["mods"]
        permutad, linalg = mods["permutad"], mods["linalg"]
        groups = []
        cases = [(p, a) for p in self.PRESET_NAMES for a in self.arities]
        cases += [("permMag", a) for a in self.mag_arities]
        for preset, a in cases:

            def judge(out, preset=preset, a=a):
                free, dim = self._expected(state, preset, a)
                want = {"preset": preset, "arity": a, "free_dimension": free, "dimension": dim}
                return _expect(f"{preset} in arity {a}", out.single(), want)

            groups.append([cli_op(state, f"dim-{preset}-{a}",
                                  ["permutad", "dim", "--preset", preset, "--n", str(a)],
                                  judge)])

        gens, rels = state["presets"]["qPermAs"]
        a = self.member_arity

        def build():
            state["span"] = linalg.SpanBasis(permutad.ideal_vectors(rels, gens, a))
            return state["span"].rank

        member = [Op(f"qspan-{a}", build,
                     lambda rank: _expect("rank of the ideal", rank,
                                          reference.factorial(a - 1) - 1))]
        for index, (word, diff) in enumerate(state["differences"]):
            control = index == len(state["differences"]) - 1
            word_label = "".join(map(str, word))
            label = f"in-span-control-{word_label}" if control else f"in-span-{word_label}"
            member.append(Op(
                label,
                lambda diff=diff: state["span"].in_span(diff),
                lambda got, word=word, control=control: _expect(
                    f"membership of {word}{' shifted by q' if control else ''}",
                    got, not control),
            ))
        groups.append(member)

        b = self.slow_arity
        groups.append([Op(
            f"quotient-dim-qPermAs-{b}",
            lambda: permutad.quotient_dim(rels, gens, b),
            lambda dim: _expect(f"qPermAs dimension in arity {b}", dim, 1),
            limit_s=self.slow_limit_s,
        )])
        return groups


WORKLOADS = {w.name: w for w in (VerifyAll, Stream, Homology, Quotient)}
