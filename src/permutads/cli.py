"""Command line front end.

Machine-oriented by design: enumerations and covers stream out as one JSON
object per line, boundaries also come as ``row,key,coeff`` CSV, graphs as
DOT.  All output is deterministic, so reruns are byte-identical.  Domain
errors produce a single JSON object on stderr and exit code 1; argument
errors exit with 2.  Every command bounds its size by 7, every preset
quotient included; the environment variable ``PERMUTAD_MAX_N`` replaces that
bound.  A reader that closes the output early (``| head``) ends the run with
exit code 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys

from . import bruhat, chains
from .derivations import NCPoly, asder_compose, asder_monomial
from .linalg import LinComb, csv_triples
from .permutad import (
    DecoratedSurjection,
    PRESETS,
    free_dimension,
    qpermas_normalize,
    quotient_dim,
)
from .shuffles import Shuffle
from .surjections import Surjection, enumerate_surjections
from .trees import LeveledTree, ShuffleLeftComb
from .verify import CHECKS, CheckFailed, bound_for, run_check

DEFAULT_BOUND = 7


class DomainError(ValueError):
    """Anything the domain rejects; carries the JSON payload to print."""

    def __init__(self, message: str, **fields):
        super().__init__(message)
        self.payload = {"error": message, **fields}


_encode = json.JSONEncoder(check_circular=False).encode  # json.dumps's bytes; rows are acyclic


def _emit(obj: dict) -> None:
    sys.stdout.write(_encode(obj) + "\n")


def _emit_error(obj: dict) -> None:
    sys.stderr.write(_encode(obj) + "\n")


def _env_cap() -> int | None:
    raw = os.environ.get("PERMUTAD_MAX_N")
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"PERMUTAD_MAX_N must be an integer, got {raw!r}")


def _require_size(n: int, what: str, cap: int | None) -> None:
    cap = DEFAULT_BOUND if cap is None else cap
    if n > cap:
        raise DomainError(f"n={n} exceeds the {what} bound {cap};"
                          " set PERMUTAD_MAX_N to change the bound", n=n, bound=cap)


def _ints(text: str, flag: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise DomainError(f"{flag} wants comma-separated integers, got {text!r}")


def _from_object(parse, data):
    """parse(data) for a JSON object; a ValueError names a non-object or a missing field."""
    if type(data) is not dict:
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    try:
        return parse(data)
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None


def _poly_arg(text: str, flag: str) -> NCPoly:
    try:
        return _from_object(NCPoly.from_json, json.loads(text))
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON for {flag}: {exc.msg}",
                          column=exc.colno, position=exc.pos)
    except (ValueError, TypeError) as exc:
        raise DomainError(f"bad polynomial for {flag}: {exc}")


# ---------------------------------------------------------------------------
# enum and convert.


def _cell_json(t: Surjection) -> dict:
    return {**t.to_json(), "dim": t.dim}


def cmd_enum(args) -> int:
    _require_size(args.n, "enumeration", _env_cap())
    ts = enumerate_surjections(args.n, args.k)
    if not ts:
        raise DomainError(f"no surjection of {args.n} inputs onto {args.k} levels", k=args.k)
    if args.kind == "cells":
        if args.n < 1:  # the permutohedron on no letters has no cells
            raise DomainError(f"need at least one letter, got n={args.n}")
        ts.sort(key=lambda t: (t.dim, t.values))
        render = _cell_json
    else:  # the plural of a convert kind
        render = _CODECS[args.kind[:-1]].to_json
    for t in ts:
        _emit(render(t))
    return 0


_CODECS = {"surjection": Surjection, "shuffle": Shuffle,
           "tree": LeveledTree, "comb": ShuffleLeftComb}


def _input_lines(path: str):
    """The numbered lines of the input file, or of stdin for "-", decoded one at a time,
    so a byte that is not UTF-8 is reported by line and offset.  Read as Latin-1, one
    character per byte, text mode splits at LF, CR LF or CR as bytes arrive, each read as LF."""
    offset = 0
    try:
        with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as data:
            handle = io.TextIOWrapper(data, "latin-1", newline="")
            try:
                for lineno, text in enumerate(handle, start=1):
                    raw = text.encode("latin-1")
                    try:
                        text = raw.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise DomainError(f"input line {lineno} is not UTF-8: {exc.reason}",
                                          line=lineno, position=offset + exc.start)
                    offset += len(raw)
                    if "\r" in text[-2:]:
                        text = text.rstrip("\r\n") + "\n"
                    yield lineno, text
            finally:
                handle.detach()  # leaves stdin open
    except OSError as exc:
        raise DomainError(f"cannot read input {path}: {exc.strerror}", path=path)


def cmd_convert(args) -> int:
    parse, render = _CODECS[args.from_kind].from_json, _CODECS[args.to_kind].to_json
    cap = functools.cache(_env_cap)  # read at the first row, so never on empty input
    for lineno, line in _input_lines(args.input):
        if not line.strip():
            continue
        try:
            t = _from_object(parse, json.loads(line))
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed JSON on input line {lineno}: {exc.msg}",
                              line=lineno, column=exc.colno, position=exc.pos)
        except RecursionError:
            raise DomainError(f"input line {lineno} is nested too deeply", line=lineno)
        except (ValueError, TypeError) as exc:
            raise DomainError(f"bad {args.from_kind} on input line {lineno}: {exc}")
        _require_size(t.n, "conversion", cap())
        _emit(render(t))
    return 0


# ---------------------------------------------------------------------------
# Chain complexes.


def _boundary_cells(n: int, dim: int | None) -> list[Surjection]:
    if dim is None:
        return chains.cells(n)
    if not 0 <= dim <= n - 1:
        raise DomainError(f"dimension {dim} out of range 0..{n - 1}")
    return chains.cells_of_dim(n, dim)


def cmd_boundary(args) -> int:
    _require_size(args.n, "complex", _env_cap())
    selected = _boundary_cells(args.n, args.dim)
    if args.format == "csv":
        vectors = (LinComb({u: c for c, u in chains._facets(t.values, t.k)}) for t in selected)
        for line in csv_triples(vectors, key_str=lambda values: "-".join(map(str, values))):
            sys.stdout.write(line + "\n")
        return 0
    for t in selected:
        terms = [
            {"coefficient": str(c), "cell": _cell_json(u)}
            for u, c in chains.boundary_of_cell(t).terms()
        ]
        _emit({"cell": _cell_json(t), "boundary": terms})
    return 0


def cmd_homology(args) -> int:
    _require_size(args.n, "complex", _env_cap())
    fv, betti = chains.homology(args.n)
    _emit({"n": args.n, "f_vector": list(fv), "betti": list(betti)})
    return 0


# ---------------------------------------------------------------------------
# Weak order.


def cmd_bruhat(args) -> int:
    kinds = (1,) if args.type1_only else (1, 2)
    if args.path is not None:
        if args.type1_only:
            args.parser.error("--type1-only does not apply to --path")
        word = _ints(args.path[0], "--path")
        try:
            i = int(args.path[1])
        except ValueError:
            raise DomainError(f"--path wants an integer level, got {args.path[1]!r}")
        if args.n is not None and args.n != len(word):
            raise DomainError(f"--n {args.n} does not match a word of {len(word)} letters")
        _require_size(len(word), "weak order", _env_cap())
        path = bruhat.admissible_path(word, i)
        _emit({"path": [list(w) for w in path]})
        return 0
    if args.n is None:
        args.parser.error("--n is required unless --path is given")
    _require_size(args.n, "weak order", _env_cap())
    if args.check_connected:
        connected, _ = bruhat.cover_connected(args.n, kinds)
        edges = bruhat.cover_count(args.n, kinds)
        vertices = len(bruhat.all_words(args.n))
        _emit({"connected": connected, "vertices": vertices, "edges": edges})
        return 0
    if args.dot:
        sys.stdout.write(bruhat.bruhat_dot(args.n, kinds))
        return 0
    for word in bruhat.all_words(args.n):
        for c in bruhat.covers(word):
            if c.kind in kinds:
                _emit(c.to_json())
    return 0


# ---------------------------------------------------------------------------
# Normal forms, derivations, dimensions, verification.


def cmd_qnormalize(args) -> int:
    word = _ints(args.perm, "--perm")
    _require_size(len(word), "normal form", _env_cap())
    t = Surjection(word)
    if not t.is_permutation():
        raise DomainError(f"--perm wants a permutation word, got {list(word)}")
    d = DecoratedSurjection(t, ("mu",) * t.n)
    _emit({"q_exponent": qpermas_normalize(d)})
    return 0


def cmd_asder_compose(args) -> int:
    outer = _poly_arg(args.outer, "--outer")
    inner = _poly_arg(args.inner, "--inner")
    _require_size(outer.nvars + inner.nvars - 1, "composition", _env_cap())
    if args.shape is not None:
        shape = Surjection(_ints(args.shape, "--shape"))
    else:
        shape = _ints(args.block, "--block")
    _emit(asder_compose(outer, inner, shape).to_json())
    return 0


def cmd_asder_monomial(args) -> int:
    letters = _ints(args.letters, "--letters")
    _require_size(args.n, "composition", _env_cap())
    _emit(asder_monomial(letters, args.n).to_json())
    return 0


def cmd_permutad_dim(args) -> int:
    _require_size(args.n, f"{args.preset} quotient", _env_cap())
    gens, relations = PRESETS[args.preset]()
    _emit(
        {
            "preset": args.preset,
            "arity": args.n,
            "free_dimension": free_dimension(gens, args.n),
            "dimension": quotient_dim(relations, gens, args.n),
        }
    )
    return 0


def cmd_verify(args) -> int:
    """Run each check at its bound lowered to PERMUTAD_MAX_N; stop at a witness."""
    cap = _env_cap()
    bounds = [bound_for(check, args.max_n) for check in CHECKS]
    bounds = [b if b is None or cap is None else min(b, cap) for b in bounds]
    low = min(set(bounds) - {None})
    if low < 1:
        raise DomainError(f"bound {low} leaves the checks no case to examine", bound=low)
    for check, bound in zip(CHECKS, bounds):
        row = {"check": check.name, "max_n": bound}
        try:
            run_check(check, bound)
        except CheckFailed as exc:
            _emit({**row, "ok": False, "witness": exc.witness})
            return 1
        _emit({**row, "ok": True})
    return 0


# ---------------------------------------------------------------------------
# Parser.


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="permutads",
        description="Exact combinatorics of surjections under substitution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser("enum", help="stream a family as JSON lines")
    enum_p.add_argument(
        "kind", choices=["surjections", "shuffles", "trees", "combs", "cells"]
    )
    enum_p.add_argument("--n", type=int, required=True, help="number of inputs")
    enum_p.add_argument("--k", type=int, default=None, help="restrict the target size")
    enum_p.set_defaults(handler=cmd_enum)

    convert_p = sub.add_parser("convert", help="translate between encodings")
    kinds = ["surjection", "shuffle", "tree", "comb"]
    convert_p.add_argument("--from", dest="from_kind", choices=kinds, required=True)
    convert_p.add_argument("--to", dest="to_kind", choices=kinds, required=True)
    convert_p.add_argument(
        "--input", default="-", help="path to JSON lines, - for stdin"
    )
    convert_p.set_defaults(handler=cmd_convert)

    boundary_p = sub.add_parser("boundary", help="cellular differentials")
    boundary_p.add_argument("--n", type=int, required=True)
    boundary_p.add_argument("--dim", type=int, default=None)
    boundary_p.add_argument("--format", choices=["json", "csv"], default="json")
    boundary_p.set_defaults(handler=cmd_boundary)

    homology_p = sub.add_parser("homology", help="exact Betti numbers")
    homology_p.add_argument("--n", type=int, required=True)
    homology_p.set_defaults(handler=cmd_homology)

    bruhat_p = sub.add_parser("bruhat", help="weak order covers and paths")
    bruhat_p.add_argument("--n", type=int, default=None)
    bruhat_p.add_argument("--type1-only", dest="type1_only", action="store_true")
    mode = bruhat_p.add_mutually_exclusive_group()
    mode.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    mode.add_argument(
        "--check-connected", dest="check_connected", action="store_true"
    )
    mode.add_argument(
        "--path",
        nargs=2,
        metavar=("WORD", "LEVEL"),
        default=None,
        help="kind-1 path realizing the cover exchanging LEVEL and LEVEL+1",
    )
    bruhat_p.set_defaults(handler=cmd_bruhat, parser=bruhat_p)

    qnorm_p = sub.add_parser("qnormalize", help="exponent of a monomial normal form")
    qnorm_p.add_argument("--perm", required=True, help="permutation word, e.g. 2,3,1")
    qnorm_p.set_defaults(handler=cmd_qnormalize)

    asder_p = sub.add_parser("asder", help="polynomials with a derivation")
    asder_sub = asder_p.add_subparsers(dest="asder_command", required=True)
    compose_p = asder_sub.add_parser("compose", help="graft one polynomial into another")
    compose_p.add_argument("--outer", required=True, help="polynomial JSON")
    compose_p.add_argument("--inner", required=True, help="polynomial JSON")
    shape = compose_p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--shape", help="two-level surjection values, e.g. 1,2,1")
    shape.add_argument("--block", help="variable positions of the inner factor")
    compose_p.set_defaults(handler=cmd_asder_compose)
    monomial_p = asder_sub.add_parser("monomial", help="iterated derivation grafts")
    monomial_p.add_argument("--letters", required=True, help="e.g. 1,2,4,2")
    monomial_p.add_argument("--n", type=int, required=True, help="variable count")
    monomial_p.set_defaults(handler=cmd_asder_monomial)

    permutad_p = sub.add_parser("permutad", help="preset presentations")
    permutad_sub = permutad_p.add_subparsers(dest="permutad_command", required=True)
    dim_p = permutad_sub.add_parser("dim", help="free and quotient dimensions")
    dim_p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    dim_p.add_argument("--n", type=int, required=True, help="arity")
    dim_p.set_defaults(handler=cmd_permutad_dim)

    verify_p = sub.add_parser("verify", help="run the consistency checks")
    verify_sub = verify_p.add_subparsers(dest="verify_command", required=True)
    all_p = verify_sub.add_parser("all", help="every registered check")
    all_p.add_argument("--max-n", dest="max_n", type=int, default=None)
    all_p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone; devnull keeps the flush at exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DomainError as exc:
        _emit_error(exc.payload)
        return 1
    except ValueError as exc:
        _emit_error({"error": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
