"""Spans around the package's public functions, recorded from outside.

The tracer replaces each listed function or method of a freshly imported
package with a wrapper that records one span (name, start, end, parent).
A function that other modules bind with ``from ... import`` is replaced at
every module that binds it, so ``chains.substitute`` and
``permutad.substitute`` land in the same span name.  Spans sit in flat
arrays in memory; after each round they are folded into per-round metrics
(calls and self time per name, where self time is a span's duration minus
the time its child spans cover), and the first traced round is written out
when the run ends.

A few counters ride along without spans, because a span per call would
cost more than the call: ``Surjection`` constructions, the enlarging adds
of ``SpanBasis``, the distinct cells handed to ``boundary_of_cell``, and
the largest q-degree and coefficient bit size among the remainders that
``SpanBasis.reduce`` returns.

Every operation of a round is a root span.  Spans and counters of an
operation that failed are left out of the metrics, so that a time limit
cannot make the counts depend on how far the operation got.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter

# (module, attribute, span name).  Attributes with a dot are methods; the
# span name's first part is the layer its self time is charged to.
TRACED = (
    ("surjections", "substitute", "surjections.substitute"),
    ("surjections", "enumerate_surjections", "surjections.enumerate"),
    ("shuffles", "shuffle_of", "shuffles.shuffle_of"),
    ("shuffles", "sigma_of", "shuffles.sigma_of"),
    ("shuffles", "surjection_of_shuffle", "shuffles.surjection_of_shuffle"),
    ("shuffles", "shuffle_factorize", "shuffles.shuffle_factorize"),
    ("shuffles", "staged_product", "shuffles.staged_product"),
    ("trees", "tree_from_surjection", "trees.tree_from_surjection"),
    ("trees", "tree_to_surjection", "trees.tree_to_surjection"),
    ("trees", "tree_to_nested", "trees.tree_to_nested"),
    ("trees", "tree_from_nested", "trees.tree_from_nested"),
    ("trees", "comb_from_surjection", "trees.comb_from_surjection"),
    ("trees", "comb_to_surjection", "trees.comb_to_surjection"),
    ("trees", "comb_to_nested", "trees.comb_to_nested"),
    ("trees", "comb_from_nested", "trees.comb_from_nested"),
    ("trees", "validate_shuffle_tree", "trees.validate_shuffle_tree"),
    ("trees", "strip_levels", "trees.strip_levels"),
    ("trees", "LeveledTree.to_json", "trees.LeveledTree.to_json"),
    ("trees", "LeveledTree.from_json", "trees.LeveledTree.from_json"),
    ("trees", "ShuffleLeftComb.to_json", "trees.ShuffleLeftComb.to_json"),
    ("trees", "ShuffleLeftComb.from_json", "trees.ShuffleLeftComb.from_json"),
    ("linalg", "LinComb.__add__", "linalg.lincomb.add"),
    ("linalg", "LinComb.__sub__", "linalg.lincomb.sub"),
    ("linalg", "LinComb.__neg__", "linalg.lincomb.neg"),
    ("linalg", "LinComb.scale", "linalg.lincomb.scale"),
    ("linalg", "LinComb.map_coeffs", "linalg.lincomb.map_coeffs"),
    ("linalg", "linear_extend", "linalg.linear_extend"),
    ("linalg", "span_rank", "linalg.span_rank"),
    ("linalg", "csv_triples", "linalg.csv_triples"),
    ("linalg", "SpanBasis.add", "linalg.span.add"),
    ("linalg", "SpanBasis.reduce", "linalg.span.reduce"),
    ("linalg", "SpanBasis.in_span", "linalg.span.in_span"),
    ("permutad", "gamma", "permutad.gamma"),
    ("permutad", "circ_t", "permutad.circ_t"),
    ("permutad", "circ_i", "permutad.circ_i"),
    ("permutad", "diamond_check", "permutad.diamond_check"),
    ("permutad", "free_basis", "permutad.free_basis"),
    ("permutad", "ideal_vectors", "permutad.ideal_vectors"),
    ("permutad", "quotient_dim", "permutad.quotient_dim"),
    ("permutad", "specialize", "permutad.specialize"),
    ("permutad", "binary_normal_form", "permutad.binary_normal_form"),
    ("permutad", "qpermas_normalize", "permutad.qpermas_normalize"),
    ("chains", "cells", "chains.cells"),
    ("chains", "cells_of_dim", "chains.cells_of_dim"),
    ("chains", "f_vector", "chains.f_vector"),
    ("chains", "splittings", "chains.splittings"),
    ("chains", "boundary_of_cell", "chains.boundary_of_cell"),
    ("chains", "chain_boundary", "chains.chain_boundary"),
    ("chains", "double_boundary_vanishes", "chains.double_boundary_vanishes"),
    ("chains", "homology_ranks", "chains.homology_ranks"),
    ("chains", "chain_circ_t", "chains.chain_circ_t"),
    ("chains", "grafting_shapes", "chains.grafting_shapes"),
    ("chains", "dg_leibniz_check", "chains.dg_leibniz_check"),
    ("chains", "skeleton_edges", "chains.skeleton_edges"),
    ("bruhat", "length", "bruhat.length"),
    ("bruhat", "covers", "bruhat.covers"),
    ("bruhat", "all_words", "bruhat.all_words"),
    ("bruhat", "cover_graph", "bruhat.cover_graph"),
    ("bruhat", "tree_rotation_kind", "bruhat.tree_rotation_kind"),
    ("bruhat", "type1_connected", "bruhat.type1_connected"),
    ("bruhat", "admissible_path", "bruhat.admissible_path"),
    ("bruhat", "bruhat_dot", "bruhat.bruhat_dot"),
    ("derivations", "ncpoly_add", "derivations.ncpoly_add"),
    ("derivations", "ncpoly_mul", "derivations.ncpoly_mul"),
    ("derivations", "ncpoly_substitute", "derivations.ncpoly_substitute"),
    ("derivations", "asder_compose", "derivations.asder_compose"),
    ("derivations", "asder_circ", "derivations.asder_circ"),
    ("derivations", "asder_monomial", "derivations.asder_monomial"),
    ("derivations", "asder_relations_check", "derivations.asder_relations_check"),
    ("derivations", "graft_is_chain", "derivations.graft_is_chain"),
    ("derivations", "asder_diamond_check", "derivations.asder_diamond_check"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("surjections", "shuffles", "trees", "linalg", "permutad", "chains",
          "bruhat", "derivations", "cli")
LINCOMB_OPS = ("linalg.lincomb.add", "linalg.lincomb.sub", "linalg.lincomb.neg",
               "linalg.lincomb.scale", "linalg.lincomb.map_coeffs")


def per_layer_names(checks) -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [
        "surjections.substitute.calls",
        "surjections.substitute.self_s",
        "surjections.enumerate.calls",
        "surjections.enumerate.self_s",
        "surjections.construct.calls",
        "surjections.self_s",
        "shuffles.sigma_of.calls",
        "shuffles.self_s",
        "trees.calls",
        "trees.self_s",
        "linalg.span.add.calls",
        "linalg.span.reduce.calls",
        "linalg.span.reduce.self_s",
        "linalg.span.in_span.calls",
        "linalg.span.useful_ratio",
        "linalg.lincomb.ops",
        "linalg.lincomb.self_s",
        "linalg.peak_q_degree",
        "linalg.peak_coeff_bits",
        "linalg.self_s",
        "permutad.gamma.calls",
        "permutad.gamma.self_s",
        "permutad.ideal_vectors.self_s",
        "permutad.free_basis.self_s",
        "permutad.self_s",
        "chains.boundary_of_cell.calls",
        "chains.boundary_of_cell.distinct",
        "chains.boundary_of_cell.self_s",
        "chains.self_s",
        "bruhat.self_s",
        "derivations.self_s",
    ]
    names += [f"verify.{name}.s" for name in checks]
    names += ["cli.lines", "cli.bytes", "cli.self_s", "trace.spans", "trace.overhead_s"]
    return names


def _coeff_size(c) -> tuple[int, int]:
    """(q-degree, bit size) of a coefficient: int, Fraction or QPoly."""
    coeffs = getattr(c, "coeffs", None)
    if coeffs is None:
        return 0, _bits(c)
    return len(coeffs) - 1, max((_bits(x) for x in coeffs), default=0)


def _bits(x) -> int:
    num = getattr(x, "numerator", x)
    den = getattr(x, "denominator", 1)
    return max(abs(num).bit_length(), den.bit_length())


class Tracer:
    """Span store and counters for one run; install once per fresh import."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op_spans: list[tuple[int, bool]] = []
        self._op_reset()
        self.kept: dict | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _op_reset(self) -> None:
        self.op_counts = {"construct": 0, "useful_adds": 0}
        self.op_cells: set = set()
        self.op_peak = [0, 0]

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        add_name = self.span_name.append
        add_parent = self.span_parent.append
        add_start = self.span_start.append
        add_end = self.span_end.append
        ends = self.span_end
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_start(perf_counter())
            add_end(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin(self, name: str) -> int:
        """Open a root span for one operation of the round."""
        idx = len(self.span_end)
        self.span_name.append(self._id(name))
        self.span_parent.append(-1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        del self.stack[1:]
        self.stack.append(idx)
        self._op_reset()
        return idx

    def end(self, idx: int, ok: bool) -> None:
        """Close an operation's root span; a failed one is left out."""
        if not ok:
            now = perf_counter()
            ends = self.span_end
            for j in range(idx, len(ends)):
                if ends[j] == 0.0:
                    ends[j] = now  # spans a time limit cut short
        del self.stack[1:]
        self.op_spans.append((idx, ok))
        if ok:
            for key, value in self.op_counts.items():
                self.round_counts[key] += value
            self.round_cells |= self.op_cells
            self.round_peak = [max(a, b) for a, b in zip(self.round_peak, self.op_peak)]

    def install(self, mods: dict) -> None:
        """Wrap the traced functions of one fresh import of the package.

        ``mods`` maps short module names ("surjections", "cli", ...) to the
        module objects; the package itself sits under "".
        """
        self.round_counts = {"construct": 0, "useful_adds": 0}
        self.round_cells: set = set()
        self.round_peak = [0, 0]
        hooks = {
            "linalg.span.add": self._after_add,
            "linalg.span.reduce": self._after_reduce,
        }
        for module_name, attr, name in TRACED:
            module = mods[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw, hooks.get(name)))
                continue
            fn = getattr(module, attr)
            if name == "chains.boundary_of_cell":
                wrapped = self._wrap_boundary(name, fn)
            else:
                wrapped = self._wrap(name, fn, hooks.get(name))
            for other in mods.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, wrapped)
        surjection = mods["surjections"].Surjection
        post_init = surjection.__post_init__

        def counted_post_init(obj):
            self.op_counts["construct"] += 1
            post_init(obj)

        surjection.__post_init__ = counted_post_init

    def _wrap_boundary(self, name, fn):
        traced = self._wrap(name, fn)

        def boundary(t):
            self.op_cells.add(t)
            return traced(t)

        return boundary

    def _after_add(self, args, result) -> None:
        if result:
            self.op_counts["useful_adds"] += 1

    def _after_reduce(self, args, remainder) -> None:
        peak = self.op_peak
        for _, c in remainder.terms():
            degree, bits = _coeff_size(c)
            if degree > peak[0]:
                peak[0] = degree
            if bits > peak[1]:
                peak[1] = bits

    # -- folding -----------------------------------------------------------

    def fold_round(self, cli_lines: int, cli_bytes: int, keep: bool) -> dict:
        """Per-layer metrics of the round just traced; clears the spans."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        count = len(ends)
        child = [0.0] * count
        root = [0] * count
        ok_root = {idx: ok for idx, ok in self.op_spans}
        calls = [0] * len(self.names)
        self_time = [0.0] * len(self.names)
        total = [0.0] * len(self.names)
        for i in range(count):
            p = parents[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        kept_spans = 0
        for i in range(count):
            if not ok_root.get(root[i], False):
                continue
            kept_spans += 1
            nid = names[i]
            duration = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += duration
            self_time[nid] += duration - child[i]

        by_name = {
            name: (calls[i], self_time[i], total[i]) for i, name in enumerate(self.names)
        }

        def get(name: str, field: int):
            return by_name.get(name, (0, 0.0, 0.0))[field]

        def layer_self(layer: str) -> float:
            prefix = layer + "."
            return sum(v[1] for n, v in by_name.items() if n.startswith(prefix))

        adds = get("linalg.span.add", 0)
        m = {
            "surjections.substitute.calls": get("surjections.substitute", 0),
            "surjections.substitute.self_s": get("surjections.substitute", 1),
            "surjections.enumerate.calls": get("surjections.enumerate", 0),
            "surjections.enumerate.self_s": get("surjections.enumerate", 1),
            "surjections.construct.calls": self.round_counts["construct"],
            "shuffles.sigma_of.calls": get("shuffles.sigma_of", 0),
            "trees.calls": sum(v[0] for n, v in by_name.items() if n.startswith("trees.")),
            "linalg.span.add.calls": adds,
            "linalg.span.reduce.calls": get("linalg.span.reduce", 0),
            "linalg.span.reduce.self_s": get("linalg.span.reduce", 1),
            "linalg.span.in_span.calls": get("linalg.span.in_span", 0),
            "linalg.span.useful_ratio": self.round_counts["useful_adds"] / adds if adds else 0.0,
            "linalg.lincomb.ops": sum(get(n, 0) for n in LINCOMB_OPS),
            "linalg.lincomb.self_s": sum(get(n, 1) for n in LINCOMB_OPS),
            "linalg.peak_q_degree": self.round_peak[0],
            "linalg.peak_coeff_bits": self.round_peak[1],
            "permutad.gamma.calls": get("permutad.gamma", 0),
            "permutad.gamma.self_s": get("permutad.gamma", 1),
            "permutad.ideal_vectors.self_s": get("permutad.ideal_vectors", 1),
            "permutad.free_basis.self_s": get("permutad.free_basis", 1),
            "chains.boundary_of_cell.calls": get("chains.boundary_of_cell", 0),
            "chains.boundary_of_cell.distinct": len(self.round_cells),
            "chains.boundary_of_cell.self_s": get("chains.boundary_of_cell", 1),
            "cli.lines": cli_lines,
            "cli.bytes": cli_bytes,
            "trace.spans": kept_spans,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self(layer)
        for name, (_, _, duration) in by_name.items():
            if name.startswith("verify."):
                m[f"{name}.s"] = duration

        if keep:
            self.kept = {
                "names": list(self.names),
                "arrays": (array("i", names), array("i", parents),
                           array("d", starts), array("d", ends)),
            }
        del names[:], parents[:], starts[:], ends[:]
        self.op_spans.clear()
        return m

    def write(self, out_dir: str, stem: str, header: dict) -> None:
        """Write the kept round's spans: a JSON header and a binary body.

        The body holds four columns one after another, native byte order:
        name index (int32), parent span (int32, -1 at an operation), start
        and end (float64 seconds on the perf_counter clock).
        """
        if self.kept is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        columns = self.kept["arrays"]
        header = {
            **header,
            "names": self.kept["names"],
            "spans": len(columns[0]),
            "columns": ["name:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
        with open(os.path.join(out_dir, stem + ".bin"), "wb") as fh:
            for column in columns:
                column.tofile(fh)
