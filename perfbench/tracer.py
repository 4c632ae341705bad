"""Tracing for the per-layer run: spans and counters patched in from outside.

``Tracer.install`` replaces the public functions of each layer with
wrappers.  A module-level function is replaced in every ``skewchain``
module that binds it, so ``from .chainmaps import pi`` in ``pbw`` is
patched too; a method is replaced on its class.  Span wrappers record
(name, parent, start, end) into flat arrays kept in memory and written out
at the end; self time is computed from those spans afterwards.  Counting
wrappers only bump a counter: field arithmetic is called millions of times,
so it is counted, never spanned, and its cost is part of the traced wall
time that ``trace.overhead_ratio`` compares with the untraced one.
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from skewchain import (
    chainmaps,
    cli,
    cochains,
    complexes,
    fields,
    linalg,
    pbw,
    polynomials,
    serialize,
    skew,
)

#: Per-layer metric name -> unit, in report order.
LAYER_METRICS = {
    "linalg.factor.count": "count",
    "linalg.factor.self_s": "s",
    "linalg.factor.cells": "count",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.solve.rhs_density": "ratio",
    "linalg.rank.inserts": "count",
    "linalg.rank.self_s": "s",
    "linalg.rank.useful_ratio": "ratio",
    "fields.ops.Q": "count",
    "fields.ops.GFp": "count",
    "chainmaps.awg.calls": "count",
    "chainmaps.awg.self_s": "s",
    "chainmaps.ezg.calls": "count",
    "chainmaps.ezg.self_s": "s",
    "chainmaps.pi.calls": "count",
    "chainmaps.pi.self_s": "s",
    "chainmaps.pi_solver.grades": "count",
    "chainmaps.pi_solver.values": "count",
    "complexes.diff.calls": "count",
    "complexes.diff.self_s": "s",
    "complexes.bimodule_act.calls": "count",
    "complexes.bimodule_act.self_s": "s",
    "polynomials.act_monomial.calls": "count",
    "polynomials.act_monomial.hit_ratio": "ratio",
    "skew.mul_pairs.calls": "count",
    "skew.mul_pairs.hit_ratio": "ratio",
    "cochains.eval_element.calls": "count",
    "cochains.eval_element.self_s": "s",
    "pbw.check_five.self_s": "s",
    "pbw.check_cohomological.self_s": "s",
    "pbw.oracle_pbw.self_s": "s",
    "pbw.oracle.early_exit_ratio": "ratio",
    "pbw.pi_image_cache.size": "count",
    "pbw.iota_image_cache.size": "count",
    "serialize.config_parse_s": "s",
    "serialize.canonical_json_s": "s",
    "trace.overhead_ratio": "ratio",
}

FIELD_OPS = ("add", "sub", "mul", "inv")


def _ratio(num: float, den: float) -> float:
    """num / den, reported as 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def cache_sizes(algebras) -> dict:
    """Sizes of the memo tables the algebras carry, read from outside."""
    sizes = dict.fromkeys(("pair_memo", "monomial_memo", "grades", "values",
                           "pi_images", "iota_images"), 0)
    for alg in algebras:
        sizes["pair_memo"] += len(getattr(alg, "_pair_memo", ()))
        sizes["monomial_memo"] += len(
            getattr(alg.action, "_monomial_memo", ()))
        solver = getattr(alg, "_pi_solver", None)
        if solver is not None:
            sizes["grades"] += len(getattr(solver, "_solvers", ()))
            sizes["values"] += len(getattr(solver, "_values", ()))
        sizes["pi_images"] += len(getattr(alg, "_pi_image_cache", ()))
        sizes["iota_images"] += sum(
            len(v) for v in getattr(alg, "_iota_image_cache", {}).values())
    return sizes


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.names: list = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict = {}
        self.sums: dict = {}
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        ids, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        cell = self.counters.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    # -- hooks that read arguments or results -------------------------------

    def _after_factor(self, args, _result):
        rows = args[2]
        m = len(rows)
        n = len(rows[0]) if m else 0
        self._add("factor.cells", m * (n + m))

    def _after_solve(self, args, _result):
        b = args[1]
        self._add("solve.density", _ratio(sum(1 for v in b if v), len(b)))

    def _after_insert(self, _args, residual):
        # insert returns the absorbed row, or {} when the vector was
        # already in the span
        self._add("rank.useful", 1.0 if residual else 0.0)

    def _after_oracle(self, _args, report):
        self._add("oracle.early_exits",
                  1.0 if report.extras.get("dimension") is None else 0.0)

    # -- patching -----------------------------------------------------------

    def _patch_function(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "skewchain":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        span = self._span
        for module, attr in (
            (chainmaps, "awg"), (chainmaps, "ezg"), (chainmaps, "pi"),
            (complexes, "diff"), (complexes, "bimodule_act"),
            (pbw, "check_five"), (pbw, "check_cohomological"),
            (serialize, "canonical_json"),
            (cli, "run_verify"), (cli, "run_pbw"),
        ):
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            self._patch_function(module, attr,
                                 span(name, getattr(module, attr)))
        self._patch_function(pbw, "oracle_pbw", span(
            "pbw.oracle_pbw", pbw.oracle_pbw, self._after_oracle))
        self._patch_method(linalg.FactoredSolver, "__init__", lambda f: span(
            "linalg.factor", f, self._after_factor))
        self._patch_method(linalg.FactoredSolver, "solve", lambda f: span(
            "linalg.solve", f, self._after_solve))
        self._patch_method(linalg.IncrementalRank, "insert", lambda f: span(
            "linalg.rank", f, self._after_insert))
        self._patch_method(cochains.Cochain, "eval_element",
                           lambda f: span("cochains.eval_element", f))
        self._patch_method(serialize.RunConfig, "from_dict",
                           lambda f: span("serialize.config_parse", f))
        for cls, key in ((fields.RationalField, "fields.ops.Q"),
                         (fields.PrimeField, "fields.ops.GFp")):
            for op in FIELD_OPS:
                self._patch_method(cls, op, lambda f, k=key: self._count(k, f))
        self._patch_method(polynomials.LinearAction, "act_monomial",
                           lambda f: self._count("act_monomial", f))
        self._patch_method(skew.SkewAlgebra, "mul_pairs",
                           lambda f: self._count("mul_pairs", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def span_totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            d = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - child[i]
        return {name: (calls[i], total[i], own[i])
                for i, name in enumerate(self.names)}

    def layer_metrics(self, before: dict, after: dict,
                      overhead_ratio: float) -> dict:
        """Every per-layer metric, given cache sizes before and after."""
        spans = self.span_totals()

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return spans.get(name, (0, 0.0, 0.0))[2]

        def count(key):
            return self.counters.get(key, [0])[0]

        def hit_ratio(key, memo):
            return _ratio(count(key) - (after[memo] - before[memo]),
                          count(key))

        s = self.sums.get
        values = {
            "linalg.factor.count": calls("linalg.factor"),
            "linalg.factor.self_s": self_s("linalg.factor"),
            "linalg.factor.cells": s("factor.cells", 0.0),
            "linalg.solve.calls": calls("linalg.solve"),
            "linalg.solve.self_s": self_s("linalg.solve"),
            "linalg.solve.rhs_density": _ratio(s("solve.density", 0.0),
                                               calls("linalg.solve")),
            "linalg.rank.inserts": calls("linalg.rank"),
            "linalg.rank.self_s": self_s("linalg.rank"),
            "linalg.rank.useful_ratio": _ratio(s("rank.useful", 0.0),
                                               calls("linalg.rank")),
            "fields.ops.Q": count("fields.ops.Q"),
            "fields.ops.GFp": count("fields.ops.GFp"),
            "chainmaps.awg.calls": calls("chainmaps.awg"),
            "chainmaps.awg.self_s": self_s("chainmaps.awg"),
            "chainmaps.ezg.calls": calls("chainmaps.ezg"),
            "chainmaps.ezg.self_s": self_s("chainmaps.ezg"),
            "chainmaps.pi.calls": calls("chainmaps.pi"),
            "chainmaps.pi.self_s": self_s("chainmaps.pi"),
            "chainmaps.pi_solver.grades": after["grades"],
            "chainmaps.pi_solver.values": after["values"],
            "complexes.diff.calls": calls("complexes.diff"),
            "complexes.diff.self_s": self_s("complexes.diff"),
            "complexes.bimodule_act.calls": calls("complexes.bimodule_act"),
            "complexes.bimodule_act.self_s": self_s("complexes.bimodule_act"),
            "polynomials.act_monomial.calls": count("act_monomial"),
            "polynomials.act_monomial.hit_ratio": hit_ratio(
                "act_monomial", "monomial_memo"),
            "skew.mul_pairs.calls": count("mul_pairs"),
            "skew.mul_pairs.hit_ratio": hit_ratio("mul_pairs", "pair_memo"),
            "cochains.eval_element.calls": calls("cochains.eval_element"),
            "cochains.eval_element.self_s": self_s("cochains.eval_element"),
            "pbw.check_five.self_s": self_s("pbw.check_five"),
            "pbw.check_cohomological.self_s": self_s(
                "pbw.check_cohomological"),
            "pbw.oracle_pbw.self_s": self_s("pbw.oracle_pbw"),
            "pbw.oracle.early_exit_ratio": _ratio(
                s("oracle.early_exits", 0.0), calls("pbw.oracle_pbw")),
            "pbw.pi_image_cache.size": after["pi_images"],
            "pbw.iota_image_cache.size": after["iota_images"],
            "serialize.config_parse_s": spans.get(
                "serialize.config_parse", (0, 0.0, 0.0))[1],
            "serialize.canonical_json_s": spans.get(
                "serialize.canonical_json", (0, 0.0, 0.0))[1],
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: (values[name], unit)
                for name, unit in LAYER_METRICS.items()}

    def write_spans(self, path) -> None:
        """Header line (JSON), then the four span arrays as raw bytes."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [["name", "H"], ["parent", "q"], ["start", "d"],
                       ["end", "d"]],
            "byteorder": sys.byteorder,
            "counters": {k: v[0] for k, v in self.counters.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
