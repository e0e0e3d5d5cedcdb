"""Spans recorded from outside the library, and the per-layer metrics
derived from them.

The traced run replaces each hooked binding (a module attribute or a class
method) with a wrapper that records one span per call: (name, start, end,
parent span index, op id).  Spans stay in memory and are written out when
the run ends.  The library source is not touched, and the untraced run
installs nothing.

A hook whose module, attribute or class no longer exists is reported as
absent rather than failing the run, so later renames show up in the layer
output instead of crashing the benchmark.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

# (span name, module, attribute path).  Each hook sits on the binding its
# caller actually uses: npg_solve as solver.py sees it, prox_vector as npg.py
# sees it, numerical_rank once as gen.py sees it and once as verify.py does.
HOOKS = (
    ("gen.gen_instance", "sparselp.gen", "gen_instance"),
    ("gen.gen_matched_pair", "sparselp.gen", "gen_matched_pair"),
    ("gen.rank_check", "sparselp.gen", "numerical_rank"),
    ("solver.solve_l1", "sparselp.solver", "solve_l1"),
    ("solver.solve_l2", "sparselp.solver", "solve_l2"),
    ("linalg.spectral_norm_sq", "sparselp.solver", "spectral_norm_sq"),
    ("linalg.lstsq", "sparselp.solver", "least_squares_min_norm"),
    ("npg.npg_solve", "sparselp.solver", "npg_solve"),
    ("prox.prox_vector", "sparselp.npg", "prox_vector"),
    ("smoothing.value", "sparselp.smoothing", "L1SmoothedPenalty.value"),
    ("smoothing.value_and_grad", "sparselp.smoothing", "L1SmoothedPenalty.value_and_grad"),
    ("smoothing.grad", "sparselp.smoothing", "L1SmoothedPenalty.grad"),
    ("solver.l2_penalty.value", "sparselp.solver", "L2SmoothedPenalty.value"),
    ("solver.l2_penalty.value_and_grad", "sparselp.solver", "L2SmoothedPenalty.value_and_grad"),
    ("solver.l2_penalty.grad", "sparselp.solver", "L2SmoothedPenalty.grad"),
    ("core.residual", "sparselp.core", "ProblemInstance.residual"),
    ("verify.optimal_point_checks", "sparselp.verify", "optimal_point_checks"),
    ("verify.kkt_property_report", "sparselp.verify", "kkt_property_report"),
    ("linalg.numerical_rank", "sparselp.verify", "numerical_rank"),
    ("linalg.gram_extremes", "sparselp.verify", "gram_extremes"),
    ("oracle.vertices", "sparselp.oracle", "all_orthant_vertices"),
    ("oracle.l0", "sparselp.oracle", "solve_exact_l0"),
    ("oracle.lp", "sparselp.oracle", "solve_exact_lp_quasinorm"),
    ("oracle.p_star", "sparselp.oracle", "estimate_p_star"),
)

# per-layer metric -> (unit, span names it reads).  A metric reads "absent"
# when any span it needs has no hook.
LAYER_METRICS = {
    "prox.calls": ("count", ("prox.prox_vector",)),
    "prox.us_per_call": ("us", ("prox.prox_vector",)),
    "prox.s": ("s", ("prox.prox_vector",)),
    "npg.self_s": ("s", ("npg.npg_solve",)),
    "npg.accept_ratio": ("ratio", ("prox.prox_vector",)),
    "npg.inner_iters.p50": ("count", ()),
    "npg.s_per_inner_iter": ("s", ("npg.npg_solve",)),
    "smoothing.calls": ("count", ("smoothing.value", "smoothing.value_and_grad", "smoothing.grad")),
    "smoothing.us_per_call": ("us", ("smoothing.value", "smoothing.value_and_grad", "smoothing.grad")),
    "smoothing.s": ("s", ("smoothing.value", "smoothing.value_and_grad", "smoothing.grad")),
    "solver.l2_penalty.calls": (
        "count",
        ("solver.l2_penalty.value", "solver.l2_penalty.value_and_grad", "solver.l2_penalty.grad"),
    ),
    "solver.l2_penalty.s": (
        "s",
        ("solver.l2_penalty.value", "solver.l2_penalty.value_and_grad", "solver.l2_penalty.grad"),
    ),
    "core.residual.calls": ("count", ("core.residual",)),
    "core.residual_per_inner_iter": ("ratio", ("core.residual",)),
    "linalg.spectral_norm_sq.s": ("s", ("linalg.spectral_norm_sq",)),
    "linalg.lstsq.s": ("s", ("linalg.lstsq",)),
    "solver.self_s": ("s", ("solver.solve_l1", "solver.solve_l2")),
    "solver.outer_iters.p50": ("count", ()),
    "gen.s": ("s", ("gen.gen_instance", "gen.gen_matched_pair")),
    "gen.rank_check_s": ("s", ("gen.rank_check",)),
    "verify.s": ("s", ("verify.optimal_point_checks", "verify.kkt_property_report")),
    "oracle.vertices.s": ("s", ("oracle.vertices",)),
    "oracle.candidates": ("count", ()),
    "oracle.vertex_yield": ("ratio", ()),
    "oracle.l0.s": ("s", ("oracle.l0",)),
    "oracle.lp.s": ("s", ("oracle.lp",)),
    "oracle.p_star.s": ("s", ("oracle.p_star",)),
}


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # on a class, patch and later restore the class's own entry, never an
    # inherited one
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, value) if callable(value) else None


@dataclass
class Tracer:
    """In-memory span recorder.  ``op_id`` tags every span opened while set."""

    spans: list = field(default_factory=list)
    op_id: int = -1
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks=HOOKS) -> None:
        self.absent = []
        for name, module, path in hooks:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, value = found
            setattr(owner, attr, self.wrap(name, value))
            self._installed.append((owner, attr, value))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, value = self._installed.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op_id"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _span_stats(spans):
    """Span durations, and per span name: calls, inclusive seconds, self
    seconds (duration minus the durations of direct children) and span indices."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[0], {"calls": 0, "incl": 0.0, "self": 0.0, "spans": []})
        st["calls"] += 1
        st["incl"] += dur[i]
        st["self"] += dur[i] - child[i]
        st["spans"].append(i)
    return dur, stats


def _outer(spans, dur, stats, names):
    """Calls and inclusive seconds of spans in ``names`` not nested in another
    span of ``names`` (a penalty's grad calling its own value_and_grad counts
    once)."""
    names = set(names)
    calls, secs = 0, 0.0
    for name in names:
        for i in stats.get(name, {"spans": ()})["spans"]:
            parent = spans[i][3]
            if parent >= 0 and spans[parent][0] in names:
                continue
            calls += 1
            secs += dur[i]
    return calls, secs


def layer_metrics(tracer: Tracer, records):
    """Per-layer metrics of one traced pass over ``records`` (OpRecords), and
    for each metric that needs an absent hook, the hooks it is missing."""
    spans = tracer.spans
    dur, stats = _span_stats(spans)

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    solves = [r for r in records if r.solver != "oracle" and not r.failed]
    inner = sum(r.inner_iters for r in solves)
    oracle_ops = [r for r in records if r.solver == "oracle"]
    candidates = sum(r.candidates for r in oracle_ops)
    prox_calls = get("prox.prox_vector", "calls")
    smooth_calls, smooth_s = _outer(spans, dur, stats, LAYER_METRICS["smoothing.s"][1])
    l2_calls, l2_s = _outer(spans, dur, stats, LAYER_METRICS["solver.l2_penalty.s"][1])
    _, verify_s = _outer(spans, dur, stats, LAYER_METRICS["verify.s"][1])
    _, gen_s = _outer(spans, dur, stats, LAYER_METRICS["gen.s"][1])
    npg_incl = get("npg.npg_solve", "incl")

    def ratio(a, b):
        return float(a) / b if b else 0.0

    values = {
        "prox.calls": prox_calls,
        "prox.us_per_call": 1e6 * ratio(get("prox.prox_vector", "incl"), prox_calls),
        "prox.s": get("prox.prox_vector", "incl"),
        "npg.self_s": get("npg.npg_solve", "self"),
        "npg.accept_ratio": ratio(inner, prox_calls),
        "npg.inner_iters.p50": float(np.median([r.inner_iters for r in solves])) if solves else 0.0,
        "npg.s_per_inner_iter": ratio(npg_incl, inner),
        "smoothing.calls": smooth_calls,
        "smoothing.us_per_call": 1e6 * ratio(smooth_s, smooth_calls),
        "smoothing.s": smooth_s,
        "solver.l2_penalty.calls": l2_calls,
        "solver.l2_penalty.s": l2_s,
        "core.residual.calls": get("core.residual", "calls"),
        "core.residual_per_inner_iter": ratio(get("core.residual", "calls"), inner),
        "linalg.spectral_norm_sq.s": get("linalg.spectral_norm_sq", "incl"),
        "linalg.lstsq.s": get("linalg.lstsq", "incl"),
        "solver.self_s": get("solver.solve_l1", "self") + get("solver.solve_l2", "self"),
        "solver.outer_iters.p50": float(np.median([r.outer_iters for r in solves])) if solves else 0.0,
        "gen.s": gen_s,
        "gen.rank_check_s": get("gen.rank_check", "incl"),
        "verify.s": verify_s,
        "oracle.vertices.s": get("oracle.vertices", "incl"),
        "oracle.candidates": candidates,
        "oracle.vertex_yield": ratio(sum(r.vertices for r in oracle_ops), candidates),
        "oracle.l0.s": get("oracle.l0", "incl"),
        "oracle.lp.s": get("oracle.lp", "incl"),
        "oracle.p_star.s": get("oracle.p_star", "incl"),
    }
    absent = set(tracer.absent)
    metrics, missing = {}, {}
    for name, (unit, needs) in LAYER_METRICS.items():
        gone = sorted(absent.intersection(needs))
        if gone:
            missing[name] = gone
        value = 0 if gone else values[name]
        metrics[name] = {"value": value if isinstance(value, int) else float(value), "unit": unit}
    return metrics, missing
