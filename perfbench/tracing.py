"""Spans around the public entry points of each shipfees module.

The tracer patches the entry points from outside the package: every module
attribute bound to a traced function is swapped for a wrapper that records
a span (name, parent span, start, end, note) in memory, and ``uninstall``
puts the originals back.  Nothing inside the package changes, so an
untraced pass runs exactly the code a user runs.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, attribute path, layer name).  A dotted path names a method.
TARGETS = (
    ("shipfees.cli", "main", "cli.main"),
    ("shipfees.optimize", "optimize_family", "optimize.optimize_family"),
    ("shipfees.measures", "evaluate_policy", "measures.evaluate_policy"),
    ("shipfees.chain", "find_bound", "chain.find_bound"),
    ("shipfees.chain", "PolicyEvaluator.__init__", "chain.evaluator_init"),
    ("shipfees.chain", "PolicyEvaluator.profits_batch", "chain.profits_batch"),
    ("shipfees.chain", "PolicyEvaluator.joints", "chain.joints"),
    ("shipfees.distributions", "poisson_pmf", "distributions.poisson_pmf"),
    ("shipfees.distributions", "discretized_beta", "distributions.discretized_beta"),
    ("shipfees.simulate", "simulate", "simulate.simulate"),
)

LAYERS = tuple(name for _, _, name in TARGETS)


def _profits_batch_note(args, kwargs, out):
    """(candidates, distinct fee prefixes of length 1..T-1) of one batch."""
    vectors = args[1]
    prefixes = set()
    for fees in vectors:
        for d in range(1, len(fees)):
            prefixes.add(tuple(fees[:d]))
    return [len(vectors), len(prefixes)]


def _joints_note(args, kwargs, out):
    return len(args[1]) - 1  # pushes: one per age but the last


def _optimize_note(args, kwargs, out):
    return out.evaluations


def _simulate_note(args, kwargs, out):
    """Cycle-periods stepped: every stream runs its warm-up plus its share."""
    scenario, _, config = args
    streams = out.streams
    per_stream = config.warmup_cycles + (config.cycles - config.warmup_cycles) // streams
    return streams * per_stream * scenario.period_length


NOTES = {
    "chain.profits_batch": _profits_batch_note,
    "chain.joints": _joints_note,
    "optimize.optimize_family": _optimize_note,
    "simulate.simulate": _simulate_note,
}


class Tracer:
    """In-memory span recorder; spans are [name, parent, start, end, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target wherever a shipfees module holds a reference."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "shipfees" or n.startswith("shipfees."))
        ]
        for mod_name, path, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def window_stats(spans: list[list], lo: int, hi: int) -> dict:
    """Per-layer aggregates over spans[lo:hi] (one pass or the set-up)."""
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        parent = spans[i][1]
        if parent >= lo:
            child[parent - lo] += spans[i][3] - spans[i][2]
    stats = {name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
    extra = {"candidates": 0, "prefix_pushes": 0, "pushes": 0,
             "evaluations": 0, "cycle_periods": 0, "probes": 0,
             "top_level_s": 0.0}
    for i in range(lo, hi):
        name, parent, start, end, note = spans[i]
        s = stats[name]
        s["calls"] += 1
        s["self_s"] += (end - start) - child[i - lo]
        if parent < lo:
            extra["top_level_s"] += end - start
        if name == "chain.profits_batch":
            extra["candidates"] += note[0]
            extra["prefix_pushes"] += note[1]
        elif name == "chain.joints":
            extra["pushes"] += note
        elif name == "optimize.optimize_family":
            extra["evaluations"] += note
        elif name == "simulate.simulate":
            extra["cycle_periods"] += note
        elif name == "chain.evaluator_init":
            p = parent
            while p >= lo and spans[p][0] != "chain.find_bound":
                p = spans[p][1]
            extra["probes"] += p >= lo
    return {"layers": stats, **extra}


def _ratio(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(
    setup: dict, passes: list[dict], traced_s: list[float], untraced_s: list[float]
) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    ``passes`` are the ``window_stats`` of the traced passes, whose wall
    times are ``traced_s``; values are medians over them.  ``setup`` is the
    window of the traced set-up.
    """

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (med(lambda p: p["layers"][name]["calls"]), "count")
        out[f"{name}.self_s"] = (med(lambda p: p["layers"][name]["self_s"]), "s")
    pb = "chain.profits_batch"
    out["chain.prefix_pushes"] = (med(lambda p: p["prefix_pushes"]), "count")
    out[f"{pb}.us_per_candidate"] = (med(
        lambda p: _ratio(p["layers"][pb]["self_s"], p["candidates"], 1e6)), "us")
    out[f"{pb}.us_per_prefix_push"] = (med(
        lambda p: _ratio(p["layers"][pb]["self_s"], p["prefix_pushes"], 1e6)), "us")
    out["optimize.candidates"] = (med(lambda p: p["evaluations"]), "count")
    out["chain.find_bound.probes"] = (med(lambda p: p["probes"]), "count")
    out["chain.joints.us_per_push"] = (med(
        lambda p: _ratio(p["layers"]["chain.joints"]["self_s"], p["pushes"], 1e6)), "us")
    out["simulate.cycle_periods"] = (med(lambda p: p["cycle_periods"]), "count")
    out["simulate.ns_per_cycle_period"] = (med(
        lambda p: _ratio(p["layers"]["simulate.simulate"]["self_s"],
                         p["cycle_periods"], 1e9)), "ns")
    beta = setup["layers"]["distributions.discretized_beta"]
    out["setup.discretized_beta.calls"] = (beta["calls"], "count")
    out["setup.discretized_beta.self_s"] = (beta["self_s"], "s")
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0), "%")
    out["trace.unspanned_s"] = (statistics.median(
        t - p["top_level_s"] for t, p in zip(traced_s, passes)), "s")
    return out
