"""Self-test of the benchmark's workloads and output checks.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload once at size "tiny" and requires every check to pass.
Then it alters one output at a time (a perturbed profit, a non-argmax
optimum, a Monte Carlo estimate shifted by 10 halfwidths, ...) and requires
the check that guards that output to fail.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from shipfees import FeeStructure, evaluate_policy  # noqa: E402


def traced_pass(workload) -> tuple[list, dict]:
    """Every op once under the tracer; returns (outputs, layer metrics)."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = [op() for _, op in workload.ops]
    finally:
        tracer.uninstall()
    window = tracing.window_stats(tracer.spans, 0, len(tracer.spans))
    empty = tracing.window_stats(tracer.spans, 0, 0)
    return outputs, tracing.layer_metrics(empty, [window], [1.0], [1.0])


def failing(results, key: str) -> bool:
    """True if some check whose name contains ``key`` failed."""
    hits = [ok for name, ok, _ in results if key in name]
    if not hits:
        raise KeyError(f"no check named like {key!r}")
    return not all(hits)


# -- alterations ---------------------------------------------------------------


def _edit_csv(text: str, match: dict, changes: dict) -> str:
    lines = text.splitlines()
    head = lines[0].split(",")
    out = [lines[0]]
    for line in lines[1:]:
        cells = dict(zip(head, line.split(",")))
        if all(cells[k] == v for k, v in match.items()):
            cells.update(changes)
        out.append(",".join(cells[h] for h in head))
    return "\n".join(out) + "\n"


def _table2_index(wl) -> int:
    return next(i for i, (label, _) in enumerate(wl.ops) if label.startswith("reproduce-table2"))


def _table3_index(wl) -> int:
    return next(i for i, (label, _) in enumerate(wl.ops) if label.startswith("reproduce-table3"))


def tables_alterations(wl, outputs):
    t2, t3 = _table2_index(wl), _table3_index(wl)
    rows = wl.parse(outputs)
    preset = next(iter(rows))
    tsp = next(r for r in rows[preset]["reproduce-table2"] if r["policy"] == "TSP")
    g_tsp = float(tsp["E[G^V]"])

    def alter(index, match, changes):
        out = list(outputs)
        out[index] = _edit_csv(out[index], match, changes)
        return out

    # the worst of the candidates the check samples, reported as the optimum
    scenario, bound = wl.scenario(preset)
    worst = min(
        wl.sample(preset, "reproduce-table2", tsp),
        key=lambda c: evaluate_policy(
            scenario, FeeStructure(workloads.T, workloads.two_level_fees(*c)), bound
        ).variable_profit,
    )
    rep = evaluate_policy(
        scenario, FeeStructure(workloads.T, workloads.two_level_fees(*worst)), bound)
    non_argmax = {"f_E": f"{worst[0]:g}", "f_LE": f"{worst[1]:g}", "tau_F": str(worst[2]),
                  "tau_C": str(worst[3]), "E[M]": f"{rep.expected_backorders:.4f}",
                  "E[G^V]": f"{rep.variable_profit:.4f}"}
    return [
        ("perturbed TSP profit", alter(t2, {"policy": "TSP"}, {"E[G^V]": f"{g_tsp + 0.01:.4f}"}),
         "G = sum"),
        ("non-argmax TSP optimum", alter(t2, {"policy": "TSP"}, non_argmax), "beat"),
        ("CSP backorders off the paper",
         alter(t2, {"policy": "CSP"}, {"E[M]": "1.4000"}), "matches paper"),
        ("TSP-CF profit above TSP-CF*",
         alter(t2, {"policy": "TSP-CF"}, {"E[G^V]": "99.0000"}), "G(CSP) <= G(TSP-CF)"),
        ("Table 3 profit above Table 2 TSP",
         alter(t3, {"tau_C": "6"}, {"E[G^V]": f"{g_tsp + 1.0:.4f}"}), "Table 3 profits"),
    ]


def whatif_alterations(wl, outputs):
    def alter(fn, first_only=True, scenario=None):
        out = list(outputs)
        for k, ((i, _), rep) in enumerate(zip(wl.queries, outputs)):
            if scenario is None or i == scenario:
                out[k] = fn(rep)
                if first_only:
                    break
        return out

    rep = dataclasses.replace
    s0 = wl.queries[0][0]
    return [
        ("perturbed profit",
         alter(lambda r: rep(r, variable_profit=r.variable_profit + 0.01)), "profit and express"),
        ("rejection above threshold",
         alter(lambda r: rep(r, rejection_probability=0.03)), "rejection probability"),
        ("E[M] above raw E[M]",
         alter(lambda r: rep(r, expected_backorders=r.expected_backorders_raw + 0.1)),
         "E[M] <= raw"),
        ("adjusted rate above raw rate",
         alter(lambda r: rep(r, per_age_express_rate_adjusted=tuple(
             x + 0.1 for x in r.per_age_express_rate))), "adjusted express"),
        ("one policy with another bound",
         alter(lambda r: rep(r, bound=r.bound + 1), scenario=s0), "same bound"),
        ("every bound one too large",
         alter(lambda r: rep(r, bound=r.bound + 1), first_only=False), "minimal"),
    ]


def montecarlo_alterations(wl, outputs):
    first = outputs[0]
    shifted = dataclasses.replace(first.report, expected_backorders=(
        first.report.expected_backorders + 10.0 * first.halfwidth_backorders))
    return [
        ("E[M] estimate shifted by 10 halfwidths",
         [dataclasses.replace(first, report=shifted)] + outputs[1:], "3 halfwidths"),
        ("one measured cycle missing",
         [dataclasses.replace(first, measured_cycles=first.measured_cycles - 1)]
         + outputs[1:], "measured cycles"),
    ]


ALTERATIONS = {
    "tables": tables_alterations,
    "whatif": whatif_alterations,
    "montecarlo": montecarlo_alterations,
}


def main() -> int:
    problems = []
    runs = os.path.join(os.path.dirname(os.path.abspath(__file__)), "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=runs)
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(seed=1, workdir=os.path.join(workdir, name), size="tiny")
            outputs, layers = traced_pass(wl)
            fingerprint = tuple(wl.fingerprint(o) for o in outputs)
            results = wl.check(outputs) + [
                worker.isolation_check(wl, layers),
                worker.repeat_check({fingerprint}),
            ]
            for check, ok, detail in results:
                print(f"{'PASS' if ok else 'FAIL'} {name}: {check}: {detail}")
                if not ok:
                    problems.append(f"{name}: {check} fails on unaltered output")
            bypassed = dict(layers, **{f"{wl.ABSENT[0]}.calls": (1, "count")})
            cases = [(what, wl.check(altered), key)
                     for what, altered, key in ALTERATIONS[name](wl, outputs)]
            cases += [
                (f"a call into {wl.ABSENT[0]}", [worker.isolation_check(wl, bypassed)],
                 "not reached"),
                ("two passes with different outputs",
                 [worker.repeat_check({fingerprint, fingerprint[1:]})], "identical"),
            ]
            for what, checked, key in cases:
                caught = failing(checked, key)
                print(f"{'CAUGHT' if caught else 'MISSED'} {name}: {what}")
                if not caught:
                    problems.append(f"{name}: {what} passed the check {key!r}")
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"problem: {p}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
