"""Benchmark of shipfees: paper tables, what-if queries and Monte Carlo.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Workloads: tables, whatif, montecarlo (see perfbench/README.md), or
``all`` of them one after the other.  Each runs in a fresh interpreter
whose BLAS/OpenMP pools are capped at one thread before numpy loads.
Set-up is timed in that interpreter and in SETUP_PROBES more that only set
up; ``setup_s`` is the median.  With ``--trace 0`` the end-to-end metrics
are printed, with ``--trace 1`` the per-layer ones.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics (named ``<workload>.<metric>`` for ``all``).  A record of each
run (metrics, checks, machine and versions) goes to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join(HERE, "runs")
WORKLOADS = ("tables", "whatif", "montecarlo")
SETUP_PROBES = 4
THREAD_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT = 170.0


def child(workload: str, args, mode: str, workdir: str, env: dict, deadline: float,
          extra=()) -> tuple[float, dict]:
    """Run worker.py once; returns (launch time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(deadline - launched, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, args, env: dict) -> dict:
    """Set-up probes and the timed run of one workload; prints its lines."""
    deadline = time.monotonic() + CHILD_TIMEOUT
    tag = f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = os.path.join(RUNS, f"tmp-{tag}")
    setups = []
    for _ in range(SETUP_PROBES if not args.trace else 0):
        launched, res = child(workload, args, "setup", workdir, env, deadline)
        setups.append(res["setup_end"] - launched)
    extra = ("--trace-file", os.path.join(RUNS, f"{tag}.trace.jsonl")) if args.trace else ()
    launched, res = child(workload, args, "run", workdir, env, deadline, extra)
    setups.append(res["setup_end"] - launched)

    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(res["pass_s"]), "s"),
            "op_p50_ms": (1e3 * statistics.median(res["op_s"]), "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    for name, ok, detail in res["checks"]:
        print(f"{'PASS' if ok else 'FAIL'} {workload}: {name}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} attempted = {res['attempted']}, failed = {res['failed']}, "
          f"passes = {len(res['pass_s'])}")

    result = {
        "correct": all(ok for _, ok, _ in res["checks"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setups, pass_samples_s=res["pass_s"],
                  op_samples_s=res["op_s"], traced_pass_samples_s=res.get("traced_pass_s"),
                  checks=res["checks"], env=res["env"],
                  finished=time.strftime("%Y-%m-%dT%H:%M:%S"))
    with open(os.path.join(RUNS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "shipfees", "__init__.py")):
        print(f"error: no shipfees package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_CAP)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    os.makedirs(RUNS, exist_ok=True)

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, env)))
        return 0
    results = {w: run_workload(w, args, env) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
