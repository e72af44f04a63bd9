"""One workload in one fresh interpreter; started by ``run.py``.

Modes:
  setup  import shipfees and build the workload's inputs, then report the
         monotonic clock reading at the end of set-up;
  run    the same set-up, an untimed warm-up op, then whole timed passes
         until ``--seconds`` have elapsed (at least ``MIN_PASSES``), then
         the output checks.  With ``--trace 1`` untraced and traced passes
         alternate, and the per-layer figures come from the traced ones.

The last line of standard output is one JSON object.  The parent sets the
BLAS thread caps in this process's environment, so they hold before numpy
is imported here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

MIN_PASSES = 2


def environment() -> dict:
    import numpy
    import scipy

    task_dir = "/proc/self/task"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_cap": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "threads": len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None,
    }


def run_pass(workload, times: list[float]) -> tuple[list, int]:
    """Every op once; appends op latencies, returns (outputs, failures)."""
    outputs, failed = [], 0
    for _, op in workload.ops:
        start = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"op failed: {exc!r}", file=sys.stderr)
            out, failed = None, failed + 1
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return outputs, failed


def isolation_check(workload, layers: dict) -> tuple:
    """The layers this workload must bypass were never called."""
    calls = {n: layers[f"{n}.calls"][0] for n in workload.ABSENT}
    return (f"layers not reached: {', '.join(workload.ABSENT)}",
            not any(calls.values()), f"calls {calls}")


def repeat_check(fingerprints: set) -> tuple:
    return ("every pass gives identical outputs", len(fingerprints) == 1,
            f"{len(fingerprints)} distinct")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:  # workloads has imported every shipfees module by now
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_end = time.monotonic()
    if args.mode == "setup":
        workload.close()
        print(json.dumps({"setup_end": setup_end}))
        return 0

    setup_stats = None
    if tracer:
        tracer.uninstall()
        setup_stats = tracing.window_stats(tracer.spans, 0, len(tracer.spans))
    try:
        workload.warmup()
        op_s, pass_s, traced_s, windows = [], [], [], []
        outputs, attempted, failed = None, 0, 0
        fingerprints = set()
        begin = time.perf_counter()
        n = 0
        while True:
            # traced runs alternate untraced (even) and traced (odd) passes
            # and stop only after a whole pair
            whole = n >= 2 and n % 2 == 0 if tracer else n >= MIN_PASSES
            if whole and time.perf_counter() - begin >= args.seconds:
                break
            traced = bool(tracer) and n % 2 == 1
            lo = len(tracer.spans) if tracer else 0
            if traced:
                tracer.install()
            start = time.perf_counter()
            outs, bad = run_pass(workload, [] if tracer else op_s)
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
                windows.append(tracing.window_stats(tracer.spans, lo, len(tracer.spans)))
            (traced_s if traced else pass_s).append(elapsed)
            attempted += len(outs)
            failed += bad
            if outputs is None:
                outputs = outs
            fingerprints.add(tuple(
                None if o is None else workload.fingerprint(o) for o in outs))
            n += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = []
        if failed == 0:
            checks = workload.check(outputs)
        checks.append(repeat_check(fingerprints))
        result = {
            "setup_end": setup_end,
            "attempted": attempted,
            "failed": failed,
            "checks": checks,
            "env": environment(),
        }
        if tracer:
            layers = tracing.layer_metrics(setup_stats, windows, traced_s, pass_s)
            checks.append(isolation_check(workload, layers))
            result.update(layers=layers, traced_pass_s=traced_s)
            if args.trace_file:
                tracer.dump(args.trace_file)
        result.update(pass_s=pass_s, op_s=op_s, peak_rss_mb=peak_rss_mb)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
