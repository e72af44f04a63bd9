"""Monte Carlo oracle for the truncated cycle dynamics.

Simulates the raw per-period recursion (Poisson arrivals split by the fee,
random processing capacity, overflow rejection with express priority,
deadline reset) and reports empirical means with 95% halfwidths.  The run
is divided into independent replication streams of a counter-based
generator spawned from one seed; each stream warms up on its own, so
stream means are independent and the normal-approximation halfwidth over
streams is valid even though consecutive cycles within a stream are not.

Reproducibility contract: identical seeds give bit-identical reports.

- Draw order.  Cycles are drawn in chunks of ``CHUNK_CYCLES`` = 1024 per
  stream; per chunk each stream draws its express counts E, then its
  regular counts R, then one uniform per period that the capacity cdf
  inverts to B (the numbers ``Generator.choice(p=mass)`` gives).
- The pool.  A thread pool with one contiguous block of streams per worker
  (as many workers as CPUs the process may use, at most one per stream)
  draws each chunk and forms its increments E + R - B, then, after the
  walk, its tallies.  A block writes only its own streams' rows and
  columns, and every stream owns its generator, so which thread runs a
  block, and when, cannot change a variate or a sum.
- One sequential state.  The total workload x_s is the only quantity
  carried from period to period: its reflected walk
  x_s' = clamp(x_s + E + R - B, 0, bound) is the one loop over time, run
  on the main thread.  The overflow, the adjusted express counts, the due
  backlog x_c (a walk restarted at every cycle's opening x_s) and the
  tallies are computed from that path, vectorized over (cycle, stream).
- Time-ordered sums.  Counts are exact integer sums.  The two revenue sums
  are floats and are reduced per stream in time order, one period after
  the other (a running accumulate, never a pairwise sum), so they equal a
  period-by-period loop bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import Scenario, find_bound
from .choice import split_rates
from .errors import ParameterError, check_integer, store
from .measures import PerformanceReport, make_report
from .policies import FeeStructure

# Cycles pre-drawn per generator call; fixed so draws per seed never change.
CHUNK_CYCLES = 1024

# Largest chunk working set (the per-period arrays of all streams) a run
# may allocate; 200 streams at T = 8 take 52 MB.
CHUNK_BYTES_MAX = 2**30

# Most cycle-periods (streams x warm-up plus measured cycles x T) a run may
# step; criterion 4's runs take 1.6e7.
SIM_PERIODS_MAX = 10**9


@dataclass(frozen=True)
class SimConfig:
    """Run lengths and reproducibility contract for one simulation.

    cycles counts warm-up plus measured cycles; the measured remainder is
    split evenly across streams (leftovers dropped).  bound defaults to the
    same search the exact evaluator uses, so empirical and exact runs see
    identical dynamics.  Every field is an integer (bound may be None).
    """

    cycles: int
    warmup_cycles: int = 1000
    seed: int = 0
    bound: int | None = None
    streams: int = 200

    def __post_init__(self) -> None:
        store(self, check_integer, "cycles", "warmup_cycles", "seed", "streams")
        if self.bound is not None:
            store(self, check_integer, "bound")
        if self.warmup_cycles < 0:
            raise ParameterError("warmup_cycles must be nonnegative")
        if self.cycles <= self.warmup_cycles:
            raise ParameterError("cycles must exceed warmup_cycles")
        if self.streams < 1:
            raise ParameterError("streams must be positive")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")
        if self.bound is not None and self.bound < 0:
            raise ParameterError("bound must be nonnegative")


@dataclass(frozen=True)
class SimulationReport:
    """Empirical point estimates with 95% halfwidths over streams."""

    report: PerformanceReport
    halfwidth_backorders: float
    halfwidth_variable_profit: float
    halfwidth_rejection: float
    measured_cycles: int
    streams: int
    seed: int


def _halfwidth(stream_means: np.ndarray) -> float:
    n = len(stream_means)
    if n < 2:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(stream_means, ddof=1))
        if not math.isfinite(sd):
            # the squares overflowed: scale by the largest magnitude first
            scale = float(np.max(np.abs(stream_means)))
            sd = scale * float(np.std(stream_means / scale, ddof=1))
    return 1.96 * sd / math.sqrt(n)


def _draw_workers() -> int:
    """Threads for the draws: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _capacity_sampler(mass: np.ndarray, dtype: type) -> Callable:
    """A function filling an int row with B as ``Generator.choice(p=mass)``.

    choice builds this cdf, draws ``random(shape)`` and returns
    ``cdf.searchsorted(u, "right")``, the count of cdf values <= u; so does
    the function, leaving the generator in the same state.  For u in
    [0, 1), b = floor(u K) is exact (K = 2^k) and b / K <= u < (b + 1) / K.
    If no cdf value lies in (b / K, (b + 1) / K), the values <= u are those
    <= b / K, whose count is table[b].  Buckets holding one are marked -1
    and their u searched.  K is the power of two above 64 (support + 1), at
    most 2^14, so under 1/64 of the buckets hold one below support 256.
    """
    cdf = mass.cumsum()
    cdf /= cdf[-1]
    K = 1 << min(14, (64 * len(cdf)).bit_length())
    table = cdf.searchsorted(np.arange(K) / K, "right").astype(dtype)
    cuts = cdf * K
    table[cuts[cuts % 1 > 0].astype(np.intp)] = -1

    def draw(g: np.random.Generator, out: np.ndarray) -> None:
        u = g.random(out.size)
        np.take(table, (u * K).astype(np.intp), out=out)  # u K >= 0: floor
        near = np.flatnonzero(out < 0)
        out[near] = cdf.searchsorted(u[near], "right")

    return draw


def simulate(
    scenario: Scenario, policy: FeeStructure, config: SimConfig
) -> SimulationReport:
    """Empirical performance of one policy under the truncated dynamics.

    Per period at age t: draw E ~ poi(lam w_t), R ~ poi(lam (1 - w_t)),
    B from the capacity pmf; reject the overflow O = (XS + E + R - B -
    bound)+ regular-first; process due orders first.  At the deadline the
    post-processing due count is the cycle's backorder tally and the next
    cycle owes everything still unprocessed.  Revenue uses the raw express
    draws; the adjusted express counts are tracked alongside.

    Draws, walk and tallies follow the module's contract, so a seed fixes
    the report bit for bit.  The pool lives for this call only.
    """
    if policy.period_length != scenario.period_length:
        raise ParameterError("policy and scenario cycle lengths differ")
    bound = config.bound
    if bound is None:
        bound = find_bound(scenario)
    T = scenario.period_length
    warmup = config.warmup_cycles
    measured = config.cycles - warmup
    streams = min(config.streams, measured)
    per_stream = measured // streams
    total_measured = per_stream * streams
    cycles_per_stream = warmup + per_stream

    # Every intermediate lies in [-B, bound + E + R]; the arrival rate is
    # below the mean of an array-backed capacity pmf, so the draws are far
    # below 2**30 and int32 holds any bound below 2**30.
    dtype = np.int32 if bound < 2**30 else np.int64
    rows = min(CHUNK_CYCLES, cycles_per_stream) * T
    # per stream: rows entries in each of E, R, B, O, A and F (float), rows + 1 in X
    size = np.dtype(dtype).itemsize
    stream_bytes = rows * (5 * size + 8) + (rows + 1) * size
    periods = streams * cycles_per_stream * T
    if periods > SIM_PERIODS_MAX:
        raise ParameterError(
            f"simulate.cycles: {streams} streams of {cycles_per_stream} cycles "
            f"at T = {T} are {periods} cycle-periods, over the {SIM_PERIODS_MAX} "
            "limit; use fewer cycles"
        )
    if streams * stream_bytes > CHUNK_BYTES_MAX:
        raise ParameterError(
            f"simulate.streams: {streams} streams need "
            f"{streams * stream_bytes / 2**30:.3g} GiB of chunk arrays at "
            f"T = {T}, over the {CHUNK_BYTES_MAX / 2**30:g} GiB limit; use at "
            f"most {CHUNK_BYTES_MAX // stream_bytes} streams"
        )

    rates = [split_rates(scenario.choice, scenario.lam, f) for f in policy.fees]
    e_rates, r_rates = np.array(rates).T
    # inf fees never see an express draw; zero the weight so inf*0 is avoided
    fee_weights = np.where(e_rates > 0.0, policy.fees, 0.0)
    draw_capacity = _capacity_sampler(scenario.capacity.mass, dtype)

    root = np.random.SeedSequence(config.seed)
    gens = [np.random.Generator(np.random.Philox(s)) for s in root.spawn(streams)]
    workers = min(_draw_workers(), streams)
    edges = [streams * k // workers for k in range(workers + 1)]
    blocks = list(zip(edges, edges[1:]))

    # the walk's clamp limits as array scalars, not converted on every call
    top, zero = dtype(bound), dtype(0)
    # Per-period arrays are stream-major (column j = cycle * T + age), so
    # each stream's draws fill one contiguous row; O holds first the
    # increments E + R - B, then the overflow, A the adjusted express
    # counts, F the revenue terms.  The walk runs time-major: row X[j] holds
    # every stream's x_s at the opening of period j of the chunk.
    E, R, B, O, A = (np.empty((streams, rows), dtype) for _ in range(5))
    F = np.empty((streams, rows))
    X = np.zeros((rows + 1, streams), dtype)
    X_rows = list(X)

    sum_m = np.zeros(streams, np.int64)
    sum_m_raw = np.zeros(streams, np.int64)
    sum_rejected = np.zeros(streams, np.int64)
    overflow_periods = np.zeros(streams, np.int64)
    acc_e = np.zeros((streams, T), np.int64)
    acc_e_adj = np.zeros((streams, T), np.int64)
    sum_rev = np.zeros(streams)
    sum_rev_adj = np.zeros(streams)

    def draw(lo: int, hi: int, n_cyc: int) -> None:
        # one block of streams, each filling its own rows in stream order,
        # then the block's increments E + R - B into O and X's columns
        n = n_cyc * T
        for g, e_s, r_s, b_s in zip(
            gens[lo:hi], E[lo:hi, :n], R[lo:hi, :n], B[lo:hi, :n]
        ):
            e_s[:] = g.poisson(e_rates, size=(n_cyc, T)).ravel()
            r_s[:] = g.poisson(r_rates, size=(n_cyc, T)).ravel()
            draw_capacity(g, b_s)
        d = O[lo:hi, :n]
        np.add(E[lo:hi, :n], R[lo:hi, :n], out=d)
        np.subtract(d, B[lo:hi, :n], out=d)
        # 32 columns at a time; one whole transposing copy is several times
        # slower
        for s0 in range(lo, hi, 32):
            s1 = min(s0 + 32, hi)
            X[1 : n + 1, s0:s1] = O[s0:s1, :n].T

    def tally(lo: int, hi: int, j0: int, n: int) -> None:
        # one block's measured periods j0..n of the chunk
        e, r, b, o, a = (buf[lo:hi, j0:n] for buf in (E, R, B, O, A))
        xs = X[j0:n, lo:hi].T
        # overflow O = (x_s + E + R - B - bound)^+, the increments being in o
        o += xs
        o -= bound
        np.maximum(o, 0, out=o)
        # adjusted express E - (O - R)^+
        np.subtract(o, r, out=a)
        np.maximum(a, 0, out=a)
        np.subtract(e, a, out=a)

        # x_c restarts at each cycle's opening x_s; m_raw reads the last age
        xc = xs[:, ::T].copy()
        for t in range(T):
            if t == T - 1:
                m_raw = np.maximum(xc + e[:, t::T] - b[:, t::T], 0)
            xc += a[:, t::T]
            xc -= b[:, t::T]
            np.maximum(xc, 0, out=xc)

        sum_m[lo:hi] += xc.sum(axis=1, dtype=np.int64)
        sum_m_raw[lo:hi] += m_raw.sum(axis=1, dtype=np.int64)
        sum_rejected[lo:hi] += o.sum(axis=1, dtype=np.int64)
        overflow_periods[lo:hi] += np.count_nonzero(o, axis=1)
        terms = F[lo:hi, : n - j0]
        for counts, acc, total in ((e, acc_e, sum_rev), (a, acc_e_adj, sum_rev_adj)):
            by_age = counts.reshape(hi - lo, -1, T)
            acc[lo:hi] += by_age.sum(axis=1, dtype=np.int64)
            # running revenue: seed the first term, then accumulate in
            # time order
            np.multiply(by_age, fee_weights, out=terms.reshape(hi - lo, -1, T))
            terms[:, 0] += total[lo:hi]
            np.add.accumulate(terms, axis=1, out=terms)
            total[lo:hi] = terms[:, -1]

    n = 0
    with ThreadPoolExecutor(workers) as pool:
        for start in range(0, cycles_per_stream, CHUNK_CYCLES):
            X[0] = X[n]  # x_s carried over from the previous chunk
            n_cyc = min(CHUNK_CYCLES, cycles_per_stream - start)
            n = n_cyc * T
            for job in [pool.submit(draw, lo, hi, n_cyc) for lo, hi in blocks]:
                job.result()
            # the walk: X[j + 1] = clamp(X[j] + E[j] + R[j] - B[j], 0, bound)
            for cur, nxt in zip(X_rows[:n], X_rows[1 : n + 1]):
                np.add(cur, nxt, out=nxt)
                np.minimum(nxt, top, out=nxt)
                np.maximum(nxt, zero, out=nxt)
            # warm-up cycles need only the walk
            k0 = min(max(warmup - start, 0), n_cyc)
            if k0 < n_cyc:
                for job in [pool.submit(tally, lo, hi, k0 * T, n) for lo, hi in blocks]:
                    job.result()

    report = make_report(
        scenario,
        expected_backorders=float(sum_m.sum()) / total_measured,
        expected_backorders_raw=float(sum_m_raw.sum()) / total_measured,
        revenue=float(sum_rev.sum()) / total_measured,
        revenue_adjusted=float(sum_rev_adj.sum()) / total_measured,
        rejection_probability=float(overflow_periods.sum())
        / (total_measured * T),
        expected_rejected_per_cycle=float(sum_rejected.sum()) / total_measured,
        per_age_express_rate=tuple(float(v) for v in acc_e.sum(0) / total_measured),
        per_age_express_rate_adjusted=tuple(
            float(v) for v in acc_e_adj.sum(0) / total_measured
        ),
        bound=bound,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        profit_means = (sum_rev - scenario.penalty * sum_m) / per_stream
        # where the penalty sums overflowed, divide by per_stream first
        bad = ~np.isfinite(profit_means)
        profit_means[bad] = (
            sum_rev[bad] / per_stream - scenario.penalty * (sum_m[bad] / per_stream)
        )
    return SimulationReport(
        report=report,
        halfwidth_backorders=_halfwidth(sum_m / per_stream),
        halfwidth_variable_profit=_halfwidth(profit_means),
        halfwidth_rejection=_halfwidth(overflow_periods / (per_stream * T)),
        measured_cycles=total_measured,
        streams=streams,
        seed=config.seed,
    )
