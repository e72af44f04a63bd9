"""Per-period loop oracle for the Monte Carlo simulator.

``loop_simulate`` is the package's ``simulate`` as it was written before its
chunk body was vectorized: it steps every quantity (x_s, x_c, the overflow,
the adjusted express count and the revenue sums) one period at a time over
all streams.  It draws the same numbers in the same order (per stream and
1024-cycle chunk: express, regular, capacity), so the differential tests
require every field of the two reports to be equal, not close.
"""

from __future__ import annotations

import math

import numpy as np

from shipfees.chain import Scenario, find_bound
from shipfees.choice import split_rates
from shipfees.errors import ParameterError
from shipfees.measures import PerformanceReport
from shipfees.policies import FeeStructure
from shipfees.simulate import SimConfig, SimulationReport, _halfwidth

# The draw contract: cycles pre-drawn per generator call.
CHUNK_CYCLES = 1024


def loop_simulate(
    scenario: Scenario, policy: FeeStructure, config: SimConfig
) -> SimulationReport:
    """Empirical performance of one policy under the truncated dynamics.

    Per period at age t: draw E ~ poi(lam w_t), R ~ poi(lam (1 - w_t)),
    B from the capacity pmf; reject the overflow O = (XS + E + R - B -
    bound)+ regular-first; process due orders first.  At the deadline the
    post-processing due count is the cycle's backorder tally and the next
    cycle owes everything still unprocessed.  Revenue uses the raw express
    draws; the adjusted express counts are tracked alongside.
    """
    if policy.period_length != scenario.period_length:
        raise ParameterError("policy and scenario cycle lengths differ")
    bound = config.bound
    if bound is None:
        bound = find_bound(scenario)
    T = scenario.period_length
    measured = config.cycles - config.warmup_cycles
    streams = min(config.streams, measured)
    per_stream = measured // streams
    total_measured = per_stream * streams
    cycles_per_stream = config.warmup_cycles + per_stream

    e_rates = np.empty(T)
    r_rates = np.empty(T)
    for t, fee in enumerate(policy.fees):
        e_rates[t], r_rates[t] = split_rates(scenario.choice, scenario.lam, fee)
    # inf fees never see an express draw; zero the weight so inf*0 is avoided
    fee_weights = np.array(
        [f if e > 0.0 else 0.0 for f, e in zip(policy.fees, e_rates)]
    )
    cap_vals = np.arange(scenario.capacity.support_max + 1)
    cap_mass = scenario.capacity.mass

    root = np.random.SeedSequence(config.seed)
    gens = [np.random.Generator(np.random.Philox(s)) for s in root.spawn(streams)]

    xc = np.zeros(streams, dtype=np.int64)
    xs = np.zeros(streams, dtype=np.int64)
    sum_m = np.zeros(streams)
    sum_m_raw = np.zeros(streams)
    sum_rev = np.zeros(streams)
    sum_rev_adj = np.zeros(streams)
    sum_rejected = np.zeros(streams)
    overflow_periods = np.zeros(streams)
    acc_e = np.zeros(T)
    acc_e_adj = np.zeros(T)

    for start in range(0, cycles_per_stream, CHUNK_CYCLES):
        n_cyc = min(CHUNK_CYCLES, cycles_per_stream - start)
        E = np.empty((streams, n_cyc, T), dtype=np.int64)
        R = np.empty_like(E)
        B = np.empty_like(E)
        for s, g in enumerate(gens):
            E[s] = g.poisson(e_rates, size=(n_cyc, T))
            R[s] = g.poisson(r_rates, size=(n_cyc, T))
            B[s] = g.choice(cap_vals, size=(n_cyc, T), p=cap_mass)
        for k in range(n_cyc):
            in_measurement = start + k >= config.warmup_cycles
            for t in range(T):
                e = E[:, k, t]
                r = R[:, k, t]
                b = B[:, k, t]
                o = np.maximum(xs + e + r - b - bound, 0)
                e_adj = e - np.maximum(o - r, 0)
                xs = np.maximum(xs + e + r - o - b, 0)
                if t == T - 1:
                    m_raw = np.maximum(xc + e - b, 0)
                xc = np.maximum(xc + e_adj - b, 0)
                if in_measurement:
                    w = fee_weights[t]
                    if w > 0.0:
                        sum_rev += w * e
                        sum_rev_adj += w * e_adj
                    sum_rejected += o
                    overflow_periods += o > 0
                    acc_e[t] += float(e.sum())
                    acc_e_adj[t] += float(e_adj.sum())
            if in_measurement:
                sum_m += xc
                sum_m_raw += m_raw
            xc = xs.copy()

    lam = scenario.lam
    mean_m = float(sum_m.sum()) / total_measured
    mean_rev = float(sum_rev.sum()) / total_measured
    report = PerformanceReport(
        expected_backorders=mean_m,
        expected_backorders_raw=float(sum_m_raw.sum()) / total_measured,
        variable_profit=mean_rev - scenario.penalty * mean_m,
        fixed_profit=T * lam * scenario.choice.regular_price,
        revenue=mean_rev,
        revenue_adjusted=float(sum_rev_adj.sum()) / total_measured,
        rejection_probability=float(overflow_periods.sum())
        / (total_measured * T),
        expected_rejected_per_cycle=float(sum_rejected.sum()) / total_measured,
        mean_delay=mean_m / lam if lam > 0.0 else math.nan,
        per_age_express_rate=tuple(float(v) for v in acc_e / total_measured),
        per_age_express_rate_adjusted=tuple(
            float(v) for v in acc_e_adj / total_measured
        ),
        bound=bound,
    )
    profit_means = (sum_rev - scenario.penalty * sum_m) / per_stream
    return SimulationReport(
        report=report,
        halfwidth_backorders=_halfwidth(sum_m / per_stream),
        halfwidth_variable_profit=_halfwidth(profit_means),
        halfwidth_rejection=_halfwidth(overflow_periods / (per_stream * T)),
        measured_cycles=total_measured,
        streams=streams,
        seed=config.seed,
    )
