"""Exact stationary performance measures of a fee policy.

The central quantity is the expected number of backorders per cycle E[M]:
orders still unprocessed when their deadline hits.  Variable profit combines
express revenue at the idealized thinned rates with the backorder penalty;
fixed (regular-price) revenue is reported separately and plays no role in
optimization.  Truncation introduces a choice for E[M]: count express demand
before or after boundary rejections.  The adjusted (post-rejection)
convention is the default; the raw variant is carried in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import PolicyEvaluator, Scenario
from .policies import FeeStructure


@dataclass(frozen=True)
class PerformanceReport:
    """Stationary measures of one policy at one truncation bound.

    Express rates and revenue come in two flavors: the idealized values at
    the thinned Poisson rates (used for profit), and the truncation-adjusted
    values that subtract rejected express orders.
    """

    expected_backorders: float
    expected_backorders_raw: float
    variable_profit: float
    fixed_profit: float
    revenue: float
    revenue_adjusted: float
    rejection_probability: float
    expected_rejected_per_cycle: float
    mean_delay: float
    per_age_express_rate: tuple[float, ...]
    per_age_express_rate_adjusted: tuple[float, ...]
    bound: int


def make_report(scenario: Scenario, **measures) -> PerformanceReport:
    """The report of the measures, with the variable profit revenue - c E[M],
    the fixed profit T lam p and the mean delay E[M] / lam (NaN at lam = 0)
    derived from the scenario alike for the evaluator and the simulator."""
    lam, em = scenario.lam, measures["expected_backorders"]
    return PerformanceReport(
        variable_profit=measures["revenue"] - scenario.penalty * em,
        fixed_profit=scenario.period_length * lam * scenario.choice.regular_price,
        mean_delay=em / lam if lam > 0.0 else math.nan,
        **measures,
    )


def evaluate_policy(
    scenario: Scenario,
    policy: FeeStructure,
    bound: int | None = None,
) -> PerformanceReport:
    """Full stationary report for one policy; finds the bound if not given."""
    return policy_report(PolicyEvaluator(scenario, bound), policy)


def policy_report(ev: PolicyEvaluator, policy: FeeStructure) -> PerformanceReport:
    """Full stationary report for one policy from an existing evaluator,
    reusing the steps its earlier batches and reports built."""
    fees = policy.fees
    J = ev.joints(fees)[-1]
    last = ev._step(fees[-1])
    rates = tuple(ev._step(fee).rate for fee in fees)
    losses = {fee: ev.express_loss(fee) for fee in set(fees)}
    rates_adj = tuple(max(r - losses[fee], 0.0) for fee, r in zip(fees, rates))
    return make_report(
        ev.scenario,
        expected_backorders=float(np.sum(J * last.backorders_adjusted)),
        expected_backorders_raw=float(np.sum(J * last.backorders_raw)),
        revenue=ev.revenue(fees),
        revenue_adjusted=sum(fee * r for fee, r in zip(fees, rates_adj) if r > 0.0),
        rejection_probability=ev.rejection_probability(),
        expected_rejected_per_cycle=ev.expected_rejected_per_cycle(),
        per_age_express_rate=rates,
        per_age_express_rate_adjusted=rates_adj,
        bound=ev.bound,
    )
