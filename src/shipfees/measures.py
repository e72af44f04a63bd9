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
from dataclasses import dataclass, fields

import numpy as np

from .chain import PolicyEvaluator, Scenario, find_bound
from .errors import ParameterError, UndefinedMeasureError
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

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            out[f.name] = list(val) if isinstance(val, tuple) else val
        return out


def mean_delay(expected_backorders: float, lam: float) -> float:
    """Average lateness per arriving order, in operating cycles."""
    if lam <= 0.0:
        raise UndefinedMeasureError("mean delay undefined at arrival rate 0")
    if expected_backorders < 0.0:
        raise ParameterError("expected_backorders must be nonnegative")
    return expected_backorders / lam


def evaluate_policy(
    scenario: Scenario,
    policy: FeeStructure,
    bound: int | None = None,
) -> PerformanceReport:
    """Full stationary report for one policy; finds the bound if not given."""
    if bound is None:
        bound = find_bound(scenario)
    ev = PolicyEvaluator(scenario, bound)
    fees = policy.fees
    J = ev.joints(fees)[-1]
    last = ev._step(fees[-1])
    backorders_adj = float(np.sum(J * last.backorders_adjusted))
    backorders_raw = float(np.sum(J * last.backorders_raw))
    rates = tuple(ev._step(fee).rate for fee in fees)
    revenue = ev.revenue(fees)
    losses = {fee: ev.express_loss(fee) for fee in set(fees)}
    rates_adj = tuple(max(r - losses[fee], 0.0) for fee, r in zip(fees, rates))
    revenue_adj = sum(fee * r for fee, r in zip(fees, rates_adj) if r > 0.0)
    delay = (
        backorders_adj / scenario.lam if scenario.lam > 0.0 else math.nan
    )
    return PerformanceReport(
        expected_backorders=backorders_adj,
        expected_backorders_raw=backorders_raw,
        variable_profit=revenue - scenario.penalty * backorders_adj,
        fixed_profit=scenario.period_length
        * scenario.lam
        * scenario.choice.regular_price,
        revenue=revenue,
        revenue_adjusted=revenue_adj,
        rejection_probability=ev.rejection_probability(),
        expected_rejected_per_cycle=ev.expected_rejected_per_cycle(),
        mean_delay=delay,
        per_age_express_rate=rates,
        per_age_express_rate_adjusted=rates_adj,
        bound=bound,
    )
