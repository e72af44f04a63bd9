"""Profit-maximizing parameter search over shipment-fee policy families.

Searches are exhaustive over finite grids: fee values on a fixed lattice,
cutoff ages 1..T-1, switch ages below the cutoff.  All candidates in one
search are evaluated at a single shared truncation bound so their profits
are directly comparable, and ties are resolved by a fixed preference order
(later cutoff, later switch, cheaper fees) so the reported optimum is
deterministic regardless of evaluation order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import PolicyEvaluator, Scenario
from .choice import ChoiceModel
from .errors import NumericsError, ParameterError
from .errors import check_integer, is_integer, real_tuple, store
from .measures import PerformanceReport, policy_report
from .policies import FeeStructure, demand_profile, two_level_fees

# Profits closer than this are treated as tied and go to the preference order.
PROFIT_TIE_TOL = 1e-9

# Candidates a search may enumerate, at T <= 8; a longer cycle allows
# proportionally fewer, as the batch holds about T fees per candidate.
ENUMERATION_BUDGET = 10**6

FAMILIES = ("TSP_CF_star", "TSP")


@dataclass(frozen=True)
class SearchGrid:
    """Candidate fee values and cutoff ages for the family searches.

    fee_values must be strictly increasing; admissible switch ages are
    derived from the cutoff rather than stored.
    """

    fee_values: tuple[float, ...]
    cutoff_range: tuple[int, int]

    def __post_init__(self) -> None:
        store(self, real_tuple, "fee_values")
        fees, cut = self.fee_values, self.cutoff_range
        kinds = [is_integer(c) for c in cut] if isinstance(cut, (tuple, list)) else []
        if kinds != [True, True]:
            raise ParameterError(f"cutoff_range must be two integers, got {cut!r}")
        lo, hi = (check_integer("cutoff_range", c) for c in cut)
        object.__setattr__(self, "cutoff_range", (lo, hi))
        if not fees:
            raise ParameterError("fee_values must not be empty")
        if any(b <= a for a, b in zip(fees, fees[1:])):
            raise ParameterError("fee_values must be strictly increasing")
        if fees[0] < 0.0:
            raise ParameterError("fee_values must be nonnegative")
        if not 0 <= lo <= hi:
            raise ParameterError("cutoff_range must satisfy 0 <= lo <= hi")

    @classmethod
    def default(cls, period_length: int) -> SearchGrid:
        """0.2 lattice from 0.2 to 3.8 with cutoffs 1..T-1."""
        fees = tuple(round(0.2 * k, 10) for k in range(1, 20))
        return cls(fees, (1, max(period_length - 1, 1)))


@dataclass(frozen=True)
class Optimum:
    """Winning candidate of a family search.

    point is the winner's (f_E, f_LE, tau_F, tau_C), (f, f, tau_C, tau_C) for
    TSP_CF_star, and best_policy's fees are its two_level_fees.  runner_up_gap
    is the profit margin over the best candidate with different parameters
    (inf when the grid has a single candidate); tie_broken records whether the
    preference order had to decide among profits within PROFIT_TIE_TOL.
    points and profits are every candidate of the search, in enumeration
    order, with its profit from the shared batch; evaluations counts them.
    """

    family: str
    point: tuple[float, float, int, int]
    best_policy: FeeStructure
    report: PerformanceReport
    runner_up_gap: float
    tie_broken: bool
    points: tuple[tuple[float, float, int, int], ...] = field(repr=False)
    profits: tuple[float, ...] = field(repr=False)

    @property
    def evaluations(self) -> int:
        return len(self.profits)


def revenue_max_fee(choice: ChoiceModel) -> float:
    """Fee maximizing per-arrival express revenue fee * w(p + fee).

    The linear take rate makes revenue a downward parabola in the fee with
    vertex u_max / 2; the argmax over admissible fees is the clamped vertex.
    """
    return min(max(0.5 * choice.u_max, choice.u_min), choice.u_max)


def _validated_grid(
    scenario: Scenario, grid: SearchGrid | None
) -> SearchGrid:
    if grid is None:
        grid = SearchGrid.default(scenario.period_length)
    choice = scenario.choice
    if grid.fee_values[0] < choice.u_min or grid.fee_values[-1] > choice.u_max:
        raise ParameterError(
            "fee_values must lie within the utility range "
            f"[{choice.u_min}, {choice.u_max}]"
        )
    if grid.cutoff_range[1] > scenario.period_length - 1:
        raise ParameterError("cutoff ages must lie in 0..period_length-1")
    return grid


def _check_budget(count: int, T: int, what: str, remedy: str) -> None:
    """Refuse count candidates of length T beyond the enumeration budget."""
    budget = ENUMERATION_BUDGET * 8 // max(T, 8)
    if count > budget:
        raise ParameterError(
            f"{count} {what} exceed the enumeration budget {budget}; use a "
            f"smaller fee grid or {remedy}"
        )


def _candidates(
    scenario: Scenario, family: str, grid: SearchGrid
) -> tuple[list[tuple], list[tuple[float, ...]]]:
    """Enumerate (points, fee vectors) for one family.

    A point is (f_E, f_LE, tau_F, tau_C), a TSP_CF_star point (f, f, tau_C,
    tau_C), and its fee vector is two_level_fees of it.  The validated grid
    keeps every fee in [u_min, u_max] and every cutoff below T, and
    itertools.combinations gives f_E < f_LE, so no point needs a check.
    """
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")
    T = scenario.period_length
    u_max = scenario.choice.u_max
    lo, hi = grid.cutoff_range
    count = len(grid.fee_values) * (hi - lo + 1)  # TSP_CF_star: fee x cutoff
    if family == "TSP":  # fee pairs x the tau_C switch ages of each cutoff tau_C
        count = math.comb(len(grid.fee_values), 2) * (lo + hi) * (hi - lo + 1) // 2
    if not count:
        raise ParameterError("parameter grid is empty")
    _check_budget(count, T, f"{family} candidates", "cutoff range")
    if family == "TSP_CF_star":
        points = [(f, f, tc, tc) for f in grid.fee_values for tc in range(lo, hi + 1)]
    else:
        points = [
            (fe, fle, tf, tc)
            for fe, fle in itertools.combinations(grid.fee_values, 2)
            for tc in range(lo, hi + 1)
            for tf in range(tc)
        ]
    return points, [two_level_fees(*point, T, u_max) for point in points]


def _tie_break(profits, points: list[tuple]) -> tuple[int, float, bool]:
    """(winner, runner_up_gap, tie_broken) of one search: profits within
    PROFIT_TIE_TOL of the maximum go to the point with the latest tau_C,
    then tau_F, then the cheapest f_E, then f_LE, and the gap is the
    winner's margin over the best other candidate (or inf)."""
    pmax = float(np.max(profits))
    tied = [i for i in range(len(profits)) if profits[i] >= pmax - PROFIT_TIE_TOL]

    def preference(i: int) -> tuple:
        f_e, f_le, tau_f, tau_c = points[i]
        return tau_c, tau_f, -f_e, -f_le

    winner = max(tied, key=preference)
    others = [profits[i] for i in range(len(profits)) if i != winner]
    gap = float(profits[winner] - max(others)) if others else math.inf
    return winner, gap, len(tied) > 1


def optimize_families(
    scenario: Scenario,
    searches: list[tuple[str, SearchGrid | None]],
    bound: int | None = None,
) -> list[Optimum]:
    """Exhaustive profit maximization over several (family, grid) searches.

    TSP_CF_star sweeps fee x cutoff; TSP sweeps fee pairs f_E < f_LE times
    switch x cutoff with switch < cutoff.  Every candidate of every search
    is evaluated in one batch on one evaluator at one truncation bound
    (found once if not given; the workload total is policy independent, so
    one bound serves every candidate), and the winners' reports come from
    that evaluator.  Within each search, profit ties within PROFIT_TIE_TOL
    go to the latest cutoff, then the latest switch, then the cheapest fees.
    """
    found = [
        _candidates(scenario, family, _validated_grid(scenario, grid))
        for family, grid in searches
    ]
    evaluator = PolicyEvaluator(scenario, bound)
    unique = list(dict.fromkeys(v for _, vectors in found for v in vectors))
    profit_of = dict(zip(unique, evaluator.profits_batch(unique)[0].tolist()))
    optima = []
    for (family, _), (points, vectors) in zip(searches, found):
        profits = tuple(profit_of[v] for v in vectors)
        winner, gap, tie_broken = _tie_break(profits, points)
        policy = FeeStructure(scenario.period_length, vectors[winner])
        report = policy_report(evaluator, policy)
        optima.append(Optimum(
            family, points[winner], policy, report, gap, tie_broken,
            tuple(points), profits,
        ))
    return optima


def optimize_family(
    scenario: Scenario,
    family: str,
    grid: SearchGrid | None = None,
    bound: int | None = None,
) -> Optimum:
    """Exhaustive profit maximization within one policy family: the
    one-search case of ``optimize_families``."""
    return optimize_families(scenario, [(family, grid)], bound)[0]


def is_weakly_monotone(policy: FeeStructure) -> bool:
    """True iff fees never decrease age over age (ties allowed)."""
    return all(a <= b for a, b in zip(policy.fees, policy.fees[1:]))


def exhaustive_fee_vector_search(
    scenario: Scenario,
    grid: SearchGrid | None = None,
    bound: int | None = None,
) -> tuple[FeeStructure, ...]:
    """Evaluate every fee vector in the grid's T-fold product.

    Returns the argmax set: every vector whose profit is within
    PROFIT_TIE_TOL of the maximum, in enumeration order.  Intended for
    small cycle lengths; refuses products beyond the enumeration budget.
    """
    grid = _validated_grid(scenario, grid)
    T = scenario.period_length
    _check_budget(len(grid.fee_values) ** T, T, "fee vectors", "shorter cycle")
    vectors = list(itertools.product(grid.fee_values, repeat=T))
    evaluator = PolicyEvaluator(scenario, bound)
    profits, _ = evaluator.profits_batch(vectors)
    pmax = float(np.max(profits))
    return tuple(
        FeeStructure(T, vec)
        for vec, profit in zip(vectors, profits)
        if profit >= pmax - PROFIT_TIE_TOL
    )


def dominance_experiment(
    scenario: Scenario,
    policy: FeeStructure,
    policy_prime: FeeStructure,
    bound: int | None = None,
) -> tuple[float, float]:
    """Check that cumulative-demand dominance implies fewer backorders.

    Returns (E[M], E[M']) of policy and policy_prime.  Requires the
    cumulative express demand of policy to dominate that of policy_prime
    componentwise with equal final values (raises a parameter error
    otherwise, since that is a hypothesis violation rather than a finding).
    Raises a numerics error if the backorder inequality itself fails beyond
    PROFIT_TIE_TOL.
    """
    prof = demand_profile(policy, scenario.choice, scenario.lam)
    prof_prime = demand_profile(policy_prime, scenario.choice, scenario.lam)
    slack = 1e-9
    if any(a < b - slack for a, b in zip(prof, prof_prime)):
        raise ParameterError(
            "cumulative demand profile of policy must dominate "
            "policy_prime componentwise"
        )
    if abs(prof[-1] - prof_prime[-1]) > slack:
        raise ParameterError(
            "profiles must accumulate equal total express demand"
        )
    evaluator = PolicyEvaluator(scenario, bound)
    _, em = evaluator.profits_batch([policy.fees, policy_prime.fees])
    backorders, backorders_prime = em.tolist()
    if backorders > backorders_prime + PROFIT_TIE_TOL:
        raise NumericsError(
            "dominating profile produced more backorders "
            f"({backorders} > {backorders_prime})"
        )
    return backorders, backorders_prime
