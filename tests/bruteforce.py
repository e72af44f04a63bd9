"""Independent reference implementations backing the test suite.

Everything here recomputes chain behaviour from first principles: literal
nested loops over states and arrival counts, dense matrices, and a direct
linear solve for the stationary vector.  No code is shared with the package
internals beyond dataclass field access, so agreement is meaningful.  Slow
on purpose; keep bounds, rates, and period lengths small in tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def poisson_masses(rate: float, tail: float = 1e-13) -> np.ndarray:
    """Poisson pmf cut where the upper tail drops below tail, remainder folded."""
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    if rate == 0.0:
        return np.array([1.0])
    hi = int(rate + 12.0 * math.sqrt(rate) + 30.0)
    while stats.poisson.sf(hi, rate) > tail:
        hi *= 2
    mass = stats.poisson.pmf(np.arange(hi + 1), rate)
    mass[-1] += max(1.0 - mass.sum(), 0.0)
    return mass


def express_share(choice, fee: float) -> float:
    """Fraction of arrivals that buy express at the quoted fee."""
    if math.isinf(fee) or fee >= choice.u_max:
        return 0.0
    if fee <= choice.u_min:
        return 1.0
    return (choice.u_max - fee) / (choice.u_max - choice.u_min)


def states_list(bound: int) -> list[tuple[int, int]]:
    """All (x_c, x_s) pairs with x_c <= x_s <= bound, x_s-major order."""
    return [(xc, xs) for xs in range(bound + 1) for xc in range(xs + 1)]


def step_state(
    xc: int, xs: int, e: int, r: int, b: int, bound: int, deadline: bool
) -> tuple[int, int]:
    """One period update: admit, reject overflow (regular first), process."""
    o = max(xs + e + r - b - bound, 0)
    e_adj = max(e - max(o - r, 0), 0)
    xs2 = max(xs + e + r - o - b, 0)
    xc2 = max(xc + e_adj - b, 0)
    if deadline:
        xc2 = xs2
    return xc2, xs2


def age_matrix(scenario, fee: float, bound: int, deadline: bool) -> np.ndarray:
    """Dense one-period transition matrix at a single fee."""
    lam_e = scenario.lam * express_share(scenario.choice, fee)
    pe = poisson_masses(lam_e)
    pr = poisson_masses(scenario.lam - lam_e)
    pb = scenario.capacity.mass
    states = states_list(bound)
    index = {s: i for i, s in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for i, (xc, xs) in enumerate(states):
        for e, qe in enumerate(pe):
            for r, qr in enumerate(pr):
                w1 = qe * qr
                if w1 == 0.0:
                    continue
                for b, qb in enumerate(pb):
                    if qb == 0.0:
                        continue
                    j = index[step_state(xc, xs, e, r, b, bound, deadline)]
                    mat[i, j] += w1 * qb
    return mat


def cycle_matrices(scenario, policy, bound: int) -> list[np.ndarray]:
    """Per-age matrices; the last one folds in the deadline reset."""
    T = scenario.period_length
    return [
        age_matrix(scenario, policy.fees[t], bound, t == T - 1) for t in range(T)
    ]


def stationary_per_age(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Stationary distribution at each age via a dense linear solve."""
    cycle = mats[0]
    for m in mats[1:]:
        cycle = cycle @ m
    n = cycle.shape[0]
    a = cycle.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi0 = np.linalg.solve(a, rhs)
    pi0 = np.maximum(pi0, 0.0)
    pi0 /= pi0.sum()
    out = [pi0]
    for m in mats[:-1]:
        out.append(out[-1] @ m)
    return out


def workload_rejection(scenario, bound: int) -> float:
    """Stationary per-period rejection probability of the total workload.

    Express plus regular demand is Poisson(lam) whatever the fee, so x_s
    alone decides rejections: a period rejects when x_s + demand - capacity
    exceeds the bound.  Dense matrix by loops, then a direct linear solve.
    """
    pd = poisson_masses(scenario.lam)
    pb = scenario.capacity.mass
    n = bound + 1
    mat = np.zeros((n, n))
    over = np.zeros(n)
    for x in range(n):
        for a, qa in enumerate(pd):
            for b, qb in enumerate(pb):
                y = x + a - b
                if y > bound:
                    over[x] += qa * qb
                mat[x, min(max(y, 0), bound)] += qa * qb
    pi = stationary_per_age([mat])[0]
    return float(pi @ over)


def brute_report(scenario, policy, bound: int) -> dict:
    """Stationary measures by exhaustive enumeration."""
    T = scenario.period_length
    states = states_list(bound)
    per_age = stationary_per_age(cycle_matrices(scenario, policy, bound))
    cap = scenario.capacity.mass
    reject = 0.0
    over_total = 0.0
    revenue = 0.0
    revenue_adj = 0.0
    m_adj = 0.0
    m_raw = 0.0
    rates = []
    rates_adj = []
    for t in range(T):
        fee = policy.fees[t]
        lam_e = scenario.lam * express_share(scenario.choice, fee)
        pe = poisson_masses(lam_e)
        pr = poisson_masses(scenario.lam - lam_e)
        pi = per_age[t]
        acc_reject = 0.0
        acc_over = 0.0
        acc_eadj = 0.0
        acc_m = 0.0
        acc_m_raw = 0.0
        for i, (xc, xs) in enumerate(states):
            w0 = pi[i]
            if w0 == 0.0:
                continue
            for e, qe in enumerate(pe):
                for r, qr in enumerate(pr):
                    w1 = w0 * qe * qr
                    if w1 == 0.0:
                        continue
                    for b, qb in enumerate(cap):
                        if qb == 0.0:
                            continue
                        w = w1 * qb
                        o = max(xs + e + r - b - bound, 0)
                        e_adj = max(e - max(o - r, 0), 0)
                        if o > 0:
                            acc_reject += w
                            acc_over += w * o
                        acc_eadj += w * e_adj
                        if t == T - 1:
                            acc_m += w * max(xc + e_adj - b, 0)
                            acc_m_raw += w * max(xc + e - b, 0)
        reject += acc_reject
        over_total += acc_over
        rates.append(lam_e)
        rates_adj.append(acc_eadj)
        if lam_e > 0.0:
            revenue += fee * lam_e
        if acc_eadj > 0.0:
            revenue_adj += fee * acc_eadj
        m_adj += acc_m
        m_raw += acc_m_raw
    return {
        "expected_backorders": m_adj,
        "expected_backorders_raw": m_raw,
        "revenue": revenue,
        "revenue_adjusted": revenue_adj,
        "rejection_probability": reject / T,
        "expected_rejected_per_cycle": over_total,
        "variable_profit": revenue - scenario.penalty * m_adj,
        "per_age_express_rate": tuple(rates),
        "per_age_express_rate_adjusted": tuple(rates_adj),
    }
