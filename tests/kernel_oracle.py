"""Generic sparse-kernel oracle for the truncated periodic chain.

A second, independent representation of the dynamics: ``build_kernel``
materializes the per-age transition kernels over the triangular state
enumeration (the last age folds in the deadline reset) and ``stationary``
power-iterates the cycle map.  The package evaluates policies with the
structural pushes of ``shipfees.chain`` on the joint J[x_c, x_s] instead;
``joint_from_vector`` maps a state vector to that joint, so the tests compare
the two, and both against the dense enumeration in ``bruteforce.py``.  ``loop_push``
is the structural push written as loops over u = express - capacity, the
reference for the package's matrix-product push.  ``prefix_profits_batch`` is
the batch evaluator that pushes every distinct fee prefix forward to the
last age, the reference for the package's split forward/adjoint batch.
``broadcast_express_loss`` is the expected express loss taken over every
(x_s, E, B), the reference for the package's loss read from a step's overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from shipfees.chain import TAIL_EPS, Scenario
from shipfees.choice import split_rates
from shipfees.distributions import Pmf, poisson_pmf
from shipfees.errors import NumericsError, ParameterError
from shipfees.policies import FeeStructure


def _suffix_tails(arr: np.ndarray) -> np.ndarray:
    """tails[i] = sum over arr[i:], with one extra trailing zero."""
    out = np.zeros(arr.size + 1)
    out[:-1] = np.cumsum(arr[::-1])[::-1]
    return out


@dataclass(frozen=True)
class AgeIncome:
    """Arrival split at one age: express/regular pmfs and the posted fee."""

    fee: float
    express_rate: float
    express: Pmf
    regular: Pmf


def age_incomes(scenario: Scenario, policy: FeeStructure) -> tuple[AgeIncome, ...]:
    """Per-age truncated express/regular order pmfs under a policy."""
    if policy.period_length != scenario.period_length:
        raise ParameterError(
            f"policy covers {policy.period_length} ages, scenario has "
            f"{scenario.period_length}"
        )
    out = []
    for fee in policy.fees:
        e_rate, r_rate = split_rates(scenario.choice, scenario.lam, fee)
        out.append(
            AgeIncome(fee, e_rate, poisson_pmf(e_rate, TAIL_EPS), poisson_pmf(r_rate, TAIL_EPS))
        )
    return tuple(out)


def state_count(bound: int) -> int:
    """Number of states (x_c, x_s) with 0 <= x_c <= x_s <= bound."""
    return (bound + 1) * (bound + 2) // 2


def state_index(x_c, x_s):
    """Flat index of state (x_c, x_s); accepts scalars or arrays."""
    return x_s * (x_s + 1) // 2 + x_c


def joint_from_vector(vec: np.ndarray, bound: int) -> np.ndarray:
    """The state vector as the joint J[x_c, x_s], zero below the diagonal."""
    x_s, x_c = np.nonzero(np.tri(bound + 1, dtype=bool))
    J = np.zeros((bound + 1, bound + 1))
    J[x_c, x_s] = vec[state_index(x_c, x_s)]
    return J


@dataclass(frozen=True)
class TruncatedKernel:
    """Per-age sparse transition kernels over the triangular enumeration.

    rejection_mass_per_age[tau][i] is the probability that the next step from
    state i at age tau overflows the bound (some order is rejected);
    expected_rejected_per_age[tau][i] is the expected number of rejected
    orders on that step.
    """

    bound: int
    per_age: tuple[sparse.csr_matrix, ...]
    rejection_mass_per_age: tuple[np.ndarray, ...]
    expected_rejected_per_age: tuple[np.ndarray, ...]

    @property
    def period_length(self) -> int:
        return len(self.per_age)


def build_kernel(
    scenario: Scenario, policy: FeeStructure, bound: int
) -> TruncatedKernel:
    """Materialize the truncated per-age kernels for one policy.

    Rows enumerate (x_c, x_s) with x_c <= x_s <= bound; every row sums to one
    exactly because arrival pmfs are tail-folded before use.
    """
    if bound < 1:
        raise ParameterError("bound must be at least 1")
    incomes = age_incomes(scenario, policy)
    cap = scenario.capacity
    nb = cap.support_max
    S = state_count(bound)
    T = scenario.period_length
    kernels = []
    overflow = []
    rejected = []
    for tau in range(T):
        inc = incomes[tau]
        u = np.convolve(inc.express.mass, cap.mass[::-1])
        u_vals = np.arange(u.size) - nb
        u_tails = _suffix_tails(u)
        r = inc.regular.mass
        r_vals = np.arange(r.size)
        v = np.convolve(u, r)
        v_vals = np.arange(v.size) - nb
        v_tails = _suffix_tails(v)
        rows_acc, cols_acc, data_acc = [], [], []
        over = np.empty(S)
        rej = np.empty(S)
        for s in range(bound + 1):
            src = state_index(np.arange(s + 1), s)
            headroom = bound - s
            idx_tail = min(headroom + nb + 1, v.size)
            over[src] = v_tails[idx_tail]
            rej[src] = np.maximum(v_vals - headroom, 0.0) @ v
            if tau == T - 1:
                dest_tot = np.clip(s + v_vals, 0, bound)
                dest = state_index(dest_tot, dest_tot)
                rows_acc.append(np.repeat(src, v.size))
                cols_acc.append(np.tile(dest, s + 1))
                data_acc.append(np.tile(v, s + 1))
                continue
            keep = u_vals <= headroom
            ub, wb = u_vals[keep], u[keep]
            cols3 = np.clip(s + ub[:, None] + r_vals[None, :], 0, bound)
            rows2 = np.maximum(np.arange(s + 1)[:, None] + ub[None, :], 0)
            dest = state_index(
                rows2[:, :, None], np.broadcast_to(cols3, (s + 1, ub.size, r.size))
            )
            w3 = np.broadcast_to(
                (wb[:, None] * r[None, :])[None, :, :], dest.shape
            )
            rows_acc.append(np.repeat(src, ub.size * r.size))
            cols_acc.append(dest.ravel())
            data_acc.append(w3.ravel().copy())
            t_heavy = u_tails[min(headroom + nb + 1, u.size)]
            if t_heavy > 0.0:
                dest_h = state_index(np.arange(s + 1) + headroom, bound)
                rows_acc.append(src)
                cols_acc.append(dest_h)
                data_acc.append(np.full(s + 1, t_heavy))
        mat = sparse.coo_matrix(
            (
                np.concatenate(data_acc),
                (np.concatenate(rows_acc), np.concatenate(cols_acc)),
            ),
            shape=(S, S),
        ).tocsr()
        mat.sum_duplicates()
        kernels.append(mat)
        overflow.append(over)
        rejected.append(rej)
    return TruncatedKernel(bound, tuple(kernels), tuple(overflow), tuple(rejected))


def stationary(
    kernel: TruncatedKernel,
    initial: np.ndarray | None = None,
    tol: float = 1e-12,
    max_cycles: int = 10**6,
) -> tuple[np.ndarray, ...]:
    """Stationary per-age state vectors by power iteration on the cycle map.

    Iterates the age-0 vector through one full cycle per step until the L1
    change drops below tol; a 0.5 damping factor kicks in only if the
    residual starts oscillating.  Raises on non-convergence.
    """
    S = kernel.per_age[0].shape[0]
    transposed = [P.T.tocsr() for P in kernel.per_age]
    if initial is None:
        v = np.full(S, 1.0 / S)
    else:
        v = np.asarray(initial, dtype=float).copy()
        if v.shape != (S,) or np.any(v < 0.0) or v.sum() <= 0.0:
            raise ParameterError("initial vector must be a nonnegative pmf")
        v /= v.sum()
    prev_diff = np.inf
    damp = False
    for _ in range(max_cycles):
        w = v
        for Pt in transposed:
            w = Pt @ w
        w = w / w.sum()
        diff = float(np.abs(w - v).sum())
        if diff <= tol:
            v = w
            break
        if diff > prev_diff and not damp:
            damp = True
        v = 0.5 * (v + w) if damp else w
        prev_diff = diff
    else:
        raise NumericsError(
            f"power iteration did not reach tol={tol:g} in {max_cycles} cycles "
            f"(residual {diff:.3g})"
        )
    per_age = [v]
    cur = v
    for Pt in transposed[:-1]:
        cur = Pt @ cur
        cur = cur / cur.sum()
        per_age.append(cur)
    return tuple(per_age)


def loop_push(step, J: np.ndarray) -> np.ndarray:
    """One age push of J[x_c, x_s] by Python loops over u = express - capacity.

    The package's push before it became two matrix products, kept as the
    reference: a slice-add per value of u for the diagonal shift, one per
    overflowing column for the relocation onto (x_c + bound - x_s, bound),
    then the step's regular-order kernel ``R`` and the fold of negative rows.
    """
    N = step.bound + 1
    X = step.bound
    nb = step.nb
    A = np.zeros((N + nb, N + nb))
    u = step.u
    u_tails = _suffix_tails(u)
    for i in range(u.size):
        w = u[i]
        if w == 0.0:
            continue
        uv = i - nb
        k = N if uv <= 0 else N - uv
        if k <= 0:
            continue
        A[nb + uv : nb + uv + k, nb + uv : nb + uv + k] += w * J[:k, :k]
    for s in range(max(X - (step.express.size - 1) + 1, 0), N):
        t = u_tails[min(X - s + nb + 1, u.size)]  # P(u > X - s)
        if t == 0.0:
            continue
        A[nb + X - s : nb + X + 1, nb + X] += t * J[: s + 1, s]
    core = A @ step.R
    out = np.empty((N, N))
    out[0, :] = core[: nb + 1, :].sum(axis=0)
    out[1:, :] = core[nb + 1 :, :]
    return out


def prefix_profits_batch(
    ev, fee_vectors: list[tuple[float, ...]]
) -> tuple[np.ndarray, np.ndarray]:
    """(variable profit, backorders) for each fee vector.

    Vectors are processed in lexicographic order with a stack of partial
    pushes, so the cost is one push per distinct fee prefix rather than
    per policy.
    """
    n = len(fee_vectors)
    profits = np.empty(n)
    backorders = np.empty(n)
    order = sorted(range(n), key=lambda i: fee_vectors[i])
    depth_fees: list[float] = []
    stack = [ev._root]
    last = ev.scenario.period_length - 1
    for i in order:
        fees = fee_vectors[i]
        if len(fees) != ev.scenario.period_length:
            raise ParameterError("fee vector length must equal period_length")
        d = 0
        while d < len(depth_fees) and d < last and depth_fees[d] == fees[d]:
            d += 1
        del depth_fees[d:]
        del stack[d + 1 :]
        while d < last:
            stack.append(ev._step(fees[d]).push(stack[-1]))
            depth_fees.append(fees[d])
            d += 1
        G = ev._step(fees[last]).backorders_adjusted
        em = float(np.sum(stack[last] * G))
        backorders[i] = em
        profits[i] = ev.revenue(fees) - ev.scenario.penalty * em
    return profits, backorders


def broadcast_express_loss(ev, fee: float) -> float:
    """Expected express orders rejected in one period posting this fee.

    The package's express loss before it read the step's overflow, kept as
    the reference: min(E, (x_s + E - B - bound)^+) over a (bound + 1) x |E|
    x |B| array, weighted by the express and capacity pmfs and then by the
    workload law.
    """
    e = ev._step(fee).express
    cap = ev.scenario.capacity.mass
    e_vals = np.arange(e.size)[:, None]
    excess = (
        np.arange(ev.bound + 1)[:, None, None]
        + e_vals
        - np.arange(cap.size)
        - ev.bound
    )
    lost = np.minimum(e_vals, np.maximum(excess, 0))
    per_state = np.sum(lost * np.outer(e, cap), axis=(1, 2))
    return float(ev.workload @ per_state)
