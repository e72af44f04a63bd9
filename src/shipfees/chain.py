"""Periodic Markov chain for a fulfillment center with deadline-driven demand.

State (x_c, x_s, tau): x_c orders due at the next deadline, x_s total
unprocessed orders, tau the age of the operating cycle (time mod T).  Express
orders join the current cycle's deadline batch, regular orders the next one;
processing is oldest-first, so only x_c and x_s matter.  The state space is
truncated at a total-workload bound chosen so the stationary probability of
rejecting orders is negligible.

The evaluator rests on two facts of the model:

* express plus regular arrivals always total Poisson(lam), whatever the fee,
  so the total workload x_s is a policy-free 1-D chain clamped at the bound.
  Its stationary law (one GTH solve) is the x_s marginal at every age, and
  it alone fixes the truncation bound and every rejection measure;
* at age 0 the joint state is diagonal (the deadline reset makes x_c = x_s)
  with that law on the diagonal, and what one period does depends on the
  posted fee only.  ``_AgeStep`` owns it: the express law, the pmf of
  u = express - capacity, the regular-order kernel and the deadline
  backorder matrices.  A step factorizes into a diagonal u shift, a
  deterministic relocation of heavy overflow to the truncation boundary,
  and a regular-order shift along columns.  One policy evaluation is then
  T - 1 dense-array pushes, which is what makes exhaustive fee-grid
  searches tractable.

Both clamped shifts, the workload chain's x' = clamp(x + demand - capacity,
0, bound) and a step's x_s' = clamp(x_s + regular, 0, bound), are built by
one kernel, ``_shift_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .choice import ChoiceModel, split_rates
from .distributions import CapacitySpec, Pmf, discretized_beta, poisson_pmf
from .errors import CapacityInfeasibleError, NumericsError, ParameterError
from .policies import FeeStructure

# Poisson supports are truncated at this residual tail mass (folded onto the
# last support point), keeping every transition exactly mass-conserving.
TAIL_EPS = 1e-12


@dataclass(frozen=True)
class Scenario:
    """Model primitives: cycle length, arrivals, capacity, choice, penalty."""

    period_length: int
    lam: float
    capacity: Pmf
    choice: ChoiceModel
    penalty: float
    rejection_threshold: float = 0.023

    def __post_init__(self) -> None:
        if self.period_length < 2:
            raise ParameterError("period_length must be at least 2")
        for name in ("lam", "penalty", "rejection_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.lam < 0.0:
            raise ParameterError("arrival rate must be nonnegative")
        if self.penalty < 0.0:
            raise ParameterError("backorder penalty must be nonnegative")
        if not 0.0 < self.rejection_threshold <= 1.0:
            raise ParameterError("rejection_threshold must lie in (0, 1]")
        mean_cap = self.capacity.mean()
        if mean_cap <= 0.0:
            raise ParameterError("capacity must have positive mean")
        if not self.lam < mean_cap:
            raise ParameterError(
                f"utilization lam/E[B] = {self.lam / mean_cap:.4g} must be < 1"
            )

    @property
    def utilization(self) -> float:
        return self.lam / self.capacity.mean()

    @classmethod
    def from_utilization(
        cls,
        period_length: int,
        lam: float,
        utilization: float,
        capacity_scv: float,
        capacity_support_max: int,
        choice: ChoiceModel,
        penalty: float,
        rejection_threshold: float = 0.023,
    ) -> "Scenario":
        """Build a scenario with discretized-Beta capacity hitting a target load."""
        if not 0.0 < utilization < 1.0:
            raise ParameterError("utilization must lie in (0, 1)")
        spec = CapacitySpec(capacity_support_max, lam / utilization, capacity_scv)
        return cls(
            period_length,
            lam,
            discretized_beta(spec),
            choice,
            penalty,
            rejection_threshold,
        )


# ---------------------------------------------------------------------------
# State enumeration: states (x_c, x_s) with 0 <= x_c <= x_s <= bound, ordered
# by total workload then deadline count.


def state_count(bound: int) -> int:
    return (bound + 1) * (bound + 2) // 2


def state_pairs(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (x_c, x_s) listing all states in enumeration order."""
    s = np.repeat(np.arange(bound + 1), np.arange(1, bound + 2))
    c = np.concatenate([np.arange(k + 1) for k in range(bound + 1)])
    return c, s


def joint_from_vector(vec: np.ndarray, bound: int) -> np.ndarray:
    """Reshape a state vector into the (x_c, x_s) joint array."""
    c, s = state_pairs(bound)
    J = np.zeros((bound + 1, bound + 1))
    J[c, s] = vec
    return J


def vector_from_joint(J: np.ndarray) -> np.ndarray:
    bound = J.shape[0] - 1
    c, s = state_pairs(bound)
    return J[c, s].copy()


def transition(
    x_c: int, x_s: int, e: int, r: int, b: int, bound: int, deadline: bool = False
) -> tuple[int, int]:
    """One truncated transition given realized arrivals and capacity.

    Overflow beyond the bound is rejected from regular orders first, then
    express; the deadline step resets the due count to the full workload.
    """
    o = max(x_s + e + r - b - bound, 0)
    r_acc = max(r - o, 0)
    e_acc = max(e - max(o - r, 0), 0)
    x_s2 = max(x_s + e_acc + r_acc - b, 0)
    x_c2 = x_s2 if deadline else max(x_c + e_acc - b, 0)
    return x_c2, x_s2


# ---------------------------------------------------------------------------
# Dense linear algebra helpers.


def _gth_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary vector of a row-stochastic matrix by GTH elimination.

    Subtraction-free state reduction; numerically robust for the nearly
    reducible chains that show up at large truncation bounds.
    """
    A = np.array(P, dtype=float)
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0.0:
            raise NumericsError("GTH pivot vanished; chain not irreducible")
        A[:k, k] /= s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    x = np.empty(n)
    x[0] = 1.0
    for k in range(1, n):
        x[k] = x[:k] @ A[:k, k]
    return x / x.sum()


def _suffix_tails(arr: np.ndarray) -> np.ndarray:
    """tails[i] = sum over arr[i:], with one extra trailing zero."""
    out = np.zeros(arr.size + 1)
    out[:-1] = np.cumsum(arr[::-1])[::-1]
    return out


def _shift_matrix(
    p: np.ndarray, origin: int, rows: np.ndarray, bound: int
) -> np.ndarray:
    """Kernel K[i, y] = P(clamp(rows[i] + V, 0, bound) = y), p[origin] = P(V = 0)."""
    dest = np.clip(rows[:, None] + (np.arange(p.size) - origin), 0, bound)
    K = np.zeros((rows.size, bound + 1))
    np.add.at(K, (np.arange(rows.size)[:, None], dest), np.broadcast_to(p, dest.shape))
    return K


def _overshoot(p: np.ndarray, origin: int, headroom: np.ndarray) -> np.ndarray:
    """E[(V - h)^+] for each h in headroom, p[origin] = P(V = 0)."""
    return np.maximum(np.arange(p.size) - origin - headroom[:, None], 0) @ p


# ---------------------------------------------------------------------------
# Structural evaluator.


class _AgeStep:
    """What one period posting one fee does to the joint pmf J[x_c, x_s].

    J (upper triangular) evolves by conditioning on u = express - capacity
    and the regular count r, which are independent:

    * mass with u <= bound - x_s shifts diagonally by u;
    * heavier express surpluses overflow: rejections push the state exactly
      onto (x_c + bound - x_s, bound), independent of the realized u;
    * r then shifts the column index by the clamped-shift kernel ``R``
      (regular orders are rejected first, so rows are unaffected);
    * negative rows finally fold to zero (idle capacity is lost).

    The step also holds the fee's express rate and pmf, read by the revenue
    and express-loss measures, and the deadline backorder matrices, built
    from the same u on first use.
    """

    def __init__(self, scenario: Scenario, fee: float, bound: int):
        self.bound = bound
        self.nb = scenario.capacity.support_max
        self.rate, regular_rate = split_rates(scenario.choice, scenario.lam, fee)
        self.express = poisson_pmf(self.rate, TAIL_EPS)
        self.u = np.convolve(self.express.mass, scenario.capacity.mass[::-1])
        self._u_tails = _suffix_tails(self.u)
        # rows: the column index x_s in -nb..bound once u has shifted it
        self.R = _shift_matrix(
            poisson_pmf(regular_rate, TAIL_EPS).mass,
            0,
            np.arange(-self.nb, bound + 1),
            bound,
        )

    def push(self, J: np.ndarray) -> np.ndarray:
        N = self.bound + 1
        X = self.bound
        nb = self.nb
        A = np.zeros((N + nb, N + nb))
        u = self.u
        for i in range(u.size):
            w = u[i]
            if w == 0.0:
                continue
            uv = i - nb
            k = N if uv <= 0 else N - uv
            if k <= 0:
                continue
            A[nb + uv : nb + uv + k, nb + uv : nb + uv + k] += w * J[:k, :k]
        for s in range(max(X - self.express.support_max + 1, 0), N):
            t = self._u_tails[min(X - s + nb + 1, u.size)]  # P(u > X - s)
            if t == 0.0:
                continue
            A[nb + X - s : nb + X + 1, nb + X] += t * J[: s + 1, s]
        core = A @ self.R
        out = np.empty((N, N))
        out[0, :] = core[: nb + 1, :].sum(axis=0)
        out[1:, :] = core[nb + 1 :, :]
        return out

    @cached_property
    def backorders_raw(self) -> np.ndarray:
        """G[x_c, x_s] = E[(x_c + u)^+] at the deadline age, rejections ignored."""
        N = self.bound + 1
        per_row = _overshoot(self.u, self.nb, -np.arange(N))
        return np.broadcast_to(per_row[:, None], (N, N))

    @cached_property
    def backorders_adjusted(self) -> np.ndarray:
        """raw G minus E[(u - (bound - x_s))^+].

        Express arrivals beyond the headroom bound - x_s are rejected, which
        pins the surplus to x_c + bound - x_s on that event.  Subtracting
        keeps adjusted <= raw exact, with equality when no express arrives.
        """
        headroom = self.bound - np.arange(self.bound + 1)
        return self.backorders_raw - _overshoot(self.u, self.nb, headroom)


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary joint distribution per age over the triangular enumeration."""

    bound: int
    per_age: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        S = state_count(self.bound)
        for vec in self.per_age:
            arr = np.asarray(vec, dtype=float).copy()
            if arr.shape != (S,):
                raise ParameterError("per-age vector has wrong length")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "per_age", tuple(frozen))

    @property
    def period_length(self) -> int:
        return len(self.per_age)

    def joint(self, age: int) -> np.ndarray:
        return joint_from_vector(self.per_age[age], self.bound)

    def workload_marginal(self, age: int) -> np.ndarray:
        return self.joint(age).sum(axis=0)


class PolicyEvaluator:
    """Steady-state evaluation of many policies at a shared truncation bound.

    Holds one ``_AgeStep`` per fee, and walks fee vectors in sorted order so
    that policies sharing a fee prefix share the corresponding pushes.
    ``workload`` is the stationary law of the total workload x_s, which is
    the same at every age and for every policy: express plus regular
    arrivals always total Poisson(lam) regardless of the fee.  It is the
    age-0 state, diag(workload), and the only input of the rejection
    measures.
    """

    def __init__(self, scenario: Scenario, bound: int):
        if bound < 0:
            raise ParameterError("bound must be nonnegative")
        self.scenario = scenario
        self.bound = bound
        self._steps: dict[float, _AgeStep] = {}
        demand = poisson_pmf(scenario.lam, TAIL_EPS)
        # one-period workload shift V = demand - capacity; _shift[nb] = P(V = 0)
        self._nb = scenario.capacity.support_max
        self._shift = np.convolve(demand.mass, scenario.capacity.mass[::-1])
        self.workload = _gth_stationary(
            _shift_matrix(self._shift, self._nb, np.arange(bound + 1), bound)
        )
        self._root = np.diag(self.workload)

    def _step(self, fee: float) -> _AgeStep:
        if fee not in self._steps:
            self._steps[fee] = _AgeStep(self.scenario, fee, self.bound)
        return self._steps[fee]

    # -- rejection measures (policy free) ------------------------------------

    def rejection_probability(self) -> float:
        """Stationary per-period probability that the bound rejects an order."""
        tails = _suffix_tails(self._shift)
        headroom = self.bound - np.arange(self.bound + 1)
        idx = np.minimum(headroom + self._nb + 1, self._shift.size)
        return float(self.workload @ tails[idx])

    def expected_rejected_per_cycle(self) -> float:
        """Expected number of rejected orders per operating cycle."""
        headroom = self.bound - np.arange(self.bound + 1)
        excess = _overshoot(self._shift, self._nb, headroom)
        return self.scenario.period_length * float(self.workload @ excess)

    def express_loss(self, fee: float) -> float:
        """Expected express orders rejected in one period posting this fee.

        Regular orders are rejected first, so the express loss at workload
        x_s is min(E, (x_s + E - B - bound)^+), independent of the regular
        count.
        """
        e = self._step(fee).express.mass
        cap = self.scenario.capacity.mass
        e_vals = np.arange(e.size)[:, None]
        excess = (
            np.arange(self.bound + 1)[:, None, None]
            + e_vals
            - np.arange(cap.size)
            - self.bound
        )
        lost = np.minimum(e_vals, np.maximum(excess, 0))
        per_state = np.sum(lost * np.outer(e, cap), axis=(1, 2))
        return float(self.workload @ per_state)

    # -- evaluation --------------------------------------------------------

    def revenue(self, fees: tuple[float, ...]) -> float:
        """Expected express revenue per cycle at idealized thinned rates."""
        total = 0.0
        for fee in fees:
            rate = self._step(fee).rate
            if rate > 0.0:
                total += fee * rate
        return total

    def joints(self, fees: tuple[float, ...]) -> list[np.ndarray]:
        """Per-age joint pmfs J[x_c, x_s] for one policy."""
        if len(fees) != self.scenario.period_length:
            raise ParameterError("fee vector length must equal period_length")
        out = [self._root]
        for fee in fees[:-1]:
            out.append(self._step(fee).push(out[-1]))
        return out

    def backorders(self, fees: tuple[float, ...], adjusted: bool = True) -> float:
        """E[M] of one policy under either truncation convention."""
        last = self._step(fees[-1])
        G = last.backorders_adjusted if adjusted else last.backorders_raw
        return float(np.sum(self.joints(fees)[-1] * G))

    def profits_batch(
        self, fee_vectors: list[tuple[float, ...]]
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
        stack = [self._root]
        last = self.scenario.period_length - 1
        for i in order:
            fees = fee_vectors[i]
            if len(fees) != self.scenario.period_length:
                raise ParameterError("fee vector length must equal period_length")
            d = 0
            while d < len(depth_fees) and d < last and depth_fees[d] == fees[d]:
                d += 1
            del depth_fees[d:]
            del stack[d + 1 :]
            while d < last:
                stack.append(self._step(fees[d]).push(stack[-1]))
                depth_fees.append(fees[d])
                d += 1
            G = self._step(fees[last]).backorders_adjusted
            em = float(np.sum(stack[last] * G))
            backorders[i] = em
            profits[i] = self.revenue(fees) - self.scenario.penalty * em
        return profits, backorders

    def distribution(self, fees: tuple[float, ...]) -> StationaryDistribution:
        vecs = [vector_from_joint(J) for J in self.joints(fees)]
        return StationaryDistribution(self.bound, tuple(vecs))


def steady_state(
    scenario: Scenario, policy: FeeStructure, bound: int
) -> StationaryDistribution:
    """Stationary per-age distribution via the structural evaluator."""
    return PolicyEvaluator(scenario, bound).distribution(policy.fees)


# ---------------------------------------------------------------------------
# Truncation bound search.


def find_bound(scenario: Scenario, hard_cap: int = 2000) -> int:
    """Smallest workload bound keeping the rejection probability acceptable.

    Rejection depends on the policy-free workload law only, so the bound
    serves every policy of the scenario; each probe is one evaluator set-up
    (a 1-D solve).  Exponential bracketing followed by bisection;
    monotonicity of the rejection probability in the bound is assumed,
    checked against all probes, and on violation the search falls back to a
    linear scan upward.  Raises CapacityInfeasibleError if even hard_cap is
    not enough.
    """
    threshold = scenario.rejection_threshold
    probes: dict[int, float] = {}

    def rej(b: int) -> float:
        if b not in probes:
            probes[b] = PolicyEvaluator(scenario, b).rejection_probability()
        return probes[b]

    def monotone() -> bool:
        items = sorted(probes.items())
        return all(
            a[1] >= b[1] - 1e-15 for a, b in zip(items, items[1:])
        )

    if rej(1) <= threshold:
        return 1
    lo = 1
    hi = 1
    while rej(hi) > threshold:
        if hi >= hard_cap:
            raise CapacityInfeasibleError(
                f"rejection probability {rej(hard_cap):.4g} still above "
                f"{threshold:g} at bound {hard_cap}"
            )
        lo = hi
        hi = min(hi * 2, hard_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rej(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    if not monotone():
        b = 1
        while rej(b) > threshold:
            b += 1
            if b > hard_cap:
                raise CapacityInfeasibleError(
                    f"no bound up to {hard_cap} meets threshold {threshold:g}"
                )
        return b
    return hi
