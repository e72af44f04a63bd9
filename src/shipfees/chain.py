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
  it alone fixes the truncation bound and both rejection measures.  The law
  holds the measures, and both are memoized by value: the law on (lam,
  capacity, bound), the bound on (lam, capacity, rejection threshold, hard
  cap), so scenarios that differ only in T, choice or penalty, and every
  policy, share them.  ``Pmf`` compares and hashes by value to key them,
  and the shared ``PolicyEvaluator.workload`` vector is read-only;
* at age 0 the joint state is diagonal (the deadline reset makes x_c = x_s)
  with that law on the diagonal, and what one period does depends on the
  posted fee only through its express rate.  ``_AgeStep`` owns it, one per
  rate (``u_max`` and ``inf`` share one): the pmf of u = express -
  capacity, the headroom and regular-order kernels, the deadline backorder
  matrices and the overflow E[(u - (bound - x_s))^+], the express loss.
  A push is two matrix products and a policy is T - 1 pushes;
* E[M] is linear in the joint at every age, so it is the inner product
  <J_m, W_m> at any split age m: J_m is the joint after the first m
  pushes, W_m the last fee's backorder matrix pulled back through the
  remaining steps by ``_AgeStep.pull``, the adjoint of the push (the same
  kernels transposed).  A batch of fee vectors cuts each one after its
  first run of equal fees, pushes the distinct runs forward and pulls the
  distinct suffixes back, which makes exhaustive fee-grid searches cheap.

One kernel, ``_shift_matrix``, builds every clamped shift: the workload
chain's x' = clamp(x + demand - capacity, 0, bound), a step's headroom
shift h' = clamp(h - u, 0, bound + nb) and its regular-order shift
x_s' = clamp(x_s + regular, 0, bound).  It is one gather from
[pmf | 0 | cdf | tails] at an index that depends only on the kernel's
shape, cached like the push's headroom index: u and the regular pmf are
padded to the size of V = demand - capacity, so every fee's step at one
(bound, nb) shares the two indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .choice import ChoiceModel, split_rates
from .distributions import BOUND_CAP, CapacitySpec, Pmf, _poisson_mass, discretized_beta
from .errors import CapacityInfeasibleError, NumericsError, ParameterError
from .errors import check_integer, check_real, store

# Most joints of (bound + 1)^2 floats one policy (T) or one batch (its run
# joints and pull stack) may hold; T = 100000 at bound 30 holds 769 MB.
JOINT_BYTES_MAX = 2**30

# Default stationary per-period rejection probability the bound must reach.
REJECTION_THRESHOLD = 0.023

# Poisson supports are truncated at this residual tail mass (folded onto the
# last support point), keeping every transition exactly mass-conserving.
TAIL_EPS = 1e-12


def check_period_length(name: str, value) -> int:
    """value as an int, if it is an integer cycle length whose joints fit in
    JOINT_BYTES_MAX at bound 0, where each age's joint is one float."""
    T = check_integer(name, value)
    if T > JOINT_BYTES_MAX // 8:
        raise ParameterError(
            f"{name} must be at most {JOINT_BYTES_MAX // 8}, the ages whose joints "
            f"fit in the {JOINT_BYTES_MAX / 2**30:g} GiB limit at bound 0"
        )
    return T


@dataclass(frozen=True)
class Scenario:
    """Model primitives: cycle length, arrivals, capacity, choice, penalty."""

    period_length: int
    lam: float
    capacity: Pmf
    choice: ChoiceModel
    penalty: float
    rejection_threshold: float = REJECTION_THRESHOLD

    def __post_init__(self) -> None:
        store(self, check_period_length, "period_length")
        store(self, check_real, "lam", "penalty", "rejection_threshold")
        if self.period_length < 2:
            raise ParameterError("period_length must be at least 2")
        if self.lam < 0.0:
            raise ParameterError("arrival rate must be nonnegative")
        if self.penalty < 0.0:
            raise ParameterError("backorder penalty must be nonnegative")
        if not 0.0 < self.rejection_threshold <= 1.0:
            raise ParameterError("rejection_threshold must lie in (0, 1]")
        if self.capacity.support_max > BOUND_CAP:
            raise ParameterError(
                f"capacity support must be at most {BOUND_CAP} (the cap of "
                f"find_bound), got {self.capacity.support_max}"
            )
        mean_cap = self.capacity.mean()
        if mean_cap <= 0.0:
            raise ParameterError("capacity must have positive mean")
        if not self.lam < mean_cap:
            raise ParameterError(
                f"utilization lam/E[B] = {self.lam / mean_cap:.4g} must be < 1"
            )

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
        rejection_threshold: float = REJECTION_THRESHOLD,
    ) -> "Scenario":
        """Build a scenario with discretized-Beta capacity hitting a target load."""
        lam = check_real("lam", lam)
        utilization = check_real("utilization", utilization)
        if not 0.0 < utilization < 1.0:
            raise ParameterError("utilization must lie in (0, 1)")
        spec = CapacitySpec(capacity_support_max, lam / utilization, capacity_scv)
        capacity = discretized_beta(spec)
        if not lam < capacity.mean():
            raise ParameterError(
                f"discretized capacity has mean {capacity.mean():.4f} against "
                f"its target lam/utilization = {spec.mean:.4f}, so utilization "
                f"{utilization:g} becomes lam/E[B] = {lam / capacity.mean():.4g}"
                " >= 1; lower the utilization"
            )
        return cls(
            period_length,
            lam,
            capacity,
            choice,
            penalty,
            rejection_threshold,
        )


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


def _overshoot(p: np.ndarray, origin: int, k: np.ndarray) -> np.ndarray:
    """E[(V - k)^+] for each entry of k, p[origin] = P(V = 0): one product
    with the matrix of (V - k)^+, whose shape fixes BLAS's order of summation
    (stacking the callers' bound + 1 rows would regroup it)."""
    excess = np.maximum(np.arange(p.size) - origin - k[:, None], 0.0)
    return excess @ p


def _shift_matrix(p: np.ndarray, origin: int, rows: range, bound: int) -> np.ndarray:
    """Kernel K[i, y] = P(clamp(rows[i] + V, 0, bound) = y), p[origin] = P(V = 0)."""
    return _gather(p, *_kernel_index(p.size, origin, rows, bound))


def _gather(p: np.ndarray, index: np.ndarray, window: np.ndarray) -> np.ndarray:
    """The kernel as [p | 0 | cdf | tails] at index.  tails[j] sums p[window[j]]
    (p padded with zeros); like cdf it adds in ascending order, as the
    per-entry accumulation it replaces did, so K is the same to the bit."""
    tails = np.concatenate((p, np.zeros(len(window))))[window].cumsum(axis=1)[:, -1]
    return np.concatenate((p, [0.0], p.cumsum(), tails)).take(index)


@lru_cache(maxsize=32)
def _kernel_index(n: int, origin: int, rows: range, bound: int) -> tuple:
    """(index, window) of ``_gather`` for a pmf of n entries.  With k = y -
    rows[i] + origin, inner columns read p[k] (g[n] = 0 off the support),
    column 0 cdf[k] and column bound tails[k - first] = p[k] + ... + p[-1],
    first the least k read there; past the support both read 0, before it
    all the mass, which a bound of 0 reads alone."""
    x = np.array(rows)[:, None]
    k = np.arange(bound + 1) + origin - x
    low, high = k[:, 0], k[:, -1]
    first = min(max(int(high.min()), 0), n - 1)
    index = np.where((k >= 0) & (k < n), k, n)
    index[:, -1] = np.where(high < n, 2 * n + 1 + np.maximum(high, first) - first, n)
    index[:, 0] = np.where(low >= 0, n + 1 + np.minimum(low, n - 1), n)
    if bound == 0:
        index[:, 0] = 2 * n
    window = first + np.add.outer(np.arange(n - first), np.arange(n - first))
    index = index.astype(np.int32)
    for arr in (index, window):  # shared by every kernel of this shape
        arr.flags.writeable = False
    return index, window


# ---------------------------------------------------------------------------
# Policy-free workload law.  Pure in (lam, capacity, bound), so memoized by
# value with both rejection measures: the bound probes, the evaluator at the
# found bound and every evaluator of an experiment at one bound share one
# GTH solve and one overshoot product.


@lru_cache(maxsize=256)
def _workload_law(
    lam: float, capacity: Pmf, bound: int
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(shift, workload, rejection, rejected), the arrays read-only.

    shift is the pmf of the one-period change V = demand - capacity, with
    shift[capacity.support_max] = P(V = 0); workload is the stationary law
    of x' = clamp(x + V, 0, bound).  rejection is the stationary
    per-period probability that the bound rejects an order, P(x + V >
    bound), and rejected the expected orders it rejects, E[(x + V - bound)^+].
    """
    nb = capacity.support_max
    shift = np.convolve(_poisson_mass(lam, TAIL_EPS), capacity.mass[::-1])
    # a law is built once per bound, so its kernel's index is not kept: the
    # bound probes would fill the cache the steps' kernels share
    index = _kernel_index.__wrapped__(shift.size, nb, range(bound + 1), bound)
    workload = _gth_stationary(_gather(shift, *index))
    for arr in (shift, workload):
        arr.flags.writeable = False
    tails = np.append(np.cumsum(shift[::-1])[::-1], 0.0)  # [i]: P(V >= i - nb)
    headroom = bound - np.arange(bound + 1)
    rejection = workload @ tails[np.minimum(headroom + nb + 1, shift.size)]
    rejected = workload @ _overshoot(shift, nb, np.arange(bound, -1, -1))
    return shift, workload, float(rejection), float(rejected)


# ---------------------------------------------------------------------------
# Structural evaluator.


@lru_cache(maxsize=16)
def _headroom_index(bound: int, nb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices from J[x_c, x_s] to S[d, h] and from T[d, h'] to A.

    d = x_s - x_c, h = bound - x_s.  J[from_J] fills S[to_S] (x_c >= 0);
    T[d, h'], h' in 0..bound + nb, adds into A[max(x_c', 0), x_s' + nb] with
    x_s' = bound - h', x_c' = x_s' - d; rows < 0 fold onto row 0 (< -nb: no mass).
    """
    N = bound + 1
    d, h = np.nonzero(np.add.outer(np.arange(N), np.arange(N)) <= bound)
    from_J = (bound - h - d) * N + bound - h
    to_S = d * N + h
    d, h = np.indices((N, N + nb)).reshape(2, -1)
    to_A = np.maximum(bound - h - d, 0) * (N + nb) + bound - h + nb
    for arr in (from_J, to_S, to_A):  # shared by every step at (bound, nb)
        arr.flags.writeable = False
    return from_J, to_S, to_A


class _AgeStep:
    """What one period posting a fee of one express rate does to J[x_c, x_s].

    J (upper triangular) evolves by conditioning on u = express - capacity
    and the regular count r, which are independent.  In headroom
    coordinates h = bound - x_s and d = x_s - x_c:

    * u moves h to max(h - u, 0) and leaves d alone.  For u <= h this is
      the diagonal shift of (x_c, x_s) by u; for u > h the express surplus
      overflows and rejections pin the state at (x_c + h, bound), which is
      h' = 0 at the same d.  The map is one clamped-shift kernel ``H``
      (h' in 0..bound + nb) applied to every row of S[d, h];
    * r then shifts the column index by the clamped-shift kernel ``R``
      (regular orders are rejected first, so rows are unaffected);
    * negative rows fold to zero (idle capacity is lost), in the scatter
      back from headroom coordinates, before ``R``.

    The step holds its express rate and pmf and u; ``H``, ``R``, the
    overflow and the backorder matrices are built on first use.
    """

    def __init__(self, scenario: Scenario, rate: float, bound: int, reach: int):
        self.bound = bound
        self.nb = scenario.capacity.support_max
        self.reach = reach  # the size of V = demand - capacity's pmf
        self.rate, self.regular_rate = rate, scenario.lam - rate
        self.express = _poisson_mass(rate, TAIL_EPS)
        self.u = np.convolve(self.express, scenario.capacity.mass[::-1])

    @cached_property
    def H(self) -> np.ndarray:
        """H[h, h'] = P(max(h - u, 0) = h') for headroom h in 0..bound."""
        # padded to V's size, which bounds u's, so the index is every fee's
        u = np.concatenate((self.u, np.zeros(max(self.reach - self.u.size, 0))))
        origin = u.size - 1 - self.nb  # index of P(-u = 0) in u[::-1]
        rows = range(self.bound + 1)
        return _shift_matrix(u[::-1], origin, rows, self.bound + self.nb)

    @cached_property
    def R(self) -> np.ndarray:
        """R[x_s + nb, x_s'] = P(clamp(x_s + r, 0, bound) = x_s') for x_s in
        -nb..bound, the column index once u has shifted it."""
        regular = _poisson_mass(self.regular_rate, TAIL_EPS)
        pad = np.zeros(max(self.reach - self.nb - regular.size, 0))
        rows = range(-self.nb, self.bound + 1)
        return _shift_matrix(np.concatenate((regular, pad)), 0, rows, self.bound)

    def push(self, J: np.ndarray) -> np.ndarray:
        N = self.bound + 1
        width = N + self.nb
        from_J, to_S, to_A = _headroom_index(self.bound, self.nb)
        S = np.zeros(N * N)
        S[to_S] = J.ravel()[from_J]
        T = S.reshape(N, N) @ self.H
        A = np.bincount(to_A, T.ravel(), minlength=N * width)
        return A.reshape(N, width) @ self.R

    def pull(self, W: np.ndarray) -> np.ndarray:
        """Adjoint of ``push``: <push(J), W> = <J, pull(W)> for every J.

        W @ R.T is gathered at to_A into headroom coordinates, multiplied by
        H.T and scattered from to_S back to from_J; entries below the
        diagonal stay zero, as push never reads them.
        """
        N = self.bound + 1
        from_J, to_S, to_A = _headroom_index(self.bound, self.nb)
        V = (W @ self.R.T).ravel()[to_A]
        X = (V.reshape(N, N + self.nb) @ self.H.T).ravel()[to_S]
        out = np.zeros(N * N)
        out[from_J] = X
        return out.reshape(N, N)

    @cached_property
    def backorders_raw(self) -> np.ndarray:
        """G[x_c, x_s] = E[(x_c + u)^+] at the deadline age, rejections ignored."""
        N = self.bound + 1
        raw = _overshoot(self.u, self.nb, -np.arange(N))
        return np.broadcast_to(raw[:, None], (N, N))

    @cached_property
    def overflow(self) -> np.ndarray:
        """E[(u - (bound - x_s))^+] per x_s: the express orders rejected."""
        return _overshoot(self.u, self.nb, np.arange(self.bound, -1, -1))

    @cached_property
    def backorders_adjusted(self) -> np.ndarray:
        """raw G minus the overflow at x_s.

        Express arrivals beyond the headroom bound - x_s are rejected, which
        pins the surplus to x_c + bound - x_s on that event.  Subtracting
        keeps adjusted <= raw exact, with equality when no express arrives.
        """
        return self.backorders_raw - self.overflow


class PolicyEvaluator:
    """Steady-state evaluation of many policies at a shared truncation bound.

    Holds one ``_AgeStep`` per express rate.  A batch of fee vectors shares the
    forward pushes of their opening fee runs and the adjoint pulls of their
    remaining fees (``profits_batch``).
    ``workload`` is the stationary law of the total workload x_s, which is
    the same at every age and for every policy: express plus regular
    arrivals always total Poisson(lam) regardless of the fee.  It is the
    age-0 state, diag(workload); the rejection measures are read off the
    memoized law with it.  A ``bound`` of None is ``find_bound(scenario)``.
    """

    def __init__(self, scenario: Scenario, bound: int | None):
        if bound is None:
            bound = find_bound(scenario)
        bound = check_integer("bound", bound)
        if not 0 <= bound <= BOUND_CAP:
            raise ParameterError(f"bound must lie in 0..{BOUND_CAP}, got {bound}")
        T, joint_bytes = scenario.period_length, 8 * (bound + 1) ** 2
        if T * joint_bytes > JOINT_BYTES_MAX:
            raise ParameterError(
                f"scenario.T: {T} ages need {T * joint_bytes / 2**30:.3g} GiB of "
                f"joints at bound {bound}, over the {JOINT_BYTES_MAX / 2**30:g} "
                f"GiB limit; use at most {JOINT_BYTES_MAX // joint_bytes} ages"
            )
        self.scenario = scenario
        self.bound = bound
        self._steps: dict[float, _AgeStep] = {}  # by express rate
        self._fee_steps: dict[float, _AgeStep] = {}
        # read-only and shared by every evaluator at (lam, capacity, bound)
        self._shift, self.workload, self._rejection, self._rejected = _workload_law(
            scenario.lam, scenario.capacity, bound
        )
        self._root = np.diag(self.workload)

    def _step(self, fee: float) -> _AgeStep:
        """The fee's step, shared by the fees of one express rate (u_max, inf)."""
        if fee not in self._fee_steps:
            rate = split_rates(self.scenario.choice, self.scenario.lam, fee)[0]
            if rate not in self._steps:
                reach = self._shift.size
                self._steps[rate] = _AgeStep(self.scenario, rate, self.bound, reach)
            self._fee_steps[fee] = self._steps[rate]
        return self._fee_steps[fee]

    # -- rejection measures (policy free) ------------------------------------

    def rejection_probability(self) -> float:
        """Stationary per-period probability that the bound rejects an order."""
        return self._rejection

    def expected_rejected_per_cycle(self) -> float:
        """Expected number of rejected orders per operating cycle."""
        return self.scenario.period_length * self._rejected

    def express_loss(self, fee: float) -> float:
        """Expected express orders rejected in one period posting this fee.

        Regular orders are rejected first, so the loss at workload x_s is
        min(E, (x_s + E - B - bound)^+).  As x_s <= bound and B >= 0, the min
        never binds: the loss is the overflow the adjusted backorders subtract.
        """
        return float(self.workload @ self._step(fee).overflow)

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

    def profits_batch(
        self, fee_vectors: list[tuple[float, ...]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(variable profit, backorders) for each fee vector.

        Each vector is cut after its first run of equal fees, at most T - 1
        long: E[M] = <J_m, W_m>, with J_m the joint after the run f^m and
        W_m the last fee's adjusted backorder matrix pulled back through
        the other suffix fees.  The run joints are held for this batch only;
        the distinct suffixes are walked depth first by reversed suffix with
        a stack of at most T - 1 pulled matrices.  For CSP, TSP_CF and TSP
        every prefix is f_E^m and every suffix f_LE^b u_max^c, so a batch
        costs one push per run and one pull per distinct suffix tail.  The
        JOINT_BYTES_MAX check counts the run joints and the pull stack only,
        not each stepped fee's H and R nor the last fees' backorder matrices
        (about 0.5 GB more at bound 1003 on the preset grid's TSP search).
        """
        T = self.scenario.period_length
        if any(len(fees) != T for fees in fee_vectors):
            raise ParameterError("fee vector length must equal period_length")
        # suffix -> (vector index, its opening run (fee, m)); run fee -> longest m
        by_suffix: dict[tuple[float, ...], list[tuple[int, tuple[float, int]]]] = {}
        run_length: dict[float, int] = {}
        for i, fees in enumerate(fee_vectors):
            m = 1
            while m < T - 1 and fees[m] == fees[0]:
                m += 1
            by_suffix.setdefault(tuple(fees[m:]), []).append((i, (fees[0], m)))
            run_length[fees[0]] = max(run_length.get(fees[0], 0), m)
        held = sum(run_length.values()) + T - 1  # run joints, then the pull stack
        need = held * 8 * (self.bound + 1) ** 2
        if need > JOINT_BYTES_MAX:
            raise ParameterError(
                f"a batch holding {held} joints at bound {self.bound} needs "
                f"{need / 2**30:.4g} GiB, over the {JOINT_BYTES_MAX / 2**30:g} GiB "
                "limit; use a smaller truncation bound or fee grid"
            )
        runs: dict[tuple[float, int], np.ndarray] = {}
        for fee, longest in run_length.items():
            J = self._root
            for m in range(1, longest + 1):
                J = runs[fee, m] = self._step(fee).push(J)

        profits = np.empty(len(fee_vectors))
        backorders = np.empty(len(fee_vectors))
        path: tuple[float, ...] = ()
        stack: list[np.ndarray] = []
        for suffix in sorted(by_suffix, key=lambda s: s[::-1]):
            rev = suffix[::-1]
            d = 0
            while d < len(path) and d < len(rev) and path[d] == rev[d]:
                d += 1
            del stack[d:]
            for fee in rev[d:]:
                step = self._step(fee)
                W = step.pull(stack[-1]) if stack else step.backorders_adjusted
                stack.append(W)
            path = rev
            for i, run in by_suffix[suffix]:
                em = float(np.vdot(runs[run], stack[-1]))
                backorders[i] = em
                profits[i] = self.revenue(fee_vectors[i]) - self.scenario.penalty * em
        return profits, backorders


# ---------------------------------------------------------------------------
# Truncation bound search.


def find_bound(scenario: Scenario, hard_cap: int = BOUND_CAP) -> int:
    """Smallest workload bound keeping the rejection probability acceptable.

    Rejection depends on the policy-free workload law only, so the bound is
    a function of (lam, capacity, rejection_threshold, hard_cap) and serves
    every policy, penalty, choice model and cycle length; it is memoized by
    value on those four, and each probe is one memoized 1-D solve.  The
    result never exceeds hard_cap, which must be an integer of at least 1.
    Exponential bracketing followed by bisection, which is exact because
    rejection is non-increasing in the bound.  Coupling proof:
    drive the walks x' = min((x + V)^+, b) and y' = min((y + V)^+, b + 1)
    with the same draws V = demand - capacity from x = y = 0.  Both maps
    are monotone and their clamps differ by one, so every step keeps
    x <= y <= x + 1.  A rejection at b + 1, y + V > b + 1, then gives
    x + V >= y + V - 1 > b, a rejection at b: pathwise, the periods that
    reject at b + 1 are a subset of those that reject at b, and so are the
    long-run frequencies, which are the stationary probabilities.  Raises
    CapacityInfeasibleError if even hard_cap is not enough.
    """
    hard_cap = check_integer("hard_cap", hard_cap)
    if hard_cap < 1:
        raise ParameterError(f"hard_cap must be at least 1, got {hard_cap!r}")
    return _search_bound(
        scenario.lam, scenario.capacity, scenario.rejection_threshold, hard_cap
    )


@lru_cache(maxsize=64)
def _search_bound(lam: float, capacity: Pmf, threshold: float, hard_cap: int) -> int:
    lo, hi = 0, 1
    while (r := _workload_law(lam, capacity, hi)[2]) > threshold:
        if hi >= hard_cap:
            raise CapacityInfeasibleError(
                f"rejection probability {r:.4g} still above "
                f"{threshold:g} at bound {hi}"
            )
        lo, hi = hi, min(hi * 2, hard_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _workload_law(lam, capacity, mid)[2] <= threshold:
            hi = mid
        else:
            lo = mid
    return hi
