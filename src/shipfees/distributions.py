"""Discrete probability primitives on the nonnegative integers.

Everything downstream (the periodic chain, the exact measures, the Monte
Carlo oracle) consumes finite pmfs on {0, ..., n}.  This module provides the
pmf value type plus the two constructions the model needs: tail-folded
truncated Poisson pmfs and a moment-matched Beta capacity discretization.

The Beta cell masses come from the regularized incomplete beta function
I_x(a, b), computed here with the stdlib: the continued fraction of Press
et al., *Numerical Recipes* (3rd ed., 2007), section 6.4, evaluated by the
modified Lentz method, with the reflection I_x(a, b) = 1 - I_{1-x}(b, a)
for x >= (a + 1)/(a + b + 2).  Its prefactor x^a (1 - x)^b / B(a, b) takes
the form of ``brcomp`` in DiDonato and Morris, "Algorithm 708: significant
digit computation of the incomplete beta function ratios", ACM TOMS 18
(1992): Stirling corrections and the deviation from the mode replace the
exp(lgamma ...) difference, which cancels badly when a + b is large.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ParameterError, check_instance
from .errors import check_integer, check_real, is_real, real_tuple, shown, store

# Mass-conservation slack accepted on construction.
MASS_TOL = 1e-12

# Largest capacity support and truncation bound, searched or pinned (a
# joint there holds 32 MB): find_bound's cap, which check_bound enforces.
BOUND_CAP = 2000


def check_bound(name: str, value, low: int = 0) -> int:
    """value as an int, if it is an integer in low..BOUND_CAP."""
    value = check_integer(name, value)
    if not low <= value <= BOUND_CAP:
        cap = f"{low}..{BOUND_CAP} (the cap of find_bound)"
        raise ParameterError(f"{name} must lie in {cap}, got {shown(value)}")
    return value

# Largest Poisson rate the pmf recurrence takes: above it exp(-rate) is
# subnormal, which truncates the pmf wrongly, or 0, on which it never ends.
POISSON_RATE_MAX = -math.log(sys.float_info.min)

# Continued-fraction terms allowed per I_x(a, b).  The count grows like
# sqrt(a + b) near the mean: about 10,000 at shapes 2.6e10.
CF_MAX_TERMS = 100_000

# Stirling series B_2k / (2k (2k - 1)), k = 1..7, used from s = 10 on, where
# its remainder is below 3e-17; below 10 lgamma gives the remainder.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on {0, ..., support_max}.

    Masses pass the input rule as mass[0], mass[1], ... (a bool is not
    one), lie in [0, 1], sum to one within ``MASS_TOL`` and are held as a
    frozen float array.  Pmfs compare and hash by value (support and
    masses, with -0.0 equal to 0.0), so a pmf can key a cache.
    """

    mass: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(real_tuple("mass", self.mass))
        if arr.size == 0:
            raise ParameterError("pmf must be a nonempty 1-D array")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ParameterError("pmf entries must be finite and lie in [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ParameterError(f"pmf mass sums to {total!r}, not 1 within {MASS_TOL}")
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pmf):
            return NotImplemented
        return bool(np.array_equal(self.mass, other.mass))  # False on shape

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, so equal pmfs hash alike
        return hash((self.mass + 0.0).tobytes())

    @property
    def support_max(self) -> int:
        return self.mass.size - 1

    def mean(self) -> float:
        return float(np.arange(self.mass.size) @ self.mass)

    def variance(self) -> float:
        k = np.arange(self.mass.size)
        m = self.mean()
        return float(((k - m) ** 2) @ self.mass)

    def scv(self) -> float:
        """Squared coefficient of variation; undefined at mean 0 (a ParameterError)."""
        m = self.mean()
        if m == 0.0:
            raise ParameterError("scv undefined for a distribution with mean 0")
        return self.variance() / m**2

    @classmethod
    def point_mass(cls, value: int) -> "Pmf":
        return cls([0.0] * check_bound("value", value) + [1.0])


@dataclass(frozen=True)
class CapacitySpec:
    """Target moments for the discretized-Beta capacity distribution.

    ``support_max`` is the largest attainable per-period capacity; the
    requested mean and squared coefficient of variation must be attainable
    by a Beta density on (0, 1), i.e. 0 < mean < support_max and
    scv < (support_max - mean) / mean.
    """

    support_max: int
    mean: float
    scv: float

    def __post_init__(self) -> None:
        store(self, check_bound, "support_max", low=1)
        store(self, check_real, "mean", "scv")
        if not 0.0 < self.mean < self.support_max:
            raise ParameterError(
                f"mean must lie strictly between 0 and support_max={self.support_max}"
            )
        scv_cap = (self.support_max - self.mean) / self.mean
        if not 0.0 < self.scv < scv_cap:
            raise ParameterError(
                f"scv must lie in (0, {scv_cap:.6g}) for mean {self.mean:.6g} "
                f"on support 0..{self.support_max}"
            )


def poisson_pmf(rate: float, tail_eps: float = 1e-12) -> Pmf:
    """Truncated Poisson pmf with the residual tail folded onto the last point.

    The support is the smallest prefix {0, ..., n} whose total mass reaches
    1 - tail_eps; the leftover tail probability is added to mass[n] so the
    result sums to one exactly.  rate = 0 gives the point mass at 0; a rate
    that is not a number >= 0, NaN included, or is over ``POISSON_RATE_MAX``
    is a ParameterError.
    """
    if not (is_real(rate, inf=True) and rate >= 0.0):
        raise ParameterError(f"poisson rate must be a number >= 0, got {shown(rate)}")
    rate, tail_eps = float(rate), check_real("tail_eps", tail_eps)
    # below 1e-12 the float sum can stall short of 1 - tail_eps (1e-15 hung at rate 700)
    if not 1e-12 <= tail_eps <= 1e-6:
        raise ParameterError("tail_eps must lie in [1e-12, 1e-6]")
    return Pmf(_poisson_mass(rate, tail_eps))


def _poisson_mass(rate: float, tail_eps: float) -> np.ndarray:
    """``poisson_pmf``'s mass, checked only against the rate limit.  Python
    floats from float(np.exp(-rate)) give numpy scalars' bits, faster."""
    term = cdf = float(np.exp(-rate))
    if term < sys.float_info.min:
        raise ParameterError(
            f"poisson rate {rate:g} is over the limit {POISSON_RATE_MAX:.6g}, "
            "past which exp(-rate) underflows the normal floats"
        )
    terms, k = [term], 0
    while cdf < 1.0 - tail_eps:
        k += 1
        term = term * rate / k
        terms.append(term)
        cdf += term
    arr = np.array(terms)
    arr[-1] += max(1.0 - float(arr.sum()), 0.0)
    arr /= arr.sum()
    return arr


def _beta_shape_parameters(spec: CapacitySpec) -> tuple[float, float]:
    """Beta(alpha, beta) shape parameters matching spec.mean and spec.scv on [0, 1].

    Closed-form moment match for the continuous density: with m and v the
    mean and variance rescaled to the unit interval, alpha + beta =
    m(1 - m)/v - 1.  The CapacitySpec invariants guarantee v < m(1 - m) in
    exact arithmetic; where v underflows or the shapes overflow, the
    parameters are not finite and positive and a ParameterError says so.
    """
    n = spec.support_max
    m = spec.mean / n
    v = spec.scv * spec.mean**2 / n**2
    common = m * (1.0 - m) / v - 1.0 if v > 0.0 else math.inf
    alpha, beta = m * common, (1.0 - m) * common
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise ParameterError(
            f"Beta shapes ({alpha:g}, {beta:g}) for capacity mean "
            f"{spec.mean:g} and scv {spec.scv:g} are not finite and positive"
        )
    return alpha, beta


def discretized_beta(spec: CapacitySpec) -> Pmf:
    """Discretize a moment-matched Beta density onto {0, ..., support_max}.

    Capacity value i receives the probability that the scaled Beta variate
    rounds to grid point i/n: P(B = i) = F((i + 1/2)/n) - F((i - 1/2)/n),
    with half cells at the two ends.  The shape parameters match the
    requested mean and scv in the continuous domain; rounding then shifts
    the discrete moments slightly (about -0.1% on the mean in this model's
    capacity regimes), so callers that care should read the achieved values
    back off the returned pmf via mean() and scv().
    """
    check_instance("spec", spec, CapacitySpec)
    n = spec.support_max
    alpha, beta = _beta_shape_parameters(spec)
    edges = np.clip((np.arange(n + 2) - 0.5) / n, 0.0, 1.0)
    masses = np.diff([_betainc(alpha, beta, float(x)) for x in edges])
    masses = np.clip(masses, 0.0, None)
    return Pmf(masses / masses.sum())


def _stirling_delta(s: float) -> float:
    """lgamma(s) - ((s - 1/2) log s - s + log(2 pi)/2), the Stirling remainder."""
    if s < 10.0:
        return math.lgamma(s) - ((s - 0.5) * math.log(s) - s + _HALF_LOG_2PI)
    r, acc = 1.0 / (s * s), 0.0
    for c in reversed(_STIRLING):
        acc = acc * r + c
    return acc / s


def _rlog1(e: float) -> float:
    return e - math.log1p(e)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0 or x >= 1.0:
        return min(max(x, 0.0), 1.0)
    s, y = a + b, 1.0 - x
    # x^a y^b / B(a, b) with x0 = a/s, y0 = b/s: a rlog1((x - x0)/x0) +
    # b rlog1((y - y0)/y0) is the log of (x0/x)^a (y0/y)^b (TOMS 708 brcomp)
    lam = a - s * x if a <= b else s * y - b
    z = a * _rlog1(-lam / a) + b * _rlog1(lam / b)
    corr = _stirling_delta(s) - _stirling_delta(a) - _stirling_delta(b)
    front = math.sqrt(a * b / (2.0 * math.pi * s)) * math.exp(corr - z)
    flip = x * (s + 2.0) >= a + 1.0
    if front == 0.0:
        return float(flip)
    # modified Lentz on the fraction for I_t(p, q), reflected to (b, a, y)
    # past the mean, where the fraction converges slowly (NR section 6.4)
    p, q, t = (b, a, y) if flip else (a, b, x)
    tiny = 1e-300
    c, d = 1.0, 1.0 - s * t / (p + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, CF_MAX_TERMS + 1):
        m2 = 2 * m
        for num in (
            m * (q - m) * t / ((p + m2 - 1.0) * (p + m2)),
            -(p + m) * (s + m) * t / ((p + m2) * (p + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 2.0**-52:
            return 1.0 - front * h / p if flip else front * h / p
    raise NumericsError(
        f"incomplete beta I_x({a:g}, {b:g}) at x = {x:g} did not converge "
        f"in {CF_MAX_TERMS} continued-fraction terms"
    )
