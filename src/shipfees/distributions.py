"""Discrete probability primitives on the nonnegative integers.

Everything downstream (the periodic chain, the exact measures, the Monte
Carlo oracle) consumes finite pmfs on {0, ..., n}.  This module provides the
pmf value type plus the two constructions the model needs: tail-folded
truncated Poisson pmfs and a moment-matched Beta capacity discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ParameterError, UndefinedMeasureError

# Mass-conservation slack accepted on construction.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on {0, ..., support_max}.

    The mass array is copied and frozen on construction; entries must be
    finite, in [0, 1], and sum to one within ``MASS_TOL``.
    """

    mass: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.mass, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("pmf must be a nonempty 1-D array")
        # NaN fails every comparison, so test membership, not violation
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ParameterError("pmf entries must be finite and lie in [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ParameterError(f"pmf mass sums to {total!r}, not 1 within {MASS_TOL}")
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)

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
        """Squared coefficient of variation; undefined (error) at mean 0."""
        m = self.mean()
        if m == 0.0:
            raise UndefinedMeasureError("scv undefined for a distribution with mean 0")
        return self.variance() / m**2

    @classmethod
    def point_mass(cls, value: int) -> "Pmf":
        if value < 0:
            raise ParameterError("point mass location must be nonnegative")
        arr = np.zeros(value + 1)
        arr[value] = 1.0
        return cls(arr)


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
        if self.support_max < 1:
            raise ParameterError("support_max must be a positive integer")
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
    result sums to one exactly.  rate = 0 gives the point mass at 0.
    """
    if rate < 0.0:
        raise ParameterError("poisson rate must be nonnegative")
    if not 0.0 < tail_eps <= 1e-6:
        raise ParameterError("tail_eps must lie in (0, 1e-6]")
    if rate == 0.0:
        return Pmf(np.array([1.0]))

    terms = [np.exp(-rate)]
    cdf = terms[0]
    k = 0
    while cdf < 1.0 - tail_eps:
        k += 1
        terms.append(terms[-1] * rate / k)
        cdf += terms[-1]
    arr = np.array(terms)
    arr[-1] += max(1.0 - float(arr.sum()), 0.0)
    arr /= arr.sum()
    return Pmf(arr)


def beta_shape_parameters(spec: CapacitySpec) -> tuple[float, float]:
    """Beta(alpha, beta) shape parameters matching spec.mean and spec.scv on [0, 1].

    Closed-form moment match for the continuous density: with m and v the
    mean and variance rescaled to the unit interval, alpha + beta =
    m(1 - m)/v - 1.  The CapacitySpec invariants guarantee v < m(1 - m), so
    both parameters come out strictly positive.
    """
    n = spec.support_max
    m = spec.mean / n
    v = spec.scv * spec.mean**2 / n**2
    common = m * (1.0 - m) / v - 1.0
    return m * common, (1.0 - m) * common


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
    n = spec.support_max
    alpha, beta = beta_shape_parameters(spec)
    edges = np.clip((np.arange(n + 2) - 0.5) / n, 0.0, 1.0)
    masses = np.diff(special.betainc(alpha, beta, edges))
    masses = np.clip(masses, 0.0, None)
    return Pmf(masses / masses.sum())
