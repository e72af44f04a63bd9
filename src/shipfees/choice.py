"""Customer choice between express and regular delivery.

A customer values express delivery at the regular price plus a uniform
premium U on [u_min, u_max] and picks express iff the posted express price
does not exceed that valuation.  The resulting take rate thins the Poisson
arrival stream into independent express and regular streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, check_real, store


@dataclass(frozen=True)
class ChoiceModel:
    """Uniform-premium willingness-to-pay model."""

    regular_price: float
    u_min: float
    u_max: float

    def __post_init__(self) -> None:
        store(self, check_real, "regular_price", "u_min", "u_max")
        if self.regular_price < 0.0:
            raise ParameterError("regular_price must be nonnegative")
        if not 0.0 <= self.u_min <= self.u_max:
            raise ParameterError("premium bounds must satisfy 0 <= u_min <= u_max")


def take_rate(model: ChoiceModel, price: float) -> float:
    """Fraction of arrivals choosing express at the given express price.

    Piecewise linear and nonincreasing: 1 at or below regular_price + u_min,
    0 at or above regular_price + u_max.  When u_min == u_max the premium is
    a point mass and the rate steps from 1 to 0 at the atom (0 at the atom
    itself).
    """
    if price >= model.regular_price + model.u_max:
        return 0.0
    if price <= model.regular_price + model.u_min:
        return 1.0
    span = model.u_max - model.u_min
    return 1.0 - (price - model.regular_price - model.u_min) / span


def split_rates(model: ChoiceModel, lam: float, fee: float) -> tuple[float, float]:
    """Thin a Poisson(lam) arrival stream at the given express fee.

    Returns (express_rate, regular_rate); the two always sum to lam exactly.
    A fee of math.inf encodes "express not offered" and yields (0, lam).
    """
    if lam < 0.0:
        raise ParameterError("arrival rate must be nonnegative")
    w = take_rate(model, model.regular_price + fee)
    express = lam * w
    return express, lam - express
