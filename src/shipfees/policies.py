"""Fee policies over the operating cycle and their demand profiles.

A policy posts one express fee per age 0..T-1 of the operating cycle.  Ages
where express is not offered are encoded either with the sentinel fee u_max
(take rate 0, the canonical form) or with math.inf (the cutoff form);
both induce the same arrival split, which is what makes canonicalization
profit-invariant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .chain import check_period_length
from .choice import ChoiceModel, split_rates
from .errors import ParameterError, check_integer, check_real, real_tuple, store

# family: its parameter names, in build_policy's params order
FAMILIES = {
    "CSP": ("fee",),
    "TSP_CF": ("fee", "cutoff_age"),
    "TSP": ("express_fee", "lastminute_fee", "switch_age", "cutoff_age"),
}


@dataclass(frozen=True)
class FeeStructure:
    """Express fee per age of the operating cycle.

    Fees are premiums over the regular price; math.inf marks an age where
    express is not offered at all.
    """

    period_length: int
    fees: tuple[float, ...]

    def __post_init__(self) -> None:
        store(self, check_period_length, "period_length")
        if self.period_length < 1:
            raise ParameterError("period_length must be at least 1")
        store(self, real_tuple, "fees", inf=True)
        if len(self.fees) != self.period_length:
            raise ParameterError(
                f"expected {self.period_length} fees, got {len(self.fees)}"
            )
        if any(f < 0.0 for f in self.fees):
            raise ParameterError("fees must be nonnegative (or math.inf)")


def canonicalize(
    cutoff: int, partial_fees: Sequence[float], period_length: int, u_max: float
) -> FeeStructure:
    """Extend a cutoff-form policy to all ages with the sentinel fee u_max.

    partial_fees covers ages 0..cutoff; ages past the cutoff get fee u_max,
    which induces take rate 0 and is therefore equivalent to not offering
    express at all.  Idempotent: a full-length input with cutoff
    period_length - 1 is returned unchanged.
    """
    cutoff = check_integer("cutoff", cutoff)
    period_length = check_period_length("period_length", period_length)
    if not 0 <= cutoff <= period_length - 1:
        raise ParameterError("cutoff must lie in 0..period_length-1")
    fees = real_tuple("partial_fees", partial_fees, inf=True)
    if len(fees) != cutoff + 1:
        raise ParameterError(
            f"cutoff {cutoff} requires {cutoff + 1} fees, got {len(fees)}"
        )
    u_max = check_real("u_max", u_max, inf=True)
    return FeeStructure(period_length, fees + (u_max,) * (period_length - 1 - cutoff))


def cutoff_form(
    cutoff: int, partial_fees: Sequence[float], period_length: int
) -> FeeStructure:
    """Cutoff-form twin of :func:`canonicalize`: math.inf past the cutoff."""
    return canonicalize(cutoff, partial_fees, period_length, math.inf)


def two_level_fees(
    f_e: float, f_le: float, tau_f: int, tau_c: int, T: int, u_max: float
) -> tuple[float, ...]:
    """The two-level schedule at the point (f_E, f_LE, tau_F, tau_C): f_e
    at ages 0..tau_f, f_le through tau_c, then the sentinel u_max."""
    return (f_e,) * (tau_f + 1) + (f_le,) * (tau_c - tau_f) + (u_max,) * (T - 1 - tau_c)


def build_policy(
    family: str,
    params,
    period_length: int,
    u_max: float,
) -> FeeStructure:
    """Construct a benchmark-family policy as a canonical FeeStructure.

    Each family is a point (f_E, f_LE, tau_F, tau_C) of two_level_fees:
    CSP:    params is the constant fee f, the point (f, f, T-1, T-1).
    TSP_CF: params is (f, cutoff_age), the point (f, f, tau_C, tau_C).
    TSP:    params is the point itself, with f_E < f_LE.
    """
    if not isinstance(family, str) or family not in FAMILIES:
        raise ParameterError(
            f"unknown policy family {family!r}; expected one of {tuple(FAMILIES)}"
        )
    T = check_period_length("period_length", period_length)
    u_max = check_real("u_max", u_max)
    names = FAMILIES[family]
    values = (params,) if family == "CSP" else params
    if not isinstance(values, (tuple, list)) or len(values) != len(names):
        raise ParameterError(f"{family} takes ({', '.join(names)}), got {params!r}")
    values = [check_real(n, v) if n.endswith("fee") else v for n, v in zip(names, values)]
    if family == "TSP":
        f_e, f_le, tau_f, tau_c = values
    else:
        f_e, tau_c = (values[0], T - 1) if family == "CSP" else values
        f_le, tau_f = f_e, tau_c
    for fee in (f_e, f_le):
        if not 0.0 <= fee <= u_max:
            raise ParameterError(f"fee {fee!r} outside [0, u_max={u_max!r}]")
    if family == "TSP" and not f_le > f_e:
        raise ParameterError("lastminute_fee must exceed express_fee")
    tau_c = check_integer("cutoff_age", tau_c)
    tau_f = check_integer("switch_age", tau_f)
    if not 0 <= tau_c <= T - 1:
        raise ParameterError("cutoff_age must lie in 0..period_length-1")
    if not 0 <= tau_f <= tau_c:
        raise ParameterError("ages must satisfy 0 <= switch_age <= cutoff_age")
    return FeeStructure(T, two_level_fees(f_e, f_le, tau_f, tau_c, T, u_max))


def demand_profile(
    policy: FeeStructure, choice: ChoiceModel, lam: float
) -> tuple[float, ...]:
    """Cumulative express rates Lambda_0..Lambda_{T-1} a policy induces:
    entry k is the running sum of the express rates of ages 0..k."""
    rates = (split_rates(choice, lam, fee)[0] for fee in policy.fees)
    return tuple(itertools.accumulate(rates))
