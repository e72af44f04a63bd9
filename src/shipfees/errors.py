"""Exception taxonomy shared across the package, and its one input rule.

Validation problems (bad arguments, inadmissible parameter combinations)
raise :class:`ParameterError`; numerical failures (non-convergence,
infeasible truncation) raise :class:`NumericsError` or a subclass.  The
command line maps the former to exit code 1 and the latter to exit code 2.
An integer input is a ``numbers.Integral`` that is not a bool; a real one
is a ``numbers.Real`` that is not a bool and is finite as a float, or +-inf
where the model reads inf (a fee: express not offered).  An accepted value
is returned as a Python int or float; a string is never read as a number.
"""

import math
import numbers


class ParameterError(ValueError):
    """Invalid or inadmissible input parameters."""


class NumericsError(RuntimeError):
    """A numerical procedure failed (non-convergence, loss of precision)."""


class CapacityInfeasibleError(NumericsError):
    """No admissible truncation bound exists below the hard cap."""


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value, inf: bool = False) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        return False
    return math.isfinite(x) or inf and not math.isnan(x)


def check_integer(name: str, value) -> int:
    if not is_integer(value):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(name: str, value, inf: bool = False) -> float:
    if not is_real(value, inf):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    return float(value)


def real_tuple(name: str, values, inf: bool = False) -> tuple[float, ...]:
    """values, real numbers name[0], name[1], ..., as a tuple of floats."""
    try:
        values = tuple(values)
    except TypeError:  # not iterable
        raise ParameterError(f"{name} must be a sequence, got {values!r}") from None
    return tuple(check_real(f"{name}[{i}]", value, inf) for i, value in enumerate(values))


def store(obj, check, *names, **options) -> None:
    """Set each named field of the frozen dataclass obj to check(name, value)."""
    for name in names:
        object.__setattr__(obj, name, check(name, getattr(obj, name), **options))
