"""Exception taxonomy shared across the package.

Validation problems (bad arguments, inadmissible parameter combinations)
raise :class:`ParameterError`; numerical failures (non-convergence,
infeasible truncation) raise :class:`NumericsError` or a subclass.  The
command line maps the former to exit code 1 and the latter to exit code 2.
"""


class ParameterError(ValueError):
    """Invalid or inadmissible input parameters."""


class NumericsError(RuntimeError):
    """A numerical procedure failed (non-convergence, loss of precision)."""


class CapacityInfeasibleError(NumericsError):
    """No admissible truncation bound exists below the hard cap."""
