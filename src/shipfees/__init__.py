"""Steady-state analysis and optimization of time-dependent shipment fees."""

from .chain import (
    PolicyEvaluator,
    Scenario,
    find_bound,
)
from .choice import ChoiceModel, split_rates, take_rate
from .distributions import (
    CapacitySpec,
    Pmf,
    discretized_beta,
    poisson_pmf,
)
from .errors import (
    CapacityInfeasibleError,
    NumericsError,
    ParameterError,
)
from .measures import PerformanceReport, evaluate_policy
from .optimize import (
    Optimum,
    SearchGrid,
    dominance_experiment,
    exhaustive_fee_vector_search,
    optimize_families,
    optimize_family,
    revenue_max_fee,
)
from .simulate import SimConfig, SimulationReport, simulate
from .policies import (
    FeeStructure,
    build_policy,
    canonicalize,
    cutoff_form,
)

__all__ = [
    "CapacityInfeasibleError",
    "CapacitySpec",
    "ChoiceModel",
    "FeeStructure",
    "NumericsError",
    "Optimum",
    "ParameterError",
    "PerformanceReport",
    "Pmf",
    "PolicyEvaluator",
    "Scenario",
    "SearchGrid",
    "SimConfig",
    "SimulationReport",
    "build_policy",
    "canonicalize",
    "cutoff_form",
    "discretized_beta",
    "dominance_experiment",
    "evaluate_policy",
    "exhaustive_fee_vector_search",
    "find_bound",
    "optimize_families",
    "optimize_family",
    "poisson_pmf",
    "revenue_max_fee",
    "simulate",
    "split_rates",
    "take_rate",
]

__version__ = "0.1.0"
