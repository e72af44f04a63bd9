"""One input rule at every library entry point.

An integer is a numbers.Integral that is not a bool, a real number a
numbers.Real that is not a bool and is finite as a float (+-inf only for
a fee).  Any other value ends in a ParameterError, never in another
exception, a coerced value or a different model.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shipfees as sf
from shipfees.distributions import CapacitySpec

from input_cases import CAPACITY, CHOICE, HOLES, POLICY, SCENARIO

simulation = importlib.import_module("shipfees.simulate")

# bound 1 serves it, so every hard_cap >= 1 is feasible
IDLE = sf.Scenario(2, 1e-8, sf.Pmf.point_mass(2), CHOICE, 8.0)

# what a caller may pass by mistake where a number is expected
JUNK = [None, "8", "2.5", b"8", "", True, False, math.nan, [], (2.0,), object(),
        np.bool_(True), np.str_("8")]
# integers: small ones, so no slot sizes anything large by them, numpy ones,
# one past int's 4300-digit str limit, and 2.5 and its kin
INTEGER = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([np.int64(2), np.int64(5), np.uint8(3), 10**5000, 2.5, 8.0,
                     np.float64(8.0), math.inf, -math.inf, *JUNK]),
)
REAL = st.one_of(
    st.sampled_from([-1.0, 0.0, 1e-300, 0.023, 0.5, 0.85, 1.5, 4.0, 1e300]),
    st.sampled_from([10**400, -10**400, math.inf, -math.inf, np.float64(0.5),
                     np.float32(1.5), np.int64(3), 3, *JUNK]),
)
FEE = st.one_of(REAL, st.just(math.inf))
SEQUENCE = st.one_of(st.lists(FEE, max_size=4), st.sampled_from(JUNK))
PAIR = st.one_of(st.lists(INTEGER, max_size=3), st.tuples(INTEGER, INTEGER),
                 st.sampled_from(JUNK))
PARAMS = st.one_of(FEE, st.tuples(FEE, INTEGER),
                   st.tuples(FEE, FEE, INTEGER, INTEGER), st.sampled_from(JUNK))

# entry point: (the call, {parameter: (a valid value, what else to draw)})
CALLS = {
    "Pmf": (sf.Pmf, {"mass": ([0.25, 0.75], SEQUENCE)}),
    "CapacitySpec": (CapacitySpec, {
        "support_max": (20, INTEGER), "mean": (5.88, REAL), "scv": (0.5, REAL)}),
    "ChoiceModel": (sf.ChoiceModel, {
        "regular_price": (4.0, REAL), "u_min": (0.0, REAL), "u_max": (4.0, REAL)}),
    "Scenario": (sf.Scenario, {
        "period_length": (2, INTEGER), "lam": (1.5, REAL),
        "capacity": (CAPACITY, st.sampled_from(JUNK)),
        "choice": (CHOICE, st.sampled_from(JUNK)),
        "penalty": (8.0, REAL), "rejection_threshold": (0.023, REAL)}),
    "Scenario.from_utilization": (sf.Scenario.from_utilization, {
        "period_length": (8, INTEGER), "lam": (5.0, REAL), "utilization": (0.85, REAL),
        "capacity_scv": (0.5, REAL), "capacity_support_max": (20, INTEGER),
        "choice": (CHOICE, st.just(CHOICE)), "penalty": (8.0, REAL),
        "rejection_threshold": (0.023, REAL)}),
    "FeeStructure": (sf.FeeStructure, {
        "period_length": (2, INTEGER), "fees": ((1.5, 2.5), SEQUENCE)}),
    "build_policy": (sf.build_policy, {
        "family": ("TSP_CF", st.sampled_from(["CSP", "TSP", "FLAT", *JUNK])),
        "params": ((2.0, 1), PARAMS), "period_length": (2, INTEGER),
        "u_max": (4.0, REAL)}),
    "canonicalize": (sf.canonicalize, {
        "cutoff": (0, INTEGER), "partial_fees": ((2.0,), SEQUENCE),
        "period_length": (2, INTEGER), "u_max": (4.0, FEE)}),
    "cutoff_form": (sf.cutoff_form, {
        "cutoff": (0, INTEGER), "partial_fees": ((2.0,), SEQUENCE),
        "period_length": (2, INTEGER)}),
    "SearchGrid": (sf.SearchGrid, {
        "fee_values": ((1.0, 2.0), SEQUENCE), "cutoff_range": ((1, 1), PAIR)}),
    "SimConfig": (sf.SimConfig, {
        "cycles": (2000, INTEGER), "warmup_cycles": (500, INTEGER),
        "seed": (1, INTEGER), "bound": (None, INTEGER), "streams": (4, INTEGER)}),
    "PolicyEvaluator": (sf.PolicyEvaluator, {
        "scenario": (SCENARIO, st.sampled_from(JUNK)),
        "bound": (8, st.one_of(st.none(), INTEGER))}),
    "find_bound": (sf.find_bound, {
        "scenario": (IDLE, st.just(IDLE)), "hard_cap": (2000, INTEGER)}),
    "take_rate": (sf.take_rate, {"model": (CHOICE, st.just(CHOICE)), "price": (5.0, FEE)}),
    "split_rates": (sf.split_rates, {
        "model": (CHOICE, st.just(CHOICE)), "lam": (1.5, REAL), "fee": (2.0, FEE)}),
    "poisson_pmf": (sf.poisson_pmf, {"rate": (1.5, REAL), "tail_eps": (1e-12, REAL)}),
    "revenue_max_fee": (sf.revenue_max_fee, {"choice": (CHOICE, st.sampled_from(JUNK))}),
    "discretized_beta": (sf.discretized_beta, {
        "spec": (CapacitySpec(20, 5.88, 0.5), st.sampled_from(JUNK))}),
    "SearchGrid.default": (sf.SearchGrid.default, {"period_length": (8, INTEGER)}),
    "dominance_experiment": (sf.dominance_experiment, {
        "scenario": (SCENARIO, st.sampled_from(JUNK)),
        "policy": (POLICY, st.sampled_from(JUNK)),
        "policy_prime": (POLICY, st.sampled_from(JUNK)), "bound": (8, st.just(8))}),
    "optimize_families": (sf.optimize_families, {
        "scenario": (SCENARIO, st.just(SCENARIO)),
        "searches": ([("TSP_CF_star", None)], st.one_of(
            st.sampled_from(JUNK), st.lists(st.sampled_from(JUNK), max_size=2))),
        "bound": (8, st.just(8))}),
}


# a float32 lam is divided as a Python float, so no input warns
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=1500, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_input_succeeds_or_is_a_parameter_error(data):
    """Each parameter keeps its valid value or takes a drawn one; the call
    returns or raises a ParameterError of one short line (other exceptions
    fail the test)."""
    call, slots = CALLS[data.draw(st.sampled_from(sorted(CALLS)), label="entry")]
    kwargs = {
        name: data.draw(st.one_of(st.just(valid), other), label=name)
        for name, (valid, other) in slots.items()
    }
    try:
        call(**kwargs)
    except sf.ParameterError as exc:
        assert "\n" not in str(exc) and len(str(exc)) < 300


def test_every_entry_point_takes_its_valid_values():
    for call, slots in CALLS.values():
        call(**{name: valid for name, (valid, _) in slots.items()})


@pytest.mark.parametrize("text, name, call", HOLES, ids=[text for text, _, _ in HOLES])
def test_hole_is_a_parameter_error_naming_its_parameter(text, name, call):
    with pytest.raises(sf.ParameterError, match=name) as info:
        call()
    assert "\n" not in str(info.value) and len(str(info.value)) < 300


class TestNumpyScalarsAreAccepted:
    @pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int16])
    def test_numpy_integer_bound(self, kind):
        """Narrow widths too: (30 + 1)**2 wraps in uint8."""
        policy = sf.FeeStructure(2, (1.5, 2.5))
        exact = sf.evaluate_policy(SCENARIO, policy, 30)
        assert sf.evaluate_policy(SCENARIO, policy, kind(30)) == exact
        assert type(sf.PolicyEvaluator(SCENARIO, kind(30)).bound) is int

    def test_numpy_float_fees_are_stored_as_floats(self):
        policy = sf.FeeStructure(2, (np.float64(1.5), np.float64(math.inf)))
        assert policy.fees == (1.5, math.inf)
        assert all(type(fee) is float for fee in policy.fees)
        padded = sf.canonicalize(0, (np.float64(2.0),), 2, np.float64(4.0))
        assert padded.fees == (2.0, 4.0)

    def test_numpy_integer_fields(self):
        config = sf.SimConfig(np.int64(2000), np.int64(500), np.int64(1), np.int64(8))
        assert (config.cycles, config.bound) == (2000, 8)
        assert sf.find_bound(SCENARIO, hard_cap=np.int64(40)) == sf.find_bound(SCENARIO)
        grid = sf.SearchGrid((np.float64(1.0), 2.0), (np.int64(1), 1))
        assert grid.fee_values == (1.0, 2.0)

    def test_numpy_integer_run_lengths_are_not_wrapped(self, monkeypatch):
        """Run lengths of 2**62 are over the period limit, not wrapped below it
        by int64 products; the refusal comes before the draw pool exists."""

        def no_pool(*args):
            raise AssertionError("the draws started")

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", no_pool)
        big = sf.SimConfig(np.int64(2**62), np.int64(0), streams=np.int64(4))
        with pytest.raises(sf.ParameterError, match="simulate.cycles"):
            sf.simulate(SCENARIO, sf.FeeStructure(2, (1.5, 2.5)), big)

    def test_numpy_reals(self):
        scenario = sf.Scenario(2, np.float64(1.5), CAPACITY, CHOICE, np.float32(8.0))
        assert scenario.lam == 1.5
        assert sf.poisson_pmf(np.float64(1.5)) == sf.poisson_pmf(1.5)

    @pytest.mark.parametrize("kind", [np.float32, np.float64])
    def test_fields_are_held_as_python_numbers(self, kind):
        scenario = sf.Scenario(np.int16(2), kind(1.5), CAPACITY, CHOICE, kind(8.0))
        assert type(scenario.lam) is float and type(scenario.penalty) is float
        assert type(scenario.period_length) is int
        choice = sf.ChoiceModel(kind(4.0), kind(0.0), kind(4.0))
        assert {type(v) for v in vars(choice).values()} == {float}
        config = sf.SimConfig(np.int32(2000), np.int16(500), np.uint8(1), np.uint8(8))
        assert {type(v) for v in vars(config).values()} == {int}
        grid = sf.SearchGrid((kind(1.0),), (np.uint8(1), np.int8(1)))
        held = (*grid.fee_values, *grid.cutoff_range)
        assert [type(v) for v in held] == [float, int, int]

    def test_narrow_integer_support_builds_the_same_capacity(self):
        """support_max**2 = 400 wraps in uint8: the support is held as an int."""
        spec = CapacitySpec(np.uint8(20), 5.88, 0.5)
        assert type(spec.support_max) is int
        exact = sf.discretized_beta(CapacitySpec(20, 5.88, 0.5))
        assert sf.discretized_beta(spec) == exact

    def test_narrow_integer_cycle_simulates_as_its_int(self):
        """1024 cycles * T = 100 overflows int8: the cycle is held as an int."""
        config = sf.SimConfig(1500, 500, 1, 8, 2)
        reports = [
            sf.simulate(sf.Scenario(T, 1.5, CAPACITY, CHOICE, 8.0),
                        sf.build_policy("TSP", (1.0, 2.0, 40, 90), T, 4.0), config)
            for T in (np.int8(100), 100)
        ]
        assert reports[0] == reports[1]
