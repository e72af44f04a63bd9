"""Truncated Poisson and discretized Beta capacity pmfs."""

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

import shipfees as sf
from shipfees.cli import PRESETS, Experiment, load_preset
from shipfees.distributions import (
    POISSON_RATE_MAX, CapacitySpec, _beta_shape_parameters, _betainc,
)

from bruteforce import poisson_masses


class TestPmf:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(sf.ParameterError) as info:
            sf.Pmf(np.array([0.5, bad, 0.5]))
        assert str(info.value) == f"mass[1] must be a real number, got {np.float64(bad)!r}"

    def test_equal_masses_compare_and_hash_equal(self):
        a, b = sf.Pmf(np.array([0.5, 0.5])), sf.Pmf(np.array([0.5, 0.5]))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_masses_differ(self):
        assert sf.Pmf(np.array([0.5, 0.5])) != sf.Pmf(np.array([0.25, 0.75]))

    def test_different_lengths_differ(self):
        short = sf.Pmf(np.array([0.5, 0.5]))
        assert short != sf.Pmf(np.array([0.5, 0.5, 0.0]))
        assert sf.Pmf.point_mass(1) != sf.Pmf.point_mass(2)

    def test_negative_zero_equals_zero(self):
        neg, pos = sf.Pmf(np.array([-0.0, 1.0])), sf.Pmf(np.array([0.0, 1.0]))
        assert neg == pos and hash(neg) == hash(pos)

    def test_other_types_are_not_equal(self):
        pmf = sf.Pmf(np.array([0.5, 0.5]))
        assert pmf != [0.5, 0.5]
        assert pmf != np.array([0.5, 0.5]).tobytes()


class TestScv:
    def test_known_pmf(self):
        # Binomial(3, 1/2): mean 3/2, variance 3/4, scv 1/3
        pmf = sf.Pmf(np.array([0.125, 0.375, 0.375, 0.125]))
        assert (pmf.mean(), pmf.variance()) == (1.5, 0.75)
        assert pmf.scv() == pytest.approx(1 / 3, abs=1e-15)

    def test_mean_zero_is_a_parameter_error(self):
        with pytest.raises(sf.ParameterError, match="mean 0"):
            sf.Pmf.point_mass(0).scv()
        assert sf.Pmf.point_mass(3).scv() == 0.0


class TestPoisson:
    def test_rate_zero_is_point_mass(self):
        assert sf.poisson_pmf(0.0).mass.tolist() == [1.0]

    def test_rate_five_mass_and_support(self):
        pmf = sf.poisson_pmf(5.0, 1e-12)
        exact = math.exp(-5.0) * 5.0**5 / math.factorial(5)
        assert pmf.mass[5] == pytest.approx(exact, abs=1e-12)
        assert pmf.mass[5] == pytest.approx(0.175467, abs=1e-6)
        assert pmf.support_max >= 22

    def test_mean_preserved_under_folding(self):
        assert sf.poisson_pmf(2.5).mean() == pytest.approx(2.5, abs=1e-9)

    def test_negative_rate_rejected(self):
        for rate in (-0.1, float("nan"), "2.0"):
            with pytest.raises(sf.ParameterError) as info:
                sf.poisson_pmf(rate)
            assert str(info.value) == f"poisson rate must be a number >= 0, got {rate!r}"

    def test_matches_independent_pmf(self):
        ours = sf.poisson_pmf(3.7).mass
        ref = poisson_masses(3.7)
        # compare below both fold points, where no tail mass was moved
        n = min(ours.size, ref.size) - 1
        assert np.max(np.abs(ours[:n] - ref[:n])) < 1e-13

    @pytest.mark.parametrize(
        "rate", [0.0, 1e-300, 0.37, 1.25, 3.75, 5.0, 9.99, 40.0, 700.0]
    )
    def test_float_recurrence_is_bit_identical(self, rate):
        """The recurrence on Python floats against it on numpy scalars."""
        terms = [np.exp(-rate)]
        cdf = terms[0]
        k = 0
        while cdf < 1.0 - 1e-12:
            k += 1
            terms.append(terms[-1] * rate / k)
            cdf += terms[-1]
        ref = np.array(terms)
        ref[-1] += max(1.0 - float(ref.sum()), 0.0)
        ref /= ref.sum()
        assert np.array_equal(sf.poisson_pmf(rate, 1e-12).mass, ref)

    def test_sums_to_one(self):
        for rate in (0.0, 0.3, 2.5, 5.0, 11.0):
            mass = sf.poisson_pmf(rate).mass
            assert mass.sum() == pytest.approx(1.0, abs=1e-12)
            assert (mass >= 0).all()


class TestPoissonRateLimit:
    """Past -log of the least normal float, exp(-rate) is subnormal, which
    truncates the pmf wrongly, or 0, on which the recurrence never ends."""

    def test_limit_is_the_last_rate_with_a_normal_exp(self):
        assert np.exp(-POISSON_RATE_MAX) >= sys.float_info.min
        assert np.exp(-math.nextafter(POISSON_RATE_MAX, math.inf)) < sys.float_info.min
        pmf = sf.poisson_pmf(POISSON_RATE_MAX)
        assert pmf.mean() == pytest.approx(POISSON_RATE_MAX, abs=1e-9)

    @pytest.mark.parametrize("rate", [708.5, 730.0, 760.0, 1e6, math.inf])
    def test_rate_over_the_limit_is_refused(self, rate):
        with pytest.raises(sf.ParameterError, match="over the limit 708.396"):
            sf.poisson_pmf(rate)


class TestDiscretizedBeta:
    def test_vanishing_variance_concentrates(self):
        pmf = sf.discretized_beta(CapacitySpec(20, 10.0, 1e-6))
        assert pmf.mass[10] > 0.999

    def test_achieved_mean_tracks_target(self):
        mean = 5.0 / 0.85
        pmf = sf.discretized_beta(CapacitySpec(20, mean, 0.5))
        assert abs(pmf.mean() - mean) / mean < 0.02

    def test_symmetric_at_midpoint(self):
        pmf = sf.discretized_beta(CapacitySpec(20, 10.0, 0.3))
        assert np.max(np.abs(pmf.mass - pmf.mass[::-1])) < 1e-9

    def test_sums_to_one(self):
        for scv in (0.2, 0.5, 1.0):
            mass = sf.discretized_beta(CapacitySpec(20, 7.0, scv)).mass
            assert mass.sum() == pytest.approx(1.0, abs=1e-12)
            assert (mass >= 0).all()

    @pytest.mark.parametrize("mean", [1e-300, 1e-170])
    def test_underflowing_variance_is_a_parameter_error(self, mean):
        with pytest.raises(sf.ParameterError, match="not finite and positive"):
            _beta_shape_parameters(CapacitySpec(20, mean, 0.5))

    def test_inadmissible_variance_names_feasible_range(self):
        with pytest.raises(sf.ParameterError, match="scv"):
            sf.discretized_beta(CapacitySpec(20, 10.0, 1.5))

    def test_achieved_mean_monotone_in_target(self):
        achieved = [
            sf.discretized_beta(CapacitySpec(20, m, 0.5)).mean()
            for m in (4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
        ]
        assert all(a < b for a, b in zip(achieved, achieved[1:]))


def cell_edges(n):
    return np.clip((np.arange(n + 2) - 0.5) / n, 0.0, 1.0)


def scipy_discretized_beta(spec):
    """The cell masses of ``discretized_beta`` with scipy's incomplete beta."""
    alpha, beta = _beta_shape_parameters(spec)
    cdf = special.betainc(alpha, beta, cell_edges(spec.support_max))
    masses = np.clip(np.diff(cdf), 0.0, None)
    return masses / masses.sum()


# (utilization, capacity scv) of the what-if cells at lambda 5, support 20,
# and the truncation bound each one finds
WHATIF_BOUNDS = {
    (0.85, 0.25): 17, (0.85, 0.5): 27, (0.85, 1.0): 46,
    (0.90, 0.25): 23, (0.90, 0.5): 35, (0.90, 1.0): 59,
    (0.95, 0.25): 34, (0.95, 0.5): 51, (0.95, 1.0): 85,
}
PRESET_BOUNDS = {"rho085": 27, "rho090": 35, "rho095": 51}


class TestIncompleteBeta:
    """The in-package I_x(a, b) against scipy.special.betainc."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 60),
        m=st.floats(1e-6, 0.9999),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    @example(n=20, m=0.275, u=0.0)  # the mean on a cell edge
    @example(n=1, m=0.5, u=0.999999)  # shapes near 0
    def test_cell_edges_match_scipy(self, n, m, u):
        # scv log-uniform from 1e-4 up to its cap (1 - m)/m
        scv = 1e-4 * ((1.0 - m) / m / 1e-4) ** u
        try:
            a, b = _beta_shape_parameters(CapacitySpec(n, n * m, scv))
        except sf.ParameterError:  # shapes lost to rounding at the cap
            return
        edges = cell_edges(n)
        ours = np.array([_betainc(a, b, float(x)) for x in edges])
        assert np.max(np.abs(ours - special.betainc(a, b, edges))) <= 5e-13

    @pytest.mark.parametrize(
        "name", [*PRESETS, *(f"whatif {rho} {scv}" for rho, scv in WHATIF_BOUNDS)]
    )
    def test_scenario_pmfs_and_bounds_unchanged(self, name):
        if name in PRESETS:
            cfg = load_preset(name)
            sc = cfg["scenario"]
            spec = CapacitySpec(
                sc["capacity_support_max"], sc["lambda"] / sc["utilization"], sc["scv"]
            )
            scenario = Experiment(name, cfg, 0.023).scenario
            bound = PRESET_BOUNDS[name[:6]]
        else:
            rho, scv = map(float, name.split()[1:])
            spec = CapacitySpec(20, 5.0 / rho, scv)
            choice = sf.ChoiceModel(4.0, 0.0, 4.0)
            scenario = sf.Scenario.from_utilization(8, 5.0, rho, scv, 20, choice, 8.0)
            bound = WHATIF_BOUNDS[rho, scv]
        assert np.max(np.abs(scenario.capacity.mass - scipy_discretized_beta(spec))) <= 1e-14
        assert sf.find_bound(scenario) == bound

    def test_extreme_shapes(self):
        spec = CapacitySpec(20, 5.5, 1e-10)  # shapes near 1e10, mean on an edge
        start = time.perf_counter()
        pmf = sf.discretized_beta(spec)
        elapsed = time.perf_counter() - start
        assert np.max(np.abs(pmf.mass - scipy_discretized_beta(spec))) <= 1e-9
        assert elapsed < 0.1

    def test_term_cap_is_a_numerics_error(self):
        # shapes near 7e13 need more than CF_MAX_TERMS terms at the edge on the mean
        with pytest.raises(sf.NumericsError, match="did not converge"):
            sf.discretized_beta(CapacitySpec(20, 5.5, 1e-14))
