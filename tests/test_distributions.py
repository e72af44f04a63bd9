"""Truncated Poisson and discretized Beta capacity pmfs."""

import math

import numpy as np
import pytest

import shipfees as sf
from shipfees.distributions import CapacitySpec

from bruteforce import poisson_masses


class TestPmf:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(sf.ParameterError, match="finite"):
            sf.Pmf(np.array([0.5, bad, 0.5]))

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
        with pytest.raises(sf.ParameterError):
            sf.poisson_pmf(-0.1)

    def test_matches_independent_pmf(self):
        ours = sf.poisson_pmf(3.7).mass
        ref = poisson_masses(3.7)
        # compare below both fold points, where no tail mass was moved
        n = min(ours.size, ref.size) - 1
        assert np.max(np.abs(ours[:n] - ref[:n])) < 1e-13

    def test_sums_to_one(self):
        for rate in (0.0, 0.3, 2.5, 5.0, 11.0):
            mass = sf.poisson_pmf(rate).mass
            assert mass.sum() == pytest.approx(1.0, abs=1e-12)
            assert (mass >= 0).all()


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
            sf.beta_shape_parameters(CapacitySpec(20, mean, 0.5))

    def test_inadmissible_variance_names_feasible_range(self):
        with pytest.raises(sf.ParameterError, match="scv"):
            sf.discretized_beta(CapacitySpec(20, 10.0, 1.5))

    def test_achieved_mean_monotone_in_target(self):
        achieved = [
            sf.discretized_beta(CapacitySpec(20, m, 0.5)).mean()
            for m in (4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
        ]
        assert all(a < b for a, b in zip(achieved, achieved[1:]))
