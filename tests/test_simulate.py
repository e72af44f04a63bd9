"""Monte Carlo oracle: determinism, degenerate exactness, agreement."""

import dataclasses
import math

import numpy as np
import pytest

import shipfees as sf


MICRO_POLICY = sf.FeeStructure(2, (1.5, 2.5))


def reports_equal(a, b):
    for field in dataclasses.fields(a.report):
        va, vb = getattr(a.report, field.name), getattr(b.report, field.name)
        if isinstance(va, tuple):
            if va != vb:
                return False
        elif va != vb and not (math.isnan(va) and math.isnan(vb)):
            return False
    return (
        a.halfwidth_backorders == b.halfwidth_backorders
        and a.halfwidth_variable_profit == b.halfwidth_variable_profit
        and a.halfwidth_rejection == b.halfwidth_rejection
    )


class TestConfig:
    def test_zero_measured_cycles_rejected(self):
        with pytest.raises(sf.ParameterError):
            sf.SimConfig(cycles=1000, warmup_cycles=1000)

    def test_negative_values_rejected(self):
        with pytest.raises(sf.ParameterError):
            sf.SimConfig(cycles=100, warmup_cycles=-1)
        with pytest.raises(sf.ParameterError):
            sf.SimConfig(cycles=100, warmup_cycles=10, streams=0)
        with pytest.raises(sf.ParameterError):
            sf.SimConfig(cycles=100, warmup_cycles=10, seed=-1)

    def test_period_length_must_match(self, micro_scenario):
        wrong = sf.FeeStructure(3, (1.0, 2.0, 3.0))
        with pytest.raises(sf.ParameterError):
            sf.simulate(micro_scenario, wrong, sf.SimConfig(cycles=100, warmup_cycles=10))


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, micro_scenario):
        cfg = sf.SimConfig(cycles=3000, warmup_cycles=500, seed=42, bound=8, streams=10)
        first = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        second = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        assert reports_equal(first, second)

    def test_different_seeds_differ(self, micro_scenario):
        base = sf.SimConfig(cycles=3000, warmup_cycles=500, seed=42, bound=8, streams=10)
        other = sf.SimConfig(cycles=3000, warmup_cycles=500, seed=43, bound=8, streams=10)
        a = sf.simulate(micro_scenario, MICRO_POLICY, base)
        b = sf.simulate(micro_scenario, MICRO_POLICY, other)
        assert not reports_equal(a, b)


class TestDegenerate:
    def test_idle_system_is_exact(self, choice):
        scenario = sf.Scenario(2, 0.0, sf.Pmf.point_mass(2), choice, 8.0)
        pol = sf.FeeStructure(2, (2.0, 2.0))
        cfg = sf.SimConfig(cycles=500, warmup_cycles=100, seed=0, bound=1, streams=4)
        out = sf.simulate(scenario, pol, cfg)
        exact = sf.evaluate_policy(scenario, pol, bound=1)
        assert out.report.expected_backorders == exact.expected_backorders == 0.0
        assert out.report.variable_profit == exact.variable_profit == 0.0
        assert out.report.rejection_probability == 0.0
        assert out.halfwidth_backorders == 0.0
        assert out.halfwidth_variable_profit == 0.0


class TestAgreement:
    def test_within_three_halfwidths_of_exact(self, micro_scenario):
        exact = sf.evaluate_policy(micro_scenario, MICRO_POLICY, bound=8)
        cfg = sf.SimConfig(
            cycles=41000, warmup_cycles=1000, seed=11, bound=8, streams=20
        )
        out = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        assert out.measured_cycles == 40000
        assert out.streams == 20
        pairs = [
            (out.report.expected_backorders, exact.expected_backorders,
             out.halfwidth_backorders),
            (out.report.variable_profit, exact.variable_profit,
             out.halfwidth_variable_profit),
            (out.report.rejection_probability, exact.rejection_probability,
             out.halfwidth_rejection),
        ]
        for sim, ex, halfwidth in pairs:
            assert abs(sim - ex) <= 3.0 * halfwidth

    def test_streams_capped_by_measured_cycles(self, micro_scenario):
        cfg = sf.SimConfig(cycles=1005, warmup_cycles=1000, seed=0, bound=8, streams=200)
        out = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        assert out.streams == 5
        assert out.measured_cycles == 5

    def test_auto_bound_matches_find_bound(self, micro_scenario):
        cfg = sf.SimConfig(cycles=2000, warmup_cycles=500, seed=3, streams=8)
        out = sf.simulate(micro_scenario, MICRO_POLICY, cfg)
        assert out.report.bound == sf.find_bound(micro_scenario)
