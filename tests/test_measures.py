"""Stationary performance measures against examples and the brute oracle."""

import dataclasses
import math

import numpy as np
import pytest

import shipfees as sf

import bruteforce as bf


MICRO_POLICY = sf.FeeStructure(2, (1.5, 2.5))
MICRO_BOUND = 8


class TestBenchmarkValues:
    def test_csp_backorders(self, make_scenario):
        pol = sf.build_policy("CSP", 2.0, 8, 4.0)
        report = sf.evaluate_policy(make_scenario(0.85, 8.0), pol, bound=30)
        assert report.expected_backorders == pytest.approx(1.29, abs=0.005)

    def test_tsp_variable_profit(self, make_scenario):
        pol = sf.build_policy("TSP", (2.4, 3.0, 6, 7), 8, 4.0)
        report = sf.evaluate_policy(make_scenario(0.85, 8.0), pol, bound=30)
        assert report.variable_profit == pytest.approx(32.86, abs=0.005)

    def test_no_express_leaves_only_penalty(self, make_scenario):
        scenario = make_scenario(0.85, 8.0)
        pol = sf.build_policy("CSP", 4.0, 8, 4.0)
        report = sf.evaluate_policy(scenario, pol, bound=30)
        assert report.revenue == 0.0
        assert report.variable_profit == -8.0 * report.expected_backorders
        assert report.per_age_express_rate == (0.0,) * 8

    def test_zero_penalty_leaves_only_revenue(self, make_scenario):
        scenario = make_scenario(0.85, 0.0)
        pol = sf.build_policy("CSP", 2.0, 8, 4.0)
        report = sf.evaluate_policy(scenario, pol, bound=15)
        assert report.variable_profit == 40.0
        assert report.revenue == 40.0

    def test_fixed_profit_reported_separately(self, make_scenario):
        pol = sf.build_policy("CSP", 2.0, 8, 4.0)
        report = sf.evaluate_policy(make_scenario(0.85, 8.0), pol, bound=15)
        assert report.fixed_profit == 8 * 5.0 * 4.0


class TestRejection:
    def test_huge_bound_never_rejects(self, choice):
        scenario = sf.Scenario(2, 0.8, sf.Pmf.point_mass(2), choice, 8.0)
        report = sf.evaluate_policy(scenario, MICRO_POLICY, bound=25)
        assert report.rejection_probability < 1e-12
        assert report.expected_rejected_per_cycle < 1e-12

    def test_found_bound_meets_threshold(self, micro_scenario):
        bound = sf.find_bound(micro_scenario)
        report = sf.evaluate_policy(micro_scenario, MICRO_POLICY, bound=bound)
        assert report.rejection_probability <= 0.023

    def test_bound_zero_is_single_step_overflow(self, micro_scenario):
        # with no room, J is the chance one period's demand exceeds capacity
        got = sf.PolicyEvaluator(micro_scenario, 0).rejection_probability()
        expect = 0.0
        for fee in MICRO_POLICY.fees:
            lam_e = micro_scenario.lam * bf.express_share(micro_scenario.choice, fee)
            pe = bf.poisson_masses(lam_e)
            pr = bf.poisson_masses(micro_scenario.lam - lam_e)
            for e, qe in enumerate(pe):
                for r, qr in enumerate(pr):
                    for b, qb in enumerate(micro_scenario.capacity.mass):
                        if e + r - b > 0:
                            expect += qe * qr * qb
        assert got == pytest.approx(expect / 2, abs=1e-12)


class TestMeanDelay:
    """The report's mean delay is E[M] / lam, undefined (NaN) at lam = 0."""

    def test_arithmetic(self, micro_scenario, make_scenario):
        cases = [
            (micro_scenario, MICRO_POLICY, 8),
            (make_scenario(0.9, 8.0), sf.build_policy("CSP", 2.0, 8, 4.0), 40),
        ]
        for scenario, policy, bound in cases:
            report = sf.evaluate_policy(scenario, policy, bound=bound)
            assert report.expected_backorders > 0.0
            assert report.mean_delay == report.expected_backorders / scenario.lam

    def test_zero_arrival_rate_undefined(self, choice):
        # capacity 0 or 1; fees at u_min, inside, u_max and inf
        scenario = sf.Scenario(3, 0.0, sf.Pmf(np.array([0.5, 0.5])), choice, 8.0)
        for fees in ((0.0, 2.0, math.inf), (4.0, 4.0, 4.0)):
            report = sf.evaluate_policy(scenario, sf.FeeStructure(3, fees), bound=4)
            assert report.expected_backorders == 0.0
            assert math.isnan(report.mean_delay)


class TestStructure:
    def test_profit_linear_in_penalty(self, choice):
        capacity = sf.Pmf(np.array([0.1, 0.2, 0.4, 0.3]))
        reports = [
            sf.evaluate_policy(
                sf.Scenario(2, 1.5, capacity, choice, c), MICRO_POLICY, bound=8
            )
            for c in (0.0, 8.0, 12.0)
        ]
        m = reports[0].expected_backorders
        assert reports[1].variable_profit == pytest.approx(
            reports[0].variable_profit - 8.0 * m, abs=1e-9
        )
        assert reports[2].variable_profit == pytest.approx(
            reports[0].variable_profit - 12.0 * m, abs=1e-9
        )

    def test_report_dict_round_trip(self, micro_scenario):
        report = sf.evaluate_policy(micro_scenario, MICRO_POLICY, bound=8)
        d = dataclasses.asdict(report)
        assert d["bound"] == 8
        assert set(d) == {f.name for f in dataclasses.fields(report)}

    def test_mean_delay_nan_when_idle(self, choice):
        scenario = sf.Scenario(2, 0.0, sf.Pmf.point_mass(2), choice, 8.0)
        report = sf.evaluate_policy(scenario, sf.FeeStructure(2, (2.0, 2.0)), bound=1)
        assert math.isnan(report.mean_delay)
        assert report.expected_backorders == 0.0


class TestBruteForceOracle:
    def test_micro_instance_full_report(self, micro_scenario):
        report = sf.evaluate_policy(micro_scenario, MICRO_POLICY, bound=MICRO_BOUND)
        brute = bf.brute_report(micro_scenario, MICRO_POLICY, MICRO_BOUND)
        for key, expect in brute.items():
            got = getattr(report, key)
            if isinstance(expect, tuple):
                assert got == pytest.approx(expect, abs=1e-10), key
            else:
                assert got == pytest.approx(expect, abs=1e-10), key

    def test_second_policy_with_sentinel_age(self, micro_scenario):
        pol = sf.FeeStructure(2, (2.0, 4.0))
        report = sf.evaluate_policy(micro_scenario, pol, bound=MICRO_BOUND)
        brute = bf.brute_report(micro_scenario, pol, MICRO_BOUND)
        assert report.expected_backorders == pytest.approx(
            brute["expected_backorders"], abs=1e-10
        )
        assert report.variable_profit == pytest.approx(
            brute["variable_profit"], abs=1e-10
        )
        assert report.rejection_probability == pytest.approx(
            brute["rejection_probability"], abs=1e-12
        )
