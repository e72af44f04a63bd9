"""Truncated periodic chain: transitions, kernels, bounds, stationarity."""

import math

import numpy as np
import pytest

import shipfees as sf
from shipfees.chain import _shift_matrix, state_count, state_pairs

import bruteforce as bf
import kernel_oracle as ko


class TestTransition:
    def test_plain_period(self):
        assert sf.transition(2, 5, e=1, r=2, b=4, bound=100) == (0, 4)

    def test_deadline_resets_due_now(self):
        assert sf.transition(2, 5, e=1, r=2, b=4, bound=100, deadline=True) == (4, 4)

    def test_overflow_rejects_express_after_regular(self):
        # bound 5, state (0,5), E=2, R=1, B=0: O=3, R'=0, E'=0
        assert sf.transition(0, 5, e=2, r=1, b=0, bound=5) == (0, 5)

    def test_bound_zero_pins_the_empty_state(self):
        for e in range(4):
            for r in range(4):
                assert sf.transition(0, 0, e=e, r=r, b=1, bound=0) == (0, 0)

    def test_matches_independent_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            xs = int(rng.integers(0, 9))
            xc = int(rng.integers(0, xs + 1))
            e, r, b = (int(v) for v in rng.integers(0, 6, size=3))
            dl = bool(rng.integers(0, 2))
            assert sf.transition(xc, xs, e, r, b, 8, dl) == bf.step_state(
                xc, xs, e, r, b, 8, dl
            )


class TestKernel:
    BOUND = 8

    def test_rows_match_brute_matrices(self, micro_scenario):
        pol = sf.FeeStructure(2, (1.5, 2.5))
        kernel = ko.build_kernel(micro_scenario, pol, self.BOUND)
        mats = bf.cycle_matrices(micro_scenario, pol, self.BOUND)
        for age in range(2):
            dev = np.max(np.abs(kernel.per_age[age].toarray() - mats[age]))
            assert dev < 1e-12

    def test_rows_sum_to_one(self, micro_scenario, make_scenario):
        cases = [
            (micro_scenario, sf.FeeStructure(2, (1.5, 2.5)), self.BOUND),
            (make_scenario(0.85, 8.0), sf.build_policy("CSP", 2.0, 8, 4.0), 12),
        ]
        for scenario, pol, bound in cases:
            kernel = ko.build_kernel(scenario, pol, bound)
            for mat in kernel.per_age:
                sums = np.asarray(mat.sum(axis=1)).ravel()
                assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_state_enumeration_size(self, micro_scenario):
        pol = sf.FeeStructure(2, (1.5, 2.5))
        kernel = ko.build_kernel(micro_scenario, pol, self.BOUND)
        n = (self.BOUND + 1) * (self.BOUND + 2) // 2
        assert state_count(self.BOUND) == n
        assert kernel.per_age[0].shape == (n, n)
        xc, xs = state_pairs(self.BOUND)
        assert xc.size == n and (xc <= xs).all()

    def test_bound_below_one_rejected(self, micro_scenario):
        with pytest.raises(sf.ParameterError):
            ko.build_kernel(micro_scenario, sf.FeeStructure(2, (1.5, 2.5)), 0)


@pytest.fixture(scope="module")
def solved(micro_scenario):
    pol = sf.FeeStructure(2, (1.5, 2.5))
    kernel = ko.build_kernel(micro_scenario, pol, 8)
    return pol, kernel, ko.stationary(kernel)


class TestStationary:
    BOUND = 8

    def test_fixed_point_around_the_cycle(self, solved):
        _, kernel, pi = solved
        vec = pi.per_age[0]
        for mat in kernel.per_age:
            vec = vec @ mat
        assert np.max(np.abs(vec - pi.per_age[0])) < 1e-10

    def test_age_vectors_are_distributions(self, solved):
        _, _, pi = solved
        for vec in pi.per_age:
            assert vec.sum() == pytest.approx(1.0, abs=1e-10)
            assert (vec >= -1e-15).all()

    def test_independent_of_initial_vector(self, solved):
        _, kernel, pi = solved
        n = state_count(self.BOUND)
        corner = np.zeros(n)
        corner[-1] = 1.0
        alt = ko.stationary(kernel, initial=corner)
        for age in range(2):
            assert np.max(np.abs(alt.per_age[age] - pi.per_age[age])) < 1e-9

    def test_matches_dense_linear_solve(self, micro_scenario, solved):
        pol, _, pi = solved
        mats = bf.cycle_matrices(micro_scenario, pol, self.BOUND)
        per_age = bf.stationary_per_age(mats)
        states = bf.states_list(self.BOUND)
        for age in range(2):
            joint = pi.joint(age)
            brute = np.zeros_like(joint)
            for i, (xc, xs) in enumerate(states):
                brute[xc, xs] = per_age[age][i]
            assert np.max(np.abs(joint - brute)) < 1e-9

    def test_structural_evaluator_matches_kernel(self, micro_scenario, solved):
        pol, _, pi = solved
        ours = sf.steady_state(micro_scenario, pol, self.BOUND)
        for age in range(2):
            assert np.max(np.abs(ours.per_age[age] - pi.per_age[age])) < 1e-10

    def test_due_now_marginal_resets_at_age_zero(self, solved):
        _, _, pi = solved
        joint = pi.joint(0)
        assert np.max(np.abs(joint.sum(axis=1) - joint.sum(axis=0))) < 1e-12

    def test_workload_marginal_is_policy_invariant(self, micro_scenario):
        policies = [
            sf.FeeStructure(2, (1.5, 2.5)),
            sf.FeeStructure(2, (0.5, 4.0)),
            sf.FeeStructure(2, (4.0, 4.0)),
        ]
        marginals = [
            sf.steady_state(micro_scenario, pol, self.BOUND).workload_marginal(1)
            for pol in policies
        ]
        for other in marginals[1:]:
            assert np.max(np.abs(other - marginals[0])) < 1e-9


class TestFindBound:
    def test_idle_system(self, choice):
        scenario = sf.Scenario(2, 1e-8, sf.Pmf.point_mass(2), choice, 8.0)
        assert sf.find_bound(scenario) == 1

    def test_vacuous_threshold(self, choice):
        capacity = sf.Pmf(np.array([0.05, 0.05, 0.9]))
        scenario = sf.Scenario(
            2, 1.5, capacity, choice, 8.0, rejection_threshold=1.0
        )
        assert sf.find_bound(scenario) == 1

    @pytest.mark.parametrize(
        "rho,expected", [(0.85, 27), (0.90, 35), (0.95, 51)]
    )
    def test_frozen_regression(self, make_scenario, rho, expected):
        assert sf.find_bound(make_scenario(rho, 8.0)) == expected

    def test_output_is_minimal(self, make_scenario):
        scenario = make_scenario(0.85, 8.0)
        pol = sf.build_policy("CSP", 2.0, 8, 4.0)
        bound = sf.find_bound(scenario)
        at = sf.evaluate_policy(scenario, pol, bound=bound).rejection_probability
        below = sf.evaluate_policy(
            scenario, pol, bound=bound - 1
        ).rejection_probability
        assert at <= scenario.rejection_threshold < below

    def test_hard_cap_reached(self, choice):
        capacity = sf.Pmf(np.array([0.05, 0.05, 0.9]))
        scenario = sf.Scenario(2, 1.75, capacity, choice, 8.0)
        with pytest.raises(sf.CapacityInfeasibleError):
            sf.find_bound(scenario, hard_cap=2)


class TestWorkloadLaw:
    """The policy-free workload vector is the x_s law at every age."""

    @staticmethod
    def random_fees(rng, scenario):
        lo, hi = scenario.choice.u_min, scenario.choice.u_max
        fees = [float(f) for f in rng.uniform(lo, hi, scenario.period_length)]
        for t in rng.choice(scenario.period_length, size=2, replace=False):
            fees[t] = float(rng.choice([lo, hi, math.inf]))
        return tuple(fees)

    def test_every_age_marginal_is_the_workload(self, micro_scenario, make_scenario):
        rng = np.random.default_rng(29)
        for scenario, bound in ((micro_scenario, 8), (make_scenario(0.95, 8.0), 51)):
            ev = sf.PolicyEvaluator(scenario, bound)
            for fees in [self.random_fees(rng, scenario) for _ in range(8)] + [
                (scenario.choice.u_min,) * scenario.period_length,
                (math.inf,) * scenario.period_length,
            ]:
                for J in ev.joints(fees):
                    dev = np.max(np.abs(J.sum(axis=0) - ev.workload))
                    assert dev <= 1e-12, (fees, dev)

    @pytest.mark.parametrize("period", [2, 3])
    def test_found_bound_is_minimal_for_brute_force(self, choice, period):
        capacity = sf.Pmf(np.array([0.1, 0.2, 0.4, 0.3]))
        scenario = sf.Scenario(period, 1.5, capacity, choice, 8.0)
        bound = sf.find_bound(scenario)
        threshold = scenario.rejection_threshold
        rng = np.random.default_rng(period)
        for fees in ((2.0,) * period, self.random_fees(rng, scenario)):
            pol = sf.FeeStructure(period, fees)
            at = bf.brute_report(scenario, pol, bound)["rejection_probability"]
            below = bf.brute_report(scenario, pol, bound - 1)["rejection_probability"]
            assert at <= threshold < below, (fees, at, below)


class TestScenario:
    @pytest.mark.parametrize("field", ["lam", "penalty", "rejection_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, micro_scenario, field, value):
        kwargs = {
            "period_length": 2,
            "lam": 1.5,
            "capacity": micro_scenario.capacity,
            "choice": micro_scenario.choice,
            "penalty": 8.0,
            "rejection_threshold": 0.023,
        }
        kwargs[field] = value
        with pytest.raises(sf.ParameterError, match=field):
            sf.Scenario(**kwargs)


class TestPolicyEvaluator:
    def test_batch_matches_single_evaluations(self, micro_scenario):
        fee_vectors = [
            (1.5, 2.5),
            (2.5, 1.5),
            (0.5, 0.5),
            (4.0, 2.0),
            (3.5, 3.5),
        ]
        ev = sf.PolicyEvaluator(micro_scenario, 8)
        profits, backorders = ev.profits_batch(fee_vectors)
        for fees, profit, m in zip(fee_vectors, profits, backorders):
            report = sf.evaluate_policy(
                micro_scenario, sf.FeeStructure(2, fees), bound=8
            )
            assert profit == pytest.approx(report.variable_profit, abs=1e-12)
            assert m == pytest.approx(report.expected_backorders, abs=1e-12)


class TestShiftMatrix:
    @staticmethod
    def loop_kernel(p, origin, rows, bound):
        K = np.zeros((len(rows), bound + 1))
        for i, x in enumerate(rows):
            for k, mass in enumerate(p):
                K[i, min(max(x + k - origin, 0), bound)] += mass
        return K

    @pytest.mark.parametrize(
        "p, origin",
        [
            (np.array([0.2, 0.0, 0.5, 0.0, 0.3]), 0),
            (np.array([0.1, 0.0, 0.0, 0.6, 0.3]), 3),
            (np.array([0.25, 0.25, 0.0, 0.5]), 1),
            (np.array([1.0]), 0),
        ],
    )
    @pytest.mark.parametrize("bound", [0, 1, 6])
    def test_matches_direct_loop(self, p, origin, bound):
        rows = np.arange(-4, bound + 1)
        K = _shift_matrix(p, origin, rows, bound)
        np.testing.assert_allclose(
            K, self.loop_kernel(p, origin, rows, bound), rtol=0, atol=1e-15
        )
        assert np.max(np.abs(K.sum(axis=1) - 1.0)) <= 1e-12


class TestAgeStepBackorders:
    """The deadline backorder matrices of each fee's step."""

    BOUNDS = (0, 3, 8)

    def fees(self, choice):
        return (choice.u_min, 1.3, 2.5, choice.u_max, math.inf)

    def test_match_definition(self, micro_scenario):
        """raw = E[(x_c + u)^+], adjusted = E[(x_c + min(u, bound - x_s))^+]."""
        cap = micro_scenario.capacity.mass
        for bound in self.BOUNDS:
            ev = sf.PolicyEvaluator(micro_scenario, bound)
            for fee in self.fees(micro_scenario.choice):
                step = ev._step(fee)
                e = step.express.mass
                raw = np.zeros((bound + 1, bound + 1))
                adj = np.zeros((bound + 1, bound + 1))
                for xc in range(bound + 1):
                    for xs in range(bound + 1):
                        for i, pe in enumerate(e):
                            for b, pb in enumerate(cap):
                                u = i - b
                                raw[xc, xs] += pe * pb * max(xc + u, 0)
                                adj[xc, xs] += pe * pb * max(xc + min(u, bound - xs), 0)
                np.testing.assert_allclose(step.backorders_raw, raw, rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    step.backorders_adjusted, adj, rtol=0, atol=1e-12
                )

    def test_adjusted_below_raw(self, micro_scenario, make_scenario):
        for scenario, bound in ((micro_scenario, 8), (make_scenario(0.95, 8.0), 51)):
            ev = sf.PolicyEvaluator(scenario, bound)
            choice = scenario.choice
            for fee in self.fees(choice):
                step = ev._step(fee)
                assert np.all(step.backorders_adjusted <= step.backorders_raw)
                if fee >= choice.u_max:
                    assert np.array_equal(step.backorders_adjusted, step.backorders_raw)

    def test_report_backorders_below_raw_exactly(self, choice):
        """No tolerance: E[M] <= raw E[M] on the what-if grid of rho x scv."""
        rng = np.random.default_rng(41)
        for rho in (0.85, 0.90, 0.95):
            for scv in (0.25, 0.5, 1.0):
                sc = sf.Scenario.from_utilization(8, 5.0, rho, scv, 20, choice, 8.0)
                for _ in range(3):
                    fees = TestWorkloadLaw.random_fees(rng, sc)
                    rep = sf.evaluate_policy(sc, sf.FeeStructure(8, fees))
                    assert rep.expected_backorders <= rep.expected_backorders_raw, (
                        rho, scv, fees
                    )
