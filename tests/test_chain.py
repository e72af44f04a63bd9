"""Truncated periodic chain: transitions, kernels, bounds, stationarity."""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shipfees as sf
from shipfees import chain
from shipfees.chain import _shift_matrix
from shipfees.optimize import FAMILIES, _candidates

import bruteforce as bf
import kernel_oracle as ko


def _accepted_counts_rule(xc, xs, e, r, b, bound, deadline):
    """The period update from accepted counts: overflow o rejects regular
    orders first, then express; the deadline resets the due count."""
    o = max(xs + e + r - b - bound, 0)
    r_acc = max(r - o, 0)
    e_acc = max(e - max(o - r, 0), 0)
    xs2 = max(xs + e_acc + r_acc - b, 0)
    xc2 = xs2 if deadline else max(xc + e_acc - b, 0)
    return xc2, xs2


class TestTransition:
    """Pins the oracle's period rule, ``bruteforce.step_state``."""

    def test_plain_period(self):
        assert bf.step_state(2, 5, e=1, r=2, b=4, bound=100, deadline=False) == (0, 4)

    def test_deadline_resets_due_now(self):
        assert bf.step_state(2, 5, e=1, r=2, b=4, bound=100, deadline=True) == (4, 4)

    def test_overflow_rejects_express_after_regular(self):
        # bound 5, state (0,5), E=2, R=1, B=0: O=3, R'=0, E'=0
        assert bf.step_state(0, 5, e=2, r=1, b=0, bound=5, deadline=False) == (0, 5)

    def test_bound_zero_pins_the_empty_state(self):
        for e in range(4):
            for r in range(4):
                for dl in (False, True):
                    assert bf.step_state(0, 0, e, r, b=1, bound=0, deadline=dl) == (0, 0)

    def test_matches_independent_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            xs = int(rng.integers(0, 9))
            xc = int(rng.integers(0, xs + 1))
            e, r, b = (int(v) for v in rng.integers(0, 6, size=3))
            dl = bool(rng.integers(0, 2))
            assert bf.step_state(xc, xs, e, r, b, 8, dl) == _accepted_counts_rule(
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
        assert ko.state_count(self.BOUND) == n
        assert kernel.per_age[0].shape == (n, n)
        states = bf.states_list(self.BOUND)
        assert len(states) == n and all(xc <= xs for xc, xs in states)
        indices = [ko.state_index(xc, xs) for xc, xs in states]
        assert indices == list(range(n))

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
        vec = pi[0]
        for mat in kernel.per_age:
            vec = vec @ mat
        assert np.max(np.abs(vec - pi[0])) < 1e-10

    def test_age_vectors_are_distributions(self, solved):
        _, _, pi = solved
        for vec in pi:
            assert vec.sum() == pytest.approx(1.0, abs=1e-10)
            assert (vec >= -1e-15).all()

    def test_independent_of_initial_vector(self, solved):
        _, kernel, pi = solved
        n = ko.state_count(self.BOUND)
        corner = np.zeros(n)
        corner[-1] = 1.0
        alt = ko.stationary(kernel, initial=corner)
        for age in range(2):
            assert np.max(np.abs(alt[age] - pi[age])) < 1e-9

    def test_matches_dense_linear_solve(self, micro_scenario, solved):
        pol, _, pi = solved
        mats = bf.cycle_matrices(micro_scenario, pol, self.BOUND)
        per_age = bf.stationary_per_age(mats)
        states = bf.states_list(self.BOUND)
        for age in range(2):
            joint = ko.joint_from_vector(pi[age], self.BOUND)
            brute = np.zeros_like(joint)
            for i, (xc, xs) in enumerate(states):
                brute[xc, xs] = per_age[age][i]
            assert np.max(np.abs(joint - brute)) < 1e-9

    def test_structural_evaluator_matches_kernel(self, micro_scenario, solved):
        pol, _, pi = solved
        ours = sf.PolicyEvaluator(micro_scenario, self.BOUND).joints(pol.fees)
        assert len(ours) == 2
        for age in range(2):
            oracle = ko.joint_from_vector(pi[age], self.BOUND)
            assert np.max(np.abs(ours[age] - oracle)) < 1e-10

    def test_due_now_marginal_resets_at_age_zero(self, solved):
        _, _, pi = solved
        joint = ko.joint_from_vector(pi[0], self.BOUND)
        assert np.max(np.abs(joint.sum(axis=1) - joint.sum(axis=0))) < 1e-12

    def test_workload_marginal_is_policy_invariant(self, micro_scenario):
        policies = [
            sf.FeeStructure(2, (1.5, 2.5)),
            sf.FeeStructure(2, (0.5, 4.0)),
            sf.FeeStructure(2, (4.0, 4.0)),
        ]
        marginals = [
            sf.PolicyEvaluator(micro_scenario, self.BOUND).joints(pol.fees)[1].sum(axis=0)
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
        for _ in range(2):  # a failed search is not memoized
            with pytest.raises(sf.CapacityInfeasibleError):
                sf.find_bound(scenario, hard_cap=2)

    @pytest.mark.parametrize("cap", [0, -3, 2.5, 40.0, "40", None])
    def test_invalid_hard_cap_rejected(self, choice, cap):
        scenario = sf.Scenario(2, 1e-8, sf.Pmf.point_mass(2), choice, 8.0)
        with pytest.raises(sf.ParameterError, match="hard_cap"):
            sf.find_bound(scenario, hard_cap=cap)

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 26, 27, 28, 40])
    def test_result_never_exceeds_hard_cap(self, choice, make_scenario, cap):
        idle = sf.Scenario(2, 1e-8, sf.Pmf.point_mass(2), choice, 8.0)
        assert sf.find_bound(idle, hard_cap=cap) == 1
        scenario = make_scenario(0.85, 8.0)  # bound 27
        if cap < 27:
            with pytest.raises(sf.CapacityInfeasibleError):
                sf.find_bound(scenario, hard_cap=cap)
        else:
            assert sf.find_bound(scenario, hard_cap=cap) == 27

    @settings(max_examples=40, deadline=None)
    @example(weights=[0, 0, 0, 0, 1], load=0.95, bound=0)
    @example(weights=[1, 0, 0, 3], load=0.0, bound=2)
    @example(weights=[3, 0, 0, 0, 0, 0, 1], load=0.95, bound=8)
    @given(
        weights=st.lists(st.integers(0, 3), min_size=1, max_size=7).filter(
            lambda w: sum(k * x for k, x in enumerate(w)) > 0
        ),
        load=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
        bound=st.integers(0, 8),
    )
    def test_rejection_non_increasing_in_bound(self, choice, weights, load, bound):
        """The coupling argument of find_bound, on the brute-force chain."""
        capacity = sf.Pmf(np.array(weights, dtype=float) / sum(weights))
        scenario = sf.Scenario(2, load * capacity.mean(), capacity, choice, 8.0)
        pair = (bound, bound + 1)
        brute = [bf.workload_rejection(scenario, b) for b in pair]
        exact = [sf.PolicyEvaluator(scenario, b).rejection_probability() for b in pair]
        assert brute[1] <= brute[0] + 1e-15, brute
        assert exact[1] <= exact[0] + 1e-15, exact
        for got, want in zip(exact, brute):
            assert abs(got - want) <= 1e-12, (got, want)

    def test_brute_workload_rejection_is_the_full_chain_rejection(
        self, micro_scenario
    ):
        pol = sf.FeeStructure(2, (1.3, 4.0))
        for bound in (1, 2, 3):
            full = bf.brute_report(micro_scenario, pol, bound)["rejection_probability"]
            assert bf.workload_rejection(micro_scenario, bound) == pytest.approx(
                full, abs=1e-12
            )


class TestWorkloadMemo:
    """The workload law and the bound search are memoized by value."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """Bounds of the GTH solves made while the test runs, from cold caches."""
        chain._workload_law.cache_clear()
        chain._search_bound.cache_clear()
        sizes = []
        solve = chain._gth_stationary

        def counting(P):
            sizes.append(P.shape[0] - 1)
            return solve(P)

        monkeypatch.setattr(chain, "_gth_stationary", counting)
        yield sizes
        chain._workload_law.cache_clear()
        chain._search_bound.cache_clear()

    @staticmethod
    def probes(scenario):
        """The bounds find_bound's bracket and bisection visit, and the result."""
        thr = scenario.rejection_threshold

        def passes(b):
            return sf.PolicyEvaluator(scenario, b).rejection_probability() <= thr

        seen, lo, hi = [1], 0, 1
        while not passes(hi):
            lo, hi = hi, hi * 2
            seen.append(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            seen.append(mid)
            lo, hi = (lo, mid) if passes(mid) else (mid, hi)
        return seen, hi

    def test_searched_query_solves_once_per_probe(self, choice, solves):
        capacity = sf.Pmf(np.array([0.05, 0.15, 0.3, 0.3, 0.2]))
        scenario = sf.Scenario(4, 1.9, capacity, choice, 8.0)
        report = sf.evaluate_policy(scenario, sf.build_policy("CSP", 2.0, 4, 4.0))
        made = list(solves)
        probes, bound = self.probes(scenario)
        assert report.bound == bound > 1
        # one solve per probe, in probe order, and none at the found bound after
        assert made == probes

    def test_equal_scenario_reuses_law_and_bound(self, make_scenario, solves):
        sf.evaluate_policy(make_scenario(0.9, 8.0), sf.build_policy("CSP", 2.0, 8, 4.0))
        assert solves
        tsp = sf.build_policy("TSP", (1.0, 3.0, 2, 6), 8, 4.0)
        queries = [
            (make_scenario(0.9, 8.0), tsp),  # equal scenario, another policy
            (make_scenario(0.9, 2.5), tsp),  # another penalty, same (lam, capacity)
        ]
        for scenario, policy in queries:
            solves.clear()
            hits, misses, *_ = chain._search_bound.cache_info()
            warm = sf.evaluate_policy(scenario, policy)
            assert solves == []
            assert chain._search_bound.cache_info()[:2] == (hits + 1, misses)
            chain._workload_law.cache_clear()
            chain._search_bound.cache_clear()
            cold = sf.evaluate_policy(scenario, policy)
            assert solves
            assert warm == cold

    def test_warm_law_holds_the_rejection_measures(
        self, make_scenario, solves, monkeypatch
    ):
        """A second policy on a warm law makes no overshoot product on its shift;
        the steps' own products, on their express pmfs, still run."""
        scenario = make_scenario(0.9, 8.0)
        bound = sf.evaluate_policy(scenario, sf.build_policy("CSP", 2.0, 8, 4.0)).bound
        shift = chain._workload_law(scenario.lam, scenario.capacity, bound)[0]
        on_shift = []
        overshoot = chain._overshoot

        def counting(p, origin, b):
            on_shift.append(p is shift)
            return overshoot(p, origin, b)

        monkeypatch.setattr(chain, "_overshoot", counting)
        tsp = sf.build_policy("TSP", (1.0, 3.0, 2, 6), 8, 4.0)
        report = sf.evaluate_policy(scenario, tsp)
        ev = sf.PolicyEvaluator(scenario, bound)
        assert report.rejection_probability == ev.rejection_probability()
        assert report.expected_rejected_per_cycle == ev.expected_rejected_per_cycle()
        assert on_shift and not any(on_shift)

    def test_workload_is_read_only_and_shared(self, micro_scenario):
        ev = sf.PolicyEvaluator(micro_scenario, 8)
        with pytest.raises(ValueError):
            ev.workload[0] = 1.0
        assert sf.PolicyEvaluator(micro_scenario, 8).workload is ev.workload


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

    @settings(max_examples=60, deadline=None)
    @example(weights=[0, 0, 0, 0, 1], load=0.7, bound=0, fees=[0.0, 4.0])
    @example(weights=[1, 0, 0, 3], load=0.0, bound=3, fees=[math.inf, 1.3, 4.5])
    @example(weights=[3, 0, 1], load=0.95, bound=12, fees=[0.2, 0.2, 3.8, math.inf, 2.0])
    @given(
        weights=st.lists(st.integers(0, 3), min_size=1, max_size=7).filter(
            lambda w: sum(k * x for k, x in enumerate(w)) > 0
        ),
        load=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
        bound=st.integers(0, 12),
        fees=st.lists(
            st.one_of(
                st.sampled_from([0.0, 4.0, 4.5, math.inf]),
                st.floats(0.0, 4.0, allow_nan=False),
            ),
            min_size=2, max_size=6,
        ),
    )
    def test_periodic_fixed_point(self, choice, weights, load, bound, fees):
        """The last age's joint pushed through the last fee's step (the
        deadline reset keeps x_s) has the age-0 x_s law, the workload."""
        capacity = sf.Pmf(np.array(weights, dtype=float) / sum(weights))
        scenario = sf.Scenario(len(fees), load * capacity.mean(), capacity, choice, 8.0)
        ev = sf.PolicyEvaluator(scenario, bound)
        closed = ev._step(fees[-1]).push(ev.joints(tuple(fees))[-1])
        dev = np.max(np.abs(closed.sum(axis=0) - ev.workload))
        assert dev <= 1e-12, dev

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

    def test_negative_arrival_rate_rejected(self, micro_scenario):
        with pytest.raises(sf.ParameterError, match="^arrival rate must be nonnegative$"):
            sf.Scenario(2, -0.5, micro_scenario.capacity, micro_scenario.choice, 8.0)

    @pytest.mark.parametrize("lam, load", [(1.9, "1"), (3.8, "2")])
    def test_capacity_at_or_over_full_load_rejected(self, micro_scenario, lam, load):
        """A pmf given directly must carry more than lam on average; the
        micro capacity's mean is 1.9."""
        message = rf"^utilization lam/E\[B\] = {load} must be < 1$"
        with pytest.raises(sf.ParameterError, match=message):
            sf.Scenario(2, lam, micro_scenario.capacity, micro_scenario.choice, 8.0)

    def test_utilization_missed_by_discretization(self, choice):
        """Asking for 0.999 must not end in 'utilization 1.002 must be < 1'."""
        with pytest.raises(sf.ParameterError) as info:
            sf.Scenario.from_utilization(8, 5.0, 0.999, 1.0, 20, choice, 8.0)
        msg = str(info.value)
        assert "discretized capacity has mean 4.9878" in msg
        assert "target lam/utilization = 5.0050" in msg
        assert "utilization 0.999" in msg

    @pytest.mark.parametrize("source", ["support_max", "pmf"])
    def test_capacity_support_above_the_cap_is_refused_at_once(self, choice, source):
        """Refused before any discretization: a 10**6 support would take
        seconds of incomplete-beta calls, and its kernels gigabytes."""
        big = chain.BOUND_CAP + 1
        name, low = "support_max", 1
        if source == "pmf":
            capacity = sf.Pmf(np.eye(big + 1)[big])
            name, low = "capacity.support_max", 0
        start = time.perf_counter()
        message = rf"^{name} must lie in {low}\.\.{chain.BOUND_CAP} \(the cap of find_bound\)"
        with pytest.raises(sf.ParameterError, match=message):
            if source == "pmf":
                sf.Scenario(8, 5.0, capacity, choice, 8.0)
            else:
                sf.Scenario.from_utilization(8, 5.0, 0.9, 0.5, 10**6, choice, 8.0)
        assert time.perf_counter() - start < 0.1

    def test_equality_and_hash_by_value(self, make_scenario, micro_scenario):
        a, b = make_scenario(0.9, 8.0), make_scenario(0.9, 8.0)
        assert a is not b and a.capacity is not b.capacity
        assert a == b and hash(a) == hash(b)
        assert a != make_scenario(0.9, 4.0)
        assert a != make_scenario(0.95, 8.0)
        assert a != micro_scenario
        assert len({a, b, micro_scenario}) == 2


class TestPolicyEvaluator:
    def test_no_bound_is_the_found_bound(self, make_scenario):
        scenario = make_scenario(0.9, 8.0)
        assert sf.PolicyEvaluator(scenario, None).bound == sf.find_bound(scenario)

    @pytest.mark.parametrize("bound", [-1, chain.BOUND_CAP + 1, 100000])
    def test_bound_outside_the_cap_is_rejected(self, micro_scenario, bound):
        policy = sf.FeeStructure(2, (1.5, 2.5))
        with pytest.raises(sf.ParameterError, match=f"0..{chain.BOUND_CAP}"):
            sf.evaluate_policy(micro_scenario, policy, bound=bound)

    def test_joints_beyond_the_memory_limit_are_refused(self, micro_scenario):
        """T joints of (bound + 1)^2 floats may take at most 1 GiB: at bound 30
        that is 139,664 ages (T = 100000 holds 769 MB and is accepted)."""
        for T in (100_000, 139_664):
            sf.PolicyEvaluator(dataclasses.replace(micro_scenario, period_length=T), 30)
        long_cycle = dataclasses.replace(micro_scenario, period_length=139_665)
        message = "the 139665 ages of scenario.period_length need 1.000 GiB of joints"
        with pytest.raises(sf.ParameterError, match=message):
            sf.PolicyEvaluator(long_cycle, 30)

    @pytest.mark.parametrize("fees", [(1.0,), (1.0, 2.0, 3.0)])
    def test_joints_of_a_vector_of_another_length_are_refused(self, micro_scenario, fees):
        ev = sf.PolicyEvaluator(micro_scenario, 8)
        message = "^fee vector length must equal period_length$"
        with pytest.raises(sf.ParameterError, match=message):
            ev.joints(fees)

    def test_batch_beyond_the_memory_limit_is_refused(self, micro_scenario, monkeypatch):
        """A batch holds its run joints and at most T - 1 pulled matrices:
        here runs (1.0 x 3, 2.0 x 2) and a stack of 3, 8 joints of 9 x 9."""
        scenario = dataclasses.replace(micro_scenario, period_length=4)
        vectors = [(1.0, 1.0, 1.0, 2.0), (1.0, 2.0, 2.0, 2.0), (2.0, 2.0, 3.0, 3.0)]
        monkeypatch.setattr(chain, "JOINT_BYTES_MAX", 8 * 8 * 81)
        sf.PolicyEvaluator(scenario, 8).profits_batch(vectors)
        monkeypatch.setattr(chain, "JOINT_BYTES_MAX", 8 * 8 * 81 - 1)
        ev = sf.PolicyEvaluator(scenario, 8)
        with pytest.raises(sf.ParameterError) as info:
            ev.profits_batch(vectors)
        assert str(info.value) == (
            "the 8 run joints and pulled matrices of a batch need 0.000004828 GiB of "
            "joints at bound 8, over the 4.82704e-06 GiB limit of 7 joints; use a "
            "smaller truncation bound or fee grid"
        )
        assert not ev._steps  # refused before the first push

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


class TestProfitsBatch:
    """The split forward/adjoint batch against the prefix-stack oracle."""

    @staticmethod
    def assert_matches_oracle(scenario, bound, fee_vectors):
        profits, backorders = sf.PolicyEvaluator(scenario, bound).profits_batch(
            fee_vectors
        )
        ref_p, ref_m = ko.prefix_profits_batch(
            sf.PolicyEvaluator(scenario, bound), fee_vectors
        )
        assert np.max(np.abs(profits - ref_p)) <= 1e-12
        assert np.max(np.abs(backorders - ref_m)) <= 1e-12

    def test_paper_families_on_default_lattice(self, make_scenario):
        scenario = make_scenario(0.95, 8.0)
        grid = sf.SearchGrid.default(8)
        vectors = [
            fees
            for family in FAMILIES
            for fees in _candidates(scenario, family, grid)[1]
        ]
        vectors += [
            sf.build_policy("CSP", fee, 8, scenario.choice.u_max).fees
            for fee in grid.fee_values
        ]
        self.assert_matches_oracle(scenario, 51, vectors)

    def test_every_vector_of_a_small_grid(self, choice):
        capacity = sf.Pmf(np.array([0.1, 0.2, 0.4, 0.3]))
        scenario = sf.Scenario(3, 1.5, capacity, choice, 8.0)
        fees = (0.0, 1.3, 2.5, choice.u_max, math.inf)
        vectors = list(itertools.product(fees, repeat=3))
        for bound in (0, 1, 8):
            self.assert_matches_oracle(scenario, bound, vectors)

    def test_micro_vectors(self, micro_scenario):
        vectors = [(1.5, 2.5), (2.5, 1.5), (0.5, 0.5), (4.0, 2.0), (3.5, 3.5)]
        self.assert_matches_oracle(micro_scenario, 8, vectors)

    def test_empty_batch_and_bad_length(self, micro_scenario):
        ev = sf.PolicyEvaluator(micro_scenario, 8)
        profits, backorders = ev.profits_batch([])
        assert profits.shape == backorders.shape == (0,)
        with pytest.raises(sf.ParameterError, match="period_length"):
            ev.profits_batch([(1.0, 2.0), (1.0, 2.0, 3.0)])


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
        rows = range(-4, bound + 1)
        K = _shift_matrix(p, origin, rows, bound)
        np.testing.assert_allclose(
            K, self.loop_kernel(p, origin, rows, bound), rtol=0, atol=1e-15
        )
        assert np.max(np.abs(K.sum(axis=1) - 1.0)) <= 1e-12

    @staticmethod
    def bincount_kernel(p, origin, rows, bound):
        """The kernel as one accumulation per entry, in order of p."""
        rows, width = np.array(rows), bound + 1
        dest = np.clip(rows[:, None] + (np.arange(p.size) - origin), 0, bound)
        flat = np.arange(rows.size)[:, None] * width + dest
        K = np.bincount(flat.ravel(), np.tile(p, rows.size), minlength=rows.size * width)
        return K.reshape(rows.size, width)

    @settings(max_examples=150, deadline=None)
    @example(weights=[1], origin_at=0.0, bound=0, below=0)
    @example(weights=[0, 0, 3, 0, 1, 0, 0], origin_at=0.5, bound=1, below=12)
    @example(weights=[2, 1, 0, 1], origin_at=1.0, bound=90, below=0)
    @given(
        weights=st.lists(st.integers(0, 4), min_size=1, max_size=40).filter(any),
        origin_at=st.floats(0.0, 1.0),
        bound=st.integers(0, 90),
        below=st.integers(0, 45),
    )
    def test_gather_matches_loop(self, weights, origin_at, bound, below):
        """Pmfs with zero masses and supports past the reach, every origin,
        rows from below -len(p) up to the bound: the loop form to 1e-15,
        and the per-entry accumulation to the bit."""
        p = np.array(weights, dtype=float) / sum(weights)
        origin = round(origin_at * (p.size - 1))
        rows = range(min(-below, bound), bound + 1)
        K = _shift_matrix(p, origin, rows, bound)
        ref = self.loop_kernel(p, origin, rows, bound)
        np.testing.assert_allclose(K, ref, rtol=0, atol=1e-15)
        assert np.array_equal(K, self.bincount_kernel(p, origin, rows, bound))
        assert np.max(np.abs(K.sum(axis=1) - 1.0)) <= 1e-12

    def test_index_cache_does_not_grow_with_fees(self, make_scenario):
        """Eight fees at one (bound, nb) share the cached kernel indices, so
        at most three are kept whatever the fee count."""
        scenario = make_scenario(0.90, 8.0)
        chain._kernel_index.cache_clear()
        chain._workload_law.cache_clear()
        ev = sf.PolicyEvaluator(scenario, 35)
        for fee in (0.2, 0.9, 1.3, 2.0, 2.6, 3.1, 3.7, scenario.choice.u_max):
            step = ev._step(fee)
            step.pull(step.push(ev._root))
        assert len(ev._steps) == 8
        assert chain._kernel_index.cache_info().currsize <= 3


class TestStepsByRate:
    def test_fees_of_one_rate_share_a_step(self, make_scenario):
        scenario = make_scenario(0.90, 8.0)
        ev = sf.PolicyEvaluator(scenario, 20)
        u_max = scenario.choice.u_max
        assert ev._step(u_max) is ev._step(math.inf)
        assert ev._step(u_max + 1.0) is ev._step(math.inf)
        assert ev._step(0.0) is not ev._step(math.inf)
        assert ev._step(u_max).rate == 0.0
        assert len(ev._steps) == 2 and len(ev._fee_steps) == 4

    def test_reports_equal_across_fees_of_one_rate(self, make_scenario):
        scenario = make_scenario(0.95, 8.0)
        u_max = scenario.choice.u_max
        a = sf.evaluate_policy(scenario, sf.FeeStructure(8, (1.0,) * 7 + (u_max,)))
        b = sf.evaluate_policy(scenario, sf.FeeStructure(8, (1.0,) * 7 + (math.inf,)))
        assert a == b


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
                e = step.express
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

    def test_overshoot_halves_match_the_full_matrix(self, choice):
        """The law's rejected and the step's overflow and raw backorders equal,
        bit for bit, the products of the two (bound + 1)-row halves of the
        full (2 bound + 1)-row (V - k)^+ matrix, k = bound..-bound."""

        def halves(p, origin, bound):
            k = np.arange(bound, -bound - 1, -1)
            excess = np.maximum(np.arange(p.size) - origin - k[:, None], 0.0)
            return excess[: bound + 1] @ p, excess[bound:] @ p

        for rho in (0.85, 0.90, 0.95):
            for scv in (0.25, 0.5, 1.0):
                sc = sf.Scenario.from_utilization(8, 5.0, rho, scv, 20, choice, 8.0)
                nb = sc.capacity.support_max
                for bound in (0, 1, 3, 8, 20, 51):
                    law = chain._workload_law.__wrapped__(sc.lam, sc.capacity, bound)
                    shift, workload, _, rejected = law
                    assert rejected == float(workload @ halves(shift, nb, bound)[0])
                    ev = sf.PolicyEvaluator(sc, bound)
                    for fee in (0.0, 1.3, 2.5):
                        step = ev._step(fee)
                        overflow, raw = halves(step.u, nb, bound)
                        assert np.array_equal(step.overflow, overflow)
                        assert np.array_equal(step.backorders_raw[:, 0], raw)

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


class TestExpressLoss:
    """The loss read from the step's overflow against the broadcast oracle."""

    @settings(max_examples=60, deadline=None)
    @example(weights=[0, 0, 0, 0, 1], load=0.7, bound=0, fee=0.0)
    @example(weights=[0, 2, 0, 1], load=0.95, bound=2, fee=4.5)
    @example(weights=[1, 0, 0, 3], load=0.0, bound=3, fee=math.inf)
    @example(weights=[1, 2, 3, 0, 1], load=0.95, bound=6, fee=4.0)
    @example(weights=[3, 0, 1], load=0.95, bound=6, fee=1.3)
    @given(
        weights=st.lists(st.integers(0, 3), min_size=1, max_size=7).filter(
            lambda w: sum(k * x for k, x in enumerate(w)) > 0
        ),
        load=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
        bound=st.integers(0, 6),
        fee=st.one_of(
            st.sampled_from([0.0, 4.0, 4.5, math.inf]),
            st.floats(0.0, 4.0, allow_nan=False),
        ),
    )
    def test_matches_broadcast_oracle(self, choice, weights, load, bound, fee):
        """Same strategy space as TestPush.test_matches_brute_age_matrix:
        fees at u_min (0), inside, at u_max (4), above it and inf."""
        capacity = sf.Pmf(np.array(weights, dtype=float) / sum(weights))
        scenario = sf.Scenario(2, load * capacity.mean(), capacity, choice, 8.0)
        ev = sf.PolicyEvaluator(scenario, bound)
        loss = ev.express_loss(fee)
        ref = ko.broadcast_express_loss(sf.PolicyEvaluator(scenario, bound), fee)
        assert abs(loss - ref) <= 1e-14, (loss, ref)
        assert loss >= 0.0


class TestPush:
    """The two-product push against its loop form and the dense brute force."""

    @staticmethod
    def lattice_fees(choice):
        grid = [round(0.2 * k, 1) for k in range(1, 20)]
        return [0.0, *grid, choice.u_max, math.inf]

    @pytest.mark.parametrize("rho, bound", [(0.85, 28), (0.90, 50), (0.95, 85)])
    def test_matches_loop_push(self, make_scenario, rho, bound):
        scenario = make_scenario(rho, 8.0)
        ev = sf.PolicyEvaluator(scenario, bound)
        for fee in self.lattice_fees(scenario.choice):
            step = ev._step(fee)
            J = ev._root
            for depth in range(7):
                ref = ko.loop_push(step, J)
                J = step.push(J)
                dev = np.max(np.abs(J - ref))
                assert dev <= 1e-14, (fee, depth, dev)
                assert abs(J.sum() - 1.0) <= 1e-12, (fee, depth)

    @settings(max_examples=60, deadline=None)
    @example(weights=[0, 0, 0, 0, 1], load=0.7, bound=0, fee=0.0)
    @example(weights=[0, 2, 0, 1], load=0.95, bound=2, fee=4.5)
    @example(weights=[1, 0, 0, 3], load=0.0, bound=3, fee=math.inf)
    @example(weights=[1, 2, 3, 0, 1], load=0.95, bound=6, fee=4.0)
    @given(
        weights=st.lists(st.integers(0, 3), min_size=1, max_size=7).filter(
            lambda w: sum(k * x for k, x in enumerate(w)) > 0
        ),
        load=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
        bound=st.integers(0, 6),
        fee=st.one_of(
            st.sampled_from([0.0, 4.0, 4.5, math.inf]),
            st.floats(0.0, 4.0, allow_nan=False),
        ),
    )
    def test_matches_brute_age_matrix(self, choice, weights, load, bound, fee):
        """Every state's push is its row of the dense one-period matrix.

        Capacity pmfs may have gaps, a point mass, zero mass at 0 and a
        support above the bound; load 0 gives lambda = 0.
        """
        capacity = sf.Pmf(np.array(weights, dtype=float) / sum(weights))
        scenario = sf.Scenario(2, load * capacity.mean(), capacity, choice, 8.0)
        mat = bf.age_matrix(scenario, fee, bound, deadline=False)
        step = sf.PolicyEvaluator(scenario, bound)._step(fee)
        states = bf.states_list(bound)
        for i, (xc, xs) in enumerate(states):
            J = np.zeros((bound + 1, bound + 1))
            J[xc, xs] = 1.0
            out = step.push(J)
            ref = np.zeros_like(J)
            for j, (yc, ys) in enumerate(states):
                ref[yc, ys] = mat[i, j]
            assert np.max(np.abs(out - ref)) < 1e-12, (xc, xs)
            assert abs(out.sum() - 1.0) <= 1e-12, (xc, xs)


class TestPull:
    """The adjoint push: <push(J), W> = <J, pull(W)>, and the brute transpose."""

    @settings(max_examples=60, deadline=None)
    @example(weights=[0, 0, 0, 0, 1], load=0.7, bound=0, fee=0.0, seed=0)
    @example(weights=[0, 2, 0, 1], load=0.95, bound=2, fee=4.5, seed=1)
    @example(weights=[1, 0, 0, 3], load=0.0, bound=3, fee=math.inf, seed=2)
    @example(weights=[1, 2, 3, 0, 1], load=0.95, bound=6, fee=4.0, seed=3)
    @given(
        weights=st.lists(st.integers(0, 3), min_size=1, max_size=7).filter(
            lambda w: sum(k * x for k, x in enumerate(w)) > 0
        ),
        load=st.sampled_from([0.0, 0.3, 0.7, 0.95]),
        bound=st.integers(0, 6),
        fee=st.one_of(
            st.sampled_from([0.0, 4.0, 4.5, math.inf]),
            st.floats(0.0, 4.0, allow_nan=False),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adjoint_of_push(self, choice, weights, load, bound, fee, seed):
        """Same strategy space as TestPush.test_matches_brute_age_matrix."""
        capacity = sf.Pmf(np.array(weights, dtype=float) / sum(weights))
        scenario = sf.Scenario(2, load * capacity.mean(), capacity, choice, 8.0)
        step = sf.PolicyEvaluator(scenario, bound)._step(fee)
        rng = np.random.default_rng(seed)
        N = bound + 1
        J = np.triu(rng.uniform(0.0, 1.0, (N, N)))
        W = rng.uniform(-1.0, 1.0, (N, N))
        lhs = np.vdot(step.push(J), W)
        rhs = np.vdot(J, step.pull(W))
        assert abs(lhs - rhs) <= 1e-12, (lhs, rhs)

        # pull(W) at state i is sum_j P[i, j] W[j]: the transposed brute matrix
        mat = bf.age_matrix(scenario, fee, bound, deadline=False)
        states = bf.states_list(bound)
        w = np.array([W[yc, ys] for yc, ys in states])
        ref = np.zeros((N, N))
        for i, (xc, xs) in enumerate(states):
            ref[xc, xs] = mat[i] @ w
        assert np.max(np.abs(step.pull(W) - ref)) <= 1e-12
