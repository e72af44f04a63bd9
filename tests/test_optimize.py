"""Family searches, exhaustive fee-vector search, and dominance checks."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import shipfees as sf
from shipfees.cli import Experiment, load_preset
from shipfees import optimize
from shipfees.optimize import FAMILIES, _candidates, _is_weakly_monotone, _tie_break
from shipfees.policies import two_level_fees

import kernel_oracle as ko


GRID = sf.SearchGrid((0.5, 1.0, 1.5, 2.0, 2.5, 3.0), (1, 1))
LATTICE = sf.SearchGrid.default(8).fee_values
GRID_WIDE = sf.SearchGrid((0.5, 1.0, 1.5), (2, 7))


def tsp_cf_star_policies(grid, period_length, u_max):
    out = {}
    lo, hi = grid.cutoff_range
    for fee in grid.fee_values:
        for tc in range(lo, hi + 1):
            out[(fee, tc)] = sf.canonicalize(
                tc, (fee,) * (tc + 1), period_length, u_max
            )
    return out


def tsp_policies(grid, period_length, u_max):
    out = {}
    lo, hi = grid.cutoff_range
    for fe, fle in itertools.combinations(grid.fee_values, 2):
        for tc in range(lo, hi + 1):
            for tf in range(tc):
                params = (fe, fle, tf, tc)
                out[params] = sf.build_policy("TSP", params, period_length, u_max)
    return out


class TestRevenueMaxFee:
    def test_benchmark_choice(self, choice):
        assert sf.revenue_max_fee(choice) == 2.0

    def test_degenerate_premium(self):
        assert sf.revenue_max_fee(sf.ChoiceModel(4.0, 1.0, 1.0)) == 1.0

    def test_general_uniform_vertex(self):
        assert sf.revenue_max_fee(sf.ChoiceModel(4.0, 0.0, 2.0)) == 1.0


class TestOptimizeFamily:
    def test_beats_every_candidate(self, micro_scenario):
        opt = sf.optimize_family(micro_scenario, "TSP", GRID, bound=8)
        candidates = tsp_policies(GRID, 2, 4.0)
        assert opt.evaluations == len(candidates)
        for pol in candidates.values():
            report = sf.evaluate_policy(micro_scenario, pol, bound=8)
            assert opt.report.variable_profit >= report.variable_profit - 1e-12

    def test_report_matches_reevaluation(self, micro_scenario):
        opt = sf.optimize_family(micro_scenario, "TSP_CF_star", GRID, bound=8)
        again = sf.evaluate_policy(micro_scenario, opt.best_policy, bound=8)
        assert opt.report.variable_profit == again.variable_profit
        assert opt.report.expected_backorders == again.expected_backorders

    def test_zero_penalty_prefers_revenue_max_fee(self, choice):
        capacity = sf.Pmf(np.array([0.1, 0.2, 0.4, 0.3]))
        scenario = sf.Scenario(2, 1.5, capacity, choice, 0.0)
        opt = sf.optimize_family(scenario, "TSP_CF_star", GRID, bound=8)
        fee, _, _, cutoff = opt.point
        assert fee == sf.revenue_max_fee(choice)
        assert cutoff == scenario.period_length - 1

    def test_exact_tie_goes_to_cheaper_fees(self, choice):
        # c=0 and a symmetric revenue curve tie (1,2) with (2,3) exactly
        capacity = sf.Pmf(np.array([0.1, 0.2, 0.4, 0.3]))
        scenario = sf.Scenario(2, 1.5, capacity, choice, 0.0)
        grid = sf.SearchGrid((1.0, 2.0, 3.0), (1, 1))
        opt = sf.optimize_family(scenario, "TSP", grid, bound=8)
        assert opt.tie_broken is True
        assert opt.runner_up_gap == 0.0
        f_e, f_le, _, _ = opt.point
        assert (f_e, f_le) == (1.0, 2.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_optimum_as_prefix_oracle(self, monkeypatch, family):
        """rho085_c8 on the default lattice, against the prefix-stack batch."""
        exp = Experiment("rho085_c8", load_preset("rho085_c8"), 0.023)
        args = (exp.scenario, family, exp.grid, sf.find_bound(exp.scenario))
        opt = sf.optimize_family(*args)
        monkeypatch.setattr(
            sf.PolicyEvaluator, "profits_batch", ko.prefix_profits_batch
        )
        ref = sf.optimize_family(*args)
        assert opt.point == ref.point
        assert opt.tie_broken == ref.tie_broken
        assert opt.evaluations == ref.evaluations
        assert abs(opt.runner_up_gap - ref.runner_up_gap) <= 1e-12

    def test_unknown_family_rejected(self, micro_scenario):
        with pytest.raises(sf.ParameterError):
            sf.optimize_family(micro_scenario, "CSP_star", GRID, bound=8)

    @pytest.mark.parametrize("fees, cutoffs", [((2.0,), (1, 1)), ((1.0, 2.0), (0, 0))])
    def test_grid_without_a_tsp_candidate_is_empty(self, micro_scenario, fees, cutoffs):
        """TSP needs two fees f_E < f_LE and a switch age below the cutoff."""
        grid = sf.SearchGrid(fees, cutoffs)
        with pytest.raises(sf.ParameterError, match="^parameter grid is empty$"):
            sf.optimize_family(micro_scenario, "TSP", grid, bound=8)

    def test_grid_must_fit_choice_range(self, micro_scenario):
        with pytest.raises(sf.ParameterError):
            sf.optimize_family(
                micro_scenario, "TSP", sf.SearchGrid((2.0, 4.5), (1, 1)), bound=8
            )

    def test_cutoff_must_fit_period(self, micro_scenario):
        with pytest.raises(sf.ParameterError):
            sf.optimize_family(
                micro_scenario, "TSP", sf.SearchGrid((1.0, 2.0), (1, 3)), bound=8
            )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "fees, cutoffs",
        [((0.2, 0.4), (1, 1)), ((0.5, 1.0, 2.0), (0, 7)), (LATTICE, (1, 7)),
         (LATTICE[:7], (3, 5))],
    )
    def test_budget_counts_the_candidates(
        self, monkeypatch, make_scenario, family, fees, cutoffs
    ):
        """The count made before enumerating is the number enumerated: a
        budget of that count passes and one below it refuses the grid."""
        scenario = make_scenario(0.9, 8.0)
        grid = sf.SearchGrid(fees, cutoffs)
        vectors = _candidates(scenario, family, grid)[1]
        monkeypatch.setattr(optimize, "ENUMERATION_BUDGET", len(vectors))
        assert _candidates(scenario, family, grid)[1] == vectors
        monkeypatch.setattr(optimize, "ENUMERATION_BUDGET", len(vectors) - 1)
        with pytest.raises(sf.ParameterError, match=f"{len(vectors)} {family} cand"):
            _candidates(scenario, family, grid)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_budget_shrinks_with_the_cycle_length(self, monkeypatch, choice, family):
        """Past T = 8 the budget counts fees: count * T against 8 * budget."""
        scenario = sf.Scenario.from_utilization(16, 5.0, 0.9, 0.5, 20, choice, 8.0)
        grid = sf.SearchGrid((0.5, 1.0, 2.0), (1, 15))
        count = len(_candidates(scenario, family, grid)[1])
        monkeypatch.setattr(optimize, "ENUMERATION_BUDGET", 2 * count)
        assert len(_candidates(scenario, family, grid)[1]) == count
        monkeypatch.setattr(optimize, "ENUMERATION_BUDGET", 2 * count - 1)
        with pytest.raises(
            sf.ParameterError, match=f"{count} {family} candidates exceed the "
            f"enumeration budget {count - 1};"
        ):
            _candidates(scenario, family, grid)

    def test_fee_grid_beyond_the_budget(self, make_scenario):
        fees = tuple(np.linspace(0.001, 3.999, 3998))
        grid = sf.SearchGrid(fees, (1, 7))
        with pytest.raises(sf.ParameterError, match="223720084 TSP candidates"):
            sf.optimize_family(make_scenario(0.85, 8.0), "TSP", grid)


class TestTieBreak:
    """With every profit tied, the points alone decide: the latest tau_C,
    then the latest tau_F, then the cheapest f_E, then the cheapest f_LE."""

    @pytest.mark.parametrize(
        "points, winner",
        [
            # a later cutoff beats a later switch and cheaper fees
            ([(1.0, 2.0, 1, 2), (3.0, 3.5, 0, 3)], 1),
            # a later switch beats cheaper fees
            ([(1.0, 2.0, 0, 3), (3.0, 3.5, 1, 3)], 1),
            # a cheaper f_E beats a cheaper f_LE
            ([(2.0, 2.5, 1, 3), (1.0, 3.5, 1, 3)], 1),
            # then a cheaper f_LE
            ([(1.0, 3.0, 1, 3), (1.0, 2.0, 1, 3)], 1),
            # TSP_CF_star points (f, f, tau_C, tau_C)
            ([(1.0, 1.0, 2, 2), (3.0, 3.0, 3, 3), (2.0, 2.0, 3, 3)], 2),
        ],
    )
    def test_preference_order(self, points, winner):
        for order in (1, -1):
            ranked = points[::order]
            won, gap, tie_broken = _tie_break([7.0] * len(ranked), ranked)
            assert ranked[won] == points[winner]
            assert (gap, tie_broken) == (0.0, True)

    @pytest.mark.parametrize(
        "family, expected", [("TSP", (0.5, 1.0, 6, 7)), ("TSP_CF_star", (0.5, 0.5, 7, 7))]
    )
    def test_all_tied_candidates(self, make_scenario, family, expected):
        points = _candidates(make_scenario(0.9, 8.0), family, GRID_WIDE)[0]
        for ranked in (points, points[::-1]):
            won, gap, tie_broken = _tie_break([7.0] * len(ranked), ranked)
            assert ranked[won] == expected
            assert (gap, tie_broken) == (0.0, True)


class TestOptimizeFamilies:
    FEES = (1.6, 2.0, 2.4, 2.8, 3.2)
    SEARCHES = [
        ("TSP_CF_star", sf.SearchGrid((2.0,), (7, 7))),
        ("TSP_CF_star", sf.SearchGrid((2.0,), (1, 7))),
        ("TSP_CF_star", sf.SearchGrid(FEES, (1, 7))),
        ("TSP", sf.SearchGrid(FEES, (1, 7))),
        ("TSP", sf.SearchGrid(FEES, (6, 6))),
        ("TSP", sf.SearchGrid(FEES, (6, 6))),
    ]

    def test_agrees_with_each_search_alone(self, monkeypatch):
        """Overlapping searches on rho085_c8 share one evaluator and batch."""
        scenario = Experiment("rho085_c8", load_preset("rho085_c8"), 0.023).scenario
        alone = [sf.optimize_family(scenario, f, g, bound=30) for f, g in self.SEARCHES]
        made = []
        init = sf.PolicyEvaluator.__init__
        monkeypatch.setattr(
            sf.PolicyEvaluator, "__init__",
            lambda self, *a: made.append(a) or init(self, *a),
        )
        together = sf.optimize_families(scenario, self.SEARCHES, bound=30)
        assert len(made) == 1
        for one, opt in zip(alone, together):
            assert opt.point == one.point
            assert opt.evaluations == one.evaluations
            assert opt.runner_up_gap == one.runner_up_gap
            assert opt.tie_broken == one.tie_broken
            assert opt.best_policy == one.best_policy
            assert opt.report == one.report
            T, u_max = scenario.period_length, scenario.choice.u_max
            assert two_level_fees(*opt.point, T, u_max) == opt.best_policy.fees

    def test_each_optimum_keeps_its_scored_candidates(self):
        """points are _candidates' points in order, and profits are exactly
        those of the search run alone, whatever else shares the batch."""
        scenario = Experiment("rho085_c8", load_preset("rho085_c8"), 0.023).scenario
        searches = [("TSP", sf.SearchGrid(self.FEES, (6, 7))),
                    ("TSP_CF_star", sf.SearchGrid(self.FEES, (1, 7)))]
        for (family, grid), opt in zip(
            searches, sf.optimize_families(scenario, searches, bound=30)
        ):
            assert opt.points == tuple(_candidates(scenario, family, grid)[0])
            alone = sf.optimize_family(scenario, family, grid, bound=30)
            assert opt.profits == alone.profits
            assert opt.evaluations == len(opt.profits) == len(opt.points)
            best = opt.profits[opt.points.index(opt.point)]
            assert best >= max(opt.profits) - optimize.PROFIT_TIE_TOL

    def test_ties_break_per_search(self, choice):
        capacity = sf.Pmf(np.array([0.1, 0.2, 0.4, 0.3]))
        scenario = sf.Scenario(2, 1.5, capacity, choice, 0.0)
        grid = sf.SearchGrid((1.0, 2.0, 3.0), (1, 1))
        searches = [("TSP", grid), ("TSP_CF_star", grid), ("TSP", grid)]
        together = sf.optimize_families(scenario, searches, bound=8)
        for (family, g), opt in zip(searches, together):
            assert opt == sf.optimize_family(scenario, family, g, bound=8)
        assert together[0].tie_broken and together[0].runner_up_gap == 0.0


class TestSearchGrid:
    def test_default_lattice(self):
        grid = sf.SearchGrid.default(8)
        assert grid.fee_values[0] == pytest.approx(0.2)
        assert grid.fee_values[-1] == pytest.approx(3.8)
        assert len(grid.fee_values) == 19
        assert grid.cutoff_range == (1, 7)

    def test_validation(self):
        with pytest.raises(sf.ParameterError):
            sf.SearchGrid((), (1, 1))
        with pytest.raises(sf.ParameterError):
            sf.SearchGrid((1.0, 1.0), (1, 1))
        with pytest.raises(sf.ParameterError):
            sf.SearchGrid((2.0, 1.0), (1, 1))
        with pytest.raises(sf.ParameterError):
            sf.SearchGrid((1.0, math.inf), (1, 1))
        with pytest.raises(sf.ParameterError):
            sf.SearchGrid((1.0, 2.0), (2, 1))


    @pytest.mark.parametrize(
        "cutoffs",
        [(1.0, 2.0), (1.5, 3), (1, 2, 3), (1,), (True, 2), ("1", 2), 5, None, "12"],
    )
    def test_cutoff_range_is_two_integers(self, cutoffs):
        with pytest.raises(sf.ParameterError, match="cutoff_range must be two int"):
            sf.SearchGrid((1.0, 2.0), cutoffs)


class TestExhaustiveSearch:
    def test_matches_manual_enumeration(self, micro_scenario):
        grid = sf.SearchGrid((0.5, 1.25, 2.0, 2.75, 3.5), (1, 1))
        best = sf.exhaustive_fee_vector_search(micro_scenario, grid, bound=8)
        vectors = list(itertools.product(grid.fee_values, repeat=2))
        ev = sf.PolicyEvaluator(micro_scenario, 8)
        profits, _ = ev.profits_batch(vectors)
        pmax = profits.max()
        expect = {v for v, p in zip(vectors, profits) if p >= pmax - 1e-9}
        assert {pol.fees for pol in best} == expect

    def test_argmax_contains_weakly_monotone_vector(self, micro_scenario):
        grid = sf.SearchGrid((0.5, 1.25, 2.0, 2.75, 3.5), (1, 1))
        best = sf.exhaustive_fee_vector_search(micro_scenario, grid, bound=8)
        assert any(_is_weakly_monotone(pol) for pol in best)

    def test_zero_penalty_keeps_revenue_max_vector(self, choice):
        capacity = sf.Pmf(np.array([0.1, 0.2, 0.4, 0.3]))
        scenario = sf.Scenario(2, 1.5, capacity, choice, 0.0)
        grid = sf.SearchGrid((1.0, 2.0, 3.0), (1, 1))
        best = sf.exhaustive_fee_vector_search(scenario, grid, bound=8)
        assert (2.0, 2.0) in {pol.fees for pol in best}

    def test_enumeration_budget(self, make_scenario):
        fees = tuple(np.round(np.linspace(0.1, 3.9, 39), 10))
        with pytest.raises(sf.ParameterError, match="budget|grid"):
            sf.exhaustive_fee_vector_search(
                make_scenario(0.85, 8.0), sf.SearchGrid(fees, (1, 7)), bound=15
            )

    def test_enumeration_budget_shrinks_with_the_cycle_length(
        self, monkeypatch, micro_scenario
    ):
        """2**10 vectors of 10 fees pass a budget of 1280 (10240 fees) and are
        refused at 1279."""
        scenario = dataclasses.replace(micro_scenario, period_length=10)
        grid = sf.SearchGrid((1.0, 2.0), (1, 1))
        monkeypatch.setattr(optimize, "ENUMERATION_BUDGET", 1280)
        assert sf.exhaustive_fee_vector_search(scenario, grid, bound=8)
        monkeypatch.setattr(optimize, "ENUMERATION_BUDGET", 1279)
        with pytest.raises(
            sf.ParameterError, match="1024 fee vectors exceed the enumeration budget 1023;"
        ):
            sf.exhaustive_fee_vector_search(scenario, grid, bound=8)

    def test_overloaded_scenario_rejected(self, choice):
        with pytest.raises(sf.ParameterError):
            sf.Scenario(2, 1.5, sf.Pmf.point_mass(0), choice, 8.0)


class TestDominance:
    def test_reflexive_equality(self, micro_scenario):
        pol = sf.FeeStructure(2, (1.5, 2.5))
        em, em_prime = sf.dominance_experiment(micro_scenario, pol, pol, bound=8)
        assert em == em_prime

    def test_front_loading_beats_back_loading(self, micro_scenario):
        front = sf.FeeStructure(2, (0.8, 3.2))
        back = sf.FeeStructure(2, (3.2, 0.8))
        em, em_prime = sf.dominance_experiment(micro_scenario, front, back, bound=8)
        assert em <= em_prime + 1e-9

    def test_returns_the_batch_backorders(self, make_scenario):
        sc = make_scenario(0.9, 8.0)
        f = sf.FeeStructure(8, (0.5, 1.0, 1.0, 2.0, 2.5, 3.0, 3.5, 4.0))
        f_p = sf.FeeStructure(8, (1.0, 3.5, 0.5, 4.0, 2.0, 3.0, 1.0, 2.5))
        result = sf.dominance_experiment(sc, f, f_p, bound=30)
        em = sf.PolicyEvaluator(sc, 30).profits_batch([f.fees, f_p.fees])[1]
        assert type(result) is tuple and result == tuple(em)

    def test_violated_dominance_is_a_precondition_error(self, micro_scenario):
        front = sf.FeeStructure(2, (0.8, 3.2))
        back = sf.FeeStructure(2, (3.2, 0.8))
        with pytest.raises(sf.ParameterError):
            sf.dominance_experiment(micro_scenario, back, front, bound=8)

    def test_unequal_totals_are_a_precondition_error(self, micro_scenario):
        high = sf.FeeStructure(2, (0.8, 0.8))
        low = sf.FeeStructure(2, (3.2, 3.2))
        with pytest.raises(sf.ParameterError):
            sf.dominance_experiment(micro_scenario, high, low, bound=8)
