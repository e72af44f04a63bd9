"""Inputs the library entry points once took wrongly, each pinned to the
ParameterError that names its parameter; ``tests/test_inputs.py`` runs them.

Before the one input rule (``shipfees.errors``) and the two caps (the
bound cap and the joint-memory cap) these were accepted as a different
model or a run past every evaluator, coerced by float(), or ended in an
AttributeError, OverflowError, TypeError or bare ValueError.  Every one
now ends in a ParameterError of one line under 300 characters.
"""

import math

import numpy as np

import shipfees as sf
from shipfees.distributions import CapacitySpec
from shipfees.measures import policy_report

CHOICE = sf.ChoiceModel(4.0, 0.0, 4.0)
CAPACITY = sf.Pmf(np.array([0.1, 0.2, 0.4, 0.3]))
SCENARIO = sf.Scenario(2, 1.5, CAPACITY, CHOICE, 8.0)
POLICY = sf.FeeStructure(2, (1.5, 2.5))
# Scenario.from_utilization's arguments at the benchmark design point
DESIGN = (8, 5.0, 0.85, 0.5, 20, CHOICE, 8.0)


def from_utilization(**changes):
    names = ("period_length", "lam", "utilization", "capacity_scv",
             "capacity_support_max", "choice", "penalty")
    return sf.Scenario.from_utilization(**{**dict(zip(names, DESIGN)), **changes})


# (the call as text, the parameter its error names, the call)
HOLES = [
    ("CapacitySpec(20.5, 5.88, 0.5)", "support_max",
     lambda: CapacitySpec(20.5, 5.88, 0.5)),
    ("CapacitySpec(True, 5.88, 0.5)", "support_max",
     lambda: CapacitySpec(True, 5.88, 0.5)),
    ("CapacitySpec(10**400, 5.88, 0.5)", "support",
     lambda: CapacitySpec(10**400, 5.88, 0.5)),
    ("from_utilization(capacity_support_max=20.5)", "support_max",
     lambda: from_utilization(capacity_support_max=20.5)),
    ("from_utilization(period_length=8.0)", "period_length",
     lambda: from_utilization(period_length=8.0)),
    ("FeeStructure(8.0, (2.0,) * 8)", "period_length",
     lambda: sf.FeeStructure(8.0, (2.0,) * 8)),
    ("build_policy('CSP', 2.0, 8.0, 4.0)", "period_length",
     lambda: sf.build_policy("CSP", 2.0, 8.0, 4.0)),
    ("canonicalize(2.0, (1.0,) * 3, 4, 4.0)", "cutoff",
     lambda: sf.canonicalize(2.0, (1.0,) * 3, 4, 4.0)),
    ("Scenario(lam=10**400)", "lam",
     lambda: sf.Scenario(2, 10**400, CAPACITY, CHOICE, 8.0)),
    ("Scenario(penalty=10**400)", "penalty",
     lambda: sf.Scenario(2, 1.5, CAPACITY, CHOICE, 10**400)),
    ("from_utilization(lam=10**400)", "lam",
     lambda: from_utilization(lam=10**400)),
    ("from_utilization(lam='5')", "lam", lambda: from_utilization(lam="5")),
    ("Scenario(lam='5')", "lam", lambda: sf.Scenario(2, "5", CAPACITY, CHOICE, 8.0)),
    ("from_utilization(utilization='5')", "utilization",
     lambda: from_utilization(utilization="5")),
    ("from_utilization(capacity_scv='5')", "scv",
     lambda: from_utilization(capacity_scv="5")),
    ("from_utilization(rejection_threshold='5')", "rejection_threshold",
     lambda: from_utilization(rejection_threshold="5")),
    ("ChoiceModel('4', 0, 4)", "regular_price", lambda: sf.ChoiceModel("4", 0, 4)),
    ("ChoiceModel(True, False, True)", "regular_price",
     lambda: sf.ChoiceModel(True, False, True)),
    ("PolicyEvaluator(scenario, 30.0)", "bound",
     lambda: sf.PolicyEvaluator(SCENARIO, 30.0)),
    ("PolicyEvaluator(scenario, True)", "bound",
     lambda: sf.PolicyEvaluator(SCENARIO, True)),
    ("find_bound(scenario, hard_cap=True)", "hard_cap",
     lambda: sf.find_bound(SCENARIO, hard_cap=True)),
    ("poisson_pmf(True)", "poisson rate", lambda: sf.poisson_pmf(True)),
    ("poisson_pmf(1.5, 1e-300)", "tail_eps", lambda: sf.poisson_pmf(1.5, 1e-300)),
    ("Pmf(object())", "mass", lambda: sf.Pmf(object())),
    ("Pmf(['a'])", "mass", lambda: sf.Pmf(["a"])),
    ("SearchGrid(None, (1, 1))", "fee_values", lambda: sf.SearchGrid(None, (1, 1))),
    ("SearchGrid(('a',), (1, 1))", "fee_values", lambda: sf.SearchGrid(("a",), (1, 1))),
    ("FeeStructure(2, (b'1', 1.0))", "fees", lambda: sf.FeeStructure(2, (b"1", 1.0))),
    ("FeeStructure(8, ('2',) * 8)", "fees", lambda: sf.FeeStructure(8, ("2",) * 8)),
    # a cycle whose ages' joints at bound 0 pass 1 GiB, refused before T fees
    # are built (10**400 ended in an OverflowError building them)
    ("Scenario(period_length=2**27 + 1)",
     "the ages of period_length need 1.000 GiB of joints at bound 0, over the 1 GiB "
     "limit of 134217728 joints",
     lambda: sf.Scenario(2**27 + 1, 1.5, CAPACITY, CHOICE, 8.0)),
    ("from_utilization(period_length=10**400)", "the ages of period_length need",
     lambda: from_utilization(period_length=10**400)),
    ("build_policy('CSP', 2.0, 10**400, 4.0)", "the ages of period_length need",
     lambda: sf.build_policy("CSP", 2.0, 10**400, 4.0)),
    ("canonicalize(0, (1.0,), 10**400, 4.0)", "the ages of period_length need",
     lambda: sf.canonicalize(0, (1.0,), 10**400, 4.0)),
    ("FeeStructure(10**400, (2.0,))", "the ages of period_length need",
     lambda: sf.FeeStructure(10**400, (2.0,))),
    # sizes past the bound cap, refused where they enter (a hard cap of
    # 10**6 probed bounds no evaluator accepts for minutes)
    ("find_bound(scenario, hard_cap=10**6)", "hard_cap must lie in 1..2000",
     lambda: sf.find_bound(SCENARIO, hard_cap=10**6)),
    ("find_bound(scenario, hard_cap=2001)", "hard_cap must lie in 1..2000",
     lambda: sf.find_bound(SCENARIO, hard_cap=2001)),
    ("SimConfig(cycles=2000, bound=2001)", "bound must lie in 0..2000",
     lambda: sf.SimConfig(cycles=2000, bound=2001)),
    ("SimConfig(cycles=2000, bound=10**12)", "bound must lie in 0..2000",
     lambda: sf.SimConfig(cycles=2000, bound=10**12)),
    ("PolicyEvaluator(scenario, 2001)", "bound must lie in 0..2000",
     lambda: sf.PolicyEvaluator(SCENARIO, 2001)),
    # object arguments, which ended in an AttributeError
    ("Scenario(capacity='x')", "capacity must be a Pmf",
     lambda: sf.Scenario(2, 1.5, "x", CHOICE, 8.0)),
    ("Scenario(choice=None)", "choice must be a ChoiceModel",
     lambda: sf.Scenario(2, 1.5, CAPACITY, None, 8.0)),
    ("PolicyEvaluator('x', 8)", "scenario must be a Scenario",
     lambda: sf.PolicyEvaluator("x", 8)),
    ("evaluate_policy(scenario, (1.0, 2.0))", "policy must be a FeeStructure",
     lambda: sf.evaluate_policy(SCENARIO, (1.0, 2.0))),
    ("policy_report(evaluator, (1.0, 2.0))", "policy must be a FeeStructure",
     lambda: policy_report(sf.PolicyEvaluator(SCENARIO, 8), (1.0, 2.0))),
    ("simulate(scenario, (1.0, 2.0), config)", "policy must be a FeeStructure",
     lambda: sf.simulate(SCENARIO, (1.0, 2.0), sf.SimConfig(2000))),
    ("simulate('x', policy, config)", "scenario must be a Scenario",
     lambda: sf.simulate("x", POLICY, sf.SimConfig(2000))),
    ("simulate(scenario, policy, 2000)", "config must be a SimConfig, got 2000",
     lambda: sf.simulate(SCENARIO, POLICY, 2000)),
    ("find_bound('x')", "scenario must be a Scenario", lambda: sf.find_bound("x")),
    ("optimize_family(scenario, 'TSP', 'x')", "grid must be a SearchGrid",
     lambda: sf.optimize_family(SCENARIO, "TSP", "x")),
    ("optimize_family('x', 'TSP')", "scenario must be a Scenario",
     lambda: sf.optimize_family("x", "TSP")),
    ("optimize_families(scenario, [('TSP', (1.0, 2.0))])", "grid must be a SearchGrid",
     lambda: sf.optimize_families(SCENARIO, [("TSP", (1.0, 2.0))])),
    ("exhaustive_fee_vector_search(scenario, 'x')", "grid must be a SearchGrid",
     lambda: sf.exhaustive_fee_vector_search(SCENARIO, "x")),
    ("revenue_max_fee('x')", "choice must be a ChoiceModel",
     lambda: sf.revenue_max_fee("x")),
    ("discretized_beta('x')", "spec must be a CapacitySpec",
     lambda: sf.discretized_beta("x")),
    ("SearchGrid.default('x')", "period_length must be an integer",
     lambda: sf.SearchGrid.default("x")),
    ("dominance_experiment('x', policy, policy)", "scenario must be a Scenario",
     lambda: sf.dominance_experiment("x", POLICY, POLICY)),
    ("dominance_experiment(scenario, 'x', policy)", "policy must be a FeeStructure",
     lambda: sf.dominance_experiment(SCENARIO, "x", POLICY)),
    ("dominance_experiment(scenario, policy, (1.5, 2.5))",
     "policy_prime must be a FeeStructure",
     lambda: sf.dominance_experiment(SCENARIO, POLICY, (1.5, 2.5))),
    ("optimize_families(scenario, [('TSP',)])", "searches must be .family, grid. pairs",
     lambda: sf.optimize_families(SCENARIO, [("TSP",)])),
    ("optimize_families(scenario, 'TSP')", "searches must be .family, grid. pairs",
     lambda: sf.optimize_families(SCENARIO, "TSP")),
    # the choice functions, which returned NaN or ended in a TypeError
    ("take_rate(choice, '5')", "price must be a real number",
     lambda: sf.take_rate(CHOICE, "5")),
    ("split_rates(choice, nan, 2.0)", "lam must be a real number",
     lambda: sf.split_rates(CHOICE, math.nan, 2.0)),
    ("split_rates(choice, 1.5, '2')", "fee must be a real number",
     lambda: sf.split_rates(CHOICE, 1.5, "2")),
    # a Python integer beyond int64 is a real number, and its mass is not in
    # [0, 1]; one beyond the float range is not a real number
    ("Pmf([0.5, 10**31])", "pmf entries must be finite and lie in",
     lambda: sf.Pmf([0.5, 10**31])),
    ("Pmf([0.5, 10**400])", r"mass\[1\] must be a real number, got 1000",
     lambda: sf.Pmf([0.5, 10**400])),
    # masses pass the input rule entry by entry: a bool is not a mass, and a
    # point mass's support is capped like any other
    ("Pmf([True, 0.0])", r"^mass\[0\] must be a real number, got True$",
     lambda: sf.Pmf([True, 0.0])),
    # an entry whose repr spans two lines is shown on one
    ("Pmf(np.zeros((1, 2, 1)))",
     r"^mass\[0\] must be a real number, got array\(\[\[0\.\], +\[0\.\]\]\)$",
     lambda: sf.Pmf(np.zeros((1, 2, 1)))),
    ("Pmf.point_mass(2001)", r"^value must lie in 0\.\.2000 \(the cap of find_bound\)",
     lambda: sf.Pmf.point_mass(2001)),
    # values repr cannot print (an int past 4300 digits), shown by type and
    # size; each ended in a ValueError from int's str conversion limit
    ("poisson_pmf(10**5000)", "poisson rate must be a number >= 0, got int of",
     lambda: sf.poisson_pmf(10**5000)),
    ("FeeStructure(2, 10**5000)", "fees must be a sequence, got int of 16610 bits",
     lambda: sf.FeeStructure(2, 10**5000)),
    ("SearchGrid((1.0,), 10**5000)", "cutoff_range must be two integers, got int of",
     lambda: sf.SearchGrid((1.0,), 10**5000)),
    ("build_policy('CSP', (10**5000,), 8, 4.0)",
     "fee must be a real number, got tuple of length 1",
     lambda: sf.build_policy("CSP", (10**5000,), 8, 4.0)),
    ("ChoiceModel(10**5000, 0, 4)", "regular_price must be a real number, got int of",
     lambda: sf.ChoiceModel(10**5000, 0, 4)),
    ("take_rate(choice, 10**5000)", "price must be a real number, got int of",
     lambda: sf.take_rate(CHOICE, 10**5000)),
    ("PolicyEvaluator(scenario, 10**5000)", "bound must lie in 0..2000 .* got int of",
     lambda: sf.PolicyEvaluator(SCENARIO, 10**5000)),
    ("simulate(cycles=10**5000)", "simulate.cycles: 200 streams of int of",
     lambda: sf.simulate(SCENARIO, POLICY, sf.SimConfig(cycles=10**5000, bound=30))),
    # long values, shortened by reprlib (their reprs ran to 300,000 characters)
    ("SearchGrid((1.0,), [0] * 100000)",
     r"cutoff_range must be two integers, got \[0, 0, 0, 0, 0, 0, \.\.\.\]$",
     lambda: sf.SearchGrid((1.0,), [0] * 100000)),
    ("build_policy(['x'] * 100000, 2.0, 8, 4.0)",
     r"unknown policy family \['x', 'x', 'x', 'x', 'x', 'x', \.\.\.\]; expected",
     lambda: sf.build_policy(["x"] * 100000, 2.0, 8, 4.0)),
]

