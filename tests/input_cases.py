"""Inputs the library entry points once took wrongly, each pinned to the
ParameterError that names its parameter.

Before the one input rule (``shipfees.errors``) these were accepted as a
different model, coerced by float(), or ended in an OverflowError,
TypeError or bare ValueError.  The module needs numpy alone, so the job
without the test dependencies runs it as a script:

    PYTHONPATH=src python tests/input_cases.py

``tests/test_inputs.py`` runs the same cases under pytest.
"""

import numpy as np

import shipfees as sf
from shipfees.distributions import CapacitySpec

CHOICE = sf.ChoiceModel(4.0, 0.0, 4.0)
CAPACITY = sf.Pmf(np.array([0.1, 0.2, 0.4, 0.3]))
SCENARIO = sf.Scenario(2, 1.5, CAPACITY, CHOICE, 8.0)
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
    ("Scenario(period_length=2**27 + 1)", "period_length must be at most 134217728",
     lambda: sf.Scenario(2**27 + 1, 1.5, CAPACITY, CHOICE, 8.0)),
    ("from_utilization(period_length=10**400)", "period_length must be at most",
     lambda: from_utilization(period_length=10**400)),
    ("build_policy('CSP', 2.0, 10**400, 4.0)", "period_length must be at most",
     lambda: sf.build_policy("CSP", 2.0, 10**400, 4.0)),
    ("canonicalize(0, (1.0,), 10**400, 4.0)", "period_length must be at most",
     lambda: sf.canonicalize(0, (1.0,), 10**400, 4.0)),
    ("FeeStructure(10**400, (2.0,))", "period_length must be at most",
     lambda: sf.FeeStructure(10**400, (2.0,))),
]


def main() -> int:
    failures = 0
    for text, name, call in HOLES:
        try:
            call()
        except sf.ParameterError as exc:
            ok = name in str(exc)
            outcome = f"ParameterError: {exc}"[:120]
        except Exception as exc:  # any other outcome fails the case
            ok, outcome = False, f"{type(exc).__name__}: {exc}"[:120]
        else:
            ok, outcome = False, "accepted"
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {text} -> {outcome}")
    print(f"{len(HOLES) - failures}/{len(HOLES)} inputs refused by name")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
