"""Grid-optimize each policy family and compare the optima.

Runs the bundled search grid (fees 0.2..3.8 in steps of 0.2, cutoff ages
1..7) for utilization 0.9 and penalty 8, then prints what each family
can achieve.  The two-level optimum always lands at the latest cutoff
with the fee switch one age before it.
"""

import time

from shipfees import ChoiceModel, Scenario, SearchGrid, optimize_families

PERIODS = 8
BOUND = 40


def describe(name, opt):
    rep = opt.report
    print(
        f"{name:8} point={opt.point}  E[M]={rep.expected_backorders:.3f}"
        f"  E[G^V]={rep.variable_profit:.3f}  ({opt.evaluations} evaluations)"
    )


def main():
    choice = ChoiceModel(regular_price=4.0, u_min=0.0, u_max=4.0)
    scenario = Scenario.from_utilization(PERIODS, 5.0, 0.90, 0.5, 20, choice, 8.0)
    grid = SearchGrid.default(PERIODS)

    start = time.perf_counter()
    # one evaluator and one batch for all three searches
    fixed_fee, single, two_level = optimize_families(
        scenario,
        [
            ("TSP_CF_star", SearchGrid((2.0,), grid.cutoff_range)),
            ("TSP_CF_star", grid),
            ("TSP", grid),
        ],
        bound=BOUND,
    )
    elapsed = time.perf_counter() - start

    describe("TSP-CF", fixed_fee)
    describe("TSP-CF*", single)
    describe("TSP", two_level)
    f_e, f_le, tau_f, tau_c = two_level.point
    print()
    print(f"two-level optimum: express fee {f_e:g} through age {tau_f}, "
          f"then {f_le:g} through age {tau_c}")
    print(f"runner-up trails by {two_level.runner_up_gap:.4f} profit")
    print(f"total search time {elapsed:.1f}s")


if __name__ == "__main__":
    main()
