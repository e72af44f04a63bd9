"""The three benchmark workloads: inputs, unit operations and output checks.

Each workload builds its inputs from the seed (``__init__`` is the timed
set-up), exposes its fixed work as ``ops`` (one pass = every op once, in
order) and checks a pass's outputs with ``check``, which returns
``(name, ok, detail)`` triples.  Checks compare against numbers computed
here, against the paper's published values, or against properties the
method must have; never against a stored copy of the program's output.

``size="tiny"`` shrinks every workload so the self-test runs in seconds.
"""

from __future__ import annotations

import csv
import importlib
import io
import itertools
import json
import math
import os
import random
import shutil

from shipfees import (
    ChoiceModel,
    FeeStructure,
    Scenario,
    SimConfig,
    evaluate_policy,
)
from shipfees import cli

# Ops call through these modules' attributes at call time, so that the
# tracer's wrappers are seen.  (``shipfees.simulate`` is the function.)
measures = importlib.import_module("shipfees.measures")
simulation = importlib.import_module("shipfees.simulate")

T = 8
LAM = 5.0
SUPPORT_MAX = 20
REGULAR_PRICE, U_MIN, U_MAX = 4.0, 0.0, 4.0
THRESHOLD = 0.023
# Table 2's CSP row of the paper, (E[M], G) per preset, with criterion 1's
# tolerances: E[M] within 0.05 absolute, G within 2 % relative.
PAPER_CSP = {
    "rho085_c8": (1.29, 29.66),
    "rho090_c8": (2.69, 18.45),
    "rho095_c8": (6.36, -10.91),
}
EM_TOL, G_RTOL = 0.05, 0.02
# Tables print 4 decimals, so a printed value is off by at most half a unit.
HALF_UNIT = 5e-5


def take_rate(fee: float) -> float:
    """Share of arrivals choosing express at premium ``fee`` (uniform WTP)."""
    if fee >= U_MAX:
        return 0.0
    if fee <= U_MIN:
        return 1.0
    return 1.0 - (fee - U_MIN) / (U_MAX - U_MIN)


def express_revenue(fees) -> float:
    """Sum over ages of fee * lambda * w(fee): idealized express revenue."""
    return sum(f * LAM * take_rate(f) for f in fees if take_rate(f) > 0.0)


def two_level_fees(f_e, f_le, tau_f, tau_c) -> tuple[float, ...]:
    """f_E through tau_F, f_LE through tau_C, no express (u_max) after."""
    out = []
    for t in range(T):
        if t > tau_c:
            out.append(U_MAX)
        elif tau_f is None or t <= tau_f:
            out.append(f_e)
        else:
            out.append(f_le)
    return tuple(out)


def _choice() -> ChoiceModel:
    return ChoiceModel(REGULAR_PRICE, U_MIN, U_MAX)


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


class Workload:
    """Defaults: the first op warms up, outputs compare by ``repr``."""

    ops: list

    def warmup(self) -> None:
        self.ops[0][1]()

    def close(self) -> None:
        pass

    @staticmethod
    def fingerprint(out) -> str:
        return repr(out)


# ---------------------------------------------------------------------------


class Tables(Workload):
    """Paper Tables 2 and 3 through ``cli.main`` at the bounds 30, 40, 50.

    The presets keep their scenarios and pinned bounds; the fee lattice is
    narrowed to 2.0..3.4 in steps of 0.2, which holds the revenue-maximizing
    fee 2.0 (so the families nest) and every Table 2 optimum of these
    presets, at a sixth of the full lattice's TSP candidates.
    """

    name = "tables"
    ABSENT = ("chain.find_bound", "simulate.simulate")
    PRESETS = ("rho085_c8", "rho090_c8", "rho095_c8")
    COMMANDS = ("reproduce-table2", "reproduce-table3")
    SAMPLE = 3

    def __init__(self, seed: int, workdir: str, size: str = "full"):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        if size == "tiny":
            presets, fees = self.PRESETS[:1], (2.0, 2.4, 3.0)
        else:
            presets, fees = self.PRESETS, tuple(round(0.2 * k, 10) for k in range(10, 18))
        self.grid = fees
        self.configs = {}
        self.ops = []
        for preset in presets:
            cfg = cli.load_preset(preset)
            cfg["grid"]["fee_values"] = list(fees)
            path = os.path.join(workdir, f"{preset}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self.configs[preset] = cfg
            for cmd in self.COMMANDS:
                out = os.path.join(workdir, f"{preset}-{cmd}.csv")
                argv = [cmd, "--config", path, "--out", out]
                self.ops.append((f"{cmd}:{preset}", self._op(argv, out)))

    @staticmethod
    def _op(argv, out):
        def run():
            code = cli.main(argv)  # looked up per call, so a tracer sees it
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited with {code}")
            with open(out, encoding="utf-8") as fh:
                return fh.read()

        return run

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- checks --------------------------------------------------------------

    def parse(self, outputs: list[str]) -> dict:
        """{preset: {command: rows}} from one pass's CSV texts."""
        tables = {}
        for (label, _), text in zip(self.ops, outputs):
            cmd, preset = label.split(":")
            tables.setdefault(preset, {})[cmd] = list(csv.DictReader(io.StringIO(text)))
        return tables

    def scenario(self, preset: str) -> tuple[Scenario, int]:
        cfg = self.configs[preset]
        sc = cfg["scenario"]
        scenario = Scenario.from_utilization(
            sc["T"], sc["lambda"], sc["utilization"], sc["scv"],
            sc["capacity_support_max"], _choice(), cfg["penalty"],
        )
        return scenario, sc["truncation_bound"]

    @staticmethod
    def row_params(row: dict) -> tuple:
        def opt(key, kind):
            return kind(row[key]) if row.get(key) else None

        tau_c = opt("tau_C", int)
        return (float(row["f_E"]), opt("f_LE", float), opt("tau_F", int),
                T - 1 if tau_c is None else tau_c)

    def candidates(self, preset: str, cmd: str, row: dict) -> list[tuple]:
        """Every grid candidate of the search that produced ``row``."""
        lo, hi = self.configs[preset]["grid"]["cutoff_range"]
        pairs = list(itertools.combinations(self.grid, 2))
        if cmd == "reproduce-table3":
            tc = int(row["tau_C"])
            return [(fe, fle, tf, tc) for fe, fle in pairs for tf in range(tc)]
        cutoffs = range(lo, hi + 1)
        if row["policy"] == "TSP-CF":
            return [(U_MAX / 2, None, None, tc) for tc in cutoffs]
        if row["policy"] == "TSP-CF*":
            return [(f, None, None, tc) for f in self.grid for tc in cutoffs]
        return [(fe, fle, tf, tc) for fe, fle in pairs for tc in cutoffs
                for tf in range(tc)]

    def sample(self, preset: str, cmd: str, row: dict) -> list[tuple]:
        cands = self.candidates(preset, cmd, row)
        rng = random.Random(f"{self.seed}:{preset}:{cmd}:{row.get('policy', row.get('tau_C'))}")
        return rng.sample(cands, min(self.SAMPLE, len(cands)))

    def check(self, outputs: list[str]) -> list[tuple]:
        tables = self.parse(outputs)
        results = []
        for preset, by_cmd in tables.items():
            t2 = {r["policy"]: r for r in by_cmd["reproduce-table2"]}
            t3 = by_cmd["reproduce-table3"]
            penalty = self.configs[preset]["penalty"]
            em, g = float(t2["CSP"]["E[M]"]), float(t2["CSP"]["E[G^V]"])
            p_em, p_g = PAPER_CSP[preset]
            results.append((
                f"{preset}: CSP row matches paper Table 2",
                abs(em - p_em) <= EM_TOL and abs(g - p_g) <= G_RTOL * abs(p_g),
                f"E[M] {em} vs {p_em}, G {g} vs {p_g}",
            ))
            worst = 0.0
            for row in list(t2.values()) + t3:
                fees = two_level_fees(*self.row_params(row))
                want = express_revenue(fees) - penalty * float(row["E[M]"])
                worst = max(worst, abs(float(row["E[G^V]"]) - want))
            tol = HALF_UNIT * (1.0 + penalty) + 1e-9
            results.append((
                f"{preset}: G = sum fee*lam*w(fee) - penalty*E[M] on every row",
                worst <= tol, f"max gap {worst:.3g} (tol {tol:.3g})",
            ))
            gs = [float(t2[k]["E[G^V]"]) for k in ("CSP", "TSP-CF", "TSP-CF*")]
            results.append((
                f"{preset}: G(CSP) <= G(TSP-CF) <= G(TSP-CF*)",
                gs[0] <= gs[1] <= gs[2], f"{gs}",
            ))
            g_tsp = float(t2["TSP"]["E[G^V]"])
            g3 = [float(r["E[G^V]"]) for r in t3]
            results.append((
                f"{preset}: Table 3 profits <= Table 2 TSP profit",
                all(g <= g_tsp for g in g3), f"{g3} vs {g_tsp}",
            ))
            results.append(self._check_optima(preset, t2, t3))
        return results

    def _check_optima(self, preset, t2, t3) -> tuple:
        """Each optimum row is its policy's profit and beats a grid sample."""
        scenario, bound = self.scenario(preset)
        rows = [("reproduce-table2", t2[k]) for k in ("TSP-CF", "TSP-CF*", "TSP")]
        rows += [("reproduce-table3", r) for r in t3]
        bad = []
        for cmd, row in rows:
            g_row = float(row["E[G^V]"])
            own = evaluate_policy(
                scenario, FeeStructure(T, two_level_fees(*self.row_params(row))), bound)
            if (abs(own.variable_profit - g_row) > HALF_UNIT + 1e-9
                    or abs(own.expected_backorders - float(row["E[M]"])) > HALF_UNIT + 1e-9):
                bad.append(f"{cmd} {row.get('policy', row.get('tau_C'))}: reported "
                           f"G {g_row} but its policy gives {own.variable_profit:.6f}")
            for cand in self.sample(preset, cmd, row):
                rep = evaluate_policy(scenario, FeeStructure(T, two_level_fees(*cand)), bound)
                if rep.variable_profit > g_row + HALF_UNIT + 1e-9:
                    bad.append(f"{cmd}: candidate {cand} has G "
                               f"{rep.variable_profit:.6f} > optimum {g_row}")
        return (f"{preset}: optima are their policies' profits and beat "
                f"{self.SAMPLE} sampled candidates each", not bad, "; ".join(bad) or "ok")


# ---------------------------------------------------------------------------


class WhatIf(Workload):
    """Single ``evaluate_policy`` calls with the bound searched per call.

    Scenarios cross utilization {0.85, 0.90, 0.95} with capacity scv
    {0.25, 0.5, 1.0} (bounds about 17 to 85).  Each scenario gets one CSP,
    one TSP_CF, one TSP and two arbitrary per-age vectors with ages where
    express is not offered, drawn from the seed; the 45 queries run in a
    seeded order.
    """

    name = "whatif"
    ABSENT = ("chain.profits_batch", "optimize.optimize_family", "simulate.simulate")
    UTILIZATIONS = (0.85, 0.90, 0.95)
    SCVS = (0.25, 0.5, 1.0)
    PENALTY = 8.0

    def __init__(self, seed: int, workdir: str, size: str = "full"):
        rng = random.Random(seed)
        grid = [round(0.2 * k, 10) for k in range(1, 20)]
        cells = list(itertools.product(self.UTILIZATIONS, self.SCVS))
        if size == "tiny":
            cells = [(0.85, 0.25), (0.90, 0.5)]
        self.scenarios = [
            Scenario.from_utilization(T, LAM, rho, scv, SUPPORT_MAX, _choice(), self.PENALTY)
            for rho, scv in cells
        ]
        self.queries = []  # (scenario index, FeeStructure)
        for i in range(len(self.scenarios)):
            fe, fle = sorted(rng.sample(grid, 2))
            tc = rng.randrange(1, T)
            cut = rng.randrange(0, T - 1)
            vector = [rng.uniform(0.0, U_MAX) for _ in range(T)]
            for t in rng.sample(range(T), rng.randint(1, 3)):
                vector[t] = rng.choice((U_MAX, math.inf))
            fees = [
                (rng.choice(grid),) * T,
                two_level_fees(rng.choice(grid), None, None, rng.randrange(0, T)),
                two_level_fees(fe, fle, rng.randrange(0, tc), tc),
                tuple(rng.uniform(0.0, U_MAX) if t <= cut else math.inf
                      for t in range(T)),
                tuple(vector),
            ]
            self.queries += [(i, FeeStructure(T, f)) for f in fees]
        rng.shuffle(self.queries)
        self.ops = [
            (f"evaluate:{i}", self._op(self.scenarios[i], pol))
            for i, pol in self.queries
        ]

    @staticmethod
    def _op(scenario, policy):
        return lambda: measures.evaluate_policy(scenario, policy)

    def check(self, outputs) -> list[tuple]:
        worst_id = 0.0
        rej_bad, em_bad, rate_bad = [], [], []
        bounds: dict[int, set] = {}
        for (i, pol), rep in zip(self.queries, outputs):
            rates = [LAM * take_rate(f) for f in pol.fees]
            rev = express_revenue(pol.fees)
            worst_id = max(
                worst_id,
                _relative_gap(rep.revenue, rev),
                _relative_gap(rep.variable_profit, rev - self.PENALTY * rep.expected_backorders),
                max(abs(a - b) for a, b in zip(rep.per_age_express_rate, rates)),
            )
            if not rep.rejection_probability <= THRESHOLD:
                rej_bad.append(f"query on scenario {i}: {rep.rejection_probability}")
            if not rep.expected_backorders <= rep.expected_backorders_raw:
                em_bad.append(f"scenario {i}: {rep.expected_backorders} > "
                              f"{rep.expected_backorders_raw}")
            if not (all(a <= r for a, r in zip(rep.per_age_express_rate_adjusted,
                                               rep.per_age_express_rate))
                    and rep.revenue_adjusted <= rep.revenue):
                rate_bad.append(f"scenario {i}")
            bounds.setdefault(i, set()).add(rep.bound)
        split = {i: sorted(b) for i, b in bounds.items() if len(b) > 1}
        return [
            ("revenue, profit and express rates match sum fee*lam*w(fee)",
             worst_id <= 1e-9, f"max relative gap {worst_id:.3g} (tol 1e-9)"),
            ("rejection probability <= threshold",
             not rej_bad, "; ".join(rej_bad) or f"all <= {THRESHOLD}"),
            ("E[M] <= raw E[M]", not em_bad, "; ".join(em_bad) or "ok"),
            ("adjusted express rates and revenue <= raw",
             not rate_bad, "; ".join(rate_bad) or "ok"),
            ("every policy of a scenario gets the same bound",
             not split, f"split bounds {split}" if split else
             f"bounds {sorted(min(b) for b in bounds.values())}"),
            self._check_minimal(outputs),
        ]

    def _check_minimal(self, outputs) -> tuple:
        """The first query of each scenario: rejection at bound - 1 exceeds it."""
        seen, bad = set(), []
        for (i, pol), rep in zip(self.queries, outputs):
            if i in seen or rep.bound <= 1:
                continue
            seen.add(i)
            below = evaluate_policy(self.scenarios[i], pol, bound=rep.bound - 1)
            if not below.rejection_probability > THRESHOLD:
                bad.append(f"scenario {i}: bound {rep.bound} - 1 already gives "
                           f"{below.rejection_probability}")
        return (f"bound is minimal on {len(seen)} sampled queries",
                bool(seen) and not bad, "; ".join(bad) or "ok")


# ---------------------------------------------------------------------------


class MonteCarlo(Workload):
    """``simulate`` at criterion 4's configuration with its seeds.

    1,000,000 measured cycles after 5,000 warm-up cycles over 200 streams,
    at the preset's pinned bound, for two (preset, Table 2 policy) pairs.
    The simulator seeds are fixed, so the inputs are the same for every
    benchmark seed.
    """

    name = "montecarlo"
    ABSENT = ("chain.find_bound", "chain.profits_batch")
    # (preset, utilization, penalty, bound, fees, criterion 4's seed)
    PAIRS = (
        ("rho085_c8", 0.85, 8.0, 30, (2.0,) * T, 11),
        ("rho095_c8", 0.95, 8.0, 50, two_level_fees(3.0, 3.4, 6, 7), 30),
    )

    def __init__(self, seed: int, workdir: str, size: str = "full"):
        cycles, warmup, streams = 1_000_000, 5_000, 200
        if size == "tiny":
            cycles, warmup, streams = 20_000, 1_000, 20
        self.measured = cycles
        self.cases = []
        for preset, rho, penalty, bound, fees, sim_seed in self.PAIRS:
            scenario = Scenario.from_utilization(
                T, LAM, rho, 0.5, SUPPORT_MAX, _choice(), penalty)
            config = SimConfig(cycles + warmup, warmup, sim_seed, bound, streams)
            self.cases.append((preset, scenario, FeeStructure(T, fees), config))
        self.ops = [(f"simulate:{p}", self._op(s, pol, cfg))
                    for p, s, pol, cfg in self.cases]

    @staticmethod
    def _op(scenario, policy, config):
        return lambda: simulation.simulate(scenario, policy, config)

    def warmup(self) -> None:
        """A short run: the first call's one-off costs without a full op."""
        _, scenario, policy, config = self.cases[0]
        simulation.simulate(
            scenario, policy, SimConfig(3_000, 1_000, config.seed, config.bound, 10))

    def check(self, outputs) -> list[tuple]:
        results = []
        for (preset, scenario, policy, config), sim in zip(self.cases, outputs):
            exact = evaluate_policy(scenario, policy, bound=config.bound)
            est = sim.report
            zs = {
                "E[M]": (est.expected_backorders - exact.expected_backorders)
                / sim.halfwidth_backorders,
                "profit": (est.variable_profit - exact.variable_profit)
                / sim.halfwidth_variable_profit,
                "rejection": (est.rejection_probability - exact.rejection_probability)
                / sim.halfwidth_rejection,
            }
            results.append((
                f"{preset}: E[M], profit, rejection within 3 halfwidths of exact",
                all(abs(z) <= 3.0 for z in zs.values()),
                ", ".join(f"{k} {z:+.2f} hw" for k, z in zs.items()),
            ))
            results.append((
                f"{preset}: measured cycles equal the requested count",
                sim.measured_cycles == self.measured,
                f"{sim.measured_cycles} vs {self.measured}",
            ))
        return results


WORKLOADS = {w.name: w for w in (Tables, WhatIf, MonteCarlo)}
