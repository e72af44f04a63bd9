"""Experiment runner for evaluation, optimization, simulation, and sweeps.

Subcommands:
  evaluate          one policy -> full performance report
  optimize          grid search within a policy family -> winning candidate
  simulate          Monte Carlo run -> empirical report with halfwidths
  verify            built-in property suites -> pass/fail summary
  reproduce-table2  benchmark comparison of CSP / TSP-CF / TSP-CF* / TSP
  reproduce-table3  cutoff-age sensitivity of the optimal TSP
  sweep-figures     long-format profit sweeps over f_E and f_LE

Scenarios come from a JSON config (--config) or a bundled preset
(--preset); reproduction commands run every preset when neither is given.
JSON uses Python float repr (shortest round-trip, at most 17 significant
digits), so emitted reports re-parse bit-exactly; non-finite values (an
undefined mean delay, the runner-up gap of a one-candidate grid) are written
as null, so the output is strict JSON.  CSV uses '.' decimals,
comma delimiters, and a header row.  "Benefit" columns are relative profit
deviations 100*(a-b)/|b|; the absolute value keeps the sign meaningful for
loss-making baselines.  Exit codes: 0 success, 1 validation failure, 2
numerical failure.  Environment: SHIPFEES_OUT_DIR anchors relative --out
paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from .chain import (
    PolicyEvaluator,
    Scenario,
    _shift_matrix,
    find_bound,
    steady_state,
)
from .choice import ChoiceModel
from .distributions import CapacitySpec, Pmf, discretized_beta
from .errors import NumericsError, ParameterError
from .measures import PerformanceReport, evaluate_policy
from .optimize import (
    Optimum,
    SearchGrid,
    exhaustive_fee_vector_search,
    is_weakly_monotone,
    optimize_family,
    revenue_max_fee,
)
from .policies import (
    CumulativeDemandProfile,
    FeeStructure,
    SimpleTspParams,
    build_policy,
    canonicalize,
    cutoff_form,
    profile_to_fees,
)
from .simulate import SimConfig, simulate

PRESETS = (
    "rho085_c8",
    "rho085_c12",
    "rho090_c8",
    "rho090_c12",
    "rho095_c8",
    "rho095_c12",
)


# ---------------------------------------------------------------------------
# Config parsing.  Every diagnostic carries the dotted field path.


def _block(cfg: dict, path: str, key: str, required: bool = True) -> dict | None:
    if key not in cfg:
        if required:
            raise ParameterError(f"{path}{key}: missing required block")
        return None
    val = cfg[key]
    if not isinstance(val, dict):
        raise ParameterError(f"{path}{key}: expected an object")
    return val


def _num(block: dict, path: str, key: str, default=None) -> float:
    if key not in block:
        if default is not None:
            return default
        raise ParameterError(f"{path}.{key}: missing required number")
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ParameterError(f"{path}.{key}: expected a number, got {val!r}")
    return float(val)


def _int(block: dict, path: str, key: str, default=None) -> int:
    if key not in block:
        if default is not None:
            return default
        raise ParameterError(f"{path}.{key}: missing required integer")
    val = block[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ParameterError(f"{path}.{key}: expected an integer, got {val!r}")
    return val


def _entries(vals: list, path: str, integer: bool = False) -> list:
    """Check each array entry the way _num/_int check a field."""
    kind = int if integer else (int, float)
    for i, val in enumerate(vals):
        if isinstance(val, bool) or not isinstance(val, kind):
            what = "an integer" if integer else "a number"
            raise ParameterError(f"{path}[{i}]: expected {what}, got {val!r}")
    return vals


def _load_json(text: str, origin: str) -> dict:
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{origin}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError(f"{origin}: top level must be an object")
    return cfg


def load_preset(name: str) -> dict:
    """Parsed config of one bundled preset."""
    if name not in PRESETS:
        raise ParameterError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}"
        )
    text = resources.files("shipfees").joinpath(
        "presets", f"{name}.json"
    ).read_text()
    return _load_json(text, f"preset {name}")


class Experiment:
    """One parsed experiment: scenario plus optional command blocks."""

    def __init__(self, name: str, cfg: dict, rejection_threshold: float):
        self.name = name
        self.raw = cfg
        sc = _block(cfg, "", "scenario")
        T = _int(sc, "scenario", "T")
        lam = _num(sc, "scenario", "lambda")
        choice_block = _block(cfg, "", "choice")
        choice = ChoiceModel(
            regular_price=_num(choice_block, "choice", "regular_price"),
            u_min=_num(choice_block, "choice", "u_min"),
            u_max=_num(choice_block, "choice", "u_max"),
        )
        penalty = _num(cfg, "", "penalty")
        sources = [
            k for k in ("utilization", "mean_capacity", "capacity_pmf") if k in sc
        ]
        if len(sources) != 1:
            raise ParameterError(
                "scenario: exactly one of utilization, mean_capacity, "
                f"capacity_pmf is required, got {sources or 'none'}"
            )
        if sources[0] == "capacity_pmf":
            arr = sc["capacity_pmf"]
            if not isinstance(arr, list) or not arr:
                raise ParameterError(
                    "scenario.capacity_pmf: expected a nonempty array"
                )
            capacity = Pmf(
                np.asarray(_entries(arr, "scenario.capacity_pmf"), dtype=float)
            )
            self.scenario = Scenario(
                T, lam, capacity, choice, penalty, rejection_threshold
            )
        elif sources[0] == "utilization":
            self.scenario = Scenario.from_utilization(
                T,
                lam,
                _num(sc, "scenario", "utilization"),
                _num(sc, "scenario", "scv"),
                _int(sc, "scenario", "capacity_support_max"),
                choice,
                penalty,
                rejection_threshold,
            )
        else:
            spec = CapacitySpec(
                _int(sc, "scenario", "capacity_support_max"),
                _num(sc, "scenario", "mean_capacity"),
                _num(sc, "scenario", "scv"),
            )
            self.scenario = Scenario(
                T, lam, discretized_beta(spec), choice, penalty,
                rejection_threshold,
            )
        self.bound = None
        if "truncation_bound" in sc:
            self.bound = _int(sc, "scenario", "truncation_bound")
            if self.bound < 0:
                raise ParameterError(
                    "scenario.truncation_bound: must be nonnegative"
                )
        grid_block = _block(cfg, "", "grid", required=False)
        self.grid = None
        if grid_block is not None:
            fees = grid_block.get("fee_values")
            if not isinstance(fees, list) or not fees:
                raise ParameterError("grid.fee_values: expected a nonempty array")
            rng = grid_block.get("cutoff_range", [1, T - 1])
            if not isinstance(rng, list) or len(rng) != 2:
                raise ParameterError("grid.cutoff_range: expected [low, high]")
            self.grid = SearchGrid(
                tuple(_entries(fees, "grid.fee_values")),
                tuple(_entries(rng, "grid.cutoff_range", integer=True)),
            )

    def search_grid(self) -> SearchGrid:
        if self.grid is not None:
            return self.grid
        return SearchGrid.default(self.scenario.period_length)

    def shared_bound(self) -> int:
        if self.bound is not None:
            return self.bound
        return find_bound(self.scenario)

    def policy(self) -> FeeStructure:
        block = _block(self.raw, "", "policy")
        T = self.scenario.period_length
        u_max = self.scenario.choice.u_max
        family = block.get("family")
        if family == "CSP":
            return build_policy("CSP", _num(block, "policy", "fee"), T, u_max)
        if family == "TSP_CF":
            return build_policy(
                "TSP_CF",
                (_num(block, "policy", "fee"), _int(block, "policy", "cutoff_age")),
                T,
                u_max,
            )
        if family == "TSP":
            params = SimpleTspParams(
                _num(block, "policy", "express_fee"),
                _num(block, "policy", "lastminute_fee"),
                _int(block, "policy", "switch_age"),
                _int(block, "policy", "cutoff_age"),
            )
            return build_policy("TSP", params, T, u_max)
        if family == "vector":
            fees = block.get("fees")
            if not isinstance(fees, list):
                raise ParameterError("policy.fees: expected an array")
            vals = tuple(math.inf if f is None else float(f) for f in fees)
            return FeeStructure(T, vals)
        raise ParameterError(
            f"policy.family: expected CSP, TSP_CF, TSP, or vector, got {family!r}"
        )

    def sim_config(self, seed_override: int | None) -> SimConfig:
        block = _block(self.raw, "", "simulate", required=False) or {}
        seed = seed_override
        if seed is None:
            seed = _int(block, "simulate", "seed", default=0)
        return SimConfig(
            cycles=_int(block, "simulate", "cycles", default=101_000),
            warmup_cycles=_int(block, "simulate", "warmup_cycles", default=1000),
            seed=seed,
            bound=self.bound,
            streams=_int(block, "simulate", "streams", default=200),
        )


def _experiments(args) -> list[Experiment]:
    """Experiments selected by --config/--preset; all presets as fallback."""
    if args.config and args.preset:
        raise ParameterError("pass either --config or --preset, not both")
    thr = args.rejection_threshold
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParameterError(f"config {args.config}: {exc}") from exc
        name = os.path.splitext(os.path.basename(args.config))[0]
        return [Experiment(name, _load_json(text, args.config), thr)]
    if args.preset:
        return [Experiment(args.preset, load_preset(args.preset), thr)]
    if getattr(args, "all_presets_default", False):
        return [Experiment(n, load_preset(n), thr) for n in PRESETS]
    raise ParameterError("a --config file or --preset name is required")


# ---------------------------------------------------------------------------
# Emission.


def _out_path(out: str | None) -> str | None:
    if out is None:
        return None
    base = os.environ.get("SHIPFEES_OUT_DIR")
    if base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _emit(text: str, out: str | None) -> None:
    path = _out_path(out)
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _strict(obj):
    """Copy of a JSON payload with non-finite floats replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_strict(obj), indent=2, allow_nan=False) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cell(val) -> str:
    """CSV cell: repr floats round-trip, empty for missing."""
    if val is None:
        return ""
    if isinstance(val, float):
        # float() strips numpy scalar wrappers so the repr round-trips
        return repr(float(val))
    return str(val)


def _flat_report(report: PerformanceReport) -> dict:
    out = {}
    for key, val in report.as_dict().items():
        if isinstance(val, list):
            for i, v in enumerate(val):
                out[f"{key}_{i}"] = v
        else:
            out[key] = val
    return out


def _fee_cell(value: float | None) -> str:
    return "" if value is None else f"{value:g}"


def _opt_params(opt: Optimum) -> dict:
    """Uniform f_E / f_LE / tau_F / tau_C view of an optimum."""
    if opt.family == "TSP":
        p = opt.family_params
        return {
            "f_E": p.express_fee,
            "f_LE": p.lastminute_fee,
            "tau_F": p.switch_age,
            "tau_C": p.cutoff_age,
        }
    fee, cutoff = opt.family_params
    return {"f_E": fee, "f_LE": None, "tau_F": None, "tau_C": cutoff}


BENEFIT_NOTE = "percent benefit = 100 * (a - b) / abs(b); sign-safe for negative baselines"


def _benefit(a: float, b: float) -> float:
    """Percent improvement of a over baseline b, absolute-value denominator."""
    return 100.0 * (a - b) / abs(b)


# ---------------------------------------------------------------------------
# Commands.


def cmd_evaluate(args) -> int:
    exp = _experiments(args)[0]
    policy = exp.policy()
    report = evaluate_policy(exp.scenario, policy, bound=exp.bound)
    if (args.format or "json") == "json":
        _emit(_json_text(report.as_dict()), args.out)
    else:
        flat = _flat_report(report)
        _emit(
            _csv_text(list(flat), [[_cell(v) for v in flat.values()]]), args.out
        )
    return 0


def cmd_optimize(args) -> int:
    exp = _experiments(args)[0]
    block = _block(exp.raw, "", "optimize", required=False) or {}
    family = block.get("family", "TSP")
    grid = exp.search_grid()
    opt = optimize_family(
        exp.scenario, family, grid, bound=exp.shared_bound()
    )
    payload = {
        "family": opt.family,
        **_opt_params(opt),
        "fees": list(opt.best_policy.fees),
        "evaluations": opt.evaluations,
        "runner_up_gap": opt.runner_up_gap,
        "tie_broken": opt.tie_broken,
        "report": opt.report.as_dict(),
    }
    if (args.format or "json") == "json":
        _emit(_json_text(payload), args.out)
    else:
        head = [
            "family", "f_E", "f_LE", "tau_F", "tau_C",
            "E[M]", "E[G^V]", "evaluations", "runner_up_gap", "tie_broken",
        ]
        params = _opt_params(opt)
        row = [
            opt.family,
            _fee_cell(params["f_E"]),
            _fee_cell(params["f_LE"]),
            _cell(params["tau_F"]),
            _cell(params["tau_C"]),
            repr(opt.report.expected_backorders),
            repr(opt.report.variable_profit),
            opt.evaluations,
            repr(opt.runner_up_gap),
            opt.tie_broken,
        ]
        _emit(_csv_text(head, [row]), args.out)
    return 0


def cmd_simulate(args) -> int:
    exp = _experiments(args)[0]
    policy = exp.policy()
    config = exp.sim_config(args.seed)
    rec = simulate(exp.scenario, policy, config)
    payload = {
        "report": rec.report.as_dict(),
        "halfwidth_backorders": rec.halfwidth_backorders,
        "halfwidth_variable_profit": rec.halfwidth_variable_profit,
        "halfwidth_rejection": rec.halfwidth_rejection,
        "measured_cycles": rec.measured_cycles,
        "streams": rec.streams,
        "seed": rec.seed,
    }
    if (args.format or "json") == "json":
        _emit(_json_text(payload), args.out)
    else:
        flat = _flat_report(rec.report)
        for key in (
            "halfwidth_backorders",
            "halfwidth_variable_profit",
            "halfwidth_rejection",
            "measured_cycles",
            "streams",
            "seed",
        ):
            flat[key] = payload[key]
        _emit(
            _csv_text(list(flat), [[_cell(v) for v in flat.values()]]), args.out
        )
    return 0


def _table2_rows(exp: Experiment) -> list[dict]:
    sc = exp.scenario
    T = sc.period_length
    u_max = sc.choice.u_max
    grid = exp.search_grid()
    f_rm = revenue_max_fee(sc.choice)
    csp_policy = build_policy("CSP", f_rm, T, u_max)
    bound = exp.shared_bound()
    csp = evaluate_policy(sc, csp_policy, bound=bound)
    cf = optimize_family(
        sc, "TSP_CF_star", SearchGrid((f_rm,), grid.cutoff_range), bound=bound
    )
    star = optimize_family(sc, "TSP_CF_star", grid, bound=bound)
    tsp = optimize_family(sc, "TSP", grid, bound=bound)

    def row(policy_name, params, report, *baselines):
        g = report.variable_profit
        benefits = [_benefit(g, b) if b is not None else None for b in baselines]
        return {
            "setting": exp.name,
            "policy": policy_name,
            **params,
            "E[M]": report.expected_backorders,
            "E[G^V]": g,
            "benefit-vs-CSP%": benefits[0],
            "benefit-vs-TSP-CF%": benefits[1],
            "benefit-vs-TSP-CF*%": benefits[2],
        }

    g_csp = csp.variable_profit
    g_cf = cf.report.variable_profit
    g_star = star.report.variable_profit
    none4 = {"f_E": f_rm, "f_LE": None, "tau_F": None, "tau_C": None}
    return [
        row("CSP", none4, csp, None, None, None),
        row("TSP-CF", _opt_params(cf), cf.report, g_csp, None, None),
        row("TSP-CF*", _opt_params(star), star.report, g_csp, g_cf, None),
        row("TSP", _opt_params(tsp), tsp.report, g_csp, g_cf, g_star),
    ]


TABLE2_HEADER = [
    "setting", "policy", "f_E", "f_LE", "tau_F", "tau_C",
    "E[M]", "E[G^V]",
    "benefit-vs-CSP%", "benefit-vs-TSP-CF%", "benefit-vs-TSP-CF*%",
]


def _table_csv(header: list[str], rows: list[dict]) -> str:
    out = []
    for r in rows:
        cells = []
        for key in header:
            val = r[key]
            if key in ("f_E", "f_LE"):
                cells.append(_fee_cell(val))
            elif isinstance(val, float):
                cells.append(f"{val:.4f}")
            elif val is None:
                cells.append("")
            else:
                cells.append(str(val))
        out.append(cells)
    return _csv_text(header, out)


def cmd_reproduce_table2(args) -> int:
    args.all_presets_default = True
    rows = []
    for exp in _experiments(args):
        rows.extend(_table2_rows(exp))
    if (args.format or "csv") == "json":
        _emit(_json_text({"benefit_convention": BENEFIT_NOTE, "rows": rows}), args.out)
    else:
        _emit(_table_csv(TABLE2_HEADER, rows), args.out)
    return 0


TABLE3_HEADER = [
    "setting", "tau_C", "f_E", "f_LE", "tau_F",
    "E[M]", "E[G^V]", "benefit-of-best%",
]


def _table3_rows(exp: Experiment) -> list[dict]:
    sc = exp.scenario
    T = sc.period_length
    grid = exp.search_grid()
    bound = exp.shared_bound()
    cutoffs = [tc for tc in (T - 1, T - 2, T - 3) if tc >= 1]
    opts = [
        optimize_family(
            sc, "TSP", SearchGrid(grid.fee_values, (tc, tc)), bound=bound
        )
        for tc in cutoffs
    ]
    g_best = opts[0].report.variable_profit
    rows = []
    for tc, opt in zip(cutoffs, opts):
        params = _opt_params(opt)
        g = opt.report.variable_profit
        rows.append(
            {
                "setting": exp.name,
                "tau_C": tc,
                "f_E": params["f_E"],
                "f_LE": params["f_LE"],
                "tau_F": params["tau_F"],
                "E[M]": opt.report.expected_backorders,
                "E[G^V]": g,
                "benefit-of-best%": None if tc == cutoffs[0] else _benefit(g_best, g),
            }
        )
    return rows


def cmd_reproduce_table3(args) -> int:
    args.all_presets_default = True
    rows = []
    for exp in _experiments(args):
        rows.extend(_table3_rows(exp))
    if (args.format or "csv") == "json":
        _emit(_json_text({"benefit_convention": BENEFIT_NOTE, "rows": rows}), args.out)
    else:
        _emit(_table_csv(TABLE3_HEADER, rows), args.out)
    return 0


SWEEP_HEADER = ["setting", "sweep", "fee", "tau_F", "variable_profit"]


def _sweep_rows(exp: Experiment) -> list[list]:
    """Profit sweeps at the latest cutoff age.

    The express-fee sweep reports, per (f_E, tau_F), the profit envelope
    over all admissible f_LE; the last-minute sweep fixes f_E at the
    setting's optimum and varies f_LE directly.
    """
    sc = exp.scenario
    T = sc.period_length
    u_max = sc.choice.u_max
    grid = exp.search_grid()
    fees = grid.fee_values
    tc = T - 1
    bound = exp.shared_bound()
    evaluator = PolicyEvaluator(sc, bound)

    triples = [
        (tf, fe, fle)
        for tf in range(tc)
        for i, fe in enumerate(fees)
        for fle in fees[i + 1 :]
    ]
    policies = [
        build_policy("TSP", SimpleTspParams(fe, fle, tf, tc), T, u_max)
        for tf, fe, fle in triples
    ]
    profits, _ = evaluator.profits_batch([p.fees for p in policies])
    envelope: dict[tuple[int, float], float] = {}
    for (tf, fe, _), profit in zip(triples, profits):
        key = (tf, fe)
        if key not in envelope or profit > envelope[key]:
            envelope[key] = float(profit)
    rows = [
        [exp.name, "express_fee", f"{fe:g}", tf, f"{g:.6f}"]
        for (tf, fe), g in sorted(envelope.items())
    ]

    f_star = optimize_family(sc, "TSP", grid, bound=bound).family_params.express_fee
    pairs = [(tf, fle) for tf in range(tc) for fle in fees if fle > f_star]
    policies = [
        build_policy("TSP", SimpleTspParams(f_star, fle, tf, tc), T, u_max)
        for tf, fle in pairs
    ]
    profits, _ = evaluator.profits_batch([p.fees for p in policies])
    rows.extend(
        [exp.name, "lastminute_fee", f"{fle:g}", tf, f"{float(g):.6f}"]
        for (tf, fle), g in sorted(zip(pairs, profits))
    )
    return rows


def cmd_sweep_figures(args) -> int:
    args.all_presets_default = True
    rows = []
    for exp in _experiments(args):
        rows.extend(_sweep_rows(exp))
    if (args.format or "csv") == "json":
        payload = [dict(zip(SWEEP_HEADER, r)) for r in rows]
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv_text(SWEEP_HEADER, rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# Verify: built-in property suites.


def _verify_form_invariance(rng: np.random.Generator, lines: list[str]) -> bool:
    choice = ChoiceModel(4.0, 0.0, 4.0)
    sc = Scenario.from_utilization(4, 2.0, 0.9, 0.5, 10, choice, 8.0)
    bound = find_bound(sc)
    worst = 0.0
    for _ in range(50):
        cutoff = int(rng.integers(0, sc.period_length))
        partial = tuple(
            float(rng.uniform(0.2, 3.8)) for _ in range(cutoff + 1)
        )
        canon = canonicalize(cutoff, partial, sc.period_length, choice.u_max)
        cut = cutoff_form(cutoff, partial, sc.period_length)
        a = evaluate_policy(sc, canon, bound=bound).as_dict()
        b = evaluate_policy(sc, cut, bound=bound).as_dict()
        for key, av in a.items():
            bv = b[key]
            pairs = zip(av, bv) if isinstance(av, list) else [(av, bv)]
            for x, y in pairs:
                if isinstance(x, float) and math.isnan(x) and math.isnan(y):
                    continue
                worst = max(worst, abs(x - y))
    ok = worst <= 1e-12
    lines.append(
        f"{'PASS' if ok else 'FAIL'} cutoff-form-invariance: 50 random cutoff "
        f"policies, max report deviation {worst:.3e} (tol 1e-12)"
    )
    return ok


def _verify_dominance(rng: np.random.Generator, lines: list[str]) -> bool:
    from .optimize import dominance_experiment

    choice = ChoiceModel(4.0, 0.0, 4.0)
    failures = 0
    total = 100
    for i in range(total):
        T = int(rng.integers(2, 5))
        lam = float(rng.uniform(1.0, 3.0))
        sc = Scenario.from_utilization(
            T, lam, float(rng.uniform(0.8, 0.95)), 0.5, 10, choice, 8.0
        )
        w = rng.uniform(0.0, 1.0, size=T)
        dominating = np.sort(w)[::-1]
        perm = rng.permutation(w)
        prof = CumulativeDemandProfile(lam, tuple(np.cumsum(dominating * lam)))
        prof_p = CumulativeDemandProfile(lam, tuple(np.cumsum(perm * lam)))
        f = profile_to_fees(prof, choice)
        f_p = profile_to_fees(prof_p, choice)
        try:
            dominance_experiment(sc, f, f_p)
        except NumericsError:
            failures += 1
    ok = failures == 0
    lines.append(
        f"{'PASS' if ok else 'FAIL'} demand-dominance: {total - failures}/"
        f"{total} dominated pairs kept E[M] ordered (slack 1e-09)"
    )
    return ok


def _verify_monotone_grid(
    rng: np.random.Generator, small_t: int, lines: list[str]
) -> bool:
    choice = ChoiceModel(4.0, 0.0, 4.0)
    grid = SearchGrid((0.5, 1.0, 1.5, 2.0, 2.5), (1, small_t - 1))
    hits = 0
    total = 10
    for _ in range(total):
        sc = Scenario.from_utilization(
            small_t,
            float(rng.uniform(1.0, 3.0)),
            float(rng.uniform(0.8, 0.95)),
            0.5,
            10,
            choice,
            float(rng.uniform(2.0, 15.0)),
        )
        argmax = exhaustive_fee_vector_search(sc, grid)
        hits += any(is_weakly_monotone(p) for p in argmax)
    ok = hits == total
    lines.append(
        f"{'PASS' if ok else 'FAIL'} monotone-grid: {hits}/{total} argmax "
        f"sets contain a weakly monotone vector (T={small_t})"
    )
    return ok


def _verify_kernel(lines: list[str]) -> bool:
    choice = ChoiceModel(4.0, 0.0, 4.0)
    sc = Scenario.from_utilization(4, 2.0, 0.9, 0.5, 10, choice, 8.0)
    bound = find_bound(sc)
    ev = PolicyEvaluator(sc, bound)
    pols = [
        build_policy("CSP", 2.0, 4, choice.u_max),
        build_policy("TSP", SimpleTspParams(1.0, 3.0, 1, 2), 4, choice.u_max),
        FeeStructure(4, (0.0, 4.0, 2.5, math.inf)),
    ]
    worst_mass = max(
        abs(float(J.sum()) - 1.0) for p in pols for J in ev.joints(p.fees)
    )
    # the workload chain's kernel and every stepped fee's regular-order kernel
    kernels = [_shift_matrix(ev._shift, ev._nb, np.arange(bound + 1), bound)]
    kernels += [step.R for step in ev._steps.values()]
    worst_row = max(float(np.max(np.abs(K.sum(axis=1) - 1.0))) for K in kernels)
    thr = sc.rejection_threshold
    minimal = ev.rejection_probability() <= thr and (
        bound == 1 or PolicyEvaluator(sc, bound - 1).rejection_probability() > thr
    )
    ok = worst_row <= 1e-12 and worst_mass <= 1e-12 and minimal
    lines.append(
        f"{'PASS' if ok else 'FAIL'} kernel-truncation: max |row sum - 1| over "
        f"{len(kernels)} shift kernels = {worst_row:.3e}, max |push mass - 1| = "
        f"{worst_mass:.3e} (tol 1e-12); bound {bound} minimal: {minimal}"
    )
    return ok


def _verify_workload(lines: list[str]) -> bool:
    choice = ChoiceModel(4.0, 0.0, 4.0)
    sc = Scenario.from_utilization(4, 2.0, 0.9, 0.5, 10, choice, 8.0)
    bound = 15
    pols = [
        build_policy("CSP", 0.4, 4, choice.u_max),
        build_policy("CSP", 3.6, 4, choice.u_max),
        build_policy("TSP", SimpleTspParams(1.0, 2.0, 1, 3), 4, choice.u_max),
    ]
    dists = [steady_state(sc, p, bound) for p in pols]
    worst = 0.0
    for age in range(sc.period_length):
        ref = dists[0].workload_marginal(age)
        for d in dists[1:]:
            worst = max(worst, float(np.max(np.abs(d.workload_marginal(age) - ref))))
    ok = worst <= 1e-9
    lines.append(
        f"{'PASS' if ok else 'FAIL'} workload-invariance: max marginal "
        f"deviation across policies {worst:.3e} (tol 1e-09)"
    )
    return ok


def _verify_oracle(seed: int, lines: list[str]) -> bool:
    choice = ChoiceModel(4.0, 0.0, 4.0)
    sc = Scenario.from_utilization(4, 2.0, 0.9, 0.5, 10, choice, 8.0)
    policy = build_policy("CSP", 2.0, 4, choice.u_max)
    bound = find_bound(sc)
    exact = evaluate_policy(sc, policy, bound=bound)
    rec = simulate(
        sc, policy, SimConfig(cycles=51_000, warmup_cycles=1000, seed=seed,
                              bound=bound, streams=100)
    )
    z = abs(
        rec.report.expected_backorders - exact.expected_backorders
    ) / rec.halfwidth_backorders
    ok = z <= 3.0
    lines.append(
        f"{'PASS' if ok else 'FAIL'} oracle-agreement: E[M] z-score "
        f"{z:.2f} over 50000 measured cycles (limit 3)"
    )
    return ok


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    lines: list[str] = []
    results = [
        _verify_form_invariance(rng, lines),
        _verify_dominance(rng, lines),
        _verify_monotone_grid(rng, max(args.small_t, 2), lines),
        _verify_kernel(lines),
        _verify_workload(lines),
        _verify_oracle(args.seed if args.seed is not None else 0, lines),
    ]
    passed = sum(results)
    lines.append(f"{passed}/{len(results)} property suites passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed == len(results) else 2


# ---------------------------------------------------------------------------
# Entry point.


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to an experiment config JSON")
    common.add_argument("--preset", help=f"bundled preset: {', '.join(PRESETS)}")
    common.add_argument("--out", help="output path (stdout when omitted)")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--seed", type=int, help="override the random seed")
    common.add_argument(
        "--rejection-threshold",
        type=float,
        default=0.023,
        help="acceptable stationary per-period rejection probability",
    )
    parser = argparse.ArgumentParser(
        prog="shipfees",
        description="Shipment-fee policy evaluation and optimization runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("evaluate", cmd_evaluate),
        ("optimize", cmd_optimize),
        ("simulate", cmd_simulate),
        ("reproduce-table2", cmd_reproduce_table2),
        ("reproduce-table3", cmd_reproduce_table3),
        ("sweep-figures", cmd_sweep_figures),
    ):
        sp = sub.add_parser(name, parents=[common])
        sp.set_defaults(func=fn)
    vp = sub.add_parser("verify", parents=[common])
    vp.add_argument(
        "--small-T", dest="small_t", type=int, default=3,
        help="cycle length for the exhaustive-search property suite",
    )
    vp.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    args.all_presets_default = False
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
