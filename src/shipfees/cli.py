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
verify runs on built-in scenarios and takes only --seed and --out.
JSON uses Python float repr (shortest round-trip, at most 17 significant
digits), so emitted reports re-parse bit-exactly; non-finite values (an
undefined mean delay, the runner-up gap of a one-candidate grid) are written
as null, so the output is strict JSON.  CSV uses '.' decimals, comma
delimiters, a header row and one cell rule: empty for a missing value, the
fee text (%g where it reads back as the same float, else repr) for the fees
f_E and f_LE, and repr for other floats, or 4 decimals in the tables.
sweep-figures writes fee (fee text) and variable_profit (6 decimals) as
strings, in its JSON too.  "Benefit" columns are relative profit deviations
100*(a-b)/|b|; the absolute value keeps the sign meaningful for loss-making
baselines.  Exit codes: 0 success, 1 validation failure, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from importlib import resources

import numpy as np

from .chain import (
    PolicyEvaluator,
    Scenario,
    _shift_matrix,
)
from .choice import ChoiceModel
from .distributions import Pmf, check_bound
from .errors import NumericsError, ParameterError, is_integer, is_real, shown
from .measures import evaluate_policy, policy_report
from .optimize import (
    FAMILIES as SEARCH_FAMILIES,
    Optimum,
    SearchGrid,
    _is_weakly_monotone,
    _validated_grid,
    dominance_experiment,
    exhaustive_fee_vector_search,
    optimize_families,
    optimize_family,
    revenue_max_fee,
)
from .policies import (
    FAMILIES,
    FeeStructure,
    build_policy,
    canonicalize,
    cutoff_form,
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

REQUIRED = object()  # the default of a field that must be given

# dotted path: (kind, default).  A kind is "block", a key of SCALARS, or
# (entry kind, shape) for an array.
FIELDS = {
    "scenario": ("block", REQUIRED),
    "scenario.T": ("integer", REQUIRED),
    "scenario.lambda": ("number", REQUIRED),
    "scenario.utilization": ("number", REQUIRED),
    "scenario.scv": ("number", REQUIRED),
    "scenario.capacity_support_max": ("integer", REQUIRED),
    "scenario.capacity_pmf": (("number", "a nonempty array"), REQUIRED),
    "scenario.truncation_bound": ("integer", None),
    "choice": ("block", REQUIRED),
    "choice.regular_price": ("number", REQUIRED),
    "choice.u_min": ("number", REQUIRED),
    "choice.u_max": ("number", REQUIRED),
    "penalty": ("number", REQUIRED),
    "grid": ("block", None),
    "grid.fee_values": (("number", "a nonempty array"), REQUIRED),
    "grid.cutoff_range": (("integer", "[low, high]"), None),
    "policy": ("block", REQUIRED),
    "policy.family": ("family", REQUIRED),
    "policy.fee": ("number", REQUIRED),
    "policy.cutoff_age": ("integer", REQUIRED),
    "policy.express_fee": ("number", REQUIRED),
    "policy.lastminute_fee": ("number", REQUIRED),
    "policy.switch_age": ("integer", REQUIRED),
    "policy.fees": (("fee", "an array"), REQUIRED),
    "optimize": ("block", None),
    "optimize.family": ("search", "TSP"),
    "simulate": ("block", None),
    "simulate.cycles": ("integer", 101_000),
    "simulate.warmup_cycles": ("integer", SimConfig.warmup_cycles),
    "simulate.seed": ("integer", SimConfig.seed),
    "simulate.streams": ("integer", SimConfig.streams),
}

# the policy block's fields of each family, in build_policy's params order
POLICY_FIELDS = {**FAMILIES, "vector": ("fees",)}

# scalar kind: (the test of a JSON value, its name in a diagnostic); numbers
# pass the library's input rule, and a null fee is math.inf, express not offered
SCALARS = {"number": (is_real, "a number"), "integer": (is_integer, "an integer"),
           "fee": (lambda v: v is None or is_real(v, inf=True), "a number"),
           "family": (lambda v: isinstance(v, str) and v in POLICY_FIELDS,
                      "CSP, TSP_CF, TSP, or vector"),
           "search": (lambda v: isinstance(v, str) and v in SEARCH_FAMILIES,
                      " or ".join(SEARCH_FAMILIES))}
# array shape: the lengths it admits
SHAPES = {"an array": range(sys.maxsize), "a nonempty array": range(1, sys.maxsize),
          "[low, high]": range(2, 3)}


def _check(val, kind, path: str):
    """val (a null fee as math.inf) if it is of the kind, else a ParameterError."""
    if isinstance(kind, tuple):
        entry, shape = kind
        if not isinstance(val, list) or len(val) not in SHAPES[shape]:
            raise ParameterError(f"{path}: expected {shape}")
        return [_check(v, entry, f"{path}[{i}]") for i, v in enumerate(val)]
    test, name = SCALARS[kind]
    if not test(val):
        raise ParameterError(f"{path}: expected {name}, got {shown(val)}")
    return math.inf if val is None else val


def _parse(cfg: dict, block: str = "") -> dict:
    """{dotted path: value} of every field in cfg (a block's value is its
    object), each of the kind FIELDS gives it."""
    fields = {}
    for key, val in cfg.items():
        path = f"{block}.{key}" if block else key
        if "." in key or path not in FIELDS:
            raise ParameterError(f"{path}: unknown field")
        kind = FIELDS[path][0]
        if kind != "block":
            val = _check(val, kind, path)
        elif isinstance(val, dict):
            fields.update(_parse(val, path))
        else:
            raise ParameterError(f"{path}: expected an object")
        fields[path] = val
    return fields


def _load_json(text: str, origin: str) -> dict:
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # malformed, or an integer of over 4300 digits
        raise ParameterError(f"{origin}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError(f"{origin}: top level must be an object")
    return cfg


def load_preset(name: str) -> dict:
    """Parsed config of one bundled preset."""
    if name not in PRESETS:
        raise ParameterError(
            f"unknown preset {shown(name)}; available: {', '.join(PRESETS)}"
        )
    text = resources.files("shipfees").joinpath(
        "presets", f"{name}.json"
    ).read_text()
    return _load_json(text, f"preset {name}")


def _named(path: str, build, *args):
    """build(*args), a ParameterError from it re-raised as '<path>: <message>'."""
    try:
        return build(*args)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


class Experiment:
    """One parsed experiment: scenario plus optional command blocks."""

    def __init__(self, name: str, cfg: dict, rejection_threshold: float):
        self.name = name
        self.fields = _parse(cfg)
        get = self.get
        T, lam = get("scenario.T"), get("scenario.lambda")
        choice = _named(
            "choice", ChoiceModel,
            get("choice.regular_price"), get("choice.u_min"), get("choice.u_max"),
        )
        penalty = get("penalty")
        sources = [
            k for k in ("utilization", "capacity_pmf") if f"scenario.{k}" in self.fields
        ]
        if len(sources) != 1:
            raise ParameterError(
                "scenario: exactly one of utilization, capacity_pmf is "
                f"required, got {sources or 'none'}"
            )
        if sources[0] == "capacity_pmf":
            # the pmf is the whole capacity model, so nothing reads these
            for path in ("scenario.scv", "scenario.capacity_support_max"):
                if path in self.fields:
                    raise ParameterError(f"{path}: unknown field")
            capacity = _named("scenario.capacity_pmf", Pmf, get("scenario.capacity_pmf"))
            self.scenario = _named(
                "scenario", Scenario, T, lam, capacity, choice, penalty,
                rejection_threshold,
            )
        else:
            self.scenario = _named(
                "scenario", Scenario.from_utilization,
                T, lam, get("scenario.utilization"), get("scenario.scv"),
                get("scenario.capacity_support_max"), choice, penalty,
                rejection_threshold,
            )
        self.bound = bound = get("scenario.truncation_bound")
        if bound is not None:
            self.bound = _named("scenario.truncation_bound", check_bound, "bound", bound)
        self._grid = None  # no grid block: the default lattice, checked when read
        if "grid" in self.fields:
            rng = get("grid.cutoff_range") or SearchGrid.default(T).cutoff_range
            grid = _named("grid", SearchGrid, get("grid.fee_values"), rng)
            self._grid = _named("grid", _validated_grid, self.scenario, grid)

    @property
    def grid(self) -> SearchGrid:
        """The grid block's grid, else the default lattice checked against
        the scenario, as only the searches read it."""
        if self._grid is not None:
            return self._grid
        path = "grid: the default lattice 0.2..3.8 (no grid block)"
        return _named(path, _validated_grid, self.scenario, None)

    def get(self, path: str):
        """The value of the field at path, else its default; a missing
        required field, or one in a missing required block, is an error."""
        if path in self.fields:
            return self.fields[path]
        if "." in path:
            self.get(path.rpartition(".")[0])
        kind, default = FIELDS[path]
        if default is not REQUIRED:
            return default
        if isinstance(kind, tuple):
            raise ParameterError(f"{path}: expected {kind[1]}")
        raise ParameterError(f"{path}: missing required {kind}")

    def policy(self) -> FeeStructure:
        T = self.scenario.period_length
        family = self.get("policy.family")
        names = POLICY_FIELDS[family]
        for key in self.get("policy"):
            if key not in ("family", *names):
                raise ParameterError(f"policy.{key}: not a field of the {family} family")
        params = [self.get(f"policy.{name}") for name in names]
        if family == "vector":
            return _named("policy.fees", FeeStructure, T, params[0])
        params = params[0] if family == "CSP" else params
        u_max = self.scenario.choice.u_max
        return _named("policy", build_policy, family, params, T, u_max)

    def sim_config(self, seed_override: int | None) -> SimConfig:
        get = self.get
        seed = get("simulate.seed") if seed_override is None else seed_override
        return _named(
            "simulate", SimConfig, get("simulate.cycles"),
            get("simulate.warmup_cycles"), seed, self.bound, get("simulate.streams"),
        )


def _experiments(args, all_presets: bool = False) -> list[Experiment]:
    """Experiments selected by --config/--preset, else every preset if asked."""
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
    if all_presets:
        return [Experiment(n, load_preset(n), thr) for n in PRESETS]
    raise ParameterError("a --config file or --preset name is required")


# ---------------------------------------------------------------------------
# Emission.


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"--out {out}: {exc}") from exc


def _strict(obj):
    """Copy of a JSON payload with non-finite floats replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _fee_text(fee: float) -> str:
    """fee in %g form if that reads back as the same float, else its repr."""
    return f"{fee:g}" if float(f"{fee:g}") == fee else repr(float(fee))


def _cell(key: str, val, places: int | None) -> str:
    """CSV cell: empty for missing, the fees f_E and f_LE as fee text, other
    floats as their round-trip repr or to places decimals."""
    if val is None:
        return ""
    if key in ("f_E", "f_LE"):
        return _fee_text(val)
    if isinstance(val, float):
        # float() strips numpy scalar wrappers so the repr round-trips
        return repr(float(val)) if places is None else f"{val:.{places}f}"
    return str(val)


def _flat(record: dict) -> dict:
    """record with nested dicts spliced in place and each tuple entry as
    key_0, key_1, ..."""
    out = {}
    for key, val in record.items():
        if isinstance(val, dict):
            out.update(_flat(val))
        elif isinstance(val, tuple):
            out.update((f"{key}_{i}", v) for i, v in enumerate(val))
        else:
            out[key] = val
    return out


def _emit_rows(args, default: str, payload, rows: list[dict], places=None) -> None:
    """The JSON payload, or the rows as CSV with their keys as the header, by
    --format, else by default."""
    if (args.format or default) == "json":
        text = json.dumps(_strict(payload), indent=2, allow_nan=False) + "\n"
    else:
        cells = [[_cell(key, val, places) for key, val in row.items()] for row in rows]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([list(rows[0]), *cells])
        text = buf.getvalue()
    _emit(text, args.out)


def _opt_params(opt: Optimum) -> dict:
    """f_E, f_LE, tau_F, tau_C of an optimum's point; only TSP fills f_LE, tau_F."""
    f_e, f_le, tau_f, tau_c = opt.point
    if opt.family != "TSP":
        f_le = tau_f = None
    return {"f_E": f_e, "f_LE": f_le, "tau_F": tau_f, "tau_C": tau_c}


BENEFIT_NOTE = "percent benefit = 100 * (a - b) / abs(b); sign-safe for negative baselines"


def _benefit(a: float, b: float) -> float:
    """Percent improvement of a over baseline b, absolute-value denominator."""
    return 100.0 * (a - b) / abs(b)


# ---------------------------------------------------------------------------
# Commands.


def cmd_evaluate(args) -> int:
    exp = _experiments(args)[0]
    report = asdict(evaluate_policy(exp.scenario, exp.policy(), bound=exp.bound))
    _emit_rows(args, "json", report, [_flat(report)])
    return 0


def cmd_optimize(args) -> int:
    exp = _experiments(args)[0]
    opt = optimize_family(exp.scenario, exp.get("optimize.family"), exp.grid, bound=exp.bound)
    params, report = _opt_params(opt), opt.report
    keys = ("evaluations", "runner_up_gap", "tie_broken")
    tail = {key: getattr(opt, key) for key in keys}
    payload = {"family": opt.family, **params, "fees": list(opt.best_policy.fees)}
    payload.update(tail, report=asdict(report))
    row = {"family": opt.family, **params, "E[M]": report.expected_backorders}
    row.update({"E[G^V]": report.variable_profit, **tail})
    _emit_rows(args, "json", payload, [row])
    return 0


def cmd_simulate(args) -> int:
    exp = _experiments(args)[0]
    rec = asdict(simulate(exp.scenario, exp.policy(), exp.sim_config(args.seed)))
    _emit_rows(args, "json", rec, [_flat(rec)])
    return 0


TABLE2_BENEFITS = ("benefit-vs-CSP%", "benefit-vs-TSP-CF%", "benefit-vs-TSP-CF*%")


def _table2_rows(exp: Experiment) -> list[dict]:
    """CSP, TSP-CF, TSP-CF* and TSP, each with its benefit over the rows
    above it.  The CSP is the TSP_CF search at the revenue-maximizing fee
    and cutoff T - 1, whose one fee vector is the CSP's."""
    sc = exp.scenario
    last = sc.period_length - 1
    f_rm = revenue_max_fee(sc.choice)
    searches = [
        ("TSP_CF_star", SearchGrid((f_rm,), (last, last))),
        ("TSP_CF_star", SearchGrid((f_rm,), exp.grid.cutoff_range)),
        ("TSP_CF_star", exp.grid),
        ("TSP", exp.grid),
    ]
    optima = optimize_families(sc, searches, bound=exp.bound)
    rows: list[dict] = []
    for name, opt in zip(("CSP", "TSP-CF", "TSP-CF*", "TSP"), optima):
        params = _opt_params(opt) if rows else {**_opt_params(opt), "tau_C": None}
        g = opt.report.variable_profit
        benefits = [_benefit(g, row["E[G^V]"]) for row in rows] + [None] * 3
        rows.append({
            "setting": exp.name,
            "policy": name,
            **params,
            "E[M]": opt.report.expected_backorders,
            "E[G^V]": g,
            **dict(zip(TABLE2_BENEFITS, benefits)),
        })
    return rows


def _table3_rows(exp: Experiment) -> list[dict]:
    """Optimal TSP at each fixed cutoff T-1, T-2, T-3 (those >= 1)."""
    sc = exp.scenario
    T = sc.period_length
    fees = exp.grid.fee_values
    cutoffs = [tc for tc in (T - 1, T - 2, T - 3) if tc >= 1]
    optima = optimize_families(
        sc, [("TSP", SearchGrid(fees, (tc, tc))) for tc in cutoffs],
        bound=exp.bound,
    )
    g_best = optima[0].report.variable_profit
    return [
        {
            "setting": exp.name,
            "tau_C": None,  # the cutoff is the second column; _opt_params fills it
            **_opt_params(opt),
            "E[M]": opt.report.expected_backorders,
            "E[G^V]": opt.report.variable_profit,
            "benefit-of-best%": (
                _benefit(g_best, opt.report.variable_profit) if k else None
            ),
        }
        for k, opt in enumerate(optima)
    ]


SWEEP_HEADER = ["setting", "sweep", "fee", "tau_F", "variable_profit"]


def _sweep_rows(exp: Experiment) -> list[dict]:
    """Profit sweeps at the latest cutoff age.

    One batch holds the grid's TSP search, whose winner fixes the optimal
    f_E, and the TSP search at cutoff T - 1, in the grid's cutoff range or
    not, whose scored candidates the sweeps read.  The express-fee sweep
    reports, per (f_E, tau_F), the profit envelope over all admissible
    f_LE; the last-minute sweep fixes f_E at the optimum and varies f_LE.
    """
    sc = exp.scenario
    tc = sc.period_length - 1
    best, cut = optimize_families(
        sc,
        [("TSP", exp.grid), ("TSP", SearchGrid(exp.grid.fee_values, (tc, tc)))],
        bound=exp.bound,
    )
    f_star = best.point[0]
    envelope: dict[tuple[int, float], float] = {}
    lastminute = []
    for (fe, fle, tf, _), profit in zip(cut.points, cut.profits):
        if profit > envelope.get((tf, fe), -math.inf):
            envelope[tf, fe] = profit
        if fe == f_star:
            lastminute.append(((tf, fle), profit))
    return [
        dict(zip(SWEEP_HEADER, (exp.name, sweep, _fee_text(fee), tf, f"{g:.6f}")))
        for sweep, points in (
            ("express_fee", sorted(envelope.items())),
            ("lastminute_fee", sorted(lastminute)),
        )
        for (tf, fee), g in points
    ]


# command: (rows of one experiment, JSON note; None emits a bare list)
TABLES = {
    "reproduce-table2": (_table2_rows, BENEFIT_NOTE),
    "reproduce-table3": (_table3_rows, BENEFIT_NOTE),
    "sweep-figures": (_sweep_rows, None),
}


def cmd_table(args) -> int:
    """One table over the selected experiments (every preset if none); each
    row's keys, in order, are the CSV header and the JSON row's keys."""
    rows_fn, note = TABLES[args.command]
    rows = [row for exp in _experiments(args, all_presets=True) for row in rows_fn(exp)]
    payload = rows if note is None else {"benefit_convention": note, "rows": rows}
    _emit_rows(args, "csv", payload, rows, places=4)
    return 0


# ---------------------------------------------------------------------------
# Verify: built-in property suites.

_CHOICE = ChoiceModel(4.0, 0.0, 4.0)


def _verify_form_invariance(sc: Scenario, rng: np.random.Generator) -> tuple[bool, str]:
    ev = PolicyEvaluator(sc, None)
    worst = 0.0
    for _ in range(50):
        cutoff = rng.integers(0, sc.period_length)
        partial = [rng.uniform(0.2, 3.8) for _ in range(cutoff + 1)]
        canon = canonicalize(cutoff, partial, sc.period_length, _CHOICE.u_max)
        cut = cutoff_form(cutoff, partial, sc.period_length)
        a, b = (_flat(asdict(policy_report(ev, p))) for p in (canon, cut))
        worst = max(worst, *(abs(a[key] - b[key]) for key in a))
    return worst <= 1e-12, (
        "cutoff-form-invariance: 50 random cutoff policies, max report "
        f"deviation {worst:.3e} (tol 1e-12)"
    )


def _verify_dominance(rng: np.random.Generator) -> tuple[bool, str]:
    failures = 0
    total = 100
    for i in range(total):
        T = rng.integers(2, 5)
        sc = Scenario.from_utilization(
            T, rng.uniform(1.0, 3.0), rng.uniform(0.8, 0.95), 0.5, 10, _CHOICE, 8.0
        )
        # the fee of take rate w; ascending fees front-load express demand
        w = rng.uniform(0.0, 1.0, size=T)
        fees = _CHOICE.u_min + (1.0 - w) * (_CHOICE.u_max - _CHOICE.u_min)
        f = FeeStructure(T, np.sort(fees))
        f_p = FeeStructure(T, rng.permutation(fees))
        try:
            dominance_experiment(sc, f, f_p)
        except NumericsError:
            failures += 1
    return failures == 0, (
        f"demand-dominance: {total - failures}/{total} dominated pairs kept "
        "E[M] ordered (slack 1e-09)"
    )


def _verify_monotone_grid(rng: np.random.Generator) -> tuple[bool, str]:
    T = 3  # the exhaustive search scores 5**T fee vectors per scenario
    grid = SearchGrid((0.5, 1.0, 1.5, 2.0, 2.5), (1, T - 1))
    hits = 0
    total = 10
    for _ in range(total):
        sc = Scenario.from_utilization(
            T, rng.uniform(1.0, 3.0), rng.uniform(0.8, 0.95), 0.5, 10, _CHOICE,
            rng.uniform(2.0, 15.0),
        )
        argmax = exhaustive_fee_vector_search(sc, grid)
        hits += any(_is_weakly_monotone(p) for p in argmax)
    return hits == total, (
        f"monotone-grid: {hits}/{total} argmax sets contain a weakly monotone "
        f"vector (T={T})"
    )


def _verify_kernel(sc: Scenario) -> tuple[bool, str]:
    # a fresh evaluator: the kernels counted are those of the steps it holds
    ev = PolicyEvaluator(sc, None)
    bound = ev.bound
    pols = [
        build_policy("CSP", 2.0, 4, _CHOICE.u_max),
        build_policy("TSP", (1.0, 3.0, 1, 2), 4, _CHOICE.u_max),
        FeeStructure(4, (0.0, 4.0, 2.5, math.inf)),
    ]
    worst_mass = max(
        abs(float(J.sum()) - 1.0) for p in pols for J in ev.joints(p.fees)
    )
    # the workload chain's kernel and every stepped fee's headroom and
    # regular-order kernels
    kernels = [_shift_matrix(ev._shift, sc.capacity.support_max, range(bound + 1), bound)]
    kernels += [K for step in ev._steps.values() for K in (step.H, step.R)]
    worst_row = max(float(np.max(np.abs(K.sum(axis=1) - 1.0))) for K in kernels)
    thr = sc.rejection_threshold
    minimal = ev.rejection_probability() <= thr and (
        bound == 1 or PolicyEvaluator(sc, bound - 1).rejection_probability() > thr
    )
    ok = worst_row <= 1e-12 and worst_mass <= 1e-12 and minimal
    return ok, (
        f"kernel-truncation: max |row sum - 1| over {len(kernels)} shift "
        f"kernels = {worst_row:.3e}, max |push mass - 1| = {worst_mass:.3e} "
        f"(tol 1e-12); bound {bound} minimal: {minimal}"
    )


def _verify_workload(sc: Scenario) -> tuple[bool, str]:
    ev = PolicyEvaluator(sc, 15)
    pols = [
        build_policy("CSP", 0.4, 4, _CHOICE.u_max),
        build_policy("CSP", 3.6, 4, _CHOICE.u_max),
        build_policy("TSP", (1.0, 2.0, 1, 3), 4, _CHOICE.u_max),
    ]
    # x_s marginal of each age's joint J[x_c, x_s], stacked over the ages
    marginals = [np.array([J.sum(axis=0) for J in ev.joints(p.fees)]) for p in pols]
    worst = max(float(np.max(np.abs(m - marginals[0]))) for m in marginals[1:])
    return worst <= 1e-9, (
        f"workload-invariance: max marginal deviation across policies "
        f"{worst:.3e} (tol 1e-09)"
    )


def _verify_oracle(sc: Scenario, seed: int) -> tuple[bool, str]:
    policy = build_policy("CSP", 2.0, 4, _CHOICE.u_max)
    exact = evaluate_policy(sc, policy)
    rec = simulate(
        sc, policy, SimConfig(cycles=51_000, seed=seed, bound=exact.bound, streams=100)
    )
    z = abs(
        rec.report.expected_backorders - exact.expected_backorders
    ) / rec.halfwidth_backorders
    return z <= 3.0, (
        f"oracle-agreement: E[M] z-score {z:.2f} over 50000 measured cycles "
        "(limit 3)"
    )


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    sc = Scenario.from_utilization(4, 2.0, 0.9, 0.5, 10, _CHOICE, 8.0)
    results = [
        _verify_form_invariance(sc, rng),
        _verify_dominance(rng),
        _verify_monotone_grid(rng),
        _verify_kernel(sc),
        _verify_workload(sc),
        _verify_oracle(sc, seed),
    ]
    passed = sum(ok for ok, _ in results)
    lines = [f"{'PASS' if ok else 'FAIL'} {line}\n" for ok, line in results]
    lines.append(f"{passed}/{len(results)} property suites passed\n")
    _emit("".join(lines), args.out)
    return 0 if passed == len(results) else 2


# ---------------------------------------------------------------------------
# Entry point.


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {shown(text)}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", help="path to an experiment config JSON")
    experiment.add_argument("--preset", help=f"bundled preset: {', '.join(PRESETS)}")
    experiment.add_argument("--format", choices=("csv", "json"))
    experiment.add_argument(
        "--rejection-threshold",
        type=float,
        default=Scenario.rejection_threshold,
        help="acceptable stationary per-period rejection probability",
    )
    # --seed defaults to None on every command that takes it: the parsers
    # share this Action, so a default set on one would reach the other
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, help="override the random seed")
    parser = argparse.ArgumentParser(
        prog="shipfees",
        description="Shipment-fee policy evaluation and optimization runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, parents in (
        ("evaluate", cmd_evaluate, [experiment]),
        ("optimize", cmd_optimize, [experiment]),
        ("simulate", cmd_simulate, [experiment, seed]),
        *((name, cmd_table, [experiment]) for name in TABLES),
        ("verify", cmd_verify, [seed]),
    ):
        sp = sub.add_parser(name, parents=parents)
        sp.add_argument("--out", help="output path (stdout when omitted)")
        sp.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
