"""End-to-end checks of the command line runner.

Most tests drive ``shipfees.cli.main`` in process and inspect the
captured stdout/stderr, so the assertions cover argument wiring, config
diagnostics, and the exact emission formats; a few run
``python -m shipfees`` in a subprocess to see the exit code and stderr of
usage errors.
"""

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import shipfees
from shipfees.cli import FIELDS, PRESETS, Experiment, _build_parser, load_preset, main

SMALL_CONFIG = {
    "scenario": {
        "T": 4,
        "lambda": 2.0,
        "utilization": 0.8,
        "scv": 0.5,
        "capacity_support_max": 8,
    },
    "choice": {"regular_price": 4.0, "u_min": 0.0, "u_max": 4.0},
    "penalty": 6.0,
    "grid": {"fee_values": [1.0, 2.0, 3.0], "cutoff_range": [1, 3]},
    "policy": {"family": "CSP", "fee": 2.0},
    "optimize": {"family": "TSP"},
    "simulate": {"cycles": 3000, "warmup_cycles": 500, "streams": 8, "seed": 1},
}


# a valid TSP policy block for SMALL_CONFIG's T = 4
TSP_POLICY = {"family": "TSP", "express_fee": 1.0, "lastminute_fee": 2.0,
              "switch_age": 1, "cutoff_age": 2}


GOLDEN_CONFIG = json.loads(
    (Path(__file__).parent / "golden" / "rho085_c8_cut13.json").read_text()
)["config"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_under_memory_limit(argv, limit):
    """cli.main(argv) in a fresh interpreter whose address space is capped at
    limit bytes, so an allocation the refusal should have prevented fails."""
    script = (
        "import resource, sys; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
        "from shipfees.cli import main; "
        f"sys.exit(main({argv!r}))"
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=False, timeout=120,
        env={
            **os.environ,
            "PYTHONPATH": str(Path(shipfees.__file__).parents[1]),
            "OPENBLAS_NUM_THREADS": "1",
        },
    )


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small_config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


class TestConfigHandling:
    def test_bundled_presets_parse(self):
        for name in PRESETS:
            exp = Experiment(name, load_preset(name), 0.023)
            assert exp.scenario.period_length == 8
            assert exp.scenario.lam == 5.0
            assert exp.grid is not None

    def test_golden_config_parses(self):
        exp = Experiment("rho085_c8_cut13", GOLDEN_CONFIG, 0.023)
        assert exp.bound == 30
        assert exp.grid.cutoff_range == (1, 3)
        assert exp.policy().fees == (2.0,) * 8

    def test_grid_defaults_to_the_lattice(self):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        del cfg["grid"]
        exp = Experiment("small", cfg, 0.023)
        assert exp.grid == shipfees.SearchGrid.default(4)

    def test_defaults_are_the_library_defaults(self):
        args = _build_parser().parse_args(["evaluate"])
        assert args.rejection_threshold == shipfees.Scenario.rejection_threshold
        cfg = {k: v for k, v in SMALL_CONFIG.items() if k != "simulate"}
        cfg["grid"] = {"fee_values": [1.0, 2.0]}
        exp = Experiment("defaults", cfg, args.rejection_threshold)
        assert exp.grid.cutoff_range == shipfees.SearchGrid.default(4).cutoff_range
        assert exp.sim_config(None) == shipfees.SimConfig(cycles=101_000)

    def test_unknown_preset(self, capsys):
        code, out, err = run_cli(capsys, "evaluate", "--preset", "nope")
        assert code == 1
        assert "unknown preset 'nope'" in err
        assert "rho085_c8" in err

    def test_missing_lambda(self, capsys, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        del cfg["scenario"]["lambda"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert code == 1
        assert "scenario.lambda" in err

    def test_two_capacity_sources(self, capsys, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["scenario"]["capacity_pmf"] = [0.5, 0.5]
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert code == 1
        assert "exactly one" in err

    def test_config_and_preset_conflict(self, capsys, small_config):
        code, out, err = run_cli(
            capsys, "evaluate",
            "--config", small_config, "--preset", "rho085_c8",
        )
        assert code == 1
        assert "not both" in err

    def test_source_required(self, capsys):
        code, out, err = run_cli(capsys, "evaluate")
        assert code == 1
        assert "--config" in err and "--preset" in err


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestUnknownFields:
    @pytest.mark.parametrize("block", ["", "scenario", "grid", "simulate", "optimize"])
    def test_unknown_key_in_a_block(self, capsys, tmp_path, block):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        (cfg[block] if block else cfg)["extra"] = 1
        path = f"{block}.extra" if block else "extra"
        code, out, err = run_cli(capsys, "evaluate", "--config", write_config(tmp_path, cfg))
        assert code == 1
        assert err == f"error: {path}: unknown field\n"
        assert out == ""

    def test_dotted_key_is_not_a_nested_field(self, capsys, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["scenario.truncation_bound"] = 12
        code, out, err = run_cli(capsys, "evaluate", "--config", write_config(tmp_path, cfg))
        assert code == 1
        assert err == "error: scenario.truncation_bound: unknown field\n"

    def test_typo_config_is_refused(self, capsys, tmp_path):
        # a misspelt pinned bound, a field that is gone, a misspelt block
        cfg = load_preset("rho085_c8")
        scenario = cfg["scenario"]
        scenario["truncation_bond"] = scenario.pop("truncation_bound")
        scenario["mean_capacity"] = 5.0 / 0.85
        cfg["simulate_"] = cfg.pop("simulate")
        code, out, err = run_cli(capsys, "evaluate", "--config", write_config(tmp_path, cfg))
        assert code == 1
        assert err == "error: scenario.truncation_bond: unknown field\n"
        assert out == ""

    @pytest.mark.parametrize(
        "policy, message",
        [
            ({"family": "CSP", "fee": 2.0, "cutoff_age": 3},
             "policy.cutoff_age: not a field of the CSP family"),
            ({"family": "TSP_CF", "fee": 2.0, "cutoff_age": 3, "switch_age": 1},
             "policy.switch_age: not a field of the TSP_CF family"),
            ({"family": "vector", "fee": 2.0, "fees": [1.0, 2.0, 3.0, 3.0]},
             "policy.fee: not a field of the vector family"),
        ],
        ids=["CSP", "TSP_CF", "vector"],
    )
    def test_field_of_another_family(self, capsys, tmp_path, policy, message):
        cfg = {**SMALL_CONFIG, "policy": policy}
        code, out, err = run_cli(capsys, "evaluate", "--config", write_config(tmp_path, cfg))
        assert code == 1
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("key", ["scv", "capacity_support_max"])
    def test_utilization_field_beside_capacity_pmf(self, capsys, tmp_path, key):
        scenario = {"T": 4, "lambda": 2.0, "capacity_pmf": [0.0, 0.1, 0.2, 0.3, 0.4]}
        scenario[key] = SMALL_CONFIG["scenario"][key]
        cfg = {**SMALL_CONFIG, "scenario": scenario}
        code, out, err = run_cli(capsys, "evaluate", "--config", write_config(tmp_path, cfg))
        assert code == 1
        assert err == f"error: scenario.{key}: unknown field\n"
        assert out == ""

    @pytest.mark.parametrize(
        "command",
        ["evaluate", "optimize", "simulate", "reproduce-table2", "reproduce-table3",
         "sweep-figures"],
    )
    def test_field_types_are_checked_at_load_for_every_command(
        self, capsys, tmp_path, command
    ):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["simulate"]["cycles"] = "x"
        code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path, cfg))
        assert code == 1
        assert err == "error: simulate.cycles: expected an integer, got 'x'\n"
        assert out == ""

    def test_number_beyond_the_float_range(self, capsys, tmp_path):
        cfg = {**SMALL_CONFIG, "penalty": 10**400}
        code, out, err = run_cli(capsys, "evaluate", "--config", write_config(tmp_path, cfg))
        assert code == 1
        assert err == (
            "error: penalty: expected a number, got "
            "100000000000000000...0000000000000000000\n"
        )
        assert out == ""


def strict_json(text):
    """Parse JSON, failing on NaN/Infinity literals."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["evaluate", "optimize"])
    def test_nan_penalty_is_a_parameter_error(self, capsys, tmp_path, command):
        cfg = load_preset("rho085_c8")
        cfg["penalty"] = math.nan
        cfg["grid"]["fee_values"] = [2.0, 3.0]
        cfg["policy"] = {"family": "CSP", "fee": 2.0}
        path = tmp_path / "nan_penalty.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and "penalty" in err
        assert "Traceback" not in err
        assert out == ""


    @pytest.mark.parametrize(
        "entry, message",
        [("null", "scenario.capacity_pmf[1]: expected a number"),
         pytest.param("NaN", "scenario.capacity_pmf[1]: expected a number, got nan",
                      id="NaN")],
    )
    def test_non_finite_capacity_pmf(self, capsys, tmp_path, entry, message):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        del cfg["scenario"]["utilization"], cfg["scenario"]["scv"]
        del cfg["scenario"]["capacity_support_max"]
        cfg["scenario"]["capacity_pmf"] = ["@", 0.5]
        path = tmp_path / "pmf.json"
        # json.dumps cannot write a bare NaN entry, so splice it in as text
        path.write_text(json.dumps(cfg).replace('"@"', f"0.5, {entry}"))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and message in err
        assert "utilization" not in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "path, literal, shown",
        [
            *(pytest.param(path, literal, shown, id=f"{path}-{literal}")
              for path in ("penalty", "grid.fee_values[0]", "scenario.capacity_pmf[1]")
              for literal, shown in (("NaN", "nan"), ("Infinity", "inf"),
                                     ("-Infinity", "-inf"))),
            pytest.param("penalty", "1" + "0" * 400,
                         "100000000000000000...0000000000000000000", id="penalty-10**400"),
        ],
    )
    def test_number_outside_the_rule_is_refused_at_its_path(
        self, capsys, tmp_path, path, literal, shown
    ):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        if path.startswith("scenario."):
            del cfg["scenario"]["utilization"], cfg["scenario"]["scv"]
            del cfg["scenario"]["capacity_support_max"]
            cfg["scenario"]["capacity_pmf"] = [0.5, "@"]
        elif path == "penalty":
            cfg["penalty"] = "@"
        else:
            cfg["grid"]["fee_values"][0] = "@"
        # json.dumps cannot write these literals, so splice them in as text
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg).replace('"@"', literal))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(config))
        assert code == 1
        assert err == f"error: {path}: expected a number, got {shown}\n"
        assert out == ""

    def test_integer_beyond_the_string_limit_is_invalid_json(self, capsys, tmp_path):
        # Python reads at most 4300 digits of an integer literal
        config = tmp_path / "config.json"
        text = json.dumps({**SMALL_CONFIG, "penalty": "@"})
        config.write_text(text.replace('"@"', "1" + "0" * 5000))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(config))
        assert code == 1
        assert err.startswith(f"error: {config}: invalid JSON: Exceeds the limit")
        assert err.count("\n") == 1
        assert out == ""


class TestRangeErrors:
    @pytest.mark.parametrize(
        "command, block, key, value, prefix",
        [
            ("optimize", "optimize", "family", "x", "optimize.family"),
            ("simulate", "simulate", "cycles", 100, "simulate"),
            ("evaluate", "scenario", "utilization", 1.5, "scenario"),
            ("evaluate", "choice", "u_min", 5.0, "choice"),
            ("optimize", "grid", "fee_values", [3.0, 2.0, 1.0], "grid"),
            ("evaluate", "policy", "fee", 5.0, "policy"),
            # key None: value is the whole block
            ("evaluate", "policy", None, TSP_POLICY | {"switch_age": 3}, "policy"),
            ("simulate", "policy", None, TSP_POLICY | {"lastminute_fee": 1.0},
             "policy"),
            ("evaluate", "policy", None, TSP_POLICY | {"lastminute_fee": 0.5},
             "policy"),
        ],
    )
    def test_library_range_errors_name_their_block(
        self, capsys, tmp_path, command, block, key, value, prefix
    ):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        if key is None:
            cfg[block] = value
        else:
            cfg[block][key] = value
        path = tmp_path / "out_of_range.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith(f"error: {prefix}: ")

    @pytest.mark.parametrize("command", ["evaluate", "optimize", "reproduce-table2"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("fee_values", [2.0, 4.5],
             "fee_values must lie within the utility range [0.0, 4.0]"),
            ("cutoff_range", [1, 9], "cutoff ages must lie in 0..period_length-1"),
        ],
    )
    def test_grid_is_checked_when_the_config_loads(
        self, capsys, tmp_path, command, key, value, message
    ):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["grid"][key] = value
        path = tmp_path / "grid_out_of_range.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out, err) == (1, "", f"error: grid: {message}\n")

    @pytest.mark.parametrize(
        "command", ["optimize", "reproduce-table2", "reproduce-table3", "sweep-figures"]
    )
    def test_default_lattice_is_checked_by_the_searches(self, capsys, tmp_path, command):
        cfg = {k: v for k, v in SMALL_CONFIG.items() if k != "grid"}
        cfg["choice"] = {"regular_price": 4.0, "u_min": 2.0, "u_max": 2.0}
        path = tmp_path / "no_grid.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "error: grid: the default lattice 0.2..3.8 (no grid block): "
            "fee_values must lie within the utility range [2.0, 2.0]\n"
        )

    def test_default_lattice_is_not_checked_when_the_config_loads(
        self, capsys, tmp_path
    ):
        # the default lattice reaches 3.8, past this u_max, but only a search
        # uses it, so evaluate runs
        cfg = {k: v for k, v in SMALL_CONFIG.items() if k != "grid"}
        cfg["choice"] = {"regular_price": 4.0, "u_min": 0.0, "u_max": 3.0}
        path = tmp_path / "no_grid.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["bound"] >= 1


class TestBoundedInput:
    def test_pinned_bound_above_the_cap(self, capsys, tmp_path):
        cfg = load_preset("rho085_c8")
        cfg["scenario"]["truncation_bound"] = 100000
        path = tmp_path / "huge_bound.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert code == 1
        assert err == (
            "error: scenario.truncation_bound: must lie in 0..2000 "
            "(the cap of find_bound), got 100000\n"
        )
        assert out == ""

    def test_underflowing_capacity_variance(self, capsys, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["scenario"]["lambda"] = 1e-300
        path = tmp_path / "tiny_lambda.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert code == 1
        assert err.startswith("error: scenario: Beta shapes")
        assert out == ""

    def test_fee_grid_beyond_the_enumeration_budget(self, capsys, tmp_path):
        cfg = load_preset("rho085_c8")
        cfg["grid"]["fee_values"] = [round(0.001 * k, 3) for k in range(1, 3999)]
        path = tmp_path / "huge_grid.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 1
        assert err == (
            "error: 223720084 TSP candidates exceed the enumeration budget "
            f"{shipfees.optimize.ENUMERATION_BUDGET}; use a smaller fee grid "
            "or cutoff range\n"
        )
        assert out == ""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("capacity_support_max", 10**7),
            ("capacity_pmf", [1.0] + [0.0] * (shipfees.chain.BOUND_CAP + 1)),
            ("capacity_support_max", 0),
        ],
    )
    def test_capacity_support_above_the_cap(self, capsys, tmp_path, key, value):
        cfg = load_preset("rho085_c8")
        if key == "capacity_pmf":
            for field in ("utilization", "scv", "capacity_support_max"):
                del cfg["scenario"][field]
        cfg["scenario"][key] = value
        path = tmp_path / "huge_capacity.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert code == 1
        # a pmf's support is its length - 1
        support = len(value) - 1 if key == "capacity_pmf" else value
        # capacity_support_max starts at 1, a pmf's support at 0
        low = 0 if key == "capacity_pmf" else 1
        assert err == (
            f"error: scenario.{key}: must lie in {low}..2000 (the cap of "
            f"find_bound), got {support}\n"
        )
        assert out == ""

    def test_oversized_simulation_is_refused_before_allocating(self, tmp_path):
        # 10**9 streams, capped at the 100,000 measured cycles, would need
        # about 27 GiB of chunk arrays; the refusal must come before any of
        # it is allocated, so a 1.5 GB address-space limit holds
        cfg = load_preset("rho085_c8")
        cfg["simulate"] = {"cycles": 101_000, "streams": 10**9}
        path = tmp_path / "huge_streams.json"
        path.write_text(json.dumps(cfg))
        proc = run_under_memory_limit(["simulate", "--config", str(path)], 1_500_000_000)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: simulate.streams: 100000 streams need")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_large_bound_batch_is_refused_before_allocating(self, tmp_path):
        # the preset grid's TSP batch holds 126 run joints and a stack of 7:
        # 133 joints of 1005 x 1005 floats are 1.001 GiB (bound 1003 passes)
        cfg = load_preset("rho085_c8")
        cfg["scenario"]["truncation_bound"] = 1004
        path = tmp_path / "large_bound.json"
        path.write_text(json.dumps(cfg))
        proc = run_under_memory_limit(["optimize", "--config", str(path)], 2**30)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            "error: a batch holding 133 joints at bound 1004 needs 1.001 GiB, over "
            "the 1 GiB limit; use a smaller truncation bound or fee grid\n"
        )
        assert proc.stdout == ""

    def test_poisson_rate_over_the_limit_is_one_error_line(self, tmp_path):
        # exp(-800) underflows to 0, on which the Poisson recurrence never ended
        cfg = load_preset("rho085_c8")
        del cfg["scenario"]["truncation_bound"]
        cfg["scenario"].update(
            {"lambda": 800.0, "utilization": 0.9, "scv": 0.1, "capacity_support_max": 2000}
        )
        path = tmp_path / "lambda800.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "shipfees", "evaluate", "--config", str(path)],
            capture_output=True, text=True, check=False, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(shipfees.__file__).parents[1])},
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: poisson rate 800 is over the limit 708.396, past which "
            "exp(-rate) underflows the normal floats\n"
        )
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "command, T, grid, message",
        [
            # 10**6 joints of 31 x 31 floats at the preset's bound 30: 7.2 GiB
            ("evaluate", 10**6, None,
             "scenario.T: 1000000 ages need 7.16 GiB of joints at bound 30"),
            # 955,500 TSP candidates of 50 fees each: within the budget of
            # 10**6 candidates at T <= 8, over the 160,000 it allows at T = 50
            ("optimize", 50, {"fee_values": [k / 10 for k in range(1, 41)],
                              "cutoff_range": [1, 49]},
             "955500 TSP candidates exceed the enumeration budget 160000;"),
        ],
        ids=["joints", "candidates"],
    )
    def test_long_cycle_is_refused_before_allocating(
        self, tmp_path, command, T, grid, message
    ):
        cfg = load_preset("rho085_c8")
        cfg["scenario"]["T"] = T
        if grid is not None:
            cfg["grid"] = grid
        path = tmp_path / "long_cycle.json"
        path.write_text(json.dumps(cfg))
        proc = run_under_memory_limit([command, "--config", str(path)], 2**30)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: {message}")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("T", [10**400, 10**9], ids=["1e400", "1e9"])
    def test_cycle_beyond_any_evaluator_is_refused_where_it_enters(self, tmp_path, T):
        # 10**9 fees would take 8 GB, 10**400 no tuple can hold: the scenario
        # refuses a T over the ages of 1 GiB of joints at bound 0
        cfg = load_preset("rho085_c8")
        cfg["scenario"]["T"] = T
        path = tmp_path / "long_cycle.json"
        path.write_text(json.dumps(cfg))
        proc = run_under_memory_limit(["evaluate", "--config", str(path)], 2**30)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            "error: scenario: period_length must be at most 134217728, the ages "
            "whose joints fit in the 1 GiB limit at bound 0\n"
        )
        assert proc.stdout == ""

    def test_endless_simulation_is_refused_in_under_a_second(
        self, capsys, monkeypatch, tmp_path
    ):
        # 2**62 cycles would step for ever; the refusal precedes every draw
        def no_pool(*args):
            raise AssertionError("the draws started")

        monkeypatch.setattr(importlib.import_module("shipfees.simulate"),
                            "ThreadPoolExecutor", no_pool)
        cfg = load_preset("rho085_c8")
        cfg["simulate"]["cycles"] = 2**62
        path = tmp_path / "endless.json"
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err.startswith("error: simulate.cycles: 200 streams of ")
        assert err.endswith(", over the 1000000000 limit; use fewer cycles\n")
        assert out == ""

    def test_negative_seed_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shipfees", "verify", "--seed", "-1"],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": str(Path(shipfees.__file__).parents[1])},
        )
        assert proc.returncode == 2
        assert "argument --seed: expected a nonnegative integer" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestGridBlock:
    @pytest.mark.parametrize(
        "key, value, path",
        [
            ("fee_values", ["a"], "grid.fee_values[0]"),
            ("fee_values", [1.0, None], "grid.fee_values[1]"),
            ("cutoff_range", ["x", 7], "grid.cutoff_range[0]"),
            ("cutoff_range", [1.9, 7], "grid.cutoff_range[0]"),
            ("cutoff_range", [1, True], "grid.cutoff_range[1]"),
        ],
    )
    def test_bad_entries_name_their_path(self, capsys, tmp_path, key, value, path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["grid"][key] = value
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "optimize", "--config", str(cfg_path))
        assert code == 1
        assert err.startswith(f"error: {path}:")
        assert "Traceback" not in err
        assert out == ""


class TestPolicyFees:
    @pytest.mark.parametrize("entry", ["a", True], ids=["string", "bool"])
    def test_bad_entry_names_its_path(self, capsys, tmp_path, entry):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["policy"] = {"family": "vector", "fees": [entry, 1.0, 2.0, 3.0]}
        path = tmp_path / "fees.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert code == 1
        assert err.startswith("error: policy.fees[0]:")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "fees, message",
        [([1.0, 2.0, 3.0], "expected 4 fees, got 3"), ([-1, 1, 2, 3], "nonnegative")],
        ids=["length", "sign"],
    )
    def test_structure_errors_name_the_field(self, capsys, tmp_path, fees, message):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["policy"] = {"family": "vector", "fees": fees}
        path = tmp_path / "fees.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert code == 1
        assert err.startswith("error: policy.fees: ") and message in err
        assert out == ""

    def test_null_means_no_express(self, capsys, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["policy"] = {"family": "vector", "fees": [1, 2.0, 3.0, None]}
        path = tmp_path / "fees.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "evaluate", "--config", str(path))
        assert code == 0
        assert json.loads(out)["per_age_express_rate"][3] == 0.0


class TestStrictJson:
    def test_single_candidate_runner_up_gap_is_null(self, capsys, tmp_path):
        cfg = load_preset("rho085_c8")
        cfg["grid"] = {"fee_values": [2.0], "cutoff_range": [7, 7]}
        cfg["optimize"] = {"family": "TSP_CF_star"}
        path = tmp_path / "one_candidate.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(
            capsys, "optimize", "--config", str(path), "--format", "json"
        )
        assert code == 0
        res = strict_json(out)
        assert res["evaluations"] == 1
        assert res["runner_up_gap"] is None

    def test_idle_mean_delay_is_null(self, capsys, tmp_path):
        cfg = {
            "scenario": {"T": 2, "lambda": 0.0, "capacity_pmf": [0.0, 0.0, 1.0]},
            "choice": {"regular_price": 4.0, "u_min": 0.0, "u_max": 4.0},
            "penalty": 8.0,
            "policy": {"family": "CSP", "fee": 2.0},
        }
        path = tmp_path / "idle.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(
            capsys, "evaluate", "--config", str(path), "--format", "json"
        )
        assert code == 0
        report = strict_json(out)
        assert report["mean_delay"] is None
        assert report["expected_backorders"] == 0.0


class TestEvaluate:
    def test_json_round_trip(self, capsys, small_config):
        code, out, err = run_cli(
            capsys, "evaluate", "--config", small_config, "--format", "json"
        )
        assert code == 0 and err == ""
        code2, out2, _ = run_cli(
            capsys, "evaluate", "--config", small_config, "--format", "json"
        )
        assert code2 == 0
        assert out2 == out
        report = json.loads(out)
        for key in (
            "expected_backorders",
            "variable_profit",
            "rejection_probability",
            "per_age_express_rate",
            "bound",
        ):
            assert key in report
        assert len(report["per_age_express_rate"]) == 4
        # repr round trip: serializing the parsed payload reproduces it
        assert json.loads(json.dumps(report)) == report

    def test_csv_cells_are_plain_floats(self, capsys, small_config):
        code, out, err = run_cli(
            capsys, "evaluate", "--config", small_config, "--format", "csv"
        )
        assert code == 0
        assert "np.float64" not in out
        header, rows = parse_csv(out)
        assert header[0] == "expected_backorders"
        assert header[-1] == "bound"
        assert len(rows) == 1
        float(rows[0][0])

    def test_overprovisioned_capacity(self, capsys, tmp_path):
        cfg = {
            "scenario": {"T": 8, "lambda": 5.0, "capacity_pmf": [0.0] * 40 + [1.0]},
            "choice": {"regular_price": 4.0, "u_min": 0.0, "u_max": 4.0},
            "penalty": 8.0,
            "policy": {"family": "CSP", "fee": 2.0},
        }
        path = tmp_path / "over.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(
            capsys, "evaluate", "--config", str(path), "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["expected_backorders"] == 0.0
        assert report["rejection_probability"] == 0.0
        assert report["revenue"] == 40.0


class TestOptimize:
    def test_small_grid_optimum(self, capsys, small_config):
        code, out, err = run_cli(
            capsys, "optimize", "--config", small_config, "--format", "json"
        )
        assert code == 0
        res = json.loads(out)
        assert res["family"] == "TSP"
        assert res["f_E"] == 2.0
        assert res["f_LE"] == 3.0
        assert res["tau_F"] == 0
        assert res["tau_C"] == 3
        assert res["fees"] == [2.0, 3.0, 3.0, 3.0]
        assert res["evaluations"] == 18
        assert res["tie_broken"] is False
        assert res["report"]["variable_profit"] > 0.0


class TestSimulate:
    def test_small_run(self, capsys, small_config):
        code, out, err = run_cli(
            capsys, "simulate", "--config", small_config, "--format", "json"
        )
        assert code == 0
        res = json.loads(out)
        assert res["streams"] == 8
        assert res["seed"] == 1
        # 2500 post-warmup cycles split over 8 streams, remainder dropped
        assert res["measured_cycles"] == 2496
        for key in (
            "halfwidth_backorders",
            "halfwidth_variable_profit",
            "halfwidth_rejection",
        ):
            assert res[key] >= 0.0
        assert "np.float64" not in out

    def test_config_seed_unless_overridden(self, capsys, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["simulate"]["seed"] = 5
        path = tmp_path / "seed5.json"
        path.write_text(json.dumps(cfg))
        for flags, seed in (([], 5), (["--seed", "2"], 2)):
            code, out, _ = run_cli(capsys, "simulate", "--config", str(path), *flags)
            assert code == 0
            assert json.loads(out)["seed"] == seed

    def test_penalty_near_the_float_limit(self, capsys, tmp_path):
        # the per-stream penalty sums overflow at 1e307, the per-cycle means not
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["penalty"] = 1e307
        path = tmp_path / "huge_penalty.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, err) == (0, "")
        res = json.loads(out)
        assert math.isfinite(res["report"]["variable_profit"])
        assert math.isfinite(res["halfwidth_variable_profit"])


def flat_json(record):
    """A record's JSON payload as its CSV row: nested objects spliced in
    place, each array entry as key_0, key_1, ..."""
    out = {}
    for key, val in record.items():
        if isinstance(val, dict):
            out.update(flat_json(val))
        elif isinstance(val, list):
            out.update((f"{key}_{i}", v) for i, v in enumerate(val))
        else:
            out[key] = val
    return out


def optimize_row(res):
    """The optimize CSV row of its JSON payload: the point, the report's
    E[M] and E[G^V], then the search summary."""
    row = {key: res[key] for key in ("family", "f_E", "f_LE", "tau_F", "tau_C")}
    row["E[M]"] = res["report"]["expected_backorders"]
    row["E[G^V]"] = res["report"]["variable_profit"]
    row.update((key, res[key]) for key in ("evaluations", "runner_up_gap", "tie_broken"))
    return row


# fees whose %g form rounds: 1.23457, 2.34568, 3.12346
LONG_FEES = [1.23456789, 2.34567891, 3.1234567]


@pytest.mark.parametrize(
    "command, family, expected_row, fee_values",
    [
        pytest.param("optimize", "TSP", optimize_row, None, id="optimize-TSP-optimize_row"),
        pytest.param("optimize", "TSP_CF_star", optimize_row, None,
                     id="optimize-TSP_CF_star-optimize_row"),
        pytest.param("simulate", None, flat_json, None, id="simulate-None-flat_json"),
        pytest.param("optimize", "TSP", optimize_row, LONG_FEES, id="optimize-TSP-long_fees"),
        pytest.param("optimize", "TSP_CF_star", optimize_row, LONG_FEES,
                     id="optimize-TSP_CF_star-long_fees"),
    ],
)
def test_record_csv_cells_match_json(
    capsys, tmp_path, command, family, expected_row, fee_values
):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if family is not None:
        cfg["optimize"]["family"] = family
    if fee_values is not None:
        cfg["grid"]["fee_values"] = fee_values
    path = tmp_path / "record.json"
    path.write_text(json.dumps(cfg))
    outs = {}
    for fmt in ("csv", "json"):
        code, outs[fmt], err = run_cli(capsys, command, "--config", str(path), "--format", fmt)
        assert (code, err) == (0, "")
    expected = expected_row(json.loads(outs["json"]))
    header, rows = parse_csv(outs["csv"])
    assert header == list(expected)
    assert len(rows) == 1
    for key, cell in zip(header, rows[0]):
        val = expected[key]
        if val is None:
            assert cell == "", key
        elif key in ("f_E", "f_LE"):
            # %g where it reads back as the JSON value, else repr
            text = f"{val:g}"
            assert float(cell) == val, key
            assert cell == (text if float(text) == val else repr(val)), key
        elif isinstance(val, bool):
            assert cell in ("True", "False") and cell == str(val)
        elif isinstance(val, float):
            assert float(cell) == val, key
        else:
            assert cell == str(val), key
    if family == "TSP_CF_star":
        assert expected["f_LE"] is None and expected["tau_F"] is None
    if family == "TSP":
        assert expected["f_LE"] is not None and expected["tau_F"] is not None
    if fee_values is not None:
        assert expected["f_E"] in fee_values


def test_sweep_fees_read_back_as_grid_fees(capsys, tmp_path):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["grid"]["fee_values"] = LONG_FEES
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, "sweep-figures", "--config", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            rows = json.loads(out)
        else:
            header, cells = parse_csv(out)
            rows = [dict(zip(header, cell)) for cell in cells]
        assert rows and all(float(row["fee"]) in LONG_FEES for row in rows)
        assert all(row["fee"] == repr(float(row["fee"])) for row in rows)


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self, capsys, small_config):
        src = str(Path(shipfees.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        argv = ["simulate", "--config", small_config, "--format", "json"]
        proc = subprocess.run(
            [sys.executable, "-m", "shipfees", *argv],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        _, out, _ = run_cli(capsys, *argv)
        assert json.loads(proc.stdout) == json.loads(out)


class TestVerify:
    @pytest.mark.parametrize("seed", ["0", "1", "7"])
    def test_property_suites_pass(self, capsys, seed):
        code, out, err = run_cli(capsys, "verify", "--seed", seed)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert lines[-1] == "6/6 property suites passed"
        for ln in lines[:-1]:
            assert ln.startswith("PASS ")
        assert lines[1].startswith("PASS demand-dominance: 100/100 dominated pairs")


class TestTables:
    def test_table2_single_preset(self, capsys):
        code, out, err = run_cli(
            capsys, "reproduce-table2", "--preset", "rho085_c8"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "setting", "policy", "f_E", "f_LE", "tau_F", "tau_C",
            "E[M]", "E[G^V]",
            "benefit-vs-CSP%", "benefit-vs-TSP-CF%", "benefit-vs-TSP-CF*%",
        ]
        assert [r[1] for r in rows] == ["CSP", "TSP-CF", "TSP-CF*", "TSP"]
        assert all(r[0] == "rho085_c8" for r in rows)

        csp, cf, star, tsp = rows
        assert csp[2] == "2" and csp[3] == "" and csp[8] == ""
        assert tsp[2:6] == ["2.4", "3", "6", "7"]
        assert abs(float(tsp[6]) - 0.56) <= 0.05
        assert abs(float(tsp[7]) - 32.86) <= 0.02 * 32.86

        # benefit columns must agree with the emitted profit column
        g = {r[1]: float(r[7]) for r in rows}
        for row, base in ((cf, "CSP"), (star, "CSP"), (tsp, "CSP")):
            expect = 100.0 * (float(row[7]) - g[base]) / abs(g[base])
            assert abs(float(row[8]) - expect) < 0.01
        assert abs(float(tsp[9]) - 100.0 * (g["TSP"] - g["TSP-CF"]) / g["TSP-CF"]) < 0.01
        assert abs(float(tsp[10]) - 100.0 * (g["TSP"] - g["TSP-CF*"]) / g["TSP-CF*"]) < 0.01
        assert abs(float(tsp[8]) - 10.80) <= 0.1
        assert abs(float(tsp[9]) - 8.14) <= 0.1
        assert abs(float(tsp[10]) - 1.98) <= 0.1

    def test_table3_small_config(self, capsys, small_config):
        code, out, err = run_cli(
            capsys, "reproduce-table3", "--config", small_config
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "setting", "tau_C", "f_E", "f_LE", "tau_F",
            "E[M]", "E[G^V]", "benefit-of-best%",
        ]
        assert [r[1] for r in rows] == ["3", "2", "1"]
        assert all(r[0] == "small_config" for r in rows)
        assert rows[0][7] == ""
        # shrinking the cutoff can only lose profit on the same grid
        profits = [float(r[6]) for r in rows]
        assert profits[0] >= profits[1] >= profits[2]
        for r in rows[1:]:
            expect = 100.0 * (profits[0] - float(r[6])) / abs(float(r[6]))
            assert abs(float(r[7]) - expect) < 0.01


class TestSweep:
    def test_sweep_row_count(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep-figures", "--preset", "rho085_c8"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["setting", "sweep", "fee", "tau_F", "variable_profit"]
        assert len(rows) == 175
        assert {r[1] for r in rows} == {"express_fee", "lastminute_fee"}


TABLE_COMMANDS = ["reproduce-table2", "reproduce-table3", "sweep-figures"]


class TestOneBatchPerExperiment:
    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_one_evaluator_per_experiment(self, capsys, monkeypatch, small_config, command):
        made = []
        init = shipfees.chain.PolicyEvaluator.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(shipfees.chain.PolicyEvaluator, "__init__", counting)
        code, _, _ = run_cli(capsys, command, "--config", small_config)
        assert code == 0
        assert len(made) == 1

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_json_row_keys_follow_the_csv_header(self, capsys, small_config, command):
        code, out, _ = run_cli(capsys, command, "--config", small_config)
        header, _ = parse_csv(out)
        code, out, _ = run_cli(
            capsys, command, "--config", small_config, "--format", "json"
        )
        payload = strict_json(out)
        rows = payload if command == "sweep-figures" else payload["rows"]
        assert rows and all(list(row) == header for row in rows)


class TestOutErrors:
    def test_table_out_is_a_directory(self, capsys, tmp_path, small_config):
        argv = ["reproduce-table3", "--config", small_config, "--out", str(tmp_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: --out {tmp_path}:")
        assert out == ""

    def test_verify_out_under_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "verify.txt"
        code, out, err = run_cli(capsys, "verify", "--out", str(target))
        assert code == 1
        assert err.startswith(f"error: --out {target}:")
        assert out == ""


# each option with a value it parses, and the commands that read it; --small-T
# is read by none
FLAG_VALUES = {
    "--out": "out.txt",
    "--config": "x.json",
    "--preset": "rho085_c8",
    "--format": "json",
    "--rejection-threshold": "0.05",
    "--seed": "3",
    "--small-T": "3",
}
EXPERIMENT_FLAGS = {"--out", "--config", "--preset", "--format", "--rejection-threshold"}
READS = {
    "evaluate": EXPERIMENT_FLAGS,
    "optimize": EXPERIMENT_FLAGS,
    "simulate": EXPERIMENT_FLAGS | {"--seed"},
    "verify": {"--out", "--seed"},
    **{command: EXPERIMENT_FLAGS for command in TABLE_COMMANDS},
}


class TestCommandFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = _build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(READS)
        for command, sp in sub.choices.items():
            flags = {opt for a in sp._actions for opt in a.option_strings}
            assert flags - {"-h", "--help"} == READS[command], command
        assert sum(map(len, READS.values())) == 33

    @pytest.mark.parametrize("flag", FLAG_VALUES)
    @pytest.mark.parametrize("command", READS)
    def test_flag_accepted_iff_read(self, capsys, command, flag):
        argv = [command, flag, FLAG_VALUES[flag]]
        if flag in READS[command]:
            args = _build_parser().parse_args(argv)
            assert str(vars(args)[flag[2:].replace("-", "_")]) == FLAG_VALUES[flag]
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: shipfees ")
        assert f"error: unrecognized arguments: {flag} " in err

    @pytest.mark.parametrize(
        "argv",
        [["evaluate", "--preset", "rho085_c8", "--seed", "1"], ["verify", "--config", "x"]],
        ids=["evaluate-seed", "verify-config"],
    )
    def test_unread_flag_is_a_usage_error(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "shipfees", *argv],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": str(Path(shipfees.__file__).parents[1])},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: shipfees ")
        assert f"error: unrecognized arguments: {argv[-2]} " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_runtime_never_imports_scipy():
    # scipy is a test-only dependency; importing scipy.special would cost
    # every process about 0.3 s of start-up
    script = (
        "import io, sys, contextlib; import shipfees; from shipfees import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['evaluate', '--preset', 'rho095_c8']) == 0\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=False, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(shipfees.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr


# SMALL_CONFIG and variants of it that between them hold every field of
# cli.FIELDS: each policy family, a pinned bound, and a capacity pmf in place
# of the utilization fields
FUZZ_BASES = [
    SMALL_CONFIG,
    {**SMALL_CONFIG, "policy": {"family": "TSP_CF", "fee": 2.0, "cutoff_age": 2}},
    {**SMALL_CONFIG, "policy": {"family": "TSP", "express_fee": 1.0,
                                "lastminute_fee": 3.0, "switch_age": 0, "cutoff_age": 2}},
    {
        **SMALL_CONFIG,
        "scenario": {"T": 4, "lambda": 2.0, "capacity_pmf": [0.0, 0.1, 0.2, 0.3, 0.4],
                     "truncation_bound": 12},
        "policy": {"family": "vector", "fees": [1.0, 2.0, 3.0, None]},
    },
]


def fuzz_targets():
    """(base config, key path) for every field of cli.FIELDS in each base
    that holds it, and for every entry of its arrays."""
    targets = []
    for base in FUZZ_BASES:
        for dotted in FIELDS:
            keys = tuple(dotted.split("."))
            node = base
            for key in keys:
                node = node.get(key) if isinstance(node, dict) else None
            if node is not None:
                targets.append((base, keys))
                if isinstance(node, list):
                    targets += [(base, (*keys, i)) for i in range(len(node))]
    return targets


FUZZ_TARGETS = fuzz_targets()
# verify reads no config, so it takes no part
CONFIG_COMMANDS = ["evaluate", "optimize", "simulate", *TABLE_COMMANDS]
FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1e300, 1e-300, "x", True, None, [], {}]
# the other mutations: delete the key, or insert an unknown key beside it
DELETE, UNKNOWN = "<delete>", "<unknown>"


def test_fuzz_targets_cover_the_field_table():
    fields = {".".join(k for k in keys if isinstance(k, str)) for _, keys in FUZZ_TARGETS}
    assert fields == set(FIELDS)
    assert len(FIELDS) == 31


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    target=st.sampled_from(FUZZ_TARGETS),
    mutation=st.sampled_from([*FUZZ_VALUES, DELETE, UNKNOWN]),
    command=st.sampled_from(CONFIG_COMMANDS),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_any_leaf_value_ends_in_output_or_one_error_line(target, mutation, command, fmt):
    """A config with one field or array entry replaced or deleted, or with
    an unknown key beside it, either runs to strict JSON or CSV (exit 0) or
    ends in one diagnostic line (exit 1 or 2); an exception escaping main
    fails the test with its traceback."""
    base, keys = target
    cfg = json.loads(json.dumps(base))
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    key = keys[-1]
    if mutation is DELETE:
        del node[key]
    elif mutation is UNKNOWN and isinstance(node, dict):
        node[f"{key}_"] = node[key]
    elif mutation is UNKNOWN:
        node.append(node[key])  # an array: one entry more
    else:
        node[key] = mutation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)  # NaN and Infinity as JSON's extension literals
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--format", fmt])
    if mutation is UNKNOWN and isinstance(node, dict):
        dotted = ".".join(keys)
        assert (code, err.getvalue()) == (1, f"error: {dotted}_: unknown field\n")
    if code == 0:
        assert err.getvalue() == ""
        if fmt == "json":
            strict_json(out.getvalue())
        else:
            header, rows = parse_csv(out.getvalue())
            assert rows and all(len(row) == len(header) for row in rows)
    else:
        assert code in (1, 2)
        assert out.getvalue() == ""
        [line] = err.getvalue().splitlines()
        assert line.startswith(("error: ", "numerical failure: "))
