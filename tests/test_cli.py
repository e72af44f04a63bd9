"""End-to-end checks of the command line runner.

Every test drives ``shipfees.cli.main`` in process and inspects the
captured stdout/stderr, so the assertions cover argument wiring, config
diagnostics, and the exact emission formats.
"""

import csv
import io
import json
import math

import pytest

from shipfees.cli import PRESETS, Experiment, load_preset, main

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            assert exp.search_grid() is not None

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
        [("null", "scenario.capacity_pmf[1]: expected a number"), ("NaN", "finite")],
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


class TestVerify:
    def test_property_suites_pass(self, capsys, small_config):
        code, out, err = run_cli(capsys, "verify", "--config", small_config)
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert lines[-1] == "6/6 property suites passed"
        for ln in lines[:-1]:
            assert ln.startswith("PASS ")


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
