"""Table and sweep outputs stay byte-identical to the committed golden files.

``tests/golden/`` holds ``reproduce-table2`` and ``reproduce-table3`` over
all six presets and ``sweep-figures --preset rho095_c8``, on the default
fee lattice, and, in ``rho085_c8_cut13.json``, the CSV and JSON output of
all three commands for rho085_c8 on a six-fee lattice with cutoff range
[1, 3], which leaves out the cutoffs T-1..T-3 that Table 3 and the sweeps
read.  A change to the evaluator that moves any printed digit fails here.
The ``simulate_*.json`` files pin the simulator's JSON report for two
presets and seeds, so a change to its draws or tallies fails here too.
``evaluate.json`` holds ``evaluate --format json`` on the six presets and,
with its config, on an off-lattice fee vector with ``u_max`` and ``inf``
ages at a searched bound: every float within 1e-12 relative, every other
value equal.
"""

import json
import math
from pathlib import Path

import pytest

from shipfees.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["reproduce-table2"], "table2.csv"),
        (["reproduce-table3"], "table3.csv"),
        (["sweep-figures", "--preset", "rho095_c8"], "sweep_rho095_c8.csv"),
    ],
)
def test_csv_is_byte_identical(tmp_path, argv, name):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


CUT13 = json.loads((GOLDEN / "rho085_c8_cut13.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "command", ["reproduce-table2", "reproduce-table3", "sweep-figures"]
)
def test_narrow_cutoff_range_is_byte_identical(tmp_path, command, fmt):
    config = tmp_path / "rho085_c8_cut13.json"
    config.write_text(json.dumps(CUT13["config"]))
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes().decode("utf-8") == CUT13[f"{command}.{fmt}"]


@pytest.mark.parametrize(
    "preset, seed", [("rho085_c8", 1), ("rho095_c8", 7)]
)
def test_simulator_report_is_byte_identical(tmp_path, preset, seed):
    out = tmp_path / "out.json"
    argv = ["simulate", "--preset", preset, "--seed", str(seed), "--format", "json"]
    assert main([*argv, "--out", str(out)]) == 0
    name = f"simulate_{preset}_seed{seed}.json"
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


EVALUATE = json.loads((GOLDEN / "evaluate.json").read_text(encoding="utf-8"))


def assert_close_leaves(got, want, path="report"):
    """Float leaves within 1e-12 relative, every other leaf equal."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_close_leaves(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close_leaves(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (path, got, want)
    else:
        assert got == want, (path, got, want)


@pytest.mark.parametrize("preset", sorted(EVALUATE["presets"]))
def test_preset_reports_match_golden(tmp_path, preset):
    out = tmp_path / "out.json"
    argv = ["evaluate", "--preset", preset, "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert_close_leaves(json.loads(out.read_text()), EVALUATE["presets"][preset])


def test_vector_report_matches_golden(tmp_path):
    config = tmp_path / "vector.json"
    config.write_text(json.dumps(EVALUATE["vector"]["config"]))
    out = tmp_path / "out.json"
    argv = ["evaluate", "--config", str(config), "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert_close_leaves(json.loads(out.read_text()), EVALUATE["vector"]["report"])
