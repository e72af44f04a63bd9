"""Table and sweep CSVs stay byte-identical to the committed golden files.

``tests/golden/`` holds ``reproduce-table2`` and ``reproduce-table3`` over
all six presets and ``sweep-figures --preset rho095_c8``, on the default
fee lattice.  A change to the evaluator that moves any printed digit fails
here.
"""

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
