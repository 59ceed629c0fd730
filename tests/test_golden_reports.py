"""The report files of a fixed grid are the committed bytes.

`tests/golden/` holds records.csv and aggregates.csv, the one report
format, for one small grid per benchmark, with the numpy version that wrote
them. The grids cover failed cells (C=1 puts a leverage at 1),
unbounded jackknife+ cells (meromorphic's small designs), both methods, both
scores and lists given in reverse order. Every basis has at most 120 terms, where
the QR's bits do not depend on the BLAS thread count. The test reruns the
grids in a fresh process with the BLAS on one thread and compares bytes;
it skips when numpy is not the recorded version, because the bits are tied
to its build and the OpenBLAS it bundles.

To rewrite the files after a deliberate format change, run
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from helpers import run_python

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORT_FILES = ("aggregates.csv", "records.csv")
BOTH = dict(methods=["jackknife", "jackknife_plus"], scores=["absolute", "normalized"])
GRIDS = [
    dict(benchmark="meromorphic", degrees=[1, 2, 3], oversampling=[1, 2, 5], **BOTH),
    dict(benchmark="piston", degrees=[2, 3], oversampling=[1, 2], **BOTH),
    dict(benchmark="otl_circuit", degrees=[3, 1], oversampling=[1, 3], significance=0.1,
         methods=["jackknife_plus", "jackknife"], scores=["normalized", "absolute"]),
    dict(benchmark="wing_weight", degrees=[1, 2], oversampling=[1, 2], **BOTH),
]
N_SEEDS = 3
TEST_SIZE = 2_000

CHILD = """
import json, os, sys
from confpce import harness
out = sys.argv[1]
for grid in json.loads(sys.argv[2]):
    config = harness.ExperimentConfig.from_dict(grid)
    harness.emit_report(harness.run_grid(config), "csv", os.path.join(out, config.benchmark))
"""


def versions() -> dict:
    return {"numpy": np.__version__}


def write_reports(out: Path) -> None:
    """Runs GRIDS in a fresh interpreter, BLAS on one thread, into out/<benchmark>/."""
    grids = [dict(grid, n_seeds=N_SEEDS, test_size=TEST_SIZE) for grid in GRIDS]
    run_python(CHILD, str(out), json.dumps(grids), threads="1")


def test_reports_are_the_golden_bytes(tmp_path):
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if recorded != versions():
        pytest.skip(f"golden reports were written with {recorded}, this is {versions()}")
    write_reports(tmp_path)
    for grid in GRIDS:
        for name in REPORT_FILES:
            path = Path(grid["benchmark"]) / name
            assert (tmp_path / path).read_bytes() == (GOLDEN / path).read_bytes(), f"{path} differs"


if __name__ == "__main__":
    write_reports(GOLDEN)
    (GOLDEN / "versions.json").write_text(json.dumps(versions(), indent=2) + "\n")
