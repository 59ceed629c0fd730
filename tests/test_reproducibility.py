"""Reports and intervals are the same bytes in fresh processes.

The grid and one `confpce interval` call run in new interpreters: with the
BLAS on one thread, on two threads, and with the process pinned to one CPU
before confpce is imported (so jackknife+ runs on one worker). Every file
they write must be the same bytes in all three. A fit of a few hundred
terms, run with the BLAS on one thread, must also be the same bits as the
one numpy's QR gives.
"""

import json
import os

import numpy as np
import pytest
from helpers import run_python, write_dataset_csv

from confpce import conformal
from confpce.benchmarks import sample_design
from confpce.pce import Dataset

# Piston at P=2, C=2: K=36 and M=72, so a jackknife+ block holds 1,820 points.
# The 4,000-point test sets span two full blocks and a part, on two workers;
# the 2,500 query points span a block and a part, on the calling thread alone.
M, K = 72, 36
N_POINTS = 2_500
TEST_SIZE = 4_000

CHILD = """
import json, os, sys
out, mode = sys.argv[1], sys.argv[2]
if mode == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from confpce import cli, conformal, harness
with open(os.path.join(out, "..", "config.json")) as fh:
    config = harness.ExperimentConfig.from_dict(json.load(fh))
report = harness.run_grid(config)
harness.emit_report(report, "csv", out)
model = os.path.join(out, "model.json")
codes = (
    cli.main(["fit", "--benchmark", "piston", "--m", "%d", "--degree", "2", "--seed", "3",
              "--out", model]),
    cli.main(["interval", "--model", model, "--points", os.path.join(out, "..", "points.csv"),
              "--method", "jk+", "--alpha", "0.1", "--out", os.path.join(out, "intervals.csv")]),
)
print("workers", conformal._WORKERS, "codes", *codes)
""" % M


def run_child(tmp_path, mode):
    out = tmp_path / mode
    out.mkdir()
    done = run_python(CHILD, str(out), mode, threads=None if mode == "one-cpu" else mode)
    summary, last = done.stdout.rstrip("\n").rsplit("\n", 1)
    _, workers, _, *codes = last.split()
    assert codes == ["0", "0"], done.stderr
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    # The fit summary line (rel_loo_error, cond, max_leverage) must repeat too.
    files["stdout"] = summary.encode()
    return int(workers), files


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_outputs_are_the_same_bytes_across_blas_threads_and_cpus(tmp_path):
    step = conformal._chunk_rows(M)
    assert step < N_POINTS < 2 * step < TEST_SIZE
    (tmp_path / "config.json").write_text(json.dumps({
        "benchmark": "piston",
        "degrees": [2],
        "oversampling": [2],
        "methods": ["jackknife", "jackknife_plus"],
        "n_seeds": 2,
        "test_size": TEST_SIZE,
    }))
    points = sample_design("piston", N_POINTS, seed=11, stream="test").inputs
    with open(tmp_path / "points.csv", "w", newline="") as fh:
        write_dataset_csv(Dataset(inputs=points, outputs=np.zeros(N_POINTS)), fh)

    runs = {mode: run_child(tmp_path, mode) for mode in ("1", "2", "one-cpu")}

    assert runs["one-cpu"][0] == 1
    assert runs["1"][0] == runs["2"][0] == min(2, len(os.sched_getaffinity(0)))
    files = runs["1"][1]
    assert sorted(files) == [
        "aggregates.csv", "intervals.csv", "model.json", "records.csv", "stdout"
    ]
    assert b"inf" not in files["intervals.csv"]  # bounded, so both blocks were partitioned
    for mode in ("2", "one-cpu"):
        for name, data in files.items():
            assert runs[mode][1][name] == data, f"{name} differs under {mode}"


LARGE_FIT_CHILD = """
import numpy as np
from helpers import numpy_qr_fit_reference
from confpce.basis import build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.pce import fit
for name, degree in (("otl_circuit", 4), ("wing_weight", 3), ("piston", 4)):
    bench = get_benchmark(name)
    index_set = build_total_degree_set(bench.dim, degree)
    data = sample_design(name, design_size(name, degree, 2), seed=5)
    model = fit(data, index_set, bench.input_spec)
    for field, want in numpy_qr_fit_reference(data, index_set, bench.input_spec).items():
        if not np.array_equal(getattr(model, field), want):
            print(name, field)
"""


def test_fit_is_the_numpy_qr_fit_bit_for_bit_at_one_blas_thread():
    # K = 210, 286 and 330: sizes at which the QR's bits depend on the BLAS
    # thread count, so the comparison runs with the BLAS on one thread.
    assert run_python(LARGE_FIT_CHILD, threads="1").stdout == ""
