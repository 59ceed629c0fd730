"""Interval bits at batches of several blocks are a committed digest.

`tests/golden/` runs 2,000 test points, which most of its designs hold in
one block of the interval kernel. This test runs jackknife and jackknife+
on eight benchmark designs at batch sizes that span three blocks or more
whether a block holds 1 MiB, 2 MiB or 4 MiB of LOO rows, or 1 MiB or 2 MiB of
basis rows, in a fresh process with the BLAS on one thread, and compares a
sha256 of every center and bound per design with the committed one. It
skips when numpy or scipy is not the version in `tests/golden/versions.json`,
because the bits are tied to those builds.

LONE_ROW_DIGESTS holds a batch one row past a multiple of the block, whose
last block takes that row; its digest is that of one whole-batch product.
WHOLE_BATCH_CASES are jackknife+ batches whose last block takes a remainder
of 1 to 7 rows, and their bounds must be the bits of one whole-batch product.
SECOND_STAGE_CASES are jackknife+ batches in which many rows reach the
second certificate stage of the selection; their bounds must be the bits of
whole-row partitions.

To print the digests after a deliberate change of the bits, run
``PYTHONPATH=src python tests/test_block_digest.py``.
"""

import json
from unittest import mock

import pytest
from helpers import run_python
from test_golden_reports import GOLDEN, versions

from confpce import conformal
from confpce.basis import total_degree_size
from confpce.benchmarks import design_size, get_benchmark

# (benchmark, degree, oversampling, test points): sha256 of the design's
# jackknife then jackknife+ centers, lowers and uppers at significance 0.1.
DIGESTS = {
    ("piston", 2, 5, 16_989):
        "875be3e58837269ea64bfb1b8023e45758c7b994efb41edd9c03661ed3b9846b",
    ("piston", 3, 2, 5_096):
        "7de7c3233d3c93a862cac257a55684bc9d6557dd6f588df34a4543d175b30967",
    ("piston", 4, 3, 1_852):
        "c9a63ce2f9c6f0f2f5520457b3574dcd272687ab36d527720675e6d498ffd906",
    ("otl_circuit", 3, 3, 7_300):
        "202062df8a7c590cf55e72846116354b70c563c27180952c4e3e3808d54a3870",
    ("otl_circuit", 4, 2, 2_912):
        "55c20b413118dad553d63cf406b125e601f21d10e03105f2b0b1c8a7501d9b64",
    ("wing_weight", 2, 3, 9_265):
        "75db82eaaaf40a9331f3245346330a40dcfb4fd94a260ec8a0b278bd497fb366",
    ("wing_weight", 3, 2, 2_137):
        "8d4b3f694177921ab53b21fde83a548441554ab688bdb46a6ca876b3dc571fa6",
    ("meromorphic", 8, 5, 67_963):
        "eb266376a920d63a9f38207862695c0593937fefec440d345e4ed01fe5e98d72",
}

# As DIGESTS, for a batch one row past a multiple of the block at 1 MiB.
LONE_ROW_DIGESTS = {
    ("piston", 2, 3, 9_697):
        "d74824babff6145e1a1e6be691509727f613ec3a70f7ee69228662567c676edf",
}

# (benchmark, degree, oversampling, test points, significance): jackknife+
# batches whose last block takes a remainder of 1 to 7 rows at 1 MiB.
WHOLE_BATCH_CASES = [
    *(("piston", 2, 2, n, s) for n in range(3_643, 3_648) for s in (0.05, 0.1)),
    ("piston", 2, 3, 9_697, 0.1),
]

CHILD = """
import hashlib, json, sys
from confpce.basis import build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import METHODS, ConformalConfig, interval_arrays
from confpce.pce import fit
digests = []
for name, degree, oversampling, n in json.loads(sys.argv[1]):
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, degree, oversampling), seed=0)
    model = fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec)
    points = sample_design(name, n, seed=1, stream="test").inputs
    digest = hashlib.sha256()
    for method in METHODS:
        for array in interval_arrays(model, points, ConformalConfig(method, significance=0.1)):
            digest.update(array.tobytes())
    digests.append(digest.hexdigest())
print(json.dumps(digests))
"""


def aligned_block_rows(bytes_, row_len):
    """Points per block of `bytes_` by the interval kernel's rule."""
    with mock.patch.object(conformal, "_CHUNK_BYTES", bytes_):
        return conformal._chunk_rows(row_len)


def compute_digests(designs) -> list:
    """The per-design digests of `designs`, from a fresh interpreter."""
    return json.loads(run_python(CHILD, json.dumps(list(designs)), threads="1").stdout)


@pytest.mark.parametrize("design", list(DIGESTS), ids=lambda d: "-".join(map(str, d)))
def test_batches_span_blocks_without_a_one_row_last_block(design):
    name, degree, oversampling, n = design
    m = design_size(name, degree, oversampling)
    k = total_degree_size(get_benchmark(name).dim, degree)
    sizes = ((2**21, m), (2**22, m), (2**21, k), (2**20, m), (2**20, k))
    for step in (aligned_block_rows(*size) for size in sizes):
        assert n > 2 * step, step


def test_multi_block_intervals_are_the_committed_bits():
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if recorded != versions():
        pytest.skip(f"digests were taken with {recorded}, this is {versions()}")
    digests = {**DIGESTS, **LONE_ROW_DIGESTS}
    for design, got in zip(digests, compute_digests(digests)):
        assert got == digests[design], f"{design} differs"


@pytest.mark.parametrize("design", list(LONE_ROW_DIGESTS), ids=lambda d: "-".join(map(str, d)))
def test_lone_row_batch_leaves_a_remainder_of_one(design):
    name, degree, oversampling, n = design
    step = aligned_block_rows(2**20, design_size(name, degree, oversampling))
    assert n > 2 * step and n % step == 1
    assert conformal._blocks(n, step)[-1] == (n - step - 1, n)


WHOLE_BATCH_CHILD = """
import json, sys
import numpy as np
from confpce.basis import build_total_degree_set, eval_basis_matrix, to_reference
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import ConformalConfig, _upper_index, interval_arrays
from confpce.pce import fit
for name, degree, oversampling, n, s in json.loads(sys.argv[1]):
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, degree, oversampling), seed=0)
    model = fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec)
    points = sample_design(name, n, seed=1, stream="test").inputs
    rows = eval_basis_matrix(to_reference(points, bench.input_spec), model.index_set)
    centers = rows @ model.coefficients
    loo = centers[:, None] - rows @ model.loo_corrections.T
    a, m = np.abs(model.loo_residuals), model.n_train
    k = _upper_index(m, s)
    want = (centers, np.partition(loo - a, m - k, axis=1)[:, m - k],
            np.partition(loo + a, k - 1, axis=1)[:, k - 1])
    got = interval_arrays(model, points, ConformalConfig("jackknife_plus", significance=s))
    for label, g, w in zip(("centers", "lowers", "uppers"), got, want):
        if g.tobytes() != w.tobytes():
            print(name, degree, oversampling, n, s, label)
"""


def test_short_remainders_give_the_bits_of_one_whole_batch_product():
    # Each batch ends 1 to 7 rows past a multiple of its block; taking those
    # rows into the last block makes every bound the bits of one product
    # over the whole batch, with the BLAS on one thread.
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if recorded != versions():
        pytest.skip(f"bits were recorded with {recorded}, this is {versions()}")
    for name, degree, oversampling, n, _ in WHOLE_BATCH_CASES:
        assert 0 < n % aligned_block_rows(2**20, design_size(name, degree, oversampling)) < 8
    assert run_python(WHOLE_BATCH_CHILD, json.dumps(WHOLE_BATCH_CASES), threads="1").stdout == ""


# Grid designs (seed 0) where, at 10,000 points and s = 0.05, 12% and 22% of
# the rows fail the certificate over all columns, and most of them pass the
# one over the columns outside the candidates.
SECOND_STAGE_CASES = [("piston", 4, 3), ("wing_weight", 2, 3)]

SECOND_STAGE_CHILD = """
import collections, json, sys, threading
from unittest import mock
import numpy as np
from helpers import whole_batch_intervals
from confpce.basis import build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import ConformalConfig, interval_arrays
from confpce.pce import fit
# Each block finds the rows of the second stage, then those of whole rows.
flatnonzero, found = np.flatnonzero, collections.defaultdict(list)
def counted(condition):
    rows = flatnonzero(condition)
    found[threading.current_thread()].append(rows.size)
    return rows
for name, degree, oversampling in json.loads(sys.argv[1]):
    bench = get_benchmark(name)
    seed = (degree, oversampling, 0)
    data = sample_design(name, design_size(name, degree, oversampling), seed=seed, stream="train")
    model = fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec)
    points = sample_design(name, 10_000, seed=seed, stream="test").inputs
    cfg = ConformalConfig("jackknife_plus", significance=0.05)
    found.clear()
    with mock.patch.object(np, "flatnonzero", counted):
        got = interval_arrays(model, points, cfg)
    equal = [np.array_equal(g, w) for g, w in zip(got, whole_batch_intervals(model, points, cfg))]
    second, whole = (sum(sum(sizes[i::2]) for sizes in found.values()) for i in (0, 1))
    print(json.dumps([equal, second, whole]), flush=True)
"""


def test_second_stage_rows_have_the_bits_of_whole_row_partitions():
    # With the BLAS on one thread, every bound of these batches is the bits
    # of a whole-row partition, while 10% of the rows or more fail the first
    # certificate stage and at most 1% take whole rows.
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if recorded != versions():
        pytest.skip(f"bits were recorded with {recorded}, this is {versions()}")
    done = run_python(SECOND_STAGE_CHILD, json.dumps(SECOND_STAGE_CASES), threads="1")
    for design, line in zip(SECOND_STAGE_CASES, done.stdout.splitlines(), strict=True):
        equal, second, whole = json.loads(line)
        assert equal == [True] * 3, design
        assert second >= 1_000 and whole <= 100, (design, second, whole)


if __name__ == "__main__":
    digests = {**DIGESTS, **LONE_ROW_DIGESTS}
    for design, digest in zip(digests, compute_digests(digests)):
        print(f"    {design}: {digest!r},")
