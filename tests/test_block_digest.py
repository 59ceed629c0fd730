"""Interval bits at batches of several blocks are a committed digest.

`tests/golden/` runs 2,000 test points, which most of its designs hold in
one block of the interval kernel. This test runs jackknife and jackknife+
on eight benchmark designs at batch sizes that span three blocks or more
whether a block holds 1 MiB, 2 MiB or 4 MiB of LOO rows, or 1 MiB or 2 MiB of
basis rows, in a fresh process with the BLAS on one thread, and compares a
sha256 of every center and bound per design with the committed one. It
skips when numpy or scipy is not the version in `tests/golden/versions.json`,
because the bits are tied to those builds.

No batch of DIGESTS leaves a one-row last block under any of these sizes,
whether blocks hold a multiple of 4 points, as now, or as many as fit, as
when the digests were taken (with room for 6 more basis rows at 1 MiB):
numpy computes a one-row product as a dot product, so such a row takes its
center and LOO predictions from a product over it and the four rows before
it. LONE_ROW_DIGESTS holds a batch that ends in such a row, digested since
its LOO predictions come from that product.

To print the digests after a deliberate change of the bits, run
``PYTHONPATH=src python tests/test_block_digest.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from test_golden_reports import GOLDEN, versions

import confpce
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

# As DIGESTS, for a batch whose last block is one row long at 1 MiB.
LONE_ROW_DIGESTS = {
    ("piston", 2, 3, 9_697):
        "49e15edb052ff3aa8ace211f8c58d35114085e7a732b155fe20516df254dc37b",
}

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


def block_rows(bytes_, row_len, n_basis=0):
    """Points per block of `bytes_` as the digests were taken; given n_basis,
    6 more basis rows fit too."""
    values = bytes_ // 8
    return max(1, min(values // row_len, values // n_basis - 6 if n_basis else values))


def aligned_block_rows(bytes_, row_len):
    """Points per block of `bytes_` by the interval kernel's rule."""
    with mock.patch.object(conformal, "_CHUNK_BYTES", bytes_):
        return conformal._chunk_rows(row_len)


def compute_digests(designs) -> list:
    """The per-design digests of `designs`, from a fresh interpreter."""
    paths = (str(Path(confpce.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(list(designs))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("design", list(DIGESTS), ids=lambda d: "-".join(map(str, d)))
def test_batches_span_blocks_without_a_one_row_last_block(design):
    name, degree, oversampling, n = design
    m = design_size(name, degree, oversampling)
    k = total_degree_size(get_benchmark(name).dim, degree)
    sizes = ((2**21, m, 0), (2**22, m, 0), (2**21, k, 0), (2**20, m, k), (2**20, k, k))
    steps = [block_rows(*size) for size in sizes]
    steps += [aligned_block_rows(bytes_, row_len) for bytes_, row_len, _ in sizes]
    for step in steps:
        assert n > 2 * step and n % step != 1, step


def test_multi_block_intervals_are_the_committed_bits():
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    if recorded != versions():
        pytest.skip(f"digests were taken with {recorded}, this is {versions()}")
    digests = {**DIGESTS, **LONE_ROW_DIGESTS}
    for design, got in zip(digests, compute_digests(digests)):
        assert got == digests[design], f"{design} differs"


@pytest.mark.parametrize("design", list(LONE_ROW_DIGESTS), ids=lambda d: "-".join(map(str, d)))
def test_lone_row_batch_ends_in_a_one_row_block(design):
    name, degree, oversampling, n = design
    m = design_size(name, degree, oversampling)
    assert n > 2 * aligned_block_rows(2**20, m) and n % aligned_block_rows(2**20, m) == 1


if __name__ == "__main__":
    digests = {**DIGESTS, **LONE_ROW_DIGESTS}
    for design, digest in zip(digests, compute_digests(digests)):
        print(f"    {design}: {digest!r},")
