"""Interval bits and the BLAS, checked in fresh processes.

With OpenBLAS on one thread, `interval_arrays` evaluates each block's basis
rows on its own and takes the block's centers from a product over its rows;
every block starts at a multiple of 4 and spans 8 rows or more, unless it is
the whole batch. The first test pins the property of OpenBLAS's dgemv that
makes those centers the bits of one product over the whole batch. The
second states what holds from about 200 basis terms up, where the bits
depend on the BLAS thread count: the same bits run after run at one thread,
and agreement within 1e-12 relative between one and two threads.
"""

import numpy as np
from helpers import run_python

FITS = (("meromorphic", 3), ("otl_circuit", 4), ("piston", 4), ("wing_weight", 3))

GROUPS_CHILD = """
import numpy as np
from confpce.basis import build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.pce import fit
from helpers import basis_rows
for name, degree in %r:
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, degree, 2), seed=1)
    model = fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec)
    points = sample_design(name, 403, seed=1, stream="test").inputs
    rows, c = basis_rows(points, model.index_set, model.input_spec), model.coefficients
    for n in (100, 101, 102, 103):
        whole = rows[:n] @ c
        for s in range(0, n, 4):
            for e in [*range(s + 4, n, 4), n]:
                if e - s > 1 and not np.array_equal(rows[s:e] @ c, whole[s:e]):
                    print(name, "rows", s, e, "of", n)
""" % (FITS,)

BOUNDS_CHILD = """
import sys
import numpy as np
from confpce.basis import build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import METHODS, ConformalConfig, interval_arrays
from confpce.pce import fit
out = {}
for name in ("otl_circuit", "piston"):
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, 4, 3), seed=2)
    model = fit(data, build_total_degree_set(bench.dim, 4), bench.input_spec)
    points = sample_design(name, 4_000, seed=2, stream="test").inputs
    for method in METHODS:
        bounds = interval_arrays(model, points, ConformalConfig(method, significance=0.05))
        for label, values in zip(("centers", "lowers", "uppers"), bounds):
            out[f"{name} K={model.n_basis} {method} {label}"] = values
np.savez(sys.argv[1], **out)
"""


def test_dgemv_takes_rows_in_fours():
    # A product over rows [s, e) of a benchmark's basis rows, s a multiple
    # of 4 and e one too or the last row, gives each row the bits of the
    # product over all rows; a one-row product (numpy's dot) need not.
    assert run_python(GROUPS_CHILD, threads="1").stdout == ""


def test_large_basis_bounds_across_blas_threads(tmp_path):
    runs = {}
    for run, threads in (("a", "1"), ("b", "1"), ("threaded", "2")):
        run_python(BOUNDS_CHILD, str(tmp_path / f"{run}.npz"), threads=threads)
        with np.load(tmp_path / f"{run}.npz") as saved:
            runs[run] = dict(saved)
    assert sorted({key.split()[1] for key in runs["a"]}) == ["K=210", "K=330"]
    for key, want in runs["a"].items():
        assert np.all(np.isfinite(want)), key
        assert np.array_equal(runs["b"][key], want), key
        np.testing.assert_allclose(runs["threaded"][key], want, rtol=1e-12, atol=0, err_msg=key)
