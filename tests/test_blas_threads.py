"""Interval bits and the BLAS, checked in fresh processes.

With OpenBLAS on one thread, `interval_arrays` evaluates each block's basis
rows on its own and takes the block's centers from a product over the rows
around it, aligned to multiples of 4 (`conformal._covering`). The first test
pins the property of OpenBLAS's dgemv that makes those centers the bits of
one product over the whole batch. The second states what holds from about
200 basis terms up, where the bits depend on the BLAS thread count: the same
bits run after run at one thread, and agreement within 1e-12 relative
between one and two threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import confpce

FITS = (("meromorphic", 3), ("otl_circuit", 4), ("piston", 4), ("wing_weight", 3))

GROUPS_CHILD = """
import numpy as np
from confpce.basis import build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import _covering
from confpce.pce import basis_rows, fit
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
    for n in range(5, 404, 4):
        first, last = _covering(n - 1, n, n)
        if (rows[first:last] @ c)[-1] != (rows[:n] @ c)[-1]:
            print(name, "lone last row of", n)
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


def run_child(code, threads, *args):
    paths = (str(Path(confpce.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_dgemv_takes_rows_in_fours():
    # A product over rows [s, e) of a benchmark's basis rows, s a multiple
    # of 4 and e one too or the last row, gives each row the bits of the
    # product over all rows; a one-row product (numpy's dot) need not, so
    # _covering gives a lone last row the four rows before it.
    assert run_child(GROUPS_CHILD, "1") == ""


def test_large_basis_bounds_across_blas_threads(tmp_path):
    runs = {}
    for run, threads in (("a", "1"), ("b", "1"), ("threaded", "2")):
        run_child(BOUNDS_CHILD, threads, str(tmp_path / f"{run}.npz"))
        with np.load(tmp_path / f"{run}.npz") as saved:
            runs[run] = dict(saved)
    assert sorted({key.split()[1] for key in runs["a"]}) == ["K=210", "K=330"]
    for key, want in runs["a"].items():
        assert np.all(np.isfinite(want)), key
        assert np.array_equal(runs["b"][key], want), key
        np.testing.assert_allclose(runs["threaded"][key], want, rtol=1e-12, atol=0, err_msg=key)
