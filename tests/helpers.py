"""Shared test oracles and helpers."""

import contextlib
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import solve_triangular

import confpce
from confpce import benchmarks
from confpce.basis import _legendre_rows, eval_basis_matrix, to_reference
from confpce.conformal import _blocks, _chunk_rows, _upper_index, finite_quantile_upper


def run_python(code, *args, threads=None, timeout=300):
    """Runs `code` with `args` in a fresh interpreter; the finished process.

    The child imports confpce from the tree this one does and these helpers
    from the tests directory. `threads` sets OPENBLAS_NUM_THREADS, and None
    leaves it unset. Output is captured as text, and a nonzero exit fails
    the calling test with the child's stderr.
    """
    paths = (str(Path(__file__).parent), str(Path(confpce.__file__).parents[1]),
             os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return done


def basis_rows(points, index_set, spec):
    """Basis rows (n, K) at box points (n, N), all in one evaluation."""
    return eval_basis_matrix(to_reference(points, spec), index_set)


def legendre_table(degree, xi):
    """psi_0..psi_degree at points xi (n,): shape (n, degree + 1), column j is psi_j."""
    xi = np.asarray(xi, dtype=float)
    table = np.empty((degree + 1,) + xi.shape)
    _legendre_rows(xi, table, np.empty(xi.shape))
    return table.T


def surrogate(model, points):
    """Full-model predictions at box points (n, N), shape (n,): the interval centers."""
    return basis_rows(np.atleast_2d(points), model.index_set, model.input_spec) @ model.coefficients


def numpy_qr_fit_reference(data, index_set, spec):
    """The derived fields of fit, rebuilt with numpy's QR and fit's formulas.

    Returns a dict keyed by the PceModel field names coefficients, hat_diag,
    loo_residuals, loo_corrections and condition_number. No gates: the
    caller compares it only with a fit that succeeded.
    """
    design = basis_rows(data.inputs, index_set, spec)
    q, r = np.linalg.qr(design, mode="reduced")
    r_inv = solve_triangular(r, np.eye(len(index_set)))
    hat = np.clip(np.einsum("ij,ij->i", q, q), 0.0, 1.0)
    coefficients = solve_triangular(r, q.T @ data.outputs, check_finite=False)
    loo_residuals = (data.outputs - design @ coefficients) / (1.0 - hat)
    return {
        "coefficients": coefficients,
        "hat_diag": hat,
        "loo_residuals": loo_residuals,
        "loo_corrections": design @ (r_inv @ r_inv.T) * loo_residuals[:, None],
        "condition_number": float(np.linalg.norm(r) * np.linalg.norm(r_inv)),
    }


def write_dataset_csv(data, fh):
    """Writes `x1,...,xN,y` rows to an open text file, in shortest round-trip decimals."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(data.inputs.shape[1])] + ["y"])
    for row, y in zip(data.inputs, data.outputs):
        writer.writerow([repr(float(v)) for v in row] + [repr(float(y))])


@contextlib.contextmanager
def registered(benchmark):
    """Registers `benchmark` for the body of a with block, then removes it."""
    benchmarks.register_benchmark(benchmark)
    try:
        yield benchmark
    finally:
        benchmarks._REGISTRY.pop(benchmark.name, None)


def gauss_legendre_gram(index_set, orders):
    """Quadrature oracle: Gram matrix under the uniform density on the cube.

    Tensor Gauss-Legendre rule with the given order per dimension; weights
    carry the 1/2-per-dimension uniform density factor.
    """
    nodes_1d, weights_1d = [], []
    for order in orders:
        x, w = np.polynomial.legendre.leggauss(order)
        nodes_1d.append(x)
        weights_1d.append(w / 2.0)
    grids = np.meshgrid(*nodes_1d, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*weights_1d, indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    vals = eval_basis_matrix(points, index_set)
    return (vals * weights[:, None]).T @ vals


def product_basis_reference(xi, index_set):
    """Plain per-dimension product oracle for the basis matrix, shape (n, K).

    Psi_alpha(xi) = 1 * psi_{alpha_1}(xi_1) * ... * psi_{alpha_N}(xi_N),
    multiplied left to right over all N dimensions from legendre_table
    columns, one basis element at a time.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    tables = [legendre_table(index_set.max_degree, xi[:, n]) for n in range(index_set.input_dim)]
    out = np.ones((xi.shape[0], len(index_set)))
    for k, alpha in enumerate(index_set.indices):
        for n, degree in enumerate(alpha):
            out[:, k] *= tables[n][:, degree]
    return out


def assert_parent_links(index_set):
    """Each term k > 0 is its parent times psi_j in dimension d, with (j, d)
    = divmod(factor, N) read off the set's levels.

    The levels cover the terms 1..K-1 in order, one total degree each. The
    parent comes earlier and is the index with its last nonzero entry, at d,
    set to 0.
    """
    alphas, n = np.array(index_set.indices), index_set.input_dim
    terms = range(len(index_set))
    assert [k for level, _, _ in index_set.levels for k in terms[level]] == list(terms[1:])
    for p, (level, parents, factors) in enumerate(index_set.levels, start=1):
        assert parents.flags.c_contiguous and factors.flags.c_contiguous
        assert not parents.flags.writeable and not factors.flags.writeable
        for k, parent, factor in zip(terms[level], parents, factors):
            degree, d = divmod(int(factor), n)
            assert alphas[k].sum() == p and parent < k
            assert alphas[k, d] == degree > 0
            assert not alphas[k, d + 1:].any()
            expected = alphas[k].copy()
            expected[d] = 0
            assert np.array_equal(alphas[parent], expected)


def blocked_jackknife_plus_reference(model, rows, significance):
    """Block-loop oracle for jackknife+ bounds at basis rows (n, K).

    Builds each block of the LOO matrix as a fresh array, centers less the
    product with the correction matrix, and partitions fresh shifted copies of whole rows, on the blocks of
    interval_arrays, so the products see the same row counts and every
    bound must agree bit for bit. Returns (centers, lowers, uppers).
    """
    centers = rows @ model.coefficients
    a = np.abs(model.loo_residuals)
    m = a.shape[0]
    k = _upper_index(m, significance)
    if k > m:
        uppers = np.full_like(centers, np.inf)
        return centers, -uppers, uppers
    lowers, uppers = np.empty_like(centers), np.empty_like(centers)
    for start, stop in _blocks(centers.shape[0], _chunk_rows(m)):
        loo = rows[start:stop] @ model.loo_corrections.T
        loo = np.subtract(centers[start:stop, None], loo, out=loo)
        lowers[start:stop] = np.partition(loo - a, m - k, axis=1)[:, m - k]
        uppers[start:stop] = np.partition(loo + a, k - 1, axis=1)[:, k - 1]
    return centers, lowers, uppers


def whole_batch_intervals(model, points, cfg):
    """Interval oracle at box points (n, N): (centers, lowers, uppers).

    Evaluates all n basis rows at once with basis_rows and takes the centers
    from one product over them; jackknife bounds are the centers -/+ the
    score quantile, jackknife+ bounds come from
    blocked_jackknife_plus_reference. interval_arrays, which evaluates the
    rows block by block, must give the same bits.
    """
    rows = basis_rows(np.atleast_2d(points), model.index_set, model.input_spec)
    if cfg.method == "jackknife_plus":
        return blocked_jackknife_plus_reference(model, rows, cfg.significance)
    centers = rows @ model.coefficients
    half = finite_quantile_upper(np.abs(model.loo_residuals), cfg.significance)
    return centers, centers - half, centers + half
