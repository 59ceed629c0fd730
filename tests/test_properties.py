"""Generated-property tests: invariants checked over random inputs."""

from unittest import mock

import numpy as np
import pytest
from helpers import blocked_jackknife_plus_reference, product_basis_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confpce import conformal
from confpce.basis import _block_rows, build_total_degree_set, eval_basis_matrix
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import METHODS, ConformalConfig, interval_arrays, interval_bounds
from confpce.errors import LeverageError
from confpce.pce import Dataset, basis_rows, fit, from_json, to_json

DERIVED = ("coefficients", "hat_diag", "loo_residuals", "loo_corrections")


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(("meromorphic", "otl_circuit", "piston", "wing_weight")),
    degree=st.integers(1, 3),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_model_file_refit_is_bitwise(name, degree, oversampling, seed):
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, degree, oversampling), seed=seed)
    model = fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec)
    restored = from_json(to_json(model))
    for field in DERIVED:
        np.testing.assert_array_equal(getattr(restored, field), getattr(model, field), err_msg=field)
    assert restored.condition_number == model.condition_number
    points = sample_design(name, 9, seed=seed, stream="test").inputs
    for method in METHODS:
        cfg = ConformalConfig(method=method, significance=0.1)
        for got, want in zip(interval_arrays(restored, points, cfg), interval_arrays(model, points, cfg)):
            np.testing.assert_array_equal(got, want, err_msg=method)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(("meromorphic", "otl_circuit", "piston", "wing_weight")),
    degree=st.integers(1, 3),
    oversampling=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_condition_number_is_the_frobenius_one(name, degree, oversampling, seed):
    bench = get_benchmark(name)
    index_set = build_total_degree_set(bench.dim, degree)
    data = sample_design(name, design_size(name, degree, oversampling), seed=seed)
    try:
        model = fit(data, index_set, bench.input_spec)
    except LeverageError:
        # M = K (C = 1 under the linear rule): every leverage is 1.
        assume(False)
    sigma = np.linalg.svd(basis_rows(data.inputs, index_set, bench.input_spec), compute_uv=False)
    kappa_f = np.sqrt(np.sum(sigma**2) * np.sum(sigma**-2.0))
    kappa_2 = sigma[0] / sigma[-1]
    got = model.condition_number
    assert got == pytest.approx(kappa_f, rel=1e-10, abs=0.0)
    assert kappa_2 * (1 - 1e-10) <= got <= len(index_set) * kappa_2 * (1 + 1e-10)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    dim=st.integers(1, 6),
    degree=st.integers(0, 5),
    size=st.sampled_from(("one", "few", "block-1", "block", "block+1")),
    seed=st.integers(0, 2**16),
)
def test_basis_matrix_is_the_per_dimension_product(dim, degree, size, seed):
    index_set = build_total_degree_set(dim, degree)
    block = _block_rows(len(index_set))
    n = {"one": 1, "few": 7, "block-1": block - 1, "block": block, "block+1": block + 1}[size]
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-1.0, 1.0, size=(n, dim))
    endpoints = rng.random((n, dim)) < 0.2
    xi[endpoints] = rng.choice((-1.0, 1.0), size=int(endpoints.sum()))
    xi[-1] = rng.choice((-1.0, 1.0), size=dim)
    got = eval_basis_matrix(xi, index_set)
    assert got.flags.c_contiguous
    assert np.array_equal(got, product_basis_reference(xi, index_set))

    alphas = np.array(index_set.indices)
    assert index_set.parent[0] == 0 and index_set.last_degree[0] == 0
    for k in range(1, len(index_set)):
        parent, d = index_set.parent[k], index_set.last_dim[k]
        assert parent < k
        assert alphas[k, d] == index_set.last_degree[k] > 0
        assert not alphas[k, d + 1:].any()
        expected = alphas[k].copy()
        expected[d] = 0
        assert np.array_equal(alphas[parent], expected)


@pytest.mark.parametrize(
    "significance", (0.05, 0.1, 1 / 3, 0.5), ids=("s0.05", "s0.1", "s1/3", "s0.5")
)
@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(("meromorphic", "otl_circuit", "piston", "wing_weight")),
    degree=st.integers(1, 3),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    length=st.sampled_from(("sub-block", "block", "one-row sub-blocks")),
    offset=st.integers(-1, 1),
)
def test_jackknife_plus_matches_blocked_oracle(
    significance, name, degree, oversampling, seed, length, offset
):
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, degree, oversampling), seed=seed)
    model = fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec)
    m = model.n_train
    # One-row sub-blocks: every sub-block is a single row, in blocks of 64
    # rows, so that the row loop stays short for small M.
    one_row = length == "one-row sub-blocks"
    sub_bytes, chunk_bytes = (
        (8, 64 * 8 * m) if one_row else (conformal._SUB_BYTES, conformal._CHUNK_BYTES)
    )
    with mock.patch.multiple(conformal, _SUB_BYTES=sub_bytes, _CHUNK_BYTES=chunk_bytes):
        step = conformal._sub_rows(m) if length == "sub-block" else conformal._chunk_rows(m)
        n = (2 * step if one_row else step) + offset
        points = sample_design(name, n, seed=seed, stream="test").inputs
        rows = basis_rows(points, model.index_set, model.input_spec)
        cfg = ConformalConfig(method="jackknife_plus", significance=significance)
        got = interval_bounds(model, rows, cfg)
        want = blocked_jackknife_plus_reference(model, rows, significance)
    for label, g, w in zip(("centers", "lowers", "uppers"), got, want):
        assert np.array_equal(g, w), label


BENCHMARKS = st.sampled_from(("meromorphic", "otl_circuit", "piston", "wing_weight"))


def _fit_benchmark(name, degree, oversampling, seed, transform=lambda y: y):
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, degree, oversampling), seed=seed)
    data = Dataset(inputs=data.inputs, outputs=transform(data.outputs))
    return fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    name=BENCHMARKS,
    degree=st.integers(1, 3),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    method=st.sampled_from(METHODS),
)
def test_intervals_nest_as_significance_shrinks(name, degree, oversampling, seed, method):
    # Every s reads its bounds off the same LOO matrix, so nesting is exact.
    model = _fit_benchmark(name, degree, oversampling, seed)
    points = sample_design(name, 50, seed=seed, stream="test").inputs
    previous = None
    for significance in (0.5, 0.3, 0.2, 0.1, 0.05):
        bounds = interval_arrays(model, points, ConformalConfig(method, significance=significance))
        if previous is not None:
            assert np.array_equal(bounds[0], previous[0])
            assert np.all(bounds[1] <= previous[1]), significance
            assert np.all(bounds[2] >= previous[2]), significance
        previous = bounds


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    name=BENCHMARKS,
    degree=st.integers(1, 3),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    method=st.sampled_from(METHODS),
    significance=st.sampled_from((0.05, 0.1, 0.2)),
    a=st.floats(1e-3, 1e3),
    b=st.floats(-1e3, 1e3),
)
def test_intervals_are_affine_equivariant(
    name, degree, oversampling, seed, method, significance, a, b
):
    # y -> a y + b with a > 0 maps every LOO residual to a r_m and every LOO
    # prediction to a mu_m + b, so each bound maps to a bound + b, up to roundoff.
    cfg = ConformalConfig(method, significance=significance)
    points = sample_design(name, 50, seed=seed, stream="test").inputs
    centers, lowers, uppers = interval_arrays(
        _fit_benchmark(name, degree, oversampling, seed), points, cfg
    )
    moved = _fit_benchmark(name, degree, oversampling, seed, lambda y: a * y + b)
    got_centers, got_lowers, got_uppers = interval_arrays(moved, points, cfg)
    # Unbounded intervals have infinite bounds on both sides, which must map exactly.
    width = np.where(np.isfinite(uppers), uppers - lowers, 0.0)
    scale = a * width + np.abs(a * centers + b)
    for got, want in ((got_centers, centers), (got_lowers, lowers), (got_uppers, uppers)):
        want = a * want + b
        bounded = np.isfinite(want)
        assert np.array_equal(got[~bounded], want[~bounded])
        assert np.all(np.abs(got[bounded] - want[bounded]) <= 1e-8 * scale[bounded])
