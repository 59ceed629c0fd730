"""Generated-property tests: invariants checked over random inputs."""

import math
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import (
    assert_parent_links,
    blocked_jackknife_plus_reference,
    numpy_qr_fit_reference,
    product_basis_reference,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confpce import conformal
from confpce.basis import _block_rows, build_total_degree_set, eval_basis_matrix
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import (
    METHODS,
    ConformalConfig,
    _upper_index,
    interval_arrays,
    interval_bounds,
)
from confpce.errors import LeverageError
from confpce.pce import Dataset, basis_rows, fit, from_json, to_json

DERIVED = ("coefficients", "hat_diag", "loo_residuals", "loo_corrections")

# (benchmark, P) with K <= 120 basis terms. From about 200 terms up the QR's
# bits change with the BLAS thread count, in numpy's and scipy's OpenBLAS
# alike, and the two differ when threaded; tests/test_reproducibility.py
# checks those sizes with the BLAS on one thread.
SMALL_FITS = tuple(
    (name, degree)
    for name in ("meromorphic", "otl_circuit", "piston", "wing_weight")
    for degree in (1, 2, 3)
    if math.comb(get_benchmark(name).dim + degree, degree) <= 120
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    fit_size=st.sampled_from(SMALL_FITS),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
def test_fit_is_the_numpy_qr_fit_bit_for_bit(fit_size, oversampling, seed):
    name, degree = fit_size
    bench = get_benchmark(name)
    index_set = build_total_degree_set(bench.dim, degree)
    data = sample_design(name, design_size(name, degree, oversampling), seed=seed)
    model = fit(data, index_set, bench.input_spec)
    for field, want in numpy_qr_fit_reference(data, index_set, bench.input_spec).items():
        assert np.array_equal(getattr(model, field), want), field


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
    assert_parent_links(index_set)


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


def _small_blocks(m, rows=16):
    # Blocks of `rows` rows, 16 by default, in 5-row sub-blocks, so that a few
    # dozen points span blocks, a sub-block boundary falls inside each block,
    # and the last sub-block of a block is short.
    return mock.patch.multiple(conformal, _CHUNK_BYTES=rows * 8 * m, _SUB_BYTES=5 * 8 * m)


@pytest.mark.parametrize(
    "significance", (0.05, 0.1, 1 / 3, 0.5), ids=("s0.05", "s0.1", "s1/3", "s0.5")
)
@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    name=BENCHMARKS,
    degree=st.integers(1, 3),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    blocks=st.integers(1, 2),
    offset=st.integers(-1, 1),
)
def test_jackknife_plus_bits_do_not_depend_on_worker_count(
    significance, name, degree, oversampling, seed, blocks, offset
):
    model = _fit_benchmark(name, degree, oversampling, seed)
    cfg = ConformalConfig(method="jackknife_plus", significance=significance)
    with _small_blocks(model.n_train):
        n = blocks * conformal._chunk_rows(model.n_train) + offset
        points = sample_design(name, n, seed=seed, stream="test").inputs
        rows = basis_rows(points, model.index_set, model.input_spec)
        with mock.patch.object(conformal, "_WORKERS", 1):
            serial = interval_bounds(model, rows, cfg)
        with mock.patch.object(conformal, "_WORKERS", 2):
            shared = interval_bounds(model, rows, cfg)
        want = blocked_jackknife_plus_reference(model, rows, significance)
    for label, one, two, w in zip(("centers", "lowers", "uppers"), serial, shared, want):
        assert np.array_equal(one, two), label
        assert np.array_equal(one, w), label


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    name=BENCHMARKS,
    degree=st.integers(1, 3),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    rows=st.integers(13, 16),
    blocks=st.integers(1, 3),
    offset=st.integers(-3, 3),
    significance=st.sampled_from((0.05, 0.1, 1 / 3)),
)
def test_streamed_rows_give_the_bits_of_whole_batch_rows(
    name, degree, oversampling, seed, rows, blocks, offset, significance
):
    # Blocks of 13 to 16 rows start on and off multiples of 4, and the batch
    # ends at every n mod 4 next to a block boundary, one row past it included.
    model = _fit_benchmark(name, degree, oversampling, seed)
    n = max(1, blocks * rows + offset)
    points = sample_design(name, n, seed=seed, stream="test").inputs
    whole = basis_rows(points, model.index_set, model.input_spec)
    for method in METHODS:
        cfg = ConformalConfig(method=method, significance=significance)
        with _small_blocks(model.n_train, rows):
            wants = [interval_bounds(model, whole, cfg)]
            if method == "jackknife_plus":
                wants.append(blocked_jackknife_plus_reference(model, whole, significance))
            for workers in (1, 2):
                with mock.patch.object(conformal, "_WORKERS", workers):
                    got = interval_arrays(model, points, cfg)
                for want in wants:
                    for label, g, w in zip(("centers", "lowers", "uppers"), got, want):
                        assert np.array_equal(g, w), (method, workers, label)


@pytest.mark.parametrize("failing", ("helper", "caller"))
def test_jackknife_plus_block_failure_reaches_the_caller(failing):
    model = _fit_benchmark("otl_circuit", 2, 3, 5)
    caller, started, both = threading.current_thread(), set(), threading.Barrier(2, timeout=10)
    loo_values = conformal.loo_values

    def flaky_loo_values(*args, **kwargs):
        thread = "caller" if threading.current_thread() is caller else "helper"
        if thread not in started:
            # Each thread's first block waits for the other's, so both hold one.
            started.add(thread)
            both.wait()
        if thread == failing:
            raise RuntimeError(f"block failed in the {thread}")
        return loo_values(*args, **kwargs)

    cfg = ConformalConfig(method="jackknife_plus", significance=0.1)
    with _small_blocks(model.n_train):
        points = sample_design("otl_circuit", 10 * conformal._chunk_rows(model.n_train),
                               seed=5, stream="test").inputs
        rows = basis_rows(points, model.index_set, model.input_spec)
        before = threading.active_count()
        with mock.patch.object(conformal, "_WORKERS", 2), \
                mock.patch.object(conformal, "loo_values", flaky_loo_values):
            with pytest.raises(RuntimeError, match=f"block failed in the {failing}"):
                interval_bounds(model, rows, cfg)
    assert started == {"caller", "helper"}
    assert threading.active_count() == before


def test_jackknife_plus_workers_take_each_block_once():
    # One-row blocks and a 1 us switch interval make the two workers race for
    # the shared starts, given rows or evaluating their own; a block taken
    # twice or never shows in the calls or bits.
    model = _fit_benchmark("piston", 2, 3, 4)
    m, n = model.n_train, 400
    points = sample_design("piston", n, seed=4, stream="test").inputs
    rows = basis_rows(points, model.index_set, model.input_spec)
    cfg = ConformalConfig(method="jackknife_plus", significance=0.05)
    loo_values, taken = conformal.loo_values, []

    def counted_loo_values(model, rows, centers, out):
        taken.append(len(rows))
        return loo_values(model, rows, centers, out=out)

    with mock.patch.multiple(conformal, _CHUNK_BYTES=8 * m, _SUB_BYTES=8 * m):
        with mock.patch.object(conformal, "_WORKERS", 1):
            serial = interval_bounds(model, rows, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.multiple(conformal, _WORKERS=2, loo_values=counted_loo_values):
                shared = interval_bounds(model, rows, cfg)
                streamed = interval_arrays(model, points, cfg)
        finally:
            sys.setswitchinterval(interval)
    assert taken == [1] * (2 * n)
    for one, two, three in zip(serial, shared, streamed):
        assert np.array_equal(one, two)
        assert np.array_equal(one, three)


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


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    name=BENCHMARKS,
    degree=st.integers(1, 3),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    method=st.sampled_from(METHODS),
    order=st.integers(0, 2**16),
)
def test_intervals_do_not_depend_on_training_order(
    name, degree, oversampling, seed, method, order
):
    # The scores and LOO predictions form a set indexed by the training
    # samples, so reordering the samples moves each bound by roundoff only.
    bench = get_benchmark(name)
    train = sample_design(name, design_size(name, degree, oversampling), seed=seed)
    perm = np.random.default_rng(order).permutation(len(train))
    shuffled = Dataset(inputs=train.inputs[perm], outputs=train.outputs[perm])
    index_set = build_total_degree_set(bench.dim, degree)
    cfg = ConformalConfig(method=method, significance=0.05)
    points = sample_design(name, 20, seed=seed, stream="test").inputs
    _, lo_a, hi_a = interval_arrays(fit(train, index_set, bench.input_spec), points, cfg)
    _, lo_b, hi_b = interval_arrays(fit(shuffled, index_set, bench.input_spec), points, cfg)
    for a, b in ((lo_a, lo_b), (hi_a, hi_b)):
        bounded = np.isfinite(a)
        assert np.array_equal(a[~bounded], b[~bounded])
        a, b = a[bounded], b[bounded]
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))


@pytest.mark.parametrize(
    "significance, rational",
    ((0.05, Fraction(1, 20)), (0.1, Fraction(1, 10)), (1 / 3, Fraction(1, 3)), (0.5, Fraction(1, 2))),
    ids=("s0.05", "s0.1", "s1/3", "s0.5"),
)
def test_upper_index_is_exact(significance, rational):
    # The exact value of the float s is p / q, so ceil((1 - s)(M + 1)) is an
    # integer ceiling division. The floats 0.05, 0.1 and 0.5 are at or just
    # above their rationals, which gives the rational's index; the float 1/3
    # is just below 1/3, which gives one more whenever 3 divides M + 1.
    p, q = significance.as_integer_ratio()
    for m in range(1, 2001):
        k = _upper_index(m, significance)
        assert k == -(-(q - p) * (m + 1) // q), m
        extra = rational == Fraction(1, 3) and (m + 1) % 3 == 0
        assert k == math.ceil((1 - rational) * (m + 1)) + extra, m
