"""Generated-property tests: invariants checked over random inputs."""

import collections
import math
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import (
    assert_parent_links,
    basis_rows,
    numpy_qr_fit_reference,
    product_basis_reference,
    whole_batch_intervals,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confpce import basis, conformal
from confpce.basis import InputSpec, build_total_degree_set, eval_basis_matrix
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import (
    METHODS,
    ConformalConfig,
    _upper_index,
    interval_arrays,
)
from confpce.errors import ConfpceError, LeverageError
from confpce.pce import Dataset, brute_force_loo, fit, from_json, loo_predict, to_json

DERIVED = ("coefficients", "hat_diag", "loo_residuals", "loo_corrections")

# (benchmark, P) with K <= 120 basis terms. From about 200 terms up the QR's
# bits change with the BLAS thread count; tests/test_reproducibility.py
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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    dim=st.integers(1, 3),
    degree=st.integers(1, 5),
    extra=st.integers(2, 30),
    outliers=st.integers(1, 2),
    spread=st.floats(-2.5, -1.0),
    corners=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_loo_matches_the_refit_oracle_near_the_leverage_floor(
    dim, degree, extra, outliers, spread, corners, seed
):
    # A tight cluster plus a few outlying points gives leverages from about
    # 1e-10 below 1 upward, the band where y - Dc and 1 - h both cancel and
    # fit refits the samples with 1 - h < 1e-6. The closed form of the other
    # samples is off by about kappa_F eps / (1 - h), which passes 1e-8 on
    # some of these designs from kappa_F = 1e3 up, so the check stops there.
    while math.comb(dim + degree, degree) > 35:
        degree -= 1
    index_set = build_total_degree_set(dim, degree)
    rng = np.random.default_rng(seed)
    m = len(index_set) + extra
    cluster = rng.uniform(-0.9, 0.9, dim) + 10.0**spread * rng.uniform(-1, 1, (m - outliers, dim))
    far = rng.choice((-1.0, 1.0), (outliers, dim)) if corners else rng.uniform(-1, 1, (outliers, dim))
    x = np.vstack([np.clip(cluster, -1.0, 1.0), far])
    data = Dataset(inputs=x, outputs=np.sum(np.sin(3 * x) + x**2, axis=1))
    spec = InputSpec(ranges=((-1.0, 1.0),) * dim)
    try:
        model = fit(data, index_set, spec)
    except ConfpceError:
        return  # not an accepted design
    if model.condition_number >= 1e3:
        return
    x_star = np.vstack([rng.uniform(-1, 1, (4, dim)), x[:2]])
    residuals, predictions = brute_force_loo(data, index_set, spec, x_star=x_star)
    # Relative to each value, or to the outputs where a value is near 0.
    atol = 1e-9 * np.max(np.abs(data.outputs))
    np.testing.assert_allclose(model.loo_residuals, residuals, rtol=1e-8, atol=atol)
    np.testing.assert_allclose(loo_predict(model, x_star), predictions, rtol=1e-8, atol=atol)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    dim=st.integers(1, 6),
    degree=st.integers(0, 5),
    size=st.sampled_from(("one", "few", "block-1", "block", "block+1")),
    seed=st.integers(0, 2**16),
)
def test_basis_matrix_is_the_per_dimension_product(dim, degree, size, seed):
    index_set = build_total_degree_set(dim, degree)
    block = basis.scratch_size(index_set, 2**30) // basis.scratch_size(index_set, 1)
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
    length=st.sampled_from(("block", "smallest blocks", "short last block")),
    offset=st.integers(-1, 1),
)
def test_jackknife_plus_matches_blocked_oracle(
    significance, name, degree, oversampling, seed, length, offset
):
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, degree, oversampling), seed=seed)
    model = fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec)
    m = model.n_train
    # "block": one block of the default size, and one row past it at offset 1.
    # "smallest blocks": 63 to 65 points in blocks of 8 rows, the last 15, 8
    # and 9 rows long. "short last block": blocks of 16 rows, the third 10 to
    # 12 rows long.
    rows = {"block": conformal._chunk_rows(m), "smallest blocks": 8,
            "short last block": 16}[length]
    with mock.patch.object(conformal, "_CHUNK_BYTES", rows * 8 * m):
        n = {"block": rows, "smallest blocks": 64, "short last block": 43}[length] + offset
        points = sample_design(name, n, seed=seed, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", significance=significance)
        got = interval_arrays(model, points, cfg)
        want = whole_batch_intervals(model, points, cfg)
    for label, g, w in zip(("centers", "lowers", "uppers"), got, want):
        assert np.array_equal(g, w), label


BENCHMARKS = st.sampled_from(("meromorphic", "otl_circuit", "piston", "wing_weight"))


def _fit_benchmark(name, degree, oversampling, seed, transform=lambda y: y):
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, degree, oversampling), seed=seed)
    data = Dataset(inputs=data.inputs, outputs=transform(data.outputs))
    return fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec)


def _small_blocks(row_len, rows=16):
    # Blocks of `rows` rows, a multiple of 4 and 16 by default, for a call
    # whose rows hold row_len values (M for a bounded jackknife+ call, K
    # otherwise), so that a few dozen points span blocks.
    return mock.patch.object(conformal, "_CHUNK_BYTES", rows * 8 * row_len)


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
        with mock.patch.object(conformal, "_WORKERS", 1):
            serial = interval_arrays(model, points, cfg)
        with mock.patch.object(conformal, "_WORKERS", 2):
            shared = interval_arrays(model, points, cfg)
        want = whole_batch_intervals(model, points, cfg)
    for label, one, two, w in zip(("centers", "lowers", "uppers"), serial, shared, want):
        assert np.array_equal(one, two), label
        assert np.array_equal(one, w), label


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    name=BENCHMARKS,
    degree=st.integers(1, 3),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    rows=st.sampled_from((8, 12, 16)),
    blocks=st.integers(1, 3),
    offset=st.integers(-3, 3),
    significance=st.sampled_from((0.05, 0.1, 1 / 3)),
)
def test_streamed_rows_give_the_bits_of_whole_batch_rows(
    name, degree, oversampling, seed, rows, blocks, offset, significance
):
    # Blocks of 8, 12 or 16 rows, and a batch that ends at every n mod 4 next
    # to a block boundary: up to 3 rows past it join the block before.
    model = _fit_benchmark(name, degree, oversampling, seed)
    n = max(1, blocks * rows + offset)
    points = sample_design(name, n, seed=seed, stream="test").inputs
    for method in METHODS:
        cfg = ConformalConfig(method=method, significance=significance)
        row_len = model.n_train if method == "jackknife_plus" else model.n_basis
        with _small_blocks(row_len, rows):
            want = whole_batch_intervals(model, points, cfg)
            for workers in (1, 2):
                with mock.patch.object(conformal, "_WORKERS", workers):
                    got = interval_arrays(model, points, cfg)
                for label, g, w in zip(("centers", "lowers", "uppers"), got, want):
                    assert np.array_equal(g, w), (method, workers, label)


@pytest.mark.parametrize("failing", ("helper", "caller"))
def test_jackknife_plus_block_failure_reaches_the_caller(failing):
    model = _fit_benchmark("otl_circuit", 2, 3, 5)
    caller, started, both = threading.current_thread(), set(), threading.Barrier(2, timeout=10)
    order_statistics = conformal._order_statistics

    def flaky_order_statistics(*args):
        # Outside the lock of the basis phases, so both threads get here.
        thread = "caller" if threading.current_thread() is caller else "helper"
        if thread not in started:
            # Each thread's first block waits for the other's, so both hold one.
            started.add(thread)
            both.wait()
        if thread == failing:
            raise RuntimeError(f"block failed in the {thread}")
        return order_statistics(*args)

    cfg = ConformalConfig(method="jackknife_plus", significance=0.1)
    with _small_blocks(model.n_train):
        n = 10 * conformal._chunk_rows(model.n_train)
        points = sample_design("otl_circuit", n, seed=5, stream="test").inputs
        before = threading.active_count()
        with mock.patch.object(conformal, "_WORKERS", 2), \
                mock.patch.object(conformal, "_order_statistics", flaky_order_statistics):
            with pytest.raises(RuntimeError, match=f"block failed in the {failing}"):
                interval_arrays(model, points, cfg)
    assert started == {"caller", "helper"}
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", ("helper", "caller"))
def test_basis_phase_failure_reaches_the_caller(failing):
    # The failing worker raises inside the basis phase of its second block,
    # under the call's lock, once each worker has taken a block; the other
    # worker's second selection waits for that failure to start, so it
    # cannot take every block first. The other worker then finishes its
    # selection and waits for the lock, and must find no block left.
    model = _fit_benchmark("otl_circuit", 2, 3, 5)
    caller, selections, events = threading.current_thread(), collections.Counter(), []
    both, failing_now = threading.Barrier(2, timeout=10), threading.Event()
    eval_basis_matrix, order_statistics = conformal.eval_basis_matrix, conformal._order_statistics

    def worker():
        return "caller" if threading.current_thread() is caller else "helper"

    def flaky_eval_basis_matrix(*args, **kwargs):
        events.append(worker())
        if worker() == failing and selections[failing]:
            failing_now.set()
            time.sleep(0.02)  # the other worker reaches the lock meanwhile
            events.append("failed")
            raise RuntimeError(f"basis phase failed in the {failing}")
        return eval_basis_matrix(*args, **kwargs)

    def waiting_order_statistics(*args):
        # Outside the lock, so these waits hold no other worker up.
        selections[worker()] += 1
        if selections[worker()] == 1:
            both.wait()
        elif worker() != failing:
            assert failing_now.wait(timeout=10)
        return order_statistics(*args)

    cfg = ConformalConfig(method="jackknife_plus", significance=0.1)
    with _small_blocks(model.n_train):
        n = 10 * conformal._chunk_rows(model.n_train)
        points = sample_design("otl_circuit", n, seed=5, stream="test").inputs
        before = threading.active_count()
        with mock.patch.multiple(conformal, _WORKERS=2, eval_basis_matrix=flaky_eval_basis_matrix,
                                 _order_statistics=waiting_order_statistics):
            with pytest.raises(RuntimeError, match=f"basis phase failed in the {failing}"):
                interval_arrays(model, points, cfg)
    assert set(selections) == {"caller", "helper"}
    assert events.count("failed") == 1
    assert events[events.index("failed") + 1:] == [], events
    assert threading.active_count() == before


def test_jackknife_plus_workers_take_each_block_once():
    # The smallest blocks, 8 rows, and a 1 us switch interval make the two
    # workers race for the shared starts; a block taken twice or never shows
    # in the calls or bits.
    model = _fit_benchmark("piston", 2, 3, 4)
    m, n = model.n_train, 400
    points = sample_design("piston", n, seed=4, stream="test").inputs
    cfg = ConformalConfig(method="jackknife_plus", significance=0.05)
    order_statistics, taken = conformal._order_statistics, []

    def counted_order_statistics(product, *args):
        taken.append(len(product))
        return order_statistics(product, *args)

    with mock.patch.object(conformal, "_CHUNK_BYTES", 8 * m):
        step = conformal._chunk_rows(m)
        with mock.patch.object(conformal, "_WORKERS", 1):
            serial = interval_arrays(model, points, cfg)
        want = whole_batch_intervals(model, points, cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.multiple(conformal, _WORKERS=2,
                                     _order_statistics=counted_order_statistics):
                shared = interval_arrays(model, points, cfg)
        finally:
            sys.setswitchinterval(interval)
    assert taken == [step] * (n // step)
    for one, two, w in zip(serial, shared, want):
        assert np.array_equal(one, two)
        assert np.array_equal(one, w)


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


def _loo_block(rng, b, m, specials):
    """(b, M) products, b centers and M scores: continuous, or drawn from few
    values (ties, signed zeros, zero and subnormal scores) with +-inf and NaN."""
    if not specials:
        return rng.normal(size=(b, m)), rng.normal(size=b), rng.exponential(size=m)
    values = (0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308, np.inf, -np.inf, np.nan)
    p = (0.2, 0.2, 0.15, 0.15, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03)
    return (rng.choice(values, size=(b, m), p=p), rng.choice(values, size=b, p=p),
            np.abs(rng.choice((0.0, -0.0, 5e-324, 0.5, 1.0, 3.0), size=m)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    m=st.integers(1, 80),
    b=st.integers(1, 64),
    t=st.integers(1, 20),
    extra=st.integers(0, 10),
    specials=st.booleans(),
    outlier=st.sampled_from((None, "far", "near", "inside")),
    sign=st.sampled_from((1.0, -1.0)),
    seed=st.integers(0, 2**16),
)
def test_order_statistics_are_the_bits_of_whole_row_partitions(
    m, b, t, extra, specials, outlier, sign, seed
):
    # The LOO rows are centers[:, None] - product. The candidate set is the
    # n >= t columns of largest score, ties broken at random, from one column
    # (at t = 1) to the whole row. An outlier outside it fails the
    # certificate: a "far" one by 1e3 past the candidates, a "near" one by
    # half the outside score, on the upper (sign 1) or the lower side. An
    # "inside" one, 1e3 past a candidate column, fails the check over all
    # columns but can pass the one over the columns outside the candidates.
    rng = np.random.default_rng(seed)
    t = min(t, m)
    k, n = m - t + 1, min(t + extra, m)
    product, centers, a = _loo_block(rng, b, m, specials)
    ties = rng.permutation(m)
    order = ties[np.argsort(a[ties], kind="stable")]
    columns = np.sort(order[m - n:])
    a_out = a[order[m - n - 1]] if n < m else -np.inf
    candidates = (columns, a[columns], a_out) if n == m or a_out > 0 else None
    with np.errstate(all="ignore"):
        i = rng.integers(b)
        if outlier == "inside":
            product[i, rng.choice(columns)] = centers[i] - sign * 1e3
        elif outlier and n < m:
            shifted = np.sort(sign * (centers[i] - product[i, columns] + sign * a[columns]))
            edge = sign * shifted[n - t]  # the candidates' t-th largest (smallest)
            miss = sign * (1e3 if outlier == "far" else -a_out / 2)
            product[i, order[m - n - 1]] = centers[i] - (edge + miss)
        loo = centers[:, None] - product
        want_lo = np.partition(loo - a, m - k, axis=1)[:, m - k]
        want_hi = np.partition(loo + a, k - 1, axis=1)[:, k - 1]
        lowers, uppers = np.empty(b), np.empty(b)
        conformal._order_statistics(product, centers, a, k, np.empty(2 * b * m), lowers, uppers,
                                    candidates)
    assert lowers.tobytes() == want_lo.tobytes()
    assert uppers.tobytes() == want_hi.tobytes()


def test_rows_whose_maximum_is_a_candidate_pass_at_the_second_stage():
    # M = 80, t = 3: the 14 largest scores are the candidates, and the LOO
    # values spread far less than the scores, so every row passes the check
    # over all columns but two. One holds a LOO value 1e3 above the rest in
    # a candidate column, the other 1e3 below: each passes the check over
    # the other 66 columns and takes no whole-row partition (np.flatnonzero
    # finds the rows of the second stage, then those of the whole-row one).
    rng = np.random.default_rng(7)
    m, k, b = 80, 78, 4
    product, centers = 1e-3 * rng.normal(size=(b, m)), rng.normal(size=b)
    a = rng.exponential(size=m)
    candidates = conformal._candidates(a, k)
    columns = candidates[0]
    product[1, columns[3]] = centers[1] - 1e3
    product[2, columns[5]] = centers[2] + 1e3
    loo = centers[:, None] - product
    want_lo = np.partition(loo - a, m - k, axis=1)[:, m - k]
    want_hi = np.partition(loo + a, k - 1, axis=1)[:, k - 1]
    flatnonzero, found = np.flatnonzero, []

    def counted(condition):
        found.append(flatnonzero(condition).tolist())
        return flatnonzero(condition)

    lowers, uppers = np.empty(b), np.empty(b)
    with mock.patch.object(np, "flatnonzero", counted):
        conformal._order_statistics(product, centers, a, k, np.empty(b * m), lowers, uppers,
                                    candidates)
    assert columns.size == 14 and found == [[1, 2], []]
    assert lowers.tobytes() == want_lo.tobytes()
    assert uppers.tobytes() == want_hi.tobytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    m=st.integers(1, 400),
    zeros=st.floats(0.0, 1.0),
    significance=st.sampled_from((0.01, 0.05, 0.1, 0.2, 1 / 3, 0.5)),
    seed=st.integers(0, 2**16),
)
def test_candidates_are_the_largest_scores_under_a_third_of_a_row(m, zeros, significance, seed):
    # A share of the scores is zero, up to all of them.
    rng = np.random.default_rng(seed)
    a = np.where(rng.random(m) < zeros, 0.0, rng.exponential(size=m))
    k = _upper_index(m, significance)
    got = conformal._candidates(a, k) if k <= m else None
    n = 2 * (m - k + 1) + 8
    if got is None:
        if k <= m and 3 * n < m:  # only a zero score outside takes whole rows
            assert np.sort(a)[m - n - 1] == 0
        return
    columns, a_in, a_out = got
    outside = np.setdiff1d(np.arange(m), columns)
    assert 3 * n < m and columns.size == n and np.all(np.diff(columns) > 0)
    assert np.array_equal(a_in, a[columns])
    assert a_out == a[outside].max() > 0 and a_in.min() >= a_out


# The jackknife+ guarantee holds for every dataset, not just on average
# (Barber, Candes, Ramdas & Tibshirani, "Predictive inference with the
# jackknife+", Ann. Statist. 49(1), 2021, proof of Theorem 1): give each of
# n + 1 points the jackknife+ interval from a fit on the other n, and at
# most floor(2 s (n + 1)) of them lie strictly outside their own interval.
# Least squares fits the same model whichever of two points goes first, so
# no exchangeability is needed; but each leave-two-out fit is reached from
# two fits and rounds differently in each, so a point misses only by more
# than a relative 1e-9.
GUARANTEE_SIGNIFICANCES = (0.05, 0.1, 0.2, 1 / 3, 0.5)


def _guarantee_dataset(dim, degree, extra, noise, seed):
    """K + extra points in [-1, 1]^dim with a heavy-tailed or outlying output."""
    rng = np.random.default_rng(seed)
    size = math.comb(dim + degree, degree) + extra
    x = rng.uniform(-1.0, 1.0, (size, dim))
    if noise == "x5-t2":
        return x, (x**5).sum(axis=1) + rng.standard_t(2, size)
    y = np.sin(2 * x).sum(axis=1)
    if noise == "cauchy":
        return x, y + rng.standard_cauchy(size)
    y += 0.1 * rng.standard_normal(size)
    if noise == "outliers":
        y += 50.0 * (rng.random(size) < 0.2)
    return x, y


def _guarantee_misses(x, y, degree, scores=lambda model: model):
    """(misses, bound) per significance for the leave-one-out jackknife+ intervals."""
    size, dim = x.shape
    spec = InputSpec(ranges=((-1.0, 1.0),) * dim)
    index_set = build_total_degree_set(dim, degree)
    models = [
        scores(fit(Dataset(inputs=np.delete(x, i, axis=0), outputs=np.delete(y, i)),
                   index_set, spec))
        for i in range(size)
    ]
    counts = []
    for significance in GUARANTEE_SIGNIFICANCES:
        cfg = ConformalConfig(method="jackknife_plus", significance=significance)
        misses = 0
        for i, model in enumerate(models):
            (center,), (lower,), (upper,) = interval_arrays(model, x[i], cfg)
            slack = 1e-9 * max(1.0, abs(y[i]), abs(center))
            misses += bool(y[i] < lower - slack or y[i] > upper + slack)
        counts.append((misses, math.floor(2 * Fraction(significance) * size)))
    return counts


# 50 datasets at five significances: 250 checks, most with n near K.
@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    dim=st.integers(1, 3),
    degree=st.integers(1, 3),
    extra=st.one_of(st.integers(3, 8), st.integers(3, 39)),
    noise=st.sampled_from(("cauchy", "outliers", "x5-t2", "normal")),
    seed=st.integers(0, 2**16),
)
def test_jackknife_plus_leaves_at_most_2s_of_the_points_outside(dim, degree, extra, noise, seed):
    x, y = _guarantee_dataset(dim, degree, extra, noise, seed)
    for misses, bound in _guarantee_misses(x, y, degree):
        assert misses <= bound


def test_in_sample_scores_break_the_jackknife_plus_guarantee():
    # The property has teeth: with in-sample residuals r_m (1 - h_m) as the
    # scores in place of the LOO residuals r_m, this dataset has more misses
    # than the bound allows at every significance below 1/2.
    def in_sample(model):
        return replace(model, loo_residuals=model.loo_residuals * (1 - model.hat_diag))

    x, y = _guarantee_dataset(3, 3, 8, "x5-t2", 18176)
    assert all(misses <= bound for misses, bound in _guarantee_misses(x, y, 3))
    broken = [misses > bound for misses, bound in _guarantee_misses(x, y, 3, in_sample)]
    assert broken == [True, True, True, True, False]
