"""Tests for finite-sample quantiles and the two interval constructions."""

import math
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from helpers import run_python, surrogate, whole_batch_intervals

from confpce import conformal
from confpce.basis import InputSpec, build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import (
    _chunk_rows,
    _upper_index,
    ConformalConfig,
    empirical_coverage,
    finite_quantile_upper,
    interval_arrays,
    jackknife_bounds,
)
from confpce.errors import IntervalError, ValidationError, ZeroVarianceError
from confpce.pce import (
    Dataset,
    PceModel,
    brute_force_loo,
    fit,
    loo_predict,
)

UNIT_SPEC = InputSpec(ranges=((-1.0, 1.0),))


def one_interval(model, x, cfg):
    """(center, lower, upper) at the single point x, as floats."""
    return tuple(float(v[0]) for v in interval_arrays(model, x, cfg))


def order_statistics(values, s):
    """(lower, upper) jackknife+ bounds of a model whose LOO row is `values`.

    With zero scores, zero coefficients and correction column -values, the
    LOO predictions at the basis row [1] are `values` themselves, so the
    bounds are their floor(s(M+1))-th and ceil((1-s)(M+1))-th smallest.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    model = PceModel(
        index_set=build_total_degree_set(1, 0),
        input_spec=UNIT_SPEC,
        training_snapshot=Dataset(inputs=np.zeros((m, 1)), outputs=np.zeros(m)),
        coefficients=np.zeros(1),
        hat_diag=np.zeros(m),
        loo_residuals=np.zeros(m),
        loo_corrections=-values[:, None],
        condition_number=1.0,
    )
    cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=s)
    # The one basis term psi_0 is 1 at every point.
    _, lowers, uppers = interval_arrays(model, np.zeros((1, 1)), cfg)
    return float(lowers[0]), float(uppers[0])


@pytest.fixture(scope="module")
def hand_model():
    """Three-point linear fit whose every quantity was worked by hand.

    Training (xi, y): (-1, 0), (0, 1), (1, 0) with basis {1, sqrt(3) xi}.
    Full fit is the constant 1/3; leverages (5/6, 1/3, 5/6); LOO residuals
    (-2, 1, -2). Each LOO model is the line through the two remaining points,
    so at xi* = 0.5 the LOO predictions are (1/2, 0, 3/2).
    """
    data = Dataset(inputs=np.array([[-1.0], [0.0], [1.0]]), outputs=np.array([0.0, 1.0, 0.0]))
    return fit(data, build_total_degree_set(1, 1), UNIT_SPEC)


class TestQuantiles:
    def test_upper_hand_example(self):
        values = np.arange(1.0, 11.0)
        # ceil(0.9 * 11) = 10 -> tenth smallest
        assert finite_quantile_upper(values, 0.1) == 10.0

    def test_lower_hand_example(self):
        values = np.arange(10.0, 0.0, -1.0)
        # floor(0.1 * 11) = 1 -> smallest; ceil(0.9 * 11) = 10 -> largest
        assert order_statistics(values, 0.1) == (1.0, 10.0)
        # floor(0.25 * 11) = 2, ceil(0.75 * 11) = 9
        assert order_statistics(values, 0.25) == (2.0, 9.0)

    def test_all_equal(self):
        values = np.full(8, 2.5)
        assert finite_quantile_upper(values, 0.2) == 2.5
        assert order_statistics(values, 0.2) == (2.5, 2.5)

    def test_overflow_gives_infinities(self):
        values = np.arange(1.0, 6.0)
        # ceil(0.95 * 6) = 6 > 5
        assert finite_quantile_upper(values, 0.05) == math.inf
        assert order_statistics(values, 0.05) == (-math.inf, math.inf)

    def test_exact_boundary_not_misclassified(self):
        # (1 - 0.05) * 20 must index the 19th value, not overflow: the naive
        # float product 0.95 * 20 lands just above 19.
        values = np.arange(1.0, 20.0)
        assert finite_quantile_upper(values, 0.05) == 19.0

    def test_significance_takes_its_exact_value(self):
        # float32(1/3) lies just above 1/3 and the float 1/3 just below it,
        # so at n = 2 the index ceil(3(1 - s)) is 2 and 3; the rational is 2.
        assert _upper_index(2, np.float32(1 / 3)) == 2
        assert _upper_index(2, 1 / 3) == 3
        assert _upper_index(2, Fraction(1, 3)) == 2

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="the expected indices hold for an x87 longdouble")
    def test_longdouble_significance_takes_its_exact_value(self):
        # A longdouble 1/3 with a 64-bit significand lies just above 1/3, so
        # the index is the rational one, 2(n + 1)/3; through float() it is
        # the float 1/3's, one more.
        s = np.longdouble(1) / 3
        assert [_upper_index(n, s) for n in (2, 5, 8)] == [2, 4, 6]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("s", [0.03, 0.1, 0.25, 0.5, 0.9])
    def test_mirror_identity(self, seed, s):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=rng.integers(1, 40))
        n = values.size
        # The lower index floor(s(n+1)) is n + 1 minus the upper one, so the
        # lower quantile of v is minus the upper quantile of -v.
        assert n + 1 - _upper_index(n, s) == math.floor(Fraction(s) * (n + 1))
        if s <= 0.5:  # jackknife+ refuses s > 1/2
            lower, upper = order_statistics(values, s)
            assert lower == -finite_quantile_upper(-values, s)
            assert upper == finite_quantile_upper(values, s)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            finite_quantile_upper(np.array([]), 0.1)

    def test_numpy_floats_and_fractions_are_significances(self):
        values = np.arange(1.0, 11.0)
        for s in (np.float32(0.1), np.float64(0.1), np.longdouble(0.1), Fraction(1, 10)):
            assert finite_quantile_upper(values, s) == 10.0

    def test_sample_of_any_shape_is_taken_flat(self):
        # ceil(0.9 * 10) = 9 -> ninth smallest of all nine values: the largest.
        assert finite_quantile_upper(np.ones((3, 3)), 0.1) == 1.0
        assert finite_quantile_upper(np.arange(9.0).reshape(3, 3), 0.1) == 8.0
        assert finite_quantile_upper(np.arange(4.0).reshape(2, 1, 2), 0.5) == 2.0
        assert finite_quantile_upper(3.0, 0.25) == math.inf


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConformalConfig(method="bootstrap")
        with pytest.raises(ValueError):
            ConformalConfig(score="quantile")
        with pytest.raises(ValueError):
            ConformalConfig(significance=0.0)
        with pytest.raises(ValueError):
            ConformalConfig(significance=1.0)


class TestScores:
    def test_exact_polynomial_zero_scores(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(20, 1))
        data = Dataset(inputs=x, outputs=1.0 + 2.0 * x[:, 0])
        model = fit(data, build_total_degree_set(1, 2), UNIT_SPEC)
        np.testing.assert_allclose(model.loo_residuals, 0.0, atol=1e-12)

    def test_normalized_rescales_to_absolute(self, hand_model):
        # Normalizing by one constant and rescaling back leaves the bounds as
        # they are, so both score types build the same intervals bit for bit.
        x = np.array([[-0.5], [0.5]])
        for method in ("jackknife", "jackknife_plus"):
            a = interval_arrays(hand_model, x, ConformalConfig(method, "absolute", 0.5))
            n = interval_arrays(hand_model, x, ConformalConfig(method, "normalized", 0.5))
            for want, got in zip(a, n):
                np.testing.assert_array_equal(got, want)

    def test_scores_match_brute_force(self):
        bench = get_benchmark("otl_circuit")
        iset = build_total_degree_set(6, 2)
        train = sample_design("otl_circuit", design_size("otl_circuit", 2, 3), seed=31)
        model = fit(train, iset, bench.input_spec)
        brute_res, _ = brute_force_loo(train, iset, bench.input_spec)
        np.testing.assert_allclose(
            np.abs(model.loo_residuals), np.abs(brute_res), rtol=1e-8, atol=1e-10
        )

    def test_normalized_zero_variance_raises(self):
        x = np.linspace(-1, 1, 10)[:, None]
        data = Dataset(inputs=x, outputs=np.zeros(10))
        model = fit(data, build_total_degree_set(1, 1), UNIT_SPEC)
        for method in ("jackknife", "jackknife_plus"):
            with pytest.raises(ZeroVarianceError, match="too small to normalize scores"):
                interval_arrays(model, x[:2], ConformalConfig(method, "normalized", 0.2))
            interval_arrays(model, x[:2], ConformalConfig(method, "absolute", 0.2))


class TestHandWorkedIntervals:
    def test_stored_quantities_match_hand_math(self, hand_model):
        np.testing.assert_allclose(hand_model.coefficients, [1.0 / 3.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(hand_model.hat_diag, [5.0 / 6.0, 1.0 / 3.0, 5.0 / 6.0], rtol=1e-13)
        np.testing.assert_allclose(hand_model.loo_residuals, [-2.0, 1.0, -2.0], rtol=1e-12)
        assert surrogate(hand_model, np.array([0.5]))[0] == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_jackknife_hand_values(self, hand_model):
        cfg = ConformalConfig(method="jackknife", score="absolute", significance=0.5)
        center, lower, upper = one_interval(hand_model, np.array([0.5]), cfg)
        # k = ceil(0.5 * 4) = 2 -> second smallest of {2, 1, 2} = 2
        assert center == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert lower == pytest.approx(1.0 / 3.0 - 2.0, rel=1e-12)
        assert upper == pytest.approx(1.0 / 3.0 + 2.0, rel=1e-12)

    def test_jackknife_plus_hand_values(self, hand_model):
        # LOO predictions at 0.5 are (1/2, 0, 3/2); scores (2, 1, 2).
        # lower candidates {-3/2, -1, -1/2}: floor(0.5 * 4) = 2 -> -1
        # upper candidates {5/2, 1, 7/2}: ceil(0.5 * 4) = 2 -> 5/2
        np.testing.assert_allclose(
            loo_predict(hand_model, np.array([0.5])), [0.5, 0.0, 1.5], atol=1e-12
        )
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.5)
        center, lower, upper = one_interval(hand_model, np.array([0.5]), cfg)
        assert lower == pytest.approx(-1.0, rel=1e-12)
        assert upper == pytest.approx(2.5, rel=1e-12)
        assert center == pytest.approx(1.0 / 3.0, rel=1e-12)


@pytest.fixture(scope="module")
def otl_model():
    bench = get_benchmark("otl_circuit")
    train = sample_design("otl_circuit", design_size("otl_circuit", 2, 5), seed=3)
    model = fit(train, build_total_degree_set(6, 2), bench.input_spec)
    points = sample_design("otl_circuit", 50, seed=90, stream="test").inputs
    return model, points


@pytest.fixture(scope="module")
def piston_p4_model():
    # Piston P=4, C=3: M=990 and K=330, the benchmark's query model.
    bench = get_benchmark("piston")
    data = sample_design("piston", design_size("piston", 4, 3), seed=3)
    return fit(data, build_total_degree_set(bench.dim, 4), bench.input_spec)


class TestIntervalProperties:
    def test_jackknife_symmetric_from_same_quantile(self, otl_model):
        model, points = otl_model
        cfg = ConformalConfig(method="jackknife", score="absolute", significance=0.05)
        half = finite_quantile_upper(np.abs(model.loo_residuals), cfg.significance)
        for p in points[:10]:
            center, lower, upper = one_interval(model, p, cfg)
            assert upper == center + half
            assert lower == center - half

    @pytest.mark.parametrize("method", ["jackknife", "jackknife_plus"])
    def test_normalization_invariance(self, otl_model, method):
        model, points = otl_model
        abs_ivs = interval_arrays(
            model, points, ConformalConfig(method=method, score="absolute", significance=0.05)
        )
        norm_ivs = interval_arrays(
            model, points, ConformalConfig(method=method, score="normalized", significance=0.05)
        )
        for a, n in zip(abs_ivs, norm_ivs):
            np.testing.assert_array_equal(n, a)

    @pytest.mark.parametrize("method", ["jackknife", "jackknife_plus"])
    def test_monotone_in_significance(self, otl_model, method):
        model, points = otl_model
        s_grid = [0.02, 0.05, 0.1, 0.3]
        previous = None
        for s in s_grid:
            _, lowers, uppers = interval_arrays(
                model, points, ConformalConfig(method=method, score="absolute", significance=s)
            )
            if previous is not None:
                assert np.all(previous[0] <= lowers)
                assert np.all(uppers <= previous[1])
            previous = lowers, uppers

    @pytest.mark.parametrize("method", ["jackknife", "jackknife_plus"])
    def test_permutation_invariance(self, method):
        bench = get_benchmark("otl_circuit")
        train = sample_design("otl_circuit", design_size("otl_circuit", 2, 3), seed=17)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(train))
        shuffled = Dataset(inputs=train.inputs[perm], outputs=train.outputs[perm])
        iset = build_total_degree_set(6, 2)
        cfg = ConformalConfig(method=method, score="absolute", significance=0.05)
        points = sample_design("otl_circuit", 20, seed=91, stream="test").inputs
        _, lo_a, hi_a = interval_arrays(fit(train, iset, bench.input_spec), points, cfg)
        _, lo_b, hi_b = interval_arrays(fit(shuffled, iset, bench.input_spec), points, cfg)
        for a, b in ((lo_a, lo_b), (hi_a, hi_b)):
            assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))

    def test_degenerate_sandwich(self):
        # All scores equal a and all LOO predictions equal the center:
        # both methods give [mu - a, mu + a].
        a = 0.75
        data = Dataset(inputs=np.linspace(-1.0, 1.0, 9)[:, None], outputs=np.zeros(9))
        model = replace(
            fit(data, build_total_degree_set(1, 1), UNIT_SPEC),
            coefficients=np.array([2.0, 0.0]),
            loo_residuals=np.full(9, a),
            loo_corrections=np.zeros((9, 2)),
        )
        cfg_jk = ConformalConfig(method="jackknife", score="absolute", significance=0.25)
        cfg_jkp = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.25)
        x = np.array([0.4])
        for cfg in (cfg_jk, cfg_jkp):
            _, lower, upper = one_interval(model, x, cfg)
            assert lower == pytest.approx(2.0 - a, rel=1e-14)
            assert upper == pytest.approx(2.0 + a, rel=1e-14)

    def test_unbounded_when_sample_too_small(self, hand_model):
        # M = 3, s = 0.05: ceil(0.95 * 4) = 4 > 3 for both methods.
        x = np.array([0.2])
        for method in ("jackknife", "jackknife_plus"):
            cfg = ConformalConfig(method=method, score="absolute", significance=0.05)
            center, lower, upper = one_interval(hand_model, x, cfg)
            assert lower == -math.inf
            assert upper == math.inf
            assert math.isfinite(center)

    def test_interval_arrays_matches_pointwise(self, otl_model):
        model, points = otl_model
        for method in ("jackknife", "jackknife_plus"):
            cfg = ConformalConfig(method=method, score="absolute", significance=0.1)
            batch = interval_arrays(model, points, cfg)
            one_by_one = np.array([one_interval(model, p, cfg) for p in points]).T
            np.testing.assert_allclose(batch, one_by_one, rtol=1e-14)

    @pytest.mark.parametrize("method", ["jackknife", "jackknife_plus"])
    def test_float32_significance_is_its_float(self, otl_model, method):
        model, points = otl_model
        s = np.float32(0.1)
        got = interval_arrays(model, points, ConformalConfig(method, significance=s))
        want = interval_arrays(model, points, ConformalConfig(method, significance=float(s)))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("method", ["jackknife", "jackknife_plus"])
    def test_empty_batch_gives_empty_arrays(self, otl_model, method):
        model, points = otl_model
        cfg = ConformalConfig(method=method, score="absolute", significance=0.1)
        got = interval_arrays(model, points[:0], cfg)
        assert [a.shape for a in got] == [(0,)] * 3

    def test_real_design_takes_both_selection_branches(self):
        # Piston P=3, C=2 (M=240) at s = 0.05: t = 12, 32 candidate columns.
        # Most rows clear the certificate over all columns, some only over
        # the columns outside the candidates, and the rest are selected over
        # their whole row; np.flatnonzero finds the rows of the last two, and
        # all three give the bits of a whole-row partition.
        bench = get_benchmark("piston")
        data = sample_design("piston", design_size("piston", 3, 2), seed=0)
        model = fit(data, build_total_degree_set(bench.dim, 3), bench.input_spec)
        points = sample_design("piston", 2_000, seed=1, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", significance=0.05)
        a, m = np.abs(model.loo_residuals), model.n_train
        k = _upper_index(m, 0.05)
        assert conformal._candidates(a, k)[0].size == 32
        flatnonzero, fallback = np.flatnonzero, []

        def counted(condition):
            fallback.append(flatnonzero(condition).size)
            return flatnonzero(condition)

        with mock.patch.object(conformal, "_WORKERS", 1), \
                mock.patch.object(np, "flatnonzero", counted):
            _, lowers, uppers = interval_arrays(model, points, cfg)
        second, whole = fallback[::2], fallback[1::2]
        assert len(whole) == len(second) == -(-2_000 // _chunk_rows(m))
        assert 0 < sum(whole) < sum(second) < 2_000 / 2
        loo = loo_predict(model, points)
        assert lowers.tobytes() == np.partition(loo - a, m - k, axis=1)[:, m - k].tobytes()
        assert uppers.tobytes() == np.partition(loo + a, k - 1, axis=1)[:, k - 1].tobytes()

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("columns", [(0,), (39,), (0, 1), (38, 39)])
    def test_nonfinite_loo_values_end_as_with_whole_rows(self, special, columns):
        # M = 40, s = 0.05: t = 2 and the 12 largest scores, columns 28-39,
        # are the candidates. A NaN fails the certificate, so its row is
        # selected whole, and two NaNs at one end are an IntervalError.
        values = np.linspace(-1.0, 1.0, 40)
        values[list(columns)] = special
        model = PceModel(
            index_set=build_total_degree_set(1, 0),
            input_spec=UNIT_SPEC,
            training_snapshot=Dataset(inputs=np.zeros((40, 1)), outputs=np.zeros(40)),
            coefficients=np.zeros(1),
            hat_diag=np.zeros(40),
            loo_residuals=np.arange(1.0, 41.0),
            loo_corrections=-values[:, None],
            condition_number=1.0,
        )
        cfg = ConformalConfig(method="jackknife_plus", significance=0.05)
        assert conformal._candidates(np.arange(1.0, 41.0), _upper_index(40, 0.05)) is not None

        def outcome():
            try:
                return [v.tobytes() for v in interval_arrays(model, np.zeros((1, 1)), cfg)]
            except IntervalError as exc:
                return str(exc)

        got = outcome()
        with mock.patch.object(conformal, "_candidates", lambda a, k: None):
            assert got == outcome()
        if np.isnan(special) and len(columns) == 2:
            assert "upper nan" in got or "lower nan" in got

    def test_lone_last_row_has_the_bits_of_a_longer_block(self):
        # Piston P=4, C=2 (M=660) takes blocks of 196 points, so a batch of
        # 197 leaves one row past the block, which joins it. Its bounds have
        # the bits of the same five points as a batch of their own. With the
        # BLAS on one thread, a one-row product gives this row's lower bound
        # other bits.
        code = """
from confpce.basis import build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import ConformalConfig, _chunk_rows, interval_arrays
from confpce.pce import fit
bench = get_benchmark("piston")
data = sample_design("piston", design_size("piston", 4, 2), seed=0)
model = fit(data, build_total_degree_set(bench.dim, 4), bench.input_spec)
assert _chunk_rows(model.n_train) == 196
points = sample_design("piston", 197, seed=16, stream="test").inputs
cfg = ConformalConfig(method="jackknife_plus", significance=0.1)
batch = interval_arrays(model, points, cfg)
five = interval_arrays(model, points[-5:], cfg)
print([got[-1:].tobytes() == want[-1:].tobytes() for got, want in zip(batch, five)])
"""
        assert run_python(code, threads="1").stdout.strip() == "[True, True, True]"

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunked_jackknife_plus_matches_unchunked_partition(self, otl_model, offset):
        model, _ = otl_model
        m = model.n_train
        n = _chunk_rows(m) + offset
        points = sample_design("otl_circuit", n, seed=92, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        k = math.ceil(0.95 * (m + 1))
        loo = loo_predict(model, points)
        a = np.abs(model.loo_residuals)
        want_lo = np.partition(loo - a, m - k, axis=1)[:, m - k]
        want_hi = np.partition(loo + a, k - 1, axis=1)[:, k - 1]
        centers, lowers, uppers = interval_arrays(model, points, cfg)
        np.testing.assert_array_equal(centers, surrogate(model, points))
        np.testing.assert_array_equal(lowers, want_lo)
        np.testing.assert_array_equal(uppers, want_hi)

    def test_jackknife_plus_workspace_is_bounded(self, piston_p4_model):
        # Piston P=4, C=3 (M=990) at 10,000 points: the LOO matrix is 79 MB,
        # the workspace of one worker two buffers of 1 MiB. One holds the
        # basis scratch, then a block of LOO predictions; the other the
        # block's basis rows, then the selection's values. The rest is the
        # mapped points and the results.
        points = sample_design("piston", 10_000, seed=3, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        with mock.patch.object(conformal, "_WORKERS", 1):
            tracemalloc.start()
            try:
                interval_arrays(piston_p4_model, points, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3.5 * 2**20, f"jackknife+ call peaked at {peak / 2**20:.1f} MiB"

    def test_jackknife_plus_workspace_is_bounded_at_m_1650(self):
        # Piston P=4, C=5: blocks of 76 rows of 1,650 LOO values, 172 of
        # them candidates at s = 0.05, where some rows fall back to whole rows.
        bench = get_benchmark("piston")
        data = sample_design("piston", design_size("piston", 4, 5), seed=3)
        model = fit(data, build_total_degree_set(bench.dim, 4), bench.input_spec)
        points = sample_design("piston", 10_000, seed=3, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        with mock.patch.object(conformal, "_WORKERS", 1):
            tracemalloc.start()
            try:
                interval_arrays(model, points, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3.5 * 2**20, f"jackknife+ call peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("n", [10_000, 40_000])
    def test_interval_arrays_peak_does_not_grow_with_the_batch(self, piston_p4_model, n):
        # The whole call, rows included: at 40,000 points the rows alone
        # would be 106 MB. What grows with n is the mapped points and the
        # three results, 80 bytes a point here.
        points = sample_design("piston", n, seed=3, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        with mock.patch.object(conformal, "_WORKERS", 2):
            tracemalloc.start()
            try:
                interval_arrays(piston_p4_model, points, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 2**20, f"jackknife+ call peaked at {peak / 2**20:.1f} MiB"

    def test_import_starts_no_thread(self):
        code = "import threading, confpce; print([t.name for t in threading.enumerate()])"
        assert run_python(code).stdout.strip() == "['MainThread']"

    def test_multi_block_jackknife_plus_leaves_no_thread(self, otl_model):
        model, _ = otl_model
        n = 5 * _chunk_rows(model.n_train)
        points = sample_design("otl_circuit", n, seed=93, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        before = threading.enumerate()
        with mock.patch.object(conformal, "_WORKERS", 2):
            interval_arrays(model, points, cfg)
        assert threading.enumerate() == before

    @staticmethod
    def _block_threads(model, points, cfg, wait_for=1):
        """(threads that evaluated a block, in order; Thread.start calls) of one call.

        With wait_for=2, each thread's first selection waits for the other's,
        so the helper takes a block however late the pool starts it. The wait
        sits outside the lock that the block's basis phases take turns on.
        """
        threads, waited, both = [], set(), threading.Barrier(wait_for, timeout=10)
        eval_basis_matrix, order_statistics = conformal.eval_basis_matrix, conformal._order_statistics

        def recorded(*args, **kwargs):
            threads.append(threading.current_thread())
            return eval_basis_matrix(*args, **kwargs)

        def waiting(*args):
            if threading.current_thread() not in waited:
                waited.add(threading.current_thread())
                both.wait()
            return order_statistics(*args)

        with mock.patch.multiple(conformal, _WORKERS=2, eval_basis_matrix=recorded,
                                 _order_statistics=waiting), \
                mock.patch.object(threading.Thread, "start", autospec=True,
                                  side_effect=threading.Thread.start) as start:
            interval_arrays(model, points, cfg)
        return threads, start.call_count

    @pytest.mark.parametrize("method", ["jackknife", "jackknife_plus"])
    def test_one_block_runs_on_the_calling_thread(self, otl_model, method):
        model, points = otl_model
        cfg = ConformalConfig(method=method, score="absolute", significance=0.05)
        threads, started = self._block_threads(model, points, cfg)
        assert threads == [threading.current_thread()]
        assert started == 0

    @pytest.mark.parametrize("method", ["jackknife", "jackknife_plus"])
    def test_multi_block_call_runs_on_the_caller_and_one_helper(self, otl_model, method):
        # Only a call that forms LOO products starts a helper: a jackknife
        # call, centers alone, runs every block on the calling thread.
        plus = method == "jackknife_plus"
        model, _ = otl_model
        row_len = model.n_train if plus else model.n_basis
        points = sample_design("otl_circuit", 5 * _chunk_rows(row_len), seed=93,
                               stream="test").inputs
        cfg = ConformalConfig(method=method, score="absolute", significance=0.05)
        before = threading.enumerate()
        threads, started = self._block_threads(model, points, cfg, wait_for=1 + plus)
        assert threading.enumerate() == before
        assert len(threads) == 5 and started == plus
        helpers = set(threads) - {threading.current_thread()}
        assert len(helpers) == plus
        assert all(helper.name.startswith("confpce-intervals") for helper in helpers)

    def test_block_basis_phases_take_turns(self, otl_model):
        # Each block's basis evaluation and centers product run under one
        # lock, so the two workers' basis phases never overlap in time; the
        # first selection of each worker waits for the other's, so both run.
        model, _ = otl_model
        points = sample_design("otl_circuit", 9 * _chunk_rows(model.n_train), seed=93,
                               stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        spans, eval_basis_matrix = [], conformal.eval_basis_matrix

        def timed(*args, **kwargs):
            start = time.perf_counter()
            time.sleep(1e-3)  # a switch point inside the phase
            try:
                return eval_basis_matrix(*args, **kwargs)
            finally:
                spans.append((start, time.perf_counter()))

        with mock.patch.object(conformal, "eval_basis_matrix", timed):
            threads, _ = self._block_threads(model, points, cfg, wait_for=2)
        assert len(spans) == 9 and len(set(threads)) == 2
        spans.sort()
        assert all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:]))

    def test_small_query_runs_as_one_block_on_the_calling_thread(self, piston_p4_model):
        # A 100-point batch at M=990 fits one block of 132 points, so it
        # starts no helper thread.
        points = sample_design("piston", 100, seed=94, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        threads, started = self._block_threads(piston_p4_model, points, cfg)
        assert threads == [threading.current_thread()]
        assert started == 0

    def test_partial_second_block_starts_no_helper(self, piston_p4_model):
        # 200 points at M=990 take blocks of 132 and 68 points: the helper
        # starts only for a second full block, so both run on the caller.
        points = sample_design("piston", 200, seed=94, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        threads, started = self._block_threads(piston_p4_model, points, cfg)
        assert threads == [threading.current_thread()] * 2
        assert started == 0

    @pytest.mark.parametrize("extra", [0, 1])
    def test_jackknife_blocks_are_sized_by_the_basis_rows(self, piston_p4_model, extra):
        # K=330 basis values against M=990 LOO values a point: a jackknife
        # block holds three times the points of a jackknife+ block, each
        # rounded down to a multiple of 4 (396 against 132). Eight more
        # points make a second block; fewer would join the first.
        step = _chunk_rows(piston_p4_model.n_basis)
        assert step > 2 * _chunk_rows(piston_p4_model.n_train)
        points = sample_design("piston", step + 8 * extra, seed=95, stream="test").inputs
        cfg = ConformalConfig(method="jackknife", score="absolute", significance=0.05)
        threads, _ = self._block_threads(piston_p4_model, points, cfg)
        assert len(threads) == 1 + extra  # one basis evaluation per block

    @pytest.mark.parametrize("method", ["jackknife", "jackknife_plus"])
    @pytest.mark.parametrize(
        "n_step, extra, lengths",
        [(0, 1, [1]), (0, 7, [7]), (0, 8, [8]), (1, 7, [23]), (1, 8, [16, 8]), (2, 7, [16, 23])],
        ids=["1", "7", "8", "step+7", "step+8", "2step+7"],
    )
    def test_short_remainders_join_the_last_block(self, otl_model, method, n_step, extra, lengths):
        # Blocks of 16 rows: a remainder under 8 rows joins the block before,
        # the bits do not depend on the worker count and match the blocked
        # oracle, and a helper starts only for a second full block.
        model, _ = otl_model
        cfg = ConformalConfig(method=method, score="absolute", significance=0.05)
        row_len = model.n_train if method == "jackknife_plus" else model.n_basis
        with mock.patch.object(conformal, "_CHUNK_BYTES", 16 * 8 * row_len):
            step = _chunk_rows(row_len)
            n = n_step * step + extra
            points = sample_design("otl_circuit", n, seed=96, stream="test").inputs
            assert [stop - start for start, stop in conformal._blocks(n, step)] == lengths
            want = whole_batch_intervals(model, points, cfg)
            runs = []
            for workers in (1, 2):
                with mock.patch.object(conformal, "_WORKERS", workers):
                    runs.append(interval_arrays(model, points, cfg))
            threads, started = self._block_threads(model, points, cfg)
        helper = method == "jackknife_plus" and n >= 2 * step
        assert step == 16 and len(threads) == len(lengths) and started == helper
        for label, one, two, w in zip(("centers", "lowers", "uppers"), *runs, want):
            assert np.array_equal(one, two) and np.array_equal(one, w), label


class TestIntervalError:
    @pytest.mark.parametrize("method", ["jackknife", "jackknife_plus"])
    def test_nan_coefficients_raise_typed_error(self, otl_model, method):
        model, points = otl_model
        broken = replace(model, coefficients=np.full(model.n_basis, np.nan))
        cfg = ConformalConfig(method=method, score="absolute", significance=0.05)
        with pytest.raises(IntervalError, match="point 0"):
            interval_arrays(broken, points, cfg)
        with pytest.raises(IntervalError, match="point 0"):
            one_interval(broken, points[0], cfg)

    def test_jackknife_bounds_from_any_centers(self, otl_model):
        # The harness takes jackknife bounds from a jackknife+ call's centers.
        model, points = otl_model
        cfg = ConformalConfig(method="jackknife", score="absolute", significance=0.05)
        want = interval_arrays(model, points, cfg)
        plus = interval_arrays(model, points, replace(cfg, method="jackknife_plus"))
        for got, expected in zip(jackknife_bounds(model, plus[0], 0.05), want):
            np.testing.assert_array_equal(got, expected)
        centers = want[0].copy()
        centers[2] = np.nan
        with pytest.raises(IntervalError, match="point 2 has lower nan"):
            jackknife_bounds(model, centers, 0.05)

    @pytest.mark.parametrize("significance", [1.5, 1.0, True, math.nan, "0.05"],
                             ids=["above-one", "one", "bool", "nan", "string"])
    def test_jackknife_bounds_refuses_significance_outside_the_rule(self, otl_model,
                                                                    significance):
        model, points = otl_model
        with pytest.raises(ValidationError, match="significance must"):
            jackknife_bounds(model, surrogate(model, points), significance)

    def test_jackknife_bounds_reads_centers_as_real_arrays(self, otl_model):
        model, points = otl_model
        centers = surrogate(model, points)
        got = jackknife_bounds(model, centers.tolist(), 0.05)
        for g, w in zip(got, jackknife_bounds(model, centers, 0.05)):
            np.testing.assert_array_equal(g, w)
        with pytest.raises(ValidationError, match="centers must be real numbers"):
            jackknife_bounds(model, ["a", "b"], 0.05)

    def test_jackknife_bounds_leaves_centers_unwritten(self, otl_model):
        model, points = otl_model
        centers = surrogate(model, points)
        given = centers.copy()
        got, lowers, uppers = jackknife_bounds(model, centers, 0.05)
        np.testing.assert_array_equal(centers, given)
        assert got is centers
        assert not np.shares_memory(lowers, centers) and not np.shares_memory(uppers, centers)

    def test_inverted_bounds_raise_typed_error(self):
        # At s > 1/2 the jackknife+ lower order statistic (floor(s(M+1))-th)
        # can pass the upper one (ceil((1-s)(M+1))-th), so such a
        # configuration is refused before any interval is built.
        with pytest.raises(ValueError, match="jackknife_plus needs significance <= 1/2"):
            ConformalConfig(method="jackknife_plus", score="absolute", significance=0.75)
        with pytest.raises(ValueError, match="<= 1/2"):
            ConformalConfig(method="jackknife_plus", significance=0.5000001)
        assert ConformalConfig(method="jackknife_plus", significance=0.5).significance == 0.5
        assert ConformalConfig(method="jackknife", significance=0.75).significance == 0.75


class TestEmpiricalCoverage:
    def test_unbounded_covers_everything(self):
        truths = [1e9, -1e9, 0.0, math.pi]
        assert empirical_coverage(np.full(4, -math.inf), np.full(4, math.inf), truths) == 1.0

    def test_zero_width_at_wrong_values(self):
        assert empirical_coverage(np.zeros(3), np.zeros(3), [1.0, 2.0, -1.0]) == 0.0

    def test_boundary_hits_count(self):
        coverage = empirical_coverage(np.zeros(3), np.ones(3), [0.5, 2.0, 1.0])
        assert coverage == pytest.approx(2.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="but 2 truth values"):
            empirical_coverage([0.0], [1.0], [0.5, 0.6])
        with pytest.raises(ValueError, match="1 lowers and 2 uppers"):
            empirical_coverage([0.0], [1.0, 1.0], [0.5])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            empirical_coverage([], [], [])
