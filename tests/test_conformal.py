"""Tests for finite-sample quantiles and the two interval constructions."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import surrogate

import confpce
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
from confpce.errors import IntervalError, ZeroVarianceError
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
    def test_empty_batch_gives_empty_arrays(self, otl_model, method):
        model, points = otl_model
        cfg = ConformalConfig(method=method, score="absolute", significance=0.1)
        got = interval_arrays(model, points[:0], cfg)
        assert [a.shape for a in got] == [(0,)] * 3

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
        # the workspace of one worker a 4 MB block and a 1.4 MB buffer for
        # the block's basis rows, which the shifted sub-blocks reuse.
        points = sample_design("piston", 10_000, seed=3, stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        with mock.patch.object(conformal, "_WORKERS", 1):
            tracemalloc.start()
            try:
                interval_arrays(piston_p4_model, points, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 9 * 2**20, f"jackknife+ call peaked at {peak / 2**20:.1f} MiB"

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
        assert peak < 16 * 2**20, f"jackknife+ call peaked at {peak / 2**20:.1f} MiB"

    def test_import_starts_no_thread(self):
        paths = (str(Path(confpce.__file__).parents[1]), os.environ.get("PYTHONPATH"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        code = "import threading, confpce; print([t.name for t in threading.enumerate()])"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['MainThread']"

    def test_multi_block_jackknife_plus_leaves_no_thread(self, otl_model):
        model, _ = otl_model
        points = sample_design("otl_circuit", 5 * _chunk_rows(model.n_train), seed=93,
                               stream="test").inputs
        cfg = ConformalConfig(method="jackknife_plus", score="absolute", significance=0.05)
        before = threading.enumerate()
        with mock.patch.object(conformal, "_WORKERS", 2):
            interval_arrays(model, points, cfg)
        assert threading.enumerate() == before

    @staticmethod
    def _block_threads(model, points, cfg, wait_for=1):
        """(threads that evaluated a block, in order; Thread.start calls) of one call.

        With wait_for=2, each thread's first block waits for the other's, so
        the helper takes a block however late the pool starts it.
        """
        threads, both = [], threading.Barrier(wait_for, timeout=10)
        eval_basis_matrix = conformal.eval_basis_matrix

        def recorded(*args, **kwargs):
            if threading.current_thread() not in threads:
                both.wait()
            threads.append(threading.current_thread())
            return eval_basis_matrix(*args, **kwargs)

        with mock.patch.multiple(conformal, _WORKERS=2, eval_basis_matrix=recorded), \
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
        model, _ = otl_model
        points = sample_design("otl_circuit", 5 * _chunk_rows(model.n_train), seed=93,
                               stream="test").inputs
        cfg = ConformalConfig(method=method, score="absolute", significance=0.05)
        before = threading.enumerate()
        threads, started = self._block_threads(model, points, cfg, wait_for=2)
        assert threading.enumerate() == before
        assert len(threads) == 5 and started == 1
        helpers = set(threads) - {threading.current_thread()}
        assert len(helpers) == 1
        assert helpers.pop().name.startswith("confpce-intervals")


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
