"""Tests for least-squares fitting and the closed-form leave-one-out path."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import surrogate

import confpce
from confpce import basis, pce
from confpce.basis import InputSpec, build_total_degree_set, eval_basis_matrix, to_reference
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.errors import (
    BasisSizeError,
    LeverageError,
    NonFiniteFitError,
    RankDeficientError,
    UnderdeterminedError,
)
from confpce.pce import (
    Dataset,
    brute_force_loo,
    fit,
    from_json,
    loo_predict,
    pce_variance,
    relative_loo_error,
    to_json,
)

UNIT_SPEC = InputSpec(ranges=((-1.0, 1.0),))

# Prints the growth of the process's resident peak over one fit of benchmark
# NAME at degree P to M points, in units of the 8 M K byte design.
FIT_PEAK_CHILD = """
import resource, sys
from confpce.basis import build_total_degree_set
from confpce.benchmarks import get_benchmark, sample_design
from confpce.pce import fit
name, degree, m = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
bench = get_benchmark(name)
small, index_set = build_total_degree_set(bench.dim, 1), build_total_degree_set(bench.dim, degree)
fit(sample_design(name, 32, seed=1), small, bench.input_spec)  # load the libraries
data = sample_design(name, m, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
fit(data, index_set, bench.input_spec)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024 / (8 * m * len(index_set)))
"""

# On Linux a new process's ru_maxrss starts at the resident size of the
# process that spawned it, so the fit runs in a grandchild spawned from this
# bare interpreter, which is smaller than numpy alone.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def fit_peak_designs(name, degree, m):
    """FIT_PEAK_CHILD's measurement, in a grandchild with the BLAS on one thread.

    One BLAS thread, so that no thread buffers of the BLAS are counted.
    """
    paths = (str(Path(confpce.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-c", FIT_PEAK_CHILD, name, str(degree),
         str(m)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


def unit_dataset(fn, m, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(m, 1))
    return Dataset(inputs=x, outputs=fn(x[:, 0]))


@pytest.fixture(scope="module")
def otl_fit():
    bench = get_benchmark("otl_circuit")
    iset = build_total_degree_set(6, 2)
    train = sample_design("otl_circuit", design_size("otl_circuit", 2, 3), seed=11)
    return fit(train, iset, bench.input_spec), train, iset, bench


class TestFitBasics:
    def test_constant_target(self):
        data = unit_dataset(lambda x: np.ones_like(x), m=20)
        model = fit(data, build_total_degree_set(1, 3), UNIT_SPEC)
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_allclose(model.coefficients, expected, atol=1e-13)
        np.testing.assert_allclose(model.loo_residuals, 0.0, atol=1e-12)

    def test_linear_target_coefficient(self):
        # y(xi) = xi = (1/sqrt(3)) * psi_1(xi)
        data = unit_dataset(lambda x: x, m=30, seed=4)
        model = fit(data, build_total_degree_set(1, 2), UNIT_SPEC)
        assert model.coefficients[1] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)
        np.testing.assert_allclose(model.loo_residuals, 0.0, atol=1e-12)

    def test_underdetermined(self):
        data = unit_dataset(lambda x: x, m=3)
        with pytest.raises(UnderdeterminedError, match="M=3"):
            fit(data, build_total_degree_set(1, 3), UNIT_SPEC)

    def test_rank_deficient(self):
        # Every sample at the same point: rank-one design.
        x = np.full((6, 1), 0.25)
        data = Dataset(inputs=x, outputs=np.ones(6))
        with pytest.raises(RankDeficientError):
            fit(data, build_total_degree_set(1, 2), UNIT_SPEC)

    def test_exactly_singular_design(self):
        # Six samples at the box midpoint, where psi_1 is 0: R is exactly
        # [[-sqrt(6), 0], [0, 0]], on which a triangular solve fails outright.
        data = Dataset(inputs=np.zeros((6, 1)), outputs=np.ones(6))
        with pytest.raises(RankDeficientError, match="condition number inf"):
            fit(data, build_total_degree_set(1, 1), UNIT_SPEC)

    def test_memory_budget_refuses_before_building_the_design(self, monkeypatch):
        bench = get_benchmark("piston")
        iset = build_total_degree_set(bench.dim, 4)
        data = sample_design("piston", design_size("piston", 4, 3), seed=0)
        m, k = len(data), len(iset)
        need = pce._FIT_PEAK_DESIGNS * 8 * m * k
        # The 2.6 MB design alone is within the lowered budget; its fit is not.
        assert 8 * m * k < need - 1 and 8 * m * k > 2**20
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(BasisSizeError, match=f"^basis matrix of {m} points by K={k} terms, "
                               f"with its fit, needs {need} bytes, exceeding the limit of {need - 1}$"):
                fit(data, iset, bench.input_spec)
            refused_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            monkeypatch.setattr(basis, "MAX_BASIS_BYTES", need)
            fit(data, iset, bench.input_spec)
            fit_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refused_peak < 2**20, f"allocated {refused_peak} bytes before refusing"
        assert fit_peak < need

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB only on Linux")
    def test_resident_peak_is_three_designs_when_m_dwarfs_k(self):
        # A 38.4 MB design: the peak is the design, scipy's Fortran copy
        # that becomes Q and Q's C-order copy, plus the small K x K factors.
        designs = fit_peak_designs("piston", 3, 40_000)
        assert 2.0 < designs < 3.5

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB only on Linux")
    def test_resident_peak_stays_within_the_budget_when_m_nears_k(self):
        # wing_weight P=4 (K=1,001) at M=1,100: the K x K factors weigh
        # almost a design each, so R^-1 is solved in place and each factor
        # is freed once used (measured 4.8).
        designs = fit_peak_designs("wing_weight", 4, 1_100)
        assert 3.0 < designs < 5.3 < pce._FIT_PEAK_DESIGNS

    def test_interpolation_regime_leverage(self):
        # M = K makes the hat matrix the identity: every leverage is 1.
        x = np.linspace(-1, 1, 4)[:, None]
        data = Dataset(inputs=x, outputs=np.sin(x[:, 0]))
        with pytest.raises(LeverageError):
            fit(data, build_total_degree_set(1, 3), UNIT_SPEC)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_outputs(self):
        # Finite outputs near the largest double: Q^T y overflows to inf.
        data = Dataset(inputs=np.linspace(-1, 1, 30)[:, None], outputs=np.full(30, 1e308))
        with pytest.raises(NonFiniteFitError, match="overflows"):
            fit(data, build_total_degree_set(1, 2), UNIT_SPEC)

    def test_dimension_mismatch(self):
        data = unit_dataset(lambda x: x, m=10)
        with pytest.raises(ValueError):
            fit(data, build_total_degree_set(2, 1), InputSpec(ranges=((-1.0, 1.0), (-1.0, 1.0))))


class TestHatIdentities:
    def test_trace_and_range(self, otl_fit):
        model, _, iset, _ = otl_fit
        assert np.all(model.hat_diag >= 0.0)
        assert np.all(model.hat_diag <= 1.0)
        assert abs(model.hat_diag.sum() - len(iset)) <= 1e-8

    def test_loo_times_one_minus_h_is_training_residual(self, otl_fit):
        model, train, _, _ = otl_fit
        plain = train.outputs - surrogate(model, train.inputs)
        recovered = model.loo_residuals * (1.0 - model.hat_diag)
        np.testing.assert_allclose(recovered, plain, rtol=1e-10, atol=1e-14)


class TestPredict:
    def test_constant_model(self):
        data = unit_dataset(lambda x: np.full_like(x, 1.0), m=12)
        model = fit(data, build_total_degree_set(1, 2), UNIT_SPEC)
        assert surrogate(model, np.array([0.3]))[0] == pytest.approx(1.0, rel=1e-13)

    def test_one_hot_coefficients_reproduce_basis(self):
        iset = build_total_degree_set(2, 2)
        spec = InputSpec(ranges=((-1.0, 1.0), (-1.0, 1.0)))
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(5, 2))
        train = rng.uniform(-1, 1, size=(20, 2))
        fitted = fit(Dataset(inputs=train, outputs=train[:, 0]), iset, spec)
        for k in range(len(iset)):
            coeffs = np.zeros(len(iset))
            coeffs[k] = 1.0
            model = replace(fitted, coefficients=coeffs)
            for p in pts:
                assert surrogate(model, p)[0] == pytest.approx(
                    eval_basis_matrix(p[None, :], iset)[0, k], rel=1e-14, abs=1e-15
                )

    def test_matches_manual_dot_product(self, otl_fit):
        model, _, iset, bench = otl_fit
        mid = (bench.input_spec.lower() + bench.input_spec.upper()) / 2.0
        xi = to_reference(mid, bench.input_spec)
        manual = float(eval_basis_matrix(xi[None, :], iset)[0] @ model.coefficients)
        assert surrogate(model, mid)[0] == pytest.approx(manual, rel=1e-13)

    def test_batch_shape(self, otl_fit):
        model, train, _, _ = otl_fit
        values = surrogate(model, train.inputs[:7])
        assert values.shape == (7,)


class TestClosedFormLoo:
    def test_exact_polynomial_collapses(self):
        data = unit_dataset(lambda x: 2.0 + 0.5 * x, m=25, seed=2)
        model = fit(data, build_total_degree_set(1, 3), UNIT_SPEC)
        np.testing.assert_allclose(model.loo_residuals, 0.0, atol=1e-12)
        x_star = np.array([0.37])
        lp = loo_predict(model, x_star)
        np.testing.assert_allclose(lp, surrogate(model, x_star)[0], rtol=0, atol=1e-12)

    def test_loo_predict_at_training_point(self, otl_fit):
        # Substituting d_* = d_m collapses the rank-one update to y_m - r_m.
        model, train, _, _ = otl_fit
        for m in (0, 5, 41):
            lp = loo_predict(model, train.inputs[m])
            expected = train.outputs[m] - model.loo_residuals[m]
            assert lp[m] == pytest.approx(expected, rel=1e-10)

    def test_oracle_agreement_otl(self, otl_fit):
        model, train, iset, bench = otl_fit
        x_star = sample_design("otl_circuit", 10, seed=77, stream="test").inputs
        brute_res, brute_pred = brute_force_loo(train, iset, bench.input_spec, x_star=x_star)
        np.testing.assert_allclose(model.loo_residuals, brute_res, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(loo_predict(model, x_star), brute_pred, rtol=1e-8, atol=1e-10)

    def test_oracle_agreement_meromorphic(self):
        bench = get_benchmark("meromorphic")
        iset = build_total_degree_set(1, 3)
        train = sample_design("meromorphic", design_size("meromorphic", 3, 2), seed=5)
        model = fit(train, iset, bench.input_spec)
        x_star = sample_design("meromorphic", 10, seed=23, stream="test").inputs
        brute_res, brute_pred = brute_force_loo(train, iset, bench.input_spec, x_star=x_star)
        np.testing.assert_allclose(model.loo_residuals, brute_res, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(loo_predict(model, x_star), brute_pred, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("name,degree", [("piston", 3), ("wing_weight", 2)])
    def test_oracle_agreement_high_degree(self, name, degree):
        # Heavier end of the closed-form/refit equivalence sweep.
        bench = get_benchmark(name)
        iset = build_total_degree_set(bench.dim, degree)
        train = sample_design(name, design_size(name, degree, 2), seed=0)
        model = fit(train, iset, bench.input_spec)
        x_star = sample_design(name, 10, seed=1, stream="test").inputs
        brute_res, brute_pred = brute_force_loo(train, iset, bench.input_spec, x_star=x_star)
        np.testing.assert_allclose(model.loo_residuals, brute_res, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(loo_predict(model, x_star), brute_pred, rtol=1e-8, atol=1e-10)

    def test_oracle_agreement_at_the_leverage_floor(self):
        # Ten points within 0.01 of 0.3 plus -1 and 1 at P=3: the outlying
        # points' 1 - h is 4.5e-10 and 1.9e-8, where the closed form alone
        # is off by 7e-7 relative; those two samples are refit.
        rng = np.random.default_rng(0)
        x = np.concatenate([0.3 + 0.01 * rng.uniform(-1, 1, 10), [-1.0, 1.0]])[:, None]
        data = Dataset(inputs=x, outputs=np.sin(3 * x[:, 0]) + x[:, 0] ** 2)
        iset = build_total_degree_set(1, 3)
        model = fit(data, iset, UNIT_SPEC)
        assert np.sort(1.0 - model.hat_diag)[1] < 1e-7
        x_star = np.linspace(-1.0, 1.0, 7)[:, None]
        brute_res, brute_pred = brute_force_loo(data, iset, UNIT_SPEC, x_star=x_star)
        np.testing.assert_array_equal(model.loo_residuals[-2:], brute_res[-2:])
        np.testing.assert_allclose(model.loo_residuals, brute_res, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(loo_predict(model, x_star), brute_pred, rtol=1e-8, atol=1e-10)

    def test_brute_force_single_point_shape(self, otl_fit):
        _, train, iset, bench = otl_fit
        x_one = sample_design("otl_circuit", 1, seed=3, stream="test").inputs[0]
        res, pred = brute_force_loo(train, iset, bench.input_spec, x_star=x_one)
        assert res.shape == (len(train),)
        assert pred.shape == (len(train),)

    def test_brute_force_needs_spare_sample(self):
        data = unit_dataset(lambda x: x, m=4)
        with pytest.raises(UnderdeterminedError):
            brute_force_loo(data, build_total_degree_set(1, 3), UNIT_SPEC)


class TestVarianceAndError:
    def test_constant_target_zero_variance(self):
        data = unit_dataset(lambda x: np.full_like(x, 3.0), m=15)
        model = fit(data, build_total_degree_set(1, 2), UNIT_SPEC)
        assert pce_variance(model) == pytest.approx(0.0, abs=1e-25)

    def test_zero_target_relative_error_is_nan(self):
        # The zero target is the one case whose fit is float-exact, so the
        # coefficient-based variance is exactly 0 and the guard must fire.
        data = unit_dataset(lambda x: np.zeros_like(x), m=15)
        model = fit(data, build_total_degree_set(1, 2), UNIT_SPEC)
        assert pce_variance(model) == 0.0
        assert math.isnan(relative_loo_error(model))
        # A variance below VARIANCE_FLOOR (1e-300) gives NaN, one above it a number.
        below = replace(model, coefficients=np.array([0.0, 1e-151, 0.0]))
        assert math.isnan(relative_loo_error(below))
        above = replace(model, coefficients=np.array([0.0, 1e-149, 0.0]))
        assert relative_loo_error(above) == 0.0

    def test_linear_target_variance_third(self):
        # Var(xi) = 1/3 for xi ~ U(-1, 1); also c_1^2 = 1/3.
        data = unit_dataset(lambda x: x, m=40, seed=9)
        model = fit(data, build_total_degree_set(1, 2), UNIT_SPEC)
        assert pce_variance(model) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_otl_variance_against_monte_carlo(self):
        bench = get_benchmark("otl_circuit")
        train = sample_design("otl_circuit", design_size("otl_circuit", 3, 10), seed=1)
        model = fit(train, build_total_degree_set(6, 3), bench.input_spec)
        mc = sample_design("otl_circuit", 100_000, seed=2024, stream="test")
        mc_variance = float(np.var(mc.outputs, ddof=1))
        assert pce_variance(model) == pytest.approx(mc_variance, rel=0.05)

    def test_relative_loo_error_scale_invariance(self):
        data = unit_dataset(lambda x: 1.0 / (1.0 + 0.5 * x), m=40, seed=13)
        scaled = Dataset(inputs=data.inputs, outputs=10.0 * data.outputs)
        iset = build_total_degree_set(1, 2)
        e1 = relative_loo_error(fit(data, iset, UNIT_SPEC))
        e2 = relative_loo_error(fit(scaled, iset, UNIT_SPEC))
        assert e2 == pytest.approx(e1, rel=1e-12)

    def test_exact_polynomial_error_is_zero(self):
        data = unit_dataset(lambda x: 1.0 + x, m=30, seed=21)
        model = fit(data, build_total_degree_set(1, 2), UNIT_SPEC)
        assert relative_loo_error(model) <= 1e-24

    def test_meromorphic_p3_c10_below_one_percent(self):
        bench = get_benchmark("meromorphic")
        train = sample_design("meromorphic", design_size("meromorphic", 3, 10), seed=0)
        model = fit(train, build_total_degree_set(1, 3), bench.input_spec)
        assert relative_loo_error(model) < 1e-2


class TestStructuralInvariants:
    def test_affine_target_maps_coefficients(self, otl_fit):
        model, train, iset, bench = otl_fit
        a, b = -2.5, 7.0
        shifted = Dataset(inputs=train.inputs, outputs=a * train.outputs + b)
        model2 = fit(shifted, iset, bench.input_spec)
        expected = a * model.coefficients.copy()
        expected[0] += b
        np.testing.assert_allclose(model2.coefficients, expected, rtol=1e-10, atol=1e-10)

    def test_permutation_invariance(self, otl_fit):
        model, train, iset, bench = otl_fit
        rng = np.random.default_rng(44)
        perm = rng.permutation(len(train))
        permuted = Dataset(inputs=train.inputs[perm], outputs=train.outputs[perm])
        model2 = fit(permuted, iset, bench.input_spec)
        np.testing.assert_allclose(model2.coefficients, model.coefficients, rtol=0, atol=1e-12)
        scale = np.max(np.abs(model.loo_residuals))
        np.testing.assert_allclose(
            model2.loo_residuals, model.loo_residuals[perm], rtol=0, atol=1e-12 * scale
        )

    def test_prediction_linear_in_coefficients(self):
        iset = build_total_degree_set(1, 2)
        rng = np.random.default_rng(5)
        c1, c2 = rng.normal(size=3), rng.normal(size=3)
        pts = rng.uniform(-1, 1, size=(9, 1))

        fitted = fit(unit_dataset(lambda x: x, m=12), iset, UNIT_SPEC)

        def make(c):
            return replace(fitted, coefficients=c)

        combined = surrogate(make(c1 + 2.0 * c2), pts)
        np.testing.assert_allclose(
            combined, surrogate(make(c1), pts) + 2.0 * surrogate(make(c2), pts), rtol=1e-12
        )


class TestSerialization:
    def test_round_trip_preserves_predictions(self, otl_fit):
        model, train, _, _ = otl_fit
        restored = from_json(to_json(model))
        pts = sample_design("otl_circuit", 25, seed=6, stream="test").inputs
        np.testing.assert_array_equal(surrogate(restored, pts), surrogate(model, pts))
        np.testing.assert_array_equal(loo_predict(restored, pts), loo_predict(model, pts))
        np.testing.assert_array_equal(restored.loo_residuals, model.loo_residuals)
        np.testing.assert_array_equal(restored.hat_diag, model.hat_diag)
        np.testing.assert_array_equal(restored.training_snapshot.inputs, train.inputs)
        np.testing.assert_array_equal(restored.training_snapshot.outputs, train.outputs)
        assert restored.condition_number == model.condition_number

    def test_schema_keys(self, otl_fit):
        model, train, _, _ = otl_fit
        doc = json.loads(to_json(model))
        assert sorted(doc) == [
            "input_spec",
            "inputs",
            "multi_index_set",
            "outputs",
        ]
        assert doc["multi_index_set"] == {"input_dim": 6, "max_degree": 2}
        assert len(doc["inputs"]) == len(doc["outputs"]) == len(train)

    def test_file_is_compact(self, otl_fit):
        text = to_json(otl_fit[0])
        assert not any(c.isspace() for c in text)

    def test_rejects_inconsistent_document(self, otl_fit):
        model, _, _, _ = otl_fit
        doc = json.loads(to_json(model))
        doc["outputs"] = doc["outputs"][:-1]
        with pytest.raises(ValueError, match="outputs"):
            from_json(json.dumps(doc))
        doc = json.loads(to_json(model))
        doc["multi_index_set"]["input_dim"] = 5
        with pytest.raises(ValueError, match="dimensions disagree"):
            from_json(json.dumps(doc))
        doc = json.loads(to_json(model))
        doc["input_spec"] = [[0.0, 1.0]]
        with pytest.raises(ValueError, match="malformed model field"):
            from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="exactly the keys"):
            from_json(json.dumps({**doc, "coefficients": [1.0]}))
        with pytest.raises(ValueError, match="found .*'variance_estimator'"):
            from_json(json.dumps({**doc, "variance_estimator": "coefficients"}))
        with pytest.raises(ValueError, match="derived-array model file.*refit"):
            from_json(json.dumps({**doc, "loo_corrections": [[0.0]]}))

    # A basis field names the basis to refit; a non-integral one is refused, never rounded.
    @pytest.mark.parametrize(
        "field, value",
        [("max_degree", 2.5), ("max_degree", True), ("max_degree", "3"), ("input_dim", 1.9)],
    )
    def test_rejects_non_integral_basis_field(self, field, value):
        bench = get_benchmark("meromorphic")
        train = sample_design("meromorphic", design_size("meromorphic", 3, 3), seed=2)
        doc = json.loads(to_json(fit(train, build_total_degree_set(1, 3), bench.input_spec)))
        doc["multi_index_set"][field] = value
        with pytest.raises(ValueError, match=f"{field} needs integer values, got {value!r}"):
            from_json(json.dumps(doc))

    # The box and the training data are numbers; a string or boolean among
    # them is refused, never coerced by float() ("0.25" to 0.25, true to 1).
    @pytest.mark.parametrize(
        "path, value",
        [
            (("input_spec", "ranges", 0, 1), True),
            (("input_spec", "ranges", 0, 0), "-1"),
            (("inputs", 0, 0), "0.25"),
            (("inputs", 1, 0), True),
            (("outputs", 0), "1"),
            (("outputs", 2), False),
        ],
        ids=("range-true", "range-string", "input-string", "input-true", "output-string",
             "output-false"),
    )
    def test_rejects_non_number_box_or_data(self, path, value):
        bench = get_benchmark("meromorphic")
        train = sample_design("meromorphic", design_size("meromorphic", 3, 3), seed=2)
        doc = json.loads(to_json(fit(train, build_total_degree_set(1, 3), bench.input_spec)))
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        field = "input_spec.ranges" if path[0] == "input_spec" else path[0]
        with pytest.raises(ValueError, match=rf"^{field} needs numbers, got {value!r}$"):
            from_json(json.dumps(doc))

    # Every derived array is rebuilt from the training data, so a non-finite
    # number that would reach it is stopped at the training array it comes from.
    @pytest.mark.parametrize(
        "key", ["coefficients", "hat_diag", "loo_residuals", "loo_corrections"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_numbers(self, otl_fit, key, bad):
        source = {"coefficients": "outputs", "hat_diag": "inputs",
                  "loo_residuals": "outputs", "loo_corrections": "inputs"}[key]
        model, _, _, _ = otl_fit
        doc = json.loads(to_json(model))
        if source == "inputs":
            doc[source][3][2] = bad
        else:
            doc[source][1] = bad
        with pytest.raises(ValueError, match=f"{source} contain non-finite"):
            from_json(json.dumps(doc))


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(inputs=np.array([[0.0], [1.0]]), outputs=np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            Dataset(inputs=np.array([[np.inf], [1.0]]), outputs=np.array([1.0, 2.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(inputs=np.zeros((3, 1)), outputs=np.zeros(2))

    def test_arrays_read_only(self):
        data = unit_dataset(lambda x: x, m=5)
        with pytest.raises(ValueError):
            data.outputs[0] = 99.0
