"""Generated-property tests: invariants checked over random inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from confpce.basis import build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import METHODS, ConformalConfig, interval_arrays
from confpce.pce import VARIANCE_ESTIMATORS, fit, from_json, to_json

DERIVED = ("coefficients", "hat_diag", "loo_residuals", "loo_corrections")


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(("meromorphic", "otl_circuit", "piston", "wing_weight")),
    degree=st.integers(1, 3),
    oversampling=st.integers(2, 5),
    seed=st.integers(0, 2**16),
    estimator=st.sampled_from(VARIANCE_ESTIMATORS),
)
def test_model_file_refit_is_bitwise(name, degree, oversampling, seed, estimator):
    bench = get_benchmark(name)
    data = sample_design(name, design_size(name, degree, oversampling), seed=seed)
    model = fit(data, build_total_degree_set(bench.dim, degree), bench.input_spec, estimator)
    restored = from_json(to_json(model))
    for field in DERIVED:
        np.testing.assert_array_equal(getattr(restored, field), getattr(model, field), err_msg=field)
    assert restored.condition_number == model.condition_number
    assert restored.variance_estimator == model.variance_estimator
    points = sample_design(name, 9, seed=seed, stream="test").inputs
    for method in METHODS:
        cfg = ConformalConfig(method=method, significance=0.1)
        for got, want in zip(interval_arrays(restored, points, cfg), interval_arrays(model, points, cfg)):
            np.testing.assert_array_equal(got, want, err_msg=method)
