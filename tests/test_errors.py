"""Bad input to the CLI or to a library call raises ValidationError."""

import io

import numpy as np
import pytest

from confpce import DomainError, ValidationError
from confpce.basis import InputSpec, build_total_degree_set, eval_basis_matrix, to_reference
from confpce.benchmarks import (
    dataset_from_csv,
    design_size,
    get_benchmark,
    read_csv_table,
    register_benchmark,
    sample_design,
)
from confpce.conformal import ConformalConfig, empirical_coverage, finite_quantile_upper
from confpce.harness import ExperimentConfig, run_cell
from confpce.pce import Dataset, fit, from_json

UNIT = InputSpec(ranges=((-1.0, 1.0),))

BAD_INPUT = {
    "spec-empty": lambda: InputSpec(ranges=()),
    "spec-reversed": lambda: InputSpec(ranges=((1.0, 0.0),)),
    "spec-triple": lambda: InputSpec(ranges=([-1.0, 1.0, 2.0],)),
    "spec-scalar": lambda: InputSpec(ranges=(1.0,)),
    "basis-degree": lambda: build_total_degree_set(1, -1),
    "basis-fraction": lambda: build_total_degree_set(1.5, 2),
    "sample-size": lambda: sample_design("meromorphic", 0, seed=0),
    "design-degree": lambda: design_size("meromorphic", -1, 2),
    "design-degree-str": lambda: design_size("piston", "2", 2),
    "design-degree-fraction": lambda: design_size("piston", 2.5, 2),
    "design-oversampling-fraction": lambda: design_size("piston", 2, 1.5),
    "sample-benchmark": lambda: sample_design("nope", 5, seed=0),
    "design-benchmark": lambda: design_size("nope", 2, 2),
    "cell-benchmark": lambda: run_cell("nope", 2, 2, "jackknife", "absolute", 0.05, 0, 10),
    "cell-degree-negative": lambda: run_cell("piston", -1, 2, "jackknife", "absolute", 0.1, 0, 10),
    "cell-degree-fraction": lambda: run_cell("meromorphic", 2.5, 2, "jackknife", "absolute", 0.1, 0, 10),
    # meromorphic P=3, C=1 fits; piston P=2, C=1 fails its fit with a LeverageError.
    "cell-score": lambda: run_cell("meromorphic", 3, 1, "jackknife", "bogus", 0.1, 0, 10),
    "cell-method": lambda: run_cell("piston", 2, 1, "bogus", "absolute", 0.1, 0, 10),
    "cell-significance": lambda: run_cell("piston", 2, 1, "jackknife", "absolute", 1.5, 0, 10),
    # A bad seed or test_size gave a failed record, test_size only after the fit.
    "cell-seed-negative": lambda: run_cell("meromorphic", 3, 1, "jackknife", "absolute", 0.1, -1, 10),
    "cell-seed-fraction": lambda: run_cell("meromorphic", 3, 1, "jackknife", "absolute", 0.1, 1.5, 10),
    "cell-test-size-str": lambda: run_cell("meromorphic", 3, 1, "jackknife", "absolute", 0.1, 0, "10"),
    "cell-test-size-zero": lambda: run_cell("meromorphic", 3, 1, "jackknife", "absolute", 0.1, 0, 0),
    "reference-dims": lambda: to_reference(np.zeros((1, 2)), UNIT),
    "basis-dims": lambda: eval_basis_matrix(np.zeros((1, 2)), build_total_degree_set(1, 1)),
    "dataset-nan": lambda: Dataset(inputs=[[0.0]], outputs=[np.nan]),
    "dataset-3d": lambda: Dataset(inputs=[[[0.0]], [[0.5]]], outputs=[0.0, 1.0]),
    "model-not-json": lambda: from_json("{not json"),
    "model-list": lambda: from_json("[]"),
    "csv-empty": lambda: read_csv_table(io.StringIO("")),
    "csv-header": lambda: dataset_from_csv(io.StringIO("a,b\n1,2\n")),
    "conformal-range": lambda: ConformalConfig(significance=2.0),
    "conformal-type": lambda: ConformalConfig(significance="0.05"),
    "config-fields": lambda: ExperimentConfig.from_dict({"benchmark": "meromorphic"}),
    # An int raised a TypeError; a string was read as its characters' field
    # names; unknown keys of mixed types raised a TypeError while sorted.
    "config-int": lambda: ExperimentConfig.from_dict(5),
    "config-str": lambda: ExperimentConfig.from_dict("benchmark"),
    "config-mixed-keys": lambda: ExperimentConfig.from_dict({1: 0, "svd": 0}),
    "register-twice": lambda: register_benchmark(get_benchmark("piston")),
    "stream": lambda: sample_design("meromorphic", 5, seed=0, stream="bogus"),
    "coverage-empty": lambda: empirical_coverage([], [], []),
    "quantile-empty": lambda: finite_quantile_upper([], 0.1),
    # s = 1.5 read a negative index and s = 1 or True the index -1 (the
    # maximum); NaN and a string raised untyped errors; NaN samples gave NaN.
    "quantile-significance-above-one": lambda: finite_quantile_upper([3, 1, 2, 5, 4], 1.5),
    "quantile-significance-one": lambda: finite_quantile_upper([3, 1, 2, 5, 4], 1.0),
    "quantile-significance-bool": lambda: finite_quantile_upper([3, 1, 2, 5, 4], True),
    "quantile-significance-nan": lambda: finite_quantile_upper([3, 1, 2, 5, 4], np.nan),
    "quantile-significance-str": lambda: finite_quantile_upper([3, 1, 2, 5, 4], "0.05"),
    "quantile-all-nan": lambda: finite_quantile_upper([np.nan] * 40, 0.5),
    "quantile-some-nan": lambda: finite_quantile_upper([1, np.nan, 3] * 10, 0.05),
    "fit-dims": lambda: fit(
        sample_design("meromorphic", 9, seed=0), build_total_degree_set(2, 1), UNIT
    ),
}


@pytest.mark.parametrize("call", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_raises_validation_error(call):
    with pytest.raises(ValidationError):
        call()


# The degree was named max_degree, from build_total_degree_set's own check.
@pytest.mark.parametrize("name, degree, message", [
    ("piston", -1, "degree must be >= 0, got -1"),
    ("meromorphic", 2.5, "degree needs integer values, got 2.5"),
])
def test_run_cell_names_its_degree(name, degree, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        run_cell(name, degree, 2, "jackknife", "absolute", 0.1, 0, 10)


def test_domain_error_is_a_validation_error():
    with pytest.raises(DomainError) as info:
        to_reference(np.array([[5.0]]), UNIT)
    assert isinstance(info.value, ValidationError) and isinstance(info.value, ValueError)
    assert str(info.value) == (
        "point 0 maps outside [-1.0, 1.0] in dimension 0 (reference value 5.0)"
    )
