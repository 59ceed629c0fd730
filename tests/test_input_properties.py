"""Generated inputs at the library's entry points: a typed error or a valid result.

Each property draws seeds for `sample_design`, or arrays of assorted dtypes
and shapes and ragged nested lists for `Dataset` and `interval_arrays`. Every call must either
return finite arrays of the documented shapes or raise a `ConfpceError`,
and must never emit a Python warning (a warning is turned into an error
inside each example, so it fails the property). A last test holds every
entry that takes outside arrays to refusing complex and string values and
ragged rows.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from confpce.basis import InputSpec, build_total_degree_set, eval_basis_matrix, to_reference
from confpce.benchmarks import sample_design
from confpce.conformal import (
    METHODS, ConformalConfig, empirical_coverage, finite_quantile_upper, interval_arrays,
)
from confpce.errors import ConfpceError, ValidationError
from confpce.pce import Dataset, brute_force_loo, fit, from_json, loo_predict

DTYPES = ("float64", "float32", "int64", "bool", "complex128", "U8", "S8")

# Finite values in and around the box [0, 1] of MODEL, and the non-finite ones.
VALUES = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    elements=st.floats(-0.5, 1.5) | st.sampled_from((np.nan, np.inf, -np.inf)),
)

# Nested lists whose rows differ in length, which make no numpy array.
RAGGED = st.lists(st.lists(st.floats(-0.5, 1.5), max_size=3), min_size=2, max_size=4).filter(
    lambda rows: len({len(row) for row in rows}) > 1
)

# Two inputs, degree 2 (K = 6), 40 samples: jackknife+ at s = 0.1 is bounded.
_RNG = np.random.default_rng(0)
_X = _RNG.uniform(0.0, 1.0, size=(40, 2))
MODEL = fit(
    Dataset(inputs=_X, outputs=1.0 + _X[:, 0] - 2.0 * _X[:, 0] * _X[:, 1] + 0.1 * _X[:, 1] ** 2),
    build_total_degree_set(2, 2),
    InputSpec(ranges=((0.0, 1.0), (0.0, 1.0))),
)


def as_dtype(values, dtype):
    """`values` cast to `dtype`, non-finite entries zeroed first for integer types.

    A ragged list is returned as it is.
    """
    if isinstance(values, list):
        return values
    if dtype in ("int64", "bool"):
        values = np.where(np.isfinite(values), values, 0.0)
    return values.astype(dtype)


def run_quietly(call):
    """call() with every warning raised as an error; None if it raised a ConfpceError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except ConfpceError:
            return None


SEEDS = st.recursive(
    st.integers(-3, 2**70) | st.floats(-2.0, 3.0) | st.booleans() | st.text(max_size=2),
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(seed=SEEDS, m=st.integers(-1, 6) | st.floats(-1.0, 6.0))
def test_sample_design_seeds(seed, m):
    data = run_quietly(lambda: sample_design("piston", m, seed=seed))
    if data is not None:
        assert data.inputs.shape == (m, 7) and data.outputs.shape == (m,)
        assert np.all(np.isfinite(data.inputs)) and np.all(np.isfinite(data.outputs))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(inputs=VALUES | RAGGED, outputs=VALUES | RAGGED, dtypes=st.tuples(*[st.sampled_from(DTYPES)] * 2))
def test_dataset_arrays(inputs, outputs, dtypes):
    inputs, outputs = as_dtype(inputs, dtypes[0]), as_dtype(outputs, dtypes[1])
    data = run_quietly(lambda: Dataset(inputs=inputs, outputs=outputs))
    if data is not None:
        assert data.inputs.dtype == data.outputs.dtype == np.float64
        assert data.inputs.ndim == 2 and data.inputs.shape[:1] == data.outputs.shape == (len(data),)
        assert data.inputs.shape[1] >= 1
        assert np.all(np.isfinite(data.inputs)) and np.all(np.isfinite(data.outputs))


@pytest.mark.parametrize("make", [
    lambda: Dataset(inputs=np.zeros((3, 0)), outputs=[0.0, 1.0, 2.0]),
    lambda: from_json(json.dumps({"input_spec": {"ranges": [[0, 1]]},
                                  "multi_index_set": {"input_dim": 1, "max_degree": 1},
                                  "inputs": [[], [], []], "outputs": [0, 1, 2]})),
], ids=["Dataset", "model file"])
def test_inputs_with_no_columns_are_refused(make):
    with pytest.raises(ValidationError, match="at least one column"):
        make()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(points=VALUES | RAGGED, dtype=st.sampled_from(DTYPES), method=st.sampled_from(METHODS))
def test_interval_arrays_points(points, dtype, method):
    cfg = ConformalConfig(method=method, significance=0.1)
    got = run_quietly(lambda: interval_arrays(MODEL, as_dtype(points, dtype), cfg))
    if got is not None:
        n = 1 if points.ndim <= 1 else points.shape[0]
        for array in got:
            assert array.shape == (n,) and np.all(np.isfinite(array))


# Every entry that turns outside arrays into floats goes through one check.
ENTRIES = {
    "Dataset": lambda v: Dataset(inputs=v, outputs=np.zeros(len(v))),
    "to_reference": lambda v: to_reference(v, MODEL.input_spec),
    "eval_basis_matrix": lambda v: eval_basis_matrix(v, MODEL.index_set),
    "interval_arrays": lambda v: interval_arrays(MODEL, v, ConformalConfig()),
    "loo_predict": lambda v: loo_predict(MODEL, v),
    "brute_force_loo": lambda v: brute_force_loo(
        MODEL.training_snapshot, MODEL.index_set, MODEL.input_spec, v),
    "finite_quantile_upper": lambda v: finite_quantile_upper(v, 0.1),
    "empirical_coverage": lambda v: empirical_coverage(v, v, v),
}


@pytest.mark.parametrize("values", [
    np.full((3, 2), 0.5).astype("complex128"), np.full((3, 2), 0.5).astype("U8"),
    [[0.5, 0.5], [0.5]],
], ids=["complex128", "U8", "ragged"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_array_entry_refuses_non_real_values(entry, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="must be real numbers"):
            ENTRIES[entry](values)

