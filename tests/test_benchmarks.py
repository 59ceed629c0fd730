"""Tests for the benchmark functions, sampling determinism, and design sizing."""

import io
import math

import numpy as np
import pytest
from helpers import registered, write_dataset_csv

from confpce import basis
from confpce.benchmarks import (
    _piston,
    Benchmark,
    benchmark_names,
    dataset_from_csv,
    design_size,
    get_benchmark,
    read_csv_table,
    register_benchmark,
    sample_design,
)
from confpce.basis import InputSpec, build_total_degree_set
from confpce.errors import BasisSizeError, DomainError, ValidationError

# Midpoint values frozen from a throwaway transcription of each formula,
# written independently of benchmarks.py before it existed.
MIDPOINT_ORACLE = {
    "meromorphic": 1.0,
    "otl_circuit": 10.710140373086173,
    "piston": 0.43809284829366724,
    "wing_weight": 267.6246925704357,
}


def midpoint(name):
    spec = get_benchmark(name).input_spec
    return (spec.lower() + spec.upper()) / 2.0


def evaluate(name, x):
    """The benchmark's outputs at a point (N,) or batch (n, N), shape (n,)."""
    return get_benchmark(name).fn(np.atleast_2d(np.asarray(x, dtype=float)))


class TestEvaluate:
    def test_meromorphic_values(self):
        assert evaluate("meromorphic", [0.0])[0] == 1.0
        assert evaluate("meromorphic", [1.0])[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert evaluate("meromorphic", [-1.0])[0] == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("name", sorted(MIDPOINT_ORACLE))
    def test_midpoints_match_independent_transcription(self, name):
        assert evaluate(name, midpoint(name))[0] == pytest.approx(
            MIDPOINT_ORACLE[name], rel=1e-12
        )

    def test_batch_evaluation(self):
        pts = sample_design("piston", 64, seed=10).inputs
        batch = evaluate("piston", pts)
        singles = np.concatenate([evaluate("piston", p) for p in pts])
        np.testing.assert_array_equal(batch, singles)

    def test_deterministic_reevaluation(self):
        p = midpoint("wing_weight")
        assert evaluate("wing_weight", p) == evaluate("wing_weight", p)

    def test_unknown_benchmark(self):
        with pytest.raises(ValidationError, match="unknown benchmark 'rosenbrock'; known: "):
            get_benchmark("rosenbrock")

    def test_piston_square_root_domain(self):
        # Zero weight, spring and pressure make the square-root argument 0.
        with pytest.raises(DomainError, match="square-root"):
            _piston(np.array([[0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]]))


class TestSampling:
    def test_same_seed_bitwise_identical(self):
        a = sample_design("piston", 50, seed=123)
        b = sample_design("piston", 50, seed=123)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_streams_differ(self):
        a = sample_design("piston", 50, seed=123, stream="train")
        b = sample_design("piston", 50, seed=123, stream="test")
        assert not np.array_equal(a.inputs, b.inputs)

    def test_tuple_seed_accepted(self):
        a = sample_design("meromorphic", 10, seed=(2, 3, 7))
        b = sample_design("meromorphic", 10, seed=(2, 3, 7))
        c = sample_design("meromorphic", 10, seed=(2, 4, 7))
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_oversized_design_raises_before_allocating(self, monkeypatch):
        # 8 m N bytes over MAX_BASIS_BYTES is refused before the generator runs.
        with pytest.raises(BasisSizeError, match="1000000000000000 points of dimension 7"):
            sample_design("piston", 10**15, seed=0)
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", 8 * 7 * 100)
        assert len(sample_design("piston", 100, seed=0)) == 100
        with pytest.raises(BasisSizeError, match="101 points of dimension 7"):
            sample_design("piston", 101, seed=0, stream="test")

    def test_samples_fill_the_box(self):
        d = sample_design("otl_circuit", 100_000, seed=0, stream="test")
        spec = get_benchmark("otl_circuit").input_spec
        lo, hi = spec.lower(), spec.upper()
        assert np.all(d.inputs >= lo) and np.all(d.inputs <= hi)
        span = hi - lo
        # Empirical extremes within 0.1% of the bounds in every dimension.
        assert np.all(d.inputs.min(axis=0) <= lo + 1e-3 * span)
        assert np.all(d.inputs.max(axis=0) >= hi - 1e-3 * span)

    def test_otl_output_regression_band(self):
        # Band recorded at first implementation: [2.8209, 25.1636] at this seed.
        d = sample_design("otl_circuit", 100_000, seed=0, stream="test")
        assert 2.8 <= d.outputs.min() and d.outputs.max() <= 25.2

    def test_meromorphic_mean_matches_quadrature(self):
        # Quadrature oracle: E[1/(1 + x/2)] over U(-1, 1) via Gauss-Legendre.
        nodes, weights = np.polynomial.legendre.leggauss(40)
        quad = float(np.sum(weights / 2.0 / (1.0 + 0.5 * nodes)))
        assert quad == pytest.approx(math.log(3.0), rel=1e-12)
        d = sample_design("meromorphic", 1_000_000, seed=0)
        sigma = float(np.std(d.outputs, ddof=1)) / math.sqrt(len(d))
        assert abs(float(np.mean(d.outputs)) - quad) <= 3.0 * sigma
        assert abs(float(np.mean(d.outputs)) - quad) <= 5e-3 * quad

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            sample_design("piston", 0, seed=1)

    def test_invalid_stream(self):
        with pytest.raises(ValueError):
            sample_design("piston", 5, seed=1, stream="validation")


class TestDesignSize:
    def test_meromorphic_quadratic_rule(self):
        assert design_size("meromorphic", 3, 10) == 160
        assert design_size("meromorphic", 2, 2) == 18

    def test_multivariate_linear_rule(self):
        assert design_size("otl_circuit", 2, 3) == 84
        assert design_size("wing_weight", 1, 2) == 22
        assert design_size("piston", 2, 2) == 72

    @pytest.mark.parametrize("name", ["otl_circuit", "piston", "wing_weight"])
    def test_linear_rule_counts_the_basis(self, name):
        dim = get_benchmark(name).dim
        for p in range(6):
            assert design_size(name, p, 3) == 3 * len(build_total_degree_set(dim, p))

    def test_basis_over_size_limit(self):
        # K = C(37, 7) = 10,295,472: refused from the count, nothing enumerated.
        assert 8 * math.comb(37, 30) ** 2 > basis.MAX_BASIS_BYTES
        with pytest.raises(BasisSizeError, match="K=10295472"):
            design_size("piston", 30, 1)

    @pytest.mark.parametrize("name", ["meromorphic", "otl_circuit", "piston", "wing_weight"])
    def test_strictly_increasing(self, name):
        for c in (2, 3, 5, 10):
            sizes = [design_size(name, p, c) for p in (1, 2, 3, 4)]
            assert sizes == sorted(set(sizes))
        for p in (1, 2, 3):
            sizes = [design_size(name, p, c) for c in (2, 3, 5, 10)]
            assert sizes == sorted(set(sizes))


class TestRegistry:
    def test_known_names(self):
        assert benchmark_names() == ["meromorphic", "otl_circuit", "piston", "wing_weight"]

    def test_register_round_trip(self):
        bench = Benchmark(
            name="affine_hook",
            input_spec=InputSpec(ranges=((-1.0, 1.0),)),
            fn=lambda x: 2.0 * x[:, 0] + 1.0,
            param_names=("x",),
            size_rule="linear",
            degree_grid=(1,),
        )
        with registered(bench):
            assert evaluate("affine_hook", [0.5])[0] == 2.0
            with pytest.raises(ValueError):
                register_benchmark(bench)
        assert "affine_hook" not in benchmark_names()


class TestCsvRoundTrip:
    def test_round_trip_exact(self):
        data = sample_design("wing_weight", 17, seed=8)
        buf = io.StringIO()
        write_dataset_csv(data, buf)
        buf.seek(0)
        back = dataset_from_csv(buf)
        np.testing.assert_array_equal(back.inputs, data.inputs)
        np.testing.assert_array_equal(back.outputs, data.outputs)

    def test_round_trip_via_path(self, tmp_path):
        data = sample_design("piston", 9, seed=2)
        path = tmp_path / "design.csv"
        with open(path, "w", newline="") as fh:
            write_dataset_csv(data, fh)
        with open(path, newline="") as fh:
            back = dataset_from_csv(fh)
        np.testing.assert_array_equal(back.inputs, data.inputs)
        np.testing.assert_array_equal(back.outputs, data.outputs)

    def test_header_format(self):
        data = sample_design("meromorphic", 2, seed=0)
        buf = io.StringIO()
        write_dataset_csv(data, buf)
        assert buf.getvalue().splitlines()[0] == "x1,y"
        # The reader wants exactly x1,...,xN,y, in that order.
        body = "".join(buf.getvalue().splitlines(keepends=True)[1:])
        with pytest.raises(ValueError, match="header"):
            dataset_from_csv(io.StringIO("y,x1\n" + body))
        assert len(dataset_from_csv(io.StringIO(" x1 , y \n" + body))) == 2

    def test_malformed_inputs_rejected(self):
        with pytest.raises(ValueError, match="header"):
            dataset_from_csv(io.StringIO("a,b\n1,2\n"))
        with pytest.raises(ValueError, match="non-numeric"):
            dataset_from_csv(io.StringIO("x1,y\noops,2\n"))
        with pytest.raises(ValueError, match="fields"):
            dataset_from_csv(io.StringIO("x1,x2,y\n1,2\n"))
        with pytest.raises(ValueError):
            dataset_from_csv(io.StringIO(""))
        with pytest.raises(ValueError):
            dataset_from_csv(io.StringIO("x1,y\n"))

    def test_table_reader_strips_header_and_skips_blank_lines(self):
        header, table = read_csv_table(io.StringIO(" x1 ,x2\n1,2\n\n3.5,-4e-3\n"))
        assert header == ["x1", "x2"]
        np.testing.assert_array_equal(table, [[1.0, 2.0], [3.5, -4e-3]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty CSV"),
            ("x1,x2\n", "no data rows"),
            ("x1,x2\n1,2\n3\n", "line 3: expected 2 fields, got 1"),
            ("x1,x2\n1,two\n", "line 2: non-numeric"),
        ],
    )
    def test_table_reader_rejects_malformed(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_csv_table(io.StringIO(text))
