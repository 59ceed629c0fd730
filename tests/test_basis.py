"""Tests for multi-index sets, the affine input map, and basis evaluation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import assert_parent_links, gauss_legendre_gram, legendre_table

from confpce import basis
from confpce.basis import (
    InputSpec,
    build_total_degree_set,
    eval_basis_matrix,
    to_reference,
)
from confpce.errors import BasisSizeError, DomainError, ValidationError


class TestTotalDegreeSet:
    def test_univariate_is_zero_to_p(self):
        s = build_total_degree_set(1, 3)
        assert s.indices == ((0,), (1,), (2,), (3,))
        assert len(s) == 4

    def test_bivariate_degree_two_hand_enumeration(self):
        # All |alpha| <= 2 enumerated by hand, graded-lex order.
        s = build_total_degree_set(2, 2)
        assert s.indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_six_dim_degree_two_cardinality(self):
        # (6+2)!/(6!2!) = 28
        assert len(build_total_degree_set(6, 2)) == 28

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("p", range(0, 6))
    def test_cardinality_formula(self, n, p):
        s = build_total_degree_set(n, p)
        assert len(s) == math.comb(n + p, p)
        assert len(set(s.indices)) == len(s)
        assert all(sum(alpha) <= p and min(alpha) >= 0 for alpha in s.indices)

    def test_zero_index_first_and_deterministic(self):
        a = build_total_degree_set(4, 3)
        b = build_total_degree_set(4, 3)
        assert a.indices[0] == (0, 0, 0, 0)
        assert a.indices == b.indices

    def test_graded_ordering(self):
        # Ascending total degree, ties lexicographic on the reversed index.
        for n, p in [(1, 4), (3, 4), (5, 3), (10, 2)]:
            s = build_total_degree_set(n, p)
            expected = sorted(s.indices, key=lambda alpha: (sum(alpha), alpha[::-1]))
            assert list(s.indices) == expected, (n, p)

    def test_wide_input_builds_without_recursion(self):
        # One level per input dimension would pass the interpreter's recursion limit.
        s = build_total_degree_set(1_100, 1)
        assert len(s) == 1_101
        assert s.indices[1] == (1,) + (0,) * 1_099 and s.indices[-1] == (0,) * 1_099 + (1,)
        assert_parent_links(s)

    def test_size_guard(self):
        with pytest.raises(BasisSizeError):
            build_total_degree_set(40, 12)

    def test_unusable_basis_refused_before_enumerating(self, monkeypatch):
        # K = 1,000,001: no design of 8 K^2 bytes fits in 4 GiB.
        def enumerate_fails(n, p):
            raise AssertionError("enumerated a basis over the size limit")

        monkeypatch.setattr(basis, "_graded_indices", enumerate_fails)
        with pytest.raises(BasisSizeError, match=r"^total-degree basis with N=1, P=1000000 "
                           r"has K=1000001 terms; its smallest design needs 8000016000008 "
                           r"bytes, exceeding the limit of 4294967296$"):
            build_total_degree_set(1, 10**6)

    def test_size_limit_is_the_smallest_design(self, monkeypatch):
        k = math.comb(3 + 4, 4)
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", 8 * k * k)
        assert len(build_total_degree_set(3, 4)) == k
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", 8 * k * k - 1)
        with pytest.raises(BasisSizeError, match=f"has K={k} terms"):
            build_total_degree_set(3, 4)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_total_degree_set(0, 2)
        with pytest.raises(ValueError):
            build_total_degree_set(2, -1)
        for args in ((1.5, 2), (2, True), (2, "2")):
            with pytest.raises(ValueError, match="needs integer values"):
                build_total_degree_set(*args)
        iset = build_total_degree_set(2.0, 2.0)
        assert type(iset.input_dim) is int and type(iset.max_degree) is int

    def test_enumeration_count_checked(self, monkeypatch):
        # An explicit check, not an assert, so it also holds under python -O.
        real = basis._graded_indices
        monkeypatch.setattr(basis, "_graded_indices", lambda n, p: real(n, p)[1:])
        with pytest.raises(BasisSizeError, match="multi-indices, expected K=6"):
            build_total_degree_set(2, 2)


class TestInputSpec:
    def test_rejects_empty_and_inverted(self):
        with pytest.raises(ValueError):
            InputSpec(ranges=())
        with pytest.raises(ValueError):
            InputSpec(ranges=((1.0, 1.0),))
        with pytest.raises(ValueError):
            InputSpec(ranges=((2.0, 1.0),))

    def test_rejects_range_wider_than_the_largest_float(self):
        InputSpec(ranges=((0.0, 1.0), (-8e307, 8e307)))
        with pytest.raises(ValueError, match=r"dimension 1: range width must be finite"):
            InputSpec(ranges=((0.0, 1.0), (-1e308, 1e308)))

    def test_midpoint_maps_to_zero(self):
        spec = InputSpec(ranges=((50.0, 150.0), (0.25, 1.2)))
        mid = np.array([100.0, 0.725])
        np.testing.assert_allclose(to_reference(mid, spec), [0.0, 0.0], atol=1e-15)

    def test_corners_map_to_plus_minus_one(self):
        spec = InputSpec(ranges=((-3.0, 7.0), (2.0, 4.0)))
        assert np.all(to_reference(np.array([-3.0, 2.0]), spec) == [-1.0, -1.0])
        assert np.all(to_reference(np.array([7.0, 4.0]), spec) == [1.0, 1.0])

    def test_otl_hand_value(self):
        # x = 75 in [50, 150]: 2*(75-50)/100 - 1 = -0.5
        spec = InputSpec(ranges=((50.0, 150.0),))
        assert to_reference(np.array([75.0]), spec)[0] == -0.5

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        spec = InputSpec(ranges=((-2.0, 5.0), (1e-3, 2e-3), (100.0, 10000.0)))
        x = rng.uniform(spec.lower(), spec.upper(), size=(200, 3))
        lo, hi = spec.lower(), spec.upper()
        back = lo + (to_reference(x, spec) + 1.0) * (hi - lo) / 2.0
        np.testing.assert_allclose(back, x, rtol=1e-14)

    def test_out_of_box_names_dimension(self):
        spec = InputSpec(ranges=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(DomainError, match="dimension 1"):
            to_reference(np.array([0.5, 1.5]), spec)

    def test_tolerance_clamp(self):
        spec = InputSpec(ranges=((0.0, 1.0),))
        xi = to_reference(np.array([1.0 + 4e-13]), spec)
        assert xi[0] == 1.0
        with pytest.raises(DomainError):
            to_reference(np.array([1.0 + 1e-11]), spec)

    def test_nan_treated_as_out_of_box(self):
        spec = InputSpec(ranges=((0.0, 1.0),))
        with pytest.raises(DomainError):
            to_reference(np.array([np.nan]), spec)

    def test_rejects_a_batch_of_more_than_two_dimensions(self):
        # Its (n, N, 1) points once broadcast against the box to (n, N, N).
        spec = InputSpec(ranges=((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValidationError, match="expected 2-dimensional points"):
            to_reference(np.zeros((2, 2, 1)), spec)

    @pytest.mark.parametrize("value", [1e308, -1e308, np.inf])
    def test_overflowing_point_is_one_error_without_warnings(self, value):
        spec = InputSpec(ranges=((-1.0, 1.0), (-1e-300, 1e-300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"point 1 maps outside .* dimension 1 .*inf\)"):
                to_reference(np.array([[0.0, 0.0], [0.0, value]]), spec)


class TestBasisEvaluation:
    def test_zero_index_is_exactly_one(self):
        s = build_total_degree_set(3, 2)
        row = eval_basis_matrix(np.array([[0.3, -0.7, 0.9]]), s)[0]
        assert row[0] == 1.0

    def test_degree_one_normalization(self):
        # psi_1(xi) = sqrt(3) * xi, so psi_1(1) = sqrt(3)
        s = build_total_degree_set(1, 1)
        row = eval_basis_matrix(np.array([[1.0]]), s)[0]
        assert row[1] == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_product_structure(self):
        # alpha = (1, 1) at (1, -1): sqrt(3)*1 * sqrt(3)*(-1) = -3
        s = build_total_degree_set(2, 2)
        k = s.indices.index((1, 1))
        row = eval_basis_matrix(np.array([[1.0, -1.0]]), s)[0]
        assert row[k] == pytest.approx(-3.0, rel=1e-15)

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(3)
        s = build_total_degree_set(3, 4)
        pts = rng.uniform(-1, 1, size=(20, 3))
        mat = eval_basis_matrix(pts, s)
        for i, p in enumerate(pts):
            np.testing.assert_array_equal(mat[i], eval_basis_matrix(p[None, :], s)[0])

    def test_rejects_far_out_of_cube(self):
        s = build_total_degree_set(2, 2)
        with pytest.raises(DomainError):
            eval_basis_matrix(np.array([[0.0, 1.1]]), s)

    def test_points_inside_cube_are_not_clamped_again(self):
        inside = np.array([[-1.0, 0.3], [1.0, -0.0]])
        assert basis._clamp_reference(inside) is inside
        near = np.array([[1.0 + 4e-13, -1.0 - 4e-13]])
        clamped = basis._clamp_reference(near)
        assert clamped is not near and np.array_equal(clamped, [[1.0, -1.0]])
        s = build_total_degree_set(2, 3)
        np.testing.assert_array_equal(eval_basis_matrix(near, s), eval_basis_matrix(clamped, s))

    def test_byte_budget_raises_before_allocating(self, monkeypatch):
        s = build_total_degree_set(7, 3)
        n, k = 20_000, len(s)
        xi = np.zeros((n, 7))
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", 8 * n * k - 1)
        tracemalloc.start()
        try:
            with pytest.raises(BasisSizeError, match=f"{n} points by K={k} terms"):
                eval_basis_matrix(xi, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"allocated {peak} bytes before refusing"
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", 8 * n * k)
        assert eval_basis_matrix(xi[:10], s).shape == (10, k)

    def test_writes_into_out(self):
        s = build_total_degree_set(3, 3)
        pts = np.random.default_rng(5).uniform(-1, 1, size=(300, 3))
        out = np.full((300, len(s)), np.nan)
        assert eval_basis_matrix(pts, s, out=out) is out
        np.testing.assert_array_equal(out, eval_basis_matrix(pts, s))

    @pytest.mark.parametrize("columns", [1, 3, 1000])
    def test_work_gives_the_same_bits_and_allocates_nothing(self, columns):
        # `work` for 1, 3 or 1,000 points a block against the default scratch;
        # a few kB of per-call bookkeeping, whatever the number of blocks.
        s = build_total_degree_set(4, 4)
        pts = np.random.default_rng(6).uniform(-1, 1, size=(3001, 4))
        out, work = np.empty((3001, len(s))), np.empty(basis.scratch_size(s, columns))
        tracemalloc.start()
        try:
            eval_basis_matrix(pts, s, out=out, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8192, f"allocated {peak} bytes"
        assert np.array_equal(out, eval_basis_matrix(pts, s))

    @pytest.mark.parametrize("out", [
        np.zeros((2, 10), dtype=np.int64),
        np.zeros((2, 10), dtype=np.float32),
        np.zeros((2, 9)),
        np.zeros((3, 10)),
        np.zeros(20),
        [[0.0] * 10] * 2,
    ], ids=["int64", "float32", "columns", "rows", "flat", "list"])
    def test_out_of_the_wrong_kind_is_refused(self, out):
        s = build_total_degree_set(2, 3)
        with pytest.raises(ValidationError, match=r"out must be a float64 array of shape \(2, 10\)"):
            eval_basis_matrix(np.zeros((2, 2)), s, out=out)

    @pytest.mark.parametrize("work", [
        np.zeros(500, dtype=np.int64),
        np.zeros(500, dtype=np.float32),
        np.zeros((5, 100)),
        [0.0] * 500,
    ], ids=["int64", "float32", "2-D", "list"])
    def test_work_of_the_wrong_kind_is_refused(self, work):
        s = build_total_degree_set(2, 3)
        with pytest.raises(ValidationError, match="work must be a 1-D float64 array"):
            eval_basis_matrix(np.zeros((2, 2)), s, work=work)

    def test_work_below_one_point_is_refused(self):
        s = build_total_degree_set(2, 3)
        with pytest.raises(ValidationError, match="less than one point's scratch"):
            eval_basis_matrix(np.zeros((2, 2)), s, work=np.empty(basis.scratch_size(s, 1) - 1))

    def test_legendre_recurrence_against_numpy(self):
        # Independent check: numpy's Legendre module times sqrt(2j+1).
        xi = np.linspace(-1, 1, 41)
        table = legendre_table(6, xi)
        for j in range(7):
            ref = np.polynomial.legendre.Legendre.basis(j)(xi) * math.sqrt(2 * j + 1)
            np.testing.assert_allclose(table[:, j], ref, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("n,p", [(1, 5), (2, 4), (3, 3), (3, 5)])
def test_orthonormality_by_quadrature(n, p):
    s = build_total_degree_set(n, p)
    gram = gauss_legendre_gram(s, orders=[p + 1] * n)
    np.testing.assert_allclose(gram, np.eye(len(s)), atol=1e-10)
