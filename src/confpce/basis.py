r"""Total-degree multi-index sets and orthonormal Legendre bases.

A multivariate basis element is indexed by a multi-index
$\alpha = (\alpha_1, \dots, \alpha_N)$ of per-dimension polynomial degrees and
evaluates to the product of univariate Legendre polynomials

$$
\Psi_\alpha(\xi) = \prod_{n=1}^N \psi_{\alpha_n}(\xi_n),
\qquad \psi_j = \sqrt{2j + 1}\, P_j,
$$

where $P_j$ is the standard Legendre polynomial. The scaling makes the family
orthonormal with respect to the uniform density on $[-1, 1]^N$, i.e.
$\mathbb{E}[\Psi_\alpha \Psi_\beta] = \delta_{\alpha\beta}$. Inputs living on a
general box are mapped to the reference cube by a componentwise affine map.

The basis is evaluated by a parent recurrence. The parent of $\alpha \ne 0$
is $\alpha$ with its last nonzero coordinate $\alpha_d$ set to zero. A
total-degree set is downward closed, so the parent is in the set, and its
total degree is lower, so it comes earlier in graded order. Hence

$$
\Psi_\alpha(\xi) = \Psi_{\mathrm{parent}(\alpha)}(\xi)\, \psi_{\alpha_d}(\xi_d),
$$

one multiply per term and point on top of the univariate tables. The result
is bit-identical to the left-to-right product over dimensions
$1, \dots, N$: $\psi_0$ is exactly 1.0, so the factors of the zero
coordinates change nothing, and the chain multiplies the nonzero factors in
ascending dimension order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisSizeError, DomainError, ValidationError

# Reference-domain slack: affine maps may land an endpoint a few ulps outside
# [-1, 1]; values within this tolerance are clamped, anything beyond errors.
REFERENCE_TOLERANCE = 1e-12

# The one size limit, in bytes (4 GiB), and check_bytes its one comparison:
# eval_basis_matrix allocates no larger (n, K) matrix, pce.fit takes no design
# whose whole fit could need more, sample_design draws no larger sample, and
# total_degree_size refuses a basis whose smallest design (M = K points,
# 8 K^2 bytes) is over it, K > 23,170, before anything is enumerated.
MAX_BASIS_BYTES = 2**32

# eval_basis_matrix builds the basis in blocks of points whose scratch holds
# at most this many bytes (or one point), so its working memory beyond the
# result does not grow with the number of points.
_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class MultiIndexSet:
    """Ordered total-degree multi-index set.

    Attributes:
        indices: Multi-indices in graded-lexicographic order (sorted by total
            degree, ties broken lexicographically on the reversed index), the
            zero index first.
        input_dim: Number of input dimensions N.
        max_degree: Maximum total degree P.
        levels: Per total degree p >= 1, the slice of its terms in the graded
            order, their parents and their factors, read-only integer arrays:
            a term's parent is the position of its index with the last
            nonzero coordinate alpha_d set to 0, which comes earlier, and its
            factor the row alpha_d * N + d of a flattened table of univariate
            values (row j * N + d holds psi_j in dimension d). This is what
            :func:`eval_basis_matrix` walks.
    """

    indices: tuple[tuple[int, ...], ...]
    input_dim: int
    max_degree: int
    levels: tuple = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class InputSpec:
    """Box support of a vector of independent uniform inputs.

    Attributes:
        ranges: Per-dimension (lower, upper) pairs with lower < upper and a
            finite width upper - lower.
    """

    ranges: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.ranges) == 0:
            raise ValidationError("InputSpec needs at least one dimension")
        clean = []
        for n, pair in enumerate(self.ranges):
            try:
                lo, hi = pair
                lo, hi = float(lo), float(hi)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"dimension {n}: range must be a (lower, upper) pair of numbers, got {pair!r}"
                ) from None
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(f"dimension {n}: bounds must be finite, got ({lo}, {hi})")
            if not lo < hi:
                raise ValidationError(f"dimension {n}: lower bound {lo} must be < upper bound {hi}")
            if not math.isfinite(hi - lo):
                raise ValidationError(
                    f"dimension {n}: range width must be finite, got ({lo}, {hi})"
                )
            clean.append((lo, hi))
        object.__setattr__(self, "ranges", tuple(clean))

    @property
    def dim(self) -> int:
        return len(self.ranges)

    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.ranges])

    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self.ranges])


def check_bytes(need: int, what: str) -> None:
    """Raises BasisSizeError if `what`, needing `need` bytes, is over MAX_BASIS_BYTES."""
    if need > MAX_BASIS_BYTES:
        raise BasisSizeError(f"{what} needs {need} bytes, exceeding the limit of {MAX_BASIS_BYTES}")


def real_array(values, what: str) -> np.ndarray:
    """`values` as a float array; a ValidationError for ragged, complex or string data."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # rows of unequal lengths
        raise ValidationError(f"{what} must be real numbers in rows of equal length") from exc
    if array.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must be real numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def _integral(field: str, value, low=None) -> int:
    """`value` as an int; a ValidationError unless it is an integral real number >= low."""
    integral = isinstance(value, numbers.Real) and float(value).is_integer()
    if isinstance(value, bool) or not integral:
        raise ValidationError(f"{field} needs integer values, got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{field} must be >= {low}, got {int(value)}")
    return int(value)


def build_total_degree_set(input_dim: int, max_degree: int) -> MultiIndexSet:
    """Builds the multi-index set of all indices with total degree <= max_degree.

    The set has cardinality K = (N+P)! / (N! P!) and is ordered graded
    lexicographically: ascending total degree, ties broken lexicographically on
    the reversed index, so the zero index comes first and two calls with equal
    arguments return identical orderings.

    Args:
        input_dim: Number of input dimensions N (>= 1).
        max_degree: Maximum total degree P (>= 0).

    Returns:
        The total-degree MultiIndexSet, with the levels that
        :func:`eval_basis_matrix` walks.

    Raises:
        ValidationError: If an argument is not an integral real number (2.0 is
            taken as 2) or is out of range.
        BasisSizeError: If the smallest design of the set, 8 K^2 bytes, is
            over MAX_BASIS_BYTES, refused from K before anything is
            enumerated; or if the enumeration does not produce exactly K
            indices.
    """
    input_dim = _integral("input_dim", input_dim, 1)
    max_degree = _integral("max_degree", max_degree, 0)

    size = total_degree_size(input_dim, max_degree)
    indices = _graded_indices(input_dim, max_degree)
    if len(indices) != size:
        raise BasisSizeError(f"enumerated {len(indices)} multi-indices, expected K={size}")

    position = {alpha: k for k, alpha in enumerate(indices)}
    links = [(0, 0, 0)]  # the zero index is its own parent
    for alpha in indices[1:]:
        d = input_dim - 1
        while not alpha[d]:
            d -= 1
        links.append((position[alpha[:d] + (0,) * (input_dim - d)], d, alpha[d]))
    # C-contiguous rows, so that each level's parents and factors are
    # contiguous index arrays for np.take.
    parent, last_dim, last_degree = np.array(links, dtype=np.intp).T.copy()
    factor = last_degree * input_dim + last_dim
    parent.setflags(write=False)
    factor.setflags(write=False)
    # The terms of total degree p sit at [C(N + p - 1, N), C(N + p, N)).
    ends = [math.comb(input_dim + p, input_dim) for p in range(max_degree + 1)]
    return MultiIndexSet(
        indices=tuple(indices),
        input_dim=input_dim,
        max_degree=max_degree,
        levels=tuple((slice(lo, hi), parent[lo:hi], factor[lo:hi])
                     for lo, hi in zip(ends, ends[1:])),
    )


def total_degree_size(input_dim: int, max_degree: int) -> int:
    """Cardinality K = (N+P)! / (N! P!) of the total-degree set, without building it.

    Raises:
        BasisSizeError: If the set's smallest design, M = K points of 8 K^2
            bytes, is over MAX_BASIS_BYTES: no fit could use the set.
    """
    size = math.comb(input_dim + max_degree, max_degree)
    check_bytes(8 * size * size, f"total-degree basis with N={input_dim}, P={max_degree} "
                f"has K={size} terms; its smallest design")
    return size


def _graded_indices(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """All indices of total degree <= max_degree, in the order of the set.

    Within a degree, each index follows from the one before it without
    recursion: the first nonzero entry, less one, moves to the front, and
    the entry after it gains one. That steps through the degree's indices
    lexicographically on the reversed index, from (p, 0, ..., 0) to
    (0, ..., 0, p).
    """
    indices = []
    for degree in range(max_degree + 1):
        alpha = [degree] + [0] * (dim - 1)
        indices.append(tuple(alpha))
        while alpha[-1] != degree:
            j = 0
            while not alpha[j]:
                j += 1
            alpha[j], alpha[0] = 0, alpha[j] - 1
            alpha[j + 1] += 1
            indices.append(tuple(alpha))
    return indices


def to_reference(x: np.ndarray, spec: InputSpec) -> np.ndarray:
    """Maps box points to the reference cube [-1, 1]^N.

    Componentwise affine: xi_n = 2 (x_n - lo_n) / (hi_n - lo_n) - 1, so range
    endpoints map to -1 and +1 and midpoints to 0. Points up to
    REFERENCE_TOLERANCE outside the cube are clamped; anything further raises.
    A coordinate so far out that the map overflows maps to an infinity and
    raises the same DomainError, with no floating-point warning.

    Args:
        x: Point of shape (N,) or batch of shape (n, N).
        spec: Box specification with matching dimension.

    Returns:
        Mapped point(s) with the same shape as `x`.

    Raises:
        DomainError: Naming the first offending dimension if a coordinate lies
            outside the box beyond tolerance.
        ValidationError: If `x` is not real numbers of one of those shapes.
    """
    x = real_array(x, "points")
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.ndim > 2 or pts.shape[1] != spec.dim:
        raise ValidationError(f"expected {spec.dim}-dimensional points, got shape {x.shape}")
    lo, hi = spec.lower(), spec.upper()
    with np.errstate(over="ignore", invalid="ignore"):
        xi = 2.0 * (pts - lo) / (hi - lo) - 1.0
    xi = _clamp_reference(xi, spec)
    return xi[0] if single else xi


def _clamp_reference(xi: np.ndarray, spec: InputSpec | None = None) -> np.ndarray:
    """Clamps reference coordinates within tolerance, errors beyond it.

    Coordinates already inside [-1, 1], such as the output of
    :func:`to_reference`, come back as they are after two reductions, so a
    point is clamped once on its way into :func:`eval_basis_matrix`. The
    check is written as a negated comparison so nan coordinates count as
    out of domain instead of slipping through.
    """
    if xi.size and -1.0 <= xi.min() and xi.max() <= 1.0:
        return xi
    over = ~(np.abs(xi) <= 1.0 + REFERENCE_TOLERANCE)
    if np.any(over):
        rows, cols = np.nonzero(over)
        r, n = int(rows[0]), int(cols[0])
        if spec is not None:
            lo, hi = spec.ranges[n]
            detail = f"maps outside [{lo}, {hi}] in dimension {n}"
        else:
            detail = f"outside [-1, 1] in dimension {n}"
        raise DomainError(f"point {r} {detail} (reference value {float(xi[r, n])!r})")
    return np.clip(xi, -1.0, 1.0)


def _legendre_rows(xi: np.ndarray, table: np.ndarray, spare: np.ndarray) -> None:
    """psi_0..psi_P at points xi into table (P + 1,) + xi.shape; spare has xi's shape."""
    degree = table.shape[0] - 1
    table[0] = 1.0
    if degree >= 1:
        table[1] = xi
    for j in range(1, degree):
        # table[1] is xi itself until the scaling below, and is contiguous
        # where xi may not be, which would make numpy buffer it.
        row = np.multiply(table[1], 2 * j + 1, out=table[j + 1])
        row *= table[j]
        row -= np.multiply(table[j - 1], j, out=spare)
        row /= j + 1
    for j in range(1, degree + 1):
        table[j] *= math.sqrt(2 * j + 1)


def scratch_size(index_set: MultiIndexSet, n: int) -> int:
    """Values of :func:`eval_basis_matrix`'s scratch for blocks of up to n points.

    A point takes K terms, the parents of the widest degree (or a spare row
    of N values) and P + 1 table rows of N values.
    """
    dim, degree = index_set.input_dim, index_set.max_degree
    column = len(index_set) + max(dim, math.comb(dim + degree - 1, degree)) + (degree + 1) * dim
    return column * min(n, max(1, _BLOCK_BYTES // (8 * column)))


def eval_basis_matrix(
    xi: np.ndarray, index_set: MultiIndexSet, out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluates every basis element at a batch of reference points.

    Walks the parent recurrence of the module docstring one total degree at a
    time: the terms of degree p form one slice of the graded order, and each
    is its parent's value times one univariate factor. Points are processed in
    blocks whose (K, b) terms, gathered parents and tables live in `work`,
    then written transposed into the result; no block allocates memory.

    Args:
        xi: Reference points of shape (n, N), componentwise within
            [-1 - tol, 1 + tol].
        index_set: Basis definition.
        out: Optional C- or Fortran-contiguous float64 (n, K) array the
            result is written to; the byte limit then does not apply.
        work: Optional contiguous 1-D float64 scratch of at least
            ``scratch_size(index_set, 1)`` values; by default
            ``scratch_size(index_set, n)`` values are allocated.

    Returns:
        Design-style matrix of shape (n, K), `out` or a new C-contiguous
        array; entry (i, k) is Psi_k(xi_i).

    Raises:
        BasisSizeError: If a result to allocate would exceed
            MAX_BASIS_BYTES; raised before anything is allocated.
        DomainError: If a point lies outside the cube beyond tolerance.
        ValidationError: If `out` is not a float64 (n, K) array, or `work`
            not a 1-D float64 array of at least one point's scratch.
    """
    xi = np.atleast_2d(real_array(xi, "points"))
    if xi.shape[1] != index_set.input_dim:
        raise ValidationError(
            f"points have dimension {xi.shape[1]}, basis expects {index_set.input_dim}"
        )
    n, k, dim = xi.shape[0], len(index_set), index_set.input_dim
    if out is None:
        check_bytes(8 * n * k, f"basis matrix of {n} points by K={k} terms")
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (n, k)):
        raise ValidationError(f"out must be a float64 array of shape {(n, k)}, got "
                              f"{getattr(out, 'dtype', type(out).__name__)} of shape {np.shape(out)}")
    if work is not None and not (isinstance(work, np.ndarray) and work.dtype == np.float64
                                 and work.ndim == 1):
        raise ValidationError(f"work must be a 1-D float64 array, got "
                              f"{getattr(work, 'dtype', type(work).__name__)} of shape {np.shape(work)}")
    xi = _clamp_reference(xi)

    if out is None:
        out = np.empty((n, k))
    if work is None:
        work = np.empty(scratch_size(index_set, n))
    column = scratch_size(index_set, 1)
    step = work.size // column
    if n and not step:
        raise ValidationError(f"work of {work.size} values is less than one point's scratch")
    tables_at = column - (index_set.max_degree + 1) * dim
    for start in range(0, n, max(step, 1)):
        block = xi[start:start + step].T
        b = block.shape[1]
        terms, gathered, tables = (work[lo * b:hi * b].reshape(-1, b) for lo, hi in (
            (0, k), (k, tables_at), (tables_at, column)))
        _legendre_rows(block, tables.reshape(-1, dim, b), gathered[:dim])
        terms[0] = 1.0
        # The indices are in range; under the default mode="raise" numpy
        # would copy each `out` through a buffer of its own.
        for level, parents, factors in index_set.levels:
            np.take(tables, factors, axis=0, out=terms[level], mode="clip")
            terms[level] *= np.take(terms, parents, axis=0, out=gathered[:len(parents)],
                                    mode="clip")
        out[start:start + step] = terms.T
    return out
