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

# Guard against accidentally materializing an intractable basis.
MAX_BASIS_SIZE = 10_000_000

# Largest (n, K) matrix eval_basis_matrix will allocate, in bytes (4 GiB);
# pce.fit refuses a design whose whole fit would need more than this.
# MAX_BASIS_SIZE bounds K alone: a piston design at P=12, C=3 has K=50,388
# terms and M=151,164 points, about 61 GB.
MAX_BASIS_BYTES = 2**32

# eval_basis_matrix builds the basis in blocks of points whose (K, b) scratch
# buffer holds about this many bytes, so its working memory beyond the result
# does not grow with the number of points.
_BLOCK_BYTES = 2**19


@dataclass(frozen=True)
class MultiIndexSet:
    """Ordered total-degree multi-index set.

    Attributes:
        indices: Multi-indices in graded-lexicographic order (sorted by total
            degree, ties broken lexicographically on the reversed index), the
            zero index first.
        input_dim: Number of input dimensions N.
        max_degree: Maximum total degree P.
        parent: Read-only integer array (K,); entry k is the position of the
            k-th index with its last nonzero coordinate set to 0, which is
            smaller than k. The zero index is its own parent.
        last_dim: Read-only integer array (K,): the dimension d of that last
            nonzero coordinate (0 for the zero index).
        last_degree: Read-only integer array (K,): its degree alpha_d (0 for
            the zero index).
    """

    indices: tuple[tuple[int, ...], ...]
    input_dim: int
    max_degree: int
    parent: np.ndarray = field(compare=False, repr=False)
    last_dim: np.ndarray = field(compare=False, repr=False)
    last_degree: np.ndarray = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class InputSpec:
    """Box support of a vector of independent uniform inputs.

    Attributes:
        ranges: Per-dimension (lower, upper) pairs with lower < upper.
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
            clean.append((lo, hi))
        object.__setattr__(self, "ranges", tuple(clean))

    @property
    def dim(self) -> int:
        return len(self.ranges)

    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.ranges])

    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self.ranges])


def _integral(field: str, value) -> int:
    """`value` as an int; a ValidationError unless it is an integral real number."""
    integral = isinstance(value, numbers.Real) and float(value).is_integer()
    if isinstance(value, bool) or not integral:
        raise ValidationError(f"{field} needs integer values, got {value!r}")
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
        The total-degree MultiIndexSet, with the parent arrays that
        :func:`eval_basis_matrix` walks.

    Raises:
        ValidationError: If an argument is not an integral real number (2.0 is
            taken as 2) or is out of range.
        BasisSizeError: If the cardinality K exceeds MAX_BASIS_SIZE, or the
            enumeration does not produce exactly K indices.
    """
    input_dim = _integral("input_dim", input_dim)
    max_degree = _integral("max_degree", max_degree)
    if input_dim < 1:
        raise ValidationError(f"input_dim must be >= 1, got {input_dim}")
    if max_degree < 0:
        raise ValidationError(f"max_degree must be >= 0, got {max_degree}")

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
    columns = np.array(links, dtype=np.intp).T.copy()
    columns.setflags(write=False)
    parent, last_dim, last_degree = columns
    return MultiIndexSet(
        indices=tuple(indices),
        input_dim=input_dim,
        max_degree=max_degree,
        parent=parent,
        last_dim=last_dim,
        last_degree=last_degree,
    )


def total_degree_size(input_dim: int, max_degree: int) -> int:
    """Cardinality K = (N+P)! / (N! P!) of the total-degree set, without building it.

    Raises:
        BasisSizeError: If K exceeds MAX_BASIS_SIZE.
    """
    size = math.comb(input_dim + max_degree, max_degree)
    if size > MAX_BASIS_SIZE:
        raise BasisSizeError(
            f"total-degree basis with N={input_dim}, P={max_degree} has "
            f"K={size} elements, exceeding the limit of {MAX_BASIS_SIZE}"
        )
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

    Args:
        x: Point of shape (N,) or batch of shape (n, N).
        spec: Box specification with matching dimension.

    Returns:
        Mapped point(s) with the same shape as `x`.

    Raises:
        DomainError: Naming the first offending dimension if a coordinate lies
            outside the box beyond tolerance.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != spec.dim:
        raise ValidationError(f"expected {spec.dim}-dimensional points, got shape {x.shape}")
    lo, hi = spec.lower(), spec.upper()
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


def _legendre_rows(degree: int, xi: np.ndarray) -> np.ndarray:
    """psi_0..psi_degree at points of any shape: shape (degree + 1,) + xi.shape."""
    table = np.empty((degree + 1,) + xi.shape)
    table[0] = 1.0
    if degree >= 1:
        table[1] = xi
    for j in range(1, degree):
        table[j + 1] = ((2 * j + 1) * xi * table[j] - j * table[j - 1]) / (j + 1)
    table *= np.sqrt(2.0 * np.arange(degree + 1) + 1.0).reshape((-1,) + (1,) * xi.ndim)
    return table


def _block_rows(n_basis: int) -> int:
    """Points per :func:`eval_basis_matrix` block for a basis of n_basis terms."""
    return max(1, _BLOCK_BYTES // (8 * n_basis))


def eval_basis_matrix(xi: np.ndarray, index_set: MultiIndexSet) -> np.ndarray:
    """Evaluates every basis element at a batch of reference points.

    Walks the parent recurrence of the module docstring one total degree at a
    time: the terms of degree p form one slice of the graded order, and each
    is its parent's value times one univariate factor. Points are processed in
    blocks of :func:`_block_rows` rows in a (K, b) scratch buffer, which is
    then written transposed into the result.

    Args:
        xi: Reference points of shape (n, N), componentwise within
            [-1 - tol, 1 + tol].
        index_set: Basis definition.

    Returns:
        C-contiguous design-style matrix of shape (n, K); entry (i, k) is
        Psi_k(xi_i).

    Raises:
        BasisSizeError: If the result would exceed MAX_BASIS_BYTES; raised
            before anything is allocated.
        DomainError: If a point lies outside the cube beyond tolerance.
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if xi.shape[1] != index_set.input_dim:
        raise ValidationError(
            f"points have dimension {xi.shape[1]}, basis expects {index_set.input_dim}"
        )
    n, k, dim = xi.shape[0], len(index_set), index_set.input_dim
    if 8 * n * k > MAX_BASIS_BYTES:
        raise BasisSizeError(
            f"basis matrix of {n} points by K={k} terms needs {8 * n * k} bytes, "
            f"exceeding the limit of {MAX_BASIS_BYTES}"
        )
    xi = _clamp_reference(xi)
    # Row j * N + d of a block's flattened table holds psi_j in dimension d.
    factor = index_set.last_degree * dim + index_set.last_dim
    # The terms of total degree p sit at [C(N + p - 1, N), C(N + p, N)).
    ends = [math.comb(dim + p, dim) for p in range(index_set.max_degree + 1)]
    levels = [(slice(lo, hi), index_set.parent[lo:hi], factor[lo:hi])
              for lo, hi in zip(ends, ends[1:])]

    out = np.empty((n, k))
    step = _block_rows(k)
    scratch = np.empty((k, min(step, n)))
    for start in range(0, n, step):
        block = xi[start:start + step].T
        tables = _legendre_rows(index_set.max_degree, block).reshape(-1, block.shape[1])
        terms = scratch[:, :block.shape[1]]
        terms[0] = 1.0
        for level, parents, factors in levels:
            np.take(tables, factors, axis=0, out=terms[level])
            terms[level] *= terms[parents]
        out[start:start + step] = terms.T
    return out
