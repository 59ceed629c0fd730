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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisSizeError, DomainError

# Reference-domain slack: affine maps may land an endpoint a few ulps outside
# [-1, 1]; values within this tolerance are clamped, anything beyond errors.
REFERENCE_TOLERANCE = 1e-12

# Guard against accidentally materializing an intractable basis.
MAX_BASIS_SIZE = 10_000_000


@dataclass(frozen=True)
class MultiIndexSet:
    """Ordered total-degree multi-index set.

    Attributes:
        indices: Multi-indices in graded-lexicographic order (sorted by total
            degree, ties broken lexicographically on the reversed index), the
            zero index first.
        input_dim: Number of input dimensions N.
        max_degree: Maximum total degree P.
    """

    indices: tuple[tuple[int, ...], ...]
    input_dim: int
    max_degree: int

    def __len__(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        """Return the indices as an integer array of shape (K, N)."""
        return np.asarray(self.indices, dtype=np.intp).reshape(len(self.indices), self.input_dim)


@dataclass(frozen=True)
class InputSpec:
    """Box support of a vector of independent uniform inputs.

    Attributes:
        ranges: Per-dimension (lower, upper) pairs with lower < upper.
    """

    ranges: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.ranges) == 0:
            raise ValueError("InputSpec needs at least one dimension")
        clean = []
        for n, (lo, hi) in enumerate(self.ranges):
            lo, hi = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"dimension {n}: bounds must be finite, got ({lo}, {hi})")
            if not lo < hi:
                raise ValueError(f"dimension {n}: lower bound {lo} must be < upper bound {hi}")
            clean.append((lo, hi))
        object.__setattr__(self, "ranges", tuple(clean))

    @property
    def dim(self) -> int:
        return len(self.ranges)

    def lower(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.ranges])

    def upper(self) -> np.ndarray:
        return np.array([hi for _, hi in self.ranges])


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
        The total-degree MultiIndexSet.

    Raises:
        BasisSizeError: If the cardinality K exceeds MAX_BASIS_SIZE, or the
            enumeration does not produce exactly K indices.
    """
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")

    size = math.comb(input_dim + max_degree, max_degree)
    if size > MAX_BASIS_SIZE:
        raise BasisSizeError(
            f"total-degree basis with N={input_dim}, P={max_degree} has "
            f"K={size} elements, exceeding the limit of {MAX_BASIS_SIZE}"
        )

    indices: list[tuple[int, ...]] = []
    for degree in range(max_degree + 1):
        indices.extend(_compositions(degree, input_dim))
    indices.sort(key=lambda alpha: (sum(alpha), alpha[::-1]))
    if len(indices) != size:
        raise BasisSizeError(f"enumerated {len(indices)} multi-indices, expected K={size}")
    return MultiIndexSet(indices=tuple(indices), input_dim=input_dim, max_degree=max_degree)


def _compositions(total: int, parts: int):
    """Yields all tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


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
        raise ValueError(f"expected {spec.dim}-dimensional points, got shape {x.shape}")
    lo, hi = spec.lower(), spec.upper()
    xi = 2.0 * (pts - lo) / (hi - lo) - 1.0
    xi = _clamp_reference(xi, spec)
    return xi[0] if single else xi


def from_reference(xi: np.ndarray, spec: InputSpec) -> np.ndarray:
    """Inverse of :func:`to_reference`: maps reference-cube points to the box."""
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    pts = np.atleast_2d(xi)
    if pts.shape[1] != spec.dim:
        raise ValueError(f"expected {spec.dim}-dimensional points, got shape {xi.shape}")
    lo, hi = spec.lower(), spec.upper()
    x = lo + (pts + 1.0) * (hi - lo) / 2.0
    return x[0] if single else x


def _clamp_reference(xi: np.ndarray, spec: InputSpec | None = None) -> np.ndarray:
    """Clamps reference coordinates within tolerance, errors beyond it.

    Written as a negated comparison so nan coordinates count as out of
    domain instead of slipping through.
    """
    over = ~(np.abs(xi) <= 1.0 + REFERENCE_TOLERANCE)
    if np.any(over):
        rows, cols = np.nonzero(over)
        r, n = int(rows[0]), int(cols[0])
        if spec is not None:
            lo, hi = spec.ranges[n]
            detail = f"maps outside [{lo}, {hi}] in dimension {n}"
        else:
            detail = f"outside [-1, 1] in dimension {n}"
        raise DomainError(f"point {r} {detail} (reference value {xi[rows[0], cols[0]]!r})")
    return np.clip(xi, -1.0, 1.0)


def legendre_table(degree: int, xi: np.ndarray) -> np.ndarray:
    """Evaluates orthonormal Legendre polynomials psi_0..psi_degree.

    Uses the standard three-term recurrence for P_j and scales each degree by
    sqrt(2j + 1) so that the family is orthonormal under the uniform density
    on [-1, 1].

    Args:
        degree: Highest degree to evaluate.
        xi: Evaluation points of shape (n,).

    Returns:
        Array of shape (n, degree + 1); column j holds psi_j(xi).
    """
    xi = np.asarray(xi, dtype=float)
    table = np.empty((xi.shape[0], degree + 1))
    table[:, 0] = 1.0
    if degree >= 1:
        table[:, 1] = xi
    for j in range(1, degree):
        table[:, j + 1] = ((2 * j + 1) * xi * table[:, j] - j * table[:, j - 1]) / (j + 1)
    table *= np.sqrt(2.0 * np.arange(degree + 1) + 1.0)
    return table


def eval_basis_matrix(xi: np.ndarray, index_set: MultiIndexSet) -> np.ndarray:
    """Evaluates every basis element at a batch of reference points.

    Args:
        xi: Reference points of shape (n, N), componentwise within
            [-1 - tol, 1 + tol].
        index_set: Basis definition.

    Returns:
        Design-style matrix of shape (n, K); entry (i, k) is Psi_k(xi_i).
    """
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    if xi.shape[1] != index_set.input_dim:
        raise ValueError(
            f"points have dimension {xi.shape[1]}, basis expects {index_set.input_dim}"
        )
    xi = _clamp_reference(xi)
    idx = index_set.as_array()
    out = np.ones((xi.shape[0], len(index_set)))
    for n in range(index_set.input_dim):
        col_max = int(idx[:, n].max(initial=0))
        table = legendre_table(col_max, xi[:, n])
        out *= table[:, idx[:, n]]
    return out


def eval_basis_row(xi: np.ndarray, index_set: MultiIndexSet) -> np.ndarray:
    """Evaluates every basis element at one reference point.

    Entry k is the product over dimensions of psi_{alpha_n}(xi_n) for the k-th
    multi-index alpha; the zero index always evaluates to exactly 1.

    Args:
        xi: Reference point of shape (N,).
        index_set: Basis definition.

    Returns:
        Vector of length K.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1:
        raise ValueError("eval_basis_row expects a single point; use eval_basis_matrix for batches")
    return eval_basis_matrix(xi[None, :], index_set)[0]
