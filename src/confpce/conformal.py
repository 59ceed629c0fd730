r"""Jackknife and jackknife+ prediction intervals around a fitted surrogate.

An interval is three arrays over the query points: centers, lowers and
uppers. The non-conformity scores are the absolute leave-one-out residuals
$a_m = |r_m|$. "Normalized" scores divide them by the single constant
$\sqrt{\mathrm{Var}(Y)}$ and rescale the quantile back, which leaves every
interval unchanged, so both score types use $a_m$; "normalized" only adds
the check that the output variance is not zero.

The jackknife interval is symmetric about the full-model prediction:

$$[\widehat{\mu}(x^*) - \widehat{q}_{1-s}\{a_m\},\
   \widehat{\mu}(x^*) + \widehat{q}_{1-s}\{a_m\}].$$

The jackknife+ interval is built from order statistics of the shifted
leave-one-out predictions and need not be symmetric:

$$[\widehat{q}_{s}\{\widehat{\mu}_{\sim m}(x^*) - a_m\},\
   \widehat{q}_{1-s}\{\widehat{\mu}_{\sim m}(x^*) + a_m\}],$$

and carries a finite-sample marginal coverage guarantee of $1 - 2s$ under
exchangeability. Empirical quantiles use the conformal finite-sample
convention: the upper quantile is the $\lceil (1-s)(M+1) \rceil$-th smallest
value and the lower the $\lfloor s(M+1) \rfloor$-th, degrading to an
unbounded interval (explicit infinities, never clamped) when the index falls
outside 1..M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IntervalError, ZeroVarianceError
from .pce import (
    VARIANCE_FLOOR,
    PceModel,
    basis_rows,
    loo_predict,  # noqa: F401  public name kept importable from this module
    loo_values,
    output_variance,
)

METHODS = ("jackknife", "jackknife_plus")
SCORES = ("absolute", "normalized")


@dataclass(frozen=True)
class ConformalConfig:
    """Interval construction choices.

    Attributes:
        method: "jackknife" or "jackknife_plus".
        score: "absolute" or "normalized" non-conformity scores.
        significance: Target miscoverage s in (0, 1), at most 1/2 for
            jackknife+; the nominal coverage is 1 - s.
    """

    method: str = "jackknife_plus"
    score: str = "absolute"
    significance: float = 0.05

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.score not in SCORES:
            raise ValueError(f"score must be one of {SCORES}, got {self.score!r}")
        if not 0.0 < self.significance < 1.0:
            raise ValueError(f"significance must lie in (0, 1), got {self.significance!r}")
        # For s <= 1/2, floor(s(M+1)) <= ceil((1-s)(M+1)), so the jackknife+
        # lower order statistic of loo - a never passes the upper one of loo + a.
        if self.method == "jackknife_plus" and self.significance > 0.5:
            raise ValueError(f"jackknife_plus needs significance <= 1/2, got {self.significance!r}")


def _upper_index(n: int, significance: float) -> int:
    """1-based order-statistic index ceil((1-s)(n+1)), computed exactly.

    Fractions avoid float boundary accidents such as 0.95 * 20 evaluating
    just above 19 and spuriously overflowing the sample.
    """
    s = Fraction(significance)
    return math.ceil((1 - s) * (n + 1))


def finite_quantile_upper(values: np.ndarray, significance: float) -> float:
    """Finite-sample upper quantile: the ceil((1-s)(M+1))-th smallest value.

    Returns +inf when the index exceeds M, signalling that the sample is too
    small for the requested significance and the interval is unbounded.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    k = _upper_index(values.size, significance)
    if k > values.size:
        return float("inf")
    return float(np.partition(values, k - 1)[k - 1])


def finite_quantile_lower(values: np.ndarray, significance: float) -> float:
    """Finite-sample lower quantile: the floor(s(M+1))-th smallest value.

    Returns -inf when the index falls below 1. Identical to
    -finite_quantile_upper(-values, significance).
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    j = values.size + 1 - _upper_index(values.size, significance)
    if j < 1:
        return float("-inf")
    return float(np.partition(values, j - 1)[j - 1])


def interval_arrays(
    model: PceModel, points: np.ndarray, cfg: ConformalConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized interval bounds: (centers, lowers, uppers), each shape (n,).

    Evaluates the basis at the points once and hands the rows to
    :func:`interval_bounds`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return interval_bounds(model, basis_rows(points, model.index_set, model.input_spec), cfg)


# jackknife+ walks the n x M matrix of LOO predictions in blocks of rows of
# about this many bytes, so its memory does not grow with the number of points.
_CHUNK_BYTES = 8 * 2**20


def _chunk_rows(n_train: int) -> int:
    """Test points per jackknife+ block for a model with n_train samples."""
    return max(1, _CHUNK_BYTES // (8 * n_train))


def interval_bounds(
    model: PceModel, rows: np.ndarray, cfg: ConformalConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interval bounds at precomputed basis rows (n, K), see :func:`basis_rows`.

    Returns (centers, lowers, uppers), each shape (n,). Each jackknife+ bound
    is an order statistic of one row of the LOO matrix, so the matrix is
    built and partitioned one block of test points at a time.

    Raises:
        ZeroVarianceError: For normalized scores on a zero-variance target.
        IntervalError: If a bound is NaN or a lower bound exceeds its upper.
    """
    if cfg.score == "normalized":
        variance = output_variance(model)
        if variance <= VARIANCE_FLOOR:
            raise ZeroVarianceError(
                f"output variance {variance!r} too small to normalize scores"
            )
    centers = rows @ model.coefficients
    a = np.abs(model.loo_residuals)
    m = a.shape[0]
    k = _upper_index(m, cfg.significance)
    if cfg.method == "jackknife":
        half = finite_quantile_upper(a, cfg.significance)
        lowers, uppers = centers - half, centers + half
    elif k > m:
        uppers = np.full_like(centers, np.inf)
        lowers = -uppers
    else:
        lowers, uppers = np.empty_like(centers), np.empty_like(centers)
        step = _chunk_rows(m)
        for start in range(0, centers.shape[0], step):
            block = slice(start, start + step)
            loo = loo_values(model, rows[block], centers[block])
            shifted = loo - a
            shifted.partition(m - k, axis=1)
            lowers[block] = shifted[:, m - k]
            loo += a
            loo.partition(k - 1, axis=1)
            uppers[block] = loo[:, k - 1]
    bad = ~(lowers <= uppers)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise IntervalError(
            f"interval at point {i} has lower {lowers[i]!r} and upper {uppers[i]!r}"
        )
    return centers, lowers, uppers


def empirical_coverage(lowers, uppers, truths) -> float:
    """Fraction of truths falling inside their closed intervals [lower, upper]."""
    lowers, uppers, truths = (np.asarray(v, dtype=float).ravel() for v in (lowers, uppers, truths))
    if not lowers.size == uppers.size == truths.size:
        raise ValueError(
            f"{lowers.size} lowers and {uppers.size} uppers but {truths.size} truth values"
        )
    if truths.size == 0:
        raise ValueError("coverage of an empty set is undefined")
    return float(np.mean((lowers <= truths) & (truths <= uppers)))
