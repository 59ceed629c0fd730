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
outside 1..M. Both indices take the exact binary value of the float s, see
:func:`_upper_index`.

Jackknife+ needs the n x M matrix of leave-one-out predictions at the n
query points. Each call fills the matrix one block of rows at a time, on at
most two workers: the calling thread and, when there are two blocks or more
and two usable CPUs, one helper thread started for the call and joined
before it returns. The matrix product and the partitions release the
interpreter lock, so the two workers run on two cores. Each worker owns a
workspace of two buffers: one of about 4 MB takes a block's LOO predictions,
from one product with the correction matrix, and one of about 1 MB, small
enough to stay in a core's L2 cache, takes a sub-block shifted down by the
scores while the upward shift and both partitions run in place. The
workspace is at most two of these pairs, whatever n is, no block allocates
anything, and nothing persists between calls. Block boundaries depend on n
and M alone and each block writes its own rows of the bounds, so every bound
is the same bits whatever the number of workers or the order they run in.
"""

from __future__ import annotations

import collections
import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IntervalError, ValidationError, ZeroVarianceError
from .pce import (
    VARIANCE_FLOOR,
    PceModel,
    basis_rows,
    loo_predict,  # noqa: F401  public name kept importable from this module
    loo_values,
    pce_variance,
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
            raise ValidationError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.score not in SCORES:
            raise ValidationError(f"score must be one of {SCORES}, got {self.score!r}")
        if isinstance(self.significance, bool) or not isinstance(self.significance, numbers.Real):
            raise ValidationError(f"significance must be a real number, got {self.significance!r}")
        if not 0.0 < self.significance < 1.0:
            raise ValidationError(f"significance must lie in (0, 1), got {self.significance!r}")
        # For s <= 1/2, floor(s(M+1)) <= ceil((1-s)(M+1)), so the jackknife+
        # lower order statistic of loo - a never passes the upper one of loo + a.
        if self.method == "jackknife_plus" and self.significance > 0.5:
            raise ValidationError(f"jackknife_plus needs significance <= 1/2, got {self.significance!r}")


def _upper_index(n: int, significance: float) -> int:
    """1-based order-statistic index ceil((1-s)(n+1)), computed exactly.

    Fractions avoid float boundary accidents such as 0.95 * 20 evaluating
    just above 19 and spuriously overflowing the sample. The s here is the
    exact binary value of the float, not the decimal or rational it was
    written as: the float 1/3 lies just below 1/3, so at s = 1/3 the index
    is one above the rational ceil(2(n+1)/3) whenever 3 divides n + 1.
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


def interval_arrays(
    model: PceModel, points: np.ndarray, cfg: ConformalConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized interval bounds: (centers, lowers, uppers), each shape (n,).

    Evaluates the basis at the points once and hands the rows to
    :func:`interval_bounds`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return interval_bounds(model, basis_rows(points, model.index_set, model.input_spec), cfg)


# The jackknife+ workspace of one worker, whatever the number of points: a
# buffer of about _CHUNK_BYTES for a block of the LOO matrix, filled by one
# product, and one of about _SUB_BYTES for the shifted sub-blocks; a call
# holds at most _WORKERS of them. The BLAS may round a row differently
# depending on how many rows one product holds, so the block size fixes
# every bound's last bits; the sub-block size only decides what stays in
# cache, and the worker count decides nothing about the bits.
_CHUNK_BYTES = 4 * 2**20
_SUB_BYTES = 2**20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Threads per jackknife+ call: the calling thread plus at most one helper.
_WORKERS = min(2, _usable_cpus())


def _chunk_rows(n_train: int) -> int:
    """Test points per jackknife+ block for a model with n_train samples."""
    return max(1, _CHUNK_BYTES // (8 * n_train))


def _sub_rows(n_train: int) -> int:
    """Test points per jackknife+ sub-block for a model with n_train samples."""
    return max(1, _SUB_BYTES // (8 * n_train))


def check_score(model: PceModel, score: str) -> None:
    """The one check that tells the score types apart, see the module docstring.

    Raises:
        ZeroVarianceError: For normalized scores on a zero-variance target.
    """
    if score == "normalized":
        variance = pce_variance(model)
        if variance <= VARIANCE_FLOOR:
            raise ZeroVarianceError(
                f"output variance {variance!r} too small to normalize scores"
            )


def _share_blocks(starts: range, workers: list) -> None:
    """Runs each of `workers`, a callable taking next_start, on its own thread.

    next_start() hands out the next of `starts`, then None. The first worker
    runs on the calling thread and each other one on a helper thread joined
    before this returns; a helper's exception is raised here. A worker that
    fails takes the remaining starts, so the others stop after their current
    block.
    """
    pending, lock, failures = iter(starts), threading.Lock(), []

    def next_start():
        with lock:
            return next(pending, None)

    def run(worker):
        try:
            worker(next_start)
        except BaseException:
            with lock:
                collections.deque(pending, maxlen=0)
            raise

    def helper(worker):
        try:
            run(worker)
        except BaseException as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=helper, args=(worker,), name="confpce-jackknife-plus", daemon=True)
        for worker in workers[1:]
    ]
    for thread in threads:
        thread.start()
    try:
        run(workers[0])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]


def interval_bounds(
    model: PceModel, rows: np.ndarray, cfg: ConformalConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interval bounds at precomputed basis rows (n, K), see :func:`basis_rows`.

    Returns (centers, lowers, uppers), each shape (n,). Each jackknife+ bound
    is an order statistic of one row of the LOO matrix, so the matrix is
    built and partitioned one block of test points at a time, on at most two
    threads, each in a workspace of fixed size, see the module docstring.

    Raises:
        ZeroVarianceError: For normalized scores on a zero-variance target.
        IntervalError: If a bound is NaN or a lower bound exceeds its upper.
    """
    check_score(model, cfg.score)
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
        n, step, sub = centers.shape[0], _chunk_rows(m), _sub_rows(m)

        def fill_blocks(loo_buffer, shift_buffer, next_start):
            while (start := next_start()) is not None:
                stop = min(start + step, n)
                loo = loo_values(
                    model, rows[start:stop], centers[start:stop], out=loo_buffer[:stop - start]
                )
                for first in range(0, stop - start, sub):
                    part = loo[first:first + sub]
                    span = slice(start + first, start + first + part.shape[0])
                    shifted = np.subtract(part, a, out=shift_buffer[:part.shape[0]])
                    shifted.partition(m - k, axis=1)
                    lowers[span] = shifted[:, m - k]
                    part += a
                    part.partition(k - 1, axis=1)
                    uppers[span] = part[:, k - 1]

        starts = range(0, n, step)
        # Every workspace is allocated here, on the calling thread: buffers a
        # helper allocated would come from a malloc arena of its own and stay
        # resident after the call (about 4 MB more peak RSS on a piston grid).
        _share_blocks(starts, [
            functools.partial(
                fill_blocks, np.empty((min(step, n), m)), np.empty((min(sub, step, n), m))
            )
            for _ in range(max(1, min(_WORKERS, len(starts))))
        ])
    bad = ~(lowers <= uppers)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise IntervalError(
            f"interval at point {i} has lower {float(lowers[i])!r} and upper {float(uppers[i])!r}"
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
