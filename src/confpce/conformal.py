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
query points. :func:`interval_arrays`, the one entry, maps all its points to
the reference cube up front, so that an error names a point's index in the
batch, and fills the matrix one block of rows at a time. A call that forms
LOO products (jackknife+ with k <= M) runs on at most two workers: the
calling thread and, when there are two full blocks or more and two usable
CPUs, one helper thread from a ``ThreadPoolExecutor`` made for the call and
joined before it returns. A call that forms centers only (jackknife, and
jackknife+ with k > M) runs every block on the calling thread. Only long
calls gain from a second core: every numpy call releases and retakes the
interpreter lock, and two threads issuing calls on 600 to 20,000 values at
once ran them at 0.35-0.67x the speed of the same calls one after the other
(1.53x at 100,000), so a jackknife call took 1.6-1.8x longer on two workers
than on one. So one lock made for the call hands out the blocks, and a
worker holds it from taking a block through that block's basis phase, its
basis evaluation and centers product (some 20 short calls): the workers'
basis phases take turns while their LOO products and selections overlap. A
worker that fails empties the blocks before it lets the lock go, so the
other one stops after its current block.

Each worker owns one pair of buffers of at most 1 MiB (but see
``_CHUNK_BYTES``), allocated on the calling thread; a block allocates
nothing but a few values a row, and nothing persists between calls. The
first buffer takes the basis evaluation's scratch, then the block's product
P with the correction matrix G, whose entry (i, j) makes the LOO prediction
loo_ij = c_i - P_ij about the center c_i. The second takes the block's basis
rows, then the selection's values. A jackknife batch runs the same loop for
its centers alone, and :func:`jackknife_bounds` turns centers into
jackknife bounds, so the harness reads both methods' bounds off one
jackknife+ call.

:func:`_blocks` is the one block rule. A block holds as many points as let
both buffers fit, a multiple of 4 and at least ``_MIN_BLOCK_ROWS`` = 8: M
LOO values a point for a bounded jackknife+ call, K basis values otherwise.
Blocks start at multiples of 4, and the last one also takes any remainder
shorter than 8 rows, so no product spans fewer than 8 rows unless it covers
the whole batch. Block boundaries depend on n, M and K alone and each block
writes its own rows of the bounds, so every bound is the same bits whatever
the number of workers or the order they run in. OpenBLAS's dgemv takes the
rows of a product in fours, counted from the first, so a block's centers
are the bits of one product over the whole batch. Its LOO predictions, and
so its bounds, matched a whole-batch product at the default block size on
every batch measured with the BLAS on one thread, and fixed batches test
this (tests/test_block_digest.py); that is a measurement of this build, not
a guarantee of OpenBLAS. Shorter products can differ: numpy computes a
one-row product as a dot product, and last blocks of 1 to 7 rows, or blocks
of 8 to 16 rows, gave other bits.

A jackknife+ bound is the t-th largest (upper) or smallest (lower) of a
row of M shifted LOO predictions, t = M - k + 1, so selection starts from a
candidate set (Floyd and Rivest, CACM 1975): the 2t + 8 columns of largest
score, taken once a call; per block, their columns of P are gathered once
into the second buffer, turned into LOO values, shifted and partitioned by
:func:`_select`, which also partitions whole rows.
Rounding to nearest is monotone, so a row's largest LOO value is
fl(c_i - min_j P_ij) and its smallest fl(c_i - max_j P_ij), read off P, and
a value outside the candidates, whose score is at most the largest outside
score a_out, shifts up to at most fl(max_j loo_ij + a_out) and down to at
least fl(min_j loo_ij - a_out). A row whose upper candidate statistic is at
least the first bound and whose lower one is at most the second has its
whole row's order statistics: an order statistic is an element of its row,
and equal floats other than zeros are the same bits. Rows that fail take
the same check over the columns outside the candidates only, gathered into
the second buffer with their candidate columns set to +inf for the minimum
and -inf for the maximum: most failures come from a candidate column, as
G's row m is proportional to r_m. Rows that fail both, and rows with a NaN
anywhere (whose minimum or maximum reads NaN), are gathered into the second
buffer and partitioned whole, as is every row of a call whose candidates
would make a third of a row or more, or whose a_out is 0 (a -0.0 could then
tie a +0.0).
"""

from __future__ import annotations

import collections
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .basis import eval_basis_matrix, real_array, scratch_size, to_reference
from .errors import IntervalError, ValidationError, ZeroVarianceError
from .pce import (
    VARIANCE_FLOOR,
    PceModel,
    loo_predict,  # noqa: F401  public name kept importable from this module
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
        _exact_significance(self.significance)
        # For s <= 1/2, floor(s(M+1)) <= ceil((1-s)(M+1)), so the jackknife+
        # lower order statistic of loo - a never passes the upper one of loo + a.
        if self.method == "jackknife_plus" and self.significance > 0.5:
            raise ValidationError(f"jackknife_plus needs significance <= 1/2, got {self.significance!r}")


def _exact_significance(significance) -> Fraction:
    """The exact value of the significance, the one rule for it.

    Raises:
        ValidationError: Unless the significance is a real number in (0, 1),
            and not a bool. A Fraction and every numpy float type qualify,
            and as_integer_ratio is exact for each.
    """
    if isinstance(significance, bool) or not isinstance(significance, numbers.Real):
        raise ValidationError(f"significance must be a real number, got {significance!r}")
    if not 0 < significance < 1:
        raise ValidationError(f"significance must lie in (0, 1), got {significance!r}")
    return Fraction(*significance.as_integer_ratio())


def _upper_index(n: int, significance: float) -> int:
    """1-based order-statistic index ceil((1-s)(n+1)), computed exactly.

    Fractions avoid float boundary accidents such as 0.95 * 20 evaluating
    just above 19 and spuriously overflowing the sample. The s here is the
    exact binary value of the float, not the decimal or rational it was
    written as: the float 1/3 lies just below 1/3, so at s = 1/3 the index
    is one above the rational ceil(2(n+1)/3) whenever 3 divides n + 1.
    """
    return math.ceil((1 - _exact_significance(significance)) * (n + 1))


def finite_quantile_upper(values: np.ndarray, significance: float) -> float:
    """Finite-sample upper quantile: the ceil((1-s)(M+1))-th smallest value.

    Returns +inf when the index exceeds M, signalling that the sample is too
    small for the requested significance and the interval is unbounded.

    Raises:
        ValidationError: For an empty sample, one holding NaN, or a
            significance that is not a real number in (0, 1) (or is a bool).
    """
    values = real_array(values, "values").ravel()
    if values.size == 0 or np.isnan(values).any():
        raise ValidationError("cannot take a quantile of an empty sample or one holding NaN")
    k = _upper_index(values.size, significance)
    if k > values.size:
        return float("inf")
    return float(np.partition(values, k - 1)[k - 1])


# The bytes of each buffer of a worker's pair, so that a pair fits one core's
# 2 MiB L2 cache; a last block that takes a remainder needs up to 7 rows
# more. Where a row holds more than 16,384 values the buffers grow past
# 1 MiB to 8 rows each: 12.8 MB a worker at M=100,000.
_CHUNK_BYTES = 2**20

# The fewest rows a block holds unless it is the whole batch (module docstring).
_MIN_BLOCK_ROWS = 8


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Threads per interval call: the calling thread plus at most one helper.
_WORKERS = min(2, _usable_cpus())


def _chunk_rows(row_len: int) -> int:
    """Points per interval block: a multiple of 4, at least _MIN_BLOCK_ROWS,
    whose rows of row_len values (M or K; M >= K, so basis rows fit too) fit
    _CHUNK_BYTES."""
    return max(_MIN_BLOCK_ROWS, _CHUNK_BYTES // (8 * row_len) // 4 * 4)


def _blocks(n: int, step: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of n points: step rows each, the last one
    with any remainder under _MIN_BLOCK_ROWS rows (module docstring)."""
    stops = [*range(step, n - _MIN_BLOCK_ROWS + 1, step), n] if n else []
    return list(zip([0, *stops[:-1]], stops))


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


def _candidates(a: np.ndarray, k: int):
    """(columns, a[columns], a_out) of the 2t + 8 largest scores in column
    order, or None where whole rows cost less (module docstring)."""
    n_cand = 2 * (a.size - k + 1) + 8
    if 3 * n_cand >= a.size:
        return None
    order = np.argpartition(a, -n_cand - 1)
    columns, a_out = np.sort(order[-n_cand:]), a[order[-n_cand - 1]]
    return (columns, a[columns], a_out) if a_out > 0 else None


def _select(loo, a, t, spare):
    """(lowers, uppers): views of the t-th smallest of each row of loo - a and
    the t-th largest of loo + a. loo (b, s) is overwritten; spare is a flat
    buffer of b * s values or more."""
    shifted = np.add(loo, a, out=spare[:loo.size].reshape(loo.shape))
    shifted.partition(-t, axis=1)
    loo -= a
    loo.partition(t - 1, axis=1)
    return loo[:, t - 1], shifted[:, -t]


def _order_statistics(product, centers, a, k, spare, lowers, uppers, candidates=None):
    """Writes the jackknife+ bounds of the LOO rows centers[:, None] - product
    (b, M) to lowers and uppers (b,), the bits of np.partition over each whole
    row. candidates may be any t or more ascending columns with their scores
    and a bound a_out > 0 on the others (-inf for none). product is
    overwritten; spare is a flat buffer of b * M values or more, and of
    2 * b * len(columns), which np.take writes unbuffered in mode "clip"."""
    m, t, rows = a.size, a.size - k + 1, slice(None)
    if candidates is not None:
        columns, a_in, a_out = candidates
        b, s = product.shape[0], columns.size
        loo = product.take(columns, axis=1, out=spare[:b * s].reshape(b, s), mode="clip")
        np.subtract(centers[:, None], loo, out=loo)
        lowers[:], uppers[:] = _select(loo, a_in, t, spare[b * s:])
        # The row maximum of the LOO values is fl(c - min_j P_ij), and its
        # minimum fl(c - max_j P_ij); either is NaN iff the row holds a NaN.
        high, low = centers - np.min(product, axis=1), centers - np.max(product, axis=1)
        fails = ~((uppers >= high + a_out) & (lowers <= low - a_out))
        again = np.flatnonzero(fails & ~np.isnan(high) & ~np.isnan(low))
        if again.size:
            outside = product.take(again, axis=0, out=spare[:again.size * m].reshape(-1, m),
                                   mode="clip")
            outside[:, columns] = np.inf
            high = centers[again] - np.min(outside, axis=1)
            outside[:, columns] = -np.inf
            low = centers[again] - np.max(outside, axis=1)
            fails[again] = ~((uppers[again] >= high + a_out) & (lowers[again] <= low - a_out))
        rows = np.flatnonzero(fails)
        if not rows.size:
            return
        spare, product = product.reshape(-1), product.take(
            rows, axis=0, out=spare[:rows.size * m].reshape(-1, m), mode="clip")
    loo = np.subtract(centers[rows, None], product, out=product)
    lowers[rows], uppers[rows] = _select(loo, a, t, spare)


def interval_arrays(
    model: PceModel, points: np.ndarray, cfg: ConformalConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized interval bounds at box points (n, N): (centers, lowers, uppers).

    Built in blocks of points by the rule in the module docstring.

    Raises:
        ValidationError: If the points are not real numbers of shape (N,) or (n, N).
        DomainError: If a point lies outside the box beyond tolerance.
        ZeroVarianceError: For normalized scores on a zero-variance target.
        IntervalError: If a bound is NaN or a lower bound exceeds its upper.
    """
    xi = np.atleast_2d(to_reference(points, model.input_spec))
    check_score(model, cfg.score)
    a = np.abs(model.loo_residuals)
    m = a.shape[0]
    k = _upper_index(m, cfg.significance)
    plus = cfg.method == "jackknife_plus"
    bounded = plus and k <= m
    n, n_basis = xi.shape[0], model.n_basis
    centers = np.empty(n)
    if plus:
        lowers, uppers = np.full(n, -np.inf), np.full(n, np.inf)
    row_len = m if bounded else n_basis
    step = _chunk_rows(row_len)
    candidates = _candidates(a, k) if bounded else None

    # Every workspace is allocated here, on the calling thread: buffers a
    # helper allocated would come from a malloc arena of its own and stay
    # resident after the call (about 4 MB more peak RSS on a piston grid).
    blocks = _blocks(n, step)
    size = max((stop - start for start, stop in blocks), default=0)
    work_values = max(size * m if bounded else 0, scratch_size(model.index_set, size))
    buffers = [(np.empty(work_values), np.empty(size * row_len))
               for _ in range(min(_WORKERS, max(1, n // step)) if bounded else 1)]
    pending, lock = iter(blocks), threading.Lock()

    def fill_blocks(work, rows):
        # A worker holds the lock but for its LOO products and selections
        # (module docstring), so one that fails empties `pending` before the
        # other can take a block.
        lock.acquire()
        try:
            for start, stop in pending:
                out = rows[:(stop - start) * n_basis].reshape(-1, n_basis)
                basis = eval_basis_matrix(xi[start:stop], model.index_set, out=out, work=work)
                np.matmul(basis, model.coefficients, out=centers[start:stop])
                if bounded:
                    lock.release()
                    try:
                        # The rows are dead once the product is formed, so
                        # the selection reuses them.
                        product = np.matmul(basis, model.loo_corrections.T,
                                            out=work[:(stop - start) * m].reshape(-1, m))
                        _order_statistics(product, centers[start:stop], a, k, rows,
                                          lowers[start:stop], uppers[start:stop], candidates)
                    finally:
                        lock.acquire()
        except BaseException:
            collections.deque(pending, maxlen=0)
            raise
        finally:
            lock.release()

    # The pool starts a thread per submitted worker, so one worker starts none.
    with ThreadPoolExecutor(len(buffers), thread_name_prefix="confpce-intervals") as pool:
        helpers = [pool.submit(fill_blocks, *pair) for pair in buffers[1:]]
        fill_blocks(*buffers[0])
    for helper in helpers:
        helper.result()
    if not plus:
        return jackknife_bounds(model, centers, cfg.significance)
    return _checked(centers, lowers, uppers)


def jackknife_bounds(
    model: PceModel, centers: np.ndarray, significance: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jackknife bounds about any interval call's centers: (centers, lowers, uppers).

    The bounds are new arrays; `centers`, taken as a float array, is
    returned unwritten, as given if it is one.

    Raises:
        ValidationError: For centers that are not real numbers, or a
            significance as in :func:`finite_quantile_upper`.
        IntervalError: If a bound is NaN.
    """
    centers = real_array(centers, "centers")
    half = finite_quantile_upper(np.abs(model.loo_residuals), significance)
    with np.errstate(invalid="ignore"):  # an infinite center and half make a NaN bound
        return _checked(centers, centers - half, centers + half)


def _checked(centers, lowers, uppers):
    """(centers, lowers, uppers); an IntervalError at the first NaN or inverted bound."""
    bad = ~(lowers <= uppers)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise IntervalError(f"interval at point {i} has lower {float(lowers.flat[i])!r} "
                            f"and upper {float(uppers.flat[i])!r}")
    return centers, lowers, uppers


def empirical_coverage(lowers, uppers, truths) -> float:
    """Fraction of truths falling inside their closed intervals [lower, upper]."""
    lowers, uppers, truths = (real_array(v, name).ravel() for v, name in (
        (lowers, "lowers"), (uppers, "uppers"), (truths, "truths")))
    if not lowers.size == uppers.size == truths.size:
        raise ValidationError(
            f"{lowers.size} lowers and {uppers.size} uppers but {truths.size} truth values"
        )
    if truths.size == 0:
        raise ValidationError("coverage of an empty set is undefined")
    return float(np.mean((lowers <= truths) & (truths <= uppers)))
