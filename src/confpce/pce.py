r"""Least-squares polynomial chaos fitting with closed-form leave-one-out.

The surrogate is $\widehat{\mu}(x) = \sum_k c_k \Psi_k(\xi(x))$ with
coefficients solving the least-squares problem $\min_c \|y - Dc\|_2$ over the
design matrix $D_{mk} = \Psi_k(\xi(x^{(m)}))$. Because the model is linear in
its coefficients, the residual and prediction of every leave-one-out refit
follow from a single factorization of $D$ via rank-one update identities:

* leverage $h_{mm} = d_m^\top (D^\top D)^{-1} d_m$ (hat-matrix diagonal),
* LOO residual $r_m = (y^{(m)} - \widehat{\mu}(x^{(m)})) / (1 - h_{mm})$,
* LOO prediction $\widehat{\mu}_{\sim m}(x^*)
  = \widehat{\mu}(x^*) - d_*^\top (D^\top D)^{-1} d_m\, r_m$.

:func:`brute_force_loo` is an independent oracle that refits once per
sample, for validating the closed forms. :func:`fit` refits only the rare
samples whose $1 - h_{mm}$ is so small that the closed form loses digits,
with the oracle's own per-sample refit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular

from . import basis
from .basis import InputSpec, MultiIndexSet, build_total_degree_set, eval_basis_matrix, to_reference
from .errors import (
    LeverageError,
    NonFiniteFitError,
    RankDeficientError,
    UnderdeterminedError,
    ValidationError,
)

# Condition numbers beyond this make LOO quantities meaningless in doubles.
# fit gates on the Frobenius condition number kappa_F = ||R||_F ||R^-1||_F
# = sqrt(sum sigma_i^2 * sum sigma_i^-2) over the K singular values of the
# design, and kappa_2 <= kappa_F <= K kappa_2. The gate is conservative:
# every design it accepts has kappa_2 <= 1e12; it may refuse one with
# 1e12 / K < kappa_2 <= 1e12, never one with kappa_2 <= 1e12 / K. On the
# benchmark designs kappa_2 stays below 1e6 and kappa_F / kappa_2 below 140,
# so both gates decide alike there.
CONDITION_LIMIT = 1e12

# Peak resident memory of fit in units of its 8 M K byte design: the design,
# factored in place into Q, and Q's C-order copy (2), plus the K x K
# factors, which set the bound as M nears K. Measured growth of ru_maxrss
# over a fit: 2.18 designs at piston P=3, M=40,000 and 4.65 at wing_weight
# P=4, M=1,100, K=1,001.
_FIT_PEAK_DESIGNS = 6

# Minimum allowed 1 - h_mm; smaller means a sample its own refit cannot spare.
LEVERAGE_FLOOR = 1e-10

# Both y - Dc and 1 - h_mm cancel at a high leverage, so a closed-form LOO
# residual carries a relative error of about kappa_F eps / (1 - h_mm);
# samples with 1 - h_mm below this are refit instead.
_REFIT_BELOW = 1e-6

VARIANCE_FLOOR = 1e-300


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Training data: input points paired with scalar responses, all finite."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(basis.real_array(self.inputs, "inputs"))
        outputs = basis.real_array(self.outputs, "outputs").ravel()
        if inputs.ndim > 2:
            raise ValidationError(
                f"inputs must be a 2-D array of points, got {inputs.ndim} dimensions"
            )
        if inputs.shape[1] == 0:
            raise ValidationError("inputs must have at least one column")
        if inputs.shape[0] != outputs.shape[0]:
            raise ValidationError(
                f"{inputs.shape[0]} input rows but {outputs.shape[0]} outputs"
            )
        if outputs.shape[0] < 1:
            raise ValidationError("dataset must contain at least one sample")
        if not np.all(np.isfinite(inputs)):
            raise ValidationError("inputs contain non-finite values")
        if not np.all(np.isfinite(outputs)):
            raise ValidationError("outputs contain non-finite values")
        object.__setattr__(self, "inputs", _readonly(inputs))
        object.__setattr__(self, "outputs", _readonly(outputs))

    def __len__(self) -> int:
        return self.outputs.shape[0]


@dataclass(frozen=True)
class PceModel:
    """Fitted surrogate plus everything needed for leave-one-out reuse.

    A model is its basis, its box and its training data, which are all that
    a model file holds; :func:`fit` derives every other field from them.

    Attributes:
        index_set: Polynomial basis definition.
        input_spec: Box the inputs live on.
        training_snapshot: Dataset the model was fit on.
        coefficients: Least-squares coefficients c, shape (K,).
        hat_diag: Leverages h_mm, shape (M,).
        loo_residuals: Closed-form LOO residuals, shape (M,).
        loo_corrections: Matrix G with row m = (A d_m) * r_m, shape (M, K),
            where A = (D^T D)^{-1}; the LOO prediction at x* is
            mu(x*) - G @ d_*.
        condition_number: Frobenius condition number of the design matrix,
            ||R||_F ||R^-1||_F = sqrt(sum sigma_i^2 * sum sigma_i^-2) over its
            singular values; between the 2-norm one and K times it.
    """

    index_set: MultiIndexSet
    input_spec: InputSpec
    training_snapshot: Dataset
    coefficients: np.ndarray
    hat_diag: np.ndarray
    loo_residuals: np.ndarray
    loo_corrections: np.ndarray
    condition_number: float

    @property
    def n_train(self) -> int:
        return self.hat_diag.shape[0]

    @property
    def n_basis(self) -> int:
        return self.coefficients.shape[0]


def check_fit_bytes(m: int, k: int) -> None:
    """Raises BasisSizeError if a fit of M points by K terms is over the size limit.

    The fit's peak is bounded by _FIT_PEAK_DESIGNS times the 8 M K bytes of
    its design; :func:`fit` checks it before building the design.
    """
    basis.check_bytes(_FIT_PEAK_DESIGNS * 8 * m * k,
                      f"basis matrix of {m} points by K={k} terms, with its fit,")


def fit(data: Dataset, index_set: MultiIndexSet, spec: InputSpec) -> PceModel:
    """Fits the surrogate and precomputes all leave-one-out quantities.

    Solves the least-squares problem through a thin QR factorization of the
    design matrix rather than the normal equations (which would square the
    condition number). Leverages are the squared row norms of the thin Q
    factor, and (D^T D)^{-1} is assembled from R^{-1}, which also gives the
    Frobenius condition number ||R||_F ||R^{-1}||_F in O(K^2) more work.
    Total cost is one factorization, one triangular inverse, one (M, K) by
    (K, K) product and two evaluations of the design, which let the fit hold
    two design-sized arrays in all, and no SVD; a sample with
    1 - h_mm < 1e-6, which no benchmark design has, is refit as
    :func:`brute_force_loo` does.

    Args:
        data: Training dataset with M samples.
        index_set: Basis with K elements.
        spec: Input box; dimensions must agree with data and basis.

    Returns:
        A frozen PceModel.

    Raises:
        UnderdeterminedError: If M < K.
        BasisSizeError: If six times the 8 M K bytes of the design, a bound
            on the fit's peak memory, exceed MAX_BASIS_BYTES; raised before
            the design is built.
        RankDeficientError: If R has a zero on its diagonal or the design's
            Frobenius condition number exceeds 1e12.
        LeverageError: If some 1 - h_mm < 1e-10 (e.g. the M = K
            interpolation regime, where the hat matrix is the identity).
        NonFiniteFitError: If the coefficients, the LOO residuals, their sum
            of squares or :func:`pce_variance` overflow.
    """
    if index_set.input_dim != spec.dim:
        raise ValidationError("basis and input spec dimensions disagree")
    m, k = len(data), len(index_set)
    if m < k:
        raise UnderdeterminedError(
            f"underdetermined fit: M={m} training samples < K={k} basis terms"
        )
    check_fit_bytes(m, k)

    xi = to_reference(data.inputs, spec)
    # fit allocates two design-sized arrays. scipy factors the design in
    # place in the first, a Fortran-order one, and builds Q over it. The
    # products below round differently on a Fortran-order Q, so Q is copied
    # to C order, a copy even at K = 1: that copy, the second array, becomes
    # the LOO corrections.
    buffer = eval_basis_matrix(xi, index_set, out=np.empty((m, k), order="F"))
    q, r = qr(buffer, mode="economic", overwrite_a=True, check_finite=False)
    q = np.array(q, order="C")
    # kappa_F(D) = ||R||_F ||R^-1||_F from the R^-1 the LOO corrections need
    # anyway; a zero pivot or an inverse that overflows leaves it infinite.
    condition = np.inf
    if np.all(np.diagonal(r)):
        # Solved in place over a Fortran-order identity, the array LAPACK
        # would copy a C-order one to: the same bits, one K x K array less.
        r_inv = solve_triangular(r, np.eye(k, order="F"), overwrite_b=True)
        with np.errstate(over="ignore", invalid="ignore"):
            condition = float(np.linalg.norm(r) * np.linalg.norm(r_inv))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise RankDeficientError(
            f"design matrix Frobenius condition number {condition:.3e} "
            f"exceeds {CONDITION_LIMIT:.0e}"
        )

    # h_mm = ||Q_m||^2 since H = Q Q^T; clip eps-level drift back into [0, 1].
    hat = np.einsum("ij,ij->i", q, q)
    if np.any(hat > 1.0 + 1e-8) or np.any(hat < -1e-8):
        raise RankDeficientError("leverages fall outside [0, 1] beyond roundoff")
    hat = np.clip(hat, 0.0, 1.0)

    one_minus_h = 1.0 - hat
    if np.any(one_minus_h < LEVERAGE_FLOOR):
        worst = int(np.argmin(one_minus_h))
        raise LeverageError(
            f"sample {worst} has leverage {float(hat[worst])!r}; "
            f"1 - h below {LEVERAGE_FLOOR:.0e} makes LOO residuals undefined"
        )

    # Huge outputs can overflow anywhere below; the finite checks after the
    # block turn that into one typed error rather than warnings and NaNs.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = solve_triangular(r, q.T @ data.outputs, check_finite=False)
        del r  # each factor is freed once used: that caps the peak at M near K
        normal_inverse = r_inv @ r_inv.T
        del r_inv
        # The design again, in C order over the first buffer: evaluation is
        # deterministic, so these are its bits, and G = D A is written over Q.
        design = eval_basis_matrix(xi, index_set, out=buffer.ravel(order="K").reshape(m, k))
        loo_residuals = (data.outputs - design @ coeffs) / one_minus_h
        loo_corrections = np.matmul(design, normal_inverse, out=q)
        del normal_inverse
        loo_corrections *= loo_residuals[:, None]
        # A refit sample's row of G is c - c_{~m}, free of the error in A d_m
        # that its large r_m would magnify.
        for i in np.flatnonzero(one_minus_h < _REFIT_BELOW):
            loo_residuals[i], refit = _refit_without(design, data.outputs, i)
            loo_corrections[i] = coeffs - refit
        for derived in (coeffs, hat, loo_residuals, loo_corrections):
            derived.setflags(write=False)
        model = PceModel(
            index_set=index_set,
            input_spec=spec,
            training_snapshot=data,
            coefficients=coeffs,
            hat_diag=hat,
            loo_residuals=loo_residuals,
            loo_corrections=loo_corrections,
            condition_number=condition,
        )
        finite = (
            np.all(np.isfinite(loo_corrections))
            and np.isfinite(loo_residuals @ loo_residuals)
            and np.isfinite(pce_variance(model))
        )
    if not finite:
        raise NonFiniteFitError("the fit overflows: training outputs are too large in magnitude")
    return model


def loo_predict(model: PceModel, x: np.ndarray) -> np.ndarray:
    """Evaluates all M leave-one-out surrogates at new points without refits.

    Entry m is the prediction of the model fit without training sample m,
    obtained as mu(x*) - d_*^T (D^T D)^{-1} d_m r_m using the precomputed
    correction matrix, at O(MK) cost per point.

    Args:
        model: Fitted model.
        x: Point (N,) or batch (n, N).

    Returns:
        Array of shape (M,) for a single point, (n, M) for a batch.
    """
    x = basis.real_array(x, "points")
    rows = eval_basis_matrix(to_reference(np.atleast_2d(x), model.input_spec), model.index_set)
    values = loo_values(model, rows, rows @ model.coefficients)
    return values[0] if x.ndim == 1 else values


def loo_values(model: PceModel, rows: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """LOO predictions at precomputed basis rows (n, K), shape (n, M).

    `centers` are the full-model predictions rows @ coefficients; entry
    (i, m) is centers[i] - rows[i] @ G[m] with G the correction matrix.
    """
    out = rows @ model.loo_corrections.T
    return np.subtract(centers[:, None], out, out=out)


def brute_force_loo(
    data: Dataset,
    index_set: MultiIndexSet,
    spec: InputSpec,
    x_star: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Leave-one-out by actually refitting M times; the validation oracle.

    Deliberately naive and independent of the closed-form path: each refit
    solves its own least-squares problem with numpy.linalg.lstsq on the
    dataset minus one sample.

    Args:
        data: Training dataset with M samples (M - 1 >= K required).
        index_set: Basis.
        spec: Input box.
        x_star: Optional point (N,) or batch (n, N) at which to also record
            every refit's prediction.

    Returns:
        (residuals, predictions): residuals[m] = y_m - mu_without_m(x_m);
        predictions is None when x_star is None, else shape (M,) for a single
        point or (n, M) for a batch.
    """
    m, k = len(data), len(index_set)
    if m - 1 < k:
        raise UnderdeterminedError(
            f"brute-force LOO needs M - 1 >= K, got M={m}, K={k}"
        )
    design = eval_basis_matrix(to_reference(data.inputs, spec), index_set)
    star_rows = None
    single = False
    if x_star is not None:
        x_star = basis.real_array(x_star, "points")
        single = x_star.ndim == 1
        star_rows = eval_basis_matrix(to_reference(np.atleast_2d(x_star), spec), index_set)

    residuals = np.empty(m)
    predictions = np.empty((star_rows.shape[0], m)) if star_rows is not None else None
    for i in range(m):
        residuals[i], coeffs = _refit_without(design, data.outputs, i)
        if predictions is not None:
            predictions[:, i] = star_rows @ coeffs
    if predictions is not None and single:
        predictions = predictions[0]
    return residuals, predictions


def _refit_without(design: np.ndarray, outputs: np.ndarray, i: int) -> tuple[float, np.ndarray]:
    """(LOO residual, coefficients) of sample i from a least-squares refit without it."""
    keep = np.ones(design.shape[0], dtype=bool)
    keep[i] = False
    coeffs, *_ = np.linalg.lstsq(design[keep], outputs[keep], rcond=None)
    return outputs[i] - design[i] @ coeffs, coeffs


def pce_variance(model: PceModel) -> float:
    """The model's output-variance estimate: sum of c_k^2 over k != 0.

    Valid because the basis is orthonormal. The zero multi-index, first in
    graded order, carries the mean and is excluded. Normalized scores and
    the relative LOO error use this estimate and no other.
    """
    return float(np.sum(model.coefficients[1:] ** 2))


def relative_loo_error(model: PceModel) -> float:
    """Mean squared LOO residual divided by the output variance.

    Scale-free model-quality diagnostic: multiplying all outputs by a constant
    leaves it unchanged. NaN when the variance estimate is at or below
    VARIANCE_FLOOR (e.g. a constant target), so that a degenerate target
    still gets a report.
    """
    variance = pce_variance(model)
    if variance <= VARIANCE_FLOOR:
        return float("nan")
    return float(np.mean(model.loo_residuals**2) / variance)


MODEL_KEYS = ("input_spec", "multi_index_set", "inputs", "outputs")


def to_json(model: PceModel) -> str:
    """Serializes the model to a compact JSON document holding only its definition.

    The keys are :data:`MODEL_KEYS`: the box, the basis (input dimension and
    total degree) and the training inputs and outputs, which is all a model
    is. Reals render in shortest round-trip decimal, so the refit in
    :func:`from_json` sees the exact training data and, with the same numpy
    and scipy builds and BLAS thread count, reproduces every derived array
    bit for bit.
    """
    iset, data = model.index_set, model.training_snapshot
    doc = {
        "input_spec": {"ranges": [[lo, hi] for lo, hi in model.input_spec.ranges]},
        "multi_index_set": {"input_dim": iset.input_dim, "max_degree": iset.max_degree},
        "inputs": data.inputs.tolist(),
        "outputs": data.outputs.tolist(),
    }
    return json.dumps(doc, separators=(",", ":"))


def _json_numbers(field: str, value):
    """`value` unchanged; a ValidationError unless every entry is a JSON number.

    Strings and booleans would otherwise be coerced by float(): "0.25" to
    0.25 and true to 1.
    """
    for entry in np.asarray(value, dtype=object).ravel():
        if type(entry) not in (int, float):
            raise ValidationError(f"{field} needs numbers, got {entry!r}")
    return value


def from_json(text: str) -> PceModel:
    """Rebuilds a model from :func:`to_json` output by refitting it.

    Raises:
        ValidationError: If the text is not JSON, the document does not hold
            exactly :data:`MODEL_KEYS` (as in the older formats), a field is
            malformed (a non-integral input_dim or max_degree, a string or
            boolean among the numbers, a basis and box of unequal dimension),
            or a training number is non-finite or outside the box.
        ConfpceError: If the refit fails, as in :func:`fit`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(str(exc)) from None
    if not isinstance(doc, dict) or set(doc) != set(MODEL_KEYS):
        if isinstance(doc, dict) and "loo_corrections" in doc:
            raise ValidationError(
                "derived-array model file (coefficients, hat_diag, loo_residuals, "
                "loo_corrections) from before models refit on load; refit it with 'confpce fit'"
            )
        found = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise ValidationError(f"model file must hold exactly the keys {MODEL_KEYS}, found {found}")
    try:
        spec = InputSpec(ranges=_json_numbers("input_spec.ranges", doc["input_spec"]["ranges"]))
        mis = doc["multi_index_set"]
        # Checked before the basis is built, so a file cannot ask for a
        # basis wider than its box.
        if basis._integral("input_dim", mis["input_dim"]) != spec.dim:
            raise ValidationError("basis and input spec dimensions disagree")
        index_set = build_total_degree_set(spec.dim, mis["max_degree"])
        data = Dataset(
            inputs=_json_numbers("inputs", doc["inputs"]),
            outputs=_json_numbers("outputs", doc["outputs"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed model field: {exc!r}") from None
    return fit(data, index_set, spec)
