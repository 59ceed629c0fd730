"""Polynomial chaos surrogates with jackknife/jackknife+ conformal intervals.

Fit a least-squares polynomial chaos expansion on uniform box inputs, reuse
its single factorization to obtain every leave-one-out residual and
prediction in closed form, and wrap predictions in finite-sample calibrated
intervals without ever refitting.
"""

from .basis import (
    InputSpec,
    MultiIndexSet,
    build_total_degree_set,
    eval_basis_matrix,
    to_reference,
)
from .benchmarks import (
    Benchmark,
    benchmark_names,
    dataset_from_csv,
    design_size,
    get_benchmark,
    register_benchmark,
    sample_design,
)
from .conformal import (
    ConformalConfig,
    empirical_coverage,
    finite_quantile_upper,
    interval_arrays,
)
from .errors import (
    BasisSizeError,
    ConfpceError,
    DomainError,
    IntervalError,
    LeverageError,
    NonFiniteFitError,
    RankDeficientError,
    UnderdeterminedError,
    ValidationError,
    ZeroVarianceError,
)
from .harness import (
    CoverageReport,
    ExperimentConfig,
    RunRecord,
    aggregate_records,
    emit_report,
    run_cell,
    run_grid,
)
from .pce import (
    Dataset,
    PceModel,
    brute_force_loo,
    fit,
    from_json,
    loo_predict,
    loo_values,
    pce_variance,
    relative_loo_error,
    to_json,
)

__version__ = "0.1.0"
