"""Experiment grid: sample, fit, conformalize, score coverage, aggregate.

One cell is a full coordinate tuple (benchmark, degree, oversampling, method,
score, seed). Cells are independent and deterministic: the training and test
sets are drawn from separate streams keyed by (degree, oversampling, seed),
so rerunning a configuration reproduces every record byte for byte. The
cells of one design (degree, oversampling, seed) share its samples, its fit
and its test-point basis rows, which are computed once. Fit failures are
captured into the record instead of aborting the grid, because poorly
oversampled cells are themselves part of the study.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import basis
from .basis import _integral, build_total_degree_set
from .benchmarks import design_size, get_benchmark, input_bytes, sample_design
from .conformal import ConformalConfig, METHODS, check_score, empirical_coverage, interval_bounds
from .errors import ConfpceError, UnderdeterminedError, ValidationError, ZeroVarianceError
from .pce import basis_rows, fit, relative_loo_error

RECORD_COLUMNS = (
    "benchmark",
    "P",
    "C",
    "method",
    "score",
    "seed",
    "coverage",
    "mean_width",
    "median_width",
    "rel_loo_error",
    "n_unbounded",
    "failure",
)

AGGREGATE_COLUMNS = (
    "benchmark",
    "P",
    "C",
    "method",
    "score",
    "n_seeds",
    "n_failed",
    "coverage_mean",
    "coverage_median",
    "coverage_q1",
    "coverage_q3",
    "coverage_min",
    "coverage_max",
    "width_mean",
    "width_median",
    "width_q1",
    "width_q3",
    "width_min",
    "width_max",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition mirrored by the JSON config document.

    Every field is checked, type first, when it is built: a ValidationError
    names the first bad field, before any fit.
    """

    benchmark: str
    degrees: tuple[int, ...]
    oversampling: tuple[int, ...]
    methods: tuple[str, ...] = METHODS
    scores: tuple[str, ...] = ("absolute",)
    significance: float = 0.05
    n_seeds: int = 100
    test_size: int = 10_000
    output: str | None = None

    def __post_init__(self):
        for field in ("degrees", "oversampling", "methods", "scores"):
            values = getattr(self, field)
            if not isinstance(values, (list, tuple)):
                raise ValidationError(f"{field} must be a list, got {values!r}")
            if not values:
                raise ValidationError(f"{field} list must be non-empty")
            if field in ("degrees", "oversampling"):
                values = [_integral(field, v) for v in values]
            object.__setattr__(self, field, tuple(values))
        for field in ("n_seeds", "test_size"):
            object.__setattr__(self, field, _integral(field, getattr(self, field)))
        for method in self.methods:
            for score in self.scores:
                ConformalConfig(method=method, score=score, significance=self.significance)
        for field, low in (("degrees", 0), ("oversampling", 1), ("n_seeds", 1), ("test_size", 1)):
            value = getattr(self, field)
            for v in value if isinstance(value, tuple) else (value,):
                if v < low:
                    raise ValidationError(f"{field} must be >= {low}, got {v}")
        if self.output is not None and not isinstance(self.output, str):
            raise ValidationError(f"output must be a string or null, got {self.output!r}")
        if not isinstance(self.benchmark, str):
            raise ValidationError(f"benchmark must be a string, got {self.benchmark!r}")
        try:
            get_benchmark(self.benchmark)
        except KeyError as exc:
            raise ValidationError(exc.args[0]) from None
        # sample_design's own bound, checked here so no design is fit first.
        need = input_bytes(self.benchmark, self.test_size)
        if need > basis.MAX_BASIS_BYTES:
            raise ValidationError(
                f"test_size {self.test_size} needs {need} bytes of test inputs, "
                f"exceeding the limit of {basis.MAX_BASIS_BYTES}"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        if "benchmark" not in doc or "degrees" not in doc or "oversampling" not in doc:
            raise ValidationError("config requires benchmark, degrees and oversampling")
        return cls(**doc)

    def quick(self) -> "ExperimentConfig":
        """Desk-scale profile: 20 seeds, 2000 test points."""
        return replace(self, n_seeds=20, test_size=2000)


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one cell; failed cells keep their coordinates and reason."""

    benchmark: str
    degree: int
    oversampling: int
    method: str
    score: str
    seed: int
    coverage: float | None = None
    mean_width: float | None = None
    median_width: float | None = None
    rel_loo_error: float | None = None
    condition_number: float | None = None
    n_unbounded: int | None = None
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


@dataclass(frozen=True)
class CoverageReport:
    """All per-seed records plus per-cell aggregates over seeds."""

    records: tuple[RunRecord, ...]
    aggregates: tuple[dict, ...]

    @property
    def failures(self) -> tuple[RunRecord, ...]:
        return tuple(r for r in self.records if r.failed)


def run_cell(
    benchmark: str,
    degree: int,
    oversampling: int,
    method: str,
    score: str,
    significance: float,
    seed: int,
    test_size: int,
) -> RunRecord:
    """Runs one experiment cell; never raises for fit/score failures.

    The training set has design_size(benchmark, degree, oversampling) points
    from the train stream; the test set has test_size points from the test
    stream; both are keyed by (degree, oversampling, seed). A degenerate
    zero-variance target yields rel_loo_error = nan rather than a failure.
    This is the one-cell case of the per-design path :func:`run_grid` uses,
    so a cell's record is the same whether it runs alone or in a grid.
    """
    cells = ((method, score),)
    return _run_design(benchmark, degree, oversampling, seed, cells, significance, test_size)[0]


def _run_design(benchmark, degree, oversampling, seed, cells, significance, test_size):
    """Records of the (method, score) cells of one design, in `cells` order.

    The design (benchmark, degree, oversampling, seed) is sampled, fit and
    evaluated at its test points once; every cell is then scored from those
    shared arrays. A fit failure fails every cell of the design with the same
    reason; an interval failure fails only its own cell.
    """
    coords = dict(benchmark=benchmark, degree=degree, oversampling=oversampling, seed=seed)

    def all_failed(exc):
        return [RunRecord(**coords, method=method, score=score, failure=_failure(exc))
                for method, score in cells]

    bench = get_benchmark(benchmark)
    index_set = build_total_degree_set(bench.dim, degree)
    m = design_size(benchmark, degree, oversampling)
    if m < len(index_set):
        return all_failed(UnderdeterminedError(
            f"underdetermined cell: M={m} < K={len(index_set)} for P={degree}, C={oversampling}"
        ))

    cell_seed = (degree, oversampling, seed)
    try:
        train = sample_design(benchmark, m, seed=cell_seed, stream="train")
        model = fit(train, index_set, bench.input_spec)
        test = sample_design(benchmark, test_size, seed=cell_seed, stream="test")
        rows = basis_rows(test.inputs, model.index_set, model.input_spec)
    except ConfpceError as exc:
        return all_failed(exc)

    rel_loo = relative_loo_error(model)

    def score_method(method):
        cfg = ConformalConfig(method=method, significance=significance)
        try:
            _, lowers, uppers = interval_bounds(model, rows, cfg)
        except ConfpceError as exc:
            return dict(failure=_failure(exc))
        widths = uppers - lowers
        return dict(
            coverage=empirical_coverage(lowers, uppers, test.outputs),
            mean_width=float(np.mean(widths)),
            median_width=float(np.median(widths)),
            rel_loo_error=rel_loo,
            condition_number=model.condition_number,
            n_unbounded=int(np.count_nonzero(np.isinf(lowers) | np.isinf(uppers))),
        )

    # Both score types give the same bounds, so each method is scored once
    # and a normalized cell adds only its zero-variance check.
    scored = {}
    records = []
    for method, score in cells:
        try:
            check_score(model, score)
        except ZeroVarianceError as exc:
            records.append(RunRecord(**coords, method=method, score=score, failure=_failure(exc)))
            continue
        if method not in scored:
            scored[method] = score_method(method)
        records.append(RunRecord(**coords, method=method, score=score, **scored[method]))
    return records


def _failure(exc: ConfpceError) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_grid(config: ExperimentConfig) -> CoverageReport:
    """Runs the full Cartesian grid of the config, seeds innermost.

    Each design (P, C, seed) is sampled, fit and evaluated at its test points
    once, and all of its (method, score) cells are scored from those shared
    arrays; jackknife+ memory stays bounded because its LOO matrix is built
    in blocks of test points. Record order follows the config's coordinate
    lists with seeds innermost, so identical configs yield identical reports;
    aggregates are reduced after a stable sort by coordinates.
    """
    cells = [(method, score) for method in config.methods for score in config.scores]
    records = []
    for degree in config.degrees:
        for oversampling in config.oversampling:
            designs = [
                _run_design(config.benchmark, degree, oversampling, seed, cells,
                            config.significance, config.test_size)
                for seed in range(config.n_seeds)
            ]
            for i in range(len(cells)):
                records.extend(design[i] for design in designs)
    return CoverageReport(records=tuple(records), aggregates=tuple(aggregate_records(records)))


def aggregate_records(records) -> list[dict]:
    """Per-(benchmark, P, C, method, score) statistics over seeds.

    Aggregates use only successful records; failures are counted, never
    silently dropped. Coverage statistics summarize per-seed coverages, width
    statistics per-seed median widths.
    """
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        key = (rec.benchmark, rec.degree, rec.oversampling, rec.method, rec.score)
        groups.setdefault(key, []).append(rec)

    rows = []
    for key in sorted(groups):
        cell = groups[key]
        ok = [r for r in cell if not r.failed]
        row = dict(zip(("benchmark", "P", "C", "method", "score"), key))
        row["n_seeds"] = len(cell)
        row["n_failed"] = len(cell) - len(ok)
        for prefix, values in (
            ("coverage", [r.coverage for r in ok]),
            ("width", [r.median_width for r in ok]),
        ):
            stats = _summary(np.asarray(values, dtype=float)) if ok else dict.fromkeys(
                ("mean", "median", "q1", "q3", "min", "max"), float("nan")
            )
            for stat, value in stats.items():
                row[f"{prefix}_{stat}"] = value
        rows.append(row)
    return rows


def _summary(values: np.ndarray) -> dict:
    ordered = np.sort(values)
    return {
        "mean": float(np.mean(values)),
        "median": _quantile_linear(ordered, 0.5),
        "q1": _quantile_linear(ordered, 0.25),
        "q3": _quantile_linear(ordered, 0.75),
        "min": float(ordered[0]),
        "max": float(ordered[-1]),
    }


def _quantile_linear(ordered: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile that tolerates infinite samples.

    Matches numpy's default convention on finite data but avoids the
    inf - inf = nan artifact when both bracketing order statistics are
    infinite (e.g. widths of unbounded intervals).
    """
    pos = q * (ordered.size - 1)
    i = int(math.floor(pos))
    frac = pos - i
    lo = ordered[i]
    hi = ordered[min(i + 1, ordered.size - 1)]
    if frac == 0.0 or lo == hi:
        return float(lo)
    return float(lo + frac * (hi - lo))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _typed_row(rec: RunRecord) -> list:
    """The record's values in RECORD_COLUMNS order, for both report formats."""
    return [
        rec.benchmark,
        rec.degree,
        rec.oversampling,
        rec.method,
        rec.score,
        rec.seed,
        rec.coverage,
        rec.mean_width,
        rec.median_width,
        rec.rel_loo_error,
        rec.n_unbounded,
        rec.failure or "",
    ]


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def emit_report(report: CoverageReport, fmt: str, out_dir) -> list[Path]:
    """Writes the report files and returns their paths.

    csv: records.csv (one row per seed, columns per RECORD_COLUMNS) and
    aggregates.csv (keyed without seed). json: report.json mirroring both
    tables; non-finite reals are rendered as "inf"/"-inf"/"nan" strings to
    stay parseable by strict JSON readers. Output is byte-stable for a given
    report.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}; use 'csv' or 'json'")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "csv":
        records_path = out_dir / "records.csv"
        with open(records_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RECORD_COLUMNS)
            for rec in report.records:
                writer.writerow([_fmt(v) for v in _typed_row(rec)])
        aggregates_path = out_dir / "aggregates.csv"
        with open(aggregates_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(AGGREGATE_COLUMNS)
            for row in report.aggregates:
                writer.writerow([_fmt(row[col]) for col in AGGREGATE_COLUMNS])
        written += [records_path, aggregates_path]
    else:
        doc = {
            "records": [
                {col: _jsonable(v) for col, v in zip(RECORD_COLUMNS, _typed_row(rec))}
                for rec in report.records
            ],
            "aggregates": [
                {col: _jsonable(row[col]) for col in AGGREGATE_COLUMNS}
                for row in report.aggregates
            ],
        }
        json_path = out_dir / "report.json"
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
        written.append(json_path)
    return written

