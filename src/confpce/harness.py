"""Experiment grid: sample, fit, conformalize, score coverage, aggregate.

One cell is a full coordinate tuple (benchmark, degree, oversampling, method,
score, seed). Cells are independent and deterministic: the training and test
sets are drawn from separate streams keyed by (degree, oversampling, seed),
so rerunning a configuration reproduces every record byte for byte. The
cells of one design (degree, oversampling, seed) share its samples and its
fit, and its test points go through one interval call, whose jackknife+
centers also give the jackknife bounds; no cell holds the test points'
basis rows. Fit failures are captured into the record instead of aborting
the grid, because poorly oversampled cells are themselves part of the study.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .basis import _integral, build_total_degree_set, check_bytes, total_degree_size
from .benchmarks import design_size, get_benchmark, sample_design
from .conformal import (
    METHODS, ConformalConfig, check_score, empirical_coverage, interval_arrays, jackknife_bounds,
)
from .errors import (
    BasisSizeError, ConfpceError, UnderdeterminedError, ValidationError, ZeroVarianceError,
)
from .pce import fit, relative_loo_error

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
        dim = get_benchmark(self.benchmark).dim
        # The size limits of sample_design and of the basis, checked here so
        # that no design is fit before an oversized one is found.
        try:
            check_bytes(8 * self.test_size * dim, f"test_size {self.test_size}")
            for degree in self.degrees:
                total_degree_size(dim, degree)
        except BasisSizeError as exc:
            raise ValidationError(str(exc)) from None

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
    """Outcome of one cell; failed cells keep their coordinates and reason.

    The fields, in order, are the records.csv columns (degree and
    oversampling under the headers P and C); the first five key a cell's
    aggregate. A cell that succeeded has failure "".
    """

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
    n_unbounded: int | None = None
    failure: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.failure)


_FIELDS = tuple(f.name for f in fields(RunRecord))
_HEADERS = {"degree": "P", "oversampling": "C"}
RECORD_COLUMNS = tuple(_HEADERS.get(name, name) for name in _FIELDS)
# A record's values in column order: dataclasses.astuple without its deep copy.
_values = attrgetter(*_FIELDS)
_STATS = ("mean", "median", "q1", "q3", "min", "max")
AGGREGATE_COLUMNS = RECORD_COLUMNS[:5] + ("n_seeds", "n_failed") + tuple(
    f"{prefix}_{stat}" for prefix in ("coverage", "width") for stat in _STATS
)


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

    The design is sampled and fit once, and its test points go through one
    interval call: jackknife+ if a cell asks for it, whose centers also give
    the jackknife bounds. A fit failure fails every cell of the design; an
    interval failure fails only its method's cells, and a failed jackknife+
    call leaves the jackknife cells a call of their own.
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
    except ConfpceError as exc:
        return all_failed(exc)

    rel_loo = relative_loo_error(model)
    # Both score types give the same bounds, so each method is scored once
    # and a normalized cell adds only its zero-variance check. jackknife+
    # goes first, so that jackknife can take its centers.
    scored, centers = {}, None
    for method in sorted({method for method, _ in cells}, key=lambda m: m != "jackknife_plus"):
        cfg = ConformalConfig(method=method, significance=significance)
        try:
            if centers is None or method != "jackknife":
                centers, lowers, uppers = interval_arrays(model, test.inputs, cfg)
            else:
                _, lowers, uppers = jackknife_bounds(model, centers, significance)
        except ConfpceError as exc:
            scored[method] = dict(failure=_failure(exc))
            continue
        widths = uppers - lowers
        scored[method] = dict(
            coverage=empirical_coverage(lowers, uppers, test.outputs),
            mean_width=float(np.mean(widths)),
            median_width=float(np.median(widths)),
            rel_loo_error=rel_loo,
            n_unbounded=int(np.count_nonzero(np.isinf(lowers) | np.isinf(uppers))),
        )

    records = []
    for method, score in cells:
        try:
            check_score(model, score)
        except ZeroVarianceError as exc:
            records.append(RunRecord(**coords, method=method, score=score, failure=_failure(exc)))
            continue
        records.append(RunRecord(**coords, method=method, score=score, **scored[method]))
    return records


def _failure(exc: ConfpceError) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_grid(config: ExperimentConfig) -> CoverageReport:
    """Runs the full Cartesian grid of the config, seeds innermost.

    Each design (P, C, seed) is sampled and fit once, and all of its
    (method, score) cells are scored from one interval call at its test
    points, see :func:`_run_design`; memory stays bounded because the basis
    rows and the LOO matrix are built in blocks of test points. Record order
    follows the config's coordinate lists with seeds innermost, so identical
    configs yield identical reports; aggregates are reduced after a stable
    sort by coordinates.
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
        groups.setdefault(_values(rec)[:5], []).append(rec)

    rows = []
    for key in sorted(groups):
        cell = groups[key]
        ok = [r for r in cell if not r.failed]
        values = (*key, len(cell), len(cell) - len(ok))
        for sample in ([r.coverage for r in ok], [r.median_width for r in ok]):
            values += _summary(np.asarray(sample, dtype=float)) if ok else (math.nan,) * len(_STATS)
        rows.append(dict(zip(AGGREGATE_COLUMNS, values)))
    return rows


def _summary(values: np.ndarray) -> tuple:
    """The _STATS of the values, in that order."""
    ordered = np.sort(values)
    return (
        float(np.mean(values)),
        _quantile_linear(ordered, 0.5),
        _quantile_linear(ordered, 0.25),
        _quantile_linear(ordered, 0.75),
        float(ordered[0]),
        float(ordered[-1]),
    )


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
        raise ValidationError(f"unknown report format {fmt!r}; use 'csv' or 'json'")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {
        "records": (RECORD_COLUMNS, [_values(rec) for rec in report.records]),
        "aggregates": (AGGREGATE_COLUMNS, [[row[col] for col in AGGREGATE_COLUMNS]
                                           for row in report.aggregates]),
    }
    if fmt == "json":
        doc = {name: [{col: _jsonable(v) for col, v in zip(columns, row)} for row in rows]
               for name, (columns, rows) in tables.items()}
        path = out_dir / "report.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
        return [path]
    written = []
    for name, (columns, rows) in tables.items():
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_fmt(v) for v in row] for row in rows)
        written.append(path)
    return written
