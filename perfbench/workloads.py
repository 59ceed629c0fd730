"""The benchmark's three workloads and the closed loop that measures them.

Each workload is built from a seed (its set-up), then yields cycles of
operations. A cycle is the smallest sequence whose mix of operation kinds
repeats: every run completes whole cycles, so the mix, and with it every
count the tracer takes, is the same in every run of a workload. The seed
varies which inputs each cycle uses, never the mix.

* grid: the piston coverage grid P in {2, 3}, C in {2, 3, 5}, methods jk and
  jk+, 10,000 test points per cell. ``run_grid`` takes seeds 0..n-1 only, so
  a seed's inputs come from registered copies of the piston benchmark under
  other names (the sampler keys its draws on the name). A cycle is one copy's
  full grid: six ``run_grid`` + ``emit_report`` operations, one per (P, C)
  with both methods sharing their data, then one operation that aggregates
  the twelve records and writes the combined report.
* query: one piston P=4, C=3 model fit at set-up; a cycle is 13 calls to
  ``interval_arrays`` alternating jk+ and jk, three of them (one jk+, two jk)
  large batches of 10,000 points and the rest small batches of 100 points.
* cli: a cycle is three ``confpce.cli.main`` round trips (``fit`` to a model
  file, then ``interval`` on a 200-row points file), for otl P=3, piston P=3
  and piston P=4.

Outputs are checked against the stored references in ``references/`` (see
make_references.py); ``tiny`` runs use smaller inputs and check structure
only.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from confpce import basis, benchmarks, cli, conformal, harness, pce

REFERENCES = Path(__file__).resolve().parent / "references"

SIGNIFICANCE = 0.05
JK, JKP = "jackknife", "jackknife_plus"

# Tolerances for comparing outputs with the references.
RTOL = 1e-9
ATOL = 1e-12

GRID_BENCHMARK = "piston"
GRID_DEGREES = (2, 3)
GRID_OVERSAMPLING = (2, 3, 5)
GRID_METHODS = (JK, JKP)
GRID_TEST_SIZE = 10_000
GRID_REPLICAS = 32

QUERY_DEGREE = 4
QUERY_OVERSAMPLING = 3
QUERY_MODEL_SEED = 0
QUERY_POOL_SEED = 0
QUERY_POOL = 12_000
QUERY_SMALL = 100
QUERY_LARGE = 10_000
# Slots alternate jk+ (even) and jk (odd). One jk+ and two jk batches per
# cycle are large, so that the median latency falls mid-way through the small
# jk+ batches and the tail inside the large jk+ ones, not on the edge between
# two kinds of batch, where a run's figure would jump.
QUERY_CYCLE = 13
QUERY_LARGE_JKP = 1
QUERY_LARGE_JK = 2

CLI_CONFIGS = (("otl_circuit", 3), ("piston", 3), ("piston", 4))
CLI_OVERSAMPLING = 3
CLI_FIT_SEEDS = 8
CLI_POINTS = 200


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` returns an error or None."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.allclose(got, want, rtol=RTOL, atol=ATOL))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def replica_name(j: int) -> str:
    return f"{GRID_BENCHMARK}-r{j:02d}"


class Grid:
    name = "grid"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.test_size = 200 if tiny else GRID_TEST_SIZE
        register_replicas()
        self.order = np.random.default_rng(seed).permutation(GRID_REPLICAS)
        self.cycles = 0
        self.refs = None if tiny else load_grid_references()

    def config(self, replica: str, degrees, oversampling) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            benchmark=replica,
            degrees=degrees,
            oversampling=oversampling,
            methods=GRID_METHODS,
            scores=("absolute",),
            significance=SIGNIFICANCE,
            n_seeds=1,
            test_size=self.test_size,
        )

    def cycle(self) -> list[Op]:
        replica = replica_name(int(self.order[self.cycles % GRID_REPLICAS]))
        self.cycles += 1
        records: list = []
        ops = []
        for p in GRID_DEGREES:
            for c in GRID_OVERSAMPLING:
                out = self.workdir / f"grid-P{p}-C{c}"
                cfg = self.config(replica, (p,), (c,))
                ops.append(Op(
                    f"P{p}C{c}",
                    run=lambda cfg=cfg, out=out: _run_and_report(cfg, out),
                    check=lambda rep, out=out: self._check_group(rep, out, records),
                ))
        out = self.workdir / "grid-all"
        ops.append(Op(
            "report",
            run=lambda: _aggregate_and_report(records, out),
            check=lambda rep: self._check_rows(out, 2 * len(GRID_DEGREES) * len(GRID_OVERSAMPLING)),
        ))
        return ops

    def _check_group(self, report, out: Path, records: list) -> str | None:
        records.extend(report.records)
        return self._check_rows(out, len(GRID_METHODS))

    def _check_rows(self, out: Path, expected: int) -> str | None:
        rows = _read_csv(out / "records.csv")
        if len(rows) != expected:
            return f"{len(rows)} records, expected {expected}"
        for row in rows:
            if row["failure"]:
                return f"cell failed: {row['failure']}"
            if self.refs is None:
                continue
            key = tuple(row[k] for k in GRID_KEY)
            want = self.refs.get(key)
            if want is None:
                return f"no reference for {key}"
            err = compare_record(row, want, self.test_size)
            if err:
                return f"{key}: {err}"
        if len(_read_csv(out / "aggregates.csv")) != expected:
            return "aggregates row count differs from records"
        return None


def _run_and_report(cfg, out: Path):
    report = harness.run_grid(cfg)
    harness.emit_report(report, "csv", out)
    return report


def _aggregate_and_report(records: list, out: Path):
    report = harness.CoverageReport(
        records=tuple(records), aggregates=tuple(harness.aggregate_records(records))
    )
    harness.emit_report(report, "csv", out)
    return report


GRID_KEY = ("benchmark", "P", "C", "method", "score", "seed")
GRID_EXACT = ("n_unbounded", "failure")
GRID_REAL = ("mean_width", "median_width", "rel_loo_error")


def compare_record(row: dict, want: dict, test_size: int) -> str | None:
    """Compares one records.csv row with its reference row.

    Coverage may differ by one test point, since a point lying on a bound
    can flip under roundoff; reals agree to RTOL; the rest exactly.
    """
    for col in GRID_EXACT:
        if row[col] != want[col]:
            return f"{col} {row[col]!r} != {want[col]!r}"
    if abs(float(row["coverage"]) - float(want["coverage"])) > 1.0 / test_size + ATOL:
        return f"coverage {row['coverage']} != {want['coverage']}"
    for col in GRID_REAL:
        if not _close(float(row[col]), float(want[col])):
            return f"{col} {row[col]} != {want[col]}"
    return None


def register_replicas() -> None:
    base = benchmarks.get_benchmark(GRID_BENCHMARK)
    known = set(benchmarks.benchmark_names())
    for j in range(GRID_REPLICAS):
        if replica_name(j) not in known:
            benchmarks.register_benchmark(dataclasses.replace(base, name=replica_name(j)))


def load_grid_references() -> dict:
    return {tuple(r[k] for k in GRID_KEY): r for r in _read_csv(REFERENCES / "grid_records.csv")}


class Query:
    name = "query"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.model = query_model()
        pool = QUERY_POOL // 10 if tiny else QUERY_POOL
        self.small = QUERY_SMALL // 10 if tiny else QUERY_SMALL
        self.large = QUERY_LARGE // 10 if tiny else QUERY_LARGE
        self.pool = query_pool(pool)
        self.rng = np.random.default_rng(seed)
        even, odd = np.arange(0, QUERY_CYCLE, 2), np.arange(1, QUERY_CYCLE, 2)
        self.large_slots = set(self.rng.choice(even, QUERY_LARGE_JKP, replace=False).tolist()) | set(
            self.rng.choice(odd, QUERY_LARGE_JK, replace=False).tolist()
        )
        self.configs = {
            m: conformal.ConformalConfig(method=m, score="absolute", significance=SIGNIFICANCE)
            for m in (JK, JKP)
        }
        self.refs = None if tiny else dict(np.load(REFERENCES / "query_intervals.npz"))

    def cycle(self) -> list[Op]:
        ops = []
        for slot in range(QUERY_CYCLE):
            method = JKP if slot % 2 == 0 else JK
            n = self.large if slot in self.large_slots else self.small
            start = int(self.rng.integers(0, self.pool.shape[0] - n + 1))
            points = self.pool[start:start + n]
            ops.append(Op(
                f"{'large' if n == self.large else 'small'}-{method}",
                run=lambda p=points, cfg=self.configs[method]: conformal.interval_arrays(self.model, p, cfg),
                check=lambda res, m=method, s=start, n=n: self._check(res, m, s, n),
            ))
        return ops

    def _check(self, result, method: str, start: int, n: int) -> str | None:
        centers, lowers, uppers = result
        if not (centers.shape == lowers.shape == uppers.shape == (n,)):
            return f"output shapes {centers.shape}, {lowers.shape}, {uppers.shape} for {n} points"
        if self.refs is None:
            return None if np.all(lowers <= uppers) else "lower bound above upper bound"
        window = slice(start, start + n)
        want_c = self.refs["center"][window]
        if method == JK:
            half = float(self.refs["jk_half"])
            want_lo, want_hi = want_c - half, want_c + half
        else:
            want_lo, want_hi = self.refs["jkp_lower"][window], self.refs["jkp_upper"][window]
        for label, got, want in (("center", centers, want_c), ("lower", lowers, want_lo), ("upper", uppers, want_hi)):
            if not _close(got, want):
                worst = int(np.argmax(np.abs(got - want)))
                return f"{method} {label} at pool point {start + worst}: {got[worst]!r} != {want[worst]!r}"
        return None


def query_model() -> pce.PceModel:
    bench = benchmarks.get_benchmark(GRID_BENCHMARK)
    m = benchmarks.design_size(GRID_BENCHMARK, QUERY_DEGREE, QUERY_OVERSAMPLING)
    train = benchmarks.sample_design(GRID_BENCHMARK, m, seed=QUERY_MODEL_SEED)
    index_set = basis.build_total_degree_set(bench.dim, QUERY_DEGREE)
    return pce.fit(train, index_set, bench.input_spec)


def query_pool(n: int) -> np.ndarray:
    return benchmarks.sample_design(GRID_BENCHMARK, n, seed=QUERY_POOL_SEED, stream="test").inputs


class Cli:
    name = "cli"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        n_points = CLI_POINTS // 10 if tiny else CLI_POINTS
        self.plan = []
        for bench, degree in CLI_CONFIGS:
            fit_seed = int(rng.integers(0, CLI_FIT_SEEDS))
            points = cli_points(bench, fit_seed, n_points)
            path = workdir / f"points-{bench}-P{degree}.csv"
            write_points(points, path)
            self.plan.append((bench, degree, fit_seed, path, points))
        self.refs = None if tiny else dict(np.load(REFERENCES / "cli_intervals.npz"))
        self.sink = io.StringIO()

    def cycle(self) -> list[Op]:
        ops = []
        for bench, degree, fit_seed, points_path, points in self.plan:
            model = self.workdir / f"model-{bench}-P{degree}.json"
            out = self.workdir / f"intervals-{bench}-P{degree}.csv"
            fit_args = cli_fit_args(bench, degree, fit_seed, model)
            interval_args = ["interval", "--model", str(model), "--points", str(points_path),
                             "--method", "jk+", "--out", str(out)]
            key = cli_key(bench, degree, fit_seed)
            ops.append(Op(
                f"{bench}-P{degree}",
                run=lambda a=fit_args, b=interval_args: self._round_trip(a, b),
                check=lambda codes, k=key, p=points, o=out: self._check(codes, k, p, o),
            ))
        return ops

    def _round_trip(self, fit_args, interval_args):
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink):
            return cli.main(fit_args), cli.main(interval_args)

    def _check(self, codes, key: str, points: np.ndarray, out: Path) -> str | None:
        if codes != (0, 0):
            return f"exit codes {codes}, expected (0, 0)"
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        dim = points.shape[1]
        if rows.shape != (points.shape[0], dim + 3) or not np.array_equal(rows[:, :dim], points):
            return f"interval CSV has shape {rows.shape} or points that differ from the input"
        centers, lowers, uppers = rows[:, dim], rows[:, dim + 1], rows[:, dim + 2]
        if self.refs is None:
            return None if np.all(lowers <= uppers) else "lower bound above upper bound"
        want = self.refs[key]
        for label, got, col in (("center", centers, 0), ("lower", lowers, 1), ("upper", uppers, 2)):
            if not _close(got, want[:, col]):
                return f"{key} {label} differs from the reference"
        return None


def cli_key(bench: str, degree: int, fit_seed: int) -> str:
    return f"{bench}-P{degree}-s{fit_seed}"


def cli_fit_args(bench: str, degree: int, fit_seed: int, model: Path) -> list[str]:
    m = benchmarks.design_size(bench, degree, CLI_OVERSAMPLING)
    return ["fit", "--benchmark", bench, "--m", str(m), "--seed", str(fit_seed),
            "--degree", str(degree), "--out", str(model)]


def cli_points(bench: str, fit_seed: int, n: int) -> np.ndarray:
    return benchmarks.sample_design(bench, n, seed=fit_seed, stream="test").inputs


def write_points(points: np.ndarray, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(points.shape[1])])
        writer.writerows([repr(float(v)) for v in row] for row in points)


WORKLOADS = {w.name: w for w in (Grid, Query, Cli)}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    latencies: list = dataclasses.field(default_factory=list)
    kinds: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)
    layers: dict = dataclasses.field(default_factory=dict)
    spans: list = dataclasses.field(default_factory=list)


def measure(workload, seconds: float, tracer=None) -> Outcome:
    """Closed loop, one caller: each operation starts when the last returns.

    One warm-up cycle runs untimed; then whole cycles run until the time
    spent inside operations reaches ``seconds``. Every operation, warm-up
    included, is checked and counts toward ``attempted``/``failed``. With a
    tracer, one more cycle runs afterwards with tracemalloc on around the
    interval calls to measure their peak memory; it is not timed.
    """
    out = Outcome()
    _run_cycle(workload, out, tracer, timed=False)
    if tracer is not None:
        tracer.reset()
    busy = 0.0
    while busy < seconds or not out.latencies:
        busy += _run_cycle(workload, out, tracer, timed=True)
    if tracer is not None:
        out.layers = tracer.metrics()
        out.spans = tracer.dump()
        tracer.memory = True
        _run_cycle(workload, out, tracer, timed=False)
        tracer.memory = False
        out.layers["conformal.peak_mb"] = tracer.peak_bytes / 1e6
    return out


def _run_cycle(workload, out: Outcome, tracer, timed: bool) -> float:
    busy = 0.0
    for op in workload.cycle():
        span = tracer.begin_op(out.attempted) if tracer is not None else None
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a raised exception is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op(span)
        if error is None:
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
        out.attempted += 1
        if error is not None:
            out.failed += 1
            out.errors.append(f"{op.kind}: {error}")
        if timed:
            out.latencies.append(elapsed)
            out.kinds.append(op.kind)
            busy += elapsed
    return busy


def summarize(out: Outcome) -> dict:
    """End-to-end figures of one run from its operation latencies."""
    lat = sorted(out.latencies)
    n = len(lat)
    beyond = min(10, n - 1)
    return {
        "ops": n,
        "ops_per_s": n / math.fsum(lat),
        "op_p50_ms": 1e3 * float(np.median(lat)),
        "op_tail_ms": 1e3 * lat[n - 1 - beyond],
        "op_tail_pct": 100.0 * (n - beyond) / n,
        "op_tail_beyond": beyond,
    }
