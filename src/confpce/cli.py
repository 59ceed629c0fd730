"""Command-line front end: fit surrogates, query intervals, run experiments.

Exit codes are a stable contract: 0 success, 2 a ValidationError or a file
error, 3 any other ConfpceError, 4 every experiment cell failed. Errors print
a single machine-parsable line ``error: <kind>: <detail>`` on standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmarks, conformal, harness, pce
from .basis import InputSpec, build_total_degree_set
from .errors import ConfpceError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_ALL_CELLS_FAILED = 4

_METHOD_FLAGS = {"jk": "jackknife", "jk+": "jackknife_plus"}
_SCORE_FLAGS = {"abs": "absolute", "norm": "normalized"}


def _parse_ranges(text: str) -> InputSpec:
    """Parses 'lo:hi,lo:hi,...' into an InputSpec."""
    pairs = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ValidationError(f"bad range {part!r}; expected lo:hi")
        try:
            pairs.append((benchmarks._csv_number(lo), benchmarks._csv_number(hi)))
        except ValueError:
            raise ValidationError(f"non-numeric range bound in {part!r}") from None
    return InputSpec(ranges=tuple(pairs))


def _read(path, parse, context: str):
    """parse(fh) on the open file at `path`; the one reader of every input file.

    A file that cannot be read, or a ValueError from parse, is a ValidationError.
    """
    try:
        with open(path, newline="") as fh:
            return parse(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ValidationError(f"{context}{exc}") from None


def cmd_fit(args) -> int:
    if (args.data is None) == (args.benchmark is None):
        raise ValidationError("provide exactly one data source: --data or --benchmark")
    if args.data is not None and (args.m is not None or args.seed is not None):
        raise ValidationError("--m and --seed apply to --benchmark only")
    if args.benchmark is not None and args.ranges is not None:
        raise ValidationError("--ranges applies to --data only; a benchmark has its own box")
    if args.degree < 0:
        raise ValidationError(f"--degree must be >= 0, got {args.degree}")

    if args.data is not None:
        data = _read(args.data, benchmarks.dataset_from_csv, "malformed CSV: ")
        if args.ranges is not None:
            spec = _parse_ranges(args.ranges)
            if spec.dim != data.inputs.shape[1]:
                raise ValidationError(
                    f"--ranges has {spec.dim} dimensions, data has {data.inputs.shape[1]}"
                )
        else:
            # Default box: the componentwise data hull.
            lo = data.inputs.min(axis=0)
            hi = data.inputs.max(axis=0)
            if np.any(lo >= hi):
                raise ValidationError("degenerate data hull; pass --ranges to define the input box")
            spec = InputSpec(ranges=tuple(zip(lo, hi)))
    else:
        if args.m is None:
            raise ValidationError("--benchmark requires --m")
        bench = benchmarks.get_benchmark(args.benchmark)
        if args.m < 1:
            raise ValidationError(f"--m must be >= 1, got {args.m}")
        seed = 0 if args.seed is None else args.seed
        if seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {seed}")
        data = benchmarks.sample_design(args.benchmark, args.m, seed=seed)
        spec = bench.input_spec

    index_set = build_total_degree_set(spec.dim, args.degree)
    model = pce.fit(data, index_set, spec)

    with open(args.out, "w") as fh:
        fh.write(pce.to_json(model) + "\n")

    rel = pce.relative_loo_error(model)
    print(
        f"K={model.n_basis} M={model.n_train} rel_loo_error={rel!r} "
        f"cond={model.condition_number!r} max_leverage={float(model.hat_diag.max())!r}"
    )
    return EXIT_OK


def cmd_interval(args) -> int:
    cfg = conformal.ConformalConfig(
        method=_METHOD_FLAGS[args.method], score=_SCORE_FLAGS[args.score], significance=args.alpha
    )
    model = _read(args.model, lambda fh: pce.from_json(fh.read()), "malformed model file: ")
    expected = [f"x{i + 1}" for i in range(model.input_spec.dim)]

    def parse_points(fh):
        """Query points from a CSV with header x1,...,xN and an optional y."""
        header, table = benchmarks.read_csv_table(fh)
        if header not in (expected, expected + ["y"]):
            raise ValidationError(f"header {header!r} is not {','.join(expected)}[,y]")
        return table[:, :len(expected)]

    points = _read(args.points, parse_points, f"{args.points}: ")
    centers, lowers, uppers = conformal.interval_arrays(model, points, cfg)

    n_unbounded = int(np.sum(~np.isfinite(lowers) | ~np.isfinite(uppers)))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(expected + ["center", "lower", "upper"])
        for row, c, lo, hi in zip(points, centers, lowers, uppers):
            writer.writerow([repr(float(v)) for v in (*row, c, lo, hi)])
    if n_unbounded:
        print(
            f"warning: {n_unbounded} unbounded interval(s); "
            "quantile index exceeds the training size at this significance",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_experiment(args) -> int:
    doc = _read(args.config, json.load, "malformed config JSON: ")
    if not isinstance(doc, dict):
        raise ValidationError("config JSON must be an object")
    try:
        config = harness.ExperimentConfig.from_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"bad config: {exc}") from None
    if args.quick:
        config = config.quick()
    out_dir = args.out or config.output
    if out_dir is None:
        raise ValidationError("no output directory: set 'output' in the config or pass --out")
    # Made before the grid runs, so that an unusable directory loses no results.
    Path(out_dir).mkdir(parents=True, exist_ok=True)

    report = harness.run_grid(config)
    paths = harness.emit_report(report, "csv", out_dir)

    print(f"benchmark={config.benchmark} cells={len(report.records)} failures={len(report.failures)}")
    columns = ("P", "C", "method", "score", "coverage_mean", "width_median", "n_failed")
    print(" ".join(f"{h:>14}" for h in columns))
    for row in report.aggregates:
        cells = [
            f"{row[key]:>14.5g}" if isinstance(row[key], float) else f"{row[key]!s:>14}"
            for key in columns
        ]
        print(" ".join(cells))
    for path in paths:
        print(f"wrote {path}")
    if report.failures:
        print(f"warning: {len(report.failures)} failed cell(s)", file=sys.stderr)
        for rec in report.failures[:10]:
            print(
                f"  P={rec.degree} C={rec.oversampling} method={rec.method} "
                f"seed={rec.seed}: {rec.failure}",
                file=sys.stderr,
            )
    if len(report.failures) == len(report.records):
        return EXIT_ALL_CELLS_FAILED
    return EXIT_OK


def cmd_benchmarks(args) -> int:
    for name in benchmarks.benchmark_names():
        bench = benchmarks.get_benchmark(name)
        print(f"{name} (dim={bench.dim}, design rule={bench.size_rule}, "
              f"degrees={list(bench.degree_grid)})")
        for label, (lo, hi) in zip(bench.param_names, bench.input_spec.ranges):
            print(f"  {label:>8}  [{lo!r}, {hi!r}]")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confpce",
        description="Polynomial chaos surrogates with jackknife/jackknife+ conformal intervals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a surrogate and write it as JSON")
    p_fit.add_argument("--data", help="training CSV with header x1,...,xN,y")
    p_fit.add_argument("--benchmark", help="sample training data from a named benchmark")
    p_fit.add_argument("--m", type=int, help="training size when sampling a benchmark")
    p_fit.add_argument("--seed", type=int, help="sampling seed (default 0)")
    p_fit.add_argument("--degree", type=int, required=True, help="maximum total degree P")
    p_fit.add_argument("--ranges", help="input box lo:hi,lo:hi,... (default: data hull); "
                       "a negative bound needs the --ranges=lo:hi form")
    p_fit.add_argument("--out", required=True, help="output model JSON path")
    p_fit.set_defaults(func=cmd_fit)

    p_iv = sub.add_parser("interval", help="prediction intervals at query points")
    p_iv.add_argument("--model", required=True, help="model JSON from 'fit'")
    p_iv.add_argument("--points", required=True, help="CSV of query points, header x1,...,xN")
    p_iv.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="jk+")
    p_iv.add_argument("--score", choices=sorted(_SCORE_FLAGS), default="abs")
    p_iv.add_argument("--alpha", type=float, default=0.05, help="significance level s")
    p_iv.add_argument("--out", required=True, help="output CSV path")
    p_iv.set_defaults(func=cmd_interval)

    p_exp = sub.add_parser("experiment", help="run a coverage experiment grid")
    p_exp.add_argument("--config", required=True, help="experiment config JSON")
    p_exp.add_argument("--quick", action="store_true", help="20 seeds, 2000 test points")
    p_exp.add_argument("--out", help="output directory (overrides config 'output')")
    p_exp.set_defaults(func=cmd_experiment)

    p_bm = sub.add_parser("benchmarks", help="list benchmark functions and their boxes")
    p_bm.set_defaults(func=cmd_benchmarks)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize anything else.
        return EXIT_VALIDATION if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfpceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
