"""Command-line front end: fit surrogates, query intervals, run experiments.

Exit codes are a stable contract: 0 success, 2 usage/validation error,
3 numerical/fit error, 4 every experiment cell failed. Errors print a single
machine-parsable line ``error: <kind>: <detail>`` on standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import benchmarks, conformal, harness, pce
from .basis import InputSpec, build_total_degree_set
from .errors import ConfpceError, DomainError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_ALL_CELLS_FAILED = 4

_METHOD_FLAGS = {"jk": "jackknife", "jk+": "jackknife_plus"}
_SCORE_FLAGS = {"abs": "absolute", "norm": "normalized"}


class _ValidationError(Exception):
    """A bad argument, input file or config; exits 2 with kind `validation`."""


def _parse_ranges(text: str) -> InputSpec:
    """Parses 'lo:hi,lo:hi,...' into an InputSpec."""
    pairs = []
    for part in text.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise _ValidationError(f"bad range {part!r}; expected lo:hi")
        try:
            pairs.append((float(lo), float(hi)))
        except ValueError:
            raise _ValidationError(f"non-numeric range bound in {part!r}") from None
    try:
        return InputSpec(ranges=tuple(pairs))
    except ValueError as exc:
        raise _ValidationError(str(exc)) from None


def cmd_fit(args) -> int:
    if (args.data is None) == (args.benchmark is None):
        raise _ValidationError("provide exactly one data source: --data or --benchmark")

    if args.data is not None:
        try:
            data = benchmarks.dataset_from_csv(args.data)
        except OSError as exc:
            raise _ValidationError(f"cannot read {args.data}: {exc}") from None
        except ValueError as exc:
            raise _ValidationError(f"malformed CSV: {exc}") from None
        if args.ranges is not None:
            spec = _parse_ranges(args.ranges)
            if spec.dim != data.inputs.shape[1]:
                raise _ValidationError(
                    f"--ranges has {spec.dim} dimensions, data has {data.inputs.shape[1]}"
                )
        else:
            # Default box: the componentwise data hull.
            lo = data.inputs.min(axis=0)
            hi = data.inputs.max(axis=0)
            if np.any(lo >= hi):
                raise _ValidationError(
                    "degenerate data hull; pass --ranges to define the input box"
                )
            spec = InputSpec(ranges=tuple(zip(lo, hi)))
    else:
        if args.m is None:
            raise _ValidationError("--benchmark requires --m")
        try:
            bench = benchmarks.get_benchmark(args.benchmark)
        except KeyError as exc:
            raise _ValidationError(str(exc.args[0])) from None
        if args.m < 1:
            raise _ValidationError(f"--m must be >= 1, got {args.m}")
        data = benchmarks.sample_design(args.benchmark, args.m, seed=args.seed)
        spec = bench.input_spec

    index_set = build_total_degree_set(spec.dim, args.degree)
    model = pce.fit(data, index_set, spec)

    with open(args.out, "w") as fh:
        fh.write(pce.to_json(model))
        fh.write("\n")

    if pce.output_variance(model) <= pce.VARIANCE_FLOOR:
        rel = float("nan")
    else:
        rel = pce.relative_loo_error(model)
    print(
        f"K={model.n_basis} M={model.n_train} rel_loo_error={rel!r} "
        f"cond={model.condition_number!r} max_leverage={float(model.hat_diag.max())!r}"
    )
    return EXIT_OK


def _read_points(path, dim: int) -> np.ndarray:
    """Query points (n, dim) from a CSV with header x1,...,xN and an optional y."""
    try:
        header, table = benchmarks.read_csv_table(path)
    except OSError as exc:
        raise _ValidationError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise _ValidationError(f"{path}: {exc}") from None
    expected = [f"x{i + 1}" for i in range(dim)]
    if header not in (expected, expected + ["y"]):
        raise _ValidationError(f"{path}: header {header!r} is not {','.join(expected)}[,y]")
    return table[:, :dim]


def cmd_interval(args) -> int:
    try:
        cfg = conformal.ConformalConfig(
            method=_METHOD_FLAGS[args.method],
            score=_SCORE_FLAGS[args.score],
            significance=args.alpha,
        )
    except ValueError as exc:
        raise _ValidationError(str(exc)) from None
    try:
        with open(args.model) as fh:
            model = pce.from_json(fh.read())
    except OSError as exc:
        raise _ValidationError(f"cannot read {args.model}: {exc}") from None
    except ValueError as exc:
        raise _ValidationError(f"malformed model file: {exc}") from None

    points = _read_points(args.points, model.input_spec.dim)
    centers, lowers, uppers = conformal.interval_arrays(model, points, cfg)

    n_unbounded = int(np.sum(~np.isfinite(lowers) | ~np.isfinite(uppers)))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(points.shape[1])] + ["center", "lower", "upper"])
        for row, c, lo, hi in zip(points, centers, lowers, uppers):
            writer.writerow(
                [repr(float(v)) for v in row]
                + [repr(float(c)), repr(float(lo)), repr(float(hi))]
            )
    if n_unbounded:
        print(
            f"warning: {n_unbounded} unbounded interval(s); "
            "quantile index exceeds the training size at this significance",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _ValidationError(f"cannot read {args.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _ValidationError(f"malformed config JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _ValidationError("config JSON must be an object")
    try:
        config = harness.ExperimentConfig.from_dict(doc)
    except (ValueError, TypeError, KeyError) as exc:
        raise _ValidationError(f"bad config: {exc}") from None
    if args.quick:
        config = config.quick()
    out_dir = args.out or config.output
    if out_dir is None:
        raise _ValidationError("no output directory: set 'output' in the config or pass --out")

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
    p_fit.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_fit.add_argument("--degree", type=int, required=True, help="maximum total degree P")
    p_fit.add_argument("--ranges", help="input box lo:hi,lo:hi,... (default: data hull)")
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
    except (_ValidationError, DomainError) as exc:
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
