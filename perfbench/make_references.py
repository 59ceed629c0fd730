"""Builds the references the benchmark checks every operation against.

    python3 perfbench/make_references.py

Run it on a commit whose outputs are trusted; it rewrites ``references/``:

* grid_records.csv: records.csv rows of the full piston grid for every
  registered copy of the benchmark the grid workload draws from;
* query_intervals.npz: centers and jk+ bounds of the query model at every
  pool point, and the jk half-width;
* cli_intervals.npz: (center, lower, upper) per points row for every
  (config, fit seed) the cli workload can pick, from ``interval_arrays`` on
  the model file the CLI wrote;
* manifest.json: the versions used and the oracle cross-check below.

Before anything is written, the closed-form LOO residuals and predictions
of one model per workload are compared with ``brute_force_loo``, which
refits the model once per left-out sample, at 1e-8 relative; the build
stops if they disagree.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import bootstrap

bootstrap.pin_blas()
bootstrap.use_source()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402
from run import git_sha, source_digest  # noqa: E402
from confpce import basis, benchmarks, cli, conformal, harness, pce  # noqa: E402

ORACLE_POINTS = 3


def _rel(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def oracle_check(label: str, data, index_set, spec, model, x_star, checks: dict) -> None:
    brute_res, brute_pred = pce.brute_force_loo(data, index_set, spec, x_star=x_star)
    closed_pred = pce.loo_predict(model, x_star)
    np.testing.assert_allclose(model.loo_residuals, brute_res, rtol=1e-8, atol=1e-10, err_msg=label)
    np.testing.assert_allclose(closed_pred, brute_pred, rtol=1e-8, atol=1e-10, err_msg=label)
    checks[label] = {
        "points": int(x_star.shape[0]),
        "max_rel_residual": _rel(model.loo_residuals, brute_res),
        "max_rel_prediction": _rel(closed_pred, brute_pred),
    }
    print(f"oracle {label}: {checks[label]}")


def build_grid(tmp, checks) -> list[str]:
    wl.register_replicas()
    lines = []
    for j in range(wl.GRID_REPLICAS):
        cfg = harness.ExperimentConfig(
            benchmark=wl.replica_name(j),
            degrees=wl.GRID_DEGREES,
            oversampling=wl.GRID_OVERSAMPLING,
            methods=wl.GRID_METHODS,
            scores=("absolute",),
            significance=wl.SIGNIFICANCE,
            n_seeds=1,
            test_size=wl.GRID_TEST_SIZE,
        )
        harness.emit_report(harness.run_grid(cfg), "csv", tmp)
        rows = (tmp / "records.csv").read_text().splitlines()
        lines += rows if not lines else rows[1:]

    name, degree, oversampling = wl.replica_name(0), 3, 2
    bench = benchmarks.get_benchmark(name)
    seed = (degree, oversampling, 0)
    data = benchmarks.sample_design(name, benchmarks.design_size(name, degree, oversampling), seed=seed)
    index_set = basis.build_total_degree_set(bench.dim, degree)
    model = pce.fit(data, index_set, bench.input_spec)
    x_star = benchmarks.sample_design(name, ORACLE_POINTS, seed=seed, stream="test").inputs
    oracle_check(f"grid {name} P={degree} C={oversampling}", data, index_set, bench.input_spec, model, x_star, checks)
    return lines


def build_query(checks) -> dict:
    model = wl.query_model()
    pool = wl.query_pool(wl.QUERY_POOL)
    jkp = conformal.ConformalConfig(method=wl.JKP, score="absolute", significance=wl.SIGNIFICANCE)
    parts = [conformal.interval_arrays(model, pool[i:i + 1000], jkp) for i in range(0, len(pool), 1000)]
    center, lower, upper = (np.concatenate(p) for p in zip(*parts))
    half = conformal.finite_quantile_upper(np.abs(model.loo_residuals), wl.SIGNIFICANCE)
    data = model.training_snapshot
    oracle_check("query model", data, model.index_set, model.input_spec, model, pool[:ORACLE_POINTS], checks)
    return {"center": center, "jkp_lower": lower, "jkp_upper": upper, "jk_half": np.float64(half)}


def build_cli(tmp, checks) -> dict:
    refs = {}
    jkp = conformal.ConformalConfig(method=wl.JKP, score="absolute", significance=wl.SIGNIFICANCE)
    for bench_name, degree in wl.CLI_CONFIGS:
        for fit_seed in range(wl.CLI_FIT_SEEDS):
            model_path, points_path, out = tmp / "model.json", tmp / "points.csv", tmp / "out.csv"
            points = wl.cli_points(bench_name, fit_seed, wl.CLI_POINTS)
            wl.write_points(points, points_path)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(wl.cli_fit_args(bench_name, degree, fit_seed, model_path))
                code |= cli.main(["interval", "--model", str(model_path), "--points", str(points_path),
                                  "--method", "jk+", "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"cli round trip failed for {bench_name} P={degree} seed {fit_seed}")
            model = pce.from_json(model_path.read_text())
            expected = np.column_stack(conformal.interval_arrays(model, points, jkp))
            written = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[:, -3:]
            np.testing.assert_allclose(written, expected, rtol=wl.RTOL, atol=wl.ATOL)
            refs[wl.cli_key(bench_name, degree, fit_seed)] = expected
            if fit_seed == 0:
                bench = benchmarks.get_benchmark(bench_name)
                m = benchmarks.design_size(bench_name, degree, wl.CLI_OVERSAMPLING)
                data = benchmarks.sample_design(bench_name, m, seed=fit_seed)
                oracle_check(f"cli {bench_name} P={degree}", data, model.index_set, bench.input_spec,
                             model, points[:ORACLE_POINTS], checks)
    return refs


def main() -> None:
    tmp = bootstrap.OUT / "tmp-references"
    tmp.mkdir(parents=True, exist_ok=True)
    checks: dict = {}
    try:
        grid_lines = build_grid(tmp, checks)
        query = build_query(checks)
        cli_refs = build_cli(tmp, checks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wl.REFERENCES.mkdir(exist_ok=True)
    (wl.REFERENCES / "grid_records.csv").write_text("\n".join(grid_lines) + "\n")
    np.savez_compressed(wl.REFERENCES / "query_intervals.npz", **query)
    np.savez_compressed(wl.REFERENCES / "cli_intervals.npz", **cli_refs)
    manifest = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "oracle_rtol": 1e-8,
        "oracle_checks": checks,
    }
    (wl.REFERENCES / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote references to {wl.REFERENCES}")


if __name__ == "__main__":
    main()
