"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest
from helpers import gauss_legendre_gram

from confpce.basis import InputSpec, build_total_degree_set
from confpce.benchmarks import design_size, get_benchmark, sample_design
from confpce.conformal import ConformalConfig, empirical_coverage, interval_arrays
from confpce.harness import ExperimentConfig, emit_report, run_grid
from confpce.pce import Dataset, brute_force_loo, fit, loo_predict

SIGNIFICANCE = 0.05

# Smallest degree of each benchmark's reference grid.
SMALLEST_DEGREE = {"meromorphic": 2, "otl_circuit": 1, "piston": 2, "wing_weight": 1}

# Scaled-down reproduction grid: (benchmark, degree, oversampling).
REPRODUCTION_CELLS = (
    ("meromorphic", 3, 10),
    ("otl_circuit", 2, 10),
    ("piston", 2, 10),
    ("wing_weight", 1, 10),
)


def _passed(n, message):
    print(f"CRITERION {n}: PASS  {message}")


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criterion-1 sweep: fits plus brute-force results, shared downstream."""
    t0 = time.time()
    cases = []
    for name, degree in SMALLEST_DEGREE.items():
        bench = get_benchmark(name)
        iset = build_total_degree_set(bench.dim, degree)
        for oversampling in (2, 3):
            for seed in range(5):
                m = design_size(name, degree, oversampling)
                train = sample_design(name, m, seed=(degree, oversampling, seed))
                model = fit(train, iset, bench.input_spec)
                x_star = sample_design(name, 10, seed=(degree, oversampling, seed), stream="test").inputs
                closed_pred = loo_predict(model, x_star)
                brute_res, brute_pred = brute_force_loo(train, iset, bench.input_spec, x_star=x_star)
                cases.append(
                    dict(
                        name=name,
                        model=model,
                        iset=iset,
                        closed_pred=closed_pred,
                        brute_res=brute_res,
                        brute_pred=brute_pred,
                    )
                )
    return cases, time.time() - t0


@pytest.fixture(scope="module")
def reproduction_runs(tmp_path_factory):
    """Criterion-6 grids, run once and reused by criteria 6, 7, and 9."""
    out_root = tmp_path_factory.mktemp("reproduction")
    t0 = time.time()
    results = {}
    for name, degree, oversampling in REPRODUCTION_CELLS:
        config = ExperimentConfig(
            benchmark=name,
            degrees=(degree,),
            oversampling=(oversampling,),
            scores=("absolute",),
            significance=SIGNIFICANCE,
            n_seeds=20,
            test_size=2000,
        )
        report = run_grid(config)
        paths = emit_report(report, "csv", out_root / name)
        results[name] = dict(
            config=config,
            report=report,
            records_path=paths[0],
            records_bytes=paths[0].read_bytes(),
        )
    return results, time.time() - t0


def test_criterion_1_oracle_equivalence(oracle_sweep):
    cases, elapsed = oracle_sweep
    assert len(cases) == 4 * 2 * 5
    for case in cases:
        np.testing.assert_allclose(
            case["model"].loo_residuals, case["brute_res"], rtol=1e-8, atol=1e-10,
            err_msg=f"closed-form LOO residuals diverge from refit oracle on {case['name']}",
        )
        np.testing.assert_allclose(
            case["closed_pred"], case["brute_pred"], rtol=1e-8, atol=1e-10,
            err_msg=f"closed-form LOO predictions diverge from refit oracle on {case['name']}",
        )
    assert elapsed < 120.0, f"criterion-1 sweep took {elapsed:.1f}s, budget is 120s"
    _passed(1, f"closed forms match refit oracle on 40 fits ({elapsed:.1f}s)")


def test_criterion_2_orthonormality():
    iset = build_total_degree_set(3, 4)
    gram = gauss_legendre_gram(iset, orders=[5, 5, 5])
    deviation = float(np.max(np.abs(gram - np.eye(len(iset)))))
    assert deviation <= 1e-10
    _passed(2, f"N=3 P=4 Gram matrix within {deviation:.2e} of identity")


def test_criterion_3_hat_identities(oracle_sweep):
    cases, _ = oracle_sweep
    worst_trace = 0.0
    for case in cases:
        hat = case["model"].hat_diag
        assert np.all(hat >= 0.0) and np.all(hat <= 1.0)
        gap = abs(float(hat.sum()) - len(case["iset"]))
        worst_trace = max(worst_trace, gap)
        assert gap <= 1e-8
    _passed(3, f"leverages in [0,1], worst |trace - K| = {worst_trace:.2e} over 40 fits")


def test_criterion_4_exact_recovery():
    spec = InputSpec(ranges=((-1.0, 1.0), (0.0, 2.0)))
    iset = build_total_degree_set(2, 2)
    rng = np.random.default_rng(2024)
    x = rng.uniform(spec.lower(), spec.upper(), size=(40, 2))
    test_x = rng.uniform(spec.lower(), spec.upper(), size=(500, 2))

    # Zero target: the one in-span case whose arithmetic stays exact, so the
    # degenerate claims hold with equality rather than up to roundoff.
    model = fit(Dataset(inputs=x, outputs=np.zeros(40)), iset, spec)
    assert np.all(model.loo_residuals == 0.0)
    cfg_jk = ConformalConfig(method="jackknife", score="absolute", significance=SIGNIFICANCE)
    cfg_jkp = ConformalConfig(method="jackknife_plus", score="absolute", significance=SIGNIFICANCE)
    truths = np.zeros(500)
    for cfg in (cfg_jk, cfg_jkp):
        _, lowers, uppers = interval_arrays(model, test_x, cfg)
        assert np.all(uppers - lowers == 0.0)
        assert empirical_coverage(lowers, uppers, truths) == 1.0

    # Nonconstant in-span target: same claims within the stated tolerance.
    target = 0.5 + 2.0 * x[:, 0] - x[:, 1] + 0.75 * x[:, 0] * x[:, 1]
    model2 = fit(Dataset(inputs=x, outputs=target), iset, spec)
    assert float(np.max(np.abs(model2.loo_residuals))) <= 1e-10
    for cfg in (cfg_jk, cfg_jkp):
        _, lowers, uppers = interval_arrays(model2, test_x[:50], cfg)
        assert np.all(uppers - lowers <= 1e-10)
    _passed(4, "in-span targets: zero LOO residuals, zero-width intervals, coverage 1.0")


def test_criterion_5_normalization_invariance():
    bench = get_benchmark("otl_circuit")
    train = sample_design("otl_circuit", design_size("otl_circuit", 2, 5), seed=0)
    model = fit(train, build_total_degree_set(6, 2), bench.input_spec)
    points = sample_design("otl_circuit", 100, seed=1, stream="test").inputs
    for method in ("jackknife", "jackknife_plus"):
        absolute = interval_arrays(
            model, points, ConformalConfig(method=method, score="absolute", significance=SIGNIFICANCE)
        )
        normalized = interval_arrays(
            model, points, ConformalConfig(method=method, score="normalized", significance=SIGNIFICANCE)
        )
        for want, got in zip(absolute, normalized):
            np.testing.assert_array_equal(got, want)
    _passed(5, f"normalized and absolute intervals identical at {len(points)} points")


def test_criterion_6_coverage_reproduction(reproduction_runs):
    results, elapsed = reproduction_runs
    summary = []
    for name, degree, oversampling in REPRODUCTION_CELLS:
        report = results[name]["report"]
        assert not report.failures
        means = {row["method"]: row["coverage_mean"] for row in report.aggregates}
        jk, jkp = means["jackknife"], means["jackknife_plus"]
        assert 0.92 <= jkp <= 1.0, f"{name}: jackknife+ mean coverage {jkp:.4f} outside [0.92, 1]"
        assert 0.93 <= jk <= 1.0, f"{name}: jackknife mean coverage {jk:.4f} outside [0.93, 1]"
        assert jk >= jkp - 0.01, f"{name}: jackknife less conservative than jackknife+ - 0.01"
        summary.append(f"{name} jk={jk:.3f} jk+={jkp:.3f}")
    assert elapsed < 600.0, f"reproduction grids took {elapsed:.1f}s, budget is 600s"
    _passed(6, f"mean coverages in band ({'; '.join(summary)}; {elapsed:.1f}s)")


def test_criterion_7_jackknife_plus_guarantee(reproduction_runs):
    results, _ = reproduction_runs
    # One-sided 99% binomial band around the 1 - 2s = 0.90 guarantee.
    z99 = 2.3263478740408408
    guarantee = 1.0 - 2.0 * SIGNIFICANCE
    for name in results:
        records = [
            r for r in results[name]["report"].records if r.method == "jackknife_plus"
        ]
        trials = len(records) * 2000
        pooled = float(np.mean([r.coverage for r in records]))
        floor = guarantee - z99 * math.sqrt(guarantee * (1 - guarantee) / trials)
        assert pooled >= floor, (
            f"{name}: pooled jackknife+ coverage {pooled:.4f} below {floor:.4f}"
        )
    _passed(7, f"pooled jackknife+ coverage >= {guarantee} within 99% binomial noise")


def test_criterion_8_width_shrinkage():
    config = ExperimentConfig(
        benchmark="meromorphic",
        degrees=(2,),
        oversampling=(2, 3, 5, 10),
        scores=("absolute",),
        significance=SIGNIFICANCE,
        n_seeds=50,
        test_size=1000,
    )
    report = run_grid(config)
    assert not report.failures
    lines = []
    for method in ("jackknife", "jackknife_plus"):
        means = []
        for c in (2, 3, 5, 10):
            widths = [
                r.median_width
                for r in report.records
                if r.method == method and r.oversampling == c
            ]
            means.append(float(np.mean(widths)))
        for bigger, smaller in zip(means, means[1:]):
            assert bigger > smaller, f"{method}: widths {means} not strictly decreasing in C"
        lines.append(f"{method}: " + " > ".join("inf" if math.isinf(v) else f"{v:.4f}" for v in means))
    _passed(8, f"median width strictly shrinks with C ({'; '.join(lines)})")


def test_criterion_9_determinism(reproduction_runs, tmp_path):
    results, _ = reproduction_runs
    for name in results:
        report = run_grid(results[name]["config"])
        paths = emit_report(report, "csv", tmp_path / name)
        assert paths[0].read_bytes() == results[name]["records_bytes"], (
            f"{name}: rerun produced different per-seed CSV bytes"
        )
    _passed(9, "rerunning the reproduction grids is byte-identical")
