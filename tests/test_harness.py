"""Tests for the experiment grid: determinism, failure capture, reports."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import registered

from confpce import basis, harness
from confpce.basis import InputSpec, build_total_degree_set
from confpce.benchmarks import (
    Benchmark,
    design_size,
    get_benchmark,
    sample_design,
)
from confpce.conformal import ConformalConfig, empirical_coverage, interval_arrays
from confpce.errors import ConfpceError, ValidationError
from confpce.harness import (
    CoverageReport,
    ExperimentConfig,
    RECORD_COLUMNS,
    RunRecord,
    aggregate_records,
    emit_report,
    run_cell,
    run_grid,
)
from confpce.pce import fit, relative_loo_error


@pytest.fixture()
def zero_benchmark():
    """In-span degenerate target: identically zero, so the fit is float-exact."""
    bench = Benchmark(
        name="zero_hook",
        input_spec=InputSpec(ranges=((-1.0, 1.0), (0.0, 2.0))),
        fn=lambda x: np.zeros(x.shape[0]),
        param_names=("x1", "x2"),
        size_rule="linear",
        degree_grid=(1,),
    )
    with registered(bench):
        yield bench


@pytest.fixture()
def skinny_benchmark():
    """Quadratic sizing on a 4-dim input makes M < K reachable (P=3, C=2)."""
    bench = Benchmark(
        name="skinny_hook",
        input_spec=InputSpec(ranges=tuple([(-1.0, 1.0)] * 4)),
        fn=lambda x: x[:, 0] + x[:, 1],
        param_names=("a", "b", "c", "d"),
        size_rule="quadratic",
        degree_grid=(3,),
    )
    with registered(bench):
        yield bench


class TestRunCell:
    def test_deterministic_records(self):
        kwargs = dict(
            benchmark="meromorphic",
            degree=2,
            oversampling=2,
            method="jackknife",
            score="absolute",
            significance=0.1,
            seed=0,
            test_size=200,
        )
        assert run_cell(**kwargs) == run_cell(**kwargs)

    def test_unknown_method_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="method must be one of .* got 'jk'"):
            run_cell("otl_circuit", 1, 3, "jk", "absolute", 0.05, 0, 50)

    def test_zero_target_hook(self, zero_benchmark):
        rec = run_cell(
            benchmark="zero_hook",
            degree=2,
            oversampling=5,  # M = 30 keeps the s=0.05 quantile index in range
            method="jackknife_plus",
            score="absolute",
            significance=0.05,
            seed=1,
            test_size=300,
        )
        assert rec.failure == ""
        assert rec.coverage == 1.0
        assert rec.mean_width == 0.0
        assert rec.median_width == 0.0
        assert math.isnan(rec.rel_loo_error)
        assert rec.n_unbounded == 0

    def test_otl_single_seed_coverage_band(self):
        rec = run_cell(
            benchmark="otl_circuit",
            degree=3,
            oversampling=10,
            method="jackknife_plus",
            score="absolute",
            significance=0.05,
            seed=0,
            test_size=2000,
        )
        assert rec.failure == ""
        assert 0.90 <= rec.coverage <= 1.0
        assert rec.mean_width > 0.0

    def test_underdetermined_cell_captured(self, skinny_benchmark):
        rec = run_cell(
            benchmark="skinny_hook",
            degree=3,
            oversampling=2,
            method="jackknife",
            score="absolute",
            significance=0.05,
            seed=0,
            test_size=50,
        )
        assert rec.failed
        assert "UnderdeterminedError" in rec.failure
        assert rec.coverage is None

    def test_zero_variance_normalized_captured(self, zero_benchmark):
        rec = run_cell(
            benchmark="zero_hook",
            degree=1,
            oversampling=3,
            method="jackknife",
            score="normalized",
            significance=0.05,
            seed=0,
            test_size=50,
        )
        assert rec.failed
        assert "ZeroVarianceError" in rec.failure

    def test_leverage_failure_text_has_plain_floats(self):
        # At M = K every leverage is 1; the record shows it as 1.0, not as
        # numpy's np.float64(1.0).
        rec = run_cell("piston", 2, 1, "jackknife", "absolute", 0.05, 0, 100)
        assert rec.failure == (
            "LeverageError: sample 3 has leverage 1.0; "
            "1 - h below 1e-10 makes LOO residuals undefined"
        )


class TestRunGrid:
    def test_counting(self):
        config = ExperimentConfig(
            benchmark="meromorphic",
            degrees=(2,),
            oversampling=(3,),
            methods=("jackknife",),
            scores=("absolute",),
            n_seeds=2,
            test_size=100,
        )
        report = run_grid(config)
        assert len(report.records) == 2
        assert len(report.aggregates) == 1
        agg = report.aggregates[0]
        assert agg["n_seeds"] == 2
        assert agg["n_failed"] == 0

    def test_full_meromorphic_grid_shape(self):
        config = ExperimentConfig(
            benchmark="meromorphic",
            degrees=(2, 3),
            oversampling=(2, 3, 5, 10),
            n_seeds=2,
            test_size=100,
        )
        report = run_grid(config)
        # 8 cells x 2 methods x 2 seeds
        assert len(report.records) == 32
        assert len(report.aggregates) == 16

    def test_no_silent_loss(self, skinny_benchmark):
        config = ExperimentConfig(
            benchmark="skinny_hook",
            degrees=(1, 3),
            oversampling=(2,),
            methods=("jackknife",),
            n_seeds=3,
            test_size=50,
        )
        report = run_grid(config)
        assert len(report.records) == 6
        assert len(report.failures) == 3  # every P=3 seed is underdetermined
        total = sum(a["n_seeds"] for a in report.aggregates)
        assert total == len(report.records)

    def test_widths_finite_and_positive_when_index_in_range(self):
        # No ordering asserted between the methods' widths (jackknife is only
        # a tendency toward conservatism), but both must be finite, positive
        # numbers whenever the quantile index fits the sample.
        config = ExperimentConfig(
            benchmark="meromorphic",
            degrees=(2,),
            oversampling=(5,),  # M = 45 >= 19 needed at s = 0.05
            n_seeds=3,
            test_size=200,
        )
        report = run_grid(config)
        for rec in report.records:
            assert rec.failure == ""
            assert rec.n_unbounded == 0
            assert 0.0 < rec.mean_width < math.inf
            assert 0.0 < rec.median_width < math.inf

    def test_quick_profile_full_meromorphic_grid_runtime(self):
        import time

        config = ExperimentConfig(
            benchmark="meromorphic",
            degrees=(2, 3),
            oversampling=(2, 3, 5, 10),
            scores=("absolute",),
        ).quick()
        start = time.time()
        report = run_grid(config)
        elapsed = time.time() - start
        assert len(report.records) == 320  # 8 cells x 2 methods x 20 seeds
        assert elapsed < 60.0

    def test_methods_share_data_and_center(self):
        config = ExperimentConfig(
            benchmark="otl_circuit",
            degrees=(1,),
            oversampling=(3,),
            methods=("jackknife", "jackknife_plus"),
            n_seeds=1,
            test_size=200,
        )
        report = run_grid(config)
        jk, jkp = report.records
        assert jk.method == "jackknife" and jkp.method == "jackknife_plus"
        assert jk.rel_loo_error == jkp.rel_loo_error  # same fit underneath


def per_cell_record(benchmark, degree, oversampling, method, score, significance, seed,
                       test_size):
    """One cell rebuilt alone from the points, as a reference for the shared design."""
    coords = dict(benchmark=benchmark, degree=degree, oversampling=oversampling,
                  method=method, score=score, seed=seed)
    bench = get_benchmark(benchmark)
    index_set = build_total_degree_set(bench.dim, degree)
    m = design_size(benchmark, degree, oversampling)
    if m < len(index_set):
        return RunRecord(**coords, failure=(
            f"UnderdeterminedError: underdetermined cell: M={m} < K={len(index_set)} "
            f"for P={degree}, C={oversampling}"
        ))
    key = (degree, oversampling, seed)
    try:
        train = sample_design(benchmark, m, seed=key, stream="train")
        model = fit(train, index_set, bench.input_spec)
        test = sample_design(benchmark, test_size, seed=key, stream="test")
        cfg = ConformalConfig(method=method, score=score, significance=significance)
        _, lowers, uppers = interval_arrays(model, test.inputs, cfg)
        coverage = empirical_coverage(lowers, uppers, test.outputs)
    except ConfpceError as exc:
        return RunRecord(**coords, failure=f"{type(exc).__name__}: {exc}")
    widths = uppers - lowers
    rel = relative_loo_error(model)
    return RunRecord(
        **coords,
        coverage=coverage,
        mean_width=float(np.mean(widths)),
        median_width=float(np.median(widths)),
        rel_loo_error=rel,
        n_unbounded=int(np.sum(np.isinf(lowers) | np.isinf(uppers))),
    )


class TestSharedDesign:
    @pytest.mark.parametrize(
        "name, degrees, oversampling",
        [
            ("meromorphic", (2,), (1, 3)),  # C=1: M=9 < 19, every interval unbounded
            ("otl_circuit", (1, 2), (2,)),
            ("skinny_hook", (3,), (2, 3)),  # C=2: M=32 < K=35, underdetermined
        ],
    )
    def test_records_equal_per_cell_object_path(self, skinny_benchmark, name, degrees,
                                                oversampling):
        config = ExperimentConfig(
            benchmark=name,
            degrees=degrees,
            oversampling=oversampling,
            methods=("jackknife", "jackknife_plus"),
            scores=("absolute", "normalized"),
            significance=0.05,
            n_seeds=2,
            test_size=300,
        )
        want = [
            per_cell_record(name, p, c, method, score, 0.05, seed, 300)
            for p in degrees
            for c in oversampling
            for method in config.methods
            for score in config.scores
            for seed in range(2)
        ]
        report = run_grid(config)
        assert list(report.records) == want
        outcomes = {(r.oversampling, r.failed, r.n_unbounded) for r in want}
        if name == "meromorphic":
            assert (1, False, 300) in outcomes
        if name == "skinny_hook":
            assert (2, True, None) in outcomes

    def test_nan_model_fails_its_cells_not_the_grid(self, monkeypatch):
        real_fit = harness.fit

        def nan_fit(*args, **kwargs):
            model = real_fit(*args, **kwargs)
            return replace(model, coefficients=np.full(model.n_basis, np.nan))

        monkeypatch.setattr(harness, "fit", nan_fit)
        config = ExperimentConfig(
            benchmark="meromorphic",
            degrees=(2,),
            oversampling=(3,),
            n_seeds=2,
            test_size=50,
        )
        report = run_grid(config)
        assert len(report.failures) == len(report.records) == 4
        assert all(r.failure.startswith("IntervalError: ") for r in report.records)
        assert all(a["n_failed"] == 2 for a in report.aggregates)

    def test_one_interval_call_per_design(self, monkeypatch):
        real = harness.interval_arrays
        calls = []

        def counted(model, points, cfg):
            calls.append(cfg.method)
            return real(model, points, cfg)

        monkeypatch.setattr(harness, "interval_arrays", counted)
        config = ExperimentConfig(benchmark="otl_circuit", degrees=(1, 2), oversampling=(2,),
                                  scores=("absolute", "normalized"), n_seeds=2, test_size=100)
        run_grid(config)
        assert calls == ["jackknife_plus"] * 4
        calls.clear()
        run_grid(replace(config, methods=("jackknife",)))
        assert calls == ["jackknife"] * 4

    def test_nan_corrections_fail_only_the_jackknife_plus_cells(self, monkeypatch):
        config = ExperimentConfig(benchmark="otl_circuit", degrees=(2,), oversampling=(3,),
                                  scores=("absolute", "normalized"), n_seeds=2, test_size=100)
        want = run_grid(config).records
        real_fit = harness.fit

        def nan_fit(*args, **kwargs):
            model = real_fit(*args, **kwargs)
            return replace(model, loo_corrections=np.full_like(model.loo_corrections, np.nan))

        monkeypatch.setattr(harness, "fit", nan_fit)
        got = run_grid(config).records
        assert [r.method for r in got] == ["jackknife"] * 4 + ["jackknife_plus"] * 4
        assert got[:4] == want[:4] and not any(r.failed for r in got[:4])
        for record in got[4:]:
            assert record.failure.startswith("IntervalError: interval at point 0 has lower nan")
            assert record.coverage is None

    def test_cell_memory_does_not_hold_the_test_rows(self):
        # Piston P=3 (K=120): the test points' basis rows would be 960 bytes
        # a point. What grows is the points, their outputs and reference
        # values, and the bounds and widths, about 150 bytes a point.
        def peak(test_size):
            tracemalloc.start()
            try:
                run_cell("piston", 3, 2, "jackknife_plus", "absolute", 0.05, 0, test_size)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_point = (peak(40_000) - peak(10_000)) / 30_000
        assert per_point < 300, f"{per_point:.0f} bytes a test point"

    def test_nan_outputs_fail_their_cells_not_the_grid(self):
        bench = Benchmark(
            name="nan_hook",
            input_spec=InputSpec(ranges=((-1.0, 1.0),)),
            fn=lambda x: np.where(x[:, 0] > 0.5, np.nan, x[:, 0]),
            param_names=("x",),
            size_rule="quadratic",
            degree_grid=(2,),
        )
        with registered(bench):
            report = run_grid(ExperimentConfig(
                benchmark="nan_hook", degrees=(2,), oversampling=(3, 5), n_seeds=3, test_size=100
            ))
        assert len(report.records) == 12
        assert {r.failure for r in report.records} == {
            "ValidationError: outputs contain non-finite values"
        }
        assert all(a["n_failed"] == 3 for a in report.aggregates)


class TestConfigValidation:
    def test_rejects_empty_lists(self):
        with pytest.raises(ValueError):
            ExperimentConfig(benchmark="meromorphic", degrees=(), oversampling=(2,))
        with pytest.raises(ValueError):
            ExperimentConfig(benchmark="meromorphic", degrees=(2,), oversampling=())

    def test_rejects_unknowns(self):
        with pytest.raises(ValidationError, match="^unknown benchmark 'nope'; known: meromorphic"):
            ExperimentConfig(benchmark="nope", degrees=(2,), oversampling=(2,))
        with pytest.raises(ValueError):
            ExperimentConfig(
                benchmark="meromorphic", degrees=(2,), oversampling=(2,), methods=("cv",)
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                benchmark="meromorphic", degrees=(2,), oversampling=(2,), scores=("huber",)
            )

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                benchmark="meromorphic", degrees=(2,), oversampling=(2,), significance=1.5
            )
        with pytest.raises(ValueError, match="jackknife_plus needs significance <= 1/2"):
            ExperimentConfig(
                benchmark="meromorphic", degrees=(2,), oversampling=(2,), significance=0.75
            )
        assert ExperimentConfig(
            benchmark="meromorphic", degrees=(2,), oversampling=(2,), methods=("jackknife",),
            significance=0.75,
        ).significance == 0.75
        with pytest.raises(ValueError):
            ExperimentConfig(benchmark="meromorphic", degrees=(2,), oversampling=(2,), n_seeds=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                benchmark="meromorphic", degrees=(2,), oversampling=(2,), test_size=0
            )

    @pytest.mark.parametrize(
        "field, value",
        [("degrees", (2.5,)), ("oversampling", (2, 2.5)), ("n_seeds", 1.5), ("test_size", 2.5)],
    )
    def test_rejects_non_integral(self, field, value):
        doc = dict(benchmark="meromorphic", degrees=(2,), oversampling=(2,))
        with pytest.raises(ValueError, match=f"{field} needs integer values"):
            ExperimentConfig(**{**doc, field: value})

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="degrees must be >= 0, got -1"):
            ExperimentConfig(benchmark="meromorphic", degrees=(2, -1), oversampling=(2,))
        config = ExperimentConfig(benchmark="meromorphic", degrees=(0,), oversampling=(2,))
        assert config.degrees == (0,)

    def test_rejects_test_set_over_byte_budget(self, monkeypatch):
        # otl_circuit has 6 inputs: test_size n needs 48 n bytes of inputs.
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", 48 * 1000)
        doc = dict(benchmark="otl_circuit", degrees=(1,), oversampling=(2,))
        assert ExperimentConfig(**doc, test_size=1000).test_size == 1000
        with pytest.raises(
            ValidationError,
            match="^test_size 1001 needs 48048 bytes, exceeding the limit of 48000$",
        ):
            ExperimentConfig(**doc, test_size=1001)

    def test_rejects_degree_over_size_limit(self):
        # wing_weight at P=8 has K = C(18, 8) = 43,758 terms: no design of it
        # fits in 4 GiB, so the config is refused before any design is fit.
        doc = dict(benchmark="wing_weight", oversampling=(2,))
        assert ExperimentConfig(**doc, degrees=(1, 2)).degrees == (1, 2)
        with pytest.raises(ValidationError, match="N=10, P=8 has K=43758 terms"):
            ExperimentConfig(**doc, degrees=(1, 8))

    def test_rejects_design_over_fit_budget(self):
        # wing_weight at P=7 has K=19,448 terms, under the basis limit; at
        # C=2 its fit would need 6 * 8 * 38,896 * 19,448 bytes, over 4 GiB.
        doc = dict(benchmark="wing_weight", degrees=(1, 7))
        with pytest.raises(ValidationError, match=r"^basis matrix of 38896 points by K=19448 "
                           r"terms, with its fit, needs 36309571584 bytes, exceeding the limit "
                           r"of 4294967296$"):
            ExperimentConfig(**doc, oversampling=(2,))

    def test_design_at_fit_budget_is_accepted(self, monkeypatch):
        # The config runs fit's own check: a limit of exactly the budget of
        # piston P=2, C=3 (M=108, K=36) passes, one byte less refuses.
        need = 6 * 8 * 108 * 36
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", need)
        ExperimentConfig(benchmark="piston", degrees=(2,), oversampling=(3,), test_size=1)
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", need - 1)
        with pytest.raises(ValidationError, match=f"K=36 terms, with its fit, needs {need} bytes"):
            ExperimentConfig(benchmark="piston", degrees=(2,), oversampling=(3,), test_size=1)

    def test_rejects_oversampling_below_one(self):
        for value in (0, -3):
            with pytest.raises(ValueError, match=f"oversampling must be >= 1, got {value}"):
                ExperimentConfig(benchmark="meromorphic", degrees=(2,), oversampling=(2, value))
        config = ExperimentConfig(benchmark="meromorphic", degrees=(2,), oversampling=(1,))
        assert config.oversampling == (1,)

    # Every field's type is checked when the config is built, before any fit.
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("degrees", 5, "degrees must be a list, got 5"),
            ("oversampling", "3", "oversampling must be a list, got '3'"),
            ("methods", "jackknife", "methods must be a list, got 'jackknife'"),
            ("scores", "absolute", "scores must be a list, got 'absolute'"),
            ("significance", "0.05", "significance must be a real number, got '0.05'"),
            ("significance", True, "significance must be a real number, got True"),
            ("output", 5, "output must be a string or null, got 5"),
            ("benchmark", ["piston"], "benchmark must be a string, got ['piston']"),
        ],
    )
    def test_rejects_wrong_types(self, field, value, message):
        doc = {"benchmark": "meromorphic", "degrees": [2], "oversampling": [2]}
        with pytest.raises(ValidationError) as info:
            ExperimentConfig.from_dict({**doc, field: value})
        assert str(info.value) == message

    def test_accepts_integral_floats(self):
        config = ExperimentConfig(
            benchmark="meromorphic", degrees=(2.0,), oversampling=(3.0,), n_seeds=4.0,
            test_size=10.0,
        )
        assert (config.degrees, config.oversampling, config.n_seeds, config.test_size) == (
            (2,), (3,), 4, 10
        )
        assert all(type(v) is int for v in (*config.degrees, config.n_seeds, config.test_size))

    def test_from_dict(self):
        doc = {"benchmark": "meromorphic", "degrees": [2], "oversampling": [2, 3]}
        config = ExperimentConfig.from_dict(doc)
        assert config.oversampling == (2, 3)
        assert config.n_seeds == 100 and config.test_size == 10_000
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({**doc, "svd": True})
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"benchmark": "meromorphic"})

    def test_quick_profile(self):
        config = ExperimentConfig(benchmark="meromorphic", degrees=(2,), oversampling=(2,))
        quick = config.quick()
        assert quick.n_seeds == 20 and quick.test_size == 2000
        assert config.n_seeds == 100


class TestEmitReport:
    def test_empty_report_header_only(self, tmp_path):
        report = CoverageReport(records=(), aggregates=())
        paths = emit_report(report, "csv", tmp_path)
        text = paths[0].read_text()
        assert text == ",".join(RECORD_COLUMNS) + "\n"

    def test_one_record_round_trips(self, tmp_path):
        rec = run_cell(
            benchmark="meromorphic",
            degree=2,
            oversampling=3,
            method="jackknife",
            score="absolute",
            significance=0.05,
            seed=4,
            test_size=100,
        )
        report = CoverageReport(records=(rec,), aggregates=tuple(aggregate_records([rec])))
        paths = emit_report(report, "csv", tmp_path)
        lines = paths[0].read_text().splitlines()
        assert len(lines) == 2
        fields = dict(zip(RECORD_COLUMNS, lines[1].split(",")))
        assert fields["benchmark"] == "meromorphic"
        assert int(fields["P"]) == 2 and int(fields["C"]) == 3
        assert float(fields["coverage"]) == rec.coverage
        assert float(fields["mean_width"]) == rec.mean_width
        assert float(fields["rel_loo_error"]) == rec.rel_loo_error
        assert fields["failure"] == ""

    def test_byte_stability(self, tmp_path):
        config = ExperimentConfig(
            benchmark="meromorphic",
            degrees=(2,),
            oversampling=(2, 3),
            n_seeds=2,
            test_size=100,
        )
        a = emit_report(run_grid(config), "csv", tmp_path / "a")
        b = emit_report(run_grid(config), "csv", tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_unbounded_widths_render_inf(self, tmp_path):
        # meromorphic P=2, C=2 gives M=18 < ceil(0.95*19): unbounded at s=0.05.
        rec = run_cell(
            benchmark="meromorphic",
            degree=2,
            oversampling=2,
            method="jackknife",
            score="absolute",
            significance=0.05,
            seed=0,
            test_size=50,
        )
        assert rec.n_unbounded == 50
        report = CoverageReport(records=(rec,), aggregates=tuple(aggregate_records([rec])))
        paths = emit_report(report, "csv", tmp_path)
        line = paths[0].read_text().splitlines()[1]
        assert ",inf," in line

    # csv is the one format: json and values that are not strings are refused too.
    @pytest.mark.parametrize("fmt", ["xml", "json", None, ["csv"]], ids=repr)
    def test_unknown_format(self, tmp_path, fmt):
        with pytest.raises(ValidationError, match=re.escape(f"unknown report format {fmt!r}")):
            emit_report(CoverageReport(records=(), aggregates=()), fmt, tmp_path / "unused")
        assert not (tmp_path / "unused").exists()


class TestCheckReportPaths:
    def test_unwritable_report_file_is_refused(self, tmp_path):
        (tmp_path / "out" / "aggregates.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError, match="aggregates.csv"):
            harness.check_report_paths(tmp_path / "out")

    def test_leaves_the_directory_as_it_was(self, tmp_path):
        out = tmp_path / "a" / "b"
        harness.check_report_paths(out)
        assert out.is_dir() and list(out.iterdir()) == []
        (out / "records.csv").write_text("kept")
        harness.check_report_paths(out)
        assert sorted(p.name for p in out.iterdir()) == ["records.csv"]
        assert (out / "records.csv").read_text() == "kept"

    def test_names_the_files_emit_report_writes(self, tmp_path):
        paths = emit_report(CoverageReport(records=(), aggregates=()), "csv", tmp_path)
        assert [p.name for p in paths] == list(harness.REPORT_FILES)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(harness.REPORT_FILES)


class TestAggregates:
    def test_stats_over_seeds(self):
        records = [
            RunRecord(
                benchmark="meromorphic",
                degree=2,
                oversampling=3,
                method="jackknife",
                score="absolute",
                seed=i,
                coverage=c,
                mean_width=w,
                median_width=w,
                rel_loo_error=0.01,
                n_unbounded=0,
            )
            for i, (c, w) in enumerate([(0.9, 1.0), (1.0, 3.0), (0.95, 2.0)])
        ]
        (agg,) = aggregate_records(records)
        assert agg["coverage_mean"] == pytest.approx(0.95)
        assert agg["coverage_median"] == pytest.approx(0.95)
        assert agg["coverage_min"] == 0.9 and agg["coverage_max"] == 1.0
        assert agg["width_median"] == pytest.approx(2.0)
        assert agg["width_q1"] == pytest.approx(1.5)
        assert agg["width_q3"] == pytest.approx(2.5)

    def test_all_failed_group_is_nan(self):
        records = [
            RunRecord(
                benchmark="meromorphic",
                degree=2,
                oversampling=3,
                method="jackknife",
                score="absolute",
                seed=0,
                failure="UnderdeterminedError: boom",
            )
        ]
        (agg,) = aggregate_records(records)
        assert agg["n_failed"] == 1
        assert math.isnan(agg["coverage_mean"])
