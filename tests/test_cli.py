"""End-to-end CLI tests: exit codes, file outputs, stdout/stderr contracts."""

import csv
import json

import numpy as np
import pytest

from confpce.basis import InputSpec
from confpce.benchmarks import Benchmark, register_benchmark, unregister_benchmark
from confpce.cli import main


def run_cli(*argv):
    return main(list(argv))


def write_zero_csv(path, m=30):
    xs = np.linspace(-1.0, 1.0, m)
    with open(path, "w") as fh:
        fh.write("x1,y\n")
        for x in xs:
            fh.write(f"{float(x)!r},0.0\n")


class TestFit:
    def test_benchmark_fit_smoke(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run_cli(
            "fit", "--benchmark", "meromorphic", "--m", "160", "--seed", "1",
            "--degree", "3", "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        fields = dict(item.split("=") for item in capsys.readouterr().out.split())
        assert list(fields) == ["K", "M", "rel_loo_error", "cond", "max_leverage"]
        assert fields["K"] == "4" and fields["M"] == "160"
        assert float(fields["cond"]) >= 1.0
        assert 0.0 < float(fields["max_leverage"]) < 1.0
        doc = json.loads(out.read_text())
        assert doc["multi_index_set"] == {"input_dim": 1, "max_degree": 3}
        assert len(doc["inputs"]) == len(doc["outputs"]) == 160

    def test_underdetermined_exit_3(self, tmp_path, capsys):
        code = run_cli(
            "fit", "--benchmark", "meromorphic", "--m", "3",
            "--degree", "3", "--out", str(tmp_path / "m.json"),
        )
        assert code == 3
        assert "underdetermined" in capsys.readouterr().err.lower()

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        code = run_cli("fit", "--data", str(bad), "--degree", "1", "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert "error: validation" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        assert run_cli("fit", "--degree", "1", "--out", out) == 2
        capsys.readouterr()
        code = run_cli(
            "fit", "--data", "x.csv", "--benchmark", "meromorphic",
            "--degree", "1", "--out", out,
        )
        assert code == 2

    def test_data_csv_with_explicit_ranges(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_zero_csv(data)
        out = tmp_path / "model.json"
        code = run_cli(
            "fit", "--data", str(data), "--ranges=-1:1",
            "--degree", "1", "--out", str(out),
        )
        assert code == 0
        assert "rel_loo_error=nan" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["input_spec"]["ranges"] == [[-1.0, 1.0]]

    def test_bad_ranges_exit_2(self, tmp_path):
        data = tmp_path / "train.csv"
        write_zero_csv(data)
        code = run_cli(
            "fit", "--data", str(data), "--ranges", "1;2",
            "--degree", "1", "--out", str(tmp_path / "m.json"),
        )
        assert code == 2

    def test_missing_file_exit_2(self, tmp_path):
        code = run_cli(
            "fit", "--data", str(tmp_path / "nope.csv"), "--degree", "1",
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2

    def test_data_outside_ranges_exit_2(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_zero_csv(data)
        out = tmp_path / "m.json"
        code = run_cli("fit", "--data", str(data), "--ranges=0:1", "--degree", "1", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: validation: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    @pytest.mark.parametrize("degree", ["1", "2"])
    def test_huge_outputs_exit_3(self, tmp_path, capsys, scale, degree):
        # Finite outputs whose squares overflow: a typed error, not a NaN.
        data = tmp_path / "train.csv"
        with open(data, "w") as fh:
            fh.write("x1,y\n")
            for i, x in enumerate(np.linspace(-1.0, 1.0, 30)):
                fh.write(f"{float(x)!r},{scale if i // 3 % 2 else -scale!r}\n")
        out = tmp_path / "m.json"
        code = run_cli("fit", "--data", str(data), "--degree", degree, "--out", str(out))
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: NonFiniteFitError: ")
        assert not out.exists()


@pytest.fixture()
def zero_model(tmp_path):
    data = tmp_path / "train.csv"
    write_zero_csv(data)
    model = tmp_path / "model.json"
    assert run_cli(
        "fit", "--data", str(data), "--ranges=-1:1", "--degree", "1", "--out", str(model)
    ) == 0
    return model


@pytest.fixture()
def query_points(tmp_path):
    points = tmp_path / "points.csv"
    with open(points, "w") as fh:
        fh.write("x1\n")
        for x in np.linspace(-0.9, 0.9, 7):
            fh.write(f"{float(x)!r}\n")
    return points


class TestInterval:
    def test_zero_model_degenerate_rows(self, tmp_path, zero_model, query_points):
        out = tmp_path / "iv.csv"
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(query_points),
            "--method", "jk+", "--score", "abs", "--alpha", "0.2", "--out", str(out),
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        for row in rows:
            assert float(row["lower"]) == float(row["center"]) == float(row["upper"]) == 0.0

    def test_unbounded_renders_inf_and_warns(self, tmp_path, zero_model, query_points, capsys):
        out = tmp_path / "iv.csv"
        # M = 30, alpha = 0.01: ceil(0.99 * 31) = 31 > 30.
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(query_points),
            "--method", "jk", "--alpha", "0.01", "--out", str(out),
        )
        assert code == 0
        assert "unbounded" in capsys.readouterr().err
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["lower"] == "-inf" and row["upper"] == "inf" for row in rows)

    def test_jk_and_jkplus_share_centers(self, tmp_path, capsys):
        model = tmp_path / "otl.json"
        assert run_cli(
            "fit", "--benchmark", "otl_circuit", "--m", "140", "--seed", "5",
            "--degree", "2", "--out", str(model),
        ) == 0
        points = tmp_path / "pts.csv"
        from confpce.benchmarks import sample_design

        data = sample_design("otl_circuit", 9, seed=50, stream="test")
        with open(points, "w") as fh:
            fh.write(",".join(f"x{i+1}" for i in range(6)) + "\n")
            for row in data.inputs:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        out_jk, out_jkp = tmp_path / "jk.csv", tmp_path / "jkp.csv"
        assert run_cli(
            "interval", "--model", str(model), "--points", str(points),
            "--method", "jk", "--out", str(out_jk),
        ) == 0
        assert run_cli(
            "interval", "--model", str(model), "--points", str(points),
            "--method", "jk+", "--out", str(out_jkp),
        ) == 0
        with open(out_jk) as fh:
            jk = list(csv.DictReader(fh))
        with open(out_jkp) as fh:
            jkp = list(csv.DictReader(fh))
        for a, b in zip(jk, jkp):
            assert a["center"] == b["center"]
            assert (a["lower"], a["upper"]) != (b["lower"], b["upper"])

    def test_out_of_box_point_exit_2(self, tmp_path, zero_model):
        points = tmp_path / "far.csv"
        points.write_text("x1\n5.0\n")
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(points),
            "--out", str(tmp_path / "iv.csv"),
        )
        assert code == 2

    def test_nan_point_exit_2(self, tmp_path, zero_model):
        points = tmp_path / "nan.csv"
        points.write_text("x1\nnan\n")
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(points),
            "--out", str(tmp_path / "iv.csv"),
        )
        assert code == 2

    def test_nonfinite_model_exit_2(self, tmp_path, zero_model, query_points, capsys):
        doc = json.loads(zero_model.read_text())
        doc["outputs"][0] = float("nan")
        zero_model.write_text(json.dumps(doc))
        out = tmp_path / "iv.csv"
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(query_points),
            "--out", str(out),
        )
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_model_exit_3(self, tmp_path, capsys):
        # Finite but huge outputs: the refit on load overflows.
        model = tmp_path / "model.json"
        assert run_cli(
            "fit", "--benchmark", "meromorphic", "--m", "40", "--degree", "3",
            "--out", str(model),
        ) == 0
        doc = json.loads(model.read_text())
        doc["outputs"] = [1e308] * len(doc["outputs"])
        model.write_text(json.dumps(doc))
        points = tmp_path / "pts.csv"
        points.write_text("x1\n1.0\n")
        out = tmp_path / "iv.csv"
        code = run_cli(
            "interval", "--model", str(model), "--points", str(points),
            "--method", "jk+", "--out", str(out),
        )
        assert code == 3
        assert "error: NonFiniteFitError" in capsys.readouterr().err
        assert not out.exists()

    def test_derived_array_model_exit_2(self, tmp_path, query_points, capsys):
        model = tmp_path / "old.json"
        model.write_text(json.dumps({
            "input_spec": {"ranges": [[-1.0, 1.0]]},
            "multi_index_set": {"input_dim": 1, "max_degree": 0, "indices": [[0]]},
            "coefficients": [0.0], "hat_diag": [0.5, 0.5], "loo_residuals": [0.0, 0.0],
            "loo_corrections": [[0.0], [0.0]],
        }))
        code = run_cli(
            "interval", "--model", str(model), "--points", str(query_points),
            "--out", str(tmp_path / "iv.csv"),
        )
        assert code == 2
        assert "derived-array model file" in capsys.readouterr().err

    @pytest.mark.parametrize("method, alpha", [("jk", "1.5"), ("jk+", "1.5"), ("jk+", "0.75")])
    def test_bad_alpha_exit_2(self, tmp_path, zero_model, query_points, capsys, method, alpha):
        out = tmp_path / "iv.csv"
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(query_points),
            "--method", method, "--alpha", alpha, "--out", str(out),
        )
        assert code == 2
        assert "error: validation: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "y1\n0.1\n",  # wrong header
            "x1\n0.1\n0.2,0.3\n",  # ragged row
            "x1\n0.1\nabc\n",  # non-numeric field
            "x1\n",  # header only
            "",  # empty file
        ],
        ids=["wrong-header", "ragged-row", "non-numeric", "header-only", "empty"],
    )
    def test_malformed_points_exit_2(self, tmp_path, zero_model, capsys, text):
        points = tmp_path / "pts.csv"
        points.write_text(text)
        out = tmp_path / "iv.csv"
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(points), "--out", str(out)
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: validation: ")
        assert not out.exists()

    def test_points_with_y_column(self, tmp_path, zero_model):
        points = tmp_path / "pts.csv"
        points.write_text("x1,y\n0.25,7.0\n")
        out = tmp_path / "iv.csv"
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(points), "--out", str(out)
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["x1", "center", "lower", "upper"]
        assert float(rows[0]["x1"]) == 0.25

    def test_missing_model_exit_2(self, tmp_path, query_points):
        code = run_cli(
            "interval", "--model", str(tmp_path / "no.json"), "--points", str(query_points),
            "--out", str(tmp_path / "iv.csv"),
        )
        assert code == 2


class TestExperiment:
    def write_config(self, tmp_path, **overrides):
        doc = {
            "benchmark": "meromorphic",
            "degrees": [2],
            "oversampling": [3, 5],
            "methods": ["jackknife", "jackknife_plus"],
            "n_seeds": 3,
            "test_size": 100,
            "output": str(tmp_path / "report"),
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_smoke_and_determinism(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert run_cli("experiment", "--config", str(config)) == 0
        stdout = capsys.readouterr().out
        assert "cells=12" in stdout
        records = (tmp_path / "report" / "records.csv").read_bytes()
        assert run_cli("experiment", "--config", str(config)) == 0
        assert (tmp_path / "report" / "records.csv").read_bytes() == records

    def test_quick_profile_overrides(self, tmp_path, capsys):
        config = self.write_config(tmp_path, n_seeds=50, test_size=5000, oversampling=[3])
        assert run_cli("experiment", "--config", str(config), "--quick") == 0
        assert "cells=40" in capsys.readouterr().out  # 1 cell x 2 methods x 20 seeds

    def test_empty_degrees_exit_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, degrees=[])
        assert run_cli("experiment", "--config", str(config)) == 2
        assert "error: validation" in capsys.readouterr().err

    def test_jackknife_plus_above_half_exit_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, significance=0.75)
        assert run_cli("experiment", "--config", str(config)) == 2
        assert "jackknife_plus needs significance <= 1/2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("degrees", [2.5]), ("oversampling", [3, 4.5]), ("n_seeds", 1.5), ("test_size", 2.5)],
    )
    def test_non_integral_field_exit_2(self, tmp_path, capsys, field, value):
        config = self.write_config(tmp_path, **{field: value})
        assert run_cli("experiment", "--config", str(config)) == 2
        assert f"error: validation: bad config: {field} needs integer values" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_bad_json_exit_2(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert run_cli("experiment", "--config", str(config)) == 2

    def test_unknown_field_exit_2(self, tmp_path):
        config = self.write_config(tmp_path, bogus=1)
        assert run_cli("experiment", "--config", str(config)) == 2

    def test_no_output_dir_exit_2(self, tmp_path):
        config = self.write_config(tmp_path, output=None)
        doc = json.loads(config.read_text())
        del doc["output"]
        config.write_text(json.dumps(doc))
        assert run_cli("experiment", "--config", str(config)) == 2

    def test_partial_failures_still_exit_0(self, tmp_path, capsys):
        bench = Benchmark(
            name="cli_partial_hook",
            input_spec=InputSpec(ranges=tuple([(-1.0, 1.0)] * 4)),
            fn=lambda x: x[:, 0],
            param_names=("a", "b", "c", "d"),
            size_rule="quadratic",
            degree_grid=(1, 3),
        )
        register_benchmark(bench)
        try:
            config = self.write_config(
                tmp_path, benchmark="cli_partial_hook", degrees=[1, 3], oversampling=[2],
                methods=["jackknife"], significance=0.2,
            )
            assert run_cli("experiment", "--config", str(config)) == 0
            captured = capsys.readouterr()
            assert "failed cell" in captured.err
            assert "failures=3" in captured.out  # P=3 seeds fail, P=1 seeds pass
        finally:
            unregister_benchmark("cli_partial_hook")

    def test_all_cells_failed_exit_4(self, tmp_path, capsys):
        bench = Benchmark(
            name="cli_skinny_hook",
            input_spec=InputSpec(ranges=tuple([(-1.0, 1.0)] * 4)),
            fn=lambda x: x[:, 0],
            param_names=("a", "b", "c", "d"),
            size_rule="quadratic",
            degree_grid=(3,),
        )
        register_benchmark(bench)
        try:
            config = self.write_config(
                tmp_path, benchmark="cli_skinny_hook", degrees=[3], oversampling=[2]
            )
            assert run_cli("experiment", "--config", str(config)) == 4
        finally:
            unregister_benchmark("cli_skinny_hook")


class TestBenchmarksListing:
    def test_prints_all_ranges(self, capsys):
        assert run_cli("benchmarks") == 0
        out = capsys.readouterr().out
        for name in ("meromorphic", "otl_circuit", "piston", "wing_weight"):
            assert name in out
        # Spot-check table entries against the printed ranges.
        assert "[50.0, 150.0]" in out      # OTL R_b1
        assert "[90000.0, 110000.0]" in out  # piston P_0
        assert "[-10.0, 10.0]" in out      # wing sweep angle
        assert "[0.025, 0.08]" in out      # wing paint weight


class TestUsage:
    def test_unknown_flag_exit_2(self, capsys):
        assert run_cli("fit", "--nope", "1") == 2

    def test_no_subcommand_exit_2(self, capsys):
        assert run_cli() == 2
