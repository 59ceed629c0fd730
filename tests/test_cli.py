"""End-to-end CLI tests: exit codes, file outputs, stdout/stderr contracts."""

import csv
import json
import warnings

import numpy as np
import pytest
from helpers import registered

from confpce import basis, conformal, harness
from confpce.basis import InputSpec
from confpce.benchmarks import Benchmark
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

    def test_basis_over_byte_budget_exit_3(self, tmp_path, capsys, monkeypatch):
        # Piston at P=12, C=3 would need a 61 GB design; a lowered budget
        # shows the same refusal on a small one without allocating it. The
        # budget still holds the 5,600-byte sample of 100 points in 7 inputs.
        monkeypatch.setattr(basis, "MAX_BASIS_BYTES", 2**14)
        code = run_cli(
            "fit", "--benchmark", "piston", "--m", "100",
            "--degree", "2", "--out", str(tmp_path / "m.json"),
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error: BasisSizeError: basis matrix of 100 points")
        assert not (tmp_path / "m.json").exists()

    def test_oversized_benchmark_sample_exit_3(self, tmp_path, capsys):
        # 10**15 points in 7 inputs would need 56 PB; the sample is refused
        # before anything is allocated.
        code = run_cli(
            "fit", "--benchmark", "piston", "--m", str(10**15),
            "--degree", "1", "--out", str(tmp_path / "m.json"),
        )
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: BasisSizeError: design of 1000000000000000 points of dimension 7"
        )
        assert not (tmp_path / "m.json").exists()

    def test_negative_degree_exit_2(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run_cli(
            "fit", "--benchmark", "meromorphic", "--m", "50", "--degree", "-1", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: validation: --degree must be >= 0, got -1\n"
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run_cli(
            "fit", "--benchmark", "meromorphic", "--m", "40", "--seed", "-1",
            "--degree", "2", "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == "error: validation: --seed must be >= 0, got -1\n"
        assert not out.exists()

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

    def test_wide_data_csv_fits(self, tmp_path, capsys):
        # 1,100 inputs: more dimensions than the interpreter's recursion limit.
        n = 1_100
        rows = np.random.default_rng(0).random((3, n + 1))
        data = tmp_path / "wide.csv"
        data.write_text(",".join([f"x{i + 1}" for i in range(n)] + ["y"]) + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows
        ))
        out = tmp_path / "model.json"
        assert run_cli("fit", "--data", str(data), "--degree", "0", "--out", str(out)) == 0
        assert capsys.readouterr().out.startswith("K=1 M=3 ")
        assert json.loads(out.read_text())["multi_index_set"] == {"input_dim": n, "max_degree": 0}

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

    def test_rows_are_written_as_the_repr_of_each_float(self, tmp_path, zero_model, monkeypatch):
        # The whole table goes through one csv.writerows call, which writes
        # str(float): the bytes of the repr of every value, row by row.
        points = tmp_path / "extremes.csv"
        xs = [-0.0, 5e-324, -5e-324, 0.1, -1.0, 1.0]
        points.write_text("x1\n" + "".join(f"{x!r}\n" for x in xs))
        bounds = np.array([
            [-0.0, 5e-324, 1e308, -1e308, 0.1, 2.0 / 3.0],
            [-np.inf, 0.0, 1e308, -np.inf, -5e-324, 1e-300],
            [np.inf, 1e-320, np.inf, -1e308, 5e-324, 1.7976931348623157e308],
        ])
        monkeypatch.setattr(conformal, "interval_arrays", lambda *args: tuple(bounds))
        out = tmp_path / "iv.csv"
        assert run_cli(
            "interval", "--model", str(zero_model), "--points", str(points),
            "--method", "jk+", "--out", str(out),
        ) == 0
        want = "x1,center,lower,upper\n" + "".join(
            ",".join(repr(float(v)) for v in (x, *column)) + "\n"
            for x, column in zip(xs, bounds.T)
        )
        assert out.read_bytes() == want.encode()

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

    def test_non_integral_basis_field_exit_2(self, tmp_path, zero_model, query_points, capsys):
        doc = json.loads(zero_model.read_text())
        doc["multi_index_set"]["max_degree"] = 2.5
        zero_model.write_text(json.dumps(doc))
        out = tmp_path / "iv.csv"
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(query_points),
            "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: validation: malformed model file: max_degree needs integer values, got 2.5\n"
        )
        assert not out.exists()

    def test_string_training_number_exit_2(self, tmp_path, zero_model, query_points, capsys):
        doc = json.loads(zero_model.read_text())
        doc["outputs"][0] = "0"
        zero_model.write_text(json.dumps(doc))
        out = tmp_path / "iv.csv"
        code = run_cli(
            "interval", "--model", str(zero_model), "--points", str(query_points),
            "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: validation: malformed model file: outputs needs numbers, got '0'\n"
        )
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
        "field, value, message",
        [
            ("degrees", [2, -1], "degrees must be >= 0, got -1"),
            ("oversampling", [3, 0], "oversampling must be >= 1, got 0"),
            ("oversampling", [-2], "oversampling must be >= 1, got -2"),
        ],
    )
    def test_out_of_range_grid_axis_exit_2(self, tmp_path, capsys, field, value, message):
        config = self.write_config(tmp_path, **{field: value})
        assert run_cli("experiment", "--config", str(config)) == 2
        assert f"error: validation: bad config: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

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

    def test_output_directory_made_before_the_grid(self, tmp_path, capsys, monkeypatch):
        # An output path under a plain file fails before the grid, not after it.
        (tmp_path / "afile").write_text("")
        config = self.write_config(tmp_path, output=str(tmp_path / "afile" / "sub"))

        def grid_must_not_run(config):
            raise AssertionError("run_grid ran before the output directory was made")

        monkeypatch.setattr(harness, "run_grid", grid_must_not_run)
        assert run_cli("experiment", "--config", str(config)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: io: [Errno 20] Not a directory: '{tmp_path / 'afile' / 'sub'}'\n"
        )

    def test_unwritable_report_file_refused_before_the_grid(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "out" / "records.csv").mkdir(parents=True)
        config = self.write_config(tmp_path, output=str(tmp_path / "out"))

        def grid_must_not_run(config):
            raise AssertionError("run_grid ran before the report files were checked")

        monkeypatch.setattr(harness, "run_grid", grid_must_not_run)
        assert run_cli("experiment", "--config", str(config)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: io: [Errno 21] Is a directory: '{tmp_path / 'out' / 'records.csv'}'\n"
        )
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["records.csv"]

    def test_partial_failures_still_exit_0(self, tmp_path, capsys):
        bench = Benchmark(
            name="cli_partial_hook",
            input_spec=InputSpec(ranges=tuple([(-1.0, 1.0)] * 4)),
            fn=lambda x: x[:, 0],
            param_names=("a", "b", "c", "d"),
            size_rule="quadratic",
            degree_grid=(1, 3),
        )
        with registered(bench):
            config = self.write_config(
                tmp_path, benchmark="cli_partial_hook", degrees=[1, 3], oversampling=[2],
                methods=["jackknife"], significance=0.2,
            )
            assert run_cli("experiment", "--config", str(config)) == 0
            captured = capsys.readouterr()
            assert "failed cell" in captured.err
            assert "failures=3" in captured.out  # P=3 seeds fail, P=1 seeds pass

    def test_all_cells_failed_exit_4(self, tmp_path, capsys):
        bench = Benchmark(
            name="cli_skinny_hook",
            input_spec=InputSpec(ranges=tuple([(-1.0, 1.0)] * 4)),
            fn=lambda x: x[:, 0],
            param_names=("a", "b", "c", "d"),
            size_rule="quadratic",
            degree_grid=(3,),
        )
        with registered(bench):
            config = self.write_config(
                tmp_path, benchmark="cli_skinny_hook", degrees=[3], oversampling=[2]
            )
            assert run_cli("experiment", "--config", str(config)) == 4


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


# The CLI's error contract: every bad-input path, its exit code and the exact
# last line it prints on standard error ("{d}" is the directory of the input
# files). The argparse cases print a usage line first.
ZERO_CSV = "x1,y\n" + "".join(f"{x!r},0.0\n" for x in np.linspace(-1.0, 1.0, 30).tolist())
ZERO_MODEL = {
    "input_spec": {"ranges": [[-1.0, 1.0]]},
    "multi_index_set": {"input_dim": 1, "max_degree": 1},
    "inputs": [[x] for x in np.linspace(-1.0, 1.0, 30).tolist()],
    "outputs": [0.0] * 30,
}
KEYS = "('input_spec', 'multi_index_set', 'inputs', 'outputs')"


def _model(**changes):
    doc = json.loads(json.dumps(ZERO_MODEL))
    for path, value in changes.items():
        *parents, last = path.split("__")
        target = doc
        for key in parents:
            target = target[int(key) if key.isdigit() else key]
        if value is None:
            del target[last]
        else:
            target[int(last) if last.isdigit() else last] = value
    return json.dumps(doc)


def _config(**changes):
    doc = {"benchmark": "meromorphic", "degrees": [2], "oversampling": [3], "n_seeds": 2,
           "test_size": 50, "output": "{d}/report"}
    doc.update(changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


CONTRACT_FILES = {
    "zero.csv": ZERO_CSV,
    "bad_header.csv": "a,b\n1,2\n",
    "empty.csv": "",
    "header_only.csv": "x1,y\n",
    "ragged.csv": "x1,y\n0.1,1\n0.2\n",
    "text.csv": "x1,y\nabc,1\n",
    "nan.csv": "x1,y\nnan,1\n0.5,2\n",
    "flat.csv": "x1,y\n0.5,1\n0.5,2\n",
    "huge_hull.csv": "x1,y\n-1e308,1\n1e308,2\n0,3\n",
    "digits.csv": "x1,y\n\u0661\u0662,1\n0.5,2\n",
    "unit.csv": "x1,y\n0.1,1\n0.5,2\n0.9,4\n",
    "pts.csv": "x1\n0.25\n",
    "pts_header.csv": "y1\n0.1\n",
    "pts_ragged.csv": "x1\n0.1\n0.2,0.3\n",
    "pts_text.csv": "x1\n0.1\nabc\n",
    "pts_header_only.csv": "x1\n",
    "pts_far.csv": "x1\n5.0\n",
    "pts_nan.csv": "x1\nnan\n",
    "pts_huge.csv": "x1\n0.5\n1e308\n",
    "pts_separator.csv": "x1\n0.5\n1_000\n",
    "model.json": _model(),
    "model_text.json": "{not json",
    "model_list.json": "[]",
    "model_missing.json": _model(outputs=None),
    "model_extra.json": _model(variance_estimator="coefficients"),
    "model_derived.json": _model(outputs=None, loo_corrections=[[0.0]]),
    "model_degree.json": _model(multi_index_set__max_degree=2.5),
    "model_string.json": _model(outputs__0="0"),
    "model_bool.json": _model(input_spec__ranges__0__1=True),
    "model_nan.json": _model(outputs__0=float("nan")),
    "model_dims.json": _model(multi_index_set__input_dim=2),
    "model_wide.json": _model(multi_index_set__input_dim=1_100),
    "model_far.json": _model(inputs__0__0=3.0),
    "model_huge.json": _model(inputs__1__0=-1e308),
    "model_field.json": _model(multi_index_set=5),
    "model_range.json": _model(input_spec__ranges__0=[-1, 1, 2]),
    "model_3d.json": _model(inputs=[[[x]] for x in np.linspace(-1.0, 1.0, 30).tolist()]),
    "model_big_degree.json": _model(multi_index_set__max_degree=10**6),
    "config_text.json": "{not json",
    "config_list.json": "[]",
    "config_unknown.json": _config(bogus=1),
    "config_required.json": _config(degrees=None),
    "config_benchmark.json": _config(benchmark="nope"),
    "config_empty.json": _config(degrees=[]),
    "config_negative.json": _config(degrees=[2, -1]),
    "config_fraction.json": _config(degrees=[2.5]),
    "config_scalar.json": _config(degrees=5),
    "config_methods.json": _config(methods="jackknife"),
    "config_method.json": _config(methods=["bogus"]),
    "config_score.json": _config(scores=["huber"]),
    "config_alpha.json": _config(significance="0.05"),
    "config_half.json": _config(significance=0.75),
    "config_seeds.json": _config(n_seeds=0),
    "config_output.json": _config(output=None),
    "config_output_type.json": _config(output=5),
    "config_test_size.json": _config(test_size=10**15),
    "config_big_degree.json": _config(degrees=[2, 10**6]),
    "config_over_fit_budget.json": _config(benchmark="wing_weight", degrees=[7], oversampling=[2]),
    "config_ok.json": _config(),
}

FIT = ("fit", "--degree", "1", "--out", "{d}/m.json")
INTERVAL = ("interval", "--points", "{d}/pts.csv", "--out", "{d}/iv.csv")
KNOWN = "meromorphic, otl_circuit, piston, wing_weight"
NOT_FOUND = "[Errno 2] No such file or directory"
IS_DIR = "[Errno 21] Is a directory"
OVER_SIZE_LIMIT = ("total-degree basis with N=1, P=1000000 has K=1000001 terms; its smallest "
                   "design needs 8000016000008 bytes, exceeding the limit of 4294967296")

ERROR_CONTRACT = [
    # fit: training CSV
    ("fit-data-missing", FIT + ("--data", "{d}/no.csv"), 2,
     f"error: validation: cannot read {{d}}/no.csv: {NOT_FOUND}: '{{d}}/no.csv'"),
    ("fit-data-directory", FIT + ("--data", "{d}/dir"), 2,
     f"error: validation: cannot read {{d}}/dir: {IS_DIR}: '{{d}}/dir'"),
    ("fit-data-header", FIT + ("--data", "{d}/bad_header.csv"), 2,
     "error: validation: malformed CSV: malformed header ['a', 'b']; expected x1,...,xN,y"),
    ("fit-data-empty", FIT + ("--data", "{d}/empty.csv"), 2,
     "error: validation: malformed CSV: empty CSV: expected a header row"),
    ("fit-data-header-only", FIT + ("--data", "{d}/header_only.csv"), 2,
     "error: validation: malformed CSV: CSV contains a header but no data rows"),
    ("fit-data-ragged", FIT + ("--data", "{d}/ragged.csv"), 2,
     "error: validation: malformed CSV: line 3: expected 2 fields, got 1"),
    ("fit-data-non-numeric", FIT + ("--data", "{d}/text.csv"), 2,
     "error: validation: malformed CSV: line 2: non-numeric field in ['abc', '1']"),
    ("fit-data-non-ascii-digits", FIT + ("--data", "{d}/digits.csv"), 2,
     "error: validation: malformed CSV: line 2: non-numeric field in ['\u0661\u0662', '1']"),
    ("fit-data-nan", FIT + ("--data", "{d}/nan.csv"), 2,
     "error: validation: malformed CSV: inputs contain non-finite values"),
    ("fit-data-flat-hull", FIT + ("--data", "{d}/flat.csv"), 2,
     "error: validation: degenerate data hull; pass --ranges to define the input box"),
    ("fit-data-huge-hull", FIT + ("--data", "{d}/huge_hull.csv"), 2,
     "error: validation: dimension 0: range width must be finite, got (-1e+308, 1e+308)"),
    ("fit-data-out-of-box", FIT + ("--data", "{d}/zero.csv", "--ranges=0:1"), 2,
     "error: validation: point 0 maps outside [0.0, 1.0] in dimension 0 "
     "(reference value -3.0)"),
    # fit: --ranges
    ("fit-ranges-no-colon", FIT + ("--data", "{d}/zero.csv", "--ranges", "1;2"), 2,
     "error: validation: bad range '1;2'; expected lo:hi"),
    ("fit-ranges-non-numeric", FIT + ("--data", "{d}/zero.csv", "--ranges", "a:1"), 2,
     "error: validation: non-numeric range bound in 'a:1'"),
    ("fit-ranges-reversed", FIT + ("--data", "{d}/zero.csv", "--ranges", "1:0"), 2,
     "error: validation: dimension 0: lower bound 1.0 must be < upper bound 0.0"),
    ("fit-ranges-infinite", FIT + ("--data", "{d}/zero.csv", "--ranges", "0:inf"), 2,
     "error: validation: dimension 0: bounds must be finite, got (0.0, inf)"),
    ("fit-ranges-dims", FIT + ("--data", "{d}/zero.csv", "--ranges=-1:1,-1:1"), 2,
     "error: validation: --ranges has 2 dimensions, data has 1"),
    # --ranges follows the CSV reader's number rule (fit-data-non-ascii-digits).
    ("fit-ranges-digit-separator", FIT + ("--data", "{d}/unit.csv", "--ranges=0:1_0"), 2,
     "error: validation: non-numeric range bound in '0:1_0'"),
    ("fit-ranges-non-ascii-digits", FIT + ("--data", "{d}/unit.csv", "--ranges=0:\uff11"), 2,
     "error: validation: non-numeric range bound in '0:\uff11'"),
    # fit: numbers and sources
    ("fit-degree-negative", ("fit", "--degree", "-1", "--out", "{d}/m.json",
                             "--benchmark", "meromorphic", "--m", "50"), 2,
     "error: validation: --degree must be >= 0, got -1"),
    ("fit-degree-text", ("fit", "--degree", "x", "--out", "{d}/m.json"), 2,
     "confpce fit: error: argument --degree: invalid int value: 'x'"),
    ("fit-m-zero", FIT + ("--benchmark", "meromorphic", "--m", "0"), 2,
     "error: validation: --m must be >= 1, got 0"),
    ("fit-m-missing", FIT + ("--benchmark", "meromorphic"), 2,
     "error: validation: --benchmark requires --m"),
    ("fit-m-text", FIT + ("--benchmark", "meromorphic", "--m", "1e3"), 2,
     "confpce fit: error: argument --m: invalid int value: '1e3'"),
    ("fit-seed-negative", FIT + ("--benchmark", "meromorphic", "--m", "40", "--seed", "-1"), 2,
     "error: validation: --seed must be >= 0, got -1"),
    ("fit-benchmark-unknown", FIT + ("--benchmark", "nope", "--m", "40"), 2,
     f"error: validation: unknown benchmark 'nope'; known: {KNOWN}"),
    ("fit-both-sources", FIT + ("--data", "{d}/zero.csv", "--benchmark", "meromorphic"), 2,
     "error: validation: provide exactly one data source: --data or --benchmark"),
    ("fit-no-source", FIT, 2,
     "error: validation: provide exactly one data source: --data or --benchmark"),
    ("fit-out-unwritable", ("fit", "--degree", "1", "--out", "{d}/no/m.json",
                            "--benchmark", "meromorphic", "--m", "40"), 2,
     f"error: io: {NOT_FOUND}: '{{d}}/no/m.json'"),
    ("fit-underdetermined", FIT + ("--benchmark", "meromorphic", "--m", "1"), 3,
     "error: UnderdeterminedError: underdetermined fit: M=1 training samples < K=2 basis terms"),
    ("fit-degree-over-size-limit", ("fit", "--degree", "1000000", "--out", "{d}/m.json",
                                    "--benchmark", "meromorphic", "--m", "50"), 3,
     f"error: BasisSizeError: {OVER_SIZE_LIMIT}"),
    ("fit-benchmark-with-ranges", FIT + ("--benchmark", "piston", "--m", "100", "--ranges=0:1"), 2,
     "error: validation: --ranges applies to --data only; a benchmark has its own box"),
    ("fit-data-with-m", FIT + ("--data", "{d}/zero.csv", "--m", "5"), 2,
     "error: validation: --m and --seed apply to --benchmark only"),
    ("fit-data-with-seed", FIT + ("--data", "{d}/zero.csv", "--seed", "3"), 2,
     "error: validation: --m and --seed apply to --benchmark only"),
    # interval: model file
    ("model-missing", INTERVAL + ("--model", "{d}/no.json"), 2,
     f"error: validation: cannot read {{d}}/no.json: {NOT_FOUND}: '{{d}}/no.json'"),
    ("model-directory", INTERVAL + ("--model", "{d}/dir"), 2,
     f"error: validation: cannot read {{d}}/dir: {IS_DIR}: '{{d}}/dir'"),
    ("model-not-json", INTERVAL + ("--model", "{d}/model_text.json"), 2,
     "error: validation: malformed model file: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    ("model-list", INTERVAL + ("--model", "{d}/model_list.json"), 2,
     f"error: validation: malformed model file: model file must hold exactly the keys {KEYS}, "
     "found list"),
    ("model-missing-key", INTERVAL + ("--model", "{d}/model_missing.json"), 2,
     f"error: validation: malformed model file: model file must hold exactly the keys {KEYS}, "
     "found ['input_spec', 'inputs', 'multi_index_set']"),
    ("model-extra-key", INTERVAL + ("--model", "{d}/model_extra.json"), 2,
     f"error: validation: malformed model file: model file must hold exactly the keys {KEYS}, "
     "found ['input_spec', 'inputs', 'multi_index_set', 'outputs', 'variance_estimator']"),
    ("model-derived-arrays", INTERVAL + ("--model", "{d}/model_derived.json"), 2,
     "error: validation: malformed model file: derived-array model file (coefficients, "
     "hat_diag, loo_residuals, loo_corrections) from before models refit on load; "
     "refit it with 'confpce fit'"),
    ("model-fractional-degree", INTERVAL + ("--model", "{d}/model_degree.json"), 2,
     "error: validation: malformed model file: max_degree needs integer values, got 2.5"),
    ("model-string-number", INTERVAL + ("--model", "{d}/model_string.json"), 2,
     "error: validation: malformed model file: outputs needs numbers, got '0'"),
    ("model-bool-bound", INTERVAL + ("--model", "{d}/model_bool.json"), 2,
     "error: validation: malformed model file: input_spec.ranges needs numbers, got True"),
    ("model-nan-output", INTERVAL + ("--model", "{d}/model_nan.json"), 2,
     "error: validation: malformed model file: outputs contain non-finite values"),
    ("model-dims", INTERVAL + ("--model", "{d}/model_dims.json"), 2,
     "error: validation: malformed model file: basis and input spec dimensions disagree"),
    ("model-dims-wide", INTERVAL + ("--model", "{d}/model_wide.json"), 2,
     "error: validation: malformed model file: basis and input spec dimensions disagree"),
    ("model-out-of-box", INTERVAL + ("--model", "{d}/model_far.json"), 2,
     "error: validation: malformed model file: point 0 maps outside [-1.0, 1.0] in dimension 0 "
     "(reference value 3.0)"),
    ("model-huge-input", INTERVAL + ("--model", "{d}/model_huge.json"), 2,
     "error: validation: malformed model file: point 1 maps outside [-1.0, 1.0] in dimension 0 "
     "(reference value -inf)"),
    ("model-field-type", INTERVAL + ("--model", "{d}/model_field.json"), 2,
     "error: validation: malformed model file: malformed model field: "
     "TypeError(\"'int' object is not subscriptable\")"),
    ("model-range-triple", INTERVAL + ("--model", "{d}/model_range.json"), 2,
     "error: validation: malformed model file: dimension 0: range must be a (lower, upper) "
     "pair of numbers, got [-1, 1, 2]"),
    ("model-inputs-3d", INTERVAL + ("--model", "{d}/model_3d.json"), 2,
     "error: validation: malformed model file: inputs must be a 2-D array of points, "
     "got 3 dimensions"),
    ("model-degree-over-size-limit", INTERVAL + ("--model", "{d}/model_big_degree.json"), 3,
     f"error: BasisSizeError: {OVER_SIZE_LIMIT}"),
    # interval: points CSV
    ("points-missing", ("interval", "--model", "{d}/model.json", "--points", "{d}/no.csv",
                        "--out", "{d}/iv.csv"), 2,
     f"error: validation: cannot read {{d}}/no.csv: {NOT_FOUND}: '{{d}}/no.csv'"),
    ("points-directory", ("interval", "--model", "{d}/model.json", "--points", "{d}/dir",
                          "--out", "{d}/iv.csv"), 2,
     f"error: validation: cannot read {{d}}/dir: {IS_DIR}: '{{d}}/dir'"),
    ("points-header", ("interval", "--model", "{d}/model.json", "--points",
                       "{d}/pts_header.csv", "--out", "{d}/iv.csv"), 2,
     "error: validation: {d}/pts_header.csv: header ['y1'] is not x1[,y]"),
    ("points-ragged", ("interval", "--model", "{d}/model.json", "--points",
                       "{d}/pts_ragged.csv", "--out", "{d}/iv.csv"), 2,
     "error: validation: {d}/pts_ragged.csv: line 3: expected 1 fields, got 2"),
    ("points-non-numeric", ("interval", "--model", "{d}/model.json", "--points",
                            "{d}/pts_text.csv", "--out", "{d}/iv.csv"), 2,
     "error: validation: {d}/pts_text.csv: line 3: non-numeric field in ['abc']"),
    ("points-digit-separator", ("interval", "--model", "{d}/model.json", "--points",
                                "{d}/pts_separator.csv", "--out", "{d}/iv.csv"), 2,
     "error: validation: {d}/pts_separator.csv: line 3: non-numeric field in ['1_000']"),
    ("points-header-only", ("interval", "--model", "{d}/model.json", "--points",
                            "{d}/pts_header_only.csv", "--out", "{d}/iv.csv"), 2,
     "error: validation: {d}/pts_header_only.csv: CSV contains a header but no data rows"),
    ("points-empty", ("interval", "--model", "{d}/model.json", "--points",
                      "{d}/empty.csv", "--out", "{d}/iv.csv"), 2,
     "error: validation: {d}/empty.csv: empty CSV: expected a header row"),
    ("points-out-of-box", ("interval", "--model", "{d}/model.json", "--points",
                           "{d}/pts_far.csv", "--out", "{d}/iv.csv"), 2,
     "error: validation: point 0 maps outside [-1.0, 1.0] in dimension 0 "
     "(reference value 5.0)"),
    ("points-huge", ("interval", "--model", "{d}/model.json", "--points",
                     "{d}/pts_huge.csv", "--out", "{d}/iv.csv"), 2,
     "error: validation: point 1 maps outside [-1.0, 1.0] in dimension 0 "
     "(reference value inf)"),
    ("points-nan", ("interval", "--model", "{d}/model.json", "--points",
                    "{d}/pts_nan.csv", "--out", "{d}/iv.csv"), 2,
     "error: validation: point 0 maps outside [-1.0, 1.0] in dimension 0 "
     "(reference value nan)"),
    # interval: options and output
    ("alpha-above-one", INTERVAL + ("--model", "{d}/model.json", "--method", "jk",
                                    "--alpha", "1.5"), 2,
     "error: validation: significance must lie in (0, 1), got 1.5"),
    ("alpha-above-half", INTERVAL + ("--model", "{d}/model.json", "--alpha", "0.75"), 2,
     "error: validation: jackknife_plus needs significance <= 1/2, got 0.75"),
    ("alpha-nan", INTERVAL + ("--model", "{d}/model.json", "--alpha", "nan"), 2,
     "error: validation: significance must lie in (0, 1), got nan"),
    ("alpha-text", INTERVAL + ("--model", "{d}/model.json", "--alpha", "x"), 2,
     "confpce interval: error: argument --alpha: invalid float value: 'x'"),
    ("interval-out-unwritable", ("interval", "--model", "{d}/model.json", "--points",
                                 "{d}/pts.csv", "--out", "{d}/no/iv.csv"), 2,
     f"error: io: {NOT_FOUND}: '{{d}}/no/iv.csv'"),
    # experiment: config file
    ("config-missing", ("experiment", "--config", "{d}/no.json"), 2,
     f"error: validation: cannot read {{d}}/no.json: {NOT_FOUND}: '{{d}}/no.json'"),
    ("config-directory", ("experiment", "--config", "{d}/dir"), 2,
     f"error: validation: cannot read {{d}}/dir: {IS_DIR}: '{{d}}/dir'"),
    ("config-not-json", ("experiment", "--config", "{d}/config_text.json"), 2,
     "error: validation: malformed config JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    ("config-list", ("experiment", "--config", "{d}/config_list.json"), 2,
     "error: validation: config JSON must be an object"),
    ("config-unknown-field", ("experiment", "--config", "{d}/config_unknown.json"), 2,
     "error: validation: bad config: unknown config fields: ['bogus']"),
    ("config-missing-field", ("experiment", "--config", "{d}/config_required.json"), 2,
     "error: validation: bad config: config requires benchmark, degrees and oversampling"),
    ("config-unknown-benchmark", ("experiment", "--config", "{d}/config_benchmark.json"), 2,
     f"error: validation: bad config: unknown benchmark 'nope'; known: {KNOWN}"),
    ("config-empty-axis", ("experiment", "--config", "{d}/config_empty.json"), 2,
     "error: validation: bad config: degrees list must be non-empty"),
    ("config-negative-degree", ("experiment", "--config", "{d}/config_negative.json"), 2,
     "error: validation: bad config: degrees must be >= 0, got -1"),
    ("config-fractional-degree", ("experiment", "--config", "{d}/config_fraction.json"), 2,
     "error: validation: bad config: degrees needs integer values, got 2.5"),
    ("config-scalar-axis", ("experiment", "--config", "{d}/config_scalar.json"), 2,
     "error: validation: bad config: degrees must be a list, got 5"),
    ("config-string-axis", ("experiment", "--config", "{d}/config_methods.json"), 2,
     "error: validation: bad config: methods must be a list, got 'jackknife'"),
    ("config-unknown-method", ("experiment", "--config", "{d}/config_method.json"), 2,
     "error: validation: bad config: method must be one of ('jackknife', 'jackknife_plus'), "
     "got 'bogus'"),
    ("config-unknown-score", ("experiment", "--config", "{d}/config_score.json"), 2,
     "error: validation: bad config: score must be one of ('absolute', 'normalized'), "
     "got 'huber'"),
    ("config-string-significance", ("experiment", "--config", "{d}/config_alpha.json"), 2,
     "error: validation: bad config: significance must be a real number, got '0.05'"),
    ("config-significance-above-half", ("experiment", "--config", "{d}/config_half.json"), 2,
     "error: validation: bad config: jackknife_plus needs significance <= 1/2, got 0.75"),
    ("config-no-seeds", ("experiment", "--config", "{d}/config_seeds.json"), 2,
     "error: validation: bad config: n_seeds must be >= 1, got 0"),
    ("config-no-output", ("experiment", "--config", "{d}/config_output.json"), 2,
     "error: validation: no output directory: set 'output' in the config or pass --out"),
    ("config-output-type", ("experiment", "--config", "{d}/config_output_type.json"), 2,
     "error: validation: bad config: output must be a string or null, got 5"),
    ("config-oversized-test-set", ("experiment", "--config", "{d}/config_test_size.json"), 2,
     "error: validation: bad config: test_size 1000000000000000 needs 8000000000000000 bytes, "
     "exceeding the limit of 4294967296"),
    ("config-degree-over-size-limit", ("experiment", "--config", "{d}/config_big_degree.json"), 2,
     f"error: validation: bad config: {OVER_SIZE_LIMIT}"),
    ("config-design-over-fit-budget",
     ("experiment", "--config", "{d}/config_over_fit_budget.json"), 2,
     "error: validation: bad config: basis matrix of 38896 points by K=19448 terms, with its "
     "fit, needs 36309571584 bytes, exceeding the limit of 4294967296"),
    ("experiment-report-file-unwritable",
     ("experiment", "--config", "{d}/config_ok.json", "--out", "{d}/blocked"), 2,
     f"error: io: {IS_DIR}: '{{d}}/blocked/records.csv'"),
]


@pytest.fixture()
def contract_dir(tmp_path):
    (tmp_path / "dir").mkdir()
    (tmp_path / "blocked" / "records.csv").mkdir(parents=True)
    for name, text in CONTRACT_FILES.items():
        (tmp_path / name).write_text(text.replace("{d}", str(tmp_path)))
    return tmp_path


@pytest.mark.parametrize(
    "argv, code, line", [case[1:] for case in ERROR_CONTRACT], ids=[c[0] for c in ERROR_CONTRACT]
)
def test_error_contract(contract_dir, capsys, argv, code, line):
    d = str(contract_dir)
    # A warning would print to stderr beside the error line outside pytest.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*(arg.replace("{d}", d) for arg in argv)) == code
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any work, such as an experiment grid
    err = captured.err.splitlines()
    assert err[-1] == line.replace("{d}", d)
    if line.startswith("error: "):
        assert len(err) == 1
    assert not (contract_dir / "m.json").exists() and not (contract_dir / "iv.csv").exists()
    assert not (contract_dir / "report").exists()
