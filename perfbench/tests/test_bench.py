"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

The exact-count check runs each workload's traced path twice at a tiny size
and requires every count metric to repeat exactly, so that a later change
can cite a count as evidence.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bootstrap  # noqa: E402

bootstrap.use_source()

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def traced_counts(name: str, workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed=3, workdir=workdir, tiny=True)
    with tracing.Tracer() as tracer:
        outcome = workloads.measure(workload, 0.0, tracer)
    assert outcome.failed == 0, outcome.errors
    return {k: outcome.layers[k] for k in tracing.COUNT_METRICS}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(name, tmp_path):
    first = traced_counts(name, tmp_path / "first")
    second = traced_counts(name, tmp_path / "second")
    assert first == second
    assert first["basis.eval.calls"] > 0


def test_tracer_restores_program_functions(tmp_path):
    from confpce import conformal, harness, pce

    originals = (harness.fit, conformal.loo_predict, pce.eval_basis_matrix)
    with tracing.Tracer():
        assert harness.fit is not originals[0]
        assert conformal.loo_predict is not originals[1]
        assert pce.eval_basis_matrix is not originals[2]
    assert (harness.fit, conformal.loo_predict, pce.eval_basis_matrix) == originals


def test_self_time_subtracts_direct_children():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["harness.run_cell", 1.0, 9.0, 0, 0],
        ["pce.fit", 2.0, 5.0, 1, 0],
        ["basis.eval_basis_matrix", 2.5, 3.0, 2, 0],
    ]
    self_s, wall, ops = tracing.layer_self_times(spans)
    assert (wall, ops) == (10.0, 1)
    assert self_s["op"] == 2.0
    assert self_s["harness.run_cell"] == 5.0
    assert self_s["pce.fit"] == 2.5
    assert self_s["basis.eval"] == 0.5


def test_raised_exception_and_wrong_output_count_as_failed():
    def boom():
        raise ValueError("broken")

    class Broken:
        def cycle(self):
            return [
                workloads.Op("raises", run=boom, check=lambda r: None),
                workloads.Op("wrong", run=lambda: 1, check=lambda r: "wrong output"),
                workloads.Op("right", run=lambda: 1, check=lambda r: None),
            ]

    outcome = workloads.measure(Broken(), 0.0)
    assert (outcome.attempted, outcome.failed) == (6, 4)


def test_record_comparison_flags_a_changed_width():
    want = {"n_unbounded": "0", "failure": "", "coverage": "0.95", "mean_width": "0.1",
            "median_width": "0.1", "rel_loo_error": "0.01"}
    assert workloads.compare_record(dict(want), want, 10_000) is None
    assert workloads.compare_record(dict(want, coverage="0.9501"), want, 10_000) is None
    assert workloads.compare_record(dict(want, median_width="0.1000001"), want, 10_000)
    assert workloads.compare_record(dict(want, coverage="0.9502"), want, 10_000)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
