"""Runs the confpce benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload {grid,query,cli} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the program is imported from the ``src`` directory next
to this one, and the run exits with code 2 if it is missing. A single
workload prints a run stamp, a summary line, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``all`` runs every workload untraced and then traced, each in a fresh
process, and adds the tracing overhead (the ops_per_s gap) and the share of
operation time no layer accounts for. Results, including the spans of
traced runs, are written under ``.bench_out/``.

See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

WORKLOAD_NAMES = ("grid", "query", "cli")

# Seed kept out of all tuning; use it only to confirm a claimed change.
HELDOUT_SEED = 9001

# Set-up runs once in this process and this many times in total.
SETUP_SAMPLES = 5

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.pin_blas()
    bootstrap.use_source()
    if args.workload == "all":
        return run_all(args)
    workdir = bootstrap.OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(args, workdir)[0]}))
            return 0
        return run_one(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_setup(args, workdir):
    """Import, input generation and (query) the model fit, timed."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    return time.perf_counter() - start, workload


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=bootstrap.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(args, workdir) -> int:
    setups = [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_s, workload = timed_setup(args, workdir)
    setups.append(setup_s)

    import confpce
    import tracer as tracing
    import workloads

    if not confpce.__file__.startswith(str(bootstrap.SRC)):
        raise RuntimeError(f"confpce imported from {confpce.__file__}, not {bootstrap.SRC}")
    tracer = tracing.Tracer() if args.trace else None
    with tracer if tracer is not None else contextlib.nullcontext():
        outcome = workloads.measure(workload, args.seconds, tracer)
    summary = workloads.summarize(outcome)
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": summary["ops_per_s"],
        "op_p50_ms": summary["op_p50_ms"],
        "op_tail_ms": summary["op_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in outcome.layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    run_stamp = stamp(args)
    record = {
        "stamp": run_stamp,
        "result": result,
        "end_to_end": e2e,
        "setup_samples_s": setups,
        "failed_share": outcome.failed / outcome.attempted,
        "summary": summary,
        "errors": outcome.errors[:20],
        "ops": [[kind, 1e3 * t] for kind, t in zip(outcome.kinds, outcome.latencies)],
        "layers": outcome.layers,
        "spans": outcome.spans,
    }
    path = bootstrap.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    print("stamp " + json.dumps(run_stamp))
    for err in outcome.errors[:5]:
        print(f"failed op: {err}", file=sys.stderr)
    print(describe(args.workload, e2e, summary, outcome.attempted, outcome.failed))
    if args.trace:
        print(f"{args.workload} traced: ops_per_s={outcome.layers['trace.ops_per_s']:.4g} 1/s, "
              f"unattributed={100 * outcome.layers['trace.unattributed_share']:.2f}% of op time")
    print(f"wrote {path}")
    print(json.dumps(result))
    return 0


def describe(workload, e2e, summary, attempted, failed) -> str:
    return (
        f"{workload}: setup_s={e2e['setup_s']:.4g} s  ops_per_s={e2e['ops_per_s']:.4g} 1/s  "
        f"op_p50_ms={e2e['op_p50_ms']:.4g} ms  op_tail_ms={e2e['op_tail_ms']:.4g} ms "
        f"(p{summary['op_tail_pct']:.1f} of {summary['ops']} ops, {summary['op_tail_beyond']} beyond)  "
        f"peak_rss_mb={e2e['peak_rss_mb']:.4g} MB  "
        f"failed_share={failed / attempted:.4g} share ({failed}/{attempted})"
    )


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    report = {}
    for name in WORKLOAD_NAMES:
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=bootstrap.ROOT)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise RuntimeError(f"{name} --trace {trace} exited with {proc.returncode}")
            path = bootstrap.OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            runs.append(json.loads(path.read_text()))
        plain, traced = runs
        overhead = 1.0 - traced["layers"]["trace.ops_per_s"] / plain["end_to_end"]["ops_per_s"]
        unattributed = traced["layers"]["trace.unattributed_share"]
        print(describe(name, plain["end_to_end"], plain["summary"],
                       plain["result"]["attempted"], plain["result"]["failed"]))
        print(f"{name}: tracing overhead={100 * overhead:.2f}% of ops_per_s, "
              f"unattributed={100 * unattributed:.2f}% of traced op time")
        report[name] = {"untraced": plain, "traced": traced, "trace_overhead": overhead}
        for r in runs:
            merged["correct"] &= r["result"]["correct"]
            merged["attempted"] += r["result"]["attempted"]
            merged["failed"] += r["result"]["failed"]
        for k, v in plain["result"]["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
        merged["metrics"][f"{name}.trace_overhead"] = {"value": overhead, "unit": "share"}
        merged["metrics"][f"{name}.unattributed"] = {"value": unattributed, "unit": "share"}
    path = bootstrap.OUT / f"all-seed{args.seed}.json"
    path.write_text(json.dumps(report) + "\n")
    print(f"wrote {path}")
    print(json.dumps(merged))
    return 0


def stamp(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one caller",
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def git_sha() -> str | None:
    """HEAD commit read from the .git directory; None outside a git checkout."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "confpce").rglob("*.py")):
        digest.update(path.relative_to(bootstrap.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_name() -> str | None:
    import numpy

    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return None


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports at run time, if its library is found."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib in sorted(os.listdir(libs)) if os.path.isdir(libs) else ():
        if "openblas" not in lib:
            continue
        handle = ctypes.CDLL(os.path.join(libs, lib))
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
