#!/usr/bin/env python3
"""Benchmark of the geomqm CLI, driven in-process through `geomqm.cli.run`.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

One client runs a closed loop: the next op starts when the previous one
and its output check have finished.  Every op is checked by the benchmark's
own code (see workloads.py); the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1
alternates traced and untraced ops and reports the per-layer metrics (see
tracer.py) plus the tracing overhead.  `--workload all` runs every workload
both ways in child processes and prints every metric by name and unit.

The package is imported from `src/` of the checkout this file lives in; the
benchmark exits with code 2 before measuring anything if it is not there.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin the BLAS pool before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SCHEMA = SRC / "geomqm" / "schema" / "report_schema.json"

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
PROBE_LOOP = 200_000

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# a fresh interpreter that imports geomqm.cli and runs the calls of one op
SETUP_CHILD = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from geomqm import cli
codes, outs = [], []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.run(argv))
    outs.append(buf.getvalue())
print(json.dumps({"codes": codes, "outs": outs}))
"""


def host_probe(reps: int = 5) -> list[float]:
    """Seconds per run of a fixed pure-Python loop; diagnostic only."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return times


def environment() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


class Runner:
    """Runs the ops of one workload and keeps the tallies of one run."""

    def __init__(self, workload, seed: int, workdir: Path):
        from workloads import Checker

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.checker = Checker(SCHEMA)
        self.attempted = 0
        self.failed = 0

    def make_op(self, op_id: int):
        return self.workload.make_op(self.checker, self.seed, op_id, self.workdir)

    def account(self, op_id: int, op, codes, outs) -> None:
        self.attempted += 1
        reason = op.check(codes, outs)
        if reason is not None:
            self.failed += 1
            print(f"op {op_id} failed its check: {reason}", file=sys.stderr)

    def in_process(self, op) -> tuple[float, list, list[str]]:
        from geomqm import cli

        for path in op.outputs:
            path.unlink(missing_ok=True)
        codes, outs = [], []
        t0 = time.perf_counter()
        try:
            for argv in op.calls:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.run(argv))
                outs.append(buf.getvalue())
        except Exception:
            traceback.print_exc()
            codes.append("exception")
        return time.perf_counter() - t0, codes, outs

    def fresh_interpreter(self, op) -> tuple[float, list, list[str]]:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(op.calls)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return wall, [f"interpreter exit {proc.returncode}"], []
        result = json.loads(proc.stdout.splitlines()[-1])
        return wall, result["codes"], result["outs"]

    def bytes_written(self, op, outs) -> int:
        return (sum(len(o.encode()) for o in outs)
                + sum(p.stat().st_size for p in op.outputs if p.is_file()))


def tail(latencies: list[float]) -> dict:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {"value": ordered[n - 1 - beyond], "percentile": 100.0 * (n - beyond) / n,
            "samples": n, "beyond": beyond}


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    op0 = runner.make_op(0)
    setups = []
    for _ in range(SETUP_REPEATS):
        wall, codes, outs = runner.fresh_interpreter(op0)
        runner.account(0, op0, codes, outs)
        setups.append(wall)
    # warm-up: first-call costs inside the process are paid before timing
    _, codes, outs = runner.in_process(op0)
    runner.account(0, op0, codes, outs)

    latencies = []
    op_id = 1
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        op = runner.make_op(op_id)
        wall, codes, outs = runner.in_process(op)
        runner.account(op_id, op, codes, outs)
        latencies.append(wall)
        op_id += 1

    t = tail(latencies)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": t["value"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extras = {
        "latency_tail": t,
        "setup_samples_s": setups,
        "latencies_s": latencies,
        "failed_ops_ratio": runner.failed / runner.attempted,
    }
    return metrics, extras


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from tracer import COUNTER_NAMES, GROUP_NAMES, SPANLESS, Tracer

    op0 = runner.make_op(0)
    _, codes, outs = runner.in_process(op0)
    runner.account(0, op0, codes, outs)

    tracer = Tracer()
    traced, untraced_walls = [], []
    op_id = 1
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(traced) < runner.workload.count_ops):
        op = runner.make_op(op_id)
        if op_id % 2:
            tracer.install()
            try:
                tracer.begin_op(op_id)
                wall, codes, outs = runner.in_process(op)
                stats = tracer.end_op()
            finally:
                tracer.uninstall()
            stats["wall_s"] = wall
            stats["bytes_written"] = runner.bytes_written(op, outs)
            traced.append(stats)
        else:
            wall, codes, outs = runner.in_process(op)
            untraced_walls.append(wall)
        runner.account(op_id, op, codes, outs)
        op_id += 1
    tracer.write_spans(spans_path)

    # counts: per-op mean over a fixed window of traced ops, so they repeat
    # exactly for a seed; times: per-op mean over every traced op of the run
    window = traced[: runner.workload.count_ops]
    metrics = {}
    for g in GROUP_NAMES:
        metrics[f"{g}.calls"] = statistics.fmean(s["calls"][g] for s in window)
        metrics[f"{g}.self_s"] = statistics.fmean(s["self_s"][g] for s in traced)
    for c in COUNTER_NAMES:
        metrics[c] = statistics.fmean(s["counters"][c] for s in window)
    metrics["cli.bytes_written"] = statistics.fmean(s["bytes_written"] for s in window)
    eig_calls = sum(s["calls"]["kernel.eig_hermitian"] for s in traced)
    eig_self = sum(s["self_s"]["kernel.eig_hermitian"] for s in traced)
    metrics["kernel.eig_hermitian.s_per_call"] = eig_self / eig_calls if eig_calls else 0.0
    traced_walls = [s["wall_s"] for s in traced]
    metrics["trace.op_wall_s"] = statistics.fmean(traced_walls)
    metrics["trace.unattributed_s"] = statistics.fmean(
        s["wall_s"] - sum(s["self_s"].values()) for s in traced)
    metrics["trace.ops_per_s_traced"] = len(traced_walls) / sum(traced_walls)
    metrics["trace.ops_per_s_untraced"] = len(untraced_walls) / sum(untraced_walls)
    metrics["trace.slowdown"] = (metrics["trace.ops_per_s_untraced"]
                                 / metrics["trace.ops_per_s_traced"])
    extras = {
        "traced_ops": len(traced),
        "untraced_ops": len(untraced_walls),
        "count_window_ops": len(window),
        "spans_recorded": len(tracer.span_name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spanless_functions": sorted(SPANLESS),
        "unmapped_functions": tracer.unmapped,
    }
    return metrics, extras


def layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return {"trace.op_wall_s": "s/op", "trace.unattributed_s": "s/op",
                "trace.slowdown": "ratio"}.get(name, "1/s")
    if name.endswith(".s_per_call"):
        return "s"
    suffix = name.rsplit(".", 1)[1]
    return {"calls": "calls/op", "self_s": "s/op", "bytes": "B/op", "bytes_written": "B/op",
            "iterations": "iter/op", "nonconverged": "count/op",
            "samples": "samples/op"}[suffix]


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(WORKLOADS[workload], seed, workdir)
    env = environment()
    probe_before = host_probe()
    if trace:
        metrics, extras = run_traced(runner, seconds, workdir / "spans.npz")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, extras = run_untraced(runner, seconds)
        units = END_TO_END_UNITS
    probe_after = host_probe()

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "host_probe_before_s": probe_before,
              "host_probe_after_s": probe_after, "metrics": metrics, "extras": extras}
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {workload} seed={seed} trace={int(trace)}  {json.dumps(env)}")
    print(f"# host probe (s per {PROBE_LOOP}-step loop): before median "
          f"{statistics.median(probe_before):.4f}, after median "
          f"{statistics.median(probe_after):.4f}")
    for name, value in metrics.items():
        print(f"{workload}  {name} = {value:.6g} {units[name]}")
    if not trace:
        t = extras["latency_tail"]
        print(f"{workload}  latency_tail_s is p{t['percentile']:.1f} of {t['samples']} "
              f"ops ({t['beyond']} beyond)")
        print(f"{workload}  failed_ops_ratio = {extras['failed_ops_ratio']:.6g} ratio")
    else:
        print(f"{workload}  traced ops {extras['traced_ops']}, untraced ops "
              f"{extras['untraced_ops']}, counts over the first {extras['count_window_ops']} "
              f"traced ops, {extras['spans_recorded']} spans in {extras['spans_file']}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines() or [""]
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                result = {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} trace={trace}: FAILED (exit {proc.returncode}, "
                      f"{result.get('failed')} of {result.get('attempted')} ops failed)")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geomqm" / "cli.py").is_file():
        print(f"error: no geomqm package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geomqm

    if SRC.resolve() not in Path(geomqm.__file__).resolve().parents:
        print(f"error: geomqm was imported from {geomqm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
