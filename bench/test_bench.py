"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Traced counts must repeat exactly for a seed, another seed must change the
generated inputs, and each workload's output check must reject a wrong
answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, Checker  # noqa: E402

SCHEMA = SRC / "geomqm" / "schema" / "report_schema.json"
COUNTS = {"kahler.eigensolve.iterations", "dynamics.flow.samples",
          "kernel.io.parse.bytes", "cli.bytes_written"}


def traced_counts(workload: str, seed: int) -> dict:
    # --seconds 0: the traced run stops as soon as its count window is full
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(".calls") or name in COUNTS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_for_a_seed(workload):
    first = traced_counts(workload, 7)
    assert traced_counts(workload, 7) == first
    assert first["cli.calls"] > 0 and first["cli.bytes_written"] > 0


def snapshot(workload: str, seed: int, workdir: Path):
    workdir.mkdir()
    op = WORKLOADS[workload].make_op(Checker(SCHEMA), seed, 1, workdir)
    calls = json.dumps(op.calls).replace(str(workdir), "<dir>")
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return calls, files


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_determines_inputs(workload, tmp_path):
    first = snapshot(workload, 1, tmp_path / "a")
    assert snapshot(workload, 1, tmp_path / "b") == first
    assert snapshot(workload, 2, tmp_path / "c") != first


def run_op(op):
    from geomqm import cli

    codes, outs = [], []
    for argv in op.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.run(argv))
        outs.append(buf.getvalue())
    return codes, outs


def test_checks_reject_wrong_outputs(tmp_path):
    checker = Checker(SCHEMA)
    ops = {name: w.make_op(checker, 3, 1, tmp_path) for name, w in WORKLOADS.items()
           if name != "evolve-pictures"}
    for name, op in ops.items():
        codes, outs = run_op(op)
        assert op.check(codes, outs) is None
        assert op.check([1], outs) is not None
        payload = json.loads(outs[0])
        payload["passed"] = False
        assert op.check(codes, [json.dumps(payload)]) is not None, name
        if name == "eigen-flow":
            payload = json.loads(outs[0])
            payload["results"]["eigenvalue"] += 1e-6
            assert op.check(codes, [json.dumps(payload)]) is not None

    op = WORKLOADS["evolve-pictures"].make_op(checker, 3, 1, tmp_path)
    codes, outs = run_op(op)
    assert op.check(codes, outs) is None
    traj = op.outputs[0]
    rows = traj.read_text().splitlines()
    last = rows[-1].split(",")
    last[1] = repr(float(last[1]) + 1e-6)
    traj.write_text("\n".join(rows[:-1] + [",".join(last)]) + "\n")
    assert op.check(codes, outs) is not None
