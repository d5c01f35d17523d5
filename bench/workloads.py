"""The benchmark's workloads: seeded inputs, the CLI calls of one op, and
the benchmark's own check of each op's output.

Inputs come from the benchmark's own `numpy.random.Generator` and are
written in the matrix JSON wire format by `write_matrix` below, never by
`geomqm.kernel`, whose RNG and serializer are layers under test.  Op `i` of
a run with seed `s` draws from the generator seeded by `(s, i)`, so any op
can be regenerated alone and the same seed gives the same inputs.

Each check returns None when the op's output is correct, else the reason.
References are computed independently of the package: eigenvalues and
propagators come from `numpy.linalg.eigh`, because the package's own oracle
is the Jacobi kernel under test.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Op:
    """One closed-loop op: CLI calls run back to back, then one check."""

    calls: list[list[str]]
    check: Callable[[list, list[str]], str | None]
    outputs: list[Path] = field(default_factory=list)  # files the CLI writes


def write_matrix(path: Path, m) -> None:
    """{"dim": n, "data": row-major rows of [re, im] pairs}; vectors as n x 1."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    data = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    path.write_text(json.dumps({"dim": int(m.shape[0]), "data": data}))


def op_rng(seed: int, op_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, op_id])


def gaussian_hermitian(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def unit_vector(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def cli_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


class Checker:
    """Output checks shared by the workloads; holds the report schema."""

    def __init__(self, schema_path: Path):
        import jsonschema

        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def report(self, text: str, command: str) -> tuple[dict | None, str | None]:
        """Parse a JSON report; require schema validity and every report passed."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return None, f"{command}: output is not JSON ({exc})"
        errors = [e.message for e in self.validator.iter_errors(payload)]
        if errors:
            return None, f"{command}: schema violation: {errors[0]}"
        if payload["command"] != command:
            return None, f"{command}: report is for {payload['command']!r}"
        if payload["passed"] is not True or not all(r["passed"] for r in payload["reports"]):
            return None, f"{command}: report did not pass"
        return payload, None


def _codes_ok(codes) -> str | None:
    if any(c != 0 for c in codes):
        return f"exit codes {codes}"
    return None


# --- verify-suite --------------------------------------------------------------

def verify_op(checker: Checker, seed: int, op_id: int, workdir: Path) -> Op:
    s = cli_seed(op_rng(seed, op_id))
    argv = ["verify", "--dim", "4", "--trials", "100", "--seed", str(s), "--json"]

    def check(codes, outs):
        err = _codes_ok(codes)
        if err:
            return err
        payload, err = checker.report(outs[0], "verify")
        if err:
            return err
        if payload["seed"] != s:
            return f"verify: report seed {payload['seed']} != {s}"
        return None

    return Op([argv], check)


# --- eigen-flow ----------------------------------------------------------------

EIGEN_DIM = 32


def eigen_op(checker: Checker, seed: int, op_id: int, workdir: Path) -> Op:
    rng = op_rng(seed, op_id)
    a = gaussian_hermitian(rng, EIGEN_DIM)
    s = cli_seed(rng)
    direction = ("descent", "ascent")[op_id % 2]
    path = workdir / "A.json"
    write_matrix(path, a)
    argv = ["eigen", "--operator", str(path), "--seed", str(s), "--json",
            "--direction", direction]

    def check(codes, outs):
        err = _codes_ok(codes)
        if err:
            return err
        payload, err = checker.report(outs[0], "eigen")
        if err:
            return err
        w = np.linalg.eigh(a)[0]
        ref = float(w[-1] if direction == "ascent" else w[0])
        got = float(payload["results"]["eigenvalue"])
        if not abs(got - ref) <= 1e-8 * max(1.0, abs(ref)):
            return f"eigen: eigenvalue {got!r} vs eigh reference {ref!r}"
        return None

    return Op([argv], check)


# --- evolve-pictures -----------------------------------------------------------

EVOLVE_DIM = 8
EVOLVE_T = 5.0
EVOLVE_STEPS = 64


def evolve_op(checker: Checker, seed: int, op_id: int, workdir: Path) -> Op:
    rng = op_rng(seed, op_id)
    h = gaussian_hermitian(rng, EVOLVE_DIM)
    psi = unit_vector(rng, EVOLVE_DIM)
    a0 = gaussian_hermitian(rng, EVOLVE_DIM)
    s = cli_seed(rng)
    files = {name: workdir / f"{name}.json" for name in ("H", "psi", "rho", "A0")}
    write_matrix(files["H"], h)
    write_matrix(files["psi"], psi)
    write_matrix(files["rho"], np.outer(psi, psi.conj()))
    write_matrix(files["A0"], a0)
    traj = workdir / "trajectory.csv"
    reports = [workdir / f"report-{p}.json" for p in ("schrodinger", "vonneumann", "heisenberg")]
    common = ["--hamiltonian", str(files["H"]), "--t", repr(EVOLVE_T),
              "--steps", str(EVOLVE_STEPS), "--seed", str(s), "--json"]
    calls = [
        ["evolve", "--picture", "schrodinger", "--initial", str(files["psi"]), *common,
         "--output", str(reports[0]), "--check-mu", "--csv", str(traj)],
        ["evolve", "--picture", "vonneumann", "--initial", str(files["rho"]), *common,
         "--output", str(reports[1])],
        ["evolve", "--picture", "heisenberg", "--initial", str(files["A0"]), *common,
         "--output", str(reports[2])],
    ]

    def check(codes, outs):
        err = _codes_ok(codes)
        if err:
            return err
        for path in reports:
            if not path.is_file():
                return f"evolve: {path.name} not written"
            _, err = checker.report(path.read_text(), "evolve")
            if err:
                return err
        if not traj.is_file():
            return "evolve: trajectory CSV not written"
        with traj.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != EVOLVE_STEPS + 2:
            return f"evolve: trajectory has {len(rows) - 1} samples"
        last = np.array([float(x) for x in rows[-1]])
        w, v = np.linalg.eigh(h)
        expected = v @ (np.exp(-1j * EVOLVE_T * w) * (v.conj().T @ psi))
        got = last[1::2] + 1j * last[2::2]
        if last[0] != EVOLVE_T or not np.max(np.abs(got - expected)) <= 1e-9:
            return "evolve: last trajectory row differs from the eigh propagator"
        return None

    return Op(calls, check, outputs=[traj, *reports])


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[Checker, int, int, Path], Op]
    count_ops: int  # traced ops whose counts form the per-layer count metrics


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-suite", verify_op, count_ops=4),
        Workload("evolve-pictures", evolve_op, count_ops=8),
        Workload("eigen-flow", eigen_op, count_ops=32),
    )
}
