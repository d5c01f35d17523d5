"""Structured pass/fail records shared by all verification suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .kernel import make_rng


def _strict_json(value):
    """Non-finite floats, also inside dicts and lists, as their text: strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


@dataclass(frozen=True)
class ConventionSet:
    """Frozen normalization constants; recorded in every report."""

    hbar: float = 1.0
    lie_sign: str = "[A,B]_- = -i(AB - BA)"
    # ratio G(de_A, de_A) / dispersion on unit vectors, fixed by an n=2 finite-difference
    # oracle in the tests; verify checks it as kahler's metric_length_law
    kappa: float = 4.0

    def to_dict(self) -> dict:
        return {"hbar": self.hbar, "lie_sign": self.lie_sign, "kappa": self.kappa}


CONVENTIONS = ConventionSet()


@dataclass(frozen=True)
class IdentityCheck:
    """Residual of one identity over a batch of trials."""

    name: str
    max_residual: float
    tol: float
    worst_trial: int | None = None  # first trial reaching max_residual

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "max_residual": _strict_json(self.max_residual),
            "tol": self.tol,
            "passed": self.passed,
        }
        if self.worst_trial is not None:
            out["worst_trial"] = self.worst_trial
        return out


@dataclass
class VerificationReport:
    """Identity residuals plus everything needed to reproduce them, CONVENTIONS included."""

    title: str
    seed: int
    trials: int
    tol: float
    checks: list[IdentityCheck] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def add(self, name: str, max_residual: float, tol: float | None = None,
            worst_trial: int | None = None) -> IdentityCheck:
        check = IdentityCheck(name, float(max_residual), float(self.tol if tol is None else tol),
                              worst_trial)
        self.checks.append(check)
        return check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "seed": self.seed,
            "trials": self.trials,
            "tol": self.tol,
            "conventions": CONVENTIONS.to_dict(),
            "checks": [c.to_dict() for c in self.checks],
            "details": _strict_json(self.details),
            "passed": self.passed,
        }

    def summary(self) -> str:
        lines = [f"{self.title}  (seed={self.seed}, trials={self.trials}, tol={self.tol:g})"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            where = "" if c.worst_trial is None else f" at trial {c.worst_trial}"
            lines.append(f"  [{status}] {c.name}: max residual {c.max_residual:.3e}{where} "
                         f"(tol {c.tol:g})")
        lines.append(f"  => {'all identities pass' if self.passed else 'FAILURES present'}")
        return "\n".join(lines)


CHUNK_ELEMENTS = 2**14  # matrix entries per chunk: a suite's memory does not grow with trials


class Suite(NamedTuple):
    """A randomized suite as data: ``run_suite`` draws its inputs, ``replay`` any one trial's."""

    title: str
    inputs: dict  # name -> (key, draw): substream (seed, key), draw(n, m, rng) its next m rows
    residuals: Callable[..., dict]  # rows by name -> {check name: one residual per row}
    min_dim: int = 1  # verify_row runs the row at max(min_dim, n)
    split: Callable[..., list] | None = None  # (row, dim, report) -> the reports published


def _chunks(suite: Suite, dim: int, trials: int, seed: int):
    """(trial indices, rows by name) per chunk of max(1, CHUNK_ELEMENTS // dim**2) trials;
    each input's generator is made once, so trial k's input is row k however they are chunked."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    step = max(1, CHUNK_ELEMENTS // dim**2)
    rngs = {name: (make_rng(seed, key), draw) for name, (key, draw) in suite.inputs.items()}
    for start in range(0, trials, step):
        ks = np.arange(start, min(start + step, trials))
        yield ks, {name: draw(dim, len(ks), rng) for name, (rng, draw) in rngs.items()}


def replay(suite: Suite, dim: int, seed: int, k: int) -> dict:
    """Trial k's inputs by name, each a stack of one row, as ``suite.residuals`` takes them."""
    for _, rows in _chunks(suite, dim, k + 1, seed):
        pass
    return {name: row[-1:] for name, row in rows.items()}


def run_suite(suite: Suite, dim: int, trials: int, seed: int, tol: float,
              details: dict | None = None) -> VerificationReport:
    """Each check's worst residual over trials 0..trials-1, and the first trial reaching it.

    Rejects trials < 1 and dim < 1 before any input is drawn.  Checks keep the
    first chunk's order; NaN counts as worse than every number, so a suite
    that produces one fails.  The report records CONVENTIONS itself.
    """
    values: dict[str, list[np.ndarray]] = {}  # check name -> its residuals, chunk by chunk
    for ks, rows in _chunks(suite, dim, trials, seed):
        for name, chunk in suite.residuals(**rows).items():
            values.setdefault(name, []).append(np.asarray(chunk, dtype=float).reshape(ks.shape))
    report = VerificationReport(title=suite.title, seed=seed, trials=trials, tol=tol,
                                details=details or {})
    for name, chunks in values.items():
        trial_values = np.concatenate(chunks)
        k = int(np.argmax(trial_values))  # the first NaN if there is one, else the first maximum
        report.add(name, trial_values[k], worst_trial=k)
    return report


def verify_row(row: Suite, n: int, trials: int, seed: int, tol: float) -> list[VerificationReport]:
    """The reports that verify publishes for a declared row, run at max(row.min_dim, n), whose
    details record that dimension as "dim"; rejects n < 1 before any input is drawn, whatever
    the row's ``min_dim``."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    dim = max(row.min_dim, n)
    report = run_suite(row, dim, trials, seed, tol, {"dim": dim})
    return [report] if row.split is None else row.split(row, dim, report)
