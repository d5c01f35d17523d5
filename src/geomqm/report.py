"""Structured pass/fail records shared by all verification suites."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


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
    """Identity residuals plus everything needed to reproduce them."""

    title: str
    seed: int
    trials: int
    tol: float
    conventions: dict = field(default_factory=dict)
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
            "conventions": self.conventions,
            "checks": [c.to_dict() for c in self.checks],
            "details": _strict_json(self.details),
            "passed": self.passed,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

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


def run_suite(
    title: str,
    dim: int,
    trials: int,
    seed: int,
    tol: float,
    trial: Callable[[np.ndarray], dict],
    conventions: dict | None = None,
    details: dict | None = None,
) -> VerificationReport:
    """Run ``trial(ks)`` over the trial indices k < trials; keep each check's worst residual.

    ``trial(ks)`` takes an int array of indices and returns ``{check name:
    len(ks) scaled residuals}``.  Trial k's residuals come from the
    ``(seed, k, ...)`` RNG substreams alone, so any trial replays by itself.
    The indices arrive in order, in chunks of max(1, CHUNK_ELEMENTS // dim**2).
    Checks keep the first chunk's order.  NaN counts as worse than every
    number, so a suite that produces one fails; each check records the
    first trial at which its maximum occurs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    step = max(1, CHUNK_ELEMENTS // dim**2)
    worst: dict[str, tuple[float, int]] = {}
    for start in range(0, trials, step):
        ks = np.arange(start, min(start + step, trials))
        for name, values in trial(ks).items():
            values = np.asarray(values, dtype=float).reshape(ks.shape)
            i = int(np.argmax(values))  # the first NaN if there is one, else the first maximum
            value, k = float(values[i]), int(ks[i])
            # a later chunk takes over only when strictly worse; NaN is worse than any number
            if name not in worst or np.argmax([worst[name][0], value]) == 1:
                worst[name] = (value, k)
    report = VerificationReport(title=title, seed=seed, trials=trials, tol=tol,
                                conventions=conventions or {}, details=details or {})
    for name, (value, k) in worst.items():
        report.add(name, value, worst_trial=k)
    return report
