"""Symplectic/Kahler realization on C^n identified with R^2n.

State vectors psi split into real coordinates q = Re psi, p = Im psi.  A
real tangent (dq, dp) is stored as the complex vector dq + i dp, so the
flat Kahler triple becomes
  g(u, v)   = Re <u, v>        Euclidean metric
  omega(u,v)= Im <u, v>        symplectic form
  J(u)      = i u              complex structure,  omega(u,v) = g(Ju, v).

Quadratic functions f_A(psi) = <psi|A psi>/2 realize observables; the
momentum map psi -> |psi><psi| intertwines them with the dual-space
tensors.  The expectation function e_A (Rayleigh quotient) drives the
gradient-flow eigensolver: its critical points are eigenvectors and its
critical values eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import CONVENTIONS
from .kernel import (
    DimensionError,
    NumericalError,
    frobenius,
    random_complex_vector,
    random_hermitian_stack,
    require_matrix,
    require_same_dim,
    require_square,
    scalar_or_stack,
)
from .report import VerificationReport, run_suite
from . import dual

TAU_NORM = 1e-12


def _as_vector(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {psi.shape}")
    return psi


def _as_vectors(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim < 1:
        raise DimensionError(f"expected a vector or a stack of them, got shape {psi.shape}")
    return psi


def _inner(u, v):
    """<u, v> over the last axis: a complex for two vectors, an array over stacks."""
    return scalar_or_stack((u.conj()[..., None, :] @ v[..., :, None])[..., 0, 0], complex)


def _pair(u, v):
    u, v = _as_vector(u), _as_vector(v)
    if u.shape != v.shape:
        raise DimensionError(f"length mismatch: {u.shape[0]} vs {v.shape[0]}")
    return u, v


def to_real(u) -> np.ndarray:
    """(dq, dp) coordinates of a complex tangent vector."""
    u = _as_vector(u)
    return np.concatenate([u.real, u.imag])


def from_real(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.shape[0] // 2
    return x[:n] + 1j * x[n:]


def g_eval(u, v) -> float:
    u, v = _pair(u, v)
    return float(np.vdot(u, v).real)


def omega_eval(u, v) -> float:
    u, v = _pair(u, v)
    return float(np.vdot(u, v).imag)


def j_apply(u) -> np.ndarray:
    """Complex structure: (dq, dp) -> (-dp, dq)."""
    return 1j * _as_vector(u)


# --- quadratic and rational scalar fields ------------------------------------


class QuadraticForm:
    """f_A(psi) = <psi|A psi>/2 with its exact gradient A psi; also over stacks of A and psi."""

    def __init__(self, a):
        self.a = require_square(a)

    def value(self, psi):
        return _inner(np.asarray(psi, dtype=complex), self.gradient(psi)).real / 2

    def gradient(self, psi) -> np.ndarray:
        return (self.a @ _as_vectors(psi)[..., None])[..., 0]


class RayleighQuotient:
    """e_A(psi) = <psi|A psi>/<psi|psi> with its exact gradient."""

    def __init__(self, a):
        self.a = require_matrix(a)

    def value(self, psi) -> float:
        return expectation(self.a, psi)

    def gradient(self, psi) -> np.ndarray:
        psi = _as_vector(psi)
        norm2 = float(np.vdot(psi, psi).real)
        if norm2 <= TAU_NORM**2:
            raise ValueError("gradient of e_A undefined near the origin")
        return (2.0 / norm2) * (self.a @ psi - self.value(psi) * psi)


def f_quadratic(a, psi) -> float:
    return QuadraticForm(a).value(psi)


class FunctionBrackets(NamedTuple):
    poisson: float
    symmetric: float
    hermitian: complex


def function_brackets(f1, f2, psi) -> FunctionBrackets:
    """The Poisson, metric and Hermitian brackets of two scalar fields.

    Evaluated from exact gradients.  The Hermitian bracket decomposes as
    symmetric + i*poisson; for quadratic fields it equals twice the star
    product pulled back through the momentum map; arrays over stacks of points.
    """
    h = _inner(f1.gradient(psi), f2.gradient(psi))
    return FunctionBrackets(poisson=h.imag, symmetric=h.real, hermitian=h)


# --- momentum map ------------------------------------------------------------


def momentum_map(psi) -> np.ndarray:
    """psi -> |psi><psi| into the dual space; equivariant, trace = ||psi||^2; also over stacks."""
    psi = _as_vectors(psi)
    return psi[..., :, None] * psi[..., None, :].conj()


def _pullback_residuals(a, b, psi) -> dict:
    a, b = require_same_dim(a, b)
    psi = _as_vectors(psi)
    rho = momentum_map(psi)
    fa, fb = QuadraticForm(a), QuadraticForm(b)
    scale = np.maximum(1.0, frobenius(a) * frobenius(b) * _inner(psi, psi).real)
    brackets = function_brackets(fa, fb, psi)
    return {
        "pullback_hat_equals_quadratic": abs(dual.hat_eval(a, rho) - fa.value(psi)) / scale,
        "pullback_poisson_bracket": abs(dual.lambda_eval(a, b, rho) - brackets.poisson) / scale,
        "pullback_jordan_metric": abs(dual.r_eval(a, b, rho) - brackets.symmetric) / scale,
    }


def pullback_checks(a, b, psi, tol: float = 1e-9) -> VerificationReport:
    """The three momentum-map pullback identities at one point."""
    psi = _as_vector(psi)
    return run_suite("momentum-map pullback identities", psi.shape[0], 1, 0, tol,
                     lambda _: _pullback_residuals(a, b, psi),
                     conventions=CONVENTIONS.to_dict())


def verify_pullbacks(n: int, trials: int, seed: int, tol: float = 1e-9) -> VerificationReport:
    """The pullback identities at seeded random observables and points of C^n."""

    def trial(ks):
        return _pullback_residuals(random_hermitian_stack(n, seed, ks, 20),
                                   random_hermitian_stack(n, seed, ks, 21),
                                   np.array([random_complex_vector(n, seed, k, 22) for k in ks]))

    return run_suite("momentum-map pullback identities", n, trials, seed, tol, trial,
                     conventions=CONVENTIONS.to_dict())


# --- expectation, dispersion, eigensolving -----------------------------------


def _norm2(psi) -> float:
    psi = _as_vector(psi)
    n2 = float(np.vdot(psi, psi).real)
    if n2 <= TAU_NORM**2:
        raise ValueError("state vector too close to zero")
    return n2


def expectation(a, psi) -> float:
    """Rayleigh quotient <psi|A psi>/<psi|psi>; scale invariant."""
    a = require_matrix(a)
    return float(np.vdot(psi, a @ psi).real / _norm2(psi))


def dispersion(a, psi) -> float:
    """Variance <A^2> - <A>^2 in the (projectivized) state psi.

    Evaluated as ||(A - <A>) psi||^2 / ||psi||^2, which is non-negative and
    free of the cancellation between <A^2> and <A>^2.
    """
    a = require_matrix(a)
    psi = _as_vector(psi)
    n2 = _norm2(psi)
    apsi = a @ psi
    mean = float(np.vdot(psi, apsi).real / n2)
    centered = apsi - mean * psi
    return float(np.vdot(centered, centered).real / n2)


def gradient_field_e(a, psi) -> np.ndarray:
    """Metric gradient of e_A; vanishes exactly at eigenvectors."""
    return RayleighQuotient(a).gradient(psi)


def hamiltonian_field_e(a, psi) -> np.ndarray:
    """Symplectic partner of the gradient field: J applied to it."""
    return j_apply(gradient_field_e(a, psi))


def hamiltonian_field_f(a, psi) -> np.ndarray:
    """Hamiltonian vector field of f_A under omega: psi -> -i A psi."""
    a = require_matrix(a)
    return -1j * (a @ _as_vector(psi))


@dataclass(frozen=True)
class EigensolveResult:
    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    residual: float


def eigensolve_gradient_flow(
    a,
    psi0,
    step: float | None = None,
    tol: float = 1e-9,
    max_iter: int = 100_000,
    direction: str = "descent",
    deflate: list | None = None,
) -> EigensolveResult:
    """Extremal eigenpair by the normalized gradient flow of e_A.

    Fixed-step ascent/descent along the exact gradient, renormalizing each
    iteration; terminates when ||A psi - e_A(psi) psi|| <= tol.  ``deflate``
    restricts the flow to the orthogonal complement of previously found
    eigenvectors, extending the critical-point picture to interior
    eigenvalues.
    """
    a = require_matrix(a)
    if direction not in ("ascent", "descent"):
        raise ValueError(f"direction must be 'ascent' or 'descent', got {direction!r}")
    sign = 1.0 if direction == "ascent" else -1.0
    if step is None:
        step = 0.1 / max(frobenius(a), TAU_NORM)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")

    deflate = [np.asarray(v, dtype=complex) for v in (deflate or [])]

    def project(v):
        for w in deflate:
            v = v - (np.vdot(w, v) / np.vdot(w, w)) * w
        return v

    psi = project(_as_vector(psi0).copy())
    psi = psi / np.sqrt(_norm2(psi))
    residual = float("inf")
    for it in range(max_iter + 1):
        apsi = a @ psi
        ev = float(np.vdot(psi, apsi).real)
        r = project(apsi - ev * psi)
        residual = float(np.linalg.norm(r))
        if residual <= tol:
            return EigensolveResult(eigenvalue=ev, eigenvector=psi, iterations=it, residual=residual)
        psi = psi + sign * step * 2.0 * r
        psi = project(psi)
        psi = psi / np.linalg.norm(psi)
    raise NumericalError("gradient flow did not converge", residual)
