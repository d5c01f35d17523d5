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
eigensolver, whose steps minimize e_A over span{psi, grad e_A, last step}:
its critical points are eigenvectors and its critical values eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernel import (DimensionError, NumericalError, TAU_HERMITIAN, frobenius, is_hermitian,
                     make_rng, random_complex_vector_stack, random_hermitian_stack, relative,
                     require_matrix, require_same_dim, require_square, scalar_or_stack, unit_scale)
from .report import VerificationReport, run_suite
from . import dual

TAU_NORM = 1e-12
TAU_DEPENDENT = 1e-8  # relative norm below which a basis vector counts as dependent
STALL_WINDOW = 64  # iterations the eigensolver's residual may go without halving
HISTORY_POINTS = 64


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


# --- quadratic functions and their brackets ---------------------------------


def _apply(a, psi) -> np.ndarray:
    """A psi, the gradient of f_A at psi; over stacks of A and psi."""
    return (require_square(a) @ _as_vectors(psi)[..., None])[..., 0]


def f_quadratic(a, psi) -> float:
    """f_A(psi) = <psi|A psi>/2, whose gradient is A psi; arrays over stacks of A and psi."""
    psi = _as_vectors(psi)
    return _inner(psi, _apply(a, psi)).real / 2


class FunctionBrackets(NamedTuple):
    poisson: float
    symmetric: float
    hermitian: complex


def function_brackets(a, b, psi) -> FunctionBrackets:
    """The Poisson, metric and Hermitian brackets of f_A and f_B at psi.

    Evaluated from the exact gradients A psi and B psi.  The Hermitian bracket
    is symmetric + i*poisson, twice the star product pulled back through the
    momentum map; arrays over stacks of A, B and psi.
    """
    h = _inner(_apply(a, psi), _apply(b, psi))
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
    na, n2 = frobenius(a), _inner(psi, psi).real
    size_ab = na * frobenius(b) * n2  # the brackets' size; f_A does not involve B
    brackets = function_brackets(a, b, psi)
    hat = abs(dual.hat_eval(a, rho) - f_quadratic(a, psi))
    return {
        "pullback_hat_equals_quadratic": relative(hat, na * n2),
        "pullback_poisson_bracket": relative(abs(dual.lambda_eval(a, b, rho) - brackets.poisson),
                                             size_ab),
        "pullback_jordan_metric": relative(abs(dual.r_eval(a, b, rho) - brackets.symmetric),
                                           size_ab),
    }


def pullback_checks(a, b, psi, tol: float = 1e-9) -> VerificationReport:
    """The three momentum-map pullback identities at one point."""
    psi = _as_vector(psi)
    return run_suite("momentum-map pullback identities", psi.shape[0], 1, 0, tol,
                     lambda _: _pullback_residuals(a, b, psi))


def verify_pullbacks(n: int, trials: int, seed: int, tol: float = 1e-9) -> VerificationReport:
    """The pullback identities at seeded random observables and points of C^n."""
    a_rng, b_rng, psi_rng = (make_rng(seed, key) for key in (20, 21, 22))

    def trial(ks):
        m = len(ks)
        return _pullback_residuals(random_hermitian_stack(n, m, a_rng),
                                   random_hermitian_stack(n, m, b_rng),
                                   random_complex_vector_stack(n, m, psi_rng))

    return run_suite("momentum-map pullback identities", n, trials, seed, tol, trial)


# --- expectation, dispersion, eigensolving -----------------------------------


def _norm2(psi):
    """||psi||^2, or an array of them over a (..., n) stack; raises if any is near zero."""
    psi = _as_vectors(psi)
    n2 = _inner(psi, psi).real
    if np.any(n2 <= TAU_NORM**2):
        raise ValueError("state vector too close to zero")
    return n2


def expectation(a, psi):
    """Rayleigh quotient <psi|A psi>/<psi|psi>; scale invariant; an array over a (..., n) stack."""
    a, psi = require_matrix(a), _as_vectors(psi)
    psi = psi * unit_scale(psi)
    return _inner(psi, _apply(a, psi)).real / _norm2(psi)


def _centered(a, psi) -> tuple[np.ndarray, float]:
    """((A - e_A(psi)) psi, ||psi||^2), shared by the gradient of e_A and the dispersion."""
    a, psi = require_matrix(a), _as_vector(psi)
    n2 = _norm2(psi)
    apsi = a @ psi
    return apsi - float(np.vdot(psi, apsi).real / n2) * psi, n2


def dispersion(a, psi) -> float:
    """Variance <A^2> - <A>^2 in the (projectivized) state psi.

    Evaluated as ||(A - <A>) psi||^2 / ||psi||^2, which is non-negative and
    free of the cancellation between <A^2> and <A>^2.
    """
    psi = _as_vectors(psi)
    centered, n2 = _centered(a, psi * unit_scale(psi))
    return float(np.vdot(centered, centered).real / n2)


def gradient_field_e(a, psi) -> np.ndarray:
    """Metric gradient 2 (A - e_A) psi / ||psi||^2 of e_A; vanishes exactly at eigenvectors."""
    centered, n2 = _centered(a, psi)
    return (2.0 / n2) * centered


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
    residual_history: list[float]  # at most HISTORY_POINTS, first and last kept


def eigensolve_gradient_flow(
    a,
    psi0,
    tol: float = 1e-9,
    max_iter: int = 100_000,
    direction: str = "descent",
) -> EigensolveResult:
    """Extremal eigenpair by exact steps along the gradient flow of e_A.

    Each iteration minimizes (descent) or maximizes (ascent) e_A over the span
    of unit psi, its gradient 2 (A - e_A) psi and the previous step (LOBPCG with
    no preconditioner), so the critical points stay the eigenvectors of A.  Stops
    when ||A psi - e_A psi|| <= tol * ||A||_F, so the iterations do not depend on
    the scale of A; raises NumericalError when the residual has not halved in
    STALL_WINDOW iterations or max_iter runs out.  A must be finite and
    Hermitian, psi0 finite and nonzero; psi0 of any scale gives the result of
    its direction at unit scale.
    """
    a = require_matrix(a)
    if not is_hermitian(a, TAU_HERMITIAN):
        raise ValueError("operator must be finite and Hermitian")
    if direction not in ("ascent", "descent"):
        raise ValueError(f"direction must be 'ascent' or 'descent', got {direction!r}")
    psi = _as_vector(psi0)
    if not np.isfinite(psi).all():
        raise ValueError("start vector must be finite")
    psi = psi * unit_scale(psi)
    psi = psi / np.sqrt(_norm2(psi))
    unit = unit_scale(a, (-2, -1)).item()
    stop = tol * frobenius(a * unit) / unit  # tol * ||A||_F, whose squares cannot overflow
    pick = -1 if direction == "ascent" else 0
    step = np.zeros_like(psi)
    basis = np.empty((3, psi.shape[0]), dtype=complex)  # orthonormal rows, filled in place
    history = []
    residual, halved_at, target = np.inf, 0, np.inf
    for it in range(max_iter + 1):
        apsi = a @ psi
        ev = float(np.vdot(psi, apsi).real)
        r = apsi - ev * psi
        residual = math.sqrt(np.vdot(r, r).real)
        history.append(residual)
        if residual <= stop:
            keep = np.linspace(0, it, min(it + 1, HISTORY_POINTS)).round().astype(int)
            return EigensolveResult(ev, psi, it, residual, [history[k] for k in keep])
        if residual < target:  # never for an inf or NaN residual
            halved_at, target = it, residual / 2
        elif it - halved_at >= STALL_WINDOW:
            raise NumericalError(f"gradient flow stalled at iteration {it}", residual)
        # orthonormal basis of span{psi, r, step} by Gram-Schmidt applied twice (twice is
        # enough), dropping a column whose norm falls below TAU_DEPENDENT of its own
        basis[0] = psi
        rows = 1
        for _ in range(2):
            r = r - np.vdot(psi, r) * psi
        norm = math.sqrt(np.vdot(r, r).real)
        if norm > TAU_DEPENDENT * residual:
            basis[1] = r / norm
            rows = 2
        scale = math.sqrt(np.vdot(step, step).real)
        kept = basis[:rows]
        dual_rows = kept.conj()
        for _ in range(2):
            step = step - (dual_rows @ step) @ kept
        norm = math.sqrt(np.vdot(step, step).real)
        if norm > TAU_DEPENDENT * scale:
            basis[rows] = step / norm
            rows += 1
        kept = basis[:rows]
        c = np.linalg.eigh(kept.conj() @ a @ kept.T)[1][:, pick]
        psi = c @ kept
        psi = psi / math.sqrt(np.vdot(psi, psi).real)
        step = c[1:] @ kept[1:]  # the displacement less the old psi's component
    raise NumericalError("gradient flow did not converge", residual)
