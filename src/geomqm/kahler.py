"""Symplectic/Kahler realization on C^n identified with R^2n.

State vectors psi split into real coordinates q = Re psi, p = Im psi.  A
real tangent (dq, dp) is stored as the complex vector dq + i dp, so the
flat Kahler triple becomes
  g(u, v)   = Re <u, v>        Euclidean metric
  omega(u,v)= Im <u, v>        symplectic form
  J(u)      = i u              complex structure,  omega(u,v) = g(Ju, v).

Quadratic functions f_A(psi) = <psi|A psi>/2 realize observables; the
momentum map psi -> |psi><psi| intertwines them with the dual-space
tensors and lands on the pure states.  The expectation function e_A
(Rayleigh quotient) drives the eigensolver, whose steps minimize e_A over
span{psi, grad e_A, last step}: its critical points are eigenvectors and its
critical values eigenvalues.  Every other function takes one vector or a
(..., n) stack of them, and one matrix or a stack; ``verify_pullbacks``
checks them on seeded inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernel import (DimensionError, NumericalError, TAU_HERMITIAN, dagger, eig_hermitian,
                     frobenius, is_hermitian, random_complex_vector, random_complex_vector_stack,
                     random_hermitian_stack, relative, require_matrix, require_same_dim,
                     require_square, scalar_or_stack, unit_scale)
from .report import CONVENTIONS, Suite, VerificationReport, run_suite
from . import dual

TAU_DEPENDENT = 1e-8  # relative norm below which a basis vector counts as dependent
STALL_WINDOW = 64  # iterations the eigensolver's residual may go without halving
HISTORY_POINTS = 64


def _as_vectors(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim < 1:
        raise DimensionError(f"expected a vector or a stack of them, got shape {psi.shape}")
    return psi


def _inner(u, v):
    """<u, v> over the last axis: a complex for two vectors, an array over stacks."""
    return scalar_or_stack((u.conj()[..., None, :] @ v[..., :, None])[..., 0, 0], complex)


def _unit(psi):
    """psi prescaled by unit_scale, its ||psi||^2 (at least 2^-106 unless psi is 0) and the
    scale, per row of a (..., n) stack; only a zero psi, or row, is rejected."""
    psi = _as_vectors(psi)
    scale = unit_scale(psi)
    psi = psi * scale
    n2 = _inner(psi, psi).real
    if np.any(n2 == 0):
        raise ValueError("state vector too close to zero: every entry is 0")
    return psi, n2, scale


def to_real(u) -> np.ndarray:
    """(dq, dp) coordinates of a complex tangent vector, or of each row of a stack."""
    u = _as_vectors(u)
    return np.concatenate([u.real, u.imag], axis=-1)


def g_eval(u, v):
    """Metric Re <u, v>; an array over stacks."""
    return _inner(_as_vectors(u), _as_vectors(v)).real


def omega_eval(u, v):
    """Symplectic form Im <u, v>; an array over stacks."""
    return _inner(_as_vectors(u), _as_vectors(v)).imag


def j_apply(u) -> np.ndarray:
    """Complex structure: (dq, dp) -> (-dp, dq)."""
    return 1j * _as_vectors(u)


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


def hamiltonian_field_f(a, psi) -> np.ndarray:
    """Hamiltonian vector field of f_A under omega: psi -> -i A psi = -J grad f_A."""
    return -j_apply(_apply(a, psi))


# --- momentum map ------------------------------------------------------------


def momentum_map(psi) -> np.ndarray:
    """psi -> |psi><psi| into the dual space; equivariant, trace = ||psi||^2; also over stacks."""
    psi = _as_vectors(psi)
    return psi[..., :, None] * psi[..., None, :].conj()


def _pullback_residuals(a, b, psi) -> dict:
    """The C^n suite's residuals at A, B and psi, or stacks of them; B is also the
    Hamiltonian of the equivariance check, and the Kahler triple is taken at X_{f_A}, B psi."""
    a, b = require_same_dim(a, b)
    psi = _as_vectors(psi)
    rho = momentum_map(psi)
    na, nb, n2 = frobenius(a), frobenius(b), _inner(psi, psi).real
    size_ab = na * nb * n2  # the brackets' size; f_A does not involve B
    brackets = function_brackets(a, b, psi)
    hat = abs(dual.hat_eval(a, rho) - f_quadratic(a, psi))
    # d mu_psi(X) = X psi^dag + psi X^dag along X = X_{f_B}, against the dual field of hat(B)
    x_psi = hamiltonian_field_f(b, psi)[..., :, None] * psi[..., None, :].conj()
    equivariance = frobenius(x_psi + dagger(x_psi) - dual.hamiltonian_field_dual(b, rho))
    idempotence = relative(frobenius(rho @ rho - np.expand_dims(n2, (-2, -1)) * rho), n2 * n2)
    trace = relative(abs(np.trace(rho, axis1=-2, axis2=-1).real - n2), n2)
    grad = gradient_field_e(a, psi)
    metric_law = abs(g_eval(grad, grad) * n2 - CONVENTIONS.kappa * dispersion(a, psi))
    u, v = hamiltonian_field_f(a, psi), _apply(b, psi)
    xu, xv, n = to_real(u), to_real(v), psi.shape[-1]
    # g and omega in the coordinates (q, p): x_u . x_v and x_u^T [[0, I], [-I, 0]] x_v
    g_real = (xu * xv).sum(-1)
    omega_real = (xu[..., :n] * xv[..., n:] - xu[..., n:] * xv[..., :n]).sum(-1)
    triple = np.maximum(abs(g_eval(u, v) - g_real), abs(omega_eval(u, v) - omega_real))
    return {
        "pullback_hat_equals_quadratic": relative(hat, na * n2),
        "pullback_poisson_bracket": relative(abs(dual.lambda_eval(a, b, rho) - brackets.poisson),
                                             size_ab),
        "pullback_jordan_metric": relative(abs(dual.r_eval(a, b, rho) - brackets.symmetric),
                                           size_ab),
        "momentum_map_equivariance": relative(equivariance, nb * n2),
        "momentum_map_pure_state": np.maximum(idempotence, trace),
        "metric_length_law": relative(metric_law, na * na),
        "kahler_triple_real_coordinates": relative(triple, np.linalg.norm(u, axis=-1)
                                                   * np.linalg.norm(v, axis=-1)),
    }


PULLBACKS = Suite("momentum-map pullback identities",
                  {"a": (20, random_hermitian_stack), "b": (21, random_hermitian_stack),
                   "psi": (22, random_complex_vector_stack)}, _pullback_residuals)
EIGEN_START = 33  # eigen_report's start-vector substream (seed, 33): apart from every suite key


def verify_pullbacks(n: int, trials: int, seed: int, tol: float = 1e-9) -> VerificationReport:
    """The momentum-map pullbacks, equivariance and image, the metric-length law and the
    Kahler triple in real coordinates, at seeded random observables and points of C^n."""
    return run_suite(PULLBACKS, n, trials, seed, tol)


# --- expectation, dispersion, eigensolving -----------------------------------


def expectation(a, psi):
    """Rayleigh quotient <psi|A psi>/<psi|psi>; scale invariant; arrays over stacks of A and psi."""
    psi, n2, _ = _unit(psi)
    return _inner(psi, _apply(a, psi)).real / n2


def _deviation(a, psi):
    """(A - <A>) psi at psi prescaled as by _unit, with that psi's ||psi||^2 and the scale."""
    psi, n2, scale = _unit(psi)
    apsi = _apply(a, psi)
    return apsi - np.expand_dims(_inner(psi, apsi).real / n2, -1) * psi, n2, scale


def dispersion(a, psi):
    """Variance <A^2> - <A>^2 in the (projectivized) state psi; arrays over stacks of A and psi.

    Evaluated as ||(A - <A>) psi||^2 / ||psi||^2, which is non-negative and
    free of the cancellation between <A^2> and <A>^2.
    """
    centered, n2, _ = _deviation(a, psi)
    return _inner(centered, centered).real / n2


def gradient_field_e(a, psi) -> np.ndarray:
    """Metric gradient 2 (A - e_A) psi / ||psi||^2 of e_A; vanishes exactly at eigenvectors.

    psi is prescaled by a power of two, so the gradient at 2^k psi is 2^-k times that at psi.
    """
    centered, n2, scale = _deviation(a, psi)
    return np.expand_dims(2.0 / n2, -1) * centered * scale


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
    no preconditioner), so the critical points stay the eigenvectors of A.  It runs on
    A prescaled by an exact power of two, so A 2^k takes the same iterations to the
    same eigenvector.  Stops when ||A psi - e_A psi|| <= tol * ||A||_F; raises
    NumericalError when the residual has not halved in STALL_WINDOW iterations or
    max_iter runs out.  A must be finite and Hermitian, psi0 finite and nonzero;
    psi0 of any scale gives the result of its direction at unit scale.
    """
    a = require_matrix(a)
    if not is_hermitian(a, TAU_HERMITIAN):
        raise ValueError("operator must be finite and Hermitian")
    if direction not in ("ascent", "descent"):
        raise ValueError(f"direction must be 'ascent' or 'descent', got {direction!r}")
    psi = _as_vectors(psi0)
    if psi.shape != a.shape[-1:]:
        raise DimensionError(f"expected one start vector of length {len(a)}, got {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("start vector must be finite")
    psi, n2, _ = _unit(psi)
    psi = psi / np.sqrt(n2)
    unit = unit_scale(a, (-2, -1)).item()
    a = a * unit  # scaled back on return
    stop = tol * frobenius(a)
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
        history.append(residual / unit)
        if residual <= stop:
            keep = np.linspace(0, it, min(it + 1, HISTORY_POINTS)).round().astype(int)
            return EigensolveResult(ev / unit, psi, it, residual / unit, [history[k] for k in keep])
        if residual < target:  # never for an inf or NaN residual
            halved_at, target = it, residual / 2
        elif it - halved_at >= STALL_WINDOW:
            raise NumericalError(f"gradient flow stalled at iteration {it}", residual / unit)
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
    raise NumericalError("gradient flow did not converge", residual / unit)


def eigen_report(a, seed: int, tol: float, max_iter: int,
                 direction: str) -> tuple[VerificationReport, dict]:
    """The flow's eigenpair of A from the start vector (seed, EIGEN_START), against eig_hermitian:
    the residual and oracle gap relative to ||A||_F, the dispersion to ||A||_F^2, at unit scale."""
    a = require_matrix(a)
    psi0 = random_complex_vector(a.shape[0], seed, EIGEN_START)
    res = eigensolve_gradient_flow(a, psi0, tol=tol, max_iter=max_iter, direction=direction)
    unit = unit_scale(a, (-2, -1)).item()
    a = a * unit  # exact, so that no size under- or overflows
    reference = float(eig_hermitian(a).eigenvalues[-1 if direction == "ascent" else 0])
    disp = dispersion(a, res.eigenvector)
    rep = VerificationReport(title="gradient-flow eigensolve", seed=seed, trials=1, tol=tol,
                             details={"direction": direction, "iterations": res.iterations})
    size = frobenius(a)
    rep.add("eigen_residual", relative(res.residual * unit, size))
    rep.add("oracle_agreement", relative(abs(res.eigenvalue * unit - reference), size),
            tol=max(tol, 1e-8))
    rep.add("dispersion_at_convergence", relative(disp, size**2), tol=max(tol, 1e-8))
    return rep, {"eigenvalue": res.eigenvalue, "oracle_eigenvalue": reference / unit,
                 "iterations": res.iterations, "residual": res.residual,
                 "residual_history": res.residual_history, "dispersion": disp / unit / unit,
                 "eigenvector_re": res.eigenvector.real.tolist(),
                 "eigenvector_im": res.eigenvector.imag.tolist()}
