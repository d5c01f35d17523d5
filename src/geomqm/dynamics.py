"""Time evolution in the three equivalent pictures.

Exact propagation goes through one spectral decomposition of H and the
resulting unitary U(t) = exp(-i t H / hbar):
  Schrodinger:  psi(t) = U(t) psi0
  Heisenberg:   A(t)   = U(t)^dag A0 U(t)
  von Neumann:  xi(t)  = U(t) xi0 U(t)^dag
The orientations are locked by the relatedness requirement that the
momentum map sends the Schrodinger flow to the von Neumann flow and that
both pictures agree on every expectation value.  In bracket form the dual
flow is xi_dot = [H, xi]_- / hbar and the Heisenberg flow is
A_dot = -[H, A]_- / hbar.

A classic RK4 integrator of the same linear equations is provided as a
drifting baseline for convergence measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import jordan_product, lie_bracket
from .kernel import (
    DimensionError,
    dagger,
    eig_hermitian,
    frobenius,
    random_hermitian,
    require_matrix,
    require_same_dim,
)
from .report import VerificationReport
from . import dual, kahler

PICTURES = ("schrodinger", "heisenberg", "vonneumann")
METHODS = ("exact", "rk4")  # the CLI's --method: exact_flow or rk4_flow
N_OBSERVABLES = 3  # seeded observables whose expectations mu_relatedness_check compares


@dataclass(frozen=True)
class EvolutionSpec:
    hamiltonian: np.ndarray
    t_final: float
    steps: int
    hbar: float = 1.0
    picture: str = "schrodinger"

    def __post_init__(self):
        require_matrix(self.hamiltonian)
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not np.isfinite(self.t_final):
            raise ValueError("t_final must be finite")
        if not self.hbar > 0:  # also rejects NaN
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.picture not in PICTURES:
            raise ValueError(f"picture must be one of {PICTURES}, got {self.picture!r}")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.steps + 1)

    @cached_property
    def decomposition(self):
        """Eigendecomposition of H, computed once and shared by every flow of this spec."""
        return eig_hermitian(self.hamiltonian)


def _spectral_phases(spec: EvolutionSpec):
    dec = spec.decomposition
    phases = np.exp(-1j * np.outer(spec.times(), dec.eigenvalues) / spec.hbar)
    return dec.eigenvectors, phases


def _propagators(spec: EvolutionSpec) -> np.ndarray:
    """U(t) at every sample time, shape (steps+1, n, n)."""
    v, phases = _spectral_phases(spec)
    return (v * phases[:, None, :]) @ dagger(v)


def schrodinger_flow(spec: EvolutionSpec, psi0) -> np.ndarray:
    """Samples of psi(t) = U(t) psi0, shape (steps+1, n)."""
    psi0 = np.asarray(psi0, dtype=complex)
    n = require_matrix(spec.hamiltonian).shape[0]
    if psi0.shape != (n,):
        raise DimensionError(f"state has shape {psi0.shape}, Hamiltonian dim {n}")
    # psi(t) = V diag(phases(t)) V^dag psi0, all samples in one product
    v, phases = _spectral_phases(spec)
    return (phases * (dagger(v) @ psi0)) @ v.T


def _check_dim(spec: EvolutionSpec, m) -> np.ndarray:
    return require_same_dim(spec.hamiltonian, require_matrix(m))[1]


def heisenberg_flow(spec: EvolutionSpec, a0) -> np.ndarray:
    """Samples of A(t) = U(t)^dag A0 U(t), shape (steps+1, n, n)."""
    a0 = _check_dim(spec, a0)
    u = _propagators(spec)
    return dagger(u) @ a0 @ u


def vonneumann_flow(spec: EvolutionSpec, xi0) -> np.ndarray:
    """Samples of xi(t) = U(t) xi0 U(t)^dag, shape (steps+1, n, n)."""
    xi0 = _check_dim(spec, xi0)
    u = _propagators(spec)
    return u @ xi0 @ dagger(u)


def exact_flow(spec: EvolutionSpec, initial) -> np.ndarray:
    if spec.picture == "schrodinger":
        return schrodinger_flow(spec, initial)
    if spec.picture == "heisenberg":
        return heisenberg_flow(spec, initial)
    return vonneumann_flow(spec, initial)


def _rhs(spec: EvolutionSpec):
    h = spec.hamiltonian
    hbar = spec.hbar
    if spec.picture == "schrodinger":
        return lambda y: (-1j / hbar) * (h @ y)
    if spec.picture == "heisenberg":
        return lambda y: -lie_bracket(h, y) / hbar
    return lambda y: lie_bracket(h, y) / hbar


def rk4_flow(spec: EvolutionSpec, initial) -> np.ndarray:
    """Classic fourth-order integration of the picture's linear equation.

    Returns the samples like ``exact_flow``; ``conserved_report`` measures
    their drift from the quantities the exact flow conserves.
    """
    rhs = _rhs(spec)
    y = np.asarray(initial, dtype=complex).copy()
    dt = spec.t_final / spec.steps
    samples = [y.copy()]
    for _ in range(spec.steps):
        k1 = rhs(y)
        k2 = rhs(y + dt / 2 * k1)
        k3 = rhs(y + dt / 2 * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        samples.append(y.copy())
    return np.array(samples)


def _max_deviation(values) -> float:
    """Largest deviation of a sampled quantity from its initial sample."""
    return float(np.max(np.abs(values - values[0])))


def _traces(traj) -> np.ndarray:
    return np.trace(traj, axis1=-2, axis2=-1).real


def _spectrum_deviation(traj) -> float:
    # eig_hermitian diagonalizes the Hermitian part of every sample in one call
    return _max_deviation(eig_hermitian(traj).eigenvalues)


def mu_relatedness_check(spec: EvolutionSpec, psi0, seed: int = 0,
                         tol: float = 1e-9) -> VerificationReport:
    """The momentum map intertwines the three exact flows.

    Checks at every sample time that mu(psi(t)) equals the von Neumann
    evolution of mu(psi0), and that Heisenberg and Schrodinger pictures
    agree on the expectations of N_OBSERVABLES seeded random observables.
    Each residual is an np.max over samples and observables, so a NaN one
    fails.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    n = spec.hamiltonian.shape[0]
    psis = schrodinger_flow(spec, psi0)
    rho0 = kahler.momentum_map(psi0)
    rhos = vonneumann_flow(spec, rho0)
    scale = max(1.0, float(np.vdot(psi0, psi0).real))
    mu_res = float(np.max(frobenius(kahler.momentum_map(psis) - rhos))) / scale

    obs = [random_hermitian(n, seed, 77, j) for j in range(N_OBSERVABLES)]
    # <psi(t)|A0 psi(t)> against <psi0|A(t) psi0> at every sample, for every observable
    gaps = [np.abs(np.einsum("ti,ij,tj->t", psis.conj(), a0, psis).real
                   - np.einsum("i,tij,j->t", psi0.conj(), heisenberg_flow(spec, a0), psi0).real)
            / max(1.0, scale * frobenius(a0)) for a0 in obs]
    exp_res = float(np.max(gaps, initial=0.0))

    report = VerificationReport(
        title="momentum-map relatedness of flows",
        seed=seed,
        trials=spec.steps + 1,
        tol=tol,
        details={"picture_orientation": "xi_dot = [H, xi]_- / hbar"},
    )
    report.add("mu_of_schrodinger_equals_vonneumann_of_mu", mu_res)
    report.add("heisenberg_schrodinger_expectations_agree", exp_res)
    return report


def conserved_report(spec: EvolutionSpec, trajectory, seed: int = 0,
                     tol: float = 1e-9) -> VerificationReport:
    """Deviations of conserved quantities over a trajectory.

    Also spot-checks that conjugation by the flow's unitary U(t_final) preserves
    both algebra products on seeded random observables.  U(t_final) comes from
    the spec's cached decomposition of H, so H is diagonalized once per spec.
    """
    traj = np.asarray(trajectory)
    n = spec.hamiltonian.shape[0]
    report = VerificationReport(
        title=f"conservation monitors ({spec.picture})",
        seed=seed,
        trials=traj.shape[0],
        tol=tol,
    )
    h = spec.hamiltonian
    if spec.picture == "schrodinger":
        report.add("state_norm", _max_deviation(np.linalg.norm(traj, axis=1)))
        e_h = np.array([kahler.expectation(h, p) for p in traj])
        report.add("energy_expectation", _max_deviation(e_h))
    elif spec.picture == "vonneumann":
        report.add("trace", _max_deviation(_traces(traj)))
        report.add("spectrum", _spectrum_deviation(traj))
        report.add("energy_expectation", _max_deviation(_traces(traj @ h)))
        report.add("purity", _max_deviation(_traces(traj @ traj)))
    else:
        # Heisenberg: H itself and the spectrum of each observable are constant
        report.add("hamiltonian_constant",
                   float(np.max(np.linalg.norm(heisenberg_flow(spec, h) - h, axis=(1, 2)))))
        report.add("spectrum", _spectrum_deviation(traj))

    v, phases = _spectral_phases(spec)
    u = (v * phases[-1]) @ dagger(v)
    a = random_hermitian(n, seed, 88, 0)
    b = random_hermitian(n, seed, 88, 1)
    ua, ub = u @ a @ dagger(u), u @ b @ dagger(u)
    scale = max(1.0, frobenius(a) * frobenius(b))
    report.add("jordan_product_preserved",
               frobenius(u @ jordan_product(a, b) @ dagger(u) - jordan_product(ua, ub)) / scale)
    report.add("lie_bracket_preserved",
               frobenius(u @ lie_bracket(a, b) @ dagger(u) - lie_bracket(ua, ub)) / scale)
    return report
