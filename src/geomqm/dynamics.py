"""Time evolution in the three equivalent pictures.

One unitary action U(t) = exp(-i t H / hbar) drives all three:
  Schrodinger:  psi(t) = U(t) psi0
  Heisenberg:   A(t)   = U(t)^dag A0 U(t)
  von Neumann:  xi(t)  = U(t) xi0 U(t)^dag
Each ``EvolutionSpec`` diagonalizes H once.  Its cached ``frame`` (V and the
phase table) serves every flow and report of the spec; its cached U(t)
stack, ``propagators``, is built only for a picture that conjugates by U,
never for the Schrodinger flow alone.

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
from .kernel import (TAU_HERMITIAN, DimensionError, dagger, eig_hermitian, eigvals_hermitian,
                     frobenius, is_hermitian, random_hermitian, relative, require_matrix,
                     require_same_dim, unit_scale)
from .report import VerificationReport
from . import kahler

PICTURES = ("schrodinger", "heisenberg", "vonneumann")
N_OBSERVABLES = 3  # seeded observables whose expectations mu_relatedness_check compares


@dataclass(frozen=True)
class EvolutionSpec:
    hamiltonian: np.ndarray
    t_final: float
    steps: int
    hbar: float = 1.0
    picture: str = "schrodinger"

    def __post_init__(self):
        if not is_hermitian(require_matrix(self.hamiltonian), TAU_HERMITIAN):
            raise ValueError("the Hamiltonian must be a finite Hermitian matrix")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not np.isfinite(self.t_final):
            raise ValueError("t_final must be finite")
        if not 0 < self.hbar < np.inf:  # also rejects NaN
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if self.picture not in PICTURES:
            raise ValueError(f"picture must be one of {PICTURES}, got {self.picture!r}")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.steps + 1)

    @cached_property
    def frame(self):
        """(V, phases): the eigenvectors of H and exp(-i t lam / hbar), (steps+1, n), once per spec."""
        unit = unit_scale(self.hamiltonian, (-2, -1)).item()  # exact: H 2^k for t 2^-k, one frame
        dec = eig_hermitian(self.hamiltonian * unit)
        return dec.eigenvectors, np.exp(-1j * np.outer(self.times(), dec.eigenvalues / unit)
                                        / self.hbar)

    @cached_property
    def propagators(self) -> np.ndarray:
        """U(t) at every sample time, shape (steps+1, n, n), built once per spec."""
        v, phases = self.frame
        return (v * phases[:, None, :]) @ dagger(v)


def schrodinger_flow(spec: EvolutionSpec, psi0) -> np.ndarray:
    """Samples of psi(t) = U(t) psi0, shape (steps+1, n)."""
    psi0 = np.asarray(psi0, dtype=complex)
    n = require_matrix(spec.hamiltonian).shape[0]
    if psi0.shape != (n,):
        raise DimensionError(f"state has shape {psi0.shape}, Hamiltonian dim {n}")
    # psi(t) = V diag(phases(t)) V^dag psi0, all samples in one product
    v, phases = spec.frame
    return (phases * (dagger(v) @ psi0)) @ v.T


def _check_dim(spec: EvolutionSpec, m) -> np.ndarray:
    return require_same_dim(spec.hamiltonian, require_matrix(m))[1]


def heisenberg_flow(spec: EvolutionSpec, a0) -> np.ndarray:
    """Samples of A(t) = U(t)^dag A0 U(t), shape (steps+1, n, n)."""
    a0 = _check_dim(spec, a0)
    u = spec.propagators
    return dagger(u) @ a0 @ u


def vonneumann_flow(spec: EvolutionSpec, xi0) -> np.ndarray:
    """Samples of xi(t) = U(t) xi0 U(t)^dag, shape (steps+1, n, n)."""
    xi0 = _check_dim(spec, xi0)
    u = spec.propagators
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
    y = np.asarray(initial, dtype=complex).copy()
    if y.shape != spec.hamiltonian.shape[:1 if spec.picture == "schrodinger" else 2]:
        raise DimensionError(f"initial shape {y.shape}, Hamiltonian dim {len(spec.hamiltonian)}")
    rhs = _rhs(spec)
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


METHODS = {"exact": exact_flow, "rk4": rk4_flow}  # the CLI's --method


def _max_deviation(values, size) -> float:
    """Largest deviation of a sampled quantity from its initial sample, relative to size."""
    return relative(np.max(np.abs(values - values[0])), size)


def _spectrum_deviation(traj) -> float:
    """Largest eigenvalue drift over the samples, relative to the first's; NaN if one is not finite."""
    if not np.isfinite(traj).all():
        return float("nan")
    # the eigenvalues of the Hermitian part of every sample, in one LAPACK call
    return _max_deviation(eigvals_hermitian(traj), np.linalg.norm(traj[0], 2))


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
    psi0 = psi0 * unit_scale(psi0)  # exact, so that no square of psi0 overflows or underflows
    n = spec.hamiltonian.shape[0]
    psis = schrodinger_flow(spec, psi0)
    rhos = vonneumann_flow(spec, kahler.momentum_map(psi0))
    n2 = float(np.vdot(psi0, psi0).real)
    mu_res = relative(np.max(frobenius(kahler.momentum_map(psis) - rhos)), n2)

    obs = [random_hermitian(n, seed, 77, j) for j in range(N_OBSERVABLES)]
    # <psi(t)|A0 psi(t)> against <psi0|A(t) psi0> at every sample, for every observable
    gaps = [relative(np.abs(np.einsum("ti,ij,tj->t", psis.conj(), a0, psis).real
                            - np.einsum("i,tij,j->t", psi0.conj(), heisenberg_flow(spec, a0),
                                        psi0).real), n2 * frobenius(a0)) for a0 in obs]
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

    Each is relative to a size of its degree in each input: ||psi0||, ||H|| (the
    Schrodinger energy is a Rayleigh quotient), ||xi0||, ||H|| ||xi0||, ||xi0||^2
    or, for a spectrum, the first sample's largest |eigenvalue|.
    Also spot-checks that conjugation by the flow's unitary U(t_final) preserves
    both algebra products on seeded random observables.  U(t_final) comes from
    the spec's cached frame, so H is diagonalized once per spec.
    """
    traj = np.asarray(trajectory)
    traj = traj * unit_scale(traj[0], None)  # exact, as in mu_relatedness_check
    n = spec.hamiltonian.shape[0]
    report = VerificationReport(
        title=f"conservation monitors ({spec.picture})",
        seed=seed,
        trials=traj.shape[0],
        tol=tol,
    )
    h = spec.hamiltonian * unit_scale(spec.hamiltonian, (-2, -1))  # exact, as traj above
    nh = frobenius(h)
    if spec.picture == "schrodinger":
        norms = np.linalg.norm(traj, axis=1)
        report.add("state_norm", _max_deviation(norms, norms[0]))
        report.add("energy_expectation", _max_deviation(kahler.expectation(h, traj), nh))
    elif spec.picture == "vonneumann":
        nx = frobenius(traj[0])
        report.add("trace", _max_deviation(np.trace(traj, axis1=-2, axis2=-1).real, nx))
        report.add("spectrum", _spectrum_deviation(traj))
        report.add("energy_expectation",
                   _max_deviation(np.einsum("...ij,...ji->...", traj, h).real, nh * nx))
        report.add("purity", _max_deviation(np.einsum("...ij,...ji->...", traj, traj).real, nx**2))
    else:
        # Heisenberg: H itself and the spectrum of each observable are constant
        drift = np.linalg.norm(heisenberg_flow(spec, h) - h, axis=(1, 2))
        report.add("hamiltonian_constant", relative(np.max(drift), nh))
        report.add("spectrum", _spectrum_deviation(traj))

    v, phases = spec.frame
    u = (v * phases[-1]) @ dagger(v)
    a = random_hermitian(n, seed, 88, 0)
    b = random_hermitian(n, seed, 88, 1)
    ua, ub = u @ a @ dagger(u), u @ b @ dagger(u)
    size = frobenius(a) * frobenius(b)
    report.add("jordan_product_preserved",
               relative(frobenius(u @ jordan_product(a, b) @ dagger(u) - jordan_product(ua, ub)),
                        size))
    report.add("lie_bracket_preserved",
               relative(frobenius(u @ lie_bracket(a, b) @ dagger(u) - lie_bracket(ua, ub)), size))
    return report
