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

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import jordan_part, lie_part, pair
from .kernel import (DimensionError, dagger, eig_hermitian, eigvals_hermitian, frobenius,
                     random_hermitian, relative, require_finite, require_matrix,
                     require_observable, require_same_dim, unit_scale)
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
        object.__setattr__(self, "hamiltonian",  # frozen: the checked complex array is kept
                           require_matrix(require_observable(self.hamiltonian, "the Hamiltonian")))
        self._check_parameters()

    def _check_parameters(self):
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        for name, value in (("t_final", self.t_final), ("hbar", self.hbar)):
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
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


class _CheckedSpec(EvolutionSpec):
    """An EvolutionSpec whose Hamiltonian its maker has checked as one observable matrix, as
    the CLI does with its path-labelled check: only the parameters are checked here."""

    def __post_init__(self):
        self._check_parameters()


def _initial(spec: EvolutionSpec, value, picture: str) -> np.ndarray:
    """The initial value of ``picture``, checked: a finite psi0 of H's length, or an observable
    of H's dimension; both the exact and the RK4 flows take it so, before any work."""
    if picture != "schrodinger":
        return require_same_dim(spec.hamiltonian,
                                require_matrix(require_observable(value, "the initial matrix")))[1]
    psi0, n = np.asarray(value, dtype=complex), spec.hamiltonian.shape[0]
    if psi0.shape != (n,):
        raise DimensionError(f"state has shape {psi0.shape}, Hamiltonian dim {n}")
    return require_finite(psi0, "the initial state")


def schrodinger_flow(spec: EvolutionSpec, psi0) -> np.ndarray:
    """Samples of psi(t) = U(t) psi0, shape (steps+1, n)."""
    return _schrodinger(spec, _initial(spec, psi0, "schrodinger"))


def _schrodinger(spec: EvolutionSpec, psi0) -> np.ndarray:
    """``schrodinger_flow`` of a psi0 already checked."""
    # psi(t) = V diag(phases(t)) V^dag psi0, all samples in one product
    v, phases = spec.frame
    return (phases * (dagger(v) @ psi0)) @ v.T


def heisenberg_flow(spec: EvolutionSpec, a0) -> np.ndarray:
    """Samples of A(t) = U(t)^dag A0 U(t), shape (steps+1, n, n)."""
    return _heisenberg(spec, _initial(spec, a0, "heisenberg"))


def _heisenberg(spec: EvolutionSpec, a0) -> np.ndarray:
    """``heisenberg_flow`` of an A0 already checked."""
    u = spec.propagators
    return dagger(u) @ a0 @ u


def vonneumann_flow(spec: EvolutionSpec, xi0) -> np.ndarray:
    """Samples of xi(t) = U(t) xi0 U(t)^dag, shape (steps+1, n, n)."""
    return _vonneumann(spec, _initial(spec, xi0, "vonneumann"))


def _vonneumann(spec: EvolutionSpec, xi0) -> np.ndarray:
    """``vonneumann_flow`` of a xi0 already checked."""
    u = spec.propagators
    return u @ xi0 @ dagger(u)


def _exact(spec: EvolutionSpec, initial) -> np.ndarray:
    """The exact flow of the spec's picture, of an initial value already checked."""
    return {"schrodinger": _schrodinger, "heisenberg": _heisenberg,
            "vonneumann": _vonneumann}[spec.picture](spec, initial)


def _rhs(spec: EvolutionSpec):
    h = spec.hamiltonian
    hbar = spec.hbar
    if spec.picture == "schrodinger":
        return lambda y: (-1j / hbar) * (h @ y)
    if spec.picture == "heisenberg":
        return lambda y: -lie_part(pair(h, y)) / hbar
    return lambda y: lie_part(pair(h, y)) / hbar


def rk4_flow(spec: EvolutionSpec, initial) -> np.ndarray:
    """Classic fourth-order integration of the picture's linear equation.

    Returns the samples like the exact flows; ``conserved_report`` measures
    their drift from the quantities the exact flow conserves.  A step that
    leaves the float range gives inf or NaN samples without a warning, and
    the monitors fail on them.
    """
    return _rk4(spec, _initial(spec, initial, spec.picture))


def _rk4(spec: EvolutionSpec, initial) -> np.ndarray:
    """``rk4_flow`` of an initial value already checked."""
    y = initial.copy()
    rhs = _rhs(spec)
    dt = spec.t_final / spec.steps
    samples = [y.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.steps):
            k1 = rhs(y)
            k2 = rhs(y + dt / 2 * k1)
            k3 = rhs(y + dt / 2 * k2)
            k4 = rhs(y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            samples.append(y.copy())
    return np.array(samples)


METHODS = {"exact": _exact, "rk4": _rk4}  # the CLI's --method, of a checked initial value


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
    psi0 = _initial(spec, psi0, "schrodinger")
    psi0 = psi0 * unit_scale(psi0)  # exact, so that no square of psi0 overflows or underflows
    n = spec.hamiltonian.shape[0]
    psis = _schrodinger(spec, psi0)
    rhos = _vonneumann(spec, kahler._momentum_map(psi0))
    n2 = float(np.vdot(psi0, psi0).real)
    mu_res = relative(np.max(frobenius(kahler._momentum_map(psis) - rhos)), n2)

    obs = [random_hermitian(n, seed, 77, j) for j in range(N_OBSERVABLES)]
    # <psi(t)|A0 psi(t)> against <psi0|A(t) psi0> at every sample, for every observable
    gaps = [relative(np.abs(np.einsum("ti,ij,tj->t", psis.conj(), a0, psis).real
                            - np.einsum("i,tij,j->t", psi0.conj(), _heisenberg(spec, a0),
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
        report.add("energy_expectation", _max_deviation(kahler._expectation(h, traj), nh))
    elif spec.picture == "vonneumann":
        nx = frobenius(traj[0])
        report.add("trace", _max_deviation(np.trace(traj, axis1=-2, axis2=-1).real, nx))
        report.add("spectrum", _spectrum_deviation(traj))
        report.add("energy_expectation",
                   _max_deviation(np.einsum("...ij,...ji->...", traj, h).real, nh * nx))
        report.add("purity", _max_deviation(np.einsum("...ij,...ji->...", traj, traj).real, nx**2))
    else:
        # Heisenberg: H itself and the spectrum of each observable are constant
        drift = np.linalg.norm(_heisenberg(spec, h) - h, axis=(1, 2))
        report.add("hamiltonian_constant", relative(np.max(drift), nh))
        report.add("spectrum", _spectrum_deviation(traj))

    v, phases = spec.frame
    u = (v * phases[-1]) @ dagger(v)
    a = random_hermitian(n, seed, 88, 0)
    b = random_hermitian(n, seed, 88, 1)
    ua, ub = u @ a @ dagger(u), u @ b @ dagger(u)
    ab, uab, size = pair(a, b), pair(ua, ub), frobenius(a) * frobenius(b)
    report.add("jordan_product_preserved",
               relative(frobenius(u @ jordan_part(ab) @ dagger(u) - jordan_part(uab)), size))
    report.add("lie_bracket_preserved",
               relative(frobenius(u @ lie_part(ab) @ dagger(u) - lie_part(uab)), size))
    return report
