"""Stacked code paths against one-matrix-at-a-time loop references."""

import numpy as np
import pytest

from geomqm import distributions as dist
from geomqm.algebra import trace_form
from geomqm.dynamics import EvolutionSpec, heisenberg_flow, schrodinger_flow, vonneumann_flow
from geomqm.kernel import random_complex_vector, random_hermitian, unitary_exp
import svd_oracle as oracle


def loop_vectorize(m, basis):
    return np.array([trace_form(e, m) for e in basis])


def loop_devectorize(coords, basis):
    out = np.zeros_like(basis[0])
    for c, e in zip(coords, basis):
        out = out + c * e
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
class TestCoordinates:
    """The SVD oracle's coordinate maps, and membership against its basis."""

    def test_vectorize_matches_trace_form_loop(self, n):
        basis = oracle.hermitian_basis(n)
        m = random_hermitian(n, 1, n)
        assert np.max(np.abs(oracle.vectorize(m, basis) - loop_vectorize(m, basis))) <= 1e-14

    def test_vectorize_stack_matches_per_matrix(self, n):
        basis = oracle.hermitian_basis(n)
        stack = np.array([random_hermitian(n, 2, n, k) for k in range(3)])
        coords = oracle.vectorize(stack, basis)
        assert coords.shape == (3, n * n)
        for c, m in zip(coords, stack):
            assert np.max(np.abs(c - loop_vectorize(m, basis))) <= 1e-14

    def test_devectorize_matches_loop(self, n):
        basis = oracle.hermitian_basis(n)
        coords = np.random.default_rng(n).standard_normal(n * n)
        assert np.max(np.abs(oracle.devectorize(coords, basis)
                             - loop_devectorize(coords, basis))) <= 1e-14

    def test_map_matrix_matches_trace_form_loop(self, n):
        basis = oracle.hermitian_basis(n)
        xi = random_hermitian(n, 3, n)
        mj, mr = oracle.map_matrix(xi, basis)
        ref_j = np.column_stack([loop_vectorize(dist.jhat(xi, e), basis) for e in basis])
        ref_r = np.column_stack([loop_vectorize(dist.rhat(xi, e), basis) for e in basis])
        assert np.max(np.abs(mj - ref_j)) <= 1e-14
        assert np.max(np.abs(mr - ref_r)) <= 1e-14

    def test_membership_matches_sequential_projection(self, n):
        xi = random_hermitian(n, 4, n)
        d = dist.distribution_basis(xi, "Lambda")
        v = random_hermitian(n, 5, n)
        residual = v
        for e in oracle.basis_matrices(xi, "Lambda"):
            residual = residual - trace_form(e, residual) * e
        expected = np.linalg.norm(residual) / np.linalg.norm(v)
        assert dist.membership_residual(v, d) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("n", [3, 8])
class TestBatchedFlows:
    def spec(self, n):
        return EvolutionSpec(hamiltonian=random_hermitian(n, 6, n), t_final=2.5, steps=17,
                             hbar=0.8)

    def propagators(self, spec):
        return [unitary_exp(spec.hamiltonian, t, spec.hbar) for t in spec.times()]

    def test_schrodinger_matches_per_sample(self, n):
        spec = self.spec(n)
        psi0 = random_complex_vector(n, 7, n)
        traj = schrodinger_flow(spec, psi0)
        for psi, u in zip(traj, self.propagators(spec)):
            assert np.max(np.abs(psi - u @ psi0)) <= 1e-12

    def test_heisenberg_matches_per_sample(self, n):
        spec = self.spec(n)
        a0 = random_hermitian(n, 8, n)
        traj = heisenberg_flow(spec, a0)
        for a, u in zip(traj, self.propagators(spec)):
            assert np.max(np.abs(a - u.conj().T @ a0 @ u)) <= 1e-12

    def test_vonneumann_matches_per_sample(self, n):
        spec = self.spec(n)
        xi0 = random_hermitian(n, 9, n)
        traj = vonneumann_flow(spec, xi0)
        for xi, u in zip(traj, self.propagators(spec)):
            assert np.max(np.abs(xi - u @ xi0 @ u.conj().T)) <= 1e-12
