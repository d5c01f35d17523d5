"""Stacked code paths against one-matrix-at-a-time loop references."""

from functools import partial

import numpy as np
import pytest

from geomqm import distributions as dist
from geomqm import kahler
from geomqm import report as report_module
from geomqm.algebra import jordan_product, lie_bracket, trace_form, verify_jordan_lie
from geomqm.dual import verify_dual_geometry
from geomqm.dynamics import EvolutionSpec, heisenberg_flow, schrodinger_flow, vonneumann_flow
from geomqm.kahler import verify_pullbacks
from geomqm.kernel import (
    DimensionError,
    frobenius,
    is_hermitian,
    make_rng,
    random_complex_vector,
    random_complex_vector_stack,
    random_hermitian,
    random_hermitian_stack,
    require_same_dim,
    unitary_exp,
)
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
        return [unitary_exp(spec.hamiltonian, t / spec.hbar) for t in spec.times()]

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


STACK_SHAPES = [(), (7,), (2, 3)]


def per_slice(f, *stacks):
    """f applied to each (n, n) slice of equally shaped stacks, with the stack shape restored."""
    flat = [s.reshape(-1, *s.shape[-2:]) for s in stacks]
    out = np.array([f(*ms) for ms in zip(*flat)])
    return out.reshape(stacks[0].shape[:-2] + out.shape[1:])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("lead", STACK_SHAPES)
class TestStackedProducts:
    """Stack-aware products, norms and predicates equal a per-slice loop bit for bit."""

    def stacks(self, n, lead, count=2):
        size = int(np.prod(lead, dtype=int))
        return [random_hermitian_stack(n, size, make_rng(11, n, j)).reshape(*lead, n, n)
                for j in range(count)]

    @pytest.mark.parametrize("f", [lie_bracket, jordan_product, trace_form])
    def test_binary(self, n, lead, f):
        a, b = self.stacks(n, lead)
        assert np.array_equal(f(a, b), per_slice(f, a, b))

    def test_frobenius(self, n, lead):
        (a,) = self.stacks(n, lead, 1)
        assert np.array_equal(frobenius(a), per_slice(frobenius, a))

    def test_is_hermitian(self, n, lead):
        a, b = self.stacks(n, lead)
        m = a.copy()
        m.reshape(-1, n, n)[::2] += 1e-3j * b.reshape(-1, n, n)[::2]  # every other slice
        for x in (a, m):
            assert np.array_equal(is_hermitian(x), per_slice(is_hermitian, x))


def test_single_matrix_keeps_python_scalars():
    a, b = random_hermitian(3, 12, 0), random_hermitian(3, 12, 1)
    assert type(trace_form(a, b)) is float and type(frobenius(a)) is float
    assert type(is_hermitian(a)) is bool and type(dist.commutation_defect(a, b)) is float


class TestRequireSameDim:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            require_same_dim(np.zeros((7, 2, 2)), np.zeros((7, 3, 3)))

    @pytest.mark.parametrize("shapes", [((7, 2, 2), (3, 2, 2)), ((7, 2, 2), (2, 3, 2, 2)),
                                        ((1, 2, 2), (7, 2, 2))])
    def test_stack_shape_mismatch(self, shapes):
        with pytest.raises(DimensionError):
            require_same_dim(*(np.zeros(s) for s in shapes))

    def test_products_validate_before_broadcasting(self):
        # numpy would broadcast (1, 2, 2) against (7, 2, 2); the validator rejects it first
        with pytest.raises(DimensionError):
            lie_bracket(np.zeros((1, 2, 2)), np.zeros((7, 2, 2)))

    def test_single_matrix_pairs_with_stack(self):
        a, b = require_same_dim(np.eye(2), np.zeros((7, 2, 2)))
        assert a.shape == (2, 2) and b.shape == (7, 2, 2)


def test_random_hermitian_stack_replays_per_trial_draws():
    # row k is row k of any longer draw, however the earlier rows were split into draws
    longer = random_hermitian_stack(4, 10, make_rng(21, 5, 6))
    rng = make_rng(21, 5, 6)
    rows = [random_hermitian_stack(4, m, rng) for m in (1, 3, 2)]
    assert np.array_equal(np.concatenate(rows), longer[:6])
    assert np.array_equal(random_hermitian(4, 21, 5, 6), longer[0])

    vectors = random_complex_vector_stack(3, 5, make_rng(21, 7))
    rng = make_rng(21, 7)
    assert np.array_equal(np.concatenate([random_complex_vector_stack(3, m, rng)
                                          for m in (2, 3)]), vectors)
    assert np.array_equal(random_complex_vector(3, 21, 7), vectors[0])


def test_commutation_defect_keeps_nan():
    xi = random_hermitian_stack(3, 4, make_rng(2, 10))
    a = random_hermitian_stack(3, 4, make_rng(2, 11))
    a[2, 0, 1] = np.nan
    defect = dist.commutation_defect(xi, a)
    assert np.isnan(defect[2]) and np.isfinite(defect[[0, 1, 3]]).all()
    assert np.isnan(dist.commutation_defect(xi[2], a[2]))


SUITES = {
    "jordan_lie": verify_jordan_lie,
    "dual_geometry": verify_dual_geometry,
    "commutation": dist.verify_commutation,
    **{f"involutivity_{kind}": partial(dist.involutivity_evidence, kind) for kind in dist.KINDS},
    "pullbacks": verify_pullbacks,
}


def summary(report):
    return [(c.name, c.max_residual, c.worst_trial) for c in report.checks], report.details


@pytest.mark.parametrize("name", SUITES)
@pytest.mark.parametrize("n", [2, 3])
def test_suite_independent_of_chunks_and_replays_worst_trial(monkeypatch, name, n):
    suite, trials, seed = SUITES[name], 12, 5
    report = suite(n, trials, seed)
    for elements in (1, 5 * n * n):  # chunks of 1 and of 5 trials
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", elements)
        assert summary(suite(n, trials, seed)) == summary(report)
    monkeypatch.undo()
    for check in report.checks:
        rerun = suite(n, check.worst_trial + 1, seed)
        (again,) = [c for c in rerun.checks if c.name == check.name]
        assert (again.max_residual, again.worst_trial) == (check.max_residual, check.worst_trial)


STACK = np.stack([np.eye(2), np.eye(2)])


@pytest.mark.parametrize("call", [
    lambda: kahler.expectation(STACK, np.ones(2)),
    lambda: kahler.dispersion(STACK, np.ones(2)),
    lambda: kahler.eigensolve_gradient_flow(STACK, np.ones(2)),
    lambda: kahler.hamiltonian_field_f(STACK, np.ones(2)),
    lambda: kahler.gradient_field_e(STACK[:1], np.ones(2)),
    lambda: EvolutionSpec(hamiltonian=STACK, t_final=1.0, steps=2),
    lambda: heisenberg_flow(EvolutionSpec(hamiltonian=np.eye(2), t_final=1.0, steps=2), STACK),
])
def test_single_matrix_entry_points_reject_stacks(call):
    with pytest.raises(DimensionError):
        call()
