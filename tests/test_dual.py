import numpy as np
import pytest

from geomqm import dual
from geomqm.algebra import lie_bracket
from geomqm.kernel import dagger, random_hermitian, unitary_exp
from conftest import PAULI_X, PAULI_Y, PAULI_Z


class TestHatEval:
    def test_x_at_x(self):
        # Tr(X X)/2 = 1
        assert dual.hat_eval(PAULI_X, PAULI_X) == pytest.approx(1.0)

    def test_zero_point(self):
        a = random_hermitian(3, 1)
        assert dual.hat_eval(a, np.zeros((3, 3))) == 0.0

    def test_identity_generator_on_state(self):
        rho = dual.random_state(3, 5)
        assert dual.hat_eval(np.eye(3), rho) == pytest.approx(0.5, abs=1e-12)

    def test_bilinear(self):
        a, b = random_hermitian(2, 2, 0), random_hermitian(2, 2, 1)
        xi = random_hermitian(2, 2, 2)
        lhs = dual.hat_eval(2.0 * a + 3.0 * b, xi)
        assert lhs == pytest.approx(2 * dual.hat_eval(a, xi) + 3 * dual.hat_eval(b, xi))


class TestLambdaEval:
    def test_xy_gives_2zhat(self):
        xi = random_hermitian(2, 3)
        assert dual.lambda_eval(PAULI_X, PAULI_Y, xi) == pytest.approx(
            2 * dual.hat_eval(PAULI_Z, xi))

    def test_yz_gives_2xhat(self):
        xi = random_hermitian(2, 4)
        assert dual.lambda_eval(PAULI_Y, PAULI_Z, xi) == pytest.approx(
            2 * dual.hat_eval(PAULI_X, xi))

    def test_antisymmetric(self):
        a = random_hermitian(3, 5)
        xi = random_hermitian(3, 6)
        assert dual.lambda_eval(a, a, xi) == 0.0

    def test_hat_of_bracket(self):
        a, b = random_hermitian(4, 7, 0), random_hermitian(4, 7, 1)
        xi = random_hermitian(4, 7, 2)
        assert dual.lambda_eval(a, b, xi) == pytest.approx(
            dual.hat_eval(lie_bracket(a, b), xi), abs=1e-12)


class TestREval:
    def test_zz_gives_trace(self):
        xi = random_hermitian(2, 8)
        assert dual.r_eval(PAULI_Z, PAULI_Z, xi) == pytest.approx(np.trace(xi).real)

    def test_xy_vanishes(self):
        xi = random_hermitian(2, 9)
        assert dual.r_eval(PAULI_X, PAULI_Y, xi) == pytest.approx(0.0, abs=1e-14)

    def test_jordan_unit(self):
        a = random_hermitian(3, 10)
        xi = random_hermitian(3, 11)
        assert dual.r_eval(a, np.eye(3), xi) == pytest.approx(2 * dual.hat_eval(a, xi))

    def test_symmetric(self):
        a, b = random_hermitian(3, 12, 0), random_hermitian(3, 12, 1)
        xi = random_hermitian(3, 12, 2)
        assert dual.r_eval(a, b, xi) == pytest.approx(dual.r_eval(b, a, xi), abs=1e-13)


class TestStarEval:
    def test_golden_zy(self):
        xi = random_hermitian(2, 13)
        assert dual.star_eval(PAULI_Z, PAULI_Y, xi) == pytest.approx(
            -1j * dual.hat_eval(PAULI_X, xi))

    def test_golden_xy(self):
        xi = random_hermitian(2, 14)
        assert dual.star_eval(PAULI_X, PAULI_Y, xi) == pytest.approx(
            1j * dual.hat_eval(PAULI_Z, xi))

    def test_identity_generator(self):
        a = random_hermitian(3, 15)
        xi = random_hermitian(3, 16)
        assert dual.star_eval(a, np.eye(3), xi) == pytest.approx(
            dual.hat_eval(a, xi) + 0j)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_decomposition(self, n):
        for seed in range(10):
            a = random_hermitian(n, seed, 0)
            b = random_hermitian(n, seed, 1)
            xi = random_hermitian(n, seed, 2)
            lhs = dual.r_eval(a, b, xi) / 2 + 1j * dual.lambda_eval(a, b, xi) / 2
            assert abs(dual.star_eval(a, b, xi) - lhs) <= 1e-12

    def test_nonlocal_closure(self):
        a, b = random_hermitian(3, 17, 0), random_hermitian(3, 17, 1)
        xi = random_hermitian(3, 17, 2)
        sj, sl = dual.star_generators(a, b)
        expected = dual.hat_eval(sj, xi) + 1j * dual.hat_eval(sl, xi)
        assert dual.star_eval(a, b, xi) == pytest.approx(expected, abs=1e-13)


class TestHamiltonianFieldDual:
    def test_commuting_diagonal(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        xi = np.diag([3.0, 4.0]).astype(complex)
        assert np.linalg.norm(dual.hamiltonian_field_dual(h, xi)) == 0.0

    def test_z_on_x(self):
        assert np.allclose(dual.hamiltonian_field_dual(PAULI_Z, PAULI_X), 2 * PAULI_Y)

    def test_identity_central(self):
        h = random_hermitian(3, 18)
        assert np.linalg.norm(dual.hamiltonian_field_dual(h, np.eye(3))) == 0.0

    def test_traceless_against_identity_hat(self):
        h, xi = random_hermitian(4, 19, 0), random_hermitian(4, 19, 1)
        v = dual.hamiltonian_field_dual(h, xi)
        assert dual.hat_eval(np.eye(4), v) == pytest.approx(0.0, abs=1e-12)


def fd_r_invariance_defect(h, a, b, xi, step=1e-4):
    """Oracle: central difference of R(A(t), B(t))(xi(t)), all dragged by exp(-itH)."""

    def dragged(t):
        # pull back along the flow: hat(A) -> hat(U^dag A U), xi -> U^dag xi U
        u = unitary_exp(h, t)
        ud = dagger(u)
        return dual.r_eval(ud @ a @ u, ud @ b @ u, ud @ xi @ u)

    return abs(dragged(step) - dragged(-step)) / (2 * step)


class TestRInvariance:
    def test_commuting_exact_zero(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        a = np.diag([3.0, -1.0]).astype(complex)
        assert dual.r_invariance_defect(h, a, a, h) == 0.0

    def test_finite_difference(self):
        for n in (2, 3):
            h, a, b, xi = (random_hermitian(n, 20, k) for k in range(4))
            assert fd_r_invariance_defect(h, a, b, xi) <= 1e-6
            assert dual.r_invariance_defect(h, a, b, xi) <= 1e-10

    def test_exact_algebraic(self):
        h, a, b, xi = (random_hermitian(3, 21, k) for k in range(4))
        assert dual.r_invariance_defect(h, a, b, xi) <= 1e-10


class TestStates:
    def test_maximally_mixed(self):
        assert dual.is_state(np.diag([0.5, 0.5]).astype(complex))

    def test_negative_eigenvalue_rejected(self):
        assert not dual.is_state(np.diag([2.0, -1.0]).astype(complex))

    def test_wrong_trace_rejected(self):
        assert not dual.is_state(np.diag([0.7, 0.7]).astype(complex))

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_random_state_is_state(self, seed):
        assert dual.is_state(dual.random_state(3, seed), 1e-12)


class TestGoldenTables:
    def test_lambda_xy_generator(self):
        tables = dual.su2_golden_tables()
        assert np.allclose(tables.lambda_table[("x", "y")], 2 * PAULI_Z)

    def test_lambda_u_row_vanishes(self):
        tables = dual.su2_golden_tables()
        for name in dual.SU2_NAMES:
            assert np.linalg.norm(tables.lambda_table[("u", name)]) == 0.0

    def test_star_zx_gives_iy(self):
        tables = dual.su2_golden_tables()
        coeffs = tables.star_coefficients("z", "x")
        assert coeffs["y"] == pytest.approx(1j)
        assert all(abs(coeffs[k]) < 1e-15 for k in ("u", "x", "z"))

    def test_r_symmetrization_constant(self):
        # convention fixed by R(du, dx) = 2x: generator is UX + XU = 2X
        tables = dual.su2_golden_tables()
        assert np.allclose(tables.r_table[("u", "x")], 2 * PAULI_X)

    def test_json_export_round_trips(self):
        from geomqm.kernel import parse_matrix

        tables = dual.su2_golden_tables()
        payload = tables.to_json_dict()
        m = parse_matrix(payload["lambda"]["x,y"].encode())
        assert np.array_equal(m, tables.lambda_table[("x", "y")])


class TestVerifyDualGeometry:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_suite_passes(self, n):
        report = dual.verify_dual_geometry(n, trials=25, seed=n, tol=1e-9)
        assert report.passed, report.summary()


class TestIsStateInputs:
    def test_non_hermitian_rejected(self):
        # PSD-looking Hermitian part and unit trace, but not Hermitian itself
        assert not dual.is_state(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
