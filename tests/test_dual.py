import numpy as np
import pytest

from geomqm import dual
from geomqm import report as report_module
from geomqm.algebra import jordan_product, lie_bracket
from geomqm.kernel import DimensionError, dagger, make_rng, random_hermitian
from conftest import PAULI_X, PAULI_Y, PAULI_Z, unitary_exp
from suite_reference import reference_dual_geometry


class TestHatEval:
    def test_x_at_x(self):
        # Tr(X X)/2 = 1
        assert dual.hat_eval(PAULI_X, PAULI_X) == pytest.approx(1.0)

    def test_zero_point(self):
        a = random_hermitian(3, 1)
        assert dual.hat_eval(a, np.zeros((3, 3))) == 0.0

    def test_identity_generator_on_state(self):
        rng = make_rng(5)  # a density matrix: T^dag T over its trace
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = dagger(t) @ t
        rho /= np.trace(rho).real
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
        # the star of two hat functions is hat(A o B) + i hat([A,B]_-/2)
        expected = (dual.hat_eval(jordan_product(a, b), xi)
                    + 1j * dual.hat_eval(lie_bracket(a, b) / 2, xi))
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


class TestGoldenTables:
    def test_lambda_xy_generator(self):
        tables = dual.su2_golden_tables()
        assert np.allclose(tables["lambda"][("x", "y")], 2 * PAULI_Z)

    def test_lambda_u_row_vanishes(self):
        tables = dual.su2_golden_tables()
        for name in dual.SU2_NAMES:
            assert np.linalg.norm(tables["lambda"][("u", name)]) == 0.0

    def test_star_zx_gives_iy(self):
        tables = dual.su2_golden_tables()
        coeffs = dual.su2_coefficients(tables["star"][("z", "x")])
        assert coeffs["y"] == pytest.approx(1j)
        assert all(abs(coeffs[k]) < 1e-15 for k in ("u", "x", "z"))

    def test_r_symmetrization_constant(self):
        # convention fixed by R(du, dx) = 2x: generator is UX + XU = 2X
        tables = dual.su2_golden_tables()
        assert np.allclose(tables["r"][("u", "x")], 2 * PAULI_X)

    def test_json_export_round_trips(self):
        from geomqm.kernel import parse_matrix

        tables = dual.su2_golden_tables()
        payload = dual.su2_tables_json(tables)
        m = parse_matrix(payload["lambda"]["x,y"].encode())
        assert np.array_equal(m, tables["lambda"][("x", "y")])

class TestStarReport:
    def test_value_parts_and_check(self):
        a, b, xi = (random_hermitian(3, 5, k) for k in range(3))
        rep, results = dual.star_report(a, b, xi)
        value = dual.star_eval(a, b, xi)
        assert (results["star_re"], results["star_im"]) == (value.real, value.imag)
        assert results["jordan_part"] == dual.r_eval(a, b, xi) / 2
        assert results["lie_part"] == dual.lambda_eval(a, b, xi) / 2
        assert rep.passed and rep.checks[0].name == "star_equals_r_half_plus_i_lambda_half"
        assert rep.checks[0].max_residual == dual.star_decomposition(a, b, xi)

    @pytest.mark.parametrize("which", ["a", "b", "xi"])
    @pytest.mark.parametrize("defect", ["nan", "inf", "non_hermitian", "mismatched"])
    def test_bad_input_rejected_before_evaluation(self, monkeypatch, which, defect):
        for name in ("star_eval", "r_eval", "lambda_eval", "star_decomposition"):
            monkeypatch.setattr(dual, name, lambda *a: pytest.fail("evaluated bad input"))
        args = {name: random_hermitian(3, 6, k) for k, name in enumerate(("a", "b", "xi"))}
        m = args[which]
        if defect == "mismatched":
            args[which] = random_hermitian(2, 6, 9)
        else:
            m[0, 1] = {"nan": np.nan, "inf": np.inf, "non_hermitian": m[0, 1] + 1e-6}[defect]
        with pytest.raises(DimensionError if defect == "mismatched" else ValueError):
            dual.star_report(**args)

    def test_stack_rejected(self):
        a = random_hermitian(3, 7)
        with pytest.raises(DimensionError):
            dual.star_report(np.stack([a, a]), a, a)


class TestVerifyDualGeometry:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_suite_passes(self, n):
        report = dual.verify_dual_geometry(n, trials=25, seed=n, tol=1e-9)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_matches_reference_trials(self, monkeypatch, n):
        # each product computed once per chunk gives the reports of the identities as written
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", 10 * n * n)  # chunks of 10 trials
        for seed in range(5):
            assert dual.verify_dual_geometry(n, 30, seed).to_dict() \
                == reference_dual_geometry(n, 30, seed).to_dict()


class TestIsStateInputs:
    def test_non_hermitian_rejected(self):
        # PSD-looking Hermitian part and unit trace, but not Hermitian itself
        assert not dual.is_state(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
