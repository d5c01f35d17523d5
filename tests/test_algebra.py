import numpy as np
import pytest

from geomqm import algebra
from geomqm import report as report_module
from geomqm.algebra import (
    CONVENTIONS,
    associator_defect,
    jordan_product,
    lie_bracket,
    trace_form,
)
from geomqm.kernel import DimensionError, is_hermitian, random_hermitian
from geomqm.report import verify_row
from conftest import PAULI_X, PAULI_Y, PAULI_Z
from suite_reference import reference_jordan_lie


class TestLieBracket:
    def test_xy_gives_2z(self):
        # oracle: -i(XY - YX) = -i(iZ - (-iZ)) = 2Z by direct multiplication
        assert np.allclose(lie_bracket(PAULI_X, PAULI_Y), 2 * PAULI_Z)

    def test_zx_gives_2y(self):
        assert np.allclose(lie_bracket(PAULI_Z, PAULI_X), 2 * PAULI_Y)

    def test_self_bracket_vanishes(self):
        a = random_hermitian(4, 1)
        assert np.linalg.norm(lie_bracket(a, a)) == 0.0

    def test_antisymmetry_exact(self):
        a, b = random_hermitian(3, 2, 0), random_hermitian(3, 2, 1)
        assert np.linalg.norm(lie_bracket(a, b) + lie_bracket(b, a)) == 0.0

    def test_hermitian_closure(self):
        a, b = random_hermitian(5, 3, 0), random_hermitian(5, 3, 1)
        assert is_hermitian(lie_bracket(a, b), 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lie_bracket(np.eye(2), np.eye(3))


class TestJordanProduct:
    def test_xx_gives_identity(self):
        assert np.allclose(jordan_product(PAULI_X, PAULI_X), np.eye(2))

    def test_identity_is_unit(self):
        a = random_hermitian(4, 5)
        assert np.allclose(jordan_product(a, np.eye(4)), a)

    def test_xy_vanishes(self):
        # XY = -YX for Pauli matrices
        assert np.allclose(jordan_product(PAULI_X, PAULI_Y), 0.0)

    def test_hermitian_closure(self):
        a, b = random_hermitian(5, 6, 0), random_hermitian(5, 6, 1)
        assert is_hermitian(jordan_product(a, b), 1e-12)


class TestTraceForm:
    def test_pauli_orthonormality(self):
        assert trace_form(PAULI_X, PAULI_X) == pytest.approx(1.0)
        assert trace_form(PAULI_X, PAULI_Y) == pytest.approx(0.0)
        assert trace_form(np.eye(2), np.eye(2)) == pytest.approx(1.0)


class TestAssociator:
    def test_repeated_outer_arguments_vanish(self):
        a, b = random_hermitian(3, 7, 0), random_hermitian(3, 7, 1)
        assert np.linalg.norm(associator_defect(a, b, a)) <= 1e-12

    def test_xyz_matches_nested_bracket(self):
        lhs = associator_defect(PAULI_X, PAULI_Y, PAULI_Z)
        rhs = lie_bracket(lie_bracket(PAULI_X, PAULI_Z), PAULI_Y) / 4
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_diagonal_operators_associate(self):
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        b = np.diag([0.5, -1.0, 2.0]).astype(complex)
        c = np.diag([2.0, 0.0, -1.0]).astype(complex)
        assert np.linalg.norm(associator_defect(a, b, c)) == 0.0


class TestVerifySuite:
    def test_all_identities_pass(self):
        (report,) = verify_row(algebra.JORDAN_LIE, 2, 100, 3, 1e-9)
        assert report.passed
        assert {c.name for c in report.checks} == {
            "jacobi", "jordan_identity",
            "trace_invariance_lie", "trace_invariance_jordan",
            "leibniz", "associator",
        }

    def test_one_by_one_matrices_near_exact(self):
        # scalars: every identity reduces to float arithmetic rounding
        (report,) = verify_row(algebra.JORDAN_LIE, 1, 10, 0, 1e-9)
        assert all(c.max_residual <= 1e-15 for c in report.checks)

    @staticmethod
    def perturb_bracket(monkeypatch, eps):
        """Add eps times the Jordan product to the suite's Lie bracket, the Lie part of a pair."""
        part = algebra.lie_part
        monkeypatch.setattr(algebra, "lie_part", lambda p: part(p) + eps * algebra.jordan_part(p))

    def test_perturbed_bracket_trips_jacobi(self, monkeypatch):
        self.perturb_bracket(monkeypatch, 0.1)
        (report,) = verify_row(algebra.JORDAN_LIE, 3, 20, 1, 1e-9)
        failed = {c.name for c in report.checks if not c.passed}
        assert "jacobi" in failed

    def test_nan_residual_fails(self, monkeypatch):
        # a NaN residual is the worst value, never one that a max() drops
        self.perturb_bracket(monkeypatch, float("nan"))
        (report,) = verify_row(algebra.JORDAN_LIE, 2, 3, 0, 1e-9)
        assert not report.passed
        jacobi = next(c for c in report.checks if c.name == "jacobi")
        assert np.isnan(jacobi.max_residual)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_matches_reference_trials(self, monkeypatch, n):
        # each product computed once per chunk gives the reports of the identities as written
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", 10 * n * n)  # chunks of 10 trials
        for seed in range(5):
            (report,) = verify_row(algebra.JORDAN_LIE, n, 30, seed, 1e-9)
            assert report.to_dict() == reference_jordan_lie(n, 30, seed).to_dict()

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_random_dimensions(self, n):
        assert verify_row(algebra.JORDAN_LIE, n, 20, n, 1e-9)[0].passed

    def test_conventions_recorded(self):
        (report,) = verify_row(algebra.JORDAN_LIE, 2, 1, 0, 1e-9)
        conventions = report.to_dict()["conventions"]
        assert conventions["hbar"] == CONVENTIONS.hbar
        assert "lie_sign" in conventions

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            verify_row(algebra.JORDAN_LIE, 0, 1, 0, 1e-9)
        with pytest.raises(ValueError):
            verify_row(algebra.JORDAN_LIE, 2, 0, 0, 1e-9)
