import json
import warnings

import numpy as np
import pytest

from geomqm.kernel import (
    DimensionError,
    MatrixParseError,
    eig_hermitian,
    is_hermitian,
    make_rng,
    parse_matrix,
    parse_vector,
    random_hermitian,
    serialize_matrix,
    unitary_exp,
)
from geomqm import dual
from conftest import PAULI_X, PAULI_Y, PAULI_Z


class TestIsHermitian:
    def test_identity(self):
        assert is_hermitian(np.eye(3), 1e-12)

    def test_skew_hermitian_rejected(self):
        m = np.array([[0, 1j], [1j, 0]])
        assert not is_hermitian(m)

    def test_pauli_y(self):
        assert is_hermitian(PAULI_Y, 1e-14)

    @pytest.mark.parametrize("where", [(0, 2), (1, 1)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_is_false_without_warnings(self, bad, where):
        # off the diagonal, inf - 0 gave inf <= tol * inf, so the answer was True;
        # on it, inf - inf warned
        m = np.eye(3, dtype=complex)
        m[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_hermitian(m) is False
            assert not dual.is_state(m)
            assert is_hermitian(np.stack([np.eye(3), m, np.eye(3)])).tolist() == [True, False, True]

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            is_hermitian(np.zeros((2, 3)))

    def test_huge_entries_without_overflow(self):
        # squaring 1e200 overflowed the norms to inf <= tol * inf, so the answer was True
        m = np.array([[1e200, 0], [5e199, 0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_hermitian(m, 1e-8) is False
            assert is_hermitian(m + m.T, 1e-8) is True
            assert is_hermitian(np.stack([m, m + m.T, np.eye(2)]), 1e-8).tolist() == [
                False, True, True]

    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 3e5, 1e100, 1e150])
    def test_matches_unscaled_norms(self, scale):
        # wherever the norms do not overflow, the answer is the plain formula's, bit for bit
        def fro(x):
            return np.linalg.norm(x, axis=(0, 1))

        tol = 1e-8
        for seed in range(20):
            a = random_hermitian(4, seed, 99) * scale
            d = random_hermitian(4, seed, 98) * 1j * scale
            for rel in (0.5, 0.99, 1.0, 1.01, 2.0):
                m = a + rel * tol * max(1.0, fro(a)) / fro(d) / 2 * d
                expected = fro(m - m.conj().T) <= tol * max(1.0, fro(m))
                assert is_hermitian(m, tol) is bool(expected)


class TestEigHermitian:
    def test_pauli_z(self):
        # oracle: characteristic polynomial of diag(1, -1) is (l-1)(l+1)
        dec = eig_hermitian(PAULI_Z)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        dec = eig_hermitian(np.zeros((3, 3)))
        assert np.allclose(dec.eigenvalues, 0.0)
        assert np.allclose(dec.eigenvectors, np.eye(3))

    def test_pauli_x_eigenvectors(self):
        # oracle: hand diagonalization, eigenvectors (1, -/+1)/sqrt(2)
        dec = eig_hermitian(PAULI_X)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
        for val, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert np.allclose(PAULI_X @ vec, val * vec, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_random_reconstruction(self, n):
        for seed in range(5):
            a = random_hermitian(n, seed, n)
            dec = eig_hermitian(a)
            rel = np.linalg.norm(a - dec.reconstruct()) / np.linalg.norm(a)
            assert rel <= 1e-10
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-10

    def test_eigenvalues_ascending(self):
        a = random_hermitian(6, 4)
        w = eig_hermitian(a).eigenvalues
        assert np.all(np.diff(w) >= 0)

    def test_degenerate_spectrum_projector(self):
        # compare eigenspace projectors, never individual vectors
        a = np.diag([1.0, 1.0, 3.0]).astype(complex)
        dec = eig_hermitian(a)
        v = dec.eigenvectors[:, :2]
        proj = v @ v.conj().T
        assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-10)


class TestUnitaryExp:
    def test_zero_generator(self):
        assert np.allclose(unitary_exp(np.zeros((3, 3)), 2.7), np.eye(3))

    def test_pauli_z_quarter_period(self):
        # exp(-i (pi/2) Z) = diag(exp(-i pi/2), exp(i pi/2)) = diag(-i, i)
        u = unitary_exp(PAULI_Z, np.pi / 2)
        assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-12)

    def test_pauli_z_half_period(self):
        # exp(-i pi (+/-1)) = -1 on both eigenvalues
        u = unitary_exp(PAULI_Z, np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-12)

    def test_pauli_x_full_period(self):
        u = unitary_exp(PAULI_X, 2 * np.pi)
        assert np.linalg.norm(u - np.eye(2)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_group_law_and_unitarity(self, n):
        a = random_hermitian(n, 9, n)
        t, s = 0.7, -1.3
        lhs = unitary_exp(a, t) @ unitary_exp(a, s)
        rhs = unitary_exp(a, t + s)
        assert np.linalg.norm(lhs - rhs) <= 1e-10
        u = unitary_exp(a, t)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10

    def test_stack_matches_per_matrix(self):
        stack = np.array([random_hermitian(3, 9, k) for k in range(4)]).reshape(2, 2, 3, 3)
        u = unitary_exp(stack, 0.7)
        assert u.shape == (2, 2, 3, 3)
        for idx in np.ndindex(2, 2):
            assert np.max(np.abs(u[idx] - unitary_exp(stack[idx], 0.7))) <= 1e-14

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_rejected(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            unitary_exp(np.eye(2), t)


class TestRandomHermitian:
    def test_deterministic(self):
        assert np.array_equal(random_hermitian(2, 1), random_hermitian(2, 1))

    def test_hermitian_by_construction(self):
        assert is_hermitian(random_hermitian(4, 7), 1e-14)

    def test_seed_collision(self):
        assert not np.array_equal(random_hermitian(2, 1), random_hermitian(2, 2))

    def test_stream_splitting(self):
        a = random_hermitian(3, 5, 0)
        b = random_hermitian(3, 5, 1)
        assert not np.array_equal(a, b)

    def test_rng_substreams_independent_of_call_order(self):
        r1 = make_rng(3, 1).standard_normal(4)
        _ = make_rng(3, 0).standard_normal(100)
        r2 = make_rng(3, 1).standard_normal(4)
        assert np.array_equal(r1, r2)


class TestMatrixJson:
    def test_serialize_identity(self):
        payload = json.loads(serialize_matrix(np.eye(2)))
        assert payload == {"dim": 2, "data": [[[1.0, 0.0], [0.0, 0.0]],
                                              [[0.0, 0.0], [1.0, 0.0]]]}

    def test_round_trip_exact(self):
        m = random_hermitian(5, 13) * np.pi
        assert np.array_equal(parse_matrix(serialize_matrix(m)), m)

    def test_ragged_rows_rejected(self):
        text = b'{"dim":2,"data":[[[1,0],[0,0]],[[0,0]]]}'
        with pytest.raises(MatrixParseError, match="ragged row 1"):
            parse_matrix(text)

    def test_malformed_json_position(self):
        with pytest.raises(MatrixParseError, match="position"):
            parse_matrix(b'{"dim": 2, "data": [[')

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixParseError, match="non-finite"):
            parse_matrix(b'{"dim":1,"data":[[[1e999,0]]]}')

    def test_non_square_rejected(self):
        with pytest.raises(MatrixParseError, match="square"):
            parse_matrix(b'{"dim":2,"data":[[[1,0]],[[0,0]]]}')

    def test_vector_round_trip(self):
        v = np.array([1.0 + 2.0j, -0.5j])
        assert np.array_equal(parse_vector(serialize_matrix(v)), v)


class TestEigHermitianInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        a = random_hermitian(3, 1)
        a[1, 2] = bad
        with pytest.raises(ValueError, match=r"non-finite entries at \[\(1, 2\)\]"):
            eig_hermitian(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_stack_rejected(self, bad):
        stack = np.array([random_hermitian(3, 2, k) for k in range(4)])
        stack[2, 0, 1] = complex(0.0, bad)
        with pytest.raises(ValueError, match=r"non-finite entries at \[\(2, 0, 1\)\]"):
            eig_hermitian(stack)

    def test_stack_matches_per_slice_calls(self):
        stack = np.array([random_hermitian(5, 3, k) for k in range(6)]).reshape(2, 3, 5, 5)
        dec = eig_hermitian(stack)
        assert dec.eigenvalues.shape == (2, 3, 5)
        assert dec.eigenvectors.shape == (2, 3, 5, 5)
        for idx in np.ndindex(2, 3):
            single = eig_hermitian(stack[idx])
            assert np.allclose(dec.eigenvalues[idx], single.eigenvalues, rtol=0, atol=1e-13)
            # compare rank-one projectors: eigenvector phases are arbitrary
            for v, w in zip(dec.eigenvectors[idx].T, single.eigenvectors.T):
                assert np.allclose(np.outer(v, v.conj()), np.outer(w, w.conj()), atol=1e-12)

    def test_stack_reconstruct_acts_per_slice(self):
        stack = np.array([random_hermitian(4, 4, k) for k in range(3)])
        assert np.linalg.norm(eig_hermitian(stack).reconstruct() - stack) <= 1e-12

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(DimensionError):
            eig_hermitian(np.zeros(shape))


class TestParseDim:
    def test_boolean_dim_rejected(self):
        with pytest.raises(MatrixParseError, match="'dim'"):
            parse_matrix(b'{"dim": true, "data": [[[1, 0]]]}')
