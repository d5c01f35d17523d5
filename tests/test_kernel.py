import gc
import json
import warnings

import numpy as np
import pytest

from geomqm.kernel import (
    DimensionError,
    MatrixParseError,
    eig_hermitian,
    eigvals_hermitian,
    is_hermitian,
    make_rng,
    parse_matrix,
    parse_vector,
    random_hermitian,
    serialize_matrix,
    unitary_exp,
)
from geomqm import dual, kernel
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

    @pytest.mark.parametrize("scale", [1e-10, 1e-170, 1e-300, 5e-320])
    def test_small_entries_judged_relative_to_the_matrix(self, scale):
        # the test once compared with max(1, ||M||_F), and at 1e-170 both norms underflowed to
        # 0 <= 0, so a small non-Hermitian matrix passed; 5e-320 is subnormal
        m = scale * np.array([[1, 2], [0, 1]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_hermitian(m, kernel.TAU_HERMITIAN) is False
            assert is_hermitian(m + m.T, kernel.TAU_HERMITIAN) is True

    @pytest.mark.parametrize("scale", [1e-140, 1e-3, 1.0, 3e5, 1e100, 1e150])
    def test_matches_unscaled_norms(self, scale):
        # wherever no square in the norms overflows or underflows, the answer is the plain
        # formula's, bit for bit
        def fro(x):
            return np.linalg.norm(x, axis=(0, 1))

        tol = 1e-8
        for seed in range(20):
            a = random_hermitian(4, seed, 99) * scale
            d = random_hermitian(4, seed, 98) * 1j * scale
            for rel in (0.5, 0.99, 1.0, 1.01, 2.0):
                m = a + rel * tol * fro(a) / fro(d) / 2 * d
                expected = fro(m - m.conj().T) <= tol * fro(m)
                assert is_hermitian(m, tol) is bool(expected)


class TestRelative:
    def test_no_floor(self):
        # a residual of 1e-20 at size 1e-10 is not read as absolute
        assert kernel.relative(1e-20, 1e-10) == pytest.approx(1e-10, rel=1e-15)
        assert kernel.relative(np.array([0.0, 3.0, 2.0]), np.array([0.0, 4.0, 0.5])).tolist() == [
            0.0, 0.75, 4.0]

    def test_zero_size(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel.relative(0.0, 0.0) == 0.0
            assert kernel.relative(1e-300, 0.0) == np.inf
            assert np.isnan(kernel.relative(np.nan, 0.0))
            assert np.isnan(kernel.relative(np.nan, 1.0))


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


def _parse_both_ways(text, cols=None):
    """(one-pass result, per-entry result) of a well-formed payload."""
    data = json.loads(text)["data"]
    fast = kernel._entries_in_one_pass(data, cols)
    assert fast is not None, "well-formed data left the one-pass route"
    return fast, kernel._walk_entries(data, cols)


class TestOnePassParse:
    @pytest.mark.parametrize("text, cols", [
        (b'{"dim":2,"data":[[[1,0],[2,-3]],[[-4,5],[6,7]]]}', None),  # ints
        (b'{"dim":2,"data":[[[-0.0,0.0],[0.0,-0.0]],[[1,-0.0],[-0.0,2.5]]]}', None),
        (b'{"dim":1,"data":[[[1e308,-1e308]]]}', None),
        (b'{"dim":2,"data":[[[1.5e-320,3]],[[-2,0.1]]]}', 1),  # an n x 1 vector
        (b'{"dim":3,"data":[[[1,0]],[[0,1]],[[-0.0,-0.0]]]}', 1),
    ])
    def test_bit_identical_to_per_entry_walk(self, text, cols):
        fast, walked = _parse_both_ways(text, cols)
        assert fast.dtype == walked.dtype == complex and fast.shape == walked.shape
        assert fast.tobytes() == walked.tobytes()  # also tells -0.0 from 0.0
        parse = parse_vector if cols == 1 else parse_matrix
        expected = walked[:, 0] if cols == 1 else walked
        assert parse(text).tobytes() == expected.tobytes()

    def test_random_round_trip_bit_identical(self):
        m = random_hermitian(7, 21) * 1e-3
        m[0, 1] = -0.0
        fast, walked = _parse_both_ways(serialize_matrix(m))
        assert fast.tobytes() == walked.tobytes() == m.tobytes()

    @pytest.mark.parametrize("entry, message", [
        ("true", "entry at row 1, column 0 is not a [re, im] number pair"),
        ("[1, true]", "entry at row 1, column 0 is not a [re, im] number pair"),
        ('["1", 0]', "entry at row 1, column 0 is not a [re, im] number pair"),
        ("null", "entry at row 1, column 0 is not a [re, im] number pair"),
        ("[1, null]", "entry at row 1, column 0 is not a [re, im] number pair"),
        ("[1, 0, 0]", "entry at row 1, column 0 is not a [re, im] number pair"),
        ("[1, [0]]", "entry at row 1, column 0 is not a [re, im] number pair"),
        ("[NaN, 0]", "non-finite entry at row 1, column 0"),
        ("[0, -Infinity]", "non-finite entry at row 1, column 0"),
        ("[1e400, 0]", "non-finite entry at row 1, column 0"),
        ("[0, -1" + "0" * 400 + "]", "non-finite entry at row 1, column 0"),  # huge int
    ])
    def test_malformed_entry_messages(self, entry, message):
        text = '{"dim":2,"data":[[[1,0],[2,0]],[' + entry + ',[3,0]]]}'
        assert kernel._entries_in_one_pass(json.loads(text)["data"], None) is None
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text, message", [
        ('{"dim":2,"data":[[[1,0],[0,0]],[[0,0]]]}', "ragged row 1: expected 2 entries, got 1"),
        ('{"dim":2,"data":[[[1,0]],[[0,0],[1,0]]]}', "ragged row 1: expected 1 entries, got 2"),
        ('{"dim":2,"data":[[[1,0],[0,0]],7]}', "row 1 is not a list"),
        ('{"dim":2,"data":[[[1,0]],[[0,0]]]}', "expected square data, got 2x1"),
    ])
    def test_malformed_row_messages(self, text, message):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix(text)
        assert str(exc.value) == message

    def test_vector_with_two_columns(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_vector(b'{"dim":1,"data":[[[1,0],[0,0]]]}')
        assert str(exc.value) == "ragged row 0: expected 1 entries, got 2"

    @pytest.mark.parametrize("text, match", [
        (b'{"dim":1,"data":[[[1,0]]],"x":"\xff"}', "not UTF-8 text"),
        (b'{"dim":1,"data":[[[1' + b"0" * 5000 + b',0]]]}', "invalid JSON"),  # over-long int
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),  # nesting past the recursion limit
    ])
    def test_undecodable_input(self, text, match):
        with pytest.raises(MatrixParseError, match=match):
            parse_matrix(text)


def _payload_with_bool_at_row_31():
    obj = json.loads(serialize_matrix(random_hermitian(32, 0)))
    obj["data"][31][4] = True
    return json.dumps(obj).encode()


class TestParseCollector:
    """A payload is decoded with the cyclic collector paused, and its state restored."""

    PAYLOAD = serialize_matrix(random_hermitian(32, 0))  # 1056 lists per decode

    def test_no_collection_starts_in_a_parse(self):
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(hook)
        try:
            for _ in range(300):
                parse_matrix(self.PAYLOAD)
        finally:
            gc.callbacks.remove(hook)
        assert starts == []

    @pytest.mark.parametrize("text, match", [
        (PAYLOAD, None),
        (_payload_with_bool_at_row_31(), "entry at row 31, column 4 is not a"),
        (b'{"dim": 2, "data": [[', "invalid JSON"),
        (b'{"dim":1,"data":[[[1,0]]],"x":"\xff"}', "not UTF-8 text"),
    ])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, text, match, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            if match is None:
                assert parse_matrix(text).tobytes() == random_hermitian(32, 0).tobytes()
            else:
                with pytest.raises(MatrixParseError, match=match):
                    parse_matrix(text)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestEigvalsHermitian:
    def test_matches_eig_hermitian_over_a_stack(self):
        stack = np.array([random_hermitian(6, 5, k) for k in range(4)])
        stack[1] += 0.5j * (stack[1] - stack[1].T)  # a non-Hermitian part to drop
        w = eigvals_hermitian(stack)
        assert w.shape == (4, 6)
        assert np.allclose(w, eig_hermitian(stack).eigenvalues, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_like_eig_hermitian(self, bad):
        a = random_hermitian(3, 1)
        a[2, 0] = bad
        with pytest.raises(ValueError, match=r"non-finite entries at \[\(2, 0\)\]"):
            eigvals_hermitian(a)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            eigvals_hermitian(np.zeros((2, 3)))
