import numpy as np
import pytest

from geomqm import distributions as dist
from geomqm.algebra import trace_form
from geomqm.kernel import eig_hermitian, make_rng, random_hermitian, random_hermitian_stack
from conftest import PAULI_X, PAULI_Y, PAULI_Z, closed_form_projection, unitary_from_seed
import svd_oracle as oracle


class TestTensors:
    def test_jhat_central_point(self):
        a = random_hermitian(3, 1)
        assert np.linalg.norm(dist.jhat(np.eye(3), a)) == 0.0

    def test_jhat_pauli(self):
        # [X, Z]_- = -2Y by direct multiplication
        assert np.allclose(dist.jhat(PAULI_Z, PAULI_X), -2 * PAULI_Y)

    def test_rhat_identity_point(self):
        a = random_hermitian(3, 2)
        assert np.allclose(dist.rhat(np.eye(3), a), a)

    def test_rhat_zz(self):
        assert np.allclose(dist.rhat(PAULI_Z, PAULI_Z), np.eye(2))

    def test_rhat_zero_point(self):
        a = random_hermitian(2, 3)
        assert np.linalg.norm(dist.rhat(np.zeros((2, 2)), a)) == 0.0


class TestCommutation:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_random_defect(self, n):
        for seed in range(5):
            xi = random_hermitian(n, seed, 0)
            a = random_hermitian(n, seed, 1)
            scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(xi) ** 2)
            assert dist.commutation_defect(xi, a) <= 1e-10 * scale

    def test_identity_point(self):
        assert dist.commutation_defect(np.eye(2), random_hermitian(2, 4)) <= 1e-14

    def test_equal_arguments(self):
        xi = random_hermitian(3, 5)
        assert dist.commutation_defect(xi, xi) <= 1e-13


class TestHermitianBasis:
    """The Gell-Mann basis of the SVD oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthonormal_under_trace_form(self, n):
        basis = oracle.hermitian_basis(n)
        assert len(basis) == n * n
        for i, e in enumerate(basis):
            for j, f in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert trace_form(e, f) == pytest.approx(expected, abs=1e-12)

    def test_vectorize_round_trip(self):
        basis = oracle.hermitian_basis(3)
        m = random_hermitian(3, 6)
        assert np.allclose(oracle.devectorize(oracle.vectorize(m, basis), basis), m)


class TestRanks:
    def test_generic_su2_lambda_rank(self):
        xi = np.diag([1.0, -0.5]).astype(complex)
        assert dist.distribution_basis(xi, "Lambda").rank == 2

    def test_central_point_rank_zero(self):
        assert dist.distribution_basis(np.eye(2, dtype=complex), "Lambda").rank == 0

    def test_generic_invertible_one_full(self):
        xi = np.diag([1.0, -0.5]).astype(complex)
        assert dist.distribution_basis(xi, "One").rank == 4

    def test_identity_point_r_full(self):
        xi = np.eye(3, dtype=complex)
        assert dist.distribution_basis(xi, "R").rank == 9
        assert dist.distribution_basis(xi, "Lambda").rank == 0

    def test_dimension_formula(self):
        for seed in range(5):
            xi = random_hermitian(3, seed, 30)
            ranks = {k: dist.distribution_basis(xi, k).rank for k in dist.KINDS}
            assert ranks["Zero"] + ranks["One"] == ranks["Lambda"] + ranks["R"]

    def test_lambda_and_r_inside_one(self):
        xi = random_hermitian(3, 31)
        one = dist.distribution_basis(xi, "One")
        for kind in ("Lambda", "R"):
            for v in oracle.basis_matrices(xi, kind):
                assert dist.membership_residual(v, one) <= 1e-9

    def test_basis_orthonormal(self):
        # the oracle's basis is orthonormal and spans the closed-form subspace
        xi = random_hermitian(4, 32)
        d = dist.distribution_basis(xi, "Lambda")
        basis = oracle.basis_matrices(xi, "Lambda")
        assert len(basis) == d.rank
        for i, e in enumerate(basis):
            for j, f in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert trace_form(e, f) == pytest.approx(expected, abs=1e-10)
        assert np.max(np.abs(closed_form_projection(basis, d) - basis)) <= 1e-12

    @pytest.mark.parametrize("c", [2.0, 1e-3])
    def test_scalar_point(self, c):
        # U(cI)U^dag is scalar up to round-off: Lambda and Zero vanish, R fills
        u = unitary_from_seed(4, 33)
        xi = u @ (c * np.eye(4)) @ u.conj().T
        ranks = {k: dist.distribution_basis(xi, k).rank for k in dist.KINDS}
        assert ranks == {"Lambda": 0, "Zero": 0, "R": 16, "One": 16}
        assert ranks == {k: oracle.distribution_columns(xi, k).shape[1] for k in dist.KINDS}

    @pytest.mark.parametrize("top", [5.0, 0.5])
    @pytest.mark.parametrize("factor, lambda_rank", [(1.001, 12), (0.999, 10)])
    def test_gap_at_cutoff(self, top, factor, lambda_rank):
        # cut = TAU_RANK * max(1, max|lam|); one gap sits just above or below it
        gap = factor * dist.TAU_RANK * max(1.0, top)
        u = unitary_from_seed(4, 34)
        xi = (u * np.array([0.1, 0.1 + gap, top / 2, top])) @ u.conj().T
        ranks = {k: dist.distribution_basis(xi, k).rank for k in dist.KINDS}
        assert ranks == {"Lambda": lambda_rank, "Zero": lambda_rank, "R": 16, "One": 16}
        assert ranks == {k: oracle.distribution_columns(xi, k).shape[1] for k in dist.KINDS}


class TestInputGuards:
    POINT = random_hermitian(3, 50)

    @pytest.mark.parametrize("entry", [
        lambda xi: dist.distribution_basis(xi, "Lambda"),
        dist.orbit_invariants,
    ])
    def test_non_hermitian_rejected_before_work(self, entry, monkeypatch):
        calls = []
        monkeypatch.setattr(dist, "eig_hermitian", lambda *a: calls.append(a))
        xi = self.POINT + 1e-3 * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(ValueError):
            entry(xi)
        assert calls == []

    @pytest.mark.parametrize("entry", [
        lambda xi: dist.distribution_basis(xi, "R"),
        dist.orbit_invariants,
    ])
    def test_hermitian_within_cli_tolerance_accepted(self, entry):
        # the CLI accepts ||xi - xi^dag||_F <= 1e-8 * max(1, ||xi||_F)
        entry(self.POINT + 1e-10 * np.triu(np.ones((3, 3)), 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [
        lambda xi: dist.distribution_basis(xi, "One"),
        dist.orbit_invariants,
    ])
    def test_non_finite_rejected(self, entry, bad):
        xi = self.POINT.copy()
        xi[1, 1] = bad
        with pytest.raises(ValueError):
            entry(xi)


class TestInvolutivity:
    @pytest.mark.parametrize("kind", ["Lambda", "Zero", "One"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_involutive_kinds_pass(self, kind, n):
        report = dist.involutivity_evidence(kind, n, trials=20, seed=5)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_r_witness_found(self, n):
        report = dist.involutivity_evidence("R", n, trials=20, seed=5)
        assert report.passed
        assert report.details["witness_residual"] > 1e-8
        assert "xi_real" in report.details["witness_matrices"]

    def test_r_witness_is_first_worst_trial(self):
        # one matrix at a time: trial k's inputs are the next rows of the inputs' substreams
        n, trials, seed = 3, 8, 5
        draw = dist._involutivity_inputs("R", n, seed)
        residuals, points = [], []
        for k in range(trials):
            xi, a, b = (m[0] for m in draw(np.array([k])))
            value = dist._commutator_value("R", xi, a, b)
            residuals.append(dist.membership_residual(value, dist.distribution_basis(xi, "R")))
            points.append(xi)
        k = int(np.argmax(residuals))
        report = dist.involutivity_evidence("R", n, trials, seed)
        assert report.checks[0].worst_trial == k
        assert report.details["witness_residual"] == residuals[k]
        assert report.details["witness_matrices"]["xi_real"] == points[k].real.tolist()

    def test_generic_points_redraw_rejected_rows(self, monkeypatch):
        # a gap that about half of the Gaussian 2x2 spectra miss forces redraws
        monkeypatch.setattr(dist, "GENERIC_GAP", 1.0)
        n, seed, trials = 2, 5, 12

        def gap(xi):
            return np.diff(eig_hermitian(xi).eigenvalues, axis=-1)[..., 0]

        points = dist._random_generic_points(n, np.arange(trials), make_rng(seed, 0), seed, 0)
        assert gap(points).min() > 1.0
        plain = random_hermitian_stack(n, trials, make_rng(seed, 0))
        kept = gap(plain) > 1.0
        assert 0 < kept.sum() < trials
        assert np.array_equal(points[kept], plain[kept])
        for k in np.flatnonzero(~kept):  # the first row of (seed, 0, k) that has the gap
            rng = make_rng(seed, 0, k)
            rows = random_hermitian_stack(n, dist.GENERIC_ATTEMPTS - 1, rng)
            assert np.array_equal(points[k], rows[np.argmax(gap(rows) > 1.0)])
        # chunks continue the point generator and never share a rejection substream
        rng = make_rng(seed, 0)
        chunks = [dist._random_generic_points(n, ks, rng, seed, 0)
                  for ks in (np.arange(5), np.arange(5, trials))]
        assert np.array_equal(np.concatenate(chunks), points)

    def test_generic_points_give_up_after_attempts(self, monkeypatch):
        monkeypatch.setattr(dist, "GENERIC_GAP", np.inf)
        monkeypatch.setattr(dist, "GENERIC_ATTEMPTS", 3)
        rows = []
        draw = dist.random_hermitian_stack
        monkeypatch.setattr(dist, "random_hermitian_stack",
                            lambda n, m, rng: rows.append(m) or draw(n, m, rng))
        with pytest.raises(RuntimeError, match="distinct eigenvalues"):
            dist.involutivity_evidence("Lambda", 2, 5, 0)
        assert sum(rows) == 5 * 3  # every trial's point drawn GENERIC_ATTEMPTS times

    def test_nan_membership_residual_fails(self, monkeypatch):
        # One checks three commutator values per trial stack; make the middle one NaN
        calls = []
        real = dist.membership_residual

        def probe(vector, basis):
            calls.append(None)
            residuals = real(vector, basis)
            return np.full_like(residuals, np.nan) if len(calls) % 3 == 2 else residuals

        monkeypatch.setattr(dist, "membership_residual", probe)
        report = dist.involutivity_evidence("One", 2, trials=3, seed=0)
        assert np.isnan(report.checks[0].max_residual)
        assert not report.passed

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            dist.involutivity_evidence("bogus", 2, 1, 0)


class TestOrbitInvariants:
    def test_diag_readoff(self):
        inv = dist.orbit_invariants(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(inv["spectrum"], [-1.0, 1.0])
        assert inv["rank"] == 2
        assert inv["signature"] == 0

    def test_sylvester_invariance(self):
        xi = random_hermitian(3, 40)
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert abs(np.linalg.det(t)) > 1e-6
        before = dist.orbit_invariants(xi)
        after = dist.orbit_invariants(t @ xi @ t.conj().T)
        assert (before["rank"], before["signature"]) == (after["rank"], after["signature"])

    def test_unitary_spectrum_invariance(self):
        xi = random_hermitian(4, 41)
        u = unitary_from_seed(4, 42)
        before = dist.orbit_invariants(xi)["spectrum"]
        after = dist.orbit_invariants(u @ xi @ u.conj().T)["spectrum"]
        assert np.allclose(before, after, atol=1e-10)

    def test_spectrum_constant_along_lambda_flow(self):
        # the Lambda distribution is tangent to unitary orbits
        from geomqm.dynamics import EvolutionSpec, vonneumann_flow

        xi = random_hermitian(3, 43)
        h = random_hermitian(3, 44)
        spec = EvolutionSpec(hamiltonian=h, t_final=2.0, steps=20, picture="vonneumann")
        w0 = eig_hermitian(xi).eigenvalues
        for sample in vonneumann_flow(spec, xi):
            assert np.allclose(eig_hermitian(sample).eigenvalues, w0, atol=1e-10)
