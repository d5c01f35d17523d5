import numpy as np
import pytest

from geomqm import distributions as dist
from geomqm import report as report_module
from geomqm.algebra import trace_form
from geomqm.kernel import eig_hermitian, make_rng, random_hermitian, random_hermitian_stack
from conftest import PAULI_X, PAULI_Y, PAULI_Z, closed_form_projection, unitary_from_seed
import svd_oracle as oracle
from suite_reference import reference_involutivity


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
            size = np.linalg.norm(a) * np.linalg.norm(xi) ** 2
            assert dist.commutation_defect(xi, a) <= 1e-10 * size

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
        assert dist.distribution_basis(xi)["Lambda"].rank == 2

    def test_central_point_rank_zero(self):
        assert dist.distribution_basis(np.eye(2, dtype=complex))["Lambda"].rank == 0

    def test_generic_invertible_one_full(self):
        xi = np.diag([1.0, -0.5]).astype(complex)
        assert dist.distribution_basis(xi)["One"].rank == 4

    def test_identity_point_r_full(self):
        xi = np.eye(3, dtype=complex)
        assert dist.distribution_basis(xi)["R"].rank == 9
        assert dist.distribution_basis(xi)["Lambda"].rank == 0

    def test_one_decomposition_serves_all_four(self, monkeypatch):
        calls, eig = [], dist.eig_hermitian
        monkeypatch.setattr(dist, "eig_hermitian", lambda m: calls.append(m) or eig(m))
        xi = random_hermitian(4, 32)
        bases = dist.distribution_basis(xi)
        assert len(calls) == 1
        assert list(bases) == [b.kind for b in bases.values()] == list(dist.KINDS)
        assert all(b.frame is bases["Lambda"].frame and b.point is xi for b in bases.values())

    def test_dimension_formula(self):
        for seed in range(5):
            xi = random_hermitian(3, seed, 30)
            ranks = {k: dist.distribution_basis(xi)[k].rank for k in dist.KINDS}
            assert ranks["Zero"] + ranks["One"] == ranks["Lambda"] + ranks["R"]

    def test_lambda_and_r_inside_one(self):
        xi = random_hermitian(3, 31)
        one = dist.distribution_basis(xi)["One"]
        for kind in ("Lambda", "R"):
            for v in oracle.basis_matrices(xi, kind):
                assert dist.membership_residual(v, one) <= 1e-9

    def test_basis_orthonormal(self):
        # the oracle's basis is orthonormal and spans the closed-form subspace
        xi = random_hermitian(4, 32)
        d = dist.distribution_basis(xi)["Lambda"]
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
        ranks = {k: dist.distribution_basis(xi)[k].rank for k in dist.KINDS}
        assert ranks == {"Lambda": 0, "Zero": 0, "R": 16, "One": 16}
        assert ranks == {k: oracle.distribution_columns(xi, k).shape[1] for k in dist.KINDS}

    @pytest.mark.parametrize("top", [5.0, 0.5])
    @pytest.mark.parametrize("factor, lambda_rank", [(1.001, 12), (0.999, 10)])
    def test_gap_at_cutoff(self, top, factor, lambda_rank):
        # cut = TAU_RANK * max|lam|; one gap sits just above or below it
        gap = factor * dist.TAU_RANK * top
        u = unitary_from_seed(4, 34)
        xi = (u * np.array([0.1, 0.1 + gap, top / 2, top])) @ u.conj().T
        ranks = {k: dist.distribution_basis(xi)[k].rank for k in dist.KINDS}
        assert ranks == {"Lambda": lambda_rank, "Zero": lambda_rank, "R": 16, "One": 16}
        assert ranks == {k: oracle.distribution_columns(xi, k).shape[1] for k in dist.KINDS}


class TestInputGuards:
    POINT = random_hermitian(3, 50)

    @pytest.mark.parametrize("entry", [
        lambda xi: dist.distribution_basis(xi)["Lambda"],
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
        lambda xi: dist.distribution_basis(xi)["R"],
        dist.orbit_invariants,
    ])
    def test_hermitian_within_cli_tolerance_accepted(self, entry):
        # the CLI accepts ||xi - xi^dag||_F <= 1e-8 * ||xi||_F
        entry(self.POINT + 1e-10 * np.triu(np.ones((3, 3)), 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [
        lambda xi: dist.distribution_basis(xi)["One"],
        dist.orbit_invariants,
    ])
    def test_non_finite_rejected(self, entry, bad):
        xi = self.POINT.copy()
        xi[1, 1] = bad
        with pytest.raises(ValueError):
            entry(xi)


def involutivity(kind, n, trials, seed, tol=1e-9):
    """The report of one kind from the four that involutivity_evidence returns."""
    return dist.involutivity_evidence(n, trials, seed, tol)[dist.KINDS.index(kind)]


class TestInvolutivity:
    @pytest.mark.parametrize("kind", ["Lambda", "Zero", "One"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_involutive_kinds_pass(self, kind, n):
        report = involutivity(kind, n, trials=20, seed=5)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_involutive_kinds_match_per_kind_reference(self, monkeypatch, n):
        # one pass with shared products gives each kind's check as computed on its own
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", 10 * n * n)  # chunks of 10 trials
        for seed in range(5):
            reports = dist.involutivity_evidence(n, 30, seed)
            for kind in ("Lambda", "Zero", "One"):
                checks = reports[dist.KINDS.index(kind)].checks
                assert [c.to_dict() for c in checks] \
                    == [c.to_dict() for c in reference_involutivity(kind, n, 30, seed).checks]

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_r_witness_found(self, n):
        for seed in range(6):
            report = involutivity("R", n, trials=20, seed=seed)
            assert report.passed
            assert report.details["witness_residual"] > 10 * report.tol
            assert "xi_real" in report.details["witness_matrices"]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_inputs_have_their_own_substreams(self, monkeypatch, seed):
        # every input of one call has its own key, none a rejection substream (seed, 0, k)
        keys = []
        monkeypatch.setattr(dist, "make_rng", lambda *key: keys.append(key) or make_rng(*key))
        dist.involutivity_evidence(3, 20, seed)
        assert len(set(keys)) == len(keys) == 5
        assert not any(len(key) == 3 and key[:2] == (seed, 0) for key in keys)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_r_points_come_with_their_d_r_basis(self, n):
        # the frame that builds the points spans the same D_R as their eigendecomposition
        basis = dist._random_r_singular_points(n, 10, make_rng(0, 3), make_rng(0, 4))
        assert basis.kind == "R"
        assert np.all(basis.rank < n * n)  # the R image is proper at every point
        v = random_hermitian(n, 0, 9)
        for k in range(10):
            row = dist.DistributionBasis(basis.point[k], "R", basis.frame[k], basis.mask[k])
            eigh_basis = dist.distribution_basis(basis.point[k])["R"]
            assert row.rank == eigh_basis.rank
            assert np.allclose(closed_form_projection(v, row),
                               closed_form_projection(v, eigh_basis), atol=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_r_frames_are_unitary(self, monkeypatch, n, scale):
        # the Cayley transform of each Hermitian draw H, here also of 1e4 * H
        drawn = []

        def draw(n, m, rng):
            drawn.append(scale * random_hermitian_stack(n, m, rng))
            return drawn[-1]

        monkeypatch.setattr(dist, "random_hermitian_stack", draw)
        for seed in range(5):
            v = dist._random_r_singular_points(n, 100, make_rng(seed, 3), make_rng(seed, 4)).frame
            defect = np.max(abs(v @ v.conj().swapaxes(-2, -1) - np.eye(n)), axis=(-2, -1))
            if scale == 1.0:
                assert defect.max() <= 1e-14
            else:  # the rounding of the solve grows with the condition number of I + iH/2
                assert np.all(defect <= 1e-14 * np.linalg.cond(np.eye(n) + 0.5j * drawn[-1]))

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_r_points_keep_their_exact_pair(self, n):
        # eigenvalues a and -a sit at frame columns 0 and 1: only that pair sums to exactly 0
        pair = np.zeros((n, n), dtype=bool)
        pair[0, 1] = pair[1, 0] = True
        for seed in range(5):
            basis = dist._random_r_singular_points(n, 100, make_rng(seed, 3), make_rng(seed, 4))
            assert np.array_equal(basis.mask, np.broadcast_to(~pair, basis.mask.shape))
            assert np.array_equal(basis.rank, np.full(100, n * n - 2))

    def test_r_witness_is_first_worst_trial(self):
        # one matrix at a time: trial k's inputs are the next rows of the inputs' substreams
        n, trials, seed = 3, 8, 5
        a_rng, b_rng, spectrum, frame = (make_rng(seed, key) for key in (1, 2, 3, 4))
        residuals, points = [], []
        for k in range(trials):
            basis = dist._random_r_singular_points(n, 1, spectrum, frame)
            a, b = (random_hermitian_stack(n, 1, rng) for rng in (a_rng, b_rng))
            value = dist._commutator_value("R", basis.point, a, b)
            residuals.append(dist.membership_residual(value, basis)[0])
            points.append(basis.point[0])
        k = int(np.argmax(residuals))
        report = involutivity("R", n, trials, seed)
        assert report.checks[0].worst_trial == k
        assert report.details["witness_residual"] == residuals[k]
        assert report.details["witness_matrices"]["xi_real"] == points[k].real.tolist()

    def test_reports_do_not_depend_on_chunking(self, monkeypatch):
        n, trials, seed = 3, 40, 0
        whole = [r.to_dict() for r in dist.involutivity_evidence(n, trials, seed)]
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", 10 * n * n)  # 4 chunks of 10
        chunked = dist.involutivity_evidence(n, trials, seed)
        assert [r.to_dict() for r in chunked] == whole
        k = chunked[1].checks[0].worst_trial
        assert k >= 10  # the witness comes from a later chunk than the first
        # trial k's rows, drawn directly from the substreams in one stack each
        xi = dist._random_r_singular_points(n, trials, make_rng(seed, 3), make_rng(seed, 4)).point
        a, b = (random_hermitian_stack(n, trials, make_rng(seed, key)) for key in (1, 2))
        assert chunked[1].details["witness_matrices"] == {
            f"{name}_{part}": getattr(m[k], part).tolist()
            for name, m in (("xi", xi), ("a", a), ("b", b)) for part in ("real", "imag")}

    def test_generic_points_redraw_rejected_rows(self, monkeypatch):
        # a gap relative to max|lam| that about half of the Gaussian 2x2 spectra miss (those
        # whose two eigenvalues share a sign) forces redraws
        monkeypatch.setattr(dist, "GENERIC_GAP", 1.0)
        n, seed, trials = 2, 5, 12

        def gap(xi):
            w = eig_hermitian(xi).eigenvalues
            return np.diff(w, axis=-1)[..., 0] / np.max(np.abs(w), axis=-1)

        points, dec = dist._random_generic_points(n, np.arange(trials), make_rng(seed, 0), seed, 0)
        assert gap(points).min() > 1.0
        # the returned decomposition is the points', redrawn rows included
        assert np.array_equal(dec.eigenvalues, eig_hermitian(points).eigenvalues)
        assert np.array_equal(dec.eigenvectors, eig_hermitian(points).eigenvectors)
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
        chunks = [dist._random_generic_points(n, ks, rng, seed, 0)[0]
                  for ks in (np.arange(5), np.arange(5, trials))]
        assert np.array_equal(np.concatenate(chunks), points)

    def test_generic_points_give_up_after_attempts(self, monkeypatch):
        monkeypatch.setattr(dist, "GENERIC_GAP", np.inf)
        monkeypatch.setattr(dist, "GENERIC_ATTEMPTS", 3)
        rows = []
        draw, points = dist.random_hermitian_stack, dist._random_generic_points

        def counted_points(*args):  # count the rows drawn for the generic points only
            monkeypatch.setattr(dist, "random_hermitian_stack",
                                lambda n, m, rng: rows.append(m) or draw(n, m, rng))
            try:
                return points(*args)
            finally:
                monkeypatch.setattr(dist, "random_hermitian_stack", draw)

        monkeypatch.setattr(dist, "_random_generic_points", counted_points)
        with pytest.raises(RuntimeError, match="distinct eigenvalues"):
            dist.involutivity_evidence(2, 5, 0)
        assert sum(rows) == 5 * 3  # every trial's point drawn GENERIC_ATTEMPTS times

    def test_nan_membership_residual_fails(self, monkeypatch):
        # One checks three commutator values per trial stack; make the middle one NaN
        calls = []
        real = dist.membership_residual

        def probe(vector, basis):
            residuals = real(vector, basis)
            if basis.kind != "One":
                return residuals
            calls.append(None)
            return np.full_like(residuals, np.nan) if len(calls) % 3 == 2 else residuals

        monkeypatch.setattr(dist, "membership_residual", probe)
        report = involutivity("One", 2, trials=3, seed=0)
        assert np.isnan(report.checks[0].max_residual)
        assert not report.passed


class TestOrbitInvariants:
    def test_diag_readoff(self):
        inv = dist.orbit_invariants(np.diag([1.0, -1.0]).astype(complex))
        assert np.allclose(inv["spectrum"], [-1.0, 1.0])
        assert inv["rank"] == 2
        assert inv["signature"] == 0

    @pytest.mark.parametrize("xi", [
        random_hermitian(4, 43),
        np.diag([1.0, -1.0, 0.0, 2.0]).astype(complex),
        np.zeros((3, 3), dtype=complex),
    ])
    def test_ranks_match_distribution_basis(self, xi):
        ranks = dist.orbit_invariants(xi)["ranks"]
        assert ranks == {kind: basis.rank for kind, basis in dist.distribution_basis(xi).items()}
        assert list(ranks) == list(dist.KINDS)

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
