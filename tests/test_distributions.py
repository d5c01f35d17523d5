import numpy as np
import pytest

from geomqm import algebra
from geomqm import distributions as dist
from geomqm import report as report_module
from geomqm.algebra import jordan_product, lie_bracket, trace_form
from geomqm.kernel import DimensionError, dagger, eig_hermitian, make_rng, random_hermitian
from geomqm.report import replay, verify_row
from conftest import (PAULI_X, PAULI_Y, PAULI_Z, closed_form_projection, plant_everywhere,
                      unitary_from_seed)
import svd_oracle as oracle
from suite_reference import reference_commutation, reference_involutivity


class TestTensors:
    # jhat(xi, A) = [A, xi]_- and rhat(xi, A) = A o xi, the tensors contracted with hat(A)
    def test_jhat_central_point(self):
        a = random_hermitian(3, 1)
        assert np.linalg.norm(lie_bracket(a, np.eye(3))) == 0.0

    def test_jhat_pauli(self):
        # [X, Z]_- = -2Y by direct multiplication
        assert np.allclose(lie_bracket(PAULI_X, PAULI_Z), -2 * PAULI_Y)

    def test_rhat_identity_point(self):
        a = random_hermitian(3, 2)
        assert np.allclose(jordan_product(a, np.eye(3)), a)

    def test_rhat_zz(self):
        assert np.allclose(jordan_product(PAULI_Z, PAULI_Z), np.eye(2))

    def test_rhat_zero_point(self):
        a = random_hermitian(2, 3)
        assert np.linalg.norm(jordan_product(a, np.zeros((2, 2)))) == 0.0


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

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_matches_reference_trials(self, monkeypatch, n):
        # the pair (A, xi) formed once for both tensors gives the report of the identity as written
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", 10 * n * n)  # chunks of 10 trials
        for seed in range(5):
            (report,) = verify_row(dist.COMMUTATION, n, 30, seed, 1e-9)
            assert report.to_dict() == reference_commutation(n, 30, seed).to_dict()


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


def ranks(xi):
    return dist.orbit_invariants(xi)["ranks"]


class TestRanks:
    def test_generic_su2_lambda_rank(self):
        xi = np.diag([1.0, -0.5]).astype(complex)
        assert ranks(xi)["Lambda"] == 2

    def test_central_point_rank_zero(self):
        assert ranks(np.eye(2, dtype=complex))["Lambda"] == 0

    def test_generic_invertible_one_full(self):
        xi = np.diag([1.0, -0.5]).astype(complex)
        assert ranks(xi)["One"] == 4

    def test_identity_point_r_full(self):
        xi = np.eye(3, dtype=complex)
        assert ranks(xi)["R"] == 9
        assert ranks(xi)["Lambda"] == 0

    def test_dimension_formula(self):
        for seed in range(5):
            r = ranks(random_hermitian(3, seed, 30))
            assert r["Zero"] + r["One"] == r["Lambda"] + r["R"]

    def test_lambda_and_r_inside_one(self):
        xi = random_hermitian(3, 31)
        dec = eig_hermitian(xi)
        one, v = dist._pair_masks(dec.eigenvalues)["One"], dec.eigenvectors
        for kind in ("Lambda", "R"):
            for e in oracle.basis_matrices(xi, kind):
                assert dist.membership_residual(dagger(v) @ e @ v, one) <= 1e-9

    def test_basis_orthonormal(self):
        # the oracle's basis is orthonormal and spans the closed-form subspace
        xi = random_hermitian(4, 32)
        basis = oracle.basis_matrices(xi, "Lambda")
        assert len(basis) == ranks(xi)["Lambda"]
        for i, e in enumerate(basis):
            for j, f in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert trace_form(e, f) == pytest.approx(expected, abs=1e-10)
        dec = eig_hermitian(xi)
        mask = dist._pair_masks(dec.eigenvalues)["Lambda"]
        assert np.max(np.abs(closed_form_projection(basis, dec.eigenvectors, mask) - basis)) \
            <= 1e-12

    @pytest.mark.parametrize("c", [2.0, 1e-3])
    def test_scalar_point(self, c):
        # U(cI)U^dag is scalar up to round-off: Lambda and Zero vanish, R fills
        u = unitary_from_seed(4, 33)
        xi = u @ (c * np.eye(4)) @ u.conj().T
        r = ranks(xi)
        assert r == {"Lambda": 0, "R": 16, "Zero": 0, "One": 16}
        assert r == {k: oracle.distribution_columns(xi, k).shape[1] for k in dist.KINDS}

    @pytest.mark.parametrize("top", [5.0, 0.5])
    @pytest.mark.parametrize("factor, lambda_rank", [(1.001, 12), (0.999, 10)])
    def test_gap_at_cutoff(self, top, factor, lambda_rank):
        # cut = TAU_RANK * max|lam|; one gap sits just above or below it
        gap = factor * dist.TAU_RANK * top
        u = unitary_from_seed(4, 34)
        xi = (u * np.array([0.1, 0.1 + gap, top / 2, top])) @ u.conj().T
        r = ranks(xi)
        assert r == {"Lambda": lambda_rank, "R": 16, "Zero": lambda_rank, "One": 16}
        assert r == {k: oracle.distribution_columns(xi, k).shape[1] for k in dist.KINDS}


class TestInputGuards:
    POINT = random_hermitian(3, 50)

    @pytest.mark.parametrize("entry", [dist.orbit_invariants])
    def test_non_hermitian_rejected_before_work(self, entry, monkeypatch):
        calls = []
        monkeypatch.setattr(dist, "eig_hermitian", lambda *a: calls.append(a))
        xi = self.POINT + 1e-3 * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(ValueError):
            entry(xi)
        assert calls == []

    @pytest.mark.parametrize("entry", [dist.orbit_invariants])
    def test_hermitian_within_cli_tolerance_accepted(self, entry):
        # the CLI accepts ||xi - xi^dag||_F <= 1e-8 * ||xi||_F
        entry(self.POINT + 1e-10 * np.triu(np.ones((3, 3)), 1))

    @pytest.mark.parametrize("entry", [dist.orbit_invariants])
    def test_stack_rejected_before_work(self, entry, monkeypatch):
        # a stack ran an eigendecomposition, then failed to broadcast the ranks
        calls = []
        monkeypatch.setattr(dist, "eig_hermitian", lambda *a: calls.append(a))
        with pytest.raises(DimensionError, match="one square matrix"):
            entry(np.stack([self.POINT, self.POINT]))
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [dist.orbit_invariants])
    def test_non_finite_rejected(self, entry, bad):
        xi = self.POINT.copy()
        xi[1, 1] = bad
        with pytest.raises(ValueError):
            entry(xi)


SPECTRA = {"R": dist._r_spectra, "generic": dist._generic_spectra}


def involutivity(kind, n, trials, seed, tol=1e-9):
    """The report of one kind from the four that the INVOLUTIVITY row publishes."""
    return verify_row(dist.INVOLUTIVITY, n, trials, seed, tol)[dist.KINDS.index(kind)]


class TestInvolutivity:
    @pytest.mark.parametrize("kind", ["Lambda", "Zero", "One"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_involutive_kinds_pass(self, kind, n):
        report = involutivity(kind, n, trials=20, seed=5)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_involutive_kinds_match_per_kind_reference(self, monkeypatch, n):
        # one pass with shared products, and scalings for the products with a point, gives each
        # kind's check, and the R witness, as computed on its own with matrix products
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", 10 * n * n)  # chunks of 10 trials
        for seed in range(5):
            reports = verify_row(dist.INVOLUTIVITY, n, 30, seed, 1e-9)
            for kind in ("Lambda", "Zero", "One"):
                checks = reports[dist.KINDS.index(kind)].checks
                assert [c.to_dict() for c in checks] \
                    == [c.to_dict() for c in reference_involutivity(kind, n, 30, seed).checks]
            (witness,) = reference_involutivity("R", n, 30, seed).checks
            r_report = reports[dist.KINDS.index("R")]
            assert r_report.details["witness_residual"] == witness.max_residual
            assert r_report.checks[0].worst_trial == witness.worst_trial

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_planted_rhat_defect_fails_d_one(self, monkeypatch, n):
        # D_One is all of the tangent space unless xi has a zero eigenvalue, so only at such
        # points can a commutator value leave it; unplanted, the check still reads nonzero
        clean = involutivity("One", n, trials=20, seed=n).checks[0].max_residual
        assert 0 < clean <= 1e-13
        # rhat(xi, A) + 1e-6 Tr(xi) A, planted on the Jordan part of the pair (A, xi) that the
        # row forms once for both of its products
        plant_everywhere(monkeypatch, algebra.jordan_part, lambda part: lambda p: part(p) + 1e-6
                         * np.trace(p.b, axis1=-2, axis2=-1)[..., None, None] * p.a)
        assert not involutivity("One", n, trials=20, seed=n).passed

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_r_witness_found(self, n):
        for seed in range(6):
            report = involutivity("R", n, trials=20, seed=seed)
            assert report.passed
            assert report.details["witness_residual"] > 10 * report.tol
            assert "xi_real" in report.details["witness_matrices"]

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_r_witness_matches_closed_form(self, n):
        # at diag(lam), the R commutator value is (i/4)(lam_i - lam_j)[A, B]_-ij, so its distance
        # from D_R is that of M_ij = (lam_i - lam_j)(-i(AB - BA))_ij, masked where
        # |lam_i + lam_j| <= cut
        for seed in range(6):
            report = involutivity("R", n, trials=20, seed=seed)
            w = report.details["witness_matrices"]
            xi, a, b = (np.array(w[f"{name}_real"]) + 1j * np.array(w[f"{name}_imag"])
                        for name in ("xi", "a", "b"))
            assert not np.any(w["xi_imag"]) and np.array_equal(xi, np.diag(np.diag(xi)))
            lam = np.diag(xi).real
            m = (lam[:, None] - lam[None, :]) * (-1j * (a @ b - b @ a))
            cut = dist.TAU_RANK * np.max(np.abs(lam))
            out = np.abs(lam[:, None] + lam[None, :]) <= cut
            expected = np.linalg.norm(m * out) / np.linalg.norm(m)
            assert report.details["witness_residual"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_inputs_have_their_own_substreams(self, monkeypatch, seed):
        # every input of one call has its own key; the R witness replays all four afterwards
        keys = []
        monkeypatch.setattr(report_module, "make_rng",
                            lambda *key: keys.append(key) or make_rng(*key))
        verify_row(dist.INVOLUTIVITY, 3, 20, seed, 1e-9)
        assert sorted(keys[:4]) == [(seed, key) for key in (1, 2, 3, 5)]
        assert sorted(keys[4:]) == [(seed, key) for key in (1, 2, 3, 5)]

    def test_no_eigendecomposition(self, monkeypatch):
        # every point is diag(lam) for a drawn spectrum, so its decomposition is known
        def refuse(*args):
            raise AssertionError("eig_hermitian called")

        monkeypatch.setattr(dist, "eig_hermitian", refuse)
        assert all(r.passed for r in verify_row(dist.INVOLUTIVITY, 4, 30, 0, 1e-9))

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_r_points_keep_their_exact_pair(self, n):
        # R: eigenvalues a and -a sit at columns 0 and 1, and only that pair sums to exactly 0.
        # Generic: every sum and difference of two eigenvalues, and every eigenvalue, is at
        # least 1/2 in size
        pair = np.zeros((n, n), dtype=bool)
        pair[0, 1] = pair[1, 0] = True
        off = ~np.eye(n, dtype=bool)
        for seed in range(5):
            for name, rule in SPECTRA.items():
                spectrum = rule(n, 100, make_rng(seed, 3))
                masks = dist._pair_masks(spectrum)
                if name == "R":
                    assert np.array_equal(masks["R"], np.broadcast_to(~pair, masks["R"].shape))
                    continue
                assert np.min(np.abs(spectrum)) >= 1
                for sign in (1, -1):
                    sums = np.abs(spectrum[:, :, None] + sign * spectrum[:, None, :])
                    assert np.min(sums[:, off]) >= 0.5
                assert np.all(masks["R"]) and np.array_equal(masks["Lambda"],
                                                             np.broadcast_to(off, (100, n, n)))

    def test_r_witness_is_first_worst_trial(self):
        # one trial at a time: each trial's inputs replayed on their own
        n, trials, seed = 3, 8, 5
        residuals, points = [], []
        for k in range(trials):
            rows = replay(dist.INVOLUTIVITY, n, seed, k)
            point = dist._diagonal_points(rows["r_spectrum"])
            value = dist._commutator_value("R", point, rows["a"], rows["b"])
            residuals.append(dist.membership_residual(
                value, dist._pair_masks(rows["r_spectrum"])["R"])[0])
            points.append(point[0])
        k = int(np.argmax(residuals))
        report = involutivity("R", n, trials, seed)
        assert report.checks[0].worst_trial == k
        assert report.details["witness_residual"] == residuals[k]
        assert report.details["witness_matrices"]["xi_real"] == points[k].real.tolist()

    def test_reports_do_not_depend_on_chunking(self, monkeypatch):
        n, trials, seed = 3, 40, 0
        whole = [r.to_dict() for r in verify_row(dist.INVOLUTIVITY, n, trials, seed, 1e-9)]
        monkeypatch.setattr(report_module, "CHUNK_ELEMENTS", 10 * n * n)  # 4 chunks of 10
        chunked = verify_row(dist.INVOLUTIVITY, n, trials, seed, 1e-9)
        assert [r.to_dict() for r in chunked] == whole
        k = chunked[1].checks[0].worst_trial
        assert k >= 10  # the witness comes from a later chunk than the first
        monkeypatch.undo()  # trial k's rows, replayed in one chunk
        rows = replay(dist.INVOLUTIVITY, n, seed, k)
        witness = {"xi": dist._diagonal_points(rows["r_spectrum"]), "a": rows["a"], "b": rows["b"]}
        assert chunked[1].details["witness_matrices"] == {
            f"{name}_{part}": getattr(m[0], part).tolist()
            for name, m in witness.items() for part in ("real", "imag")}

    def test_nan_membership_residual_fails(self, monkeypatch):
        # One checks three commutator values per trial stack; make the middle one NaN.  D_One
        # misses exactly one direction, so its mask alone has n^2 - 1 entries
        calls = []
        real = dist.membership_residual

        def probe(vector, mask):
            residuals = real(vector, mask)
            if not np.all(mask.sum(axis=(-2, -1)) == mask.shape[-1] ** 2 - 1):
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
        # each rank is the size of the SVD oracle's basis of that distribution
        r = ranks(xi)
        assert r == {kind: len(oracle.basis_matrices(xi, kind)) for kind in dist.KINDS}
        assert list(r) == list(dist.KINDS)

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
