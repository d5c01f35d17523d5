import numpy as np
import pytest

from geomqm import dynamics, kahler
from geomqm.dynamics import (
    EvolutionSpec,
    conserved_report,
    exact_flow,
    heisenberg_flow,
    mu_relatedness_check,
    rk4_flow,
    schrodinger_flow,
    vonneumann_flow,
)
from geomqm.kernel import DimensionError, frobenius, random_complex_vector, random_hermitian
from conftest import PAULI_X, PAULI_Y, PAULI_Z


def make_spec(h, t_final=1.0, steps=10, **kw):
    return EvolutionSpec(hamiltonian=h, t_final=t_final, steps=steps, **kw)


class TestEvolutionSpec:
    def test_times_endpoints(self):
        spec = make_spec(PAULI_Z, t_final=2.0, steps=4)
        t = spec.times()
        assert t.shape == (5,)
        assert t[0] == 0.0 and t[-1] == 2.0

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            make_spec(PAULI_Z, steps=0)

    def test_invalid_picture(self):
        with pytest.raises(ValueError):
            make_spec(PAULI_Z, picture="interaction")

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            make_spec(PAULI_Z, method="euler")

    def test_nonpositive_hbar(self):
        with pytest.raises(ValueError):
            make_spec(PAULI_Z, hbar=-1.0)

    def test_nonfinite_time(self):
        with pytest.raises(ValueError):
            make_spec(PAULI_Z, t_final=float("nan"))


class TestSchrodingerFlow:
    def test_diagonal_phases(self):
        # H = Z: psi(t) = (exp(-it) a, exp(it) b)
        spec = make_spec(PAULI_Z, t_final=0.7, steps=1)
        traj = schrodinger_flow(spec, np.array([1.0, 2.0]))
        expected = np.array([np.exp(-0.7j), 2 * np.exp(0.7j)])
        assert np.allclose(traj[-1], expected, atol=1e-12)

    def test_x_quarter_period(self):
        # exp(-i (pi/2) X) = -iX, so e1 -> -i e2
        spec = make_spec(PAULI_X, t_final=np.pi / 2, steps=1)
        traj = schrodinger_flow(spec, np.array([1.0, 0.0]))
        assert np.allclose(traj[-1], np.array([0.0, -1j]), atol=1e-12)

    def test_initial_sample_is_input(self):
        psi0 = random_complex_vector(3, 1)
        spec = make_spec(random_hermitian(3, 2), steps=5)
        traj = schrodinger_flow(spec, psi0)
        assert np.allclose(traj[0], psi0, atol=1e-14)

    def test_group_law(self):
        h = random_hermitian(3, 3)
        psi0 = random_complex_vector(3, 4)
        one = schrodinger_flow(make_spec(h, t_final=1.4, steps=1), psi0)[-1]
        two_legs = schrodinger_flow(
            make_spec(h, t_final=0.9, steps=1),
            schrodinger_flow(make_spec(h, t_final=0.5, steps=1), psi0)[-1])[-1]
        assert np.linalg.norm(one - two_legs) <= 1e-10

    def test_hbar_rescales_time(self):
        h = random_hermitian(2, 5)
        psi0 = random_complex_vector(2, 6)
        fast = schrodinger_flow(make_spec(h, t_final=1.0, steps=1), psi0)[-1]
        slow = schrodinger_flow(make_spec(h, t_final=2.0, steps=1, hbar=2.0), psi0)[-1]
        assert np.allclose(fast, slow, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            schrodinger_flow(make_spec(PAULI_Z), np.zeros(3))


class TestHeisenbergFlow:
    def test_z_rotates_x_to_minus_y(self):
        # U = diag(e^{-it}, e^{it}); A(t)_{12} = e^{2it}, so t = pi/4 gives -Y
        spec = make_spec(PAULI_Z, t_final=np.pi / 4, steps=1)
        traj = heisenberg_flow(spec, PAULI_X)
        assert np.allclose(traj[-1], -PAULI_Y, atol=1e-12)

    def test_hamiltonian_is_fixed(self):
        h = random_hermitian(3, 7)
        traj = heisenberg_flow(make_spec(h, t_final=3.0, steps=6), h)
        assert all(frobenius(m - h) <= 1e-10 for m in traj)

    def test_opposite_to_vonneumann(self):
        h = random_hermitian(2, 8)
        a0 = random_hermitian(2, 9)
        spec = make_spec(h, t_final=0.8, steps=1)
        heis = heisenberg_flow(spec, a0)[-1]
        back = make_spec(h, t_final=-0.8, steps=1)
        assert np.allclose(heis, vonneumann_flow(back, a0)[-1], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            heisenberg_flow(make_spec(PAULI_Z), np.eye(3))


class TestVonNeumannFlow:
    def test_half_rabi_population_transfer(self):
        # H = X for t = pi/2: U = -iX maps |0><0| to |1><1|
        spec = make_spec(PAULI_X, t_final=np.pi / 2, steps=1)
        traj = vonneumann_flow(spec, np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(traj[-1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_commuting_state_is_stationary(self):
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        xi0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        traj = vonneumann_flow(make_spec(h, t_final=5.0, steps=7), xi0)
        assert all(frobenius(m - xi0) <= 1e-12 for m in traj)

    def test_trace_preserved(self):
        h = random_hermitian(4, 10)
        xi0 = random_hermitian(4, 11)
        traj = vonneumann_flow(make_spec(h, t_final=2.0, steps=8), xi0)
        assert all(abs(np.trace(m).real - np.trace(xi0).real) <= 1e-12 for m in traj)

    def test_exact_flow_dispatch(self):
        h = random_hermitian(2, 12)
        xi0 = random_hermitian(2, 13)
        spec = make_spec(h, picture="vonneumann")
        assert np.allclose(exact_flow(spec, xi0), vonneumann_flow(spec, xi0))


class TestRk4:
    def test_matches_exact_at_fine_step(self):
        h = random_hermitian(2, 14)
        psi0 = random_complex_vector(2, 15)
        spec = make_spec(h, t_final=1.0, steps=400)
        exact = schrodinger_flow(spec, psi0)
        approx = rk4_flow(spec, psi0)
        assert np.max(np.abs(exact - approx)) <= 1e-8

    @pytest.mark.parametrize("picture", ["schrodinger", "heisenberg", "vonneumann"])
    def test_fourth_order_convergence(self, picture):
        h = random_hermitian(2, 16)
        init = (random_complex_vector(2, 17) if picture == "schrodinger"
                else random_hermitian(2, 18))
        errors = []
        for steps in (40, 80):
            spec = make_spec(h, t_final=2.0, steps=steps, picture=picture)
            exact = exact_flow(spec, init)
            approx = rk4_flow(spec, init)
            errors.append(np.max(np.abs(exact - approx)))
        order = np.log2(errors[0] / errors[1])
        assert order == pytest.approx(4.0, abs=0.2)

    def test_drift_diagnostics_present(self):
        h = random_hermitian(2, 19)
        spec = make_spec(h, steps=50)
        rep = conserved_report(spec, rk4_flow(spec, random_complex_vector(2, 20)))
        drift = {c.name: c.max_residual for c in rep.checks}
        assert "state_norm" in drift and drift["state_norm"] < 1e-6
        spec2 = make_spec(h, steps=50, picture="vonneumann")
        rep2 = conserved_report(spec2, rk4_flow(spec2, random_hermitian(2, 21)))
        assert {"trace", "spectrum"} <= {c.name for c in rep2.checks}


class TestMuRelatedness:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_random_trials(self, n):
        for seed in range(5):
            h = random_hermitian(n, seed, 60)
            psi0 = random_complex_vector(n, seed, 61)
            spec = make_spec(h, t_final=3.0, steps=12)
            report = mu_relatedness_check(spec, psi0, seed=seed)
            assert report.passed, report.summary()

    def test_nan_state_fails_both_checks(self):
        # a NaN residual used to be dropped by max(0.0, nan), reporting 0.0 as a pass
        spec = make_spec(random_hermitian(3, 65), t_final=1.0, steps=4)
        report = mu_relatedness_check(spec, np.array([np.nan, 1.0, 0.0]))
        assert [c.name for c in report.checks] == [
            "mu_of_schrodinger_equals_vonneumann_of_mu",
            "heisenberg_schrodinger_expectations_agree"]
        assert all(np.isnan(c.max_residual) and not c.passed for c in report.checks)
        assert not report.passed

    def test_wrong_orientation_detected(self):
        # reversing time in one picture must break the relatedness
        h = random_hermitian(2, 62)
        psi0 = random_complex_vector(2, 63)
        fwd = schrodinger_flow(make_spec(h, t_final=1.0, steps=4), psi0)
        bwd = vonneumann_flow(make_spec(h, t_final=-1.0, steps=4),
                              kahler.momentum_map(psi0))
        res = max(frobenius(kahler.momentum_map(p) - r) for p, r in zip(fwd, bwd))
        assert res > 1e-3


class TestConservedReport:
    def test_schrodinger_monitors(self):
        h = random_hermitian(3, 64)
        psi0 = random_complex_vector(3, 65)
        spec = make_spec(h, t_final=10.0, steps=40)
        report = conserved_report(spec, schrodinger_flow(spec, psi0), seed=1)
        names = {c.name for c in report.checks}
        assert {"state_norm", "energy_expectation",
                "jordan_product_preserved", "lie_bracket_preserved"} <= names
        assert report.passed, report.summary()

    def test_vonneumann_monitors(self):
        h = random_hermitian(3, 66)
        xi0 = random_hermitian(3, 67)
        spec = make_spec(h, t_final=10.0, steps=40, picture="vonneumann")
        report = conserved_report(spec, vonneumann_flow(spec, xi0), seed=2)
        names = {c.name for c in report.checks}
        assert {"trace", "spectrum", "energy_expectation", "purity"} <= names
        assert report.passed, report.summary()

    def test_heisenberg_monitors(self):
        h = random_hermitian(3, 68)
        a0 = random_hermitian(3, 69)
        spec = make_spec(h, t_final=10.0, steps=40, picture="heisenberg")
        report = conserved_report(spec, heisenberg_flow(spec, a0), seed=3)
        assert report.passed, report.summary()

    def test_rk4_drift_flagged_on_coarse_grid(self):
        h = 5.0 * random_hermitian(2, 70)
        psi0 = random_complex_vector(2, 71)
        spec = make_spec(h, t_final=10.0, steps=10)
        report = conserved_report(spec, rk4_flow(spec, psi0), seed=4)
        assert not report.passed
