import re

import numpy as np
import pytest

from geomqm import dual, kahler
from geomqm.algebra import lie_bracket
from geomqm.kernel import (
    DimensionError,
    NumericalError,
    eig_hermitian,
    make_rng,
    random_complex_vector,
    random_complex_vector_stack,
    random_hermitian,
)
from conftest import PAULI_X, PAULI_Y, PAULI_Z, plant_everywhere, unitary_exp
from eigensolve_reference import reference_eigensolve


def from_real(x):
    """The complex vector of (q, p) coordinates: the inverse of kahler.to_real."""
    n = x.shape[0] // 2
    return x[:n] + 1j * x[n:]


def fd_gradient(fn, psi, h=1e-6):
    """Central-difference gradient of the real function fn in the (q, p) coordinates."""
    x = kahler.to_real(psi)
    out = np.zeros_like(x)
    for k in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        out[k] = (fn(from_real(xp)) - fn(from_real(xm))) / (2 * h)
    return from_real(out)


class TestKahlerTensors:
    def test_metric_on_q_basis(self):
        e = np.array([1.0 + 0.0j, 0.0])
        assert kahler.g_eval(e, e) == pytest.approx(1.0)

    def test_omega_orientation(self):
        eq = np.array([1.0 + 0.0j, 0.0])
        ep = np.array([1j, 0.0])
        assert kahler.omega_eval(eq, ep) == pytest.approx(1.0)
        assert kahler.omega_eval(ep, eq) == pytest.approx(-1.0)

    def test_j_squares_to_minus_one(self):
        u = random_complex_vector(4, 1)
        assert np.allclose(kahler.j_apply(kahler.j_apply(u)), -u)

    def test_compatibility(self):
        u = random_complex_vector(3, 2, 0)
        v = random_complex_vector(3, 2, 1)
        assert kahler.omega_eval(u, v) == pytest.approx(
            kahler.g_eval(kahler.j_apply(u), v))


class TestQuadraticFunctions:
    def test_identity_on_unit_vector(self):
        psi = random_complex_vector(3, 3)
        psi /= np.linalg.norm(psi)
        assert kahler.f_quadratic(np.eye(3), psi) == pytest.approx(0.5)

    def test_z_on_e1(self):
        assert kahler.f_quadratic(PAULI_Z, np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_x_on_plus_state(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert kahler.f_quadratic(PAULI_X, psi) == pytest.approx(0.5)

    def test_gradient_matches_finite_difference(self):
        a = random_hermitian(3, 4)
        psi = random_complex_vector(3, 5)
        # the gradient of f_A is A psi, which function_brackets evaluates
        fd = fd_gradient(lambda p: kahler.f_quadratic(a, p), psi)
        assert np.allclose(a @ psi, fd, atol=1e-6)


class TestFunctionBrackets:
    def test_poisson_antisymmetry(self):
        a = random_hermitian(3, 6)
        psi = random_complex_vector(3, 7)
        assert kahler.function_brackets(a, a, psi).poisson == pytest.approx(0.0, abs=1e-12)

    def test_poisson_of_xy_is_f_of_bracket(self):
        psi = random_complex_vector(2, 8)
        lhs = kahler.function_brackets(PAULI_X, PAULI_Y, psi).poisson
        assert lhs == pytest.approx(kahler.f_quadratic(lie_bracket(PAULI_X, PAULI_Y), psi))

    def test_hermitian_bracket_of_identity(self):
        psi = random_complex_vector(4, 9)
        h = kahler.function_brackets(np.eye(4), np.eye(4), psi).hermitian
        # frozen constant: <f_I | f_I> = ||psi||^2
        assert h == pytest.approx(float(np.vdot(psi, psi).real))

    def test_hermitian_combines_parts(self):
        a, b = random_hermitian(3, 10, 0), random_hermitian(3, 10, 1)
        psi = random_complex_vector(3, 11)
        fb = kahler.function_brackets(a, b, psi)
        assert fb.hermitian == pytest.approx(fb.symmetric + 1j * fb.poisson)

    def test_hermitian_is_twice_star_through_momentum_map(self):
        a, b = random_hermitian(3, 12, 0), random_hermitian(3, 12, 1)
        psi = random_complex_vector(3, 13)
        fb = kahler.function_brackets(a, b, psi)
        star = dual.star_eval(a, b, kahler.momentum_map(psi))
        assert fb.hermitian == pytest.approx(2 * star, abs=1e-12)


class TestMomentumMap:
    def test_basis_vector(self):
        rho = kahler.momentum_map(np.array([1.0, 0.0]))
        assert np.allclose(rho, np.diag([1.0, 0.0]))

    def test_zero_vector(self):
        assert np.linalg.norm(kahler.momentum_map(np.zeros(3))) == 0.0

    def test_plus_state(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(kahler.momentum_map(psi), np.full((2, 2), 0.5))

    def test_trace_is_norm_squared(self):
        psi = random_complex_vector(4, 14)
        assert np.trace(kahler.momentum_map(psi)).real == pytest.approx(
            float(np.vdot(psi, psi).real))

    def test_equivariance(self):
        psi = random_complex_vector(3, 15)
        u = unitary_exp(random_hermitian(3, 16), 0.9)
        lhs = kahler.momentum_map(u @ psi)
        rhs = u @ kahler.momentum_map(psi) @ u.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-10


class TestPullbacks:
    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_random_triples(self, n):
        for seed in range(5):
            a = random_hermitian(n, seed, 0)
            b = random_hermitian(n, seed, 1)
            psi = random_complex_vector(n, seed, 2)
            residuals = kahler._pullback_residuals(a, b, psi)
            assert all(v <= 1e-9 for v in residuals.values()), residuals  # a NaN fails

    def test_zero_vector(self):
        # e_A, and with it the metric-length law, is undefined at psi = 0
        a, b = random_hermitian(2, 17, 0), random_hermitian(2, 17, 1)
        with pytest.raises(ValueError, match="too close to zero"):
            kahler._pullback_residuals(a, b, np.zeros(2))

    def test_hat_check_does_not_depend_on_b(self, monkeypatch):
        # f_A(psi) involves no B, so a planted relative defect in f_A reads the same at any B
        f = kahler.f_quadratic
        monkeypatch.setattr(kahler, "f_quadratic", lambda a, psi: f(a, psi) * (1 + 1e-6))
        a, b = random_hermitian(6, 19, 0), random_hermitian(6, 19, 1)
        psi = random_complex_vector(6, 19, 2)
        hat = [kahler._pullback_residuals(a, s * b, psi)["pullback_hat_equals_quadratic"]
               for s in (1.0, 2.0**20, 2.0**-20)]
        assert hat[0] == hat[1] == hat[2] > 1e-9

    def test_identity_pair(self):
        psi = random_complex_vector(3, 18)
        residuals = kahler._pullback_residuals(np.eye(3), np.eye(3), psi)
        assert all(v <= 1e-9 for v in residuals.values()), residuals

    def test_suite_is_worst_of_pointwise_checks(self):
        # trial k's inputs are row k of each declared input's substream (seed, key)
        n, trials, seed = 3, 10, 4
        rngs = {name: (make_rng(seed, key), draw)
                for name, (key, draw) in kahler.PULLBACKS.inputs.items()}
        worst = {}
        for k in range(trials):
            point = kahler._pullback_residuals(**{name: draw(n, 1, rng)[0]
                                                  for name, (rng, draw) in rngs.items()})
            for name, value in point.items():
                worst[name] = max(worst.get(name, 0.0), value)
        report = kahler.verify_pullbacks(n, trials, seed)
        assert {c.name: c.max_residual for c in report.checks} == worst
        assert report.passed and report.trials == trials


def scaled(f):
    """f times 1 + 1e-6: a relative defect that keeps f bilinear, or sesquilinear."""
    return lambda *args: f(*args) * (1 + 1e-6)


def scaled_brackets(f):
    return lambda *args: kahler.FunctionBrackets(*(x * (1 + 1e-6) for x in f(*args)))


# the primitives behind the C^n suite, each with a planted defect
DEFECTS = [(kahler.momentum_map, scaled), (kahler.f_quadratic, scaled),
           (kahler.function_brackets, scaled_brackets), (kahler.hamiltonian_field_f, scaled),
           (dual.hamiltonian_field_dual, scaled), (kahler.gradient_field_e, scaled),
           (kahler.dispersion, scaled), (kahler.to_real, scaled), (kahler.g_eval, scaled),
           (kahler.omega_eval, scaled)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_defect_fails_a_check_and_every_check_fails_for_a_defect(n):
    clean = kahler.verify_pullbacks(n, 20, n)
    assert clean.passed, clean.summary()
    failed = {}
    for f, defect in DEFECTS:
        with pytest.MonkeyPatch.context() as mp:
            plant_everywhere(mp, f, defect)
            report = kahler.verify_pullbacks(n, 20, n)
        failed[f.__name__] = {c.name for c in report.checks if not c.passed}
    assert all(failed.values()), failed
    assert set().union(*failed.values()) == {c.name for c in clean.checks}, failed


class TestExpectationDispersion:
    def test_eigenvector_gives_eigenvalue(self):
        a = random_hermitian(4, 19)
        dec = eig_hermitian(a)
        v = dec.eigenvectors[:, 2]
        assert kahler.expectation(a, v) == pytest.approx(dec.eigenvalues[2], abs=1e-10)
        assert kahler.dispersion(a, v) == pytest.approx(0.0, abs=1e-10)

    def test_unnormalized_input(self):
        assert kahler.expectation(PAULI_Z, np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_projective_invariance(self):
        a = random_hermitian(3, 20)
        psi = random_complex_vector(3, 21)
        c = 0.3 - 1.7j
        assert kahler.expectation(a, c * psi) == pytest.approx(kahler.expectation(a, psi))
        assert kahler.dispersion(a, c * psi) == pytest.approx(kahler.dispersion(a, psi))

    def test_dispersion_of_z_on_plus(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert kahler.dispersion(PAULI_Z, psi) == pytest.approx(1.0)

    def test_dispersion_of_identity(self):
        psi = random_complex_vector(3, 22)
        assert kahler.dispersion(np.eye(3), psi) == pytest.approx(0.0, abs=1e-12)

    def test_near_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            kahler.expectation(PAULI_Z, np.zeros(2))
        with pytest.raises(ValueError, match="too close to zero"):
            kahler.dispersion(PAULI_Z, np.zeros(2))

    def test_tiny_vector(self):
        # both functions are scale invariant, so a tiny psi is prescaled, not rejected
        a = np.diag([1.0, 2.0]).astype(complex)
        assert kahler.expectation(a, np.array([1e-13, 0.0])) == 1.0
        assert kahler.dispersion(PAULI_Z, np.array([1e-12, 0.0])) == 0.0
        stack = np.array([[1e-200, 1e-200], [0.0, 1e-310], [1e-300j, 0.0]])
        assert np.array_equal(kahler.expectation(a, stack), [1.5, 2.0, 1.0])
        assert kahler.dispersion(a, np.array([1e-160j, -1e-160])) == 0.25

    def test_stack_of_states(self):
        psis = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0j]])
        assert np.array_equal(kahler.expectation(PAULI_Z, psis), [1.0, -1.0, 0.0])
        assert isinstance(kahler.expectation(PAULI_Z, psis[0]), float)

    def test_near_zero_row_of_a_stack_rejected(self):
        with pytest.raises(ValueError, match="too close to zero"):
            kahler.expectation(PAULI_Z, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))

    def test_huge_vector(self, recwarn):
        # ||psi||^2 overflows, yet both functions are scale invariant
        a = np.diag([1.0, 2.0]).astype(complex)
        assert kahler.expectation(a, np.array([1e200, 1e200])) == 1.5
        assert kahler.dispersion(a, np.array([1e200j, -1e200])) == 0.25
        stack = np.array([[1e200, 1e200], [0.0, 1.0], [3e300j, 1e-300]])
        assert np.array_equal(kahler.expectation(a, stack), [1.5, 2.0, 1.0])
        assert not recwarn.list

    @pytest.mark.parametrize("seed", [23, 24])
    def test_unit_scale_inputs_keep_their_bits(self, seed):
        # no entry part above 1, so no rescaling: the unscaled quotients, bit for bit
        a = random_hermitian(5, seed)
        psi = random_complex_vector_stack(5, 6, make_rng(seed, 1))
        psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
        psi[0] = [1.0, 0.0, 0.0, 0.0, 0.0]
        n2 = kahler._inner(psi, psi).real
        assert np.array_equal(kahler.expectation(a, psi),
                              kahler._inner(psi, kahler._apply(a, psi)).real / n2)
        for row in psi[:2]:  # against one vector's matrix-vector product and vdot
            apsi, n2 = a @ row, np.vdot(row, row).real
            centered = apsi - float(np.vdot(row, apsi).real / n2) * row
            assert kahler.dispersion(a, row) == np.vdot(centered, centered).real / n2


class TestGradientFields:
    def test_vanish_at_eigenvector(self):
        a = random_hermitian(3, 23)
        v = eig_hermitian(a).eigenvectors[:, 0]
        assert np.linalg.norm(kahler.gradient_field_e(a, v)) <= 1e-12

    def test_nonzero_off_eigenvector(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.linalg.norm(kahler.gradient_field_e(PAULI_Z, psi)) > 0.1

    def test_matches_finite_difference(self):
        a = random_hermitian(3, 24)
        psi = random_complex_vector(3, 25)
        fd = fd_gradient(lambda p: kahler.expectation(a, p), psi)
        assert np.allclose(kahler.gradient_field_e(a, psi), fd, atol=1e-6)

    def test_tiny_vector_is_prescaled_not_rejected(self):
        # the gradient is homogeneous of degree -1 in psi, and psi is prescaled by a power of two
        a, psi = random_hermitian(3, 1), random_complex_vector(3, 2)
        grad = kahler.gradient_field_e(a, psi)
        assert np.array_equal(kahler.gradient_field_e(a, 2.0**-45 * psi), 2.0**45 * grad)
        assert np.allclose(kahler.gradient_field_e(a, 1e-13 * psi), 1e13 * grad, rtol=1e-12,
                           atol=0)
        with pytest.raises(ValueError):
            kahler.gradient_field_e(a, np.zeros(3))
        with pytest.raises(ValueError):
            kahler.gradient_field_e(a, np.stack([psi, np.zeros(3)]))

    def test_omega_field_of_quadratic_is_schrodinger(self):
        # finite-difference flow of -iA psi reproduces the Schrodinger velocity
        a = random_hermitian(2, 28)
        psi = random_complex_vector(2, 29)
        assert np.allclose(kahler.hamiltonian_field_f(a, psi), -1j * (a @ psi))


class TestKappaConstant:
    def test_frozen_value_from_oracle(self):
        # one-time n=2 determination: G(de_A, de_A) / dispersion on unit vectors
        from geomqm.algebra import CONVENTIONS

        a = random_hermitian(2, 30)
        psi = random_complex_vector(2, 31)
        psi /= np.linalg.norm(psi)
        g = fd_gradient(lambda p: kahler.expectation(a, p), psi)
        ratio = kahler.g_eval(g, g) / kahler.dispersion(a, psi)
        assert ratio == pytest.approx(CONVENTIONS.kappa, abs=1e-5)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_exact_proportionality(self, n):
        from geomqm.algebra import CONVENTIONS

        for seed in range(5):
            a = random_hermitian(n, seed, 0)
            psi = random_complex_vector(n, seed, 1)
            psi /= np.linalg.norm(psi)
            g = kahler.gradient_field_e(a, psi)
            lhs = kahler.g_eval(g, g)
            assert abs(lhs - CONVENTIONS.kappa * kahler.dispersion(a, psi)) <= \
                1e-9 * max(1.0, lhs)


class TestEigensolver:
    def test_pauli_z_descent(self):
        res = kahler.eigensolve_gradient_flow(PAULI_Z, np.array([0.6, 0.8]),
                                              direction="descent")
        assert res.eigenvalue == pytest.approx(-1.0, abs=1e-8)
        proj = np.abs(res.eigenvector[1]) ** 2
        assert proj == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_ascent_matches_oracle(self, n):
        for seed in range(10):
            a = random_hermitian(n, seed, 50)
            psi0 = random_complex_vector(n, seed, 51)
            res = kahler.eigensolve_gradient_flow(a, psi0, direction="ascent")
            assert res.eigenvalue == pytest.approx(
                eig_hermitian(a).eigenvalues[-1], abs=1e-8)

    def test_start_at_eigenvector_returns_immediately(self):
        a = random_hermitian(3, 52)
        v = eig_hermitian(a).eigenvectors[:, 1]
        res = kahler.eigensolve_gradient_flow(a, v, tol=1e-9)
        assert res.iterations == 0

    @pytest.mark.parametrize("psi0", [np.zeros(2)], ids=["zero"])
    def test_zero_start_rejected(self, psi0):
        with pytest.raises(ValueError, match="too close to zero"):
            kahler.eigensolve_gradient_flow(PAULI_Z, psi0)

    @pytest.mark.parametrize("psi0", [np.array([1e-13, 1e-13]), np.array([3e-13, 4e-13j])],
                             ids=["tiny", "complex-tiny"])
    def test_tiny_start_gives_the_unit_scale_result(self, psi0):
        # the start is prescaled by a power of two, so only its direction matters
        a = np.diag([1.0, 2.0]).astype(complex)
        res = kahler.eigensolve_gradient_flow(a, psi0)
        unit = kahler.eigensolve_gradient_flow(a, psi0 * 1e13)
        assert res.iterations == unit.iterations >= 1
        assert res.eigenvalue == pytest.approx(unit.eigenvalue, abs=1e-15)
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)

    def test_huge_start_vector(self):
        # ||psi0||^2 overflows; the start is scaled by a power of two before normalizing
        a = np.diag([1.0, 2.0]).astype(complex)
        res = kahler.eigensolve_gradient_flow(a, np.array([1e200, 1e200]))
        unit = kahler.eigensolve_gradient_flow(a, np.array([1.0, 1.0]))
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(res.eigenvector) == pytest.approx(1.0, abs=1e-12)
        assert res.iterations == unit.iterations >= 1
        assert res.eigenvalue == pytest.approx(unit.eigenvalue, abs=1e-15)

    @pytest.mark.parametrize("power", [-1000, -45, -20, 1, 600, 1000])
    def test_start_scaled_by_a_power_of_two_gives_the_same_result(self, power):
        a = random_hermitian(8, 68)
        psi0 = random_complex_vector(8, 69)
        res = kahler.eigensolve_gradient_flow(a, np.ldexp(psi0.real, power)
                                              + 1j * np.ldexp(psi0.imag, power))
        unit = kahler.eigensolve_gradient_flow(a, psi0)
        assert res.iterations == unit.iterations
        assert res.eigenvalue == unit.eigenvalue
        assert np.array_equal(res.eigenvector, unit.eigenvector)

    def test_non_convergence_raises(self):
        a = random_hermitian(4, 53)
        with pytest.raises(NumericalError):
            kahler.eigensolve_gradient_flow(a, random_complex_vector(4, 54),
                                            max_iter=2, tol=1e-14)

    def test_projective_invariance_of_result(self):
        a = random_hermitian(3, 55)
        psi0 = random_complex_vector(3, 56)
        r1 = kahler.eigensolve_gradient_flow(a, psi0)
        r2 = kahler.eigensolve_gradient_flow(a, (0.2 + 0.9j) * psi0)
        assert r1.eigenvalue == pytest.approx(r2.eigenvalue, abs=1e-8)
        p1 = kahler.momentum_map(r1.eigenvector)
        p2 = kahler.momentum_map(r2.eigenvector)
        assert np.linalg.norm(p1 - p2) <= 1e-6

    def test_degenerate_extremal_eigenspace_membership(self):
        a = np.diag([2.0, 2.0, -1.0]).astype(complex)
        res = kahler.eigensolve_gradient_flow(a, random_complex_vector(3, 57),
                                              direction="ascent")
        assert res.eigenvalue == pytest.approx(2.0, abs=1e-8)
        # membership in the eigenspace, not a specific vector
        proj = np.diag([1.0, 1.0, 0.0])
        v = res.eigenvector
        assert np.linalg.norm(proj @ v - v) <= 1e-7

    @pytest.mark.parametrize("a, psi0", [
        (np.array([[1.0, np.nan], [np.nan, 0.0]]), np.array([0.6, 0.8])),
        (np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([0.6, 0.8])),
        (PAULI_Z, np.array([np.nan, 0.8])),
        (PAULI_Z, np.array([np.inf, 0.8])),
    ], ids=["nan-operator", "non-hermitian-operator", "nan-start", "inf-start"])
    def test_bad_input_rejected(self, a, psi0):
        with pytest.raises(ValueError, match="must be finite"):
            kahler.eigensolve_gradient_flow(a, psi0)

    def test_unreachable_tol_stalls_early(self):
        # the residual floor is ~eps * ||A||, far above tol * ||A||_F
        a = random_hermitian(4, 3) * 1e8
        with pytest.raises(NumericalError, match="stalled") as exc:
            kahler.eigensolve_gradient_flow(a, random_complex_vector(4, 60), tol=1e-20)
        assert int(re.search(r"at iteration (\d+)", str(exc.value)).group(1)) <= 300

    def test_huge_operator_converges(self):
        # A psi and its norm overflowed, and the flow stalled; A is now prescaled
        a = np.diag([1e200, -1e200]).astype(complex)
        res = kahler.eigensolve_gradient_flow(a, np.array([0.6, 0.8]))
        assert res.iterations <= 1
        assert res.eigenvalue == pytest.approx(-1e200, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("direction", ["ascent", "descent"])
    def test_small_dimensions_exact(self, n, direction):
        # span{psi, (A - e_A) psi} is all of C^n, so one Ritz step is exact
        for seed in range(10):
            a = random_hermitian(n, seed, 62)
            res = kahler.eigensolve_gradient_flow(a, random_complex_vector(n, seed, 63),
                                                  direction=direction)
            assert res.iterations <= n - 1

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("direction", ["ascent", "descent"])
    def test_iterations_bounded(self, n, direction):
        for seed in range(10):
            a = random_hermitian(n, seed, 64)
            res = kahler.eigensolve_gradient_flow(a, random_complex_vector(n, seed, 65),
                                                  direction=direction)
            oracle = eig_hermitian(a).eigenvalues
            target = oracle[-1] if direction == "ascent" else oracle[0]
            assert res.iterations <= 400
            assert abs(res.eigenvalue - target) <= 1e-8 * max(1.0, abs(target))

    def test_residual_history_subsampled(self):
        a = random_hermitian(128, 66)
        psi0 = random_complex_vector(128, 67)
        res = kahler.eigensolve_gradient_flow(a, psi0)
        assert res.iterations >= 64  # more residuals than the history keeps
        history = res.residual_history
        assert len(history) == 64
        assert history[0] == pytest.approx(kahler.dispersion(a, psi0) ** 0.5, rel=1e-12)
        assert history[-1] == res.residual <= 1e-9 * np.linalg.norm(a)


class TestEigenReport:
    @pytest.mark.parametrize("direction", ["ascent", "descent"])
    def test_solves_from_the_seeded_start_against_the_oracle(self, direction):
        a = random_hermitian(6, 70)
        rep, results = kahler.eigen_report(a, 3, 1e-10, 1000, direction)
        res = kahler.eigensolve_gradient_flow(a, random_complex_vector(6, 3, kahler.EIGEN_START),
                                              tol=1e-10, max_iter=1000, direction=direction)
        oracle = eig_hermitian(a).eigenvalues[-1 if direction == "ascent" else 0]
        assert (results["eigenvalue"], results["iterations"]) == (res.eigenvalue, res.iterations)
        assert results["oracle_eigenvalue"] == oracle
        assert rep.passed and [c.name for c in rep.checks] == [
            "eigen_residual", "oracle_agreement", "dispersion_at_convergence"]

    def test_stack_rejected_before_the_start_vector_is_drawn(self, monkeypatch):
        monkeypatch.setattr(kahler, "random_complex_vector", lambda *a: pytest.fail("drew psi0"))
        a = random_hermitian(3, 71)
        with pytest.raises(DimensionError):
            kahler.eigen_report(np.stack([a, a]), 0, 1e-9, 100, "descent")


def assert_matches_reference(a, psi0, direction):
    res = kahler.eigensolve_gradient_flow(a, psi0, direction=direction)
    ref = reference_eigensolve(a, psi0, direction=direction)
    assert res.iterations == ref.iterations
    assert abs(res.eigenvalue - ref.eigenvalue) <= 1e-12 * max(1.0, abs(ref.eigenvalue))
    assert res.residual <= 1e-9 * np.linalg.norm(a)


class TestEigensolverReference:
    """The solver's loop against the plain-numpy reference loop in tests/."""

    @pytest.mark.parametrize("direction", ["ascent", "descent"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64])
    def test_seeded_grid(self, n, direction):
        for seed in range(5):
            assert_matches_reference(random_hermitian(n, seed, 70),
                                     random_complex_vector(n, seed, 71), direction)

    @pytest.mark.parametrize("direction", ["ascent", "descent"])
    def test_degenerate_extremal_eigenspace(self, direction):
        a = np.diag([2.0, 2.0, -1.0]).astype(complex)
        assert_matches_reference(a, random_complex_vector(3, 57), direction)

    def test_start_at_eigenvector(self):
        a = random_hermitian(3, 52)
        v = eig_hermitian(a).eigenvectors[:, 1]
        assert_matches_reference(a, v, "descent")

    def test_stall_at_the_same_iteration(self):
        a = random_hermitian(4, 3) * 1e8
        psi0 = random_complex_vector(4, 60)
        messages = []
        for solve in (kahler.eigensolve_gradient_flow, reference_eigensolve):
            with pytest.raises(NumericalError, match="stalled at iteration") as exc:
                solve(a, psi0, tol=1e-20)
            messages.append(re.search(r"at iteration \d+", str(exc.value)).group())
        assert messages[0] == messages[1]


class TestDispersionCancellation:
    def test_large_scale_eigenvector_non_negative(self):
        a = random_hermitian(4, 3) * 1e8
        v = eig_hermitian(a).eigenvectors[:, 0]
        d = kahler.dispersion(a, v)
        assert 0.0 <= d <= 1e-12 * np.linalg.norm(a) ** 2
