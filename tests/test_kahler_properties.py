"""The Rayleigh-quotient and quadratic-function identities on C^n, over scales.

Observables are seeded random Hermitian matrices and points seeded random
vectors of C^n, each multiplied by its own scale in 1e-8 .. 1e8.  Every
bound is relative to the norms of the inputs, so one bound holds at all
scales.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geomqm import dual, kahler
from geomqm.algebra import CONVENTIONS
from geomqm.kernel import eig_hermitian, random_complex_vector, random_hermitian

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
REL = 1e-12

dims = st.integers(2, 6)
scales = st.builds(lambda e, m: m * 10.0 ** e, st.sampled_from(range(-8, 8)), st.floats(1.0, 10.0))
seeds = st.integers(0, 2**16)


def observable(n, seed, key, scale):
    a = scale * random_hermitian(n, seed, key)
    return a, np.linalg.norm(a)


def point(n, seed, scale):
    psi = scale * random_complex_vector(n, seed, 2)
    return psi, np.linalg.norm(psi)


@PROPERTY
@given(dims, scales, scales, seeds)
def test_gradient_is_twice_centered_residual(n, a_scale, psi_scale, seed):
    a, a_norm = observable(n, seed, 0, a_scale)
    psi, psi_norm = point(n, seed, psi_scale)
    norm2 = psi_norm**2
    mean = (psi.conj() @ a @ psi).real / norm2
    expected = 2 * (a @ psi - mean * psi) / norm2
    grad = kahler.gradient_field_e(a, psi)
    assert np.linalg.norm(grad - expected) <= REL * a_norm / psi_norm
    # tangent to the sphere through psi: g(grad e_A, psi) = 0
    assert abs(kahler.g_eval(grad, psi)) <= REL * a_norm


@PROPERTY
@given(dims, scales, seeds)
def test_kappa_law_on_unit_vectors(n, a_scale, seed):
    a, a_norm = observable(n, seed, 0, a_scale)
    psi, psi_norm = point(n, seed, 1.0)
    psi = psi / psi_norm
    grad = kahler.gradient_field_e(a, psi)
    lhs = kahler.g_eval(grad, grad)
    assert abs(lhs - CONVENTIONS.kappa * kahler.dispersion(a, psi)) <= REL * a_norm**2


@PROPERTY
@given(dims, scales, scales, st.floats(0.0, 2 * np.pi), seeds)
def test_dispersion_non_negative_and_projective(n, a_scale, c_scale, phase, seed):
    a, a_norm = observable(n, seed, 0, a_scale)
    psi, _ = point(n, seed, 1.0)
    c = c_scale * np.exp(1j * phase)
    d = kahler.dispersion(a, psi)
    assert d >= 0.0
    assert kahler.dispersion(a, c * psi) >= 0.0
    assert abs(kahler.dispersion(a, c * psi) - d) <= REL * a_norm**2


@PROPERTY
@given(dims, scales, scales, scales, seeds)
def test_hermitian_bracket_is_twice_star_of_momentum_map(n, a_scale, b_scale, psi_scale, seed):
    a, a_norm = observable(n, seed, 0, a_scale)
    b, b_norm = observable(n, seed, 1, b_scale)
    psi, psi_norm = point(n, seed, psi_scale)
    h = kahler.function_brackets(a, b, psi).hermitian
    star = dual.star_eval(a, b, kahler.momentum_map(psi))
    assert abs(h - 2 * star) <= REL * a_norm * b_norm * psi_norm**2


@PROPERTY
@given(dims, scales, scales, st.sampled_from(["ascent", "descent"]), seeds)
def test_eigensolver_finds_extremal_eigenvalue(n, a_scale, psi_scale, direction, seed):
    a, a_norm = observable(n, seed, 0, a_scale)
    psi0, _ = point(n, seed, psi_scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = kahler.eigensolve_gradient_flow(a, psi0, tol=1e-9 * max(1.0, a_norm),
                                              direction=direction)
    oracle = eig_hermitian(a).eigenvalues
    target = oracle[-1] if direction == "ascent" else oracle[0]
    assert abs(res.eigenvalue - target) <= 1e-8 * max(1.0, a_norm)
