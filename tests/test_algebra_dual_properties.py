"""The Jordan-Lie identities and the dual-space tensors, over scales.

Observables are seeded random Hermitian matrices, each multiplied by its own
power of two 2^k, k in -40 .. 40.  Such a scaling is exact in binary floating
point, so each relative residual at the scaled inputs must equal the one at
unit scale bit for bit, and that one must be within REL.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geomqm import algebra, dual
from geomqm.algebra import CONVENTIONS, jordan_product, lie_bracket, trace_form
from geomqm.kernel import frobenius, random_hermitian, relative
from test_dual import fd_r_invariance_defect, r_invariance_defect

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
REL = 1e-12

dims = st.integers(2, 6)
scales = st.integers(-40, 40).map(lambda k: 2.0**k)
seeds = st.integers(0, 2**16)


def observables(n, seed, count):
    return [random_hermitian(n, seed, key) for key in range(count)]


def at_every_scale(residual, unit, scales):
    """residual(*unit) and residual at the inputs scaled, which must be equal; the former."""
    value = residual(*unit)
    assert residual(*(s * m for s, m in zip(scales, unit))) == value
    return value


def jacobi(a, b, c):
    cyc = lie_bracket(lie_bracket(a, b), c) + lie_bracket(lie_bracket(b, c), a) \
        + lie_bracket(lie_bracket(c, a), b)
    return relative(frobenius(cyc), frobenius(a) * frobenius(b) * frobenius(c))


def jordan_identity(a, b):
    a2 = jordan_product(a, a)
    defect = jordan_product(jordan_product(a, b), a2) - jordan_product(a, jordan_product(b, a2))
    return relative(frobenius(defect), frobenius(a) ** 3 * frobenius(b))


def associator(a, b, c):
    closed = CONVENTIONS.hbar / 4 * lie_bracket(lie_bracket(a, c), b)
    return relative(frobenius(algebra.associator_defect(a, b, c) - closed),
                    frobenius(a) * frobenius(b) * frobenius(c))


def trace_invariance(product):
    def residual(a, b, c):
        defect = trace_form(product(a, b), c) - trace_form(a, product(b, c))
        return relative(abs(defect), frobenius(a) * frobenius(b) * frobenius(c))
    return residual


@PROPERTY
@given(dims, scales, scales, scales, seeds)
def test_jacobi(n, sa, sb, sc, seed):
    assert at_every_scale(jacobi, observables(n, seed, 3), (sa, sb, sc)) <= REL


@PROPERTY
@given(dims, scales, scales, seeds)
def test_jordan_identity(n, sa, sb, seed):
    assert at_every_scale(jordan_identity, observables(n, seed, 2), (sa, sb)) <= REL


@PROPERTY
@given(dims, scales, scales, scales, seeds)
def test_associator_is_quarter_double_bracket(n, sa, sb, sc, seed):
    assert at_every_scale(associator, observables(n, seed, 3), (sa, sb, sc)) <= REL


@PROPERTY
@given(dims, scales, scales, scales, seeds, st.sampled_from([lie_bracket, jordan_product]))
def test_trace_invariance_of_both_products(n, sa, sb, sc, seed, product):
    residual = trace_invariance(product)
    assert at_every_scale(residual, observables(n, seed, 3), (sa, sb, sc)) <= REL


@PROPERTY
@given(dims, scales, scales, scales, seeds)
def test_star_is_half_r_plus_i_half_lambda(n, sa, sb, sx, seed):
    unit = observables(n, seed, 3)
    assert at_every_scale(lambda a, b, xi: dual._star_residual(algebra.pair(a, b), xi), unit,
                          (sa, sb, sx)) <= REL


@PROPERTY
@given(dims, scales, scales, scales, scales, seeds)
def test_r_invariance_defect_agrees_with_finite_difference(n, sh, sa, sb, sx, seed):
    unit = observables(n, seed, 4)
    assert at_every_scale(r_invariance_defect, unit, (sh, sa, sb, sx)) <= REL
    # the central difference, at a step that is the same flow angle at every scale of H, is
    # O(step^2) off the derivative, which is exactly 0
    h, a, b, xi = (s * m for s, m in zip((sh, sa, sb, sx), unit))
    size = frobenius(h) * frobenius(a) * frobenius(b) * frobenius(xi)
    assert fd_r_invariance_defect(h, a, b, xi, step=1e-4 / sh) <= 1e-9 * size
