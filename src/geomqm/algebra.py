"""Jordan-Lie algebra structure on Hermitian observables.

The two products, the invariant trace form and the associator defect, which
also take (..., n, n) stacks, and a randomized identity-verification suite.
Those four check their observables, shapes included; library code and the
suite read the same values, unchecked, from ``lie_part(pair(A, B))``,
``jordan_part`` and ``_trace_form`` (of the evaluators built on them, only
``dual.lambda_of`` and ``dual.r_of`` check their xi).

Sign conventions (ConventionSet, defined in .report and recorded in every report):
  [A, B]_- := -i (AB - BA)      Hermitian-valued Lie bracket
  A o B    := (AB + BA) / 2     Jordan product
  <A, B>   := Tr(AB) / 2        invariant trace form
With these, the associator identity reads
  (A o B) o C - A o (B o C) = (hbar / 4) [[A, C]_-, B]_-   with hbar = 1,
and the su(2) coordinate brackets come out as {x, y} = 2z and cyclic.

Both products are parts of one associative product: ``pair`` forms AB and BA
once, for ``lie_part`` and ``jordan_part`` and for the pair in both orders,
and ``diagonal_pair`` takes the products with D = diag(lam) as the scalings
A * lam[..., None, :] and lam[..., :, None] * A, equal to the matrix products
entry for entry on finite input (a zero entry may differ in sign).

The trace form is the contraction sum_ij A_ij B_ji, one einsum over a stack,
which never forms the product AB; the dual evaluations and the von Neumann
monitors take their traces of products the same way.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .kernel import (frobenius, random_hermitian_stack, relative, require_observables,
                     scalar_or_stack)
from .report import CONVENTIONS, Suite


class Pair(NamedTuple):
    """An ordered pair (A, B) of matrices or stacks, with its two products AB and BA."""

    a: np.ndarray
    b: np.ndarray
    ab: np.ndarray
    ba: np.ndarray

    def swapped(self) -> "Pair":
        """The pair (B, A), from the same two products."""
        return Pair(self.b, self.a, self.ba, self.ab)


def pair(a, b) -> Pair:
    """(A, B) with AB and BA, each formed once."""
    return Pair(a, b, a @ b, b @ a)


def diagonal_pair(a, d) -> Pair:
    """(A, D) for D = diag(lam), or a stack of diagonal matrices, with AD and DA as the
    column and row scalings of A by lam: equal to the matrix products entry for entry on
    finite input, up to the sign of a zero entry."""
    lam = np.diagonal(d, axis1=-2, axis2=-1)
    return Pair(a, d, a * lam[..., None, :], lam[..., :, None] * a)


def lie_part(p: Pair) -> np.ndarray:
    """[A, B]_- = -i(AB - BA) of the pair (A, B)."""
    return -1j * (p.ab - p.ba)


def jordan_part(p: Pair) -> np.ndarray:
    """A o B = (AB + BA)/2 of the pair (A, B)."""
    return (p.ab + p.ba) / 2


def lie_bracket(a, b) -> np.ndarray:
    """[A, B]_- = -i(AB - BA); Hermitian, antisymmetric."""
    return lie_part(pair(*require_observables(A=a, B=b)))


def jordan_product(a, b) -> np.ndarray:
    """A o B = (AB + BA)/2; Hermitian, commutative."""
    return jordan_part(pair(*require_observables(A=a, B=b)))


def trace_form(a, b):
    """<A, B> = Tr(AB)/2; symmetric, real on Hermitian inputs; an array over stacks."""
    return _trace_form(*require_observables(A=a, B=b))


def _trace_form(a, b):
    """``trace_form`` of any two square matrices or stacks of one dimension."""
    return scalar_or_stack((np.einsum("...ij,...ji->...", a, b) / 2).real)


def associator_defect(a, b, c) -> np.ndarray:
    """(A o B) o C - A o (B o C); equals (1/4)[[A,C]_-, B]_- here."""
    a, b, c = require_observables(A=a, B=b, C=c)
    return (jordan_part(pair(jordan_part(pair(a, b)), c))
            - jordan_part(pair(a, jordan_part(pair(b, c)))))


def _jordan_lie_residuals(a, b, c) -> dict:
    na, nb, nc = frobenius(a), frobenius(b), frobenius(c)
    ab, bc, ac = pair(a, b), pair(b, c), pair(a, c)
    lie_ab, lie_bc, lie_ac = lie_part(ab), lie_part(bc), lie_part(ac)
    jor_ab, jor_bc = jordan_part(ab), jordan_part(bc)
    ac_b, ab_c, a_bc = pair(lie_ac, b), pair(lie_ab, c), pair(a, jor_bc)
    lie_ac_b = lie_part(ac_b)
    jac = lie_part(ab_c) + lie_part(pair(lie_bc, a)) - lie_ac_b  # [C, A]_- = -[A, C]_-
    aa = a @ a
    a2 = jordan_part(Pair(a, a, aa, aa))  # A o A from its one product
    jid = jordan_part(pair(jor_ab, a2)) - jordan_part(pair(a, jordan_part(pair(b, a2))))
    inv_lie = _trace_form(lie_ab, c) - _trace_form(a, lie_bc)
    inv_jor = _trace_form(jor_ab, c) - _trace_form(a, jor_bc)
    leib = lie_part(a_bc) - jordan_part(ab_c) - jordan_part(ac_b.swapped())
    assoc = (jordan_part(pair(jor_ab, c)) - jordan_part(a_bc)  # associator_defect(a, b, c)
             - (CONVENTIONS.hbar / 4) * lie_ac_b)
    size = na * nb * nc
    return {
        "jacobi": relative(frobenius(jac), size),
        "jordan_identity": relative(frobenius(jid), na * na * na * nb),
        "trace_invariance_lie": relative(abs(inv_lie), size),
        "trace_invariance_jordan": relative(abs(inv_jor), size),
        "leibniz": relative(frobenius(leib), size),
        "associator": relative(frobenius(assoc), size),
    }


JORDAN_LIE = Suite("Jordan-Lie identity suite",
                   {name: (key, random_hermitian_stack) for name, key in zip("abc", (30, 31, 32))},
                   _jordan_lie_residuals)
