"""Jordan-Lie algebra structure on Hermitian observables.

The two products, the invariant trace form and the associator defect, which
also take (..., n, n) stacks, and a randomized identity-verification suite.

Sign conventions (ConventionSet, defined in .report and recorded in every report):
  [A, B]_- := -i (AB - BA)      Hermitian-valued Lie bracket
  A o B    := (AB + BA) / 2     Jordan product
  <A, B>   := Tr(AB) / 2        invariant trace form
With these, the associator identity reads
  (A o B) o C - A o (B o C) = (hbar / 4) [[A, C]_-, B]_-   with hbar = 1,
and the su(2) coordinate brackets come out as {x, y} = 2z and cyclic.

The trace form is the contraction sum_ij A_ij B_ji, one einsum over a stack,
which never forms the product AB; the dual evaluations and the von Neumann
monitors take their traces of products the same way.
"""

from __future__ import annotations

import numpy as np

from .kernel import frobenius, random_hermitian_stack, relative, require_same_dim, scalar_or_stack
from .report import CONVENTIONS, ConventionSet, Suite, VerificationReport, run_suite  # noqa: F401


def lie_bracket(a, b) -> np.ndarray:
    """[A, B]_- = -i(AB - BA); Hermitian, antisymmetric."""
    a, b = require_same_dim(a, b)
    return -1j * (a @ b - b @ a)


def jordan_product(a, b) -> np.ndarray:
    """A o B = (AB + BA)/2; Hermitian, commutative."""
    a, b = require_same_dim(a, b)
    return (a @ b + b @ a) / 2


def trace_form(a, b):
    """<A, B> = Tr(AB)/2; symmetric, real on Hermitian inputs; an array over stacks."""
    a, b = require_same_dim(a, b)
    return scalar_or_stack((np.einsum("...ij,...ji->...", a, b) / 2).real)


def associator_defect(a, b, c) -> np.ndarray:
    """(A o B) o C - A o (B o C); equals (1/4)[[A,C]_-, B]_- here."""
    a, b, c = require_same_dim(a, b, c)
    return jordan_product(jordan_product(a, b), c) - jordan_product(a, jordan_product(b, c))


def _jordan_lie_residuals(a, b, c) -> dict:
    na, nb, nc = frobenius(a), frobenius(b), frobenius(c)
    lie_ab, lie_bc, lie_ac = lie_bracket(a, b), lie_bracket(b, c), lie_bracket(a, c)
    jor_ab, jor_bc = jordan_product(a, b), jordan_product(b, c)
    jac = lie_bracket(lie_ab, c) + lie_bracket(lie_bc, a) + lie_bracket(lie_bracket(c, a), b)
    a2 = jordan_product(a, a)
    jid = jordan_product(jor_ab, a2) - jordan_product(a, jordan_product(b, a2))
    inv_lie = trace_form(lie_ab, c) - trace_form(a, lie_bc)
    inv_jor = trace_form(jor_ab, c) - trace_form(a, jor_bc)
    leib = lie_bracket(a, jor_bc) - jordan_product(lie_ab, c) - jordan_product(b, lie_ac)
    assoc = associator_defect(a, b, c) - (CONVENTIONS.hbar / 4) * lie_bracket(lie_ac, b)
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


def verify_jordan_lie(n: int, trials: int, seed: int, tol: float = 1e-9) -> VerificationReport:
    """Randomized residuals for the complete Jordan-Lie identity suite."""
    return run_suite(JORDAN_LIE, n, trials, seed, tol, details={"dim": n})
