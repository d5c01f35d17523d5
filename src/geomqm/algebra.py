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
"""

from __future__ import annotations

import numpy as np

from .kernel import frobenius, make_rng, random_hermitian_stack, require_same_dim, scalar_or_stack
from .report import CONVENTIONS, ConventionSet, VerificationReport, run_suite  # noqa: F401


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
    return scalar_or_stack((np.trace(a @ b, axis1=-2, axis2=-1) / 2).real)


def associator_defect(a, b, c) -> np.ndarray:
    """(A o B) o C - A o (B o C); equals (1/4)[[A,C]_-, B]_- here."""
    a, b, c = require_same_dim(a, b, c)
    return jordan_product(jordan_product(a, b), c) - jordan_product(a, jordan_product(b, c))


def _rel(residual, *norms):
    return residual / np.maximum(1.0, np.prod(norms, axis=0))


def verify_jordan_lie(
    n: int,
    trials: int,
    seed: int,
    tol: float = 1e-9,
    bracket_perturbation: float = 0.0,
) -> VerificationReport:
    """Randomized residuals for the complete Jordan-Lie identity suite.

    ``bracket_perturbation`` is a test hook: it adds a scaled Jordan term to
    the Lie bracket so the Jacobi detector can be shown to fire.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")

    def bracket(a, b):
        out = lie_bracket(a, b)
        if bracket_perturbation:
            out = out + bracket_perturbation * jordan_product(a, b)
        return out

    hbar = CONVENTIONS.hbar
    rngs = [make_rng(seed, j) for j in range(3)]

    def trial(ks):
        a, b, c = (random_hermitian_stack(n, len(ks), rng) for rng in rngs)
        na, nb, nc = frobenius(a), frobenius(b), frobenius(c)

        jac = bracket(bracket(a, b), c) + bracket(bracket(b, c), a) + bracket(bracket(c, a), b)
        a2 = jordan_product(a, a)
        jid = jordan_product(jordan_product(a, b), a2) - jordan_product(a, jordan_product(b, a2))
        inv_lie = trace_form(bracket(a, b), c) - trace_form(a, bracket(b, c))
        inv_jor = trace_form(jordan_product(a, b), c) - trace_form(a, jordan_product(b, c))
        leib = bracket(a, jordan_product(b, c)) \
            - jordan_product(bracket(a, b), c) - jordan_product(b, bracket(a, c))
        assoc = associator_defect(a, b, c) - (hbar / 4) * bracket(bracket(a, c), b)
        return {
            "jacobi": _rel(frobenius(jac), na, nb, nc),
            "jordan_commutativity":
                _rel(frobenius(jordan_product(a, b) - jordan_product(b, a)), na, nb),
            "jordan_identity": _rel(frobenius(jid), na, na, na, nb),
            "trace_invariance_lie": _rel(abs(inv_lie), na, nb, nc),
            "trace_invariance_jordan": _rel(abs(inv_jor), na, nb, nc),
            "leibniz": _rel(frobenius(leib), na, nb, nc),
            "associator": _rel(frobenius(assoc), na, nb, nc),
        }

    return run_suite("Jordan-Lie identity suite", n, trials, seed, tol, trial,
                     details={"dim": n, "bracket_perturbation": bracket_perturbation})
