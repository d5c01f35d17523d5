"""Reference residuals for the randomized suites, drawn from the library's rows.

The residuals of ``algebra.JORDAN_LIE``, ``dual.DUAL_GEOMETRY`` and
``distributions.COMMUTATION`` written as the identities read, with every
product computed where it is used, and the involutivity evidence of each
kind (the R witness's residual included) computed one kind at a time, each
at its own diagonal points.  Every product here is a matrix product, through
``lie_bracket`` and ``jordan_product``, the dense points diag(lam) included:
the tensors at a point are jhat(xi, A) = [A, xi]_- and rhat(xi, A) = A o xi,
and Lambda and R are ``lambda_of`` and ``r_of`` of a pair formed where it is
used.  The library forms each ordered pair's products once per chunk, takes
both parts and the dual tensors from them, and takes each product with a
diagonal point as a row or column scaling, with the same formulas in the
same evaluation order, so its reports must equal these bit for bit.
"""

import numpy as np

from geomqm import distributions as dist
from geomqm.algebra import (
    CONVENTIONS,
    JORDAN_LIE,
    associator_defect,
    jordan_product,
    lie_bracket,
    pair,
    trace_form,
)
from geomqm.dual import DUAL_GEOMETRY, lambda_of, r_of, star_eval
from geomqm.kernel import frobenius, relative
from geomqm.report import Suite, run_suite


def reference_jordan_lie(n, trials, seed, tol=1e-9):
    hbar = CONVENTIONS.hbar

    def residuals(a, b, c):
        na, nb, nc = frobenius(a), frobenius(b), frobenius(c)

        jac = lie_bracket(lie_bracket(a, b), c) + lie_bracket(lie_bracket(b, c), a) \
            + lie_bracket(lie_bracket(c, a), b)
        a2 = jordan_product(a, a)
        jid = jordan_product(jordan_product(a, b), a2) - jordan_product(a, jordan_product(b, a2))
        inv_lie = trace_form(lie_bracket(a, b), c) - trace_form(a, lie_bracket(b, c))
        inv_jor = trace_form(jordan_product(a, b), c) - trace_form(a, jordan_product(b, c))
        leib = lie_bracket(a, jordan_product(b, c)) \
            - jordan_product(lie_bracket(a, b), c) - jordan_product(b, lie_bracket(a, c))
        assoc = associator_defect(a, b, c) - (hbar / 4) * lie_bracket(lie_bracket(a, c), b)
        return {
            "jacobi": relative(frobenius(jac), na * nb * nc),
            "jordan_identity": relative(frobenius(jid), na * na * na * nb),
            "trace_invariance_lie": relative(abs(inv_lie), na * nb * nc),
            "trace_invariance_jordan": relative(abs(inv_jor), na * nb * nc),
            "leibniz": relative(frobenius(leib), na * nb * nc),
            "associator": relative(frobenius(assoc), na * nb * nc),
        }

    suite = Suite("Jordan-Lie identity suite", JORDAN_LIE.inputs, residuals)
    return run_suite(suite, n, trials, seed, tol, details={"dim": n})


def reference_dual_geometry(n, trials, seed, tol=1e-9):
    def residuals(a, b, c, xi):
        size = frobenius(a) * frobenius(b) * frobenius(xi)
        cyc = (lambda_of(pair(lie_bracket(a, b), c), xi)
               + lambda_of(pair(lie_bracket(b, c), a), xi)
               + lambda_of(pair(lie_bracket(c, a), b), xi))
        star_parts = r_of(pair(a, b), xi) / 2 + 1j * lambda_of(pair(a, b), xi) / 2
        return {
            "star_decomposition": relative(abs(star_eval(a, b, xi) - star_parts), size),
            "function_bracket_jacobi": relative(abs(cyc), size * frobenius(c)),
            "r_flow_invariance": relative(
                abs(r_of(pair(lie_bracket(c, a), b), xi) + r_of(pair(a, lie_bracket(c, b)), xi)
                    + r_of(pair(a, b), lie_bracket(c, xi))),
                frobenius(c) * frobenius(a) * frobenius(b) * frobenius(xi)),
        }

    suite = Suite("dual-space tensor identities", DUAL_GEOMETRY.inputs, residuals)
    return run_suite(suite, n, trials, seed, tol, details={"dim": n})


def reference_commutation(n, trials, seed, tol=1e-9):
    def residuals(xi, a):
        jr = lie_bracket(jordan_product(a, xi), xi)  # jhat(xi, rhat(xi, a))
        rj = jordan_product(lie_bracket(a, xi), xi)  # rhat(xi, jhat(xi, a))
        closed = lie_bracket(a, xi @ xi) / 2
        defect = np.maximum(frobenius(jr - rj), frobenius(jr - closed))
        return {"jhat_rhat_commutation": relative(defect, frobenius(a) * frobenius(xi) ** 2)}

    suite = Suite("tensor commutation relation", dist.COMMUTATION.inputs, residuals)
    return run_suite(suite, n, trials, seed, tol, details={"dim": n})


def commutator_value(kind, xi, a, b):
    """``distributions._commutator_value`` with every product a matrix product."""
    if kind == "Lambda":  # jhat(jhat(xi, a), b) - jhat(jhat(xi, b), a)
        return lie_bracket(b, lie_bracket(a, xi)) - lie_bracket(a, lie_bracket(b, xi))
    if kind == "R":  # rhat(rhat(xi, a), b) - rhat(rhat(xi, b), a)
        return jordan_product(b, jordan_product(a, xi)) - jordan_product(a, jordan_product(b, xi))
    xi2 = xi @ xi  # Zero

    def q(m):
        return lie_bracket(m, xi2) / 2

    def dq(m, eta):
        return lie_bracket(m, xi @ eta + eta @ xi) / 2

    return dq(b, q(a)) - dq(a, q(b))


def reference_involutivity(kind, n, trials, seed, tol=1e-9):
    """One kind's check from its own points, masks and commutator values: for Lambda, Zero and
    One the published check, for R the residual and trial of the published witness."""

    def residuals(spectrum, a, b):
        if kind == "One":  # D_One is proper only where an eigenvalue is 0
            spectrum[:, 0] = 0.0
        xi = dist._diagonal_points(spectrum)
        if kind == "One":
            values = [commutator_value("Lambda", xi, a, b), commutator_value("R", xi, a, b),
                      jordan_product(b, lie_bracket(a, xi))  # rhat(jhat(xi, a), b)
                      - lie_bracket(a, jordan_product(b, xi))]  # - jhat(rhat(xi, b), a)
        else:
            values = [commutator_value(kind, xi, a, b)]
        mask = dist._pair_masks(spectrum)[kind]
        distances = [dist.membership_residual(v, mask) for v in values]
        return {f"commutators_tangent_to_D_{kind}": np.max(distances, axis=0)}

    spectra = "r_spectrum" if kind == "R" else "spectrum"  # D_R is proper only at +/-a pairs
    inputs = {"spectrum": dist.INVOLUTIVITY.inputs[spectra],
              **{name: dist.INVOLUTIVITY.inputs[name] for name in ("a", "b")}}
    return run_suite(Suite(f"involutivity evidence: D_{kind}", inputs, residuals), n, trials,
                     seed, tol)
