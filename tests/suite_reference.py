"""Reference residuals for three randomized suites, drawn from the library's rows.

The residuals of ``algebra.JORDAN_LIE`` and ``dual.DUAL_GEOMETRY`` written
as the identities read, with every product computed where it is used, and
the involutivity evidence of the Lambda, Zero and One kinds computed one
kind at a time, each at its own diagonal points, with
``distributions._commutator_value`` and ``membership_residual``.  The library
computes each repeated product once per chunk and reuses it, with the same
formulas in the same evaluation order, so its reports must equal these bit
for bit.
"""

import numpy as np

from geomqm import distributions as dist
from geomqm.algebra import (
    CONVENTIONS,
    JORDAN_LIE,
    associator_defect,
    jordan_product,
    lie_bracket,
    trace_form,
)
from geomqm.dual import (
    DUAL_GEOMETRY,
    lambda_eval,
    r_eval,
    r_invariance_defect,
    star_eval,
)
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
        cyc = (lambda_eval(lie_bracket(a, b), c, xi)
               + lambda_eval(lie_bracket(b, c), a, xi)
               + lambda_eval(lie_bracket(c, a), b, xi))
        return {
            "star_decomposition": relative(
                abs(star_eval(a, b, xi) - (r_eval(a, b, xi) / 2 + 1j * lambda_eval(a, b, xi) / 2)),
                size),
            "function_bracket_jacobi": relative(abs(cyc), size * frobenius(c)),
            "r_flow_invariance": r_invariance_defect(c, a, b, xi),
        }

    suite = Suite("dual-space tensor identities", DUAL_GEOMETRY.inputs, residuals)
    return run_suite(suite, n, trials, seed, tol, details={"dim": n})


def reference_involutivity(kind, n, trials, seed, tol=1e-9):
    """One kind's check (Lambda, Zero or One) from its own points, masks and commutator values."""

    def residuals(spectrum, a, b):
        if kind == "One":  # D_One is proper only where an eigenvalue is 0
            spectrum[:, 0] = 0.0
        xi = dist._diagonal_points(spectrum)
        if kind == "One":
            values = [dist._commutator_value("Lambda", xi, a, b),
                      dist._commutator_value("R", xi, a, b),
                      dist.rhat(dist.jhat(xi, a), b) - dist.jhat(dist.rhat(xi, b), a)]
        else:
            values = [dist._commutator_value(kind, xi, a, b)]
        mask = dist._pair_masks(spectrum)[kind]
        distances = [dist.membership_residual(v, mask) for v in values]
        return {f"commutators_tangent_to_D_{kind}": np.max(distances, axis=0)}

    inputs = {name: dist.INVOLUTIVITY.inputs[name] for name in ("spectrum", "a", "b")}
    return run_suite(Suite(f"involutivity evidence: D_{kind}", inputs, residuals), n, trials,
                     seed, tol)
