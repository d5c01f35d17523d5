"""Reference trial bodies for three randomized suites.

The trials of ``algebra.verify_jordan_lie`` and ``dual.verify_dual_geometry``
written as the identities read, with every product computed where it is
used, and the involutivity evidence of the Lambda, Zero and One kinds computed
one kind at a time from ``distributions._commutator_value``,
``distribution_basis`` and ``membership_residual``.  The library computes
each repeated product once per chunk and reuses it, with the same formulas
in the same evaluation order, so its reports must equal these bit for bit.
"""

import numpy as np

from geomqm import distributions as dist
from geomqm.algebra import (
    CONVENTIONS,
    associator_defect,
    jordan_product,
    lie_bracket,
    trace_form,
)
from geomqm.dual import (
    hat_eval,
    lambda_eval,
    r_eval,
    r_invariance_defect,
    star_eval,
    star_generators,
)
from geomqm.kernel import frobenius, make_rng, random_hermitian_stack, relative
from geomqm.report import run_suite


def reference_jordan_lie(n, trials, seed, tol=1e-9):
    hbar = CONVENTIONS.hbar
    rngs = [make_rng(seed, key) for key in (30, 31, 32)]

    def trial(ks):
        a, b, c = (random_hermitian_stack(n, len(ks), rng) for rng in rngs)
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
            "jordan_commutativity":
                relative(frobenius(jordan_product(a, b) - jordan_product(b, a)), na * nb),
            "jordan_identity": relative(frobenius(jid), na * na * na * nb),
            "trace_invariance_lie": relative(abs(inv_lie), na * nb * nc),
            "trace_invariance_jordan": relative(abs(inv_jor), na * nb * nc),
            "leibniz": relative(frobenius(leib), na * nb * nc),
            "associator": relative(frobenius(assoc), na * nb * nc),
        }

    return run_suite("Jordan-Lie identity suite", n, trials, seed, tol, trial, details={"dim": n})


def reference_dual_geometry(n, trials, seed, tol=1e-9):
    rngs = [make_rng(seed, key) for key in (40, 41, 42, 43)]

    def trial(ks):
        a, b, c, xi = (random_hermitian_stack(n, len(ks), rng) for rng in rngs)
        size = frobenius(a) * frobenius(b) * frobenius(xi)
        star = star_eval(a, b, xi)
        sj, sl = star_generators(a, b)
        cyc = (lambda_eval(lie_bracket(a, b), c, xi)
               + lambda_eval(lie_bracket(b, c), a, xi)
               + lambda_eval(lie_bracket(c, a), b, xi))
        return {
            "hat_of_bracket":
                relative(abs(lambda_eval(a, b, xi) - hat_eval(lie_bracket(a, b), xi)), size),
            "star_decomposition":
                relative(abs(star - (r_eval(a, b, xi) / 2 + 1j * lambda_eval(a, b, xi) / 2)), size),
            "nonlocal_closure":
                relative(abs(star - (hat_eval(sj, xi) + 1j * hat_eval(sl, xi))), size),
            "bilinearity_symmetry":
                relative(abs(hat_eval(a, xi) - hat_eval(xi, a)), frobenius(a) * frobenius(xi)),
            "function_bracket_jacobi": relative(abs(cyc), size * frobenius(c)),
            "r_flow_invariance": r_invariance_defect(c, a, b, xi),
        }

    return run_suite("dual-space tensor identities", n, trials, seed, tol, trial,
                     details={"dim": n})


def reference_involutivity(kind, n, trials, seed, tol=1e-9):
    """One kind's check (Lambda, Zero or One) from its own basis and commutator values."""
    point_rng, a_rng, b_rng = (make_rng(seed, key) for key in range(3))

    def trial(ks):
        xi, _ = dist._random_generic_points(n, ks, point_rng, seed, 0)
        a, b = (random_hermitian_stack(n, len(ks), rng) for rng in (a_rng, b_rng))
        if kind == "One":
            values = [dist._commutator_value("Lambda", xi, a, b),
                      dist._commutator_value("R", xi, a, b),
                      dist.rhat(dist.jhat(xi, a), b) - dist.jhat(dist.rhat(xi, b), a)]
        else:
            values = [dist._commutator_value(kind, xi, a, b)]
        basis = dist.distribution_basis(xi)[kind]
        residuals = [dist.membership_residual(v, basis) for v in values]
        return {f"commutators_tangent_to_D_{kind}": np.max(residuals, axis=0)}

    return run_suite(f"involutivity evidence: D_{kind}", n, trials, seed, tol, trial)
