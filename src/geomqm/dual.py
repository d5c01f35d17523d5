"""Geometrization on the dual of the observable space.

Dual elements are represented by Hermitian matrices through the pairing
A(xi) = Tr(xi A)/2, so observables, dual points and density matrices share
one matrix type.  On top of that pairing live the linear "hat" functions,
the Poisson bivector, the symmetric Jordan tensor, the non-local star
product, Hamiltonian vector fields on the dual, state predicates, and the
golden coefficient tables for the 2-level system.  Evaluators map stacks to arrays.

Star normalization: (A * B)(xi) = Tr(xi A B)/2, so that
  star = r/2 + i lambda/2
holds exactly and the 2-level golden values come out as
  Z*Y = -i x,  X*Y = i z,  Z*X = i y.
"""

from __future__ import annotations

import numpy as np

from .algebra import lie_bracket, trace_form
from .kernel import (TAU_HERMITIAN, dagger, eigvals_hermitian, frobenius, is_hermitian,
                     random_hermitian_stack, relative, require_matrix, require_same_dim,
                     scalar_or_stack, serialize_matrix)
from .report import Suite, VerificationReport, run_suite


def hat_eval(a, xi) -> float:
    """Linear function of the dual point: A(xi) = Tr(xi A)/2."""
    return trace_form(a, xi)


def lambda_eval(a, b, xi) -> float:
    """Poisson bivector on hat differentials: hat([A,B]_-) at xi."""
    return hat_eval(lie_bracket(a, b), xi)


def r_eval(a, b, xi) -> float:
    """Symmetric Jordan tensor: Tr(xi (AB+BA))/2 = 2 hat(A o B) at xi."""
    a, b, xi = require_same_dim(a, b, xi)
    return scalar_or_stack((np.einsum("...ij,...ji->...", xi, a @ b + b @ a) / 2).real)


def star_eval(a, b, xi) -> complex:
    """Non-local product of hat functions: Tr(xi A B)/2."""
    a, b, xi = require_same_dim(a, b, xi)
    return scalar_or_stack(np.einsum("...ij,...ji->...", xi @ a, b) / 2, complex)


def star_decomposition(a, b, xi):
    """|star - (r/2 + i lambda/2)| at xi, relative to ||A|| ||B|| ||xi||; an array over stacks."""
    residual = star_eval(a, b, xi) - (r_eval(a, b, xi) / 2 + 1j * lambda_eval(a, b, xi) / 2)
    return relative(abs(residual), frobenius(a) * frobenius(b) * frobenius(xi))


def star_report(a, b, xi, tol: float = 1e-9) -> tuple[VerificationReport, dict]:
    """(A*B)(xi) and its Jordan and Lie parts, for finite Hermitian A, B and xi of one dimension,
    with a report that star = r/2 + i lambda/2."""
    a, b, xi = require_same_dim(*map(require_matrix, (a, b, xi)))
    if not all(is_hermitian(m, TAU_HERMITIAN) for m in (a, b, xi)):
        raise ValueError("A, B and xi must be finite and Hermitian")
    value = star_eval(a, b, xi)
    rep = VerificationReport(title="star product decomposition", seed=0, trials=1, tol=tol)
    rep.add("star_equals_r_half_plus_i_lambda_half", star_decomposition(a, b, xi))
    return rep, {"star_re": value.real, "star_im": value.imag,
                 "jordan_part": r_eval(a, b, xi) / 2, "lie_part": lambda_eval(a, b, xi) / 2}


def hamiltonian_field_dual(h, xi) -> np.ndarray:
    """Value at xi of the Hamiltonian vector field of hat(H): [H, xi]_-."""
    return lie_bracket(h, xi)


def r_invariance_defect(h, a, b, xi) -> float:
    """Invariance of the Jordan tensor along the Hamiltonian flow of hat(H).

    The exact derivative at t = 0 of R(A(t), B(t))(xi(t)), with all three
    arguments dragged by conjugation with exp(-itH): the Leibniz identity
    contracted with xi, scaled by the input norms.  The test suite checks it
    against a central finite difference of the dragged tensor.
    """
    h, a, b, xi = require_same_dim(h, a, b, xi)
    adot = lie_bracket(h, a)
    bdot = lie_bracket(h, b)
    xidot = lie_bracket(h, xi)
    total = r_eval(adot, b, xi) + r_eval(a, bdot, xi) + r_eval(a, b, xidot)
    return relative(abs(total), frobenius(h) * frobenius(a) * frobenius(b) * frobenius(xi))


# --- states ------------------------------------------------------------------

TAU_PSD = 1e-10


def is_state(xi, tol: float = TAU_PSD) -> bool:
    """True iff xi is Hermitian, positive semidefinite and unit trace within tol."""
    if not is_hermitian(xi, tol):
        return False
    return bool(eigvals_hermitian(xi)[0] >= -tol and abs(np.trace(xi).real - 1.0) <= tol)


# --- 2-level golden tables ---------------------------------------------------

SU2_U = np.eye(2, dtype=complex)
SU2_X = np.array([[0, 1], [1, 0]], dtype=complex)
SU2_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SU2_Z = np.array([[1, 0], [0, -1]], dtype=complex)

SU2_BASIS = {"u": SU2_U, "x": SU2_X, "y": SU2_Y, "z": SU2_Z}
SU2_NAMES = ("u", "x", "y", "z")
# the star entries su2_report pins, as coefficients over the basis; an absent name is 0
SU2_GOLDEN_STAR = {("z", "y"): {"x": -1j}, ("x", "y"): {"z": 1j}, ("z", "x"): {"y": 1j}}


def su2_coefficients(m) -> dict[str, complex]:
    """Expand a 2x2 matrix over the orthonormal basis {U, X, Y, Z}.

    Coefficients are complex in general: the Hermitian and anti-Hermitian
    parts are projected separately through the trace form.
    """
    herm = (m + dagger(m)) / 2
    anti = (m - dagger(m)) / (2j)  # Hermitian matrix carrying the imaginary part
    return {
        name: complex(trace_form(e, herm) + 1j * trace_form(e, anti))
        for name, e in SU2_BASIS.items()
    }


def _dual_geometry_residuals(a, b, c, xi) -> dict:
    cyc = (lambda_eval(lie_bracket(a, b), c, xi)
           + lambda_eval(lie_bracket(b, c), a, xi)
           + lambda_eval(lie_bracket(c, a), b, xi))
    size = frobenius(a) * frobenius(b) * frobenius(xi) * frobenius(c)
    return {
        "star_decomposition": star_decomposition(a, b, xi),
        "function_bracket_jacobi": relative(abs(cyc), size),
        "r_flow_invariance": r_invariance_defect(c, a, b, xi),
    }


DUAL_GEOMETRY = Suite("dual-space tensor identities",
                      {name: (key, random_hermitian_stack)
                       for name, key in (("a", 40), ("b", 41), ("c", 42), ("xi", 43))},
                      _dual_geometry_residuals)


def verify_dual_geometry(n: int, trials: int, seed: int, tol: float = 1e-9) -> VerificationReport:
    """Randomized residuals for the dual-space tensor identities."""
    return run_suite(DUAL_GEOMETRY, n, trials, seed, tol, details={"dim": n})


def su2_golden_tables() -> dict:
    """Coordinate tables of the 2-level system: kind -> (a, b) -> generator matrix.

    Each kind, "lambda", "r" and "star", maps a coordinate pair (a, b) over
    {u, x, y, z} to the generator matrix of the resulting linear function:
    Lambda(da, db) = hat of the table entry, and likewise for R and
    (complex-valued) star.  The R generators follow the defining contraction
    R(da, db) = hat(AB + BA), which fixes the symmetrized-tensor-product
    constant: R(du, dx) has generator 2X, i.e. coefficient 2x.
    """
    products = {"lambda": lie_bracket, "r": lambda a, b: a @ b + b @ a, "star": np.matmul}
    return {kind: {(na, nb): product(SU2_BASIS[na], SU2_BASIS[nb])
                   for na in SU2_NAMES for nb in SU2_NAMES}
            for kind, product in products.items()}


def su2_tables_json(tables: dict) -> dict:
    """The basis and each table of ``su2_golden_tables``, every matrix in the wire format."""
    named = {"basis": SU2_BASIS, **{kind: {f"{a},{b}": m for (a, b), m in table.items()}
                                    for kind, table in tables.items()}}
    return {kind: {k: serialize_matrix(m).decode() for k, m in table.items()}
            for kind, table in named.items()}


def su2_report(tol: float) -> tuple[VerificationReport, dict]:
    """The su(2) tables, and a report of their star entries against SU2_GOLDEN_STAR."""
    tables = su2_golden_tables()
    rep = VerificationReport(title="2-level golden star values", seed=0, trials=1, tol=tol)
    for (na, nb), expected in SU2_GOLDEN_STAR.items():
        coeffs = su2_coefficients(tables["star"][na, nb])
        rep.add(f"star_{na}_{nb}", max(abs(coeffs[k] - expected.get(k, 0.0)) for k in SU2_NAMES))
    return rep, tables
