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

from .algebra import Pair, _trace_form, lie_part, pair
from .kernel import (eigvals_hermitian, frobenius, is_hermitian, random_hermitian_stack, relative,
                     require_matrix, require_observable, require_observables, require_same_dim,
                     scalar_or_stack, serialize_matrix, unit_scale)
from .report import Suite, VerificationReport


def hat_eval(a, xi) -> float:
    """Linear function of the dual point: A(xi) = Tr(xi A)/2."""
    return _hat_eval(*require_observables(A=a, xi=xi))


def _hat_eval(a, xi):
    """``hat_eval`` of any two square matrices or stacks of one dimension."""
    return _trace_form(a, xi)


def lambda_of(p: Pair, xi) -> float:
    """Poisson bivector of the pair (A, B) on hat differentials: hat([A,B]_-) at xi."""
    return _hat_eval(lie_part(p), require_same_dim(p.ab, xi)[1])


def r_of(p: Pair, xi) -> float:
    """Symmetric Jordan tensor of the pair (A, B): Tr(xi (AB+BA))/2 = 2 hat(A o B) at xi."""
    xi = require_same_dim(p.ab, xi)[1]
    return scalar_or_stack((np.einsum("...ij,...ji->...", xi, p.ab + p.ba) / 2).real)


def star_eval(a, b, xi) -> complex:
    """Non-local product of hat functions: Tr(xi A B)/2."""
    return _star_eval(*require_observables(A=a, B=b, xi=xi))


def _star_eval(a, b, xi):
    """``star_eval`` of any three square matrices or stacks of one dimension."""
    return scalar_or_stack(np.einsum("...ij,...ji->...", xi @ a, b) / 2, complex)


def _star_residual(p: Pair, xi):
    """|star - (r/2 + i lambda/2)| of the pair (A, B) at xi, relative to ||A|| ||B|| ||xi||;
    an array over stacks."""
    residual = _star_eval(p.a, p.b, xi) - (r_of(p, xi) / 2 + 1j * lambda_of(p, xi) / 2)
    return relative(abs(residual), frobenius(p.a) * frobenius(p.b) * frobenius(xi))


def star_report(a, b, xi, tol: float = 1e-9) -> tuple[VerificationReport, dict]:
    """(A*B)(xi) and its Jordan and Lie parts, for finite Hermitian A, B and xi of one dimension,
    with a report that star = r/2 + i lambda/2, taken of A, B and xi each prescaled by
    ``unit_scale``: exact, so the report at (2^a A, 2^b B, 2^c xi) is the one at (A, B, xi)."""
    a, b, xi = require_same_dim(*(require_matrix(require_observable(m, what))
                                  for m, what in ((a, "A"), (b, "B"), (xi, "xi"))))
    return _star_report(a, b, xi, tol)


def _star_report(a, b, xi, tol: float) -> tuple[VerificationReport, dict]:
    """``star_report`` of three observable matrices of one dimension, already checked."""
    rep = VerificationReport(title="star product decomposition", seed=0, trials=1, tol=tol)
    unit_a, unit_b, unit_xi = (m * unit_scale(m, (-2, -1)) for m in (a, b, xi))
    rep.add("star_equals_r_half_plus_i_lambda_half", _star_residual(pair(unit_a, unit_b), unit_xi))
    with np.errstate(over="ignore", invalid="ignore"):  # the values may leave the float range
        p, value = pair(a, b), _star_eval(a, b, xi)
        return rep, {"star_re": value.real, "star_im": value.imag,
                     "jordan_part": r_of(p, xi) / 2, "lie_part": lambda_of(p, xi) / 2}


def hamiltonian_field_dual(h, xi) -> np.ndarray:
    """Value at xi of the Hamiltonian vector field of hat(H): [H, xi]_-."""
    return lie_part(pair(h, xi))


def _r_invariance(ha: Pair, hb: Pair, hxi: Pair, ab: Pair):
    """Invariance of R along the Hamiltonian flow of hat(H), from the pairs (H, A), (H, B), (H, xi)
    and (A, B): the exact d/dt at 0 of R(A(t), B(t))(xi(t)), all three dragged by exp(-itH), is
    the Leibniz identity contracted with xi; relative to the input norms."""
    h, a, b, xi = ha.a, ab.a, ab.b, hxi.b
    total = (r_of(pair(lie_part(ha), b), xi) + r_of(pair(a, lie_part(hb)), xi)
             + r_of(ab, lie_part(hxi)))
    return relative(abs(total), frobenius(h) * frobenius(a) * frobenius(b) * frobenius(xi))


# --- states ------------------------------------------------------------------

TAU_PSD = 1e-10


def is_state(xi, tol: float = TAU_PSD) -> bool:
    """True iff xi, one matrix, is Hermitian, positive semidefinite and unit trace within tol."""
    xi = require_matrix(xi)
    if not is_hermitian(xi, tol):
        return False
    return bool(eigvals_hermitian(xi)[0] >= -tol and abs(np.trace(xi).real - 1.0) <= tol)


# --- 2-level golden tables ---------------------------------------------------

SU2_U = np.eye(2, dtype=complex)
SU2_X = np.array([[0, 1], [1, 0]], dtype=complex)
SU2_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SU2_Z = np.array([[1, 0], [0, -1]], dtype=complex)

SU2_BASIS = {"u": SU2_U, "x": SU2_X, "y": SU2_Y, "z": SU2_Z}
# the star entries su2_report pins, as coefficients over the basis; an absent name is 0
SU2_GOLDEN_STAR = {("z", "y"): {"x": -1j}, ("x", "y"): {"z": 1j}, ("z", "x"): {"y": 1j}}


def su2_coefficients(m) -> dict[str, complex]:
    """Expand a 2x2 matrix over the orthonormal basis {U, X, Y, Z}: the coefficient on E is
    the contraction Tr(E M)/2, complex in general."""
    return {name: complex(np.einsum("ij,ji->", e, m) / 2) for name, e in SU2_BASIS.items()}


def _dual_geometry_residuals(a, b, c, xi) -> dict:
    ab, bc, ca = pair(a, b), pair(b, c), pair(c, a)
    cyc = (lambda_of(pair(lie_part(ab), c), xi)
           + lambda_of(pair(lie_part(bc), a), xi)
           + lambda_of(pair(lie_part(ca), b), xi))
    size = frobenius(a) * frobenius(b) * frobenius(xi) * frobenius(c)
    return {
        "star_decomposition": _star_residual(ab, xi),
        "function_bracket_jacobi": relative(abs(cyc), size),
        "r_flow_invariance": _r_invariance(ca, bc.swapped(), pair(c, xi), ab),
    }


DUAL_GEOMETRY = Suite("dual-space tensor identities",
                      {name: (key, random_hermitian_stack)
                       for name, key in (("a", 40), ("b", 41), ("c", 42), ("xi", 43))},
                      _dual_geometry_residuals)


def su2_golden_tables() -> dict:
    """Coordinate tables of the 2-level system: kind -> (a, b) -> generator matrix.

    Each kind, "lambda", "r" and "star", maps a coordinate pair (a, b) over
    {u, x, y, z} to the generator matrix of the resulting linear function:
    Lambda(da, db) = hat of the table entry, and likewise for R and
    (complex-valued) star.  The R generators follow the defining contraction
    R(da, db) = hat(AB + BA), which fixes the symmetrized-tensor-product
    constant: R(du, dx) has generator 2X, i.e. coefficient 2x.
    """
    pairs = {(na, nb): pair(a, b) for na, a in SU2_BASIS.items() for nb, b in SU2_BASIS.items()}
    return {"lambda": {k: lie_part(p) for k, p in pairs.items()},
            "r": {k: p.ab + p.ba for k, p in pairs.items()},
            "star": {k: p.ab for k, p in pairs.items()}}


def su2_tables_json(tables: dict) -> dict:
    """The basis and each table of ``su2_golden_tables``, every matrix in the wire format."""
    named = {"basis": SU2_BASIS, **{kind: {f"{a},{b}": m for (a, b), m in table.items()}
                                    for kind, table in tables.items()}}
    return {kind: {k: serialize_matrix(m).decode() for k, m in table.items()}
            for kind, table in named.items()}


def su2_report(tol: float) -> tuple[VerificationReport, dict]:
    """The su(2) tables, and a report of the star product against SU2_GOLDEN_STAR: A*B has the
    coefficient (A*B)(E) = Tr(E A B)/2 on each basis element E, orthonormal under the trace form."""
    rep = VerificationReport(title="2-level golden star values", seed=0, trials=1, tol=tol)
    for (na, nb), expected in SU2_GOLDEN_STAR.items():
        rep.add(f"star_{na}_{nb}", max(abs(_star_eval(SU2_BASIS[na], SU2_BASIS[nb], e)
                                           - expected.get(k, 0.0)) for k, e in SU2_BASIS.items()))
    return rep, su2_golden_tables()
