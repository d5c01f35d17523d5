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

from dataclasses import dataclass

import numpy as np

from .algebra import jordan_product, lie_bracket, trace_form
from .kernel import (dagger, eigvals_hermitian, frobenius, is_hermitian, make_rng,
                     random_hermitian_stack, relative, require_same_dim, scalar_or_stack,
                     serialize_matrix)
from .report import VerificationReport, run_suite


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


def star_generators(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary generator parts of A*B: (A o B, [A,B]_-/2).

    The star of two real hat functions is the complex combination
    hat(A o B) + i hat([A,B]_-/2); both parts are again linear functions.
    """
    return jordan_product(a, b), lie_bracket(a, b) / 2


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


def random_state(n: int, seed: int, *key: int) -> np.ndarray:
    """Normalized T^dag T for seeded Gaussian T; a density matrix by construction."""
    rng = make_rng(seed, *key)
    t = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    rho = dagger(t) @ t
    return rho / np.trace(rho).real


# --- 2-level golden tables ---------------------------------------------------

SU2_U = np.eye(2, dtype=complex)
SU2_X = np.array([[0, 1], [1, 0]], dtype=complex)
SU2_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SU2_Z = np.array([[1, 0], [0, -1]], dtype=complex)

SU2_BASIS = {"u": SU2_U, "x": SU2_X, "y": SU2_Y, "z": SU2_Z}
SU2_NAMES = ("u", "x", "y", "z")


def _basis_coefficients(m) -> dict[str, complex]:
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


@dataclass(frozen=True)
class GoldenTables:
    """Coordinate tables of the 2-level system.

    Each table maps a coordinate pair (a, b) to the generator matrix of the
    resulting linear function: Lambda(da, db) = hat of the table entry, and
    likewise for R and (complex-valued) star.  The R generators follow the
    defining contraction R(da, db) = hat(AB + BA), which fixes the
    symmetrized-tensor-product constant: R(du, dx) has generator 2X, i.e.
    coefficient 2x.
    """

    basis: dict
    lambda_table: dict
    r_table: dict
    star_table: dict

    def lambda_coefficients(self, a: str, b: str) -> dict[str, complex]:
        return _basis_coefficients(self.lambda_table[(a, b)])

    def star_coefficients(self, a: str, b: str) -> dict[str, complex]:
        return _basis_coefficients(self.star_table[(a, b)])

    def to_json_dict(self) -> dict:
        def enc(table):
            return {f"{a},{b}": serialize_matrix(m).decode() for (a, b), m in table.items()}

        return {
            "basis": {name: serialize_matrix(m).decode() for name, m in self.basis.items()},
            "lambda": enc(self.lambda_table),
            "r": enc(self.r_table),
            "star": enc(self.star_table),
        }


def verify_dual_geometry(n: int, trials: int, seed: int, tol: float = 1e-9) -> VerificationReport:
    """Randomized residuals for the dual-space tensor identities."""
    rngs = [make_rng(seed, key) for key in (40, 41, 42, 43)]  # keys no other verify suite uses

    def trial(ks):
        a, b, c, xi = (random_hermitian_stack(n, len(ks), rng) for rng in rngs)
        na, nxi = frobenius(a), frobenius(xi)
        size = na * frobenius(b) * nxi
        star = star_eval(a, b, xi)
        sj, sl = star_generators(a, b)
        lie_ab, lam = lie_bracket(a, b), lambda_eval(a, b, xi)
        cyc = (lambda_eval(lie_ab, c, xi)
               + lambda_eval(lie_bracket(b, c), a, xi)
               + lambda_eval(lie_bracket(c, a), b, xi))
        return {
            "hat_of_bracket": relative(abs(lam - hat_eval(lie_ab, xi)), size),
            "star_decomposition": relative(abs(star - (r_eval(a, b, xi) / 2 + 1j * lam / 2)), size),
            "nonlocal_closure": relative(abs(star - (hat_eval(sj, xi) + 1j * hat_eval(sl, xi))),
                                         size),
            "bilinearity_symmetry": relative(abs(hat_eval(a, xi) - hat_eval(xi, a)), na * nxi),
            "function_bracket_jacobi": relative(abs(cyc), size * frobenius(c)),
            "r_flow_invariance": r_invariance_defect(c, a, b, xi),
        }

    return run_suite("dual-space tensor identities", n, trials, seed, tol, trial,
                     details={"dim": n})


def su2_golden_tables() -> GoldenTables:
    """Full Lambda, R and star coefficient tables over {u, x, y, z}."""
    lam, r, star = {}, {}, {}
    for na in SU2_NAMES:
        for nb in SU2_NAMES:
            a, b = SU2_BASIS[na], SU2_BASIS[nb]
            lam[(na, nb)] = lie_bracket(a, b)
            r[(na, nb)] = a @ b + b @ a
            star[(na, nb)] = a @ b
    return GoldenTables(basis=dict(SU2_BASIS), lambda_table=lam, r_table=r, star_table=star)
