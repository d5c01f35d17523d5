"""The defect table of the Jordan-Lie, dual-space, commutation and involutivity rows.

Each algebra and dual primitive f gets two planted defects f + 1e-6 g, one
with g symmetric in f's two matrix arguments and one with g antisymmetric.
The rows form each ordered pair's products once, with ``algebra.pair`` or
``algebra.diagonal_pair``, and take both products and the dual tensors from
it, so the defects of the products and of Lambda and R are planted on the
pair's parts (``lie_part``, ``jordan_part``) and on the dual evaluators of a
pair (``lambda_of``, ``r_of``), with g of the pair's two matrices.
Every such g is built from a fixed projector P = diag(1, 0, ..., 0), so no
unitary conjugation preserves it, and is bilinear in those arguments (and
linear in xi), so it scales with them and the relative checks cannot divide
it away.  The two products also get two U(n)-invariant families, built from
traces, which the projector families leave unexamined on D_One: at its
points P xi = xi P = 0, so a projector defect vanishes there.  (On the
pairing primitives the antisymmetric trace family's trace is identically 0.)
Every defect must fail a check of the four rows, and every check must fail
for some defect: a check that no defect trips adds no evidence.  The
involutivity row's D_R check is left out, as in ``tests/test_scaling.py``: it
passes when its witness of non-involutivity is large, so a defect cannot
make it fail; its gate is the closed form of
``tests/test_distributions.py::test_r_witness_matches_closed_form``.
"""

import numpy as np
import pytest

from geomqm import algebra, dual
from geomqm.report import run_suite
from conftest import SUITE_ROWS, plant_everywhere

EPS = 1e-6
ROWS = ("JORDAN_LIE", "DUAL_GEOMETRY", "COMMUTATION", "INVOLUTIVITY")
LEFT_OUT = {("INVOLUTIVITY", "commutators_tangent_to_D_R")}
N, TRIALS, SEED = 3, 20, 0


def _p_product(a, b):
    """A P B with P = diag(1, 0, ..., 0), over stacks."""
    p = np.zeros(np.shape(a)[-1])
    p[0] = 1.0
    return (a * p) @ b


def symmetric(a, b):
    """(APB + BPA)/2: Hermitian, symmetric in A and B."""
    return (_p_product(a, b) + _p_product(b, a)) / 2


def antisymmetric(a, b):
    """-i(APB - BPA): Hermitian, antisymmetric in A and B."""
    return -1j * (_p_product(a, b) - _p_product(b, a))


def _trace(m):
    """Tr M as an array that broadcasts over M's matrices."""
    return np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def trace_symmetric(a, b):
    """(Tr(A) B + Tr(B) A)/2: Hermitian, U(n)-invariant, symmetric in A and B."""
    return (_trace(a) * b + _trace(b) * a) / 2


def trace_antisymmetric(a, b):
    """Tr(A) B - Tr(B) A: Hermitian, U(n)-invariant, antisymmetric in A and B."""
    return _trace(a) * b - _trace(b) * a


def pairing_defect(g):
    """For f(a, b): add EPS Tr(g(a, b))/2, a real bilinear form."""
    return lambda f: lambda a, b: f(a, b) + EPS * np.einsum("...ii->...", g(a, b)).real / 2


def tensor_defect(g):
    """For f(a, b, xi): add EPS Tr(xi g(a, b))/2, linear in xi."""
    return lambda f: lambda a, b, xi: f(a, b, xi) + EPS * _contract(xi, g(a, b))


def part_defect(g):
    """For a part f(p) of the pair p = (A, B): add EPS g(A, B)."""
    return lambda f: lambda p: f(p) + EPS * g(p.a, p.b)


def pair_tensor_defect(g):
    """For f(p, xi) of the pair p = (A, B): add EPS Tr(xi g(A, B))/2, linear in xi."""
    return lambda f: lambda p, xi: f(p, xi) + EPS * _contract(xi, g(p.a, p.b))


def _contract(xi, m):
    """Tr(xi M)/2, real, over stacks."""
    return np.einsum("...ij,...ji->...", xi, m).real / 2


# each primitive of the four rows -> how a bilinear matrix g enters it
PRIMITIVES = {algebra.lie_part: part_defect, algebra.jordan_part: part_defect,
              algebra.trace_form: pairing_defect, dual.hat_eval: pairing_defect,
              dual.lambda_of: pair_tensor_defect, dual.r_of: pair_tensor_defect,
              dual.star_eval: tensor_defect}
DEFECTS = {(f.__name__, g.__name__): (f, kind(g))
           for f, kind in PRIMITIVES.items() for g in (symmetric, antisymmetric)}
DEFECTS |= {(f.__name__, g.__name__): (f, part_defect(g))
            for f in (algebra.lie_part, algebra.jordan_part)
            for g in (trace_symmetric, trace_antisymmetric)}


def reports(defect=None):
    """The four rows' reports by row name, with ``defect`` planted."""
    with pytest.MonkeyPatch.context() as mp:
        if defect is not None:
            plant_everywhere(mp, *DEFECTS[defect])
        return {row: run_suite(getattr(SUITE_ROWS[row], row), N, TRIALS, SEED, 1e-9)
                for row in ROWS}


def defect_table():
    """defect -> the (row, check) pairs it fails."""
    return {defect: {(row, c.name) for row, report in reports(defect).items()
                     for c in report.checks if not c.passed} - LEFT_OUT for defect in DEFECTS}


def test_every_defect_fails_a_check_and_every_check_fails_for_a_defect():
    assert set(ROWS) <= SUITE_ROWS.keys()
    clean = reports()
    checks = {(row, c.name) for row, report in clean.items() for c in report.checks} - LEFT_OUT
    assert all(c.passed for row, report in clean.items() for c in report.checks
               if (row, c.name) in checks)
    table = defect_table()
    assert all(table.values()), table
    assert set().union(*table.values()) == checks, checks - set().union(*table.values())
