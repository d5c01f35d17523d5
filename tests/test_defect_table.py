"""The defect table of the Jordan-Lie, dual-space and commutation rows.

Each algebra and dual primitive f gets two planted defects f + 1e-6 g, one
with g symmetric in f's two matrix arguments and one with g antisymmetric.
Every g is built from a fixed projector P = diag(1, 0, ..., 0), so no
unitary conjugation preserves it, and is bilinear in those arguments (and
linear in xi), so it scales with them and the relative checks cannot divide
it away.  Every defect must fail a check of the three rows, and every check
of the three rows must fail for some defect: a check that no defect trips
adds no evidence.
"""

import numpy as np
import pytest

from geomqm import algebra, dual
from geomqm.report import run_suite
from conftest import SUITE_ROWS, plant_everywhere

EPS = 1e-6
ROWS = ("JORDAN_LIE", "DUAL_GEOMETRY", "COMMUTATION")
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


def matrix_defect(g):
    """For a matrix-valued f(a, b): add EPS g(a, b)."""
    return lambda f: lambda a, b: f(a, b) + EPS * g(a, b)


def pairing_defect(g):
    """For f(a, b): add EPS Tr(g(a, b))/2, a real bilinear form."""
    return lambda f: lambda a, b: f(a, b) + EPS * np.einsum("...ii->...", g(a, b)).real / 2


def tensor_defect(g):
    """For f(a, b, xi): add EPS Tr(xi g(a, b))/2, linear in xi."""
    return lambda f: lambda a, b, xi: f(a, b, xi) + EPS * np.einsum(
        "...ij,...ji->...", xi, g(a, b)).real / 2


# each primitive of the three rows -> how a bilinear matrix g enters it
PRIMITIVES = {algebra.lie_bracket: matrix_defect, algebra.jordan_product: matrix_defect,
              algebra.trace_form: pairing_defect, dual.hat_eval: pairing_defect,
              dual.lambda_eval: tensor_defect, dual.r_eval: tensor_defect,
              dual.star_eval: tensor_defect}
DEFECTS = {(f.__name__, g.__name__): (f, kind(g))
           for f, kind in PRIMITIVES.items() for g in (symmetric, antisymmetric)}


def reports(defect=None):
    """The three rows' reports by row name, with ``defect`` planted."""
    with pytest.MonkeyPatch.context() as mp:
        if defect is not None:
            plant_everywhere(mp, *DEFECTS[defect])
        return {row: run_suite(getattr(SUITE_ROWS[row], row), N, TRIALS, SEED, 1e-9)
                for row in ROWS}


def defect_table():
    """defect -> the (row, check) pairs it fails."""
    return {defect: {(row, c.name) for row, report in reports(defect).items()
                     for c in report.checks if not c.passed} for defect in DEFECTS}


def test_every_defect_fails_a_check_and_every_check_fails_for_a_defect():
    clean = reports()
    assert all(report.passed for report in clean.values())
    table = defect_table()
    assert all(table.values()), table
    checks = {(row, c.name) for row, report in clean.items() for c in report.checks}
    assert set().union(*table.values()) == checks, checks - set().union(*table.values())
