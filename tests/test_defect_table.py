"""The defect table: every defect planted on every row that verify runs, on the star and
su2demo reports and on the conservation monitors of the three pictures.

Each algebra and dual primitive f gets two defects f + 1e-6 g, with g symmetric and
antisymmetric in f's two matrix arguments.  The rows take both products and the dual
tensors from one pair (``algebra.pair``, ``algebra.diagonal_pair``), so the defects of the
products and of Lambda and R are planted on the pair's parts (``lie_part``,
``jordan_part``) and evaluators (``lambda_of``, ``r_of``), with g of the pair's matrices.
A primitive that the rows call through its unchecked core (``_trace_form``, ``_hat_eval``,
``_star_eval``, ``_momentum_map``, ``_f_quadratic``, ``_dispersion``) is planted on the core
and named by its public name.  Each g is bilinear (and linear in xi), so the relative checks cannot divide it away, and is
built from P = diag(1, 0, ..., 0), which no unitary conjugation preserves.  At D_One's
points P xi = xi P = 0, so a projector defect vanishes there: the two products also get two
U(n)-invariant trace families (on a pairing, the antisymmetric one's trace is 0).  Each
primitive of the C^n realization gets the relative defect f (1 + 1e-6).

Every defect is planted on every row of ``cli.VERIFY_ROWS`` at n = 2, 3 and 4, seed n, on
the reports of ``star`` (``dual._star_report`` at a seeded triple of dimension n) and
``su2demo`` (``dual.su2_report``), and on ``dynamics.conserved_report`` of the exact flow in
each picture.  Each defect must fail a check, and each check must fail for some defect: a
check that no defect trips adds no evidence.  Which primitives trip which check must not
depend on n; the README's check catalogue lists that map.  D_R is left out: it passes when
its witness of non-involutivity is large, so a defect cannot make it fail; its gate is the
closed form of ``tests/test_distributions.py::test_r_witness_matches_closed_form``.
"""

import functools

import numpy as np
import pytest

from geomqm import algebra, dual, dynamics, kahler
from geomqm.cli import VERIFY_ROWS
from geomqm.kernel import random_complex_vector, random_hermitian
from geomqm.report import verify_row
from conftest import exact_flow, plant_everywhere

EPS = 1e-6
# the conservation monitors' drift checks (norms, traces, spectra and energies of the flow's
# samples) call no planted primitive, so no defect can make them fail
DRIFT_MONITORS = {"schrodinger": ("state_norm", "energy_expectation"),
                  "heisenberg": ("hamiltonian_constant", "spectrum"),
                  "vonneumann": ("trace", "spectrum", "energy_expectation", "purity")}
LEFT_OUT = {("involutivity evidence: D_R", "non_involutivity_witness_found")}
LEFT_OUT |= {(f"conservation monitors ({picture})", check)
             for picture, checks in DRIFT_MONITORS.items() for check in checks}
DIMS, TRIALS = (2, 3, 4), 20


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


def scaled(f):
    """f times 1 + EPS: a relative defect that keeps f bilinear, or sesquilinear."""
    return lambda *args: f(*args) * (1 + EPS)


def primitive_name(f):
    """A primitive's name: the public one, also where the rows call its unchecked core."""
    return f.__name__.lstrip("_")


# each algebra and dual primitive, as the rows call it -> how a bilinear matrix g enters it
PRIMITIVES = {algebra.lie_part: part_defect, algebra.jordan_part: part_defect,
              algebra._trace_form: pairing_defect, dual._hat_eval: pairing_defect,
              dual.lambda_of: pair_tensor_defect, dual.r_of: pair_tensor_defect,
              dual._star_eval: tensor_defect}
# (primitive name, family) -> (primitive, defect): planted as defect(primitive)
DEFECTS = {(primitive_name(f), g.__name__): (f, kind(g))
           for f, kind in PRIMITIVES.items() for g in (symmetric, antisymmetric)}
DEFECTS |= {(primitive_name(f), g.__name__): (f, part_defect(g))
            for f in (algebra.lie_part, algebra.jordan_part)
            for g in (trace_symmetric, trace_antisymmetric)}
DEFECTS |= {(primitive_name(f), defect.__name__): (f, defect) for f, defect in (
    (kahler._momentum_map, scaled), (kahler._f_quadratic, scaled),
    (kahler.function_brackets, scaled), (kahler.hamiltonian_field_f, scaled),
    (dual.hamiltonian_field_dual, scaled), (kahler.gradient_field_e, scaled),
    (kahler._dispersion, scaled), (kahler.to_real, scaled), (kahler.g_eval, scaled),
    (kahler.omega_eval, scaled))}


def conserved_reports(n):
    """``conserved_report`` of the exact flow in each picture, seed n, of an H drawn at (n, 91)
    and the initial values psi, A and xi drawn at keys 92, 93 and 94."""
    h = random_hermitian(n, n, 91)
    initial = {"schrodinger": random_complex_vector(n, n, 92),
               "heisenberg": random_hermitian(n, n, 93), "vonneumann": random_hermitian(n, n, 94)}
    specs = [dynamics.EvolutionSpec(h, t_final=1.0, steps=8, picture=p) for p in initial]
    return [dynamics.conserved_report(spec, exact_flow(spec, initial[spec.picture]), seed=n)
            for spec in specs]


def reports(n, defect=None):
    """Every verify row's published reports at n and seed n, the star report of a triple drawn
    at n and seed n, the su2demo report and the conservation monitors of the exact flows, with
    ``defect`` planted."""
    with pytest.MonkeyPatch.context() as mp:
        if defect is not None:
            plant_everywhere(mp, *DEFECTS[defect])
        star, _ = dual._star_report(*(random_hermitian(n, n, 90, k) for k in range(3)), 1e-9)
        su2, _ = dual.su2_report(1e-12)  # su2demo's fixed tolerance
        return [*(report for row in VERIFY_ROWS for report in verify_row(row, n, TRIALS, n, 1e-9)),
                star, su2, *conserved_reports(n)]


@functools.cache
def defect_table(n):
    """defect -> the (report title, check) pairs it fails at n."""
    return {defect: {(r.title, c.name) for r in reports(n, defect) for c in r.checks
                     if not c.passed} - LEFT_OUT for defect in DEFECTS}


def tripped_by(n):
    """(report title, check) -> the names of the primitives whose defects fail it at n."""
    out = {}
    for (name, _), failed in defect_table(n).items():
        for check in failed:
            out.setdefault(check, set()).add(name)
    return out


@pytest.mark.parametrize("n", DIMS)
def test_every_defect_fails_a_check_and_every_check_fails_for_a_defect(n):
    clean = reports(n)
    assert all(r.passed for r in clean), [r.summary() for r in clean if not r.passed]
    table = defect_table(n)
    assert all(table.values()), table
    checks = {(r.title, c.name) for r in clean for c in r.checks} - LEFT_OUT
    assert set().union(*table.values()) == checks, checks - set().union(*table.values())


def test_tripping_primitives_do_not_depend_on_n():
    assert tripped_by(2) == tripped_by(3) == tripped_by(4)
