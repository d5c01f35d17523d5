"""Every residual is divided by a size of its own degree in each input.

Scaling by 2^k is exact in binary floating point, so when a suite's draws,
or an evolution's initial value, are scaled by 2^k, every report must come
out bit for bit the same, and a planted relative defect must fail at every
k.  H scaled by 2^k runs for the time 2^-k, which is the same dynamics, and
an operator scaled by 2^k has its eigenvalue scaled by 2^k.  At small scales
that are not powers of two, where a floor of 1 on the size made checks
blind, a planted defect must still fail and the distribution ranks must not
move.
"""

import functools

import numpy as np
import pytest

from geomqm import algebra, dual, dynamics, kahler
from geomqm import distributions as dist
from geomqm.kernel import random_complex_vector, random_hermitian
from geomqm.report import replay, verify_row
from conftest import SUITE_ROWS, exact_flow, plant_everywhere, unitary_from_seed
from test_defect_table import DEFECTS, defect_table

POWERS = (-40, 0, 40)
EVOLVE_POWERS = (-600, *POWERS, 600)  # 2^1200 overflows and 2^-1200 underflows a square
EXTREME_POWERS = (-1000, -600, 600, 1000)  # an operator's squared norm leaves the float range
N, TRIALS, SEED = 4, 40, 3


def scale_row(mp, name, scale):
    """Multiply every declared input of the suite row ``name`` by ``scale``, in its module."""
    module, row = SUITE_ROWS[name], getattr(SUITE_ROWS[name], name)
    mp.setattr(module, name, row._replace(inputs={
        key_name: (key, lambda n, m, rng, draw=draw: draw(n, m, rng) * scale)
        for key_name, (key, draw) in row.inputs.items()}))


def plant(mp, module, name, defect):
    """Replace module.name by defect(original)."""
    mp.setattr(module, name, defect(getattr(module, name)))


def bracket_defect(f):
    """For the Lie part f(p) of a pair p: add 1e-6 times its Jordan part."""
    return lambda p: f(p) + 1e-6 * algebra.jordan_part(p)


def relative_defect(f):
    return lambda *args: f(*args) * (1 + 1e-6)


# row name -> the kinds whose reports are left out: the R witness matrices scale with the
# draws, and a witness of non-involutivity survives a defect
SUITES = {name: ("R",) if name == "INVOLUTIVITY" else () for name in SUITE_ROWS}


@functools.cache
def planted_defect(name):
    """The first defect of the defect table that fails the row ``name`` at n = N."""
    titles = {r.title for r in verify_row(getattr(SUITE_ROWS[name], name), N, 1, SEED, 1e-9)}
    return next(DEFECTS[defect] for defect, failed in defect_table(N).items()
                if titles & {title for title, _ in failed})


def suite_reports(name, scale, planted=False):
    """The reports of the row ``name``, as its module binds it once scaled (and planted)."""
    with pytest.MonkeyPatch.context() as mp:
        scale_row(mp, name, scale)
        if planted:
            plant_everywhere(mp, *planted_defect(name))
        reports = verify_row(getattr(SUITE_ROWS[name], name), N, TRIALS, SEED, 1e-9)
    return [r for r in reports if r.details.get("kind") not in SUITES[name]]


@pytest.mark.parametrize("name", SUITES, ids=str.lower)
def test_suite_reports_equal_at_every_power_of_two(name):
    reports = [[r.to_dict() for r in suite_reports(name, 2.0**k)] for k in POWERS]
    assert reports[0] == reports[1] == reports[2]
    assert all(r["passed"] for r in reports[1])


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("name", SUITES, ids=str.lower)
def test_planted_defect_fails_at_every_power_of_two(name, k):
    assert not all(r.passed for r in suite_reports(name, 2.0**k, planted=True))


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("name", SUITE_ROWS)
def test_scaled_row_scales_every_input(name, k):
    # if scaling were a no-op, the equal reports above would compare a report with itself
    row = getattr(SUITE_ROWS[name], name)
    with pytest.MonkeyPatch.context() as mp:
        scale_row(mp, name, 2.0**k)
        scaled = replay(getattr(SUITE_ROWS[name], name), N, SEED, TRIALS - 1)
    unscaled = replay(row, N, SEED, TRIALS - 1)
    assert scaled.keys() == unscaled.keys() == row.inputs.keys()
    for key in row.inputs:
        assert np.array_equal(scaled[key], 2.0**k * unscaled[key])


@pytest.mark.parametrize("name", SUITES, ids=str.lower)
def test_suite_reads_the_scaled_row(name):
    # NaN draws fail the reports only if the suite draws from the row put in place
    assert not any(r.passed for r in suite_reports(name, float("nan")))


def test_involutivity_r_witness_equal_at_every_power_of_two():
    with pytest.MonkeyPatch.context() as mp:
        witness, matrices = [], []
        for k in POWERS:
            scale_row(mp, "INVOLUTIVITY", 2.0**k)
            report = verify_row(dist.INVOLUTIVITY, N, TRIALS, SEED, 1e-9)[1]
            witness.append((report.passed, report.details["witness_residual"]))
            matrices.append(report.details["witness_matrices"])
            mp.undo()
    assert witness[0] == witness[1] == witness[2] and witness[0][0]
    # the witness is replayed from the scaled row, the one that ran
    for k, scaled in zip(POWERS, matrices):
        assert all(np.array_equal(scaled[name], 2.0**k * np.array(matrices[1][name]))
                   for name in scaled)


# --- eigen: the operator scaled ----------------------------------------------------

@pytest.mark.parametrize("direction", ["ascent", "descent"])
@pytest.mark.parametrize("k", EXTREME_POWERS)
def test_eigensolve_of_a_scaled_operator_scales_its_eigenvalue(k, direction):
    # at 2^-600, <r, r> underflowed to 0 and the flow stopped at iteration 0
    a, psi0 = random_hermitian(32, 32), random_complex_vector(32, 33)
    unit = kahler.eigensolve_gradient_flow(a, psi0, direction=direction)
    res = kahler.eigensolve_gradient_flow(2.0**k * a, psi0, direction=direction)
    assert res.iterations == unit.iterations
    assert np.array_equal(res.eigenvector, unit.eigenvector)
    assert res.eigenvalue == 2.0**k * unit.eigenvalue
    assert res.residual_history == [2.0**k * r for r in unit.residual_history]


# --- star: A, B and xi scaled independently ------------------------------------------

@pytest.mark.parametrize("c", [-600, 0, 600])
@pytest.mark.parametrize("b", [-600, 0, 600])
@pytest.mark.parametrize("a", [-600, 0, 600])
def test_star_report_equal_at_independent_powers_of_two(a, b, c):
    # at 2^400 each the residual read NaN (exit 1), and at 2^-600 each exactly 0
    for n in (1, 2, 3, 5):
        triple = [random_hermitian(n, 60 + n, key) for key in range(3)]
        unit, _ = dual.star_report(*triple)
        rep, _ = dual.star_report(*(2.0**k * m for k, m in zip((a, b, c), triple)))
        assert rep.to_dict() == unit.to_dict() and unit.passed
        assert n == 1 or unit.checks[0].max_residual > 0


@pytest.mark.parametrize("direction", ["ascent", "descent"])
@pytest.mark.parametrize("k", [-1000, -600])
def test_eigen_report_passes_at_tiny_scale(k, direction):
    # oracle_agreement read inf at 2^-600, because ||A||_F underflowed
    rep, _ = kahler.eigen_report(2.0**k * random_hermitian(32, 32), 1, 1e-9, 100_000, direction)
    assert rep.passed, rep.summary()


# --- evolve reports: the initial value scaled, or H and time scaled inversely ------

def initial_value(picture, scale):
    n = 5
    if picture == "schrodinger":
        return scale * random_complex_vector(n, 91)
    return scale * random_hermitian(n, 92)


def evolve_reports(picture, scale, planted=False, h_power=0):
    spec = dynamics.EvolutionSpec(hamiltonian=2.0**h_power * random_hermitian(5, 90),
                                  t_final=2.0 * 2.0**-h_power, steps=16, picture=picture)
    initial = initial_value(picture, scale)
    traj = exact_flow(spec, initial)
    if planted:
        traj[-1] *= 1 + 1e-6
    reports = [dynamics.conserved_report(spec, traj, seed=4)]
    if picture == "schrodinger":
        with pytest.MonkeyPatch.context() as mp:
            if planted:
                plant(mp, dynamics, "_vonneumann", relative_defect)
            reports.append(dynamics.mu_relatedness_check(spec, initial, seed=4))
    return reports


@pytest.mark.parametrize("picture", dynamics.PICTURES)
def test_evolve_reports_equal_at_every_power_of_two(picture):
    reports = [[r.to_dict() for r in evolve_reports(picture, 2.0**k)] for k in EVOLVE_POWERS]
    assert all(r == reports[0] for r in reports)
    assert all(r["passed"] for r in reports[0])


@pytest.mark.parametrize("picture", dynamics.PICTURES)
def test_evolve_reports_equal_for_h_and_time_scaled_inversely(picture):
    # H 2^k for the time 2^-k: at 2^-600 energy_expectation read inf, at 2^600
    # hamiltonian_constant read NaN
    reports = [[r.to_dict() for r in evolve_reports(picture, 1.0, h_power=k)]
               for k in EVOLVE_POWERS]
    assert all(r == reports[0] for r in reports)
    assert all(r["passed"] for r in reports[0])


@pytest.mark.parametrize("k", EVOLVE_POWERS)
@pytest.mark.parametrize("picture", dynamics.PICTURES)
def test_evolve_planted_defect_fails_at_every_power_of_two(picture, k):
    reports = evolve_reports(picture, 2.0**k, planted=True)
    assert not any(r.passed for r in reports)


# --- scales that are not powers of two ------------------------------------------

@pytest.mark.parametrize("s", [1e-3, 1e-6])
def test_planted_bracket_defect_fails_at_small_scale(s):
    # with a floor of 1 on the size, this defect passed at s = 1e-3 (jacobi 2.4e-11)
    with pytest.MonkeyPatch.context() as mp:
        scale_row(mp, "JORDAN_LIE", s)
        plant(mp, algebra, "lie_part", bracket_defect)
        (report,) = verify_row(algebra.JORDAN_LIE, N, TRIALS, SEED, 1e-9)
    assert not {c.name: c for c in report.checks}["jacobi"].passed


@pytest.mark.parametrize("c", [1e-6, 1e-9])
def test_distribution_ranks_do_not_depend_on_scale(c):
    u = unitary_from_seed(4, 35)
    xi = (u * np.array([1.0, -0.995, 2.0, 3.0])) @ u.conj().T

    def labels(point):
        inv = dist.orbit_invariants(point)
        return inv["ranks"], inv["rank"], inv["signature"]

    assert labels(c * xi) == labels(xi)
    assert labels(xi)[0] == {"Lambda": 12, "R": 16, "Zero": 12, "One": 16}


def test_involutivity_at_small_scale():
    # pairs and spectra at 1e-8, which is not a power of two
    with pytest.MonkeyPatch.context() as mp:
        scale_row(mp, "INVOLUTIVITY", 1e-8)
        reports = verify_row(dist.INVOLUTIVITY, N, TRIALS, SEED, 1e-9)
    assert all(r.passed for r in reports)
