"""Every residual is divided by a size of its own degree in each input.

Scaling by 2^k is exact in binary floating point, so when a suite's draws,
or an evolution's initial value, are scaled by 2^k, every report must come
out bit for bit the same, and a planted relative defect must fail at every
k.  H is never scaled: that would rescale time.  At small scales that are
not powers of two, where a floor of 1 on the size made checks blind, a
planted defect must still fail and the distribution ranks must not move.
"""

import dataclasses

import numpy as np
import pytest

from geomqm import algebra, dual, dynamics, kahler
from geomqm import distributions as dist
from geomqm.algebra import jordan_product
from geomqm.kernel import random_complex_vector, random_hermitian
from conftest import unitary_from_seed

POWERS = (-40, 0, 40)
N, TRIALS, SEED = 4, 40, 3


def scale_draws(mp, module, scale, names=("random_hermitian_stack",)):
    """Multiply every draw the module makes through ``names`` by ``scale``."""
    for name in names:
        draw = getattr(module, name)
        mp.setattr(module, name, lambda *args, draw=draw: draw(*args) * scale)


def scale_involutivity_draws(mp, scale):
    """Scale the generic points, the pairs and the R points, but not the R eigenframes."""
    draw, r_points = dist.random_hermitian_stack, dist._random_r_singular_points

    def scaled_r_points(*args):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(dist, "random_hermitian_stack", draw)
            basis = r_points(*args)
        return dataclasses.replace(basis, point=basis.point * scale)

    scale_draws(mp, dist, scale)
    mp.setattr(dist, "_random_r_singular_points", scaled_r_points)


def plant(mp, module, name, defect):
    """Replace module.name by defect(original)."""
    mp.setattr(module, name, defect(getattr(module, name)))


def bracket_defect(f):
    return lambda a, b: f(a, b) + 1e-6 * jordan_product(a, b)


def relative_defect(f):
    return lambda *args: f(*args) * (1 + 1e-6)


# name: (scale the draws, run the suite, plant a relative ~1e-6 defect)
SUITES = {
    "jordan_lie": (lambda mp, s: scale_draws(mp, algebra, s),
                   lambda: [algebra.verify_jordan_lie(N, TRIALS, SEED)],
                   lambda mp: plant(mp, algebra, "lie_bracket", bracket_defect)),
    "dual": (lambda mp, s: scale_draws(mp, dual, s),
             lambda: [dual.verify_dual_geometry(N, TRIALS, SEED)],
             lambda mp: plant(mp, dual, "star_eval", relative_defect)),
    "commutation": (lambda mp, s: scale_draws(mp, dist, s),
                    lambda: [dist.verify_commutation(N, TRIALS, SEED)],
                    lambda mp: plant(mp, dist, "rhat", relative_defect)),
    "involutivity": (scale_involutivity_draws,
                     lambda: [r for r in dist.involutivity_evidence(N, TRIALS, SEED)
                              if r.details["kind"] != "R"],
                     lambda mp: plant(mp, dist, "lie_bracket", bracket_defect)),
    "pullbacks": (lambda mp, s: scale_draws(mp, kahler, s, ("random_hermitian_stack",
                                                            "random_complex_vector_stack")),
                  lambda: [kahler.verify_pullbacks(N, TRIALS, SEED)],
                  lambda mp: plant(mp, kahler, "f_quadratic", relative_defect)),
}


def suite_reports(name, scale, planted=False):
    scale_inputs, run, plant_defect = SUITES[name]
    with pytest.MonkeyPatch.context() as mp:
        scale_inputs(mp, scale)
        if planted:
            plant_defect(mp)
        return run()


@pytest.mark.parametrize("name", SUITES)
def test_suite_reports_equal_at_every_power_of_two(name):
    reports = [[r.to_dict() for r in suite_reports(name, 2.0**k)] for k in POWERS]
    assert reports[0] == reports[1] == reports[2]
    assert all(r["passed"] for r in reports[1])


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("name", SUITES)
def test_planted_defect_fails_at_every_power_of_two(name, k):
    assert not all(r.passed for r in suite_reports(name, 2.0**k, planted=True))


def test_involutivity_r_witness_equal_at_every_power_of_two():
    with pytest.MonkeyPatch.context() as mp:
        witness = []
        for k in POWERS:
            scale_involutivity_draws(mp, 2.0**k)
            report = dist.involutivity_evidence(N, TRIALS, SEED)[1]
            witness.append((report.passed, report.details["witness_residual"]))
            mp.undo()
    assert witness[0] == witness[1] == witness[2] and witness[0][0]


# --- evolve reports: the initial value scaled, H fixed --------------------------

def initial_value(picture, scale):
    n = 5
    if picture == "schrodinger":
        return scale * random_complex_vector(n, 91)
    return scale * random_hermitian(n, 92)


def evolve_reports(picture, scale, planted=False):
    spec = dynamics.EvolutionSpec(hamiltonian=random_hermitian(5, 90), t_final=2.0, steps=16,
                                  picture=picture)
    initial = initial_value(picture, scale)
    traj = dynamics.exact_flow(spec, initial)
    if planted:
        traj[-1] *= 1 + 1e-6
    reports = [dynamics.conserved_report(spec, traj, seed=4)]
    if picture == "schrodinger":
        with pytest.MonkeyPatch.context() as mp:
            if planted:
                plant(mp, dynamics, "vonneumann_flow", relative_defect)
            reports.append(dynamics.mu_relatedness_check(spec, initial, seed=4))
    return reports


@pytest.mark.parametrize("picture", dynamics.PICTURES)
def test_evolve_reports_equal_at_every_power_of_two(picture):
    reports = [[r.to_dict() for r in evolve_reports(picture, 2.0**k)] for k in POWERS]
    assert reports[0] == reports[1] == reports[2]
    assert all(r["passed"] for r in reports[1])


@pytest.mark.parametrize("k", POWERS)
@pytest.mark.parametrize("picture", dynamics.PICTURES)
def test_evolve_planted_defect_fails_at_every_power_of_two(picture, k):
    reports = evolve_reports(picture, 2.0**k, planted=True)
    assert not any(r.passed for r in reports)


# --- scales that are not powers of two ------------------------------------------

@pytest.mark.parametrize("s", [1e-3, 1e-6])
def test_planted_bracket_defect_fails_at_small_scale(s):
    # with a floor of 1 on the size, this defect passed at s = 1e-3 (jacobi 2.4e-11)
    with pytest.MonkeyPatch.context() as mp:
        scale_draws(mp, algebra, s)
        plant(mp, algebra, "lie_bracket", bracket_defect)
        report = algebra.verify_jordan_lie(N, TRIALS, SEED)
    assert not {c.name: c for c in report.checks}["jacobi"].passed


@pytest.mark.parametrize("c", [1e-6, 1e-9])
def test_distribution_ranks_do_not_depend_on_scale(c):
    u = unitary_from_seed(4, 35)
    xi = (u * np.array([1.0, -0.995, 2.0, 3.0])) @ u.conj().T

    def labels(point):
        inv = dist.orbit_invariants(point)
        ranks = {kind: basis.rank for kind, basis in dist.distribution_basis(point).items()}
        return ranks, inv["ranks"], inv["rank"], inv["signature"]

    assert labels(c * xi) == labels(xi)
    assert labels(xi)[0] == {"Lambda": 12, "R": 16, "Zero": 12, "One": 16}


def test_involutivity_at_small_scale():
    # with an absolute generic gap, points drawn at 1e-8 were all rejected and the suite raised
    with pytest.MonkeyPatch.context() as mp:
        scale_draws(mp, dist, 1e-8)
        reports = dist.involutivity_evidence(N, TRIALS, SEED)
    assert all(r.passed for r in reports)
