"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its numbered criterion; the
assertions enforce the stated tolerances.
"""

import json
import time
from importlib import resources

import numpy as np
import pytest

from geomqm import distributions as dist
from geomqm import dual, kahler
from geomqm.algebra import CONVENTIONS, JORDAN_LIE, pair
from geomqm.cli import EXIT_OK, run
from geomqm.dynamics import (
    EvolutionSpec,
    conserved_report,
    mu_relatedness_check,
    rk4_flow,
    schrodinger_flow,
    vonneumann_flow,
)
from geomqm.kernel import (
    eig_hermitian,
    frobenius,
    random_complex_vector,
    random_hermitian,
    serialize_matrix,
)
from geomqm.report import verify_row
from conftest import PAULI_X, PAULI_Y, PAULI_Z


def report_line(number, label, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}: {label}")
    assert passed, f"criterion {number} failed: {label}"


def test_criterion_01_jordan_lie_identity_suite():
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4, 8, 16):
        (report,) = verify_row(JORDAN_LIE, n, 200, n, 1e-9)
        worst = max(worst, *(c.max_residual for c in report.checks))
        if not report.passed:
            break
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report_line(1, f"identity suite, worst residual {worst:.3e}, "
                   f"{elapsed:.2f}s", ok)


def test_criterion_02_su2_golden_values():
    tables = dual.su2_golden_tables()
    worst = 0.0
    golden_star = {("z", "y"): {"x": -1j}, ("x", "y"): {"z": 1j}, ("z", "x"): {"y": 1j}}
    assert dual.SU2_GOLDEN_STAR == golden_star  # the table su2demo checks is this oracle's
    for (na, nb), expected in golden_star.items():
        coeffs = dual.su2_coefficients(tables["star"][(na, nb)])
        worst = max(worst, *(abs(coeffs[k] - expected.get(k, 0.0))
                             for k in dual.SU2_BASIS))
    golden_lambda = {("x", "y"): PAULI_Z, ("y", "z"): PAULI_X, ("z", "x"): PAULI_Y}
    for (na, nb), gen in golden_lambda.items():
        worst = max(worst, frobenius(tables["lambda"][(na, nb)] - 2 * gen))
    report_line(2, f"su(2) golden star and Poisson tables, residual {worst:.3e}",
                worst <= 1e-12)


def test_criterion_03_tensor_decomposition():
    worst = 0.0
    for k in range(200):
        n = 2 + k % 7
        a = random_hermitian(n, k, 0)
        b = random_hermitian(n, k, 1)
        xi = random_hermitian(n, k, 2)
        lhs = dual.r_of(pair(a, b), xi) / 2 + 1j * dual.lambda_of(pair(a, b), xi) / 2
        scale = frobenius(a) * frobenius(b) * frobenius(xi)
        worst = max(worst, abs(dual.star_eval(a, b, xi) - lhs) / scale)
    report_line(3, f"star = r/2 + i*lambda/2 over 200 triples, residual {worst:.3e}",
                worst <= 1e-10)


def test_criterion_04_distribution_claims():
    involutive_ok = witness_ok = True
    for n in (2, 3, 4):
        reports = dict(zip(dist.KINDS,
                           verify_row(dist.INVOLUTIVITY, n, trials=50, seed=n, tol=1e-9)))
        for kind in ("Lambda", "Zero", "One"):
            report = reports[kind]
            involutive_ok = involutive_ok and report.passed

        report = reports["R"]
        witness_ok = witness_ok and report.passed and \
            report.details["witness_residual"] > 1e-8

    comm_worst = 0.0
    for k in range(50):
        n = 2 + k % 3
        xi = random_hermitian(n, k, 3)
        a = random_hermitian(n, k, 4)
        scale = frobenius(a) * frobenius(xi) ** 2
        comm_worst = max(comm_worst, dist.commutation_defect(xi, a) / scale)

    ok = involutive_ok and witness_ok and comm_worst <= 1e-10
    report_line(4, "involutivity evidence + non-involutivity witness + "
                   f"commutation residual {comm_worst:.3e}", ok)


def test_criterion_05_momentum_map_pullbacks():
    worst = 0.0
    for k in range(200):
        n = 2 + k % 7
        a = random_hermitian(n, k, 5)
        b = random_hermitian(n, k, 6)
        psi = random_complex_vector(n, k, 7)
        worst = np.max([worst, *kahler._pullback_residuals(a, b, psi).values()])  # NaN stays
    report_line(5, f"C^n suite's identities over 200 trials, residual {worst:.3e}",
                worst <= 1e-9)


def test_criterion_06_geometric_eigensolver():
    worst_gap, worst_disp, worst_time = 0.0, 0.0, 0.0
    ok = True
    for n, seeds in [*((n, 100) for n in range(2, 9)), (16, 20), (32, 20), (64, 20)]:
        for seed in range(seeds):
            a = random_hermitian(n, seed, 40, n)
            psi0 = random_complex_vector(n, seed, 41, n)
            direction = "ascent" if seed % 2 else "descent"
            start = time.monotonic()
            res = kahler.eigensolve_gradient_flow(a, psi0, direction=direction)
            worst_time = max(worst_time, time.monotonic() - start)
            oracle = eig_hermitian(a).eigenvalues
            target = oracle[-1] if direction == "ascent" else oracle[0]
            worst_gap = max(worst_gap, abs(res.eigenvalue - target))
            worst_disp = max(worst_disp, kahler.dispersion(a, res.eigenvector))
    ok = worst_gap <= 1e-8 and worst_disp <= 1e-8 and worst_time < 1.0
    report_line(6, f"760 eigensolves, oracle gap {worst_gap:.3e}, dispersion "
                   f"{worst_disp:.3e}, slowest {worst_time:.3f}s", ok)


def test_criterion_07_dispersion_identity():
    worst_var = 0.0
    for k in range(100):
        n = 2 + k % 7
        a = random_hermitian(n, k, 8)
        psi = random_complex_vector(n, k, 9)
        psi /= np.linalg.norm(psi)
        apsi = a @ psi
        direct = float(np.vdot(apsi, apsi).real) - float(np.vdot(psi, apsi).real) ** 2
        scale = frobenius(a) ** 2
        worst_var = max(worst_var, abs(kahler.dispersion(a, psi) - direct) / scale)

    worst_kappa = 0.0
    for k in range(100):
        n = 2 + k % 7
        a = random_hermitian(n, k, 10)
        psi = random_complex_vector(n, k, 11)
        psi /= np.linalg.norm(psi)
        g = kahler.gradient_field_e(a, psi)
        lhs = kahler.g_eval(g, g)
        scale = frobenius(a) ** 2
        worst_kappa = max(worst_kappa,
                          abs(lhs - CONVENTIONS.kappa * kahler.dispersion(a, psi)) / scale)

    ok = worst_var <= 1e-10 and worst_kappa <= 1e-9
    report_line(7, f"dispersion identity {worst_var:.3e}, metric-length law with "
                   f"kappa={CONVENTIONS.kappa:g} residual {worst_kappa:.3e}", ok)


def test_criterion_08_mu_relatedness_and_conservation():
    ok = True
    worst = 0.0
    rng = np.random.default_rng(12345)
    for k in range(100):
        n = 2 + k % 7
        h = random_hermitian(n, k, 12)
        psi0 = random_complex_vector(n, k, 13)
        t_final = float(rng.uniform(0.0, 10.0))
        spec = EvolutionSpec(hamiltonian=h, t_final=t_final, steps=8)
        rel = mu_relatedness_check(spec, psi0, seed=k, tol=1e-9)
        cons = conserved_report(spec, schrodinger_flow(spec, psi0), seed=k, tol=1e-9)
        vspec = EvolutionSpec(hamiltonian=h, t_final=t_final, steps=8,
                              picture="vonneumann")
        vcons = conserved_report(vspec, vonneumann_flow(vspec, kahler.momentum_map(psi0)),
                                 seed=k, tol=1e-9)
        for rep in (rel, cons, vcons):
            ok = ok and rep.passed
            worst = max(worst, *(c.max_residual for c in rep.checks))
    report_line(8, f"relatedness + conservation over 100 trials, residual {worst:.3e}",
                ok and worst <= 1e-9)


def test_criterion_09_rk4_convergence_order():
    h = random_hermitian(3, 77)
    psi0 = random_complex_vector(3, 78)
    errors = []
    for steps in (50, 100):
        spec = EvolutionSpec(hamiltonian=h, t_final=4.0, steps=steps)
        exact = schrodinger_flow(spec, psi0)
        approx = rk4_flow(spec, psi0)
        errors.append(np.max(np.abs(exact - approx)))
    order = float(np.log2(errors[0] / errors[1]))
    report_line(9, f"RK4 measured order {order:.3f}", abs(order - 4.0) <= 0.2)


def test_criterion_10_cli_contract(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("geomqm").joinpath("schema/report_schema.json").read_text())

    ok = True
    code = run(["verify", "--dim", "3", "--trials", "25", "--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    ok = ok and code == EXIT_OK and payload["passed"]

    code = run(["su2demo", "--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    ok = ok and code == EXIT_OK and payload["passed"]

    op = tmp_path / "a.json"
    op.write_bytes(serialize_matrix(random_hermitian(4, 99)))
    code = run(["eigen", "--operator", str(op), "--direction", "ascent", "--json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema)
    res = payload["results"]
    ok = ok and code == EXIT_OK and \
        abs(res["eigenvalue"] - res["oracle_eigenvalue"]) <= 1e-7

    ok = ok and run(["verify", "--dim", "0"]) == 2

    report_line(10, "CLI verify/su2demo/eigen end-to-end with schema validation", ok)
