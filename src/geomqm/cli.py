"""Command-line entry point.

Subcommands: verify, evolve, eigen, star, distributions, su2demo.
Exit codes: 0 success, 1 verification/convergence failure, 2 usage or
input error.  Every command is deterministic given --seed; JSON reports
conform to the schema shipped in geomqm/schema/report_schema.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import distributions as dist
from . import dual, dynamics, kahler
from .algebra import CONVENTIONS, verify_jordan_lie
from .kernel import (
    MatrixParseError,
    NumericalError,
    eig_hermitian,
    is_hermitian,
    parse_matrix,
    parse_vector,
    random_complex_vector,
)
from .report import VerificationReport

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage or input error; maps to exit code 2."""


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--tol", type=float, default=1e-9, help="identity tolerance (default 1e-9)")
    p.add_argument("--json", action="store_true", help="emit the JSON report instead of text")
    p.add_argument("--output", type=Path, default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomqm",
        description="Geometric formulation of finite-level quantum mechanics: "
                    "identity verification, evolution, eigensolving, star products, "
                    "distribution analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full identity-verification suites")
    p.add_argument("--dim", type=int, default=4, help="matrix dimension (default 4)")
    p.add_argument("--trials", type=int, default=100, help="random trials (default 100)")
    _add_common(p)

    p = sub.add_parser("evolve", help="evolve a state/observable/dual element")
    p.add_argument("--picture", choices=dynamics.PICTURES, default="schrodinger")
    p.add_argument("--hamiltonian", type=Path, required=True, help="matrix JSON file")
    p.add_argument("--initial", type=Path, required=True,
                   help="matrix JSON file (n x 1 for schrodinger)")
    p.add_argument("--t", type=float, default=1.0, help="final time (default 1)")
    p.add_argument("--steps", type=int, default=100, help="samples (default 100)")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--method", choices=dynamics.METHODS, default="exact")
    p.add_argument("--check-mu", action="store_true",
                   help="also verify momentum-map relatedness of the flows")
    p.add_argument("--csv", type=Path, default=None,
                   help="trajectory CSV path; columns: t, then the re/im parts of "
                        "each component in row-major order")
    _add_common(p)

    p = sub.add_parser("eigen", help="extremal eigenpair by the gradient flow of e_A")
    p.add_argument("--operator", type=Path, required=True, help="matrix JSON file")
    p.add_argument("--direction", choices=("ascent", "descent"), default="descent")
    p.add_argument("--step", type=float, default=None, help="default 0.1/||A||_F")
    p.add_argument("--max-iter", type=int, default=100_000)
    _add_common(p)

    p = sub.add_parser("star", help="star product of two observables at a dual point")
    p.add_argument("--a", type=Path, required=True)
    p.add_argument("--b", type=Path, required=True)
    p.add_argument("--xi", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("distributions", help="distribution ranks and orbit invariants at a point")
    p.add_argument("--point", type=Path, required=True)
    p.add_argument("--trials", type=int, default=20, help="involutivity trials (default 20)")
    _add_common(p)

    p = sub.add_parser("su2demo", help="golden coefficient tables of the 2-level system")
    _add_common(p)

    return parser


def _read(path: Path, parse=parse_matrix) -> np.ndarray:
    try:
        return parse(path.read_bytes())
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except MatrixParseError as exc:
        raise CliError(f"{path}: {exc}")


def _emit(args, payload: dict, text: str) -> None:
    out = json.dumps(payload, indent=2) if args.json else text
    if args.output:
        args.output.write_text(out + "\n")
    else:
        print(out)


def _payload(args, reports, results=None, trials=None) -> dict:
    return {
        "command": args.command,
        "seed": args.seed,
        "tol": args.tol,
        "trials": trials if trials is not None else getattr(args, "trials", 1),
        "conventions": CONVENTIONS.to_dict(),
        "reports": [r.to_dict() for r in reports],
        "results": results or {},
        "passed": all(r.passed for r in reports),
    }


def cmd_verify(args) -> int:
    if args.dim < 1:
        raise CliError(f"--dim must be >= 1, got {args.dim}")
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    n, trials, seed, tol = args.dim, args.trials, args.seed, args.tol
    reports = [
        verify_jordan_lie(n, trials, seed, tol),
        dual.verify_dual_geometry(n, trials, seed, tol),
        dist.verify_commutation(n, trials, seed, tol),
        *(dist.involutivity_evidence(kind, max(2, min(n, 4)), min(trials, 25), seed, tol)
          for kind in dist.KINDS),
        kahler.verify_pullbacks(n, trials, seed, tol),
    ]
    text = "\n\n".join(r.summary() for r in reports)
    _emit(args, _payload(args, reports), text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _write_trajectory_csv(path: Path, times, traj) -> None:
    # column_stack + tolist keeps Python floats, which csv writes as repr()
    flat = np.ascontiguousarray(traj, dtype=complex).reshape(len(times), -1)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{part}_{i}" for i in range(flat.shape[1])
                                 for part in ("re", "im")])
        writer.writerows(np.column_stack([times, flat.view(float)]).tolist())


def cmd_evolve(args) -> int:
    if args.check_mu and args.picture != "schrodinger":
        raise CliError("--check-mu requires --picture schrodinger")
    h = _read(args.hamiltonian)
    if not is_hermitian(h, 1e-8):
        raise CliError(f"{args.hamiltonian}: Hamiltonian is not Hermitian")
    if args.picture == "schrodinger":
        initial = _read(args.initial, parse_vector)
    else:
        initial = _read(args.initial)
        if args.picture == "vonneumann" and not dual.is_state(initial, 1e-8):
            print("warning: initial dual element is not a density matrix; "
                  "evolving anyway", file=sys.stderr)
    try:
        spec = dynamics.EvolutionSpec(hamiltonian=h, t_final=args.t, steps=args.steps,
                                      hbar=args.hbar, picture=args.picture,
                                      method=args.method)
    except ValueError as exc:
        raise CliError(str(exc))

    flow = dynamics.rk4_flow if args.method == "rk4" else dynamics.exact_flow
    traj = flow(spec, initial)

    reports = [dynamics.conserved_report(spec, traj, seed=args.seed, tol=args.tol)]
    if args.check_mu:
        reports.append(dynamics.mu_relatedness_check(spec, initial, seed=args.seed,
                                                     tol=args.tol))

    if args.csv:
        _write_trajectory_csv(args.csv, spec.times(), traj)

    results = {"picture": args.picture, "method": args.method,
               "t_final": args.t, "steps": args.steps, "hbar": args.hbar,
               "csv": str(args.csv) if args.csv else None}
    text = "\n\n".join(r.summary() for r in reports)
    _emit(args, _payload(args, reports, results, trials=args.steps + 1), text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_eigen(args) -> int:
    a = _read(args.operator)
    if not is_hermitian(a, 1e-8):
        raise CliError(f"{args.operator}: operator is not Hermitian")
    n = a.shape[0]
    psi0 = random_complex_vector(n, args.seed, 33)
    try:
        res = kahler.eigensolve_gradient_flow(
            a, psi0, step=args.step, tol=args.tol, max_iter=args.max_iter,
            direction=args.direction)
    except NumericalError as exc:
        print(f"eigensolve did not converge: {exc}", file=sys.stderr)
        return EXIT_FAIL

    oracle = eig_hermitian(a).eigenvalues
    reference = oracle[-1] if args.direction == "ascent" else oracle[0]
    disp = kahler.dispersion(a, res.eigenvector)

    rep = VerificationReport(title="gradient-flow eigensolve", seed=args.seed, trials=1,
                             tol=args.tol, conventions=CONVENTIONS.to_dict(),
                             details={"direction": args.direction,
                                      "iterations": res.iterations})
    rep.add("eigen_residual", res.residual)
    rep.add("oracle_agreement", abs(res.eigenvalue - reference),
            tol=max(args.tol, 1e-8) * max(1.0, abs(reference)))
    rep.add("dispersion_at_convergence", disp, tol=max(args.tol, 1e-8))
    results = {
        "eigenvalue": res.eigenvalue,
        "oracle_eigenvalue": float(reference),
        "iterations": res.iterations,
        "residual": res.residual,
        "dispersion": disp,
        "eigenvector_re": res.eigenvector.real.tolist(),
        "eigenvector_im": res.eigenvector.imag.tolist(),
    }
    text = (rep.summary()
            + f"\n  eigenvalue {float(res.eigenvalue)!r} (oracle {float(reference)!r}), "
              f"{res.iterations} iterations")
    _emit(args, _payload(args, [rep], results, trials=1), text)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_star(args) -> int:
    a, b, xi = (_read(p) for p in (args.a, args.b, args.xi))
    for path, m in ((args.a, a), (args.b, b), (args.xi, xi)):
        if not is_hermitian(m, 1e-8):
            raise CliError(f"{path}: matrix is not Hermitian")
    value = dual.star_eval(a, b, xi)
    jordan_part = dual.r_eval(a, b, xi) / 2
    lie_part = dual.lambda_eval(a, b, xi) / 2
    rep = VerificationReport(title="star product decomposition", seed=args.seed, trials=1,
                             tol=args.tol, conventions=CONVENTIONS.to_dict())
    rep.add("star_equals_r_half_plus_i_lambda_half",
            abs(value - (jordan_part + 1j * lie_part)))
    results = {"star_re": value.real, "star_im": value.imag,
               "jordan_part": jordan_part, "lie_part": lie_part}
    text = (rep.summary()
            + f"\n  (A*B)(xi) = {value.real!r} + {value.imag!r} i"
            + f"\n  Jordan (real) part {jordan_part!r}, Lie (imaginary) part {lie_part!r}")
    _emit(args, _payload(args, [rep], results, trials=1), text)
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_distributions(args) -> int:
    xi = _read(args.point)
    if not is_hermitian(xi, 1e-8):
        raise CliError(f"{args.point}: matrix is not Hermitian")
    n = xi.shape[0]
    ranks = {kind: dist.distribution_basis(xi, kind).rank for kind in dist.KINDS}
    inv = dist.orbit_invariants(xi)
    reports = [dist.involutivity_evidence(kind, n, args.trials, args.seed, args.tol)
               for kind in dist.KINDS] if n >= 2 else []
    results = {
        "ranks": ranks,
        "spectrum": inv["spectrum"].tolist(),
        "rank": inv["rank"],
        "signature": inv["signature"],
    }
    lines = [f"distribution ranks at the given point: {ranks}",
             f"unitary-orbit label (spectrum): {np.round(inv['spectrum'], 12).tolist()}",
             f"GL-orbit label: rank {inv['rank']}, signature {inv['signature']}"]
    text = "\n".join(lines) + ("\n\n" + "\n\n".join(r.summary() for r in reports)
                               if reports else "")
    _emit(args, _payload(args, reports, results, trials=args.trials), text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_su2demo(args) -> int:
    tables = dual.su2_golden_tables()
    golden = {
        ("z", "y"): {"x": -1j},
        ("x", "y"): {"z": 1j},
        ("z", "x"): {"y": 1j},
    }
    rep = VerificationReport(title="2-level golden star values", seed=args.seed, trials=1,
                             tol=1e-12, conventions=CONVENTIONS.to_dict())
    for (na, nb), expected in golden.items():
        coeffs = tables.star_coefficients(na, nb)
        residual = max(abs(coeffs[name] - expected.get(name, 0.0)) for name in dual.SU2_NAMES)
        rep.add(f"star_{na}_{nb}", residual)

    lam_lines = []
    for na in dual.SU2_NAMES:
        for nb in dual.SU2_NAMES:
            coeffs = tables.lambda_coefficients(na, nb)
            terms = {k: v.real for k, v in coeffs.items() if abs(v) > 1e-12}
            if terms:
                lam_lines.append(f"  Lambda(d{na}, d{nb}) = "
                                 + " + ".join(f"{v:g}*{k}" for k, v in terms.items()))
    star_lines = []
    for na in dual.SU2_NAMES:
        for nb in dual.SU2_NAMES:
            coeffs = tables.star_coefficients(na, nb)
            terms = {k: v for k, v in coeffs.items() if abs(v) > 1e-12}
            star_lines.append(f"  {na} * {nb} = "
                              + (" + ".join(f"({v.real:g}{v.imag:+g}i)*{k}"
                                            for k, v in terms.items()) or "0"))
    results = {"tables": tables.to_json_dict()}
    text = "\n".join(["Poisson coefficient table:"] + lam_lines
                     + ["star table:"] + star_lines + ["", rep.summary()])
    _emit(args, _payload(args, [rep], results, trials=1), text)
    return EXIT_OK if rep.passed else EXIT_FAIL


COMMANDS = {
    "verify": cmd_verify,
    "evolve": cmd_evolve,
    "eigen": cmd_eigen,
    "star": cmd_star,
    "distributions": cmd_distributions,
    "su2demo": cmd_su2demo,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: geomqm {args.command} --help for options", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
