"""Command-line entry point.

Subcommands: verify, evolve, eigen, star, distributions, su2demo.
Exit codes: 0 success, 1 verification/convergence failure, 2 usage or
input error.  Every command is deterministic given --seed (star and su2demo
draw no random number and take no --seed); JSON reports conform to the schema
shipped in geomqm/schema/report_schema.json.

Each ``cmd_*`` reads and checks its inputs, each observable once with a path in its
error, and hands them to the library's private cores, which build every report and
do not run that check again; it returns an ``Outcome``.  ``run`` alone renders it (text,
or JSON with ``--json``), writes it through ``_write`` and decides the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from . import algebra, dual, dynamics, kahler
from .kernel import (DimensionError, MatrixParseError, NumericalError, TAU_HERMITIAN,
                     parse_matrix, parse_vector, require_observable, require_same_dim)
from .report import CONVENTIONS, VerificationReport, _strict_json, verify_row

# the declared suite rows that verify runs, in report order
VERIFY_ROWS = (algebra.JORDAN_LIE, dual.DUAL_GEOMETRY, dist.COMMUTATION, dist.INVOLUTIVITY,
               kahler.PULLBACKS)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage or input error; maps to exit code 2."""


class Outcome(NamedTuple):
    """What a command hands to ``run``: its reports and results, and the text around them."""
    reports: list[VerificationReport]
    results: dict
    trials: int = 1
    head: str = ""  # text before the report summaries, a blank line apart
    tail: str = ""  # text right after the last summary


def _count(minimum: int):
    """argparse ``type=``: an int of at least ``minimum``."""
    bound = "> 0" if minimum == 1 else f">= {minimum}"

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" message names it
    return parse


def _tolerance(text: str) -> float:
    """argparse ``type=``: a finite float >= 0."""
    value = float(text)
    if not 0 <= value < np.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


_tolerance.__name__ = "float"


def _add_common(p, tol_help="identity tolerance", **fixed):
    """--seed, --tol, --json and --output.

    A command that draws no random number or checks at its own tolerance
    passes ``seed=`` or ``tol=``: that option is not registered, and the
    fixed value is what its report and the JSON payload record.
    """
    p.set_defaults(**fixed)
    if "seed" not in fixed:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    if "tol" not in fixed:
        p.add_argument("--tol", type=_tolerance, default=1e-9,
                       help=f"{tol_help}, finite and >= 0 (default 1e-9)")
    p.add_argument("--json", action="store_true", help="emit the JSON report instead of text")
    p.add_argument("--output", type=Path, default=None, help="write the report to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each parse_args call returns a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="geomqm",
        description="Geometric formulation of finite-level quantum mechanics: "
                    "identity verification, evolution, eigensolving, star products, "
                    "distribution analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full identity-verification suites")
    p.add_argument("--dim", type=_count(1), default=4, help="matrix dimension (default 4)")
    p.add_argument("--trials", type=_count(1), default=100, help="random trials (default 100)")
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
    p.add_argument("--max-iter", type=_count(0), default=100_000)
    _add_common(p, tol_help="stop when ||A psi - e_A psi|| <= tol * ||A||_F")

    p = sub.add_parser("star", help="star product of two observables at a dual point")
    p.add_argument("--a", type=Path, required=True)
    p.add_argument("--b", type=Path, required=True)
    p.add_argument("--xi", type=Path, required=True)
    _add_common(p, seed=0)

    p = sub.add_parser("distributions", help="distribution ranks and orbit invariants at a point")
    p.add_argument("--point", type=Path, required=True)
    p.add_argument("--trials", type=_count(1), default=20, help="involutivity trials (default 20)")
    _add_common(p)

    p = sub.add_parser("su2demo", help="golden coefficient tables of the 2-level system")
    _add_common(p, seed=0, tol=1e-12)

    return parser


def _read(path: Path, vector: bool = False) -> np.ndarray:
    try:  # the parsers are looked up at call time, so a patched module attribute is seen
        return (parse_vector if vector else parse_matrix)(path.read_bytes())
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except OSError as exc:  # a directory, no read permission
        raise CliError(f"cannot read {path}: {exc.strerror or exc}")
    except MatrixParseError as exc:
        raise CliError(f"{path}: {exc}")


def _read_hermitian(path: Path, what: str) -> np.ndarray:
    m = _read(path)
    try:
        return require_observable(m, what)
    except ValueError:
        raise CliError(f"{path}: {what} is not Hermitian")


def _write(path: Path | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout without one; an unwritable path is a CliError."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with path.open("w", newline="") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, no write permission
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_verify(args) -> Outcome:
    reports = [report for row in VERIFY_ROWS
               for report in verify_row(row, args.dim, args.trials, args.seed, args.tol)]
    return Outcome(reports, {}, args.trials)


def _trajectory_csv(times, traj) -> str:
    # column_stack + tolist gives Python floats, written as repr() with CSV's \r\n rows
    flat = np.ascontiguousarray(traj, dtype=complex).reshape(len(times), -1)
    header = ",".join(["t"] + [f"{part}_{i}" for i in range(flat.shape[1])
                               for part in ("re", "im")])
    rows = np.column_stack([times, flat.view(float)]).tolist()
    return "\r\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\r\n"


def cmd_evolve(args) -> Outcome:
    if args.check_mu and args.picture != "schrodinger":
        raise CliError("--check-mu requires --picture schrodinger")
    h = _read_hermitian(args.hamiltonian, "Hamiltonian")
    if args.picture == "schrodinger":
        initial = _read(args.initial, vector=True)
        if not initial.any():
            raise CliError(f"{args.initial}: initial state is zero")
    else:
        initial = require_same_dim(h, _read_hermitian(args.initial, "initial matrix"))[1]
        if args.picture == "vonneumann" and not dual.is_state(initial, TAU_HERMITIAN):
            print("warning: initial dual element is not a density matrix; "
                  "evolving anyway", file=sys.stderr)
    try:  # H is checked above
        spec = dynamics._CheckedSpec(hamiltonian=h, t_final=args.t, steps=args.steps,
                                     hbar=args.hbar, picture=args.picture)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.picture == "schrodinger":
        initial = dynamics._initial(spec, initial, "schrodinger")

    traj = dynamics.METHODS[args.method](spec, initial)

    reports = [dynamics.conserved_report(spec, traj, seed=args.seed, tol=args.tol)]
    if args.check_mu:
        reports.append(dynamics.mu_relatedness_check(spec, initial, seed=args.seed,
                                                     tol=args.tol))

    if args.csv:
        _write(args.csv, _trajectory_csv(spec.times(), traj))

    results = {"picture": args.picture, "method": args.method,
               "t_final": args.t, "steps": args.steps, "hbar": args.hbar,
               "csv": str(args.csv) if args.csv else None}
    return Outcome(reports, results, args.steps + 1)


def cmd_eigen(args) -> Outcome:
    a = _read_hermitian(args.operator, "operator")
    rep, res = kahler._eigen_report(a, args.seed, args.tol, args.max_iter, args.direction)
    tail = "\n  eigenvalue {eigenvalue!r} (oracle {oracle_eigenvalue!r}), {iterations} iterations"
    return Outcome([rep], res, tail=tail.format(**res))


def cmd_star(args) -> Outcome:
    a, b, xi = require_same_dim(*(_read_hermitian(p, "matrix") for p in (args.a, args.b, args.xi)))
    rep, res = dual._star_report(a, b, xi, args.tol)
    tail = ("\n  (A*B)(xi) = {star_re!r} + {star_im!r} i\n  Jordan (real) part {jordan_part!r}, "
            "Lie (imaginary) part {lie_part!r}")
    return Outcome([rep], res, tail=tail.format(**res))


def cmd_distributions(args) -> Outcome:
    xi = _read_hermitian(args.point, "matrix")
    n = xi.shape[0]
    inv = dist._orbit_invariants(xi)
    ranks = inv["ranks"]
    reports = verify_row(dist.INVOLUTIVITY, n, args.trials, args.seed, args.tol) if n >= 2 else []
    results = {"ranks": ranks, "spectrum": inv["spectrum"].tolist(), "rank": inv["rank"],
               "signature": inv["signature"]}
    with np.errstate(over="ignore"):  # w 1e12 overflows only where rounding would not change w
        shown = np.round(inv["spectrum"], 12)
    head = (f"distribution ranks at the given point: {ranks}\n"
            f"unitary-orbit label (spectrum): "
            f"{np.where(np.isfinite(shown), shown, inv['spectrum']).tolist()}\n"
            f"GL-orbit label: rank {inv['rank']}, signature {inv['signature']}")
    return Outcome(reports, results, args.trials, head=head)


def _terms(m, fmt: str) -> str:
    """The nonzero su(2) coefficients of m as ``fmt(value)*name``, joined by `` + ``."""
    return " + ".join(f"{fmt.format(v)}*{k}" for k, v in dual.su2_coefficients(m).items()
                      if abs(v) > 1e-12)


def cmd_su2demo(args) -> Outcome:
    rep, tables = dual.su2_report(args.tol)
    lam_lines = [f"  Lambda(d{na}, d{nb}) = {terms}" for (na, nb), m in tables["lambda"].items()
                 if (terms := _terms(m, "{0.real:g}"))]
    star_lines = [f"  {na} * {nb} = " + (_terms(m, "({0.real:g}{0.imag:+g}i)") or "0")
                  for (na, nb), m in tables["star"].items()]
    head = "\n".join(["Poisson coefficient table:", *lam_lines, "star table:", *star_lines])
    return Outcome([rep], {"tables": dual.su2_tables_json(tables)}, head=head)


COMMANDS = {"verify": cmd_verify, "evolve": cmd_evolve, "eigen": cmd_eigen, "star": cmd_star,
            "distributions": cmd_distributions, "su2demo": cmd_su2demo}


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        out = COMMANDS[args.command](args)
        passed = all(r.passed for r in out.reports)
        if args.json:
            text = json.dumps({"command": args.command, "seed": args.seed, "tol": args.tol,
                               "trials": out.trials, "conventions": CONVENTIONS.to_dict(),
                               "reports": [r.to_dict() for r in out.reports],
                               "results": _strict_json(out.results), "passed": passed},
                              indent=2, allow_nan=False)
        else:
            text = "\n\n".join(filter(None, [out.head, *(r.summary() for r in out.reports)]))
            text += out.tail
        _write(args.output, text + "\n")
    except (CliError, DimensionError) as exc:  # DimensionError: input files of different n
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: geomqm {args.command} --help for options", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:  # only the eigensolver raises it
        print(f"eigensolve did not converge: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK if passed else EXIT_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
