import json
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from geomqm import cli, dual, dynamics, kahler, kernel
from geomqm.algebra import CONVENTIONS
from geomqm.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run
from geomqm.dynamics import EvolutionSpec, heisenberg_flow
from geomqm.kernel import make_rng, random_complex_vector, random_hermitian, serialize_matrix
from geomqm.report import replay, verify_row
from conftest import PAULI_X, PAULI_Y, PAULI_Z, SUITE_BINDINGS, SUITE_ROWS, plant_everywhere


@pytest.fixture(scope="module")
def schema():
    text = resources.files("geomqm").joinpath("schema/report_schema.json").read_text()
    return json.loads(text)


def write_matrix(path, m):
    path.write_bytes(serialize_matrix(m))
    return str(path)


def run_json(capsys, *argv):
    code = run([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExitCodes:
    def test_verify_ok(self, capsys):
        assert run(["verify", "--dim", "2", "--trials", "5"]) == EXIT_OK

    def test_verify_bad_dim(self, capsys):
        assert run(["verify", "--dim", "0"]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_file(self, capsys, tmp_path):
        code = run(["eigen", "--operator", str(tmp_path / "nope.json")])
        assert code == EXIT_USAGE
        assert "no such file" in capsys.readouterr().err

    def test_non_hermitian_operator(self, capsys, tmp_path):
        m = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
        path = write_matrix(tmp_path / "m.json", m)
        assert run(["eigen", "--operator", path]) == EXIT_USAGE

    def test_eigen_non_convergence(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "a.json", random_hermitian(4, 1))
        code = run(["eigen", "--operator", path, "--max-iter", "2", "--tol", "1e-14"])
        assert code == EXIT_FAIL
        assert "did not converge" in capsys.readouterr().err

    def test_eigen_parses_through_module_attribute(self, capsys, monkeypatch, tmp_path):
        # a parser bound at definition time hides the parse from anything patching the module
        calls = []
        parse = cli.parse_matrix
        monkeypatch.setattr(cli, "parse_matrix", lambda text: calls.append(text) or parse(text))
        path = write_matrix(tmp_path / "a.json", PAULI_Z)
        assert run(["eigen", "--operator", path]) == EXIT_OK
        assert len(calls) == 1

    def test_eigen_stall(self, capsys, tmp_path):
        # the residual floor ~eps * ||A|| lies above tol * ||A||_F
        path = write_matrix(tmp_path / "a.json", random_hermitian(4, 3) * 1e8)
        code = run(["eigen", "--operator", path, "--tol", "1e-20"])
        assert code == EXIT_FAIL
        assert "eigensolve did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("direction", ["ascent", "descent"])
    def test_eigen_scale_free(self, capsys, tmp_path, direction):
        # the stop test and the checks are relative to ||A||_F: the n = 32 CI operator scaled
        # by 2^27 once stalled both ways; now every scale takes the same iterations
        a = random_hermitian(32, 32)
        runs = []
        for scale in (1.0, 2.0**27, 2.0**-27):
            path = write_matrix(tmp_path / "a.json", scale * a)
            code, payload = run_json(capsys, "eigen", "--operator", path, "--direction", direction)
            assert code == EXIT_OK
            runs.append(payload)
        assert len({p["results"]["iterations"] for p in runs}) == 1
        assert runs[0]["reports"] == runs[1]["reports"] == runs[2]["reports"]

    def test_malformed_matrix(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "data": [[')
        assert run(["eigen", "--operator", str(path)]) == EXIT_USAGE

    @pytest.mark.parametrize("command, option, value", [
        ("verify", "--dim", "-2"),
        ("verify", "--trials", "0"),
        ("distributions", "--trials", "0"),
        ("eigen", "--max-iter", "-5"),
        ("eigen", "--max-iter", "1.5"),
        ("evolve", "--hbar", "nan"),
        ("evolve", "--hbar", "inf"),
        ("verify", "--tol", "nan"),  # used to exit 1 and write the non-JSON token NaN
        ("verify", "--tol", "-1e-9"),
        ("eigen", "--tol", "inf"),
        ("star", "--tol", "inf"),
        ("distributions", "--tol", "abc"),
    ])
    def test_bad_numeric_option(self, capsys, tmp_path, command, option, value):
        path = write_matrix(tmp_path / "m.json", PAULI_Z)
        files = {"verify": [], "distributions": ["--point", path], "eigen": ["--operator", path],
                 "evolve": ["--hamiltonian", path, "--initial", path, "--picture", "heisenberg"],
                 "star": ["--a", path, "--b", path, "--xi", path]}
        assert run([command, *files[command], option, value]) == EXIT_USAGE
        assert option.lstrip("-") in capsys.readouterr().err

    def test_zero_tol_allowed(self, capsys):
        _, payload = run_json(capsys, "verify", "--dim", "2", "--trials", "2", "--tol", "0")
        assert payload["tol"] == 0.0

    def test_zero_max_iter_allowed(self, capsys, tmp_path):
        # every vector is an eigenvector of the identity, so no iteration is needed
        path = write_matrix(tmp_path / "i.json", np.eye(2, dtype=complex))
        assert run(["eigen", "--operator", path, "--max-iter", "0"]) == EXIT_OK

    def test_unknown_evolve_method(self, capsys, tmp_path):
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        psi = write_matrix(tmp_path / "psi.json", np.array([1.0, 0.0], dtype=complex))
        code = run(["evolve", "--hamiltonian", h, "--initial", psi, "--method", "euler"])
        assert code == EXIT_USAGE

    def test_unwritable_csv(self, capsys, tmp_path):
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        psi = write_matrix(tmp_path / "psi.json", np.array([1.0, 0.0], dtype=complex))
        csv_path = tmp_path / "missing" / "t.csv"
        code = run(["evolve", "--hamiltonian", h, "--initial", psi, "--csv", str(csv_path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"error: cannot write {csv_path}" in err and "Traceback" not in err

    def test_output_is_a_directory(self, capsys, tmp_path):
        code = run(["su2demo", "--output", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert f"error: cannot write {tmp_path}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestDimensionMismatch:
    # input files of different dimensions once raised an uncaught DimensionError (or, for rk4,
    # numpy's ValueError) after the files were read; they exit 2 before any report is made, and
    # before the "evolving anyway" warning on a von Neumann initial that is not a state
    FILES = {"h4": random_hermitian(4, 1), "m3": random_hermitian(3, 2),
             "psi3": random_complex_vector(3, 3), "rho3": np.eye(3) / 3}

    @pytest.mark.parametrize("argv", [
        ["evolve", "--hamiltonian", "h4", "--initial", "psi3"],
        ["evolve", "--picture", "heisenberg", "--hamiltonian", "h4", "--initial", "m3"],
        ["evolve", "--picture", "vonneumann", "--hamiltonian", "h4", "--initial", "rho3"],
        ["evolve", "--picture", "vonneumann", "--hamiltonian", "h4", "--initial", "m3"],
        ["evolve", "--method", "rk4", "--hamiltonian", "h4", "--initial", "psi3"],
        ["star", "--a", "h4", "--b", "m3", "--xi", "h4"],
    ], ids=["schrodinger", "heisenberg", "vonneumann", "vonneumann-non-state", "rk4", "star"])
    def test_exits_2_before_any_report(self, capsys, tmp_path, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(dynamics, "conserved_report", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(dual, "_star_report", lambda *a, **k: calls.append(a))
        argv = [write_matrix(tmp_path / f"{arg}.json", self.FILES[arg]) if arg in self.FILES
                else arg for arg in argv]
        code = run(argv)
        out, err = capsys.readouterr()
        assert (code, out, calls) == (EXIT_USAGE, "", [])
        assert err.startswith("error: ") and "dim" in err.splitlines()[0]


class TestJsonReports:
    def test_verify_schema(self, capsys, schema):
        code, payload = run_json(capsys, "verify", "--dim", "2", "--trials", "5")
        assert code == EXIT_OK
        jsonschema.validate(payload, schema)
        assert payload["passed"] is True

    def test_eigen_schema_and_oracle(self, capsys, schema, tmp_path):
        path = write_matrix(tmp_path / "a.json", random_hermitian(3, 2))
        code, payload = run_json(capsys, "eigen", "--operator", path)
        assert code == EXIT_OK
        jsonschema.validate(payload, schema)
        res = payload["results"]
        assert abs(res["eigenvalue"] - res["oracle_eigenvalue"]) <= 1e-7

    def test_eigen_residual_history(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "a.json", random_hermitian(128, 4))
        code, payload = run_json(capsys, "eigen", "--operator", path)
        assert code == EXIT_OK
        res = payload["results"]
        assert res["iterations"] >= 64  # more residuals than the history keeps
        assert len(res["residual_history"]) == 64
        assert res["residual_history"][-1] == res["residual"]

    def test_star_schema_and_value(self, capsys, schema, tmp_path):
        pa = write_matrix(tmp_path / "a.json", PAULI_Z)
        pb = write_matrix(tmp_path / "b.json", PAULI_X)
        px = write_matrix(tmp_path / "xi.json", PAULI_X)
        code, payload = run_json(capsys, "star", "--a", pa, "--b", pb, "--xi", px)
        assert code == EXIT_OK
        jsonschema.validate(payload, schema)
        # Z * X at xi = X: Jordan part vanishes, star = i y-hat(X) = 0 + 0i
        assert payload["results"]["jordan_part"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e3, 1e-8])
    def test_star_residual_is_relative(self, capsys, tmp_path, scale):
        # the residual was absolute: 5.3e-7 at this scale 1e3 (exit 1), 4.6e-40 at 1e-8
        pa, pb, px = (write_matrix(tmp_path / f"{name}.json", scale * random_hermitian(6, key))
                      for name, key in (("a", 60), ("b", 61), ("xi", 62)))
        code, payload = run_json(capsys, "star", "--a", pa, "--b", pb, "--xi", px)
        (check,) = payload["reports"][0]["checks"]
        assert code == EXIT_OK
        assert 0 < check["max_residual"] <= 1e-14

    def test_distributions_schema(self, capsys, schema, tmp_path):
        path = write_matrix(tmp_path / "xi.json", np.diag([1.0, -0.5]).astype(complex))
        code, payload = run_json(capsys, "distributions", "--point", path,
                                 "--trials", "5")
        assert code == EXIT_OK
        jsonschema.validate(payload, schema)
        assert payload["results"]["ranks"] == {"Lambda": 2, "R": 4, "Zero": 2, "One": 4}

    @pytest.mark.parametrize("command", ["verify", "distributions"])
    def test_every_report_records_conventions(self, capsys, tmp_path, command):
        path = write_matrix(tmp_path / "xi.json", np.diag([1.0, -1.0, 2.0]).astype(complex))
        argv = {"verify": ["verify", "--dim", "2", "--trials", "3"],
                "distributions": ["distributions", "--point", path, "--trials", "3"]}[command]
        _, payload = run_json(capsys, *argv)
        assert payload["reports"]
        for report in payload["reports"]:
            assert report["conventions"] == CONVENTIONS.to_dict(), report["title"]

    def test_su2demo_schema(self, capsys, schema):
        code, payload = run_json(capsys, "su2demo")
        assert code == EXIT_OK
        jsonschema.validate(payload, schema)
        assert all(c["max_residual"] == 0.0
                   for r in payload["reports"] for c in r["checks"])

    def test_output_file(self, capsys, schema, tmp_path):
        out = tmp_path / "report.json"
        code = run(["su2demo", "--json", "--output", str(out)])
        assert code == EXIT_OK
        jsonschema.validate(json.loads(out.read_text()), schema)


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def scaled_argv(tmp_path, command, k):
    """argv of ``command`` on input scaled by 2^k; verify and su2demo take no matrix."""
    s = 2.0**k
    write = {name: write_matrix(tmp_path / f"{name}.json", m) for name, m in {
        "h": s * random_hermitian(4, 1), "psi": random_complex_vector(4, 2),
        "op": s * random_hermitian(32, 0), "point": s * random_hermitian(4, 5),
        **{name: s * random_hermitian(3, key) for name, key in (("a", 60), ("b", 61), ("xi", 62))},
    }.items()}.get
    return {"evolve": ["evolve", "--hamiltonian", write("h"), "--initial", write("psi"),
                       "--t", repr(5 * 2.0**-k), "--check-mu"],
            "eigen": ["eigen", "--operator", write("op")],
            "star": ["star", "--a", write("a"), "--b", write("b"), "--xi", write("xi")],
            "distributions": ["distributions", "--point", write("point"), "--trials", "3"],
            "verify": ["verify", "--dim", "2", "--trials", "3"],
            "su2demo": ["su2demo"]}[command]


@pytest.mark.parametrize("k", [-600, 600])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_json_output_is_strict_at_extreme_scales(capsys, schema, tmp_path, command, k):
    # eigen's dispersion was written as Infinity at 2^600, and star's value as NaN (exit 1)
    code = run([*scaled_argv(tmp_path, command, k), "--json"])
    payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    jsonschema.validate(payload, schema)
    assert code == EXIT_OK and payload["passed"] is True


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [2, 4])
def test_star_command_and_suite_share_one_residual(capsys, tmp_path, n, seed):
    # star --json at the suite's worst star_decomposition trial gives its max_residual exactly
    (check,) = [c for c in verify_row(dual.DUAL_GEOMETRY, n, 100, seed, 1e-9)[0].checks
                if c.name == "star_decomposition"]
    rows = replay(dual.DUAL_GEOMETRY, n, seed, check.worst_trial)
    argv = ["star"]
    for name in ("a", "b", "xi"):
        argv += [f"--{name}", write_matrix(tmp_path / f"{name}.json", rows[name][0])]
    code, payload = run_json(capsys, *argv)
    (star,) = payload["reports"][0]["checks"]
    assert code == EXIT_OK and check.max_residual > 0
    assert star["max_residual"] == check.max_residual


class TestEvolve:
    def test_csv_norm_constant(self, capsys, tmp_path):
        h = write_matrix(tmp_path / "h.json", random_hermitian(2, 3))
        psi = write_matrix(tmp_path / "psi.json",
                           np.array([1.0, 1.0j]) / np.sqrt(2))
        csv_path = tmp_path / "traj.csv"
        code = run(["evolve", "--hamiltonian", h, "--initial", psi,
                    "--t", "5", "--steps", "50", "--csv", str(csv_path)])
        assert code == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,re_0,im_0,re_1,im_1"
        assert len(lines) == 52
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            norm = np.hypot(vals[1], vals[3]) ** 2 + np.hypot(vals[2], vals[4]) ** 2
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_check_mu(self, capsys, tmp_path):
        h = write_matrix(tmp_path / "h.json", random_hermitian(3, 4))
        psi = write_matrix(tmp_path / "psi.json",
                           np.array([1.0, 0.0, 0.0], dtype=complex))
        code = run(["evolve", "--hamiltonian", h, "--initial", psi,
                    "--check-mu", "--steps", "10"])
        assert code == EXIT_OK

    def test_check_mu_wrong_picture(self, capsys, tmp_path):
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        a = write_matrix(tmp_path / "a.json", PAULI_X)
        code = run(["evolve", "--hamiltonian", h, "--initial", a,
                    "--picture", "heisenberg", "--check-mu"])
        assert code == EXIT_USAGE

    def test_check_mu_wrong_picture_does_no_work(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "conserved_report", lambda *a, **k: calls.append(a))
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        a = write_matrix(tmp_path / "a.json", PAULI_X)
        code = run(["evolve", "--hamiltonian", h, "--initial", a,
                    "--picture", "heisenberg", "--check-mu"])
        assert code == EXIT_USAGE
        assert calls == []

    @pytest.mark.parametrize("psi0", [[0.0, 0.0], [-0.0, 0.0]])
    def test_zero_schrodinger_state_does_no_work(self, capsys, tmp_path, monkeypatch, psi0):
        calls = []
        monkeypatch.setattr(dynamics, "conserved_report", lambda *a, **k: calls.append(a))
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        z = write_matrix(tmp_path / "z.json", np.array(psi0, dtype=complex))
        code = run(["evolve", "--picture", "schrodinger", "--hamiltonian", h, "--initial", z])
        assert code == EXIT_USAGE
        assert calls == []
        assert "zero" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-13, 1e-200])
    def test_tiny_schrodinger_state_evolves(self, capsys, tmp_path, scale):
        # a nonzero state of any scale is evolved; 1e-13 once exited 2 as "zero to within 1e-12"
        h = write_matrix(tmp_path / "h.json", random_hermitian(3, 4))
        psi = write_matrix(tmp_path / "psi.json", scale * random_complex_vector(3, 5))
        code, payload = run_json(capsys, "evolve", "--hamiltonian", h, "--initial", psi,
                                 "--check-mu", "--steps", "10")
        assert code == EXIT_OK
        assert [len(r["checks"]) for r in payload["reports"]] == [4, 2]

    @pytest.mark.parametrize("picture", ["heisenberg", "vonneumann"])
    def test_non_hermitian_initial_does_no_work(self, capsys, tmp_path, monkeypatch, picture):
        # evolving [[1, 2], [0, 1]] used to exit 0 with passing reports
        calls = []
        monkeypatch.setattr(dynamics, "conserved_report", lambda *a, **k: calls.append(a))
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        m = write_matrix(tmp_path / "m.json", np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))
        code = run(["evolve", "--picture", picture, "--hamiltonian", h, "--initial", m])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert calls == []
        assert "is not Hermitian" in err and "density matrix" not in err

    @pytest.mark.parametrize("picture", ["heisenberg", "vonneumann"])
    def test_small_non_hermitian_initial_rejected(self, capsys, tmp_path, picture):
        # the Hermitian test is relative to ||M||_F: it once compared with max(1, ||M||_F)
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        m = write_matrix(tmp_path / "m.json",
                         1e-10 * np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))
        code = run(["evolve", "--picture", picture, "--hamiltonian", h, "--initial", m])
        assert code == EXIT_USAGE
        assert "is not Hermitian" in capsys.readouterr().err

    def test_vonneumann_non_state_warns(self, capsys, tmp_path):
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        xi = write_matrix(tmp_path / "xi.json", 2 * PAULI_X)
        code = run(["evolve", "--hamiltonian", h, "--initial", xi,
                    "--picture", "vonneumann", "--steps", "5"])
        assert code == EXIT_OK
        assert "not a density matrix" in capsys.readouterr().err

    def test_csv_matches_repr_reference(self, capsys, tmp_path):
        h0, a0 = random_hermitian(3, 6), random_hermitian(3, 7)
        a0[0, 0] = 0.0
        a0[1, 2], a0[2, 1] = 1e-300 + 2e-300j, 1e-300 - 2e-300j
        h = write_matrix(tmp_path / "h.json", h0)
        a = write_matrix(tmp_path / "a.json", a0)
        csv_path = tmp_path / "traj.csv"
        code = run(["evolve", "--picture", "heisenberg", "--hamiltonian", h, "--initial", a,
                    "--t", "0.5", "--steps", "4", "--csv", str(csv_path)])
        assert code == EXIT_OK
        spec = EvolutionSpec(hamiltonian=h0, t_final=0.5, steps=4, picture="heisenberg")
        rows = [",".join(["t"] + [f"{p}_{i}" for i in range(9) for p in ("re", "im")])]
        for t, sample in zip(spec.times(), heisenberg_flow(spec, a0)):
            rows.append(",".join([repr(float(t))] + [repr(float(getattr(z, p)))
                                                     for z in sample.reshape(-1)
                                                     for p in ("real", "imag")]))
        assert csv_path.read_bytes() == ("\r\n".join(rows) + "\r\n").encode()

    def test_rk4_method(self, capsys, tmp_path):
        h = write_matrix(tmp_path / "h.json", random_hermitian(2, 5))
        psi = write_matrix(tmp_path / "psi.json", np.array([1.0, 0.0], dtype=complex))
        code = run(["evolve", "--hamiltonian", h, "--initial", psi,
                    "--method", "rk4", "--t", "1", "--steps", "200"])
        assert code == EXIT_OK


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_verify_grid_checks_involutivity_at_full_size(capsys, dim):
    code, payload = run_json(capsys, "verify", "--dim", str(dim), "--trials", "100")
    assert code == EXIT_OK and payload["passed"]
    involutivity = [r for r in payload["reports"] if r["title"].startswith("involutivity")]
    assert len(involutivity) == 4
    for r in involutivity:
        assert r["trials"] == 100 and r["details"]["dim"] == dim


class TestDeterminism:
    def test_verify_repeatable(self, capsys):
        _, p1 = run_json(capsys, "verify", "--dim", "3", "--trials", "10",
                         "--seed", "7")
        _, p2 = run_json(capsys, "verify", "--dim", "3", "--trials", "10",
                         "--seed", "7")
        assert p1 == p2

    def test_seed_changes_residuals(self, capsys):
        _, p1 = run_json(capsys, "verify", "--dim", "3", "--trials", "10",
                         "--seed", "1")
        _, p2 = run_json(capsys, "verify", "--dim", "3", "--trials", "10",
                         "--seed", "2")
        assert p1 != p2

    def test_threads_option_removed(self, capsys):
        assert run(["verify", "--dim", "2", "--trials", "2", "--threads", "2"]) == EXIT_USAGE

    def test_step_option_removed(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "a.json", PAULI_Z)
        assert run(["eigen", "--operator", path, "--step", "0.1"]) == EXIT_USAGE

    @pytest.mark.parametrize("command, option", [
        ("su2demo", "--tol"), ("su2demo", "--seed"), ("star", "--seed")])
    def test_unused_options_removed(self, capsys, tmp_path, command, option):
        # su2demo checked at 1e-12 whatever --tol said, and neither command draws a random number
        path = write_matrix(tmp_path / "m.json", PAULI_Z)
        files = {"su2demo": [], "star": ["--a", path, "--b", path, "--xi", path]}
        assert run([command, *files[command], option, "1"]) == EXIT_USAGE

    def test_fixed_seed_and_tol_reported(self, capsys, tmp_path):
        # the payload's seed and tol are the ones its report used
        path = write_matrix(tmp_path / "m.json", PAULI_Z)
        for argv in (["su2demo"], ["star", "--a", path, "--b", path, "--xi", path]):
            _, payload = run_json(capsys, *argv)
            (report,) = payload["reports"]
            assert (payload["seed"], payload["tol"]) == (report["seed"], report["tol"])
            assert payload["seed"] == 0
        assert payload["tol"] == 1e-9 and run_json(capsys, "su2demo")[1]["tol"] == 1e-12


def test_verify_rows_are_every_bound_suite():
    # a Suite bound in a geomqm module but left out of VERIFY_ROWS would never run in verify
    unlisted = [f"{module.__name__}.{name}" for (module, name), row in SUITE_BINDINGS.items()
                if not any(row is listed for listed in cli.VERIFY_ROWS)]
    unbound = [row.title for row in cli.VERIFY_ROWS
               if not any(row is bound for bound in SUITE_BINDINGS.values())]
    assert not unlisted and not unbound, (unlisted, unbound)
    assert len(SUITE_ROWS) == len({id(row) for row in cli.VERIFY_ROWS}) == len(cli.VERIFY_ROWS)


def test_verify_suites_draw_from_disjoint_substreams(monkeypatch):
    # the rows' keys are pairwise distinct and apart from the single draws' 33 (eigen's start
    # vector), 77 and 88 (evolve's observables); a verify call makes a generator for every
    # declared key and for no other
    keys = [key for name, module in SUITE_ROWS.items()
            for key, _ in getattr(module, name).inputs.values()]
    assert len(set(keys)) == len(keys) and set(keys).isdisjoint({kahler.EIGEN_START, 77, 88})
    made = set()
    for module in [m for name, m in sys.modules.items() if name.startswith("geomqm")]:
        if hasattr(module, "make_rng"):
            monkeypatch.setattr(module, "make_rng", lambda *key: made.add(key) or make_rng(*key))
    for seed in (0, 3):
        made.clear()
        cli.cmd_verify(cli.build_parser().parse_args(
            ["verify", "--dim", "3", "--trials", "20", "--seed", str(seed)]))
        assert made == {(seed, key) for key in keys}


def _declared_keys_written(node, instances, where="payload"):
    """Walk the schema next to the JSON values found at each of its nodes."""
    if "properties" in node:
        objects = [x for x in instances if isinstance(x, dict)]
        declared = set(node["properties"])
        written = set().union(*(x.keys() for x in objects))
        assert written <= declared, f"{where}: undeclared keys {written - declared}"
        assert declared <= written, f"{where}: declared but never written {declared - written}"
        for key, sub in node["properties"].items():
            _declared_keys_written(sub, [x[key] for x in objects if key in x], f"{where}.{key}")
    if "items" in node:
        items = [item for x in instances if isinstance(x, list) for item in x]
        _declared_keys_written(node["items"], items, f"{where}[]")


def test_schema_matches_written_keys(capsys, schema):
    payloads = [run_json(capsys, "verify", "--dim", "2", "--trials", "3")[1],
                run_json(capsys, "su2demo")[1]]
    assert any("worst_trial" in c for p in payloads for r in p["reports"] for c in r["checks"])
    _declared_keys_written(schema, payloads)


class TestNonFiniteEvolution:
    @pytest.mark.parametrize("picture", ["vonneumann", "heisenberg"])
    def test_overflowing_rk4_fails_the_report(self, capsys, tmp_path, picture):
        h = write_matrix(tmp_path / "h.json", PAULI_Z + 0.5 * PAULI_X)
        m = write_matrix(tmp_path / "m.json", np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
        with np.errstate(all="ignore"):  # RK4 at t = 1e200 overflows on purpose
            code, payload = run_json(capsys, "evolve", "--method", "rk4", "--picture", picture,
                                     "--hamiltonian", h, "--initial", m,
                                     "--t", "1e200", "--steps", "1")
        assert code == EXIT_FAIL
        (spectrum,) = [c for c in payload["reports"][0]["checks"] if c["name"] == "spectrum"]
        assert spectrum["max_residual"] == "nan" and spectrum["passed"] is False
        assert payload["passed"] is False

    def test_overflowing_rk4_state_fails_without_warnings(self, capsys, tmp_path):
        # the monitors report the overflowed state as NaN; numpy's overflow and invalid-value
        # warnings on the way are not written to stderr
        h = write_matrix(tmp_path / "h.json", random_hermitian(3, 1))
        psi = write_matrix(tmp_path / "psi.json", random_complex_vector(3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run_json(capsys, "evolve", "--method", "rk4", "--hamiltonian", h,
                                     "--initial", psi, "--t", "1e200", "--steps", "1")
        assert code == EXIT_FAIL
        (norm,) = [c for c in payload["reports"][0]["checks"] if c["name"] == "state_norm"]
        assert norm["max_residual"] == "nan" and norm["passed"] is False


class TestUnreadableInput:
    def test_directory(self, capsys, tmp_path):
        assert run(["eigen", "--operator", str(tmp_path)]) == EXIT_USAGE
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    def test_permission_denied(self, capsys, tmp_path, monkeypatch):
        path = write_matrix(tmp_path / "a.json", PAULI_Z)

        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(cli.Path, "read_bytes", denied)
        assert run(["eigen", "--operator", path]) == EXIT_USAGE
        assert "Permission denied" in capsys.readouterr().err

    def test_undecodable_bytes(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dim": 1, "data": [[[1, 0]]], "note": "\xe9"}')
        assert run(["eigen", "--operator", str(path)]) == EXIT_USAGE
        assert "UTF-8" in capsys.readouterr().err

    def test_integer_too_large_for_a_float(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 1, "data": [[[1' + "0" * 400 + ', 0]]]}')
        assert run(["eigen", "--operator", str(path)]) == EXIT_USAGE
        assert "non-finite entry at row 0, column 0" in capsys.readouterr().err


class TestParserReuse:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_sequence_matches_fresh_calls(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", random_hermitian(3, 8))
        psi = write_matrix(tmp_path / "psi.json", np.array([1.0, 0.5j, 0.0]))
        calls = [
            ["verify", "--dim", "2", "--trials", "3", "--json"],
            ["eigen", "--operator", a, "--max-iter", "-1"],  # usage error: exit 2
            ["eigen", "--operator", a, "--json", "--seed", "5"],
            ["evolve", "--hamiltonian", a, "--initial", psi, "--steps", "4", "--json"],
        ]

        def outcomes(fresh):
            out = []
            for argv in calls:
                if fresh:
                    cli.build_parser.cache_clear()
                code = run(argv)
                captured = capsys.readouterr()
                out.append((code, captured.out, captured.err))
            return out

        reused = outcomes(fresh=False)
        assert [code for code, _, _ in reused] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]
        assert outcomes(fresh=True) == reused


SU2_TEXT = """\
Poisson coefficient table:
  Lambda(dx, dy) = 2*z
  Lambda(dx, dz) = -2*y
  Lambda(dy, dx) = -2*z
  Lambda(dy, dz) = 2*x
  Lambda(dz, dx) = 2*y
  Lambda(dz, dy) = -2*x
star table:
  u * u = (1+0i)*u
  u * x = (1+0i)*x
  u * y = (1+0i)*y
  u * z = (1+0i)*z
  x * u = (1+0i)*x
  x * x = (1+0i)*u
  x * y = (0+1i)*z
  x * z = (0-1i)*y
  y * u = (1+0i)*y
  y * x = (0-1i)*z
  y * y = (1+0i)*u
  y * z = (0+1i)*x
  z * u = (1+0i)*z
  z * x = (0+1i)*y
  z * y = (0-1i)*x
  z * z = (1+0i)*u

2-level golden star values  (seed=0, trials=1, tol=1e-12)
  [PASS] star_z_y: max residual 0.000e+00 (tol 1e-12)
  [PASS] star_x_y: max residual 0.000e+00 (tol 1e-12)
  [PASS] star_z_x: max residual 0.000e+00 (tol 1e-12)
  => all identities pass
"""


def counted(monkeypatch, calls):
    """Count the calls of each kernel function named in ``calls``, at every geomqm binding."""
    for name in calls:
        plant_everywhere(monkeypatch, getattr(kernel, name),
                         lambda fn, name=name: lambda *a: calls.update({name: calls[name] + 1})
                         or fn(*a))


def test_distributions_diagonalizes_the_point_once(capsys, monkeypatch, tmp_path):
    # one decomposition for the four ranks and the orbit invariants, and one check of the
    # point; the trials' points are diagonal
    calls = dict.fromkeys(["eig_hermitian", "require_observable"], 0)
    counted(monkeypatch, calls)
    path = write_matrix(tmp_path / "xi.json", random_hermitian(4, 12))
    assert run(["distributions", "--point", path]) == EXIT_OK
    assert calls == {"eig_hermitian": 1, "require_observable": 1}


# the files h, psi, obs, rho and csv in argv -> (observable files read, require_same_dim
# calls, require_square calls) per CLI call
CLI_GRID = [
    pytest.param(["verify", "--dim", "3", "--trials", "5"], 0, 10, 20, id="verify"),
    pytest.param(["evolve", "--hamiltonian", "h", "--initial", "psi", "--check-mu", "--csv", "csv"],
                 1, 0, 3, id="schrodinger"),
    pytest.param(["evolve", "--picture", "heisenberg", "--hamiltonian", "h", "--initial", "obs"],
                 2, 1, 8, id="heisenberg"),
    pytest.param(["evolve", "--picture", "vonneumann", "--hamiltonian", "h", "--initial", "rho"],
                 2, 1, 11, id="vonneumann"),
    pytest.param(["evolve", "--method", "rk4", "--hamiltonian", "h", "--initial", "psi",
                  "--check-mu"], 1, 0, 3, id="rk4-schrodinger"),
    pytest.param(["evolve", "--method", "rk4", "--picture", "heisenberg", "--hamiltonian", "h",
                  "--initial", "obs"], 2, 1, 8, id="rk4-heisenberg"),
    pytest.param(["evolve", "--method", "rk4", "--picture", "vonneumann", "--hamiltonian", "h",
                  "--initial", "rho"], 2, 1, 11, id="rk4-vonneumann"),
    pytest.param(["eigen", "--operator", "obs"], 1, 0, 3, id="eigen-descent"),
    pytest.param(["eigen", "--operator", "obs", "--direction", "ascent"], 1, 0, 3,
                 id="eigen-ascent"),
    pytest.param(["star", "--a", "h", "--b", "obs", "--xi", "rho"], 3, 5, 17, id="star"),
    pytest.param(["distributions", "--point", "obs", "--trials", "3"], 1, 0, 3, id="distributions"),
    pytest.param(["su2demo"], 0, 0, 0, id="su2demo"),
]


def grid_calls(monkeypatch, tmp_path, argv, names):
    """The calls of each kernel function in ``names`` in one CLI call over the grid's files."""
    inputs = {"h": random_hermitian(3, 1), "psi": random_complex_vector(3, 2),
              "obs": random_hermitian(3, 3), "rho": np.diag([0.5, 0.3, 0.2]).astype(complex)}
    paths = {name: write_matrix(tmp_path / f"{name}.json", m) for name, m in inputs.items()}
    paths["csv"] = str(tmp_path / "traj.csv")
    calls = dict.fromkeys(names, 0)
    counted(monkeypatch, calls)
    assert run([paths.get(arg, arg) for arg in argv] + ["--json"]) == EXIT_OK
    return calls


@pytest.mark.parametrize("argv, files, same_dim, square", CLI_GRID)
def test_each_observable_file_is_checked_once(capsys, monkeypatch, tmp_path, argv, files,
                                              same_dim, square):
    # the CLI checks each observable it reads, with the path in its error, and the library
    # takes it from there unchecked: evolve once checked H twice and each initial matrix twice,
    # and checked matrices the library made itself (15 checks over the three pictures)
    calls = grid_calls(monkeypatch, tmp_path, argv, ["require_observable"])
    assert calls["require_observable"] == files


@pytest.mark.parametrize("argv, files, same_dim, square", CLI_GRID)
def test_each_shape_is_checked_once(capsys, monkeypatch, tmp_path, argv, files, same_dim, square):
    # the private cores compute on the arrays their callers checked or drew: verify once ran
    # require_same_dim 64 times and require_square 137 times, the RK4 Heisenberg flow 403 and
    # 812 times (a check per product) and su2demo 284 and 580 times.  What is left is the
    # CLI's and the kernel's own checks, and the xi of each lambda_of and r_of call
    calls = grid_calls(monkeypatch, tmp_path, argv, ["require_same_dim", "require_square"])
    assert (calls["require_same_dim"], calls["require_square"]) == (same_dim, square)


class TestTextOutput:
    """The human-readable output, line for line."""

    def test_su2demo(self, capsys):
        assert run(["su2demo"]) == EXIT_OK
        assert capsys.readouterr().out == SU2_TEXT

    def test_su2demo_output_file(self, capsys, tmp_path):
        out = tmp_path / "su2.txt"
        assert run(["su2demo", "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text() == SU2_TEXT

    @pytest.mark.parametrize("direction", ["ascent", "descent"])
    def test_eigen_trailer(self, capsys, tmp_path, direction):
        path = write_matrix(tmp_path / "a.json", random_hermitian(4, 9))
        argv = ["eigen", "--operator", path, "--direction", direction]
        assert run(argv) == EXIT_OK
        last = capsys.readouterr().out.splitlines()[-1]
        _, payload = run_json(capsys, *argv)
        res = payload["results"]
        assert last == (f"  eigenvalue {res['eigenvalue']!r} (oracle {res['oracle_eigenvalue']!r}), "
                        f"{res['iterations']} iterations")

    def test_star_trailer(self, capsys, tmp_path):
        pa = write_matrix(tmp_path / "a.json", PAULI_X)
        pb = write_matrix(tmp_path / "b.json", PAULI_Y)
        px = write_matrix(tmp_path / "xi.json", (np.eye(2) + 0.5 * PAULI_X + 0.25 * PAULI_Z) / 2)
        assert run(["star", "--a", pa, "--b", pb, "--xi", px]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "  => all identities pass",
            "  (A*B)(xi) = 0.0 + 0.125 i",
            "  Jordan (real) part 0.0, Lie (imaginary) part 0.125",
        ]

    def test_distributions_without_reports(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "xi.json", np.array([[2.0]], dtype=complex))
        assert run(["distributions", "--point", path]) == EXIT_OK
        assert capsys.readouterr().out == (
            "distribution ranks at the given point: {'Lambda': 0, 'R': 1, 'Zero': 0, 'One': 1}\n"
            "unitary-orbit label (spectrum): [2.0]\n"
            "GL-orbit label: rank 1, signature 1\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distributions_text_spectrum_at_huge_scale(self, capsys, tmp_path):
        # rounding to 12 decimals multiplied the eigenvalues by 1e12, which overflowed to inf
        path = write_matrix(tmp_path / "xi.json", 1e300 * random_hermitian(4, 1))
        _, payload = run_json(capsys, "distributions", "--point", path, "--trials", "3")
        assert run(["distributions", "--point", path, "--trials", "3"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == (
            f"unitary-orbit label (spectrum): {payload['results']['spectrum']}")

    def test_distributions_head_and_reports(self, capsys, tmp_path):
        path = write_matrix(tmp_path / "xi.json", np.diag([1.0, -0.5]).astype(complex))
        assert run(["distributions", "--point", path, "--trials", "3"]) == EXIT_OK
        head, *reports = capsys.readouterr().out.split("\n\n")
        assert head.splitlines() == [
            "distribution ranks at the given point: {'Lambda': 2, 'R': 4, 'Zero': 2, 'One': 4}",
            "unitary-orbit label (spectrum): [-0.5, 1.0]",
            "GL-orbit label: rank 2, signature 0",
        ]
        assert [r.splitlines()[0] for r in reports] == [
            f"involutivity evidence: D_{kind}  (seed=0, trials=3, tol=1e-09)"
            for kind in ("Lambda", "R", "Zero", "One")]
        assert reports[-1].endswith("  => all identities pass\n")
