import json
from importlib import resources

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from geomqm import cli, dynamics
from geomqm.algebra import CONVENTIONS
from geomqm.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, run
from geomqm.dynamics import EvolutionSpec, heisenberg_flow
from geomqm.kernel import random_hermitian, serialize_matrix
from conftest import PAULI_X, PAULI_Z


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
        # the residual floor ~eps * ||A|| lies above the default tol
        path = write_matrix(tmp_path / "a.json", random_hermitian(4, 3) * 1e8)
        code = run(["eigen", "--operator", path])
        assert code == EXIT_FAIL
        assert "eigensolve did not converge" in capsys.readouterr().err

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
    ])
    def test_bad_numeric_option(self, capsys, tmp_path, command, option, value):
        path = write_matrix(tmp_path / "m.json", PAULI_Z)
        files = {"verify": [], "distributions": ["--point", path], "eigen": ["--operator", path],
                 "evolve": ["--hamiltonian", path, "--initial", path, "--picture", "heisenberg"]}
        assert run([command, *files[command], option, value]) == EXIT_USAGE
        assert option.lstrip("-") in capsys.readouterr().err

    def test_zero_max_iter_allowed(self, capsys, tmp_path):
        # every vector is an eigenvector of the identity, so no iteration is needed
        path = write_matrix(tmp_path / "i.json", np.eye(2, dtype=complex))
        assert run(["eigen", "--operator", path, "--max-iter", "0"]) == EXIT_OK

    def test_unknown_evolve_method(self, capsys, tmp_path):
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        psi = write_matrix(tmp_path / "psi.json", np.array([1.0, 0.0], dtype=complex))
        code = run(["evolve", "--hamiltonian", h, "--initial", psi, "--method", "euler"])
        assert code == EXIT_USAGE


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

    @pytest.mark.parametrize("psi0", [[0.0, 0.0], [1e-200, 0.0]])
    def test_zero_schrodinger_state_does_no_work(self, capsys, tmp_path, monkeypatch, psi0):
        calls = []
        monkeypatch.setattr(dynamics, "conserved_report", lambda *a, **k: calls.append(a))
        h = write_matrix(tmp_path / "h.json", PAULI_Z)
        z = write_matrix(tmp_path / "z.json", np.array(psi0, dtype=complex))
        code = run(["evolve", "--picture", "schrodinger", "--hamiltonian", h, "--initial", z])
        assert code == EXIT_USAGE
        assert calls == []
        assert "zero" in capsys.readouterr().err

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
