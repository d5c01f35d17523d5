"""The README's check catalogue names every check the CLI reports, and no other.

Its "Tripped by" column for the verify rows is the defect table's map from
check to the primitives whose defects fail it; every other check says "not
gated".
"""

import json
import re
from pathlib import Path

import numpy as np

from geomqm.cli import run
from geomqm.kernel import random_complex_vector, random_hermitian, serialize_matrix
from test_defect_table import tripped_by

README = Path(__file__).resolve().parents[1] / "README.md"


def catalogue():
    """(report title, check) -> the catalogue's "Tripped by" cell."""
    section = README.read_text().split("## Check catalogue")[1].split("\n## ")[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in lines[2:]]  # after the header
    table = {(title.strip(), check.strip().strip("`")): tripped.strip()
             for title, check, _, _, tripped in rows}
    assert len(table) == len(rows), "a check is listed twice"
    return table


def emitted(tmp_path, capsys):
    """(report title, check) of every report a fixed grid of commands emits."""
    inputs = {"h": random_hermitian(3, 1), "psi": random_complex_vector(3, 2),
              "obs": random_hermitian(3, 3), "rho": np.diag([0.5, 0.3, 0.2]).astype(complex)}
    for name, m in inputs.items():
        (tmp_path / f"{name}.json").write_bytes(serialize_matrix(m))
    h, psi, obs, rho = (str(tmp_path / f"{name}.json") for name in inputs)
    grid = [["verify", "--dim", "2", "--trials", "3"],
            ["evolve", "--hamiltonian", h, "--initial", psi, "--steps", "4", "--check-mu"],
            ["evolve", "--picture", "heisenberg", "--hamiltonian", h, "--initial", obs],
            ["evolve", "--picture", "vonneumann", "--hamiltonian", h, "--initial", rho],
            ["eigen", "--operator", obs], ["star", "--a", h, "--b", obs, "--xi", rho],
            ["su2demo"], ["distributions", "--point", obs, "--trials", "3"]]
    names = set()
    for argv in grid:
        assert run([*argv, "--json"]) == 0, argv
        payload = json.loads(capsys.readouterr().out)
        names |= {(r["title"], c["name"]) for r in payload["reports"] for c in r["checks"]}
    return names


def test_catalogue_names_every_emitted_check(tmp_path, capsys):
    assert set(catalogue()) == emitted(tmp_path, capsys)


def test_tripped_by_is_the_defect_table_map():
    gated = {check: ", ".join(f"`{name}`" for name in sorted(names))
             for check, names in tripped_by(3).items()}
    table = catalogue()
    assert {check: table[check] for check in gated} == gated
    assert all(cell.startswith("not gated") for check, cell in table.items()
               if check not in gated)
