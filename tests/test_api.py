"""The library's public names are the ones its own code or its package exports use.

A top-level public function or class in a ``geomqm`` module must be read by
some other ``geomqm`` code, outside its own definition, or be exported by
``geomqm/__init__.py``.  A public wrapper that only tests call is a second
path to a value the reports already compute.

Every exported name that takes an observable or a state vector psi rejects a
non-Hermitian or non-finite matrix, a non-finite psi and a wrong shape before
any work: with its private core patched to raise, the bad call still raises
the guard's ``ValueError``.  An export that is in neither table fails.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import geomqm
from geomqm import algebra, distributions, dual, dynamics, kahler
from geomqm.kernel import random_complex_vector, random_hermitian

SOURCES = {path.stem: ast.parse(path.read_text())
           for path in sorted(Path(geomqm.__path__[0]).glob("*.py"))}
EXPORTED = {alias.asname or alias.name for node in SOURCES["__init__"].body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _read_names(node) -> set[str]:
    """The names and attribute names that ``node`` reads."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def public_definitions() -> dict[str, str]:
    """module.name -> name for every top-level public function and class outside __init__."""
    return {f"{module}.{node.name}": node.name
            for module, tree in SOURCES.items() if module != "__init__"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def test_every_public_name_is_used_or_exported():
    # each top-level statement of each module, with the name it defines (if any)
    statements = [(getattr(node, "name", None), _read_names(node))
                  for module, tree in SOURCES.items() if module != "__init__"
                  for node in tree.body]
    unused = sorted(qualified for qualified, name in public_definitions().items()
                    if name not in EXPORTED
                    and not any(name in reads for defined, reads in statements if defined != name))
    assert unused == [], f"public names that no library code uses or exports: {unused}"


def test_definitions_are_found():
    # the walk sees the modules' definitions, so an empty result above is not vacuous
    names = public_definitions()
    assert {"algebra.pair", "dual.star_report", "cli.run", "report.Suite"} <= set(names)


# --- every exported entry point checks its observables and psi before any work -----------

N = 3
OBSERVABLE, PSI = random_hermitian(N, 95), random_complex_vector(N, 95)
SPEC = geomqm.EvolutionSpec(random_hermitian(N, 96), t_final=1.0, steps=4)
SLOTS = {"obs": OBSERVABLE, "psi": PSI}  # an argument slot's kind -> a valid value of it
BAD = {  # a slot's kind -> defect -> a value the entry point must reject
    "obs": {"non_hermitian": OBSERVABLE + 1e-3 * np.triu(np.ones((N, N)), 1),
            "nan": np.where(np.eye(N, k=1) == 1, np.nan, OBSERVABLE),
            "non_square": np.ones((N, N + 1)),
            "mismatched": random_hermitian(N + 1, 97)},
    "psi": {"nan": np.where(np.arange(N) == 1, np.nan, PSI), "scalar": np.array(1.0 + 0j),
            "mismatched": random_complex_vector(N + 1, 97)},
}

# exported name -> (the owner of the core it hands checked input to, the core's name, its
# arguments: "obs" or "psi" is a slot, anything else a fixed argument)
GUARDED = {
    "lie_bracket": (algebra, "pair", ("obs", "obs")),
    "jordan_product": (algebra, "pair", ("obs", "obs")),
    "associator_defect": (algebra, "pair", ("obs", "obs", "obs")),
    "trace_form": (algebra, "_trace_form", ("obs", "obs")),
    "hat_eval": (dual, "_hat_eval", ("obs", "obs")),
    "star_eval": (dual, "_star_eval", ("obs", "obs", "obs")),
    "star_report": (dual, "_star_report", ("obs", "obs", "obs")),
    "orbit_invariants": (distributions, "_orbit_invariants", ("obs",)),
    "momentum_map": (kahler, "_momentum_map", ("psi",)),
    "expectation": (kahler, "_expectation", ("obs", "psi")),
    "f_quadratic": (kahler, "_f_quadratic", ("obs", "psi")),
    "dispersion": (kahler, "_dispersion", ("obs", "psi")),
    "eigensolve_gradient_flow": (kahler, "_eigensolve", ("obs", "psi")),
    "eigen_report": (kahler, "_eigen_report", ("obs", 0, 1e-9, 100, "descent")),
    "EvolutionSpec": (dynamics.EvolutionSpec, "_check_parameters", ("obs", 1.0, 4)),
    "schrodinger_flow": (dynamics, "_schrodinger", (SPEC, "psi")),
    "heisenberg_flow": (dynamics, "_heisenberg", (SPEC, "obs")),
    "vonneumann_flow": (dynamics, "_vonneumann", (SPEC, "obs")),
}
# exported names that take no observable or psi, or take a matrix on other terms
UNGUARDED = {
    "CONVENTIONS": "a constant", "ConventionSet": "a constant's type",
    "IdentityCheck": "a report record", "VerificationReport": "a report record",
    "SpectralDecomposition": "a result record", "DimensionError": "an error",
    "MatrixParseError": "an error", "NumericalError": "an error",
    "random_hermitian": "takes no matrix", "su2_golden_tables": "takes no matrix",
    "parse_matrix": "takes text", "serialize_matrix": "writes any complex array",
    "is_hermitian": "a predicate: False on a non-observable",
    "is_state": "a predicate: False on a non-observable",
    "eig_hermitian": "diagonalizes the Hermitian part of any finite square matrix",
    "eigvals_hermitian": "the eigenvalues of the Hermitian part of any finite square matrix",
}


def _cases(name, args):
    """(name, slot index, defect) for each slot and defect; a slot is mismatched only where
    another argument has a dimension."""
    slots = [k for k, arg in enumerate(args) if isinstance(arg, str) and arg in SLOTS]
    sized = len(slots) + sum(arg is SPEC for arg in args)
    return [(name, k, defect) for k in slots for defect in BAD[args[k]]
            if defect != "mismatched" or sized > 1]


CASES = [case for name, (_, _, args) in GUARDED.items() for case in _cases(name, args)]


class Reached(Exception):
    """Raised by a patched core: the entry point did work on its input."""


def reached(*args, **kwargs):
    raise Reached


def call(name, args):
    return getattr(geomqm, name)(*(SLOTS[a] if isinstance(a, str) and a in SLOTS else a
                                   for a in args))


def test_every_export_is_guarded_or_takes_no_observable():
    assert EXPORTED == set(GUARDED) | set(UNGUARDED)
    assert not set(GUARDED) & set(UNGUARDED)


@pytest.mark.parametrize("name", GUARDED)
def test_checked_input_reaches_the_core(monkeypatch, name):
    # so that a patched core stands for the work the entry point does
    owner, core, args = GUARDED[name]
    monkeypatch.setattr(owner, core, reached)
    with pytest.raises(Reached):
        call(name, args)


@pytest.mark.parametrize("name, k, defect", CASES)
def test_bad_input_rejected_before_any_work(monkeypatch, name, k, defect):
    owner, core, args = GUARDED[name]
    monkeypatch.setattr(owner, core, reached)
    args = list(args)
    args[k] = BAD[args[k]][defect]
    with pytest.raises(ValueError):  # DimensionError included
        call(name, args)
