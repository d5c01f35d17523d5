"""The library's public names are the ones its own code or its package exports use.

A top-level public function or class in a ``geomqm`` module must be read by
some other ``geomqm`` code, outside its own definition, or be exported by
``geomqm/__init__.py``.  A public wrapper that only tests call is a second
path to a value the reports already compute.

Every exported name that takes an observable or a state vector psi rejects a
non-Hermitian or non-finite matrix, a non-finite psi and a wrong shape before
any work: with its private core patched to raise, the bad call still raises
the guard's ``ValueError``, at n = 1 and 3, and a non-Hermitian or non-finite
input gets the message that names it.  An export that is in neither table fails.
"""

import ast
import re
from pathlib import Path
from typing import NamedTuple

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


class Slot(NamedTuple):
    """An argument that takes an observable ("obs") or a state vector ("psi"), under the name
    its guard's message gives it."""
    kind: str
    what: str


class Spec(NamedTuple):
    """An EvolutionSpec argument of the picture, made at the dimension of the call."""
    picture: str


def obs(what):
    return Slot("obs", what)


def psi(what):
    return Slot("psi", what)


DIMS = (1, 3)


def valid(kind, n):
    return random_hermitian(n, 95) if kind == "obs" else random_complex_vector(n, 95)


def bad(n):
    """A slot's kind -> defect -> a value of dimension n that the entry point must reject."""
    m, v = valid("obs", n), valid("psi", n)
    corner = np.eye(n, k=n - 1) == 1  # entry (0, n - 1), on the diagonal at n = 1
    return {"obs": {"non_hermitian": m + 1e-3j * corner, "nan": np.where(corner, np.nan, m),
                    "non_square": np.ones((n, n + 1)), "mismatched": random_hermitian(n + 1, 97)},
            "psi": {"nan": np.where(np.arange(n) == 0, np.nan, v), "scalar": np.array(1.0 + 0j),
                    "mismatched": random_complex_vector(n + 1, 97)}}


DEFECTS = {kind: tuple(values) for kind, values in bad(1).items()}
# the message of a defect that the guard names its input in
MESSAGES = {("obs", "non_hermitian"): "^{} must be a finite Hermitian matrix$",
            ("obs", "nan"): "^{} must be a finite Hermitian matrix$",
            ("psi", "nan"): "^{} must be finite$"}

# label (the exported name, and a variant after a space) -> (the owner of the core it hands
# checked input to, the core's name, its arguments: a Slot, a Spec or a fixed argument)
GUARDED = {
    "lie_bracket": (algebra, "pair", (obs("A"), obs("B"))),
    "jordan_product": (algebra, "pair", (obs("A"), obs("B"))),
    "associator_defect": (algebra, "pair", (obs("A"), obs("B"), obs("C"))),
    "trace_form": (algebra, "_trace_form", (obs("A"), obs("B"))),
    "hat_eval": (dual, "_hat_eval", (obs("A"), obs("xi"))),
    "star_eval": (dual, "_star_eval", (obs("A"), obs("B"), obs("xi"))),
    "star_report": (dual, "_star_report", (obs("A"), obs("B"), obs("xi"))),
    "orbit_invariants": (distributions, "_orbit_invariants", (obs("the point"),)),
    "momentum_map": (kahler, "_momentum_map", (psi("psi"),)),
    "expectation": (kahler, "_expectation", (obs("A"), psi("psi"))),
    "f_quadratic": (kahler, "_f_quadratic", (obs("A"), psi("psi"))),
    "dispersion": (kahler, "_dispersion", (obs("A"), psi("psi"))),
    "eigensolve_gradient_flow": (kahler, "_eigensolve", (obs("the operator"),
                                                         psi("start vector"))),
    "eigen_report": (kahler, "_eigen_report", (obs("the operator"), 0, 1e-9, 100, "descent")),
    "EvolutionSpec": (dynamics.EvolutionSpec, "_check_parameters",
                      (obs("the Hamiltonian"), 1.0, 4)),
    "schrodinger_flow": (dynamics, "_schrodinger", (Spec("schrodinger"),
                                                     psi("the initial state"))),
    "heisenberg_flow": (dynamics, "_heisenberg", (Spec("heisenberg"), obs("the initial matrix"))),
    "vonneumann_flow": (dynamics, "_vonneumann", (Spec("vonneumann"), obs("the initial matrix"))),
    **{f"rk4_flow {picture}": (dynamics, "_rk4", (Spec(picture), slot))
       for picture, slot in (("schrodinger", psi("the initial state")),
                             ("heisenberg", obs("the initial matrix")),
                             ("vonneumann", obs("the initial matrix")))},
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


def _cases(label, args):
    """(label, slot index, defect) for each slot and defect; a slot is mismatched only where
    another argument has a dimension."""
    slots = [k for k, arg in enumerate(args) if isinstance(arg, Slot)]
    sized = len(slots) + sum(isinstance(arg, Spec) for arg in args)
    return [(label, k, defect) for k in slots for defect in DEFECTS[args[k].kind]
            if defect != "mismatched" or sized > 1]


CASES = [case for label, (_, _, args) in GUARDED.items() for case in _cases(label, args)]


class Reached(Exception):
    """Raised by a patched core: the entry point did work on its input."""


def reached(*args, **kwargs):
    raise Reached


def call(label, args, n):
    """The export of ``label`` at the arguments, each Slot and Spec made at dimension n."""
    def value(arg):
        if isinstance(arg, Slot):
            return valid(arg.kind, n)
        if isinstance(arg, Spec):
            return geomqm.EvolutionSpec(random_hermitian(n, 96), 1.0, 4, picture=arg.picture)
        return arg
    return getattr(geomqm, label.split()[0])(*(value(arg) for arg in args))


def test_every_export_is_guarded_or_takes_no_observable():
    guarded = {label.split()[0] for label in GUARDED}
    assert EXPORTED == guarded | set(UNGUARDED)
    assert not guarded & set(UNGUARDED)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("label", GUARDED)
def test_checked_input_reaches_the_core(monkeypatch, label, n):
    # so that a patched core stands for the work the entry point does
    owner, core, args = GUARDED[label]
    monkeypatch.setattr(owner, core, reached)
    with pytest.raises(Reached):
        call(label, args, n)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("label, k, defect", CASES)
def test_bad_input_rejected_before_any_work(monkeypatch, label, k, defect, n):
    # a defect the guard names its input in must give the guard's message, with that name
    owner, core, args = GUARDED[label]
    monkeypatch.setattr(owner, core, reached)
    slot = args[k]
    args = [bad(n)[slot.kind][defect] if j == k else arg for j, arg in enumerate(args)]
    message = MESSAGES.get((slot.kind, defect), "").format(re.escape(slot.what)) or None
    with pytest.raises(ValueError, match=message):  # DimensionError included
        call(label, args, n)
