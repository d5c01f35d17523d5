import importlib
import math
import pkgutil
import sys

import numpy as np
import pytest

import geomqm
from geomqm.cli import VERIFY_ROWS
from geomqm.dynamics import heisenberg_flow, schrodinger_flow, vonneumann_flow
from geomqm.kernel import dagger, eig_hermitian, random_hermitian
from geomqm.report import Suite

PAULI_U = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# every Suite bound at the top level of a geomqm module: (module, name) -> the row
SUITE_BINDINGS = {(module, name): value
                  for module in (importlib.import_module(f"geomqm.{info.name}")
                                 for info in pkgutil.iter_modules(geomqm.__path__))
                  for name, value in vars(module).items() if isinstance(value, Suite)}

# every row that verify runs, in its order: the row's name -> the module that binds it
SUITE_ROWS = {name: module for row in VERIFY_ROWS
              for (module, name), value in SUITE_BINDINGS.items() if value is row}


def plant_everywhere(mp, f, defect):
    """Replace f by defect(f) at every geomqm module attribute bound to it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "geomqm" and getattr(module, f.__name__, None) is f:
            mp.setattr(module, f.__name__, defect(f))


def exact_flow(spec, initial):
    """The exported exact flow of the spec's picture."""
    return {"schrodinger": schrodinger_flow, "heisenberg": heisenberg_flow,
            "vonneumann": vonneumann_flow}[spec.picture](spec, initial)


def unitary_exp(a, t):
    """U = exp(-i t A) through the spectral decomposition of A; per matrix of a stack."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    dec = eig_hermitian(a)
    phases = np.exp(-1j * t * dec.eigenvalues)
    return (dec.eigenvectors * phases[..., None, :]) @ dagger(dec.eigenvectors)


def unitary_from_seed(n, seed, *key):
    """Seeded random unitary: exp(-iH) for a random Hermitian H."""
    return unitary_exp(random_hermitian(n, seed, *key), 1.0)


def closed_form_projection(vectors, frame, mask):
    """V (mask * V^dag v V) V^dag: projection onto the distribution of eigenframe V and mask."""
    return frame @ ((dagger(frame) @ vectors @ frame) * mask) @ dagger(frame)


@pytest.fixture
def pauli():
    return {"u": PAULI_U, "x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
