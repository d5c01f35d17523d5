import math
import sys

import numpy as np
import pytest

from geomqm import algebra, distributions, dual, kahler
from geomqm.kernel import dagger, eig_hermitian, random_hermitian

PAULI_U = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# every declared suite row: its name -> the module that holds it
SUITE_ROWS = {"JORDAN_LIE": algebra, "DUAL_GEOMETRY": dual, "COMMUTATION": distributions,
              "INVOLUTIVITY": distributions, "PULLBACKS": kahler}


def plant_everywhere(mp, f, defect):
    """Replace f by defect(f) at every geomqm module attribute bound to it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "geomqm" and getattr(module, f.__name__, None) is f:
            mp.setattr(module, f.__name__, defect(f))


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
