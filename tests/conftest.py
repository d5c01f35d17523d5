import numpy as np
import pytest

from geomqm.kernel import random_hermitian, unitary_exp

PAULI_U = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def unitary_from_seed(n, seed, *key):
    """Seeded random unitary: exp(-iH) for a random Hermitian H."""
    return unitary_exp(random_hermitian(n, seed, *key), 1.0)


def closed_form_projection(vectors, d):
    """V (mask * V^dag v V) V^dag: projection onto the distribution d."""
    v = d.frame
    return v @ ((v.conj().T @ vectors @ v) * d.mask) @ v.conj().T


@pytest.fixture
def pauli():
    return {"u": PAULI_U, "x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}
