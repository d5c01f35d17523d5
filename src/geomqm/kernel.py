"""Dense complex linear-algebra substrate.

Hermitian predicates, the Hermitian eigendecomposition (LAPACK, over single
matrices or stacks), the unitary exponential, seeded random generation and
the matrix JSON wire format used by every other module and by the CLI.

All functions are pure; the only state is the seed passed explicitly.

RNG stream-splitting rule: substream ``(seed, k1, k2, ...)`` uses the PCG64
generator seeded by ``numpy.random.SeedSequence([seed, k1, k2, ...])``.
Any module that needs per-trial randomness derives one substream per trial
index with this rule; it never advances a shared generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10


class DimensionError(ValueError):
    """Inputs are non-square or have mismatched dimensions."""


class NumericalError(RuntimeError):
    """An iterative routine failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class MatrixParseError(ValueError):
    """Malformed matrix JSON; message carries the offending position."""


def frobenius(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def require_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def require_same_dim(*ms) -> list[np.ndarray]:
    out = [require_square(m) for m in ms]
    dims = {m.shape[0] for m in out}
    if len(dims) > 1:
        raise DimensionError(f"dimension mismatch: {sorted(dims)}")
    return out


def dagger(m) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||M - M^dag||_F <= tol * max(1, ||M||_F)."""
    m = require_square(m)
    return frobenius(m - dagger(m)) <= tol * max(1.0, frobenius(m))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues ascending, eigenvectors as orthonormal columns.

    Stacked decompositions carry leading axes: eigenvalues (..., n),
    eigenvectors (..., n, n).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ dagger(v)


def eig_hermitian(a) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix, or a stack of them of shape (..., n, n).

    The Hermitian part of the input goes through one LAPACK call
    (``numpy.linalg.eigh``), which handles a whole stack at once.  Input
    that is not square or has non-finite entries is rejected first.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    bad = ~np.isfinite(a)
    if bad.any():
        where = [tuple(int(i) for i in idx) for idx in np.argwhere(bad)[:5]]
        more = f" and {int(bad.sum()) - 5} more" if bad.sum() > 5 else ""
        raise ValueError(f"non-finite entries at {where}{more}")
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def unitary_exp(a, t: float, hbar: float = 1.0) -> np.ndarray:
    """U = exp(-i t A / hbar) through the spectral decomposition of A."""
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    dec = eig_hermitian(a)
    phases = np.exp(-1j * t * dec.eigenvalues / hbar)
    return (dec.eigenvectors * phases) @ dagger(dec.eigenvectors)


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Seeded PCG64 substream per the module stream-splitting rule."""
    entries = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entries)))


def random_hermitian(n: int, seed: int, *key: int) -> np.ndarray:
    """(G + G^dag)/2 for G with iid standard complex Gaussian entries."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = make_rng(seed, *key)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    return (g + dagger(g)) / 2


def random_complex_vector(n: int, seed: int, *key: int) -> np.ndarray:
    rng = make_rng(seed, *key)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)


# --- matrix JSON wire format -------------------------------------------------
# {"dim": n, "data": row-major n x n array of [re, im] pairs}
# State vectors use the same container with n rows of a single pair each.


def serialize_matrix(m) -> bytes:
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    data = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return json.dumps({"dim": int(m.shape[0]), "data": data}).encode()


def _parse_entry(entry, i, j):
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        raise MatrixParseError(f"entry at row {i}, column {j} is not a [re, im] number pair")
    z = complex(float(entry[0]), float(entry[1]))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MatrixParseError(f"non-finite entry at row {i}, column {j}")
    return z


def _parse_payload(text, expect_cols=None):
    if isinstance(text, bytes):
        text = text.decode()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON at position {exc.pos}: {exc.msg}") from None
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise MatrixParseError("expected an object with 'dim' and 'data'")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MatrixParseError(f"'dim' must be a positive integer, got {dim!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != dim:
        raise MatrixParseError(f"'data' must have {dim} rows")
    ncols = expect_cols
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise MatrixParseError(f"row {i} is not a list")
        if ncols is None:
            ncols = len(row)
        if len(row) != ncols:
            raise MatrixParseError(f"ragged row {i}: expected {ncols} entries, got {len(row)}")
        rows.append([_parse_entry(e, i, j) for j, e in enumerate(row)])
    return np.array(rows, dtype=complex)


def parse_matrix(text) -> np.ndarray:
    """Parse the matrix JSON format; raises MatrixParseError with position."""
    m = _parse_payload(text)
    if m.shape[0] != m.shape[1]:
        raise MatrixParseError(f"expected square data, got {m.shape[0]}x{m.shape[1]}")
    return m


def parse_vector(text) -> np.ndarray:
    """Parse a state vector stored as an n x 1 matrix JSON payload."""
    m = _parse_payload(text, expect_cols=1)
    return m[:, 0]
