"""Dense complex linear-algebra substrate.

Hermitian predicates, the Hermitian eigendecomposition (LAPACK), seeded
random generation and the matrix JSON wire format used by every other
module and by the CLI.  Every residual, cutoff and stop test
divides by its inputs' size (``relative``); scale-invariant quantities are
taken of input prescaled by an exact power of two (``unit_scale``).  The
validators, predicates and norms take a single matrix or a (..., n, n) stack
and check a stack once.  Each exported entry point checks its observables
(``require_observable``) and psi (``require_finite``) once, before any work,
shapes included, then hands them to a private core that computes on those
arrays and runs none of those checks again; only ``dual.lambda_of`` and
``dual.r_of`` still check a xi, which comes from outside the pair they evaluate.

All functions are pure except the stacked draws, which advance the
generator passed to them; the only other state is the seed passed explicitly.

RNG stream-splitting rule: substream ``(seed, k1, k2, ...)`` is the PCG64
generator seeded by ``numpy.random.SeedSequence([seed, k1, k2, ...])``,
made by ``make_rng``.  The stacked draws give a generator's next m rows, one
fixed-shape draw per row, so row k is the same however the rows are drawn;
each suite input's key is declared once, in its ``report.Suite`` row.  A
single draw ``random_hermitian(n, seed, *key)`` or
``random_complex_vector(n, seed, *key)`` is row 0 of its substream.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10
TAU_HERMITIAN = 1e-8  # the Hermitian test of observables taken from outside (require_observable)


class DimensionError(ValueError):
    """Inputs are non-square or have mismatched dimensions."""


class NumericalError(RuntimeError):
    """An iterative routine failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class MatrixParseError(ValueError):
    """Malformed matrix JSON; message carries the offending position."""


def scalar_or_stack(values, kind=float):
    """One matrix's 0-d result as a Python ``kind``; a stack's results as an array."""
    values = np.asarray(values)
    return kind(values) if values.ndim == 0 else values


def frobenius(m):
    """Frobenius norm of a matrix; an array of norms over a (..., n, n) stack."""
    return scalar_or_stack(np.linalg.norm(np.asarray(m), axis=(-2, -1)))


def require_square(m) -> np.ndarray:
    """A square matrix or a (..., n, n) stack of them, as a complex array."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def require_matrix(m) -> np.ndarray:
    """One square matrix, not a stack, as a complex array."""
    m = require_square(m)
    if m.ndim != 2:
        raise DimensionError(f"expected one square matrix, got shape {m.shape}")
    return m


def require_same_dim(*ms) -> list[np.ndarray]:
    """Matrices and stacks of one dimension n; every stack has the same shape."""
    out = [require_square(m) for m in ms]
    if len({m.shape[-1] for m in out}) > 1 or len({m.shape for m in out if m.ndim > 2}) > 1:
        raise DimensionError(f"dimension mismatch: {[m.shape for m in out]}")
    return out


def dagger(m) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def relative(residual, size):
    """residual / size, elementwise and with no floor: the one scaling rule of every check.

    0 where residual and size are both 0; a NaN residual stays NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return scalar_or_stack(np.where((residual == 0) & (size == 0), 0.0,
                                        np.divide(residual, size, dtype=float)))


def unit_scale(x, axes=(-1,)):
    """Per item over ``axes`` (kept), the power of two that brings x's largest entry part into
    [1/2, 1), or 1 for a zero item: exact, so no scale-invariant quotient changes its value."""
    largest = np.max(np.maximum(abs(x.real), abs(x.imag)), axis=axes, keepdims=True, initial=0.0)
    return np.ldexp(1.0, -np.maximum(np.frexp(largest)[1], -1021))  # 2^1021 is finite


def is_hermitian(m, tol: float = DEFAULT_TOL):
    """True iff M is finite and ||M - M^dag||_F <= tol * ||M||_F; per matrix of a stack."""
    m = require_square(m)
    finite = np.isfinite(m).all(axis=(-2, -1))
    m = np.where(finite[..., None, None], m, 0)  # no arithmetic on non-finite entries
    m = m * unit_scale(m, (-2, -1))  # so that neither norm overflows or underflows
    close = frobenius(m - dagger(m)) <= tol * frobenius(m)
    return scalar_or_stack(finite & close, bool)


def require_observable(m, what: str) -> np.ndarray:
    """m as a complex array if square and each matrix is finite and Hermitian at TAU_HERMITIAN."""
    m = require_square(m)
    if not np.all(is_hermitian(m, TAU_HERMITIAN)):
        raise ValueError(f"{what} must be a finite Hermitian matrix")
    return m


def require_observables(**named) -> list[np.ndarray]:
    """Each named matrix or stack through ``require_observable`` under its name, then through
    ``require_same_dim``: the guard of an entry point that takes several observables."""
    return require_same_dim(*(require_observable(m, what) for what, m in named.items()))


def require_finite(x, what: str) -> np.ndarray:
    """x as a complex array if every entry is finite: the guard of a state vector psi."""
    x = np.asarray(x, dtype=complex)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues and, as orthonormal columns, eigenvectors; ascending from ``eig_hermitian``.

    Stacked decompositions carry leading axes: eigenvalues (..., n),
    eigenvectors (..., n, n).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _finite_hermitian_part(a) -> np.ndarray:
    """(A + A^dag)/2 of a square matrix or stack; non-square or non-finite input is rejected."""
    a = require_square(a)
    bad = ~np.isfinite(a)
    if bad.any():
        where = [tuple(int(i) for i in idx) for idx in np.argwhere(bad)[:5]]
        more = f" and {int(bad.sum()) - 5} more" if bad.sum() > 5 else ""
        raise ValueError(f"non-finite entries at {where}{more}")
    return (a + dagger(a)) / 2


def eig_hermitian(a) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix, or a stack of them of shape (..., n, n).

    The Hermitian part of the input goes through one LAPACK call
    (``numpy.linalg.eigh``), which handles a whole stack at once.  Input
    that is not square or has non-finite entries is rejected first.
    """
    w, v = np.linalg.eigh(_finite_hermitian_part(a))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def eigvals_hermitian(a) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part, (..., n); inputs as for ``eig_hermitian``.

    ``numpy.linalg.eigvalsh`` computes no eigenvectors, so it is cheaper, but
    its eigenvalues may differ from ``eig_hermitian``'s in the last bits:
    use it only where no eigenvalue is published.
    """
    return np.linalg.eigvalsh(_finite_hermitian_part(a))


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Seeded PCG64 substream per the module stream-splitting rule."""
    entries = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entries)))


def _complex_gaussian_rows(rng, m: int, shape) -> np.ndarray:
    """The next m rows of iid standard complex Gaussians, (m, *shape); Re then Im per row.
    shape is (n,) or (n, n), and the dimension n must be at least 1."""
    if shape[0] < 1:
        raise ValueError(f"dimension must be >= 1, got {shape[0]}")
    xy = rng.standard_normal((m, 2, *shape))
    return (xy[:, 0] + 1j * xy[:, 1]) / math.sqrt(2.0)


def random_hermitian_stack(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """The next m rows (G + G^dag)/2 of generator rng, (m, n, n); G iid standard complex."""
    g = _complex_gaussian_rows(rng, m, (n, n))
    return (g + dagger(g)) / 2


def random_complex_vector_stack(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """The next m rows of iid standard complex Gaussian vectors of generator rng, (m, n)."""
    return _complex_gaussian_rows(rng, m, (n,))


def random_hermitian(n: int, seed: int, *key: int) -> np.ndarray:
    """Row 0 of substream (seed, *key): (G + G^dag)/2 for G with iid standard complex entries."""
    return random_hermitian_stack(n, 1, make_rng(seed, *key))[0]


def random_complex_vector(n: int, seed: int, *key: int) -> np.ndarray:
    """Row 0 of substream (seed, *key): a vector of iid standard complex Gaussians."""
    return random_complex_vector_stack(n, 1, make_rng(seed, *key))[0]


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
    try:
        z = complex(float(entry[0]), float(entry[1]))
    except OverflowError:  # an integer beyond the float range
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MatrixParseError(f"non-finite entry at row {i}, column {j}")
    return z


def _walk_entries(data, ncols):
    """Parse entry by entry; finds the first fault and raises with its row and column."""
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


def _entries_in_one_pass(data, ncols):
    """The (dim, ncols) complex array of well-formed data, else None.

    One object-array build, a shape and a type-set check and one float
    conversion replace the per-entry checks of ``_walk_entries``.
    """
    try:
        entries = np.array(data, dtype=object)
    except ValueError:  # nesting numpy cannot lay out
        return None
    if entries.ndim != 3 or entries.shape[2] != 2 or ncols not in (None, entries.shape[1]):
        return None
    if not set(map(type, entries.flat)) <= {int, float}:  # bool is not int here
        return None
    try:
        pairs = entries.astype(float)
    except OverflowError:
        return None
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(complex)[..., 0]  # bit for bit complex(re, im)


def _parse_payload(text, expect_cols=None):
    """The (dim, ncols) complex array of a payload, decoded with the cyclic collector paused.

    ``json.loads`` builds one list per entry and per row (1056 for a 32x32
    payload), more than the collector's young-generation threshold, so a
    decode would start a collection, now and then a full one of the whole
    heap.  The collector's prior state is restored on every path, after the
    inner call has returned and reference counting has freed its lists.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _decode_payload(text, expect_cols)
    finally:
        if enabled:
            gc.enable()


def _decode_payload(text, expect_cols):
    if isinstance(text, bytes):
        try:
            text = text.decode()
        except UnicodeDecodeError as exc:
            raise MatrixParseError(f"input is not UTF-8 text: {exc.reason} at byte {exc.start}") \
                from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON at position {exc.pos}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, too-deep nesting
        raise MatrixParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise MatrixParseError("expected an object with 'dim' and 'data'")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MatrixParseError(f"'dim' must be a positive integer, got {dim!r}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != dim:
        raise MatrixParseError(f"'data' must have {dim} rows")
    m = _entries_in_one_pass(data, expect_cols)
    return _walk_entries(data, expect_cols) if m is None else m


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
