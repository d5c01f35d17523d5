"""Pointwise distributions attached to the dual-space tensors.

The (1,1)-tensors at a point xi act on observables as
  jhat_xi(A) = [A, xi]_-        (image: the Lambda distribution)
  rhat_xi(A) = A o xi           (image: the R distribution)
with the intersection (Zero) and sum (One) built from the two images.
Everything is vectorized over an orthonormal Hermitian basis so that the
trace form becomes the standard real inner product, and images are read
off from singular value decompositions.

Involutivity is sampled evidence: the distributions are spanned by global
polynomial vector fields whose commutators have closed forms, and the
commutator values are tested for pointwise membership at random points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import CONVENTIONS, jordan_product, lie_bracket
from .kernel import (
    eig_hermitian,
    frobenius,
    make_rng,
    random_hermitian,
    require_same_dim,
    unitary_exp,
)
from .report import VerificationReport, run_suite

TAU_RANK = 1e-8


def jhat(xi, a) -> np.ndarray:
    """[A, xi]_- : the Poisson tensor contracted with the hat differential."""
    xi, a = require_same_dim(xi, a)
    return lie_bracket(a, xi)


def rhat(xi, a) -> np.ndarray:
    """A o xi : the Jordan tensor contracted with the hat differential."""
    xi, a = require_same_dim(xi, a)
    return jordan_product(a, xi)


def commutation_defect(xi, a) -> float:
    """Residual of jhat o rhat = rhat o jhat = (1/2)[A, xi^2]_-."""
    xi, a = require_same_dim(xi, a)
    jr = jhat(xi, rhat(xi, a))
    rj = rhat(xi, jhat(xi, a))
    closed = lie_bracket(a, xi @ xi) / 2
    return max(frobenius(jr - rj), frobenius(jr - closed))


def verify_commutation(n: int, trials: int, seed: int, tol: float = 1e-9) -> VerificationReport:
    """Scaled commutation defect of jhat and rhat at seeded random points."""

    def trial(k):
        xi = random_hermitian(n, seed, k, 10)
        a = random_hermitian(n, seed, k, 11)
        scale = max(1.0, frobenius(a) * frobenius(xi) ** 2)
        return {"jhat_rhat_commutation": commutation_defect(xi, a) / scale}

    return run_suite("tensor commutation relation", trials, seed, tol, trial,
                     conventions=CONVENTIONS.to_dict())


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of n x n Hermitians under the trace form <.,.>.

    Generalized Gell-Mann matrices scaled to <e, e> = 1 (Frobenius norm
    sqrt(2)), plus the normalized identity, stacked with shape (n^2, n, n).
    """
    basis = [np.eye(n, dtype=complex) * math.sqrt(2.0 / n)]
    for k in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        d[np.diag_indices(n)] = [1.0] * k + [-float(k)] + [0.0] * (n - k - 1)
        basis.append(d * math.sqrt(2.0 / (k * (k + 1))))
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            basis.append(s)
            t = np.zeros((n, n), dtype=complex)
            t[j, k] = -1j
            t[k, j] = 1j
            basis.append(t)
    return np.array(basis)


def vectorize(m, basis) -> np.ndarray:
    """Real coordinates <e_k, M> of a Hermitian matrix in an orthonormal basis.

    The basis is stacked as (k, n, n); a stack of matrices (..., n, n) gives
    coordinates (..., k).
    """
    return np.einsum("kij,...ji->...k", np.asarray(basis), m).real / 2


def devectorize(coords, basis) -> np.ndarray:
    """Sum_k c_k e_k; coordinates (..., k) give matrices (..., n, n)."""
    return np.tensordot(coords, np.asarray(basis), axes=(-1, 0))


KINDS = ("Lambda", "R", "Zero", "One")


@dataclass(frozen=True)
class DistributionBasis:
    """Orthonormal basis of one distribution at a point."""

    point: np.ndarray
    kind: str
    basis: np.ndarray  # (rank, n, n)
    rank: int


def _image_columns(mat, tol):
    u, s, _ = np.linalg.svd(mat)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    return u[:, : int(np.sum(s > tol * s[0]))]


def _map_matrix(xi, basis):
    """Coordinate matrices of jhat_xi and rhat_xi; column k is the image of e_k."""
    ex, xe = basis @ xi, xi @ basis
    return vectorize(-1j * (ex - xe), basis).T, vectorize((ex + xe) / 2, basis).T


def distribution_basis(xi, kind: str, tol: float = TAU_RANK) -> DistributionBasis:
    """Basis and rank of one of the four distributions at xi."""
    xi = require_same_dim(xi)[0]
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    n = xi.shape[0]
    basis = hermitian_basis(n)
    mj, mr = _map_matrix(xi, basis)
    if kind == "Lambda":
        img = _image_columns(mj, tol)
    elif kind == "R":
        img = _image_columns(mr, tol)
    elif kind == "One":
        img = _image_columns(np.hstack([mj, mr]), tol)
    else:
        uj = _image_columns(mj, tol)
        ur = _image_columns(mr, tol)
        if uj.shape[1] == 0 or ur.shape[1] == 0:
            img = uj[:, :0]
        else:
            # x = UJ a = UR b: null space of [UJ, -UR] yields the intersection
            stacked = np.hstack([uj, -ur])
            u, s, vh = np.linalg.svd(stacked)
            null_mask = np.concatenate([
                s <= tol * (s[0] if s.size else 1.0),
                np.ones(vh.shape[0] - s.size, dtype=bool),
            ])
            null_vecs = vh[null_mask].conj().T
            if null_vecs.shape[1] == 0:
                img = uj[:, :0]
            else:
                cand = uj @ null_vecs[: uj.shape[1]]
                img = _image_columns(cand, tol)
    return DistributionBasis(point=xi, kind=kind, basis=devectorize(img.T, basis),
                             rank=img.shape[1])


def membership_residual(vector, dist: DistributionBasis) -> float:
    """Relative distance of a tangent vector from the distribution subspace."""
    norm = frobenius(vector)
    if norm == 0.0:
        return 0.0
    residual = vector - devectorize(vectorize(vector, dist.basis), dist.basis)
    return frobenius(residual) / norm


def _random_generic_point(n, seed, *key, gap=1e-6, attempts=100):
    # distinct-eigenvalue rejection keeps samples off degenerate strata
    for k in range(attempts):
        xi = random_hermitian(n, seed, *key, k)
        w = eig_hermitian(xi).eigenvalues
        if np.min(np.diff(w)) > gap:
            return xi
    raise RuntimeError("failed to sample a point with distinct eigenvalues")


def _random_r_singular_point(n, seed, *key):
    """Random point with a +/-a eigenvalue pair, where the R image is proper.

    At points with all eigenvalue sums nonzero the map A -> A o xi is
    invertible and D_R fills the tangent space, so non-involutivity can only
    be witnessed on this stratum.  Eigenvalues remain pairwise distinct.
    """
    rng = make_rng(seed, *key)
    a = rng.uniform(0.5, 1.5)
    spectrum = [a, -a] + [a * (2.0 + j) + rng.uniform(0.0, 0.5) for j in range(n - 2)]
    u = unitary_from_seed(n, seed, *key, 1)
    return u @ np.diag(np.array(spectrum, dtype=complex)) @ u.conj().T


def unitary_from_seed(n, seed, *key) -> np.ndarray:
    """Seeded random unitary: exp(-iH) for a random Hermitian H."""
    return unitary_exp(random_hermitian(n, seed, *key), 1.0)


def _commutator_value(kind, xi, a, b):
    """Closed-form value at xi of the commutator of two spanning fields.

    Lambda and R are spanned by the linear fields xi -> jhat(xi, A) and
    xi -> rhat(xi, A); the commutator of linear fields is algebraic.
    Zero is spanned by the quadratic fields xi -> [A, xi^2]_- / 2, whose
    derivative along eta is [A, xi eta + eta xi]_- / 2.
    """
    if kind == "Lambda":
        return jhat(jhat(xi, a), b) - jhat(jhat(xi, b), a)
    if kind == "R":
        return rhat(rhat(xi, a), b) - rhat(rhat(xi, b), a)
    if kind == "Zero":
        def q(m):
            return lie_bracket(m, xi @ xi) / 2

        def dq(m, eta):
            return lie_bracket(m, xi @ eta + eta @ xi) / 2

        return dq(b, q(a)) - dq(a, q(b))
    raise ValueError(kind)


def _involutivity_inputs(kind, n, seed, k):
    """Trial k's point and observable pair, from the (seed, k, ...) substreams."""
    if kind == "R":
        xi = _random_r_singular_point(n, seed, k, 0)
    else:
        xi = _random_generic_point(n, seed, k, 0)
    return xi, random_hermitian(n, seed, k, 1), random_hermitian(n, seed, k, 2)


def involutivity_evidence(
    kind: str,
    n: int,
    trials: int,
    seed: int,
    tol: float = 1e-9,
) -> VerificationReport:
    """Sampled involutivity evidence for one distribution.

    Lambda, Zero, One: all commutator values project into the pointwise
    subspace within tol.  R: the report instead records the best witness of
    non-involutivity, passing when its residual exceeds 10*tol.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")

    def trial(k):
        xi, a, b = _involutivity_inputs(kind, n, seed, k)
        dist = distribution_basis(xi, kind)
        if kind == "One":
            values = [
                _commutator_value("Lambda", xi, a, b),
                _commutator_value("R", xi, a, b),
                rhat(jhat(xi, a), b) - jhat(rhat(xi, b), a),  # mixed pair
            ]
        else:
            values = [_commutator_value(kind, xi, a, b)]
        # np.max, unlike max(), propagates a NaN residual
        return {f"commutators_tangent_to_D_{kind}":
                np.max([membership_residual(v, dist) for v in values])}

    report = run_suite(f"involutivity evidence: D_{kind}", trials, seed, tol, trial,
                       details={"dim": n, "kind": kind})
    if kind == "R":
        best = report.checks[0]
        res, k = best.max_residual, best.worst_trial
        xi, a, b = _involutivity_inputs(kind, n, seed, k)
        # passes when a witness with residual > 10*tol was found
        report.checks.clear()
        report.add("non_involutivity_witness_found", 0.0 if res > 10 * tol else float("inf"),
                   worst_trial=k)
        report.details["witness_residual"] = res
        report.details["witness_matrices"] = {
            "xi_real": xi.real.tolist(),
            "xi_imag": xi.imag.tolist(),
            "a_real": a.real.tolist(),
            "a_imag": a.imag.tolist(),
            "b_real": b.real.tolist(),
            "b_imag": b.imag.tolist(),
        }
    return report


def orbit_invariants(xi, tol: float = TAU_RANK) -> dict:
    """Unitary-orbit label (spectrum) and GL-orbit label (rank, signature)."""
    xi = require_same_dim(xi)[0]
    w = eig_hermitian(xi).eigenvalues
    cutoff = tol * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    npos = int(np.sum(w > cutoff))
    nneg = int(np.sum(w < -cutoff))
    return {
        "spectrum": w,
        "rank": npos + nneg,
        "signature": npos - nneg,
    }
