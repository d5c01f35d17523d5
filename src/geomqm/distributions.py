"""Pointwise distributions attached to the dual-space tensors.

The (1,1)-tensors at a point xi act on observables as
  jhat_xi(A) = [A, xi]_-        (image: the Lambda distribution)
  rhat_xi(A) = A o xi           (image: the R distribution)
with the intersection (Zero) and sum (One) built from the two images.

Both maps are diagonal in the eigenframe of xi = V diag(lam) V^dag.  On the
Hermitian matrices of V^dag . V supported on the matrix-unit pair {i, j},
jhat acts by -i(lam_j - lam_i) and rhat by (lam_i + lam_j)/2, so each
distribution is a coordinate subspace {V X V^dag : X[~mask] = 0} for a
boolean pair mask:
  Lambda: |lam_i - lam_j| > cut     R: |lam_i + lam_j| > cut
  Zero:   both                      One: either
with cut = tol * max(1, max_i |lam_i|).  One eigendecomposition gives all
four exactly, and since conjugation by V preserves the trace form, the
orthogonal projection onto a distribution is a mask on V^dag v V.

Involutivity is sampled evidence: the distributions are spanned by global
polynomial vector fields whose commutators have closed forms, and the
commutator values are tested for pointwise membership at random points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CONVENTIONS, jordan_product, lie_bracket
from .kernel import (
    dagger,
    eig_hermitian,
    frobenius,
    is_hermitian,
    make_rng,
    random_hermitian,
    random_hermitian_stack,
    require_same_dim,
    require_square,
    scalar_or_stack,
    unitary_exp,
)
from .report import VerificationReport, run_suite

TAU_RANK = 1e-8


def jhat(xi, a) -> np.ndarray:
    """[A, xi]_- : the Poisson tensor contracted with the hat differential."""
    return lie_bracket(a, xi)


def rhat(xi, a) -> np.ndarray:
    """A o xi : the Jordan tensor contracted with the hat differential."""
    return jordan_product(a, xi)


def commutation_defect(xi, a):
    """Residual of jhat o rhat = rhat o jhat = (1/2)[A, xi^2]_-; NaN stays NaN."""
    xi, a = require_same_dim(xi, a)
    jr = jhat(xi, rhat(xi, a))
    rj = rhat(xi, jhat(xi, a))
    closed = lie_bracket(a, xi @ xi) / 2
    return scalar_or_stack(np.maximum(frobenius(jr - rj), frobenius(jr - closed)))


def verify_commutation(n: int, trials: int, seed: int, tol: float = 1e-9) -> VerificationReport:
    """Scaled commutation defect of jhat and rhat at seeded random points."""

    def trial(ks):
        xi = random_hermitian_stack(n, seed, ks, 10)
        a = random_hermitian_stack(n, seed, ks, 11)
        scale = np.maximum(1.0, frobenius(a) * frobenius(xi) ** 2)
        return {"jhat_rhat_commutation": commutation_defect(xi, a) / scale}

    return run_suite("tensor commutation relation", n, trials, seed, tol, trial,
                     conventions=CONVENTIONS.to_dict())


KINDS = ("Lambda", "R", "Zero", "One")


@dataclass(frozen=True)
class DistributionBasis:
    """One distribution at a point, as a pair mask in the point's eigenframe.

    The distribution is {V X V^dag : X Hermitian, X[~mask] = 0}, where the
    columns of ``frame`` are the eigenvectors V of ``point``.  The mask is
    symmetric, so its number of True entries is the real dimension.
    """

    point: np.ndarray
    kind: str
    frame: np.ndarray  # (..., n, n)
    mask: np.ndarray  # (..., n, n) bool

    @property
    def rank(self):
        return scalar_or_stack(self.mask.sum(axis=(-2, -1)), int)


def _hermitian_point(xi) -> np.ndarray:
    xi = require_square(xi)
    if not np.all(is_hermitian(xi, 1e-8)):  # the tolerance cmd_distributions applies
        raise ValueError("the point must be a finite Hermitian matrix")
    return xi


def _rank_cutoff(eigenvalues, tol: float):
    """tol * max(1, max |lam|): spectral quantities at or below it count as 0."""
    return tol * np.maximum(1.0, np.max(np.abs(eigenvalues), axis=-1, initial=0.0))


def distribution_basis(xi, kind: str, tol: float = TAU_RANK) -> DistributionBasis:
    """Eigenframe and pair mask of one of the four distributions at xi (or a stack)."""
    xi = _hermitian_point(xi)
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    dec = eig_hermitian(xi)
    w = dec.eigenvalues
    cut = _rank_cutoff(w, tol)[..., None, None]
    lam = np.abs(w[..., :, None] - w[..., None, :]) > cut
    r = np.abs(w[..., :, None] + w[..., None, :]) > cut
    mask = {"Lambda": lam, "R": r, "Zero": lam & r, "One": lam | r}[kind]
    return DistributionBasis(point=xi, kind=kind, frame=dec.eigenvectors, mask=mask)


def membership_residual(vector, dist: DistributionBasis):
    """Relative distance of a tangent vector from the distribution subspace (0 for 0)."""
    v = dist.frame
    outside = frobenius((dagger(v) @ vector @ v) * ~dist.mask)
    norm = frobenius(vector)
    return scalar_or_stack(np.divide(outside, norm, out=np.zeros_like(outside),
                                     where=norm != 0.0))


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


def _involutivity_inputs(kind, n, seed, ks):
    """Stacked points and observable pairs of trials ks, from the (seed, k, ...) substreams."""
    point = _random_r_singular_point if kind == "R" else _random_generic_point
    xi = np.array([point(n, seed, k, 0) for k in ks])
    return xi, random_hermitian_stack(n, seed, ks, 1), random_hermitian_stack(n, seed, ks, 2)


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

    def trial(ks):
        xi, a, b = _involutivity_inputs(kind, n, seed, ks)
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
                np.max([membership_residual(v, dist) for v in values], axis=0)}

    report = run_suite(f"involutivity evidence: D_{kind}", n, trials, seed, tol, trial,
                       details={"dim": n, "kind": kind})
    if kind == "R":
        best = report.checks[0]
        res, k = best.max_residual, best.worst_trial
        # passes when a witness with residual > 10*tol was found
        report.checks.clear()
        report.add("non_involutivity_witness_found", 0.0 if res > 10 * tol else float("inf"),
                   worst_trial=k)
        report.details["witness_residual"] = res
        report.details["witness_matrices"] = {  # xi_real, xi_imag, a_real, ..., b_imag
            f"{name}_{part}": getattr(m[0], part).tolist()
            for name, m in zip(("xi", "a", "b"), _involutivity_inputs(kind, n, seed, [k]))
            for part in ("real", "imag")}
    return report


def orbit_invariants(xi, tol: float = TAU_RANK) -> dict:
    """Unitary-orbit label (spectrum) and GL-orbit label (rank, signature)."""
    xi = _hermitian_point(xi)
    w = eig_hermitian(xi).eigenvalues
    cutoff = _rank_cutoff(w, tol)
    npos = int(np.sum(w > cutoff))
    nneg = int(np.sum(w < -cutoff))
    return {
        "spectrum": w,
        "rank": npos + nneg,
        "signature": npos - nneg,
    }
