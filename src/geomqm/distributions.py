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
with cut = TAU_RANK * max(1, max_i |lam_i|).  One eigendecomposition gives all
four exactly, and since conjugation by V preserves the trace form, the
orthogonal projection onto a distribution is a mask on V^dag v V.

Involutivity is sampled evidence: the distributions are spanned by global
polynomial vector fields whose commutators have closed forms, and the
commutator values are tested for pointwise membership at random points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import jordan_product, lie_bracket
from .kernel import (
    TAU_HERMITIAN,
    dagger,
    eig_hermitian,
    frobenius,
    is_hermitian,
    make_rng,
    random_hermitian_stack,
    require_same_dim,
    require_square,
    scalar_or_stack,
    unitary_exp,
)
from .report import VerificationReport, run_suite

TAU_RANK = 1e-8
GENERIC_GAP = 1e-6  # least eigenvalue spacing of a sampled generic point
GENERIC_ATTEMPTS = 100


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
    xi_rng, a_rng = make_rng(seed, 10), make_rng(seed, 11)

    def trial(ks):
        xi = random_hermitian_stack(n, len(ks), xi_rng)
        a = random_hermitian_stack(n, len(ks), a_rng)
        scale = np.maximum(1.0, frobenius(a) * frobenius(xi) ** 2)
        return {"jhat_rhat_commutation": commutation_defect(xi, a) / scale}

    return run_suite("tensor commutation relation", n, trials, seed, tol, trial)


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
    if not np.all(is_hermitian(xi, TAU_HERMITIAN)):
        raise ValueError("the point must be a finite Hermitian matrix")
    return xi


def _rank_cutoff(eigenvalues):
    """TAU_RANK * max(1, max |lam|): spectral quantities at or below it count as 0."""
    return TAU_RANK * np.maximum(1.0, np.max(np.abs(eigenvalues), axis=-1, initial=0.0))


def distribution_basis(xi, kind: str) -> DistributionBasis:
    """Eigenframe and pair mask of one of the four distributions at xi (or a stack).

    Eigenvalue sums and differences at or below _rank_cutoff count as zero.
    """
    xi = _hermitian_point(xi)
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    dec = eig_hermitian(xi)
    w = dec.eigenvalues
    cut = _rank_cutoff(w)[..., None, None]
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


def _has_distinct_eigenvalues(xi):
    return np.min(np.diff(eig_hermitian(xi).eigenvalues, axis=-1), axis=-1) > GENERIC_GAP


def _random_generic_points(n, ks, rng, seed, *key):
    """Points of trials ks with pairwise distinct eigenvalues, off the degenerate strata.

    Trial k's point is the next row of rng, the substream (seed, *key).  A
    row without distinct eigenvalues is redrawn from its rejection substream
    (seed, *key, k), row after row, up to GENERIC_ATTEMPTS draws in all.
    """
    xi = random_hermitian_stack(n, len(ks), rng)
    rejected = np.flatnonzero(~_has_distinct_eigenvalues(xi))
    redraws = [make_rng(seed, *key, k) for k in ks[rejected]]
    for _ in range(GENERIC_ATTEMPTS - 1):
        if rejected.size == 0:
            break
        xi[rejected] = np.concatenate([random_hermitian_stack(n, 1, r) for r in redraws])
        still = ~_has_distinct_eigenvalues(xi[rejected])
        rejected, redraws = rejected[still], [r for r, s in zip(redraws, still) if s]
    if rejected.size:
        raise RuntimeError("failed to sample a point with distinct eigenvalues")
    return xi


def _random_r_singular_points(n, m, spectrum_rng, frame_rng):
    """The next m random points with a +/-a eigenvalue pair, where the R image is proper.

    At points with all eigenvalue sums nonzero the map A -> A o xi is
    invertible and D_R fills the tangent space, so non-involutivity can only
    be witnessed on this stratum.  Eigenvalues remain pairwise distinct.
    Each point takes one uniform row of n - 1 numbers from spectrum_rng, a
    in [0.5, 1.5) and the offsets in [0, 0.5) of the other n - 2
    eigenvalues, and its eigenframe exp(-iH) from the next Hermitian row H
    of frame_rng.
    """
    u = spectrum_rng.random((m, n - 1))
    a = 0.5 + u[:, :1]
    spectrum = np.concatenate([a, -a, a * (2.0 + np.arange(n - 2)) + 0.5 * u[:, 1:]], axis=1)
    v = unitary_exp(random_hermitian_stack(n, m, frame_rng), 1.0)
    return (v * spectrum[:, None, :]) @ dagger(v)


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


def _involutivity_inputs(kind, n, seed):
    """``draw(ks)``: stacked points and observable pairs of the next trials ks.

    Each input has one substream, made here once: the point (seed, 0), with
    the R point's eigenframe from (seed, 0, 1), and the pair (seed, 1), (seed, 2).
    """
    point_rng, a_rng, b_rng = (make_rng(seed, key) for key in range(3))
    frame_rng = make_rng(seed, 0, 1) if kind == "R" else None

    def draw(ks):
        m = len(ks)
        if kind == "R":
            xi = _random_r_singular_points(n, m, point_rng, frame_rng)
        else:
            xi = _random_generic_points(n, ks, point_rng, seed, 0)
        return xi, random_hermitian_stack(n, m, a_rng), random_hermitian_stack(n, m, b_rng)

    return draw


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

    draw = _involutivity_inputs(kind, n, seed)

    def trial(ks):
        xi, a, b = draw(ks)
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
        replay = _involutivity_inputs(kind, n, seed)(np.arange(k + 1))  # row k is trial k
        report.details["witness_matrices"] = {  # xi_real, xi_imag, a_real, ..., b_imag
            f"{name}_{part}": getattr(m[k], part).tolist()
            for name, m in zip(("xi", "a", "b"), replay) for part in ("real", "imag")}
    return report


def orbit_invariants(xi) -> dict:
    """Unitary-orbit label (spectrum) and GL-orbit label (rank, signature)."""
    xi = _hermitian_point(xi)
    w = eig_hermitian(xi).eigenvalues
    cutoff = _rank_cutoff(w)
    npos = int(np.sum(w > cutoff))
    nneg = int(np.sum(w < -cutoff))
    return {
        "spectrum": w,
        "rank": npos + nneg,
        "signature": npos - nneg,
    }
