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
with cut = TAU_RANK * max_i |lam_i|, so the masks at c xi, c > 0, are those at
xi.  One eigendecomposition gives all four exactly, and since conjugation by
V preserves the trace form, the orthogonal projection onto a distribution is
a mask on V^dag v V.

Involutivity is sampled evidence: the distributions are spanned by global
polynomial vector fields whose commutators have closed forms, and the
commutator values are tested for pointwise membership at random points.
One pass serves the four kinds, and each chunk of trials draws its pairs
once.  Every point is a dense diag(lam), its spectrum drawn by a rule that
fixes which eigenvalue sums and differences vanish, so membership is a
masked norm and a product with the point is a row or column scaling.  The
tensors and masks are U(n)-covariant and the pairs' law is unitarily
invariant, so this is the law of the evidence at V diag(lam) V^dag.
"""

from __future__ import annotations

import numpy as np

from .algebra import diagonal_pair, jordan_part, lie_part, pair
from .kernel import (eig_hermitian, frobenius, random_hermitian_stack, relative,
                     require_matrix, require_observable, scalar_or_stack)
from .report import Suite, VerificationReport, replay

TAU_RANK = 1e-8


def commutation_defect(xi, a):
    """Residual of jhat o rhat = rhat o jhat = (1/2)[A, xi^2]_-; NaN stays NaN."""
    p = pair(a, xi)
    jr = lie_part(pair(jordan_part(p), xi))  # jhat(xi, rhat(xi, a))
    rj = jordan_part(pair(lie_part(p), xi))  # rhat(xi, jhat(xi, a))
    closed = lie_part(pair(a, xi @ xi)) / 2
    return scalar_or_stack(np.maximum(frobenius(jr - rj), frobenius(jr - closed)))


def _commutation_residuals(xi, a) -> dict:
    size = frobenius(a) * frobenius(xi) ** 2
    return {"jhat_rhat_commutation": relative(commutation_defect(xi, a), size)}


COMMUTATION = Suite("tensor commutation relation", {"xi": (10, random_hermitian_stack),
                                                    "a": (11, random_hermitian_stack)},
                    _commutation_residuals)


KINDS = ("Lambda", "R", "Zero", "One")


def _rank_cutoff(eigenvalues):
    """TAU_RANK * max |lam|: spectral quantities at or below it count as 0."""
    return TAU_RANK * np.max(np.abs(eigenvalues), axis=-1, initial=0.0)


def _pair_masks(w) -> dict:
    """The four kinds' pair masks for eigenvalues w (..., n), in KINDS order."""
    cut = _rank_cutoff(w)[..., None, None]
    lam = np.abs(w[..., :, None] - w[..., None, :]) > cut
    r = np.abs(w[..., :, None] + w[..., None, :]) > cut
    return {"Lambda": lam, "R": r, "Zero": lam & r, "One": lam | r}


def membership_residual(vector, mask):
    """Relative distance of a tangent vector from a distribution (0 for 0).

    The vector is taken at a diagonal point, or written in the point's
    eigenframe, and the mask is the distribution's from ``_pair_masks``.
    """
    return relative(frobenius(vector * ~mask), frobenius(vector))


def _diagonal_points(spectrum):
    """The dense points diag(lam) of spectrum rows lam (m, n)."""
    return np.where(np.eye(spectrum.shape[-1], dtype=bool), spectrum[..., None, :], 0.0)


def _generic_spectra(n, m, rng):
    """The next m spectra |lam_j| = j + 1 + u_j/2 with random signs, one (2, n) uniform row each.

    Distinct, nonzero and free of +/- pairs by construction: every |lam_i +/- lam_j|, i != j,
    is at least 1/2.
    """
    u = rng.random((m, 2, n))
    return np.where(u[:, 1] < 0.5, -1.0, 1.0) * (np.arange(1.0, n + 1) + 0.5 * u[:, 0])


def _r_spectra(n, m, rng):
    """The next m spectra with a +/-a pair, where the R image is proper; one row of n - 1 uniforms.

    At points with all eigenvalue sums nonzero the map A -> A o xi is
    invertible and D_R fills the tangent space, so non-involutivity can only
    be witnessed on this stratum.  Each row gives a in [0.5, 1.5), the
    eigenvalues a and -a at columns 0 and 1, and the offsets in [0, 0.5) of
    the other n - 2; all n stay pairwise distinct.
    """
    u = rng.random((m, n - 1))
    a = 0.5 + u[:, :1]
    return np.concatenate([a, -a, a * (2.0 + np.arange(n - 2)) + 0.5 * u[:, 1:]], axis=1)


def _commutator_value(kind, xi, a, b):
    """Closed-form value at a diagonal point xi of the commutator of two spanning fields.

    Lambda and R are spanned by the linear fields xi -> jhat(xi, A) and
    xi -> rhat(xi, A); the commutator of linear fields is algebraic.
    Zero is spanned by the quadratic fields xi -> [A, xi^2]_- / 2, whose
    derivative along eta is [A, xi eta + eta xi]_- / 2.
    """
    if kind == "Lambda":  # jhat(jhat(xi, a), b) - jhat(jhat(xi, b), a)
        return (lie_part(pair(b, lie_part(diagonal_pair(a, xi))))
                - lie_part(pair(a, lie_part(diagonal_pair(b, xi)))))
    if kind == "R":  # rhat(rhat(xi, a), b) - rhat(rhat(xi, b), a)
        return (jordan_part(pair(b, jordan_part(diagonal_pair(a, xi))))
                - jordan_part(pair(a, jordan_part(diagonal_pair(b, xi)))))

    lam = np.diagonal(xi, axis1=-2, axis2=-1)  # Zero
    xi2 = _diagonal_points(lam * lam)  # xi @ xi

    def q(m):
        return lie_part(diagonal_pair(m, xi2)) / 2

    def dq(m, eta):
        p = diagonal_pair(eta, xi)
        return lie_part(pair(m, p.ba + p.ab)) / 2  # xi eta + eta xi

    return dq(b, q(a)) - dq(a, q(b))


def _involutivity_residuals(spectrum, r_spectrum, a, b) -> dict:
    zero_spectrum = np.where(np.arange(spectrum.shape[-1]) == 0, 0.0, spectrum)
    masks, one_mask = _pair_masks(spectrum), _pair_masks(zero_spectrum)["One"]
    xi, xi0 = _diagonal_points(spectrum), _diagonal_points(zero_spectrum)
    a0, b0 = diagonal_pair(a, xi0), diagonal_pair(b, xi0)
    ja, rb = lie_part(a0), jordan_part(b0)  # jhat(xi0, a) and rhat(xi0, b)
    b_ja, a_rb = pair(b, ja), pair(a, rb)  # the pairs that the One values share
    one = [lie_part(b_ja) - lie_part(pair(a, lie_part(b0))),  # the Lambda pair's value
           jordan_part(pair(b, jordan_part(a0))) - jordan_part(a_rb),  # the R pair's
           jordan_part(b_ja) - lie_part(a_rb)]  # the mixed pair's: rhat(ja, b) - jhat(rb, a)
    return {  # np.max, unlike max(), propagates a NaN residual
        "commutators_tangent_to_D_Lambda":
            membership_residual(_commutator_value("Lambda", xi, a, b), masks["Lambda"]),
        "commutators_tangent_to_D_R": membership_residual(
            _commutator_value("R", _diagonal_points(r_spectrum), a, b),
            _pair_masks(r_spectrum)["R"]),
        "commutators_tangent_to_D_Zero":
            membership_residual(_commutator_value("Zero", xi, a, b), masks["Zero"]),
        "commutators_tangent_to_D_One":
            np.max([membership_residual(v, one_mask) for v in one], axis=0),
    }


def _kind_reports(row: Suite, n: int, report: VerificationReport) -> list[VerificationReport]:
    """The row's one report as the four kinds' reports, in KINDS order, with the R witness;
    its matrices are the inputs of the R check's worst trial, replayed from ``row``."""
    reports = [VerificationReport(f"involutivity evidence: D_{kind}", report.seed, report.trials,
                                  report.tol, [check], {"dim": n, "kind": kind})
               for kind, check in zip(KINDS, report.checks)]
    best = reports[1].checks.pop()
    res, k = best.max_residual, best.worst_trial
    # passes when a witness with residual > 10*tol was found
    reports[1].add("non_involutivity_witness_found", 0.0 if res > 10 * report.tol else float("inf"),
                   worst_trial=k)
    reports[1].details["witness_residual"] = res
    rows = replay(row, n, report.seed, k)
    reports[1].details["witness_matrices"] = {  # xi_real, xi_imag, a_real, ..., b_imag
        f"{name}_{part}": getattr(m[0], part).tolist()
        for name, m in zip(("xi", "a", "b"),
                           (_diagonal_points(rows["r_spectrum"]), rows["a"], rows["b"]))
        for part in ("real", "imag")}
    return reports


# Sampled involutivity evidence, verify_row's four reports in KINDS order: Lambda, Zero and One
# (generic spectra; for One, lam_0 set to exactly 0 so D_One is proper) pass when every commutator
# value lies in the distribution within tol, R when its witness at ``_r_spectra`` exceeds 10*tol.
INVOLUTIVITY = Suite("involutivity evidence",
                     {"spectrum": (5, _generic_spectra), "r_spectrum": (3, _r_spectra),
                      "a": (1, random_hermitian_stack), "b": (2, random_hermitian_stack)},
                     _involutivity_residuals, min_dim=2, split=_kind_reports)


def orbit_invariants(xi) -> dict:
    """Unitary-orbit labels (spectrum, distribution ranks) and GL-orbit label (rank, signature).

    The four distributions' ranks, in KINDS order, are functions of the
    spectrum, so one eigendecomposition gives every label.
    """
    return _orbit_invariants(require_matrix(require_observable(xi, "the point")))


def _orbit_invariants(xi) -> dict:
    """``orbit_invariants`` of one observable matrix, already checked."""
    w = eig_hermitian(xi).eigenvalues
    cutoff = _rank_cutoff(w)
    npos = int(np.sum(w > cutoff))
    nneg = int(np.sum(w < -cutoff))
    return {
        "spectrum": w,
        "ranks": {kind: int(mask.sum()) for kind, mask in _pair_masks(w).items()},
        "rank": npos + nneg,
        "signature": npos - nneg,
    }
