"""Closed-form distributions against the SVD oracle, over the spectral strata.

Points are built as U diag(scale * levels) U^dag from a seeded unitary.  The
levels are integers, or integers + 1/4 (then no two of them sum to 0 and
none is 0), so every |lam_i -+ lam_j| of the constructed spectrum is either
exactly 0 or at least scale / 2.  A draw is discarded only when such a
nonzero value lies within 1e-6 relative of the cutoff, where the rank is
decided by round-off.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomqm import distributions as dist
from geomqm.kernel import random_hermitian
from conftest import closed_form_projection, unitary_from_seed
import svd_oracle as oracle

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

dims = st.integers(2, 6)
scales = st.builds(lambda e, m: m * 10.0 ** e, st.sampled_from(range(-8, 8)), st.floats(1.0, 10.0))
seeds = st.integers(0, 2**16)


def shifted(ks):
    return [k + 0.25 for k in ks]


@st.composite
def generic(draw):
    n = draw(dims)
    return shifted(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True)))


@st.composite
def degenerate(draw):
    n = draw(dims)
    distinct = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=n - 1, unique=True))
    return shifted(draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n)))


@st.composite
def pm_pairs(draw):
    n = draw(dims)
    pairs = draw(st.lists(st.integers(1, 6), min_size=1, max_size=n // 2, unique=True))
    levels = [s * a for a in pairs for s in (1, -1)]
    return levels + draw(st.lists(st.integers(-6, 6), min_size=n - len(levels),
                                  max_size=n - len(levels)))


@st.composite
def singular(draw):
    n = draw(dims)
    zeros = draw(st.integers(1, n))
    return [0] * zeros + draw(st.lists(st.integers(-6, 6), min_size=n - zeros,
                                       max_size=n - zeros))


@st.composite
def pure(draw):
    return [1] + [0] * (draw(dims) - 1)


def build_point(levels, scale, seed):
    lam = scale * np.asarray(levels, dtype=float)
    u = unitary_from_seed(len(lam), seed)
    return (u * lam) @ u.conj().T, lam


def expected_ranks(lam):
    """Ranks from the constructed spectrum, pair by pair."""
    cut = dist.TAU_RANK * float(np.max(np.abs(lam)))
    diff = np.abs(lam[:, None] - lam[None, :])
    summ = np.abs(lam[:, None] + lam[None, :])
    values = np.concatenate([diff.ravel(), summ.ravel()])
    assume(not np.any((values > 0) & (np.abs(values - cut) <= 1e-6 * cut)))
    lam_mask, r_mask = diff > cut, summ > cut
    masks = {"Lambda": lam_mask, "R": r_mask, "Zero": lam_mask & r_mask, "One": lam_mask | r_mask}
    return {k: int(m.sum()) for k, m in masks.items()}


def check_against_oracle(xi, lam, seed):
    """Ranks, projectors and membership residuals of all four kinds."""
    n = len(lam)
    vectors = np.array([random_hermitian(n, seed, 1, k) for k in range(3)])
    norms = np.linalg.norm(vectors, axis=(1, 2))
    expected = expected_ranks(lam)
    for kind in dist.KINDS:
        d = dist.distribution_basis(xi)[kind]
        assert d.rank == expected[kind] == oracle.distribution_columns(xi, kind).shape[1], kind
        mine = closed_form_projection(vectors, d)
        ref = oracle.project(vectors, xi, kind)
        assert np.max(np.linalg.norm(mine - ref, axis=(1, 2)) / norms) <= 1e-12, kind
        residuals = np.linalg.norm(vectors - ref, axis=(1, 2)) / norms
        for vec, res in zip(vectors, residuals):
            assert abs(dist.membership_residual(vec, d) - res) <= 1e-12, kind
    return expected


@PROPERTY
@given(generic(), scales, seeds)
def test_generic_points(levels, scale, seed):
    xi, lam = build_point(levels, scale, seed)
    check_against_oracle(xi, lam, seed)


@PROPERTY
@given(degenerate(), scales, seeds)
def test_degenerate_points(levels, scale, seed):
    xi, lam = build_point(levels, scale, seed)
    ranks = check_against_oracle(xi, lam, seed)
    if scale / 2 > dist.TAU_RANK * float(np.max(np.abs(lam))):
        # every distinct pair of levels is resolved: rank D_Lambda = n^2 - sum m_j^2
        _, mult = np.unique(levels, return_counts=True)
        assert ranks["Lambda"] == len(levels) ** 2 - int(np.sum(mult ** 2))


@PROPERTY
@given(pm_pairs(), scales, seeds)
def test_plus_minus_pairs(levels, scale, seed):
    xi, lam = build_point(levels, scale, seed)
    check_against_oracle(xi, lam, seed)


@PROPERTY
@given(singular(), scales, seeds)
def test_singular_points(levels, scale, seed):
    xi, lam = build_point(levels, scale, seed)
    check_against_oracle(xi, lam, seed)


@PROPERTY
@given(pure(), scales, seeds)
def test_pure_states(levels, scale, seed):
    xi, lam = build_point(levels, scale, seed)
    check_against_oracle(xi, lam, seed)
