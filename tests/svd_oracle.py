"""SVD reference for the four distributions, used to check the closed form.

The (1,1)-tensors jhat_xi and rhat_xi are written as n^2 x n^2 real matrices
in an orthonormal Gell-Mann basis of the Hermitian matrices, and each
distribution is read off as an image: Lambda and R from the singular value
decomposition of one map, One from the span of both images, Zero from the
null space of [U_Lambda, -U_R].  Nothing here touches an eigendecomposition
of xi; the rank cutoff uses the spectral norm ||xi||_2 from an SVD, on the
same scale tol * ||xi||_2 as the closed form.
"""

import math

import numpy as np

from geomqm.distributions import TAU_RANK

# principal-angle cutoff for spans and intersections of orthonormal columns
SUBSPACE_TOL = 1e-6


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
    """Real coordinates <e_k, M>; a stack (..., n, n) gives (..., k)."""
    return np.einsum("kij,...ji->...k", np.asarray(basis), m).real / 2


def devectorize(coords, basis) -> np.ndarray:
    """Sum_k c_k e_k; coordinates (..., k) give matrices (..., n, n)."""
    return np.tensordot(coords, np.asarray(basis), axes=(-1, 0))


def map_matrix(xi, basis):
    """Coordinate matrices of jhat_xi and rhat_xi; column k is the image of e_k."""
    ex, xe = basis @ xi, xi @ basis
    return vectorize(-1j * (ex - xe), basis).T, vectorize((ex + xe) / 2, basis).T


def image_columns(mat, cut):
    """Orthonormal columns spanning the left singular vectors with s > cut."""
    u, s, _ = np.linalg.svd(mat)
    return u[:, : int(np.sum(s > cut))]


def distribution_columns(xi, kind, tol=TAU_RANK):
    """Orthonormal coordinate columns (n^2, rank) of one distribution at xi.

    The R map is doubled so that its singular values are |lam_i + lam_j|,
    the quantity the closed form compares with the cutoff.
    """
    xi = np.asarray(xi, dtype=complex)
    basis = hermitian_basis(xi.shape[0])
    mj, mr = map_matrix(xi, basis)
    cut = tol * float(np.linalg.norm(xi, 2))
    uj, ur = image_columns(mj, cut), image_columns(2 * mr, cut)
    if kind == "Lambda":
        return uj
    if kind == "R":
        return ur
    if kind == "One":
        return image_columns(np.hstack([uj, ur]), SUBSPACE_TOL)
    if kind == "Zero":
        # x = UJ a = UR b: null space of [UJ, -UR] yields the intersection
        stacked = np.hstack([uj, -ur])
        _, s, vh = np.linalg.svd(stacked)
        null = np.concatenate([s <= SUBSPACE_TOL, np.ones(vh.shape[0] - s.size, dtype=bool)])
        return image_columns(uj @ vh[null].T[: uj.shape[1]], SUBSPACE_TOL)
    raise ValueError(kind)


def basis_matrices(xi, kind, tol=TAU_RANK) -> np.ndarray:
    """Orthonormal basis (rank, n, n) of one distribution at xi."""
    n = np.asarray(xi).shape[0]
    return devectorize(distribution_columns(xi, kind, tol).T, hermitian_basis(n))


def project(vectors, xi, kind, tol=TAU_RANK) -> np.ndarray:
    """Orthogonal projection of a stack of Hermitian matrices onto a distribution."""
    basis = hermitian_basis(np.asarray(xi).shape[0])
    cols = distribution_columns(xi, kind, tol)
    return devectorize(vectorize(vectors, basis) @ cols @ cols.T, basis)
