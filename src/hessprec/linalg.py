"""Dense linear-algebra kernels for the low-rank curvature machinery.

Everything in here operates on matrices that are either small (m x m with
m at most a few dozen) or tall and skinny (N x m), so cubic work on the
small dimension is always acceptable.  The one thing none of these
routines may do is materialize an N x N matrix.  Work on the tall
factors is matrix products only (O(N m^2) GEMMs, no QR): the thin SVD
of a factored product is taken from the factors' m x m Gram matrices
(CholeskyQR2, see ``thin_svd_product``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SolveFailure(RuntimeError):
    """A linear solve failed for numerical reasons (singular operator)."""


@dataclass(frozen=True)
class GeneralizedEigenResult:
    """Solution of ``G v = t R v``: values descending, vectors R-orthonormal."""

    values: np.ndarray
    vectors: np.ndarray


def _require_symmetric(M, name, tol):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    scale = np.linalg.norm(M)
    asym = np.linalg.norm(M - M.T)
    if asym > tol * max(scale, 1.0):
        raise ValueError(
            f"{name} is not symmetric: ||M - M.T|| = {asym:.3e} exceeds "
            f"{tol:.1e} * max(||M||, 1) = {tol * max(scale, 1.0):.3e}"
        )
    return 0.5 * (M + M.T)


def sym_eig(M, tol=1e-10):
    """Eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    M : (m, m) array
        Symmetric input.  Asymmetry beyond ``tol`` relative to the norm
        of M is rejected with a diagnostic.

    Returns
    -------
    values : (m,) array
        Eigenvalues sorted in descending order.  Ties keep the order the
        underlying factorization produced (stable sort).
    vectors : (m, m) array
        Orthonormal eigenvectors, column i pairing with ``values[i]``.
    """
    M = _require_symmetric(M, "matrix", tol)
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


# A Cholesky pivot is accepted when it keeps more than this share of its
# diagonal entry: pivot^2 > PIVOT_RTOL * M_kk.  For the Gram matrix of
# exact probe products that asks for an out-of-span share ||s_perp|| / ||s||
# above 1e-6, a level the Cholesky factor still resolves above rounding.
PIVOT_RTOL = 1e-12


def cho_solve(L, B):
    """Solve ``L L.T X = B`` for a lower-triangular factor L."""
    return np.linalg.solve(L.T, np.linalg.solve(L, B))


def cholesky_row(L, b, c):
    """Row k of the Cholesky factor of M from row k of M: ``M[k, :k] = b``, ``M[k, k] = c``.

    ``L`` is the factor of the leading k x k block.  A sub-threshold
    pivot (see ``PIVOT_RTOL``) names column k as dependent.
    """
    k = b.size
    l = np.linalg.solve(L, b) if k else b
    p2 = c - l @ l
    if not p2 > PIVOT_RTOL * c:
        raise ValueError(
            f"column {k} is linearly dependent on earlier columns or the matrix is not "
            f"positive definite (Cholesky pivot {k}: pivot^2 {p2:.3e} <= "
            f"{PIVOT_RTOL:g} * {c:.3e})"
        )
    return np.append(l, np.sqrt(p2))


def cholesky(M):
    """Lower Cholesky factor of the symmetric M, built row by row with ``cholesky_row``."""
    L = np.zeros_like(M)
    for k in range(M.shape[0]):
        L[k, :k + 1] = cholesky_row(L[:k, :k], M[k, :k], M[k, k])
    return L


def generalized_sym_eig(G, R, tol=1e-10):
    """Solve the symmetric-definite pencil ``G v = t R v``.

    Works by Cholesky reduction: with ``R = L L.T`` the standard
    symmetric problem ``L^-1 G L^-T = Q diag(t) Q.T`` is solved, and the
    back-transformed vectors ``V = L^-T Q`` satisfy both ``G V = R V
    diag(t)`` and the conjugacy normalization ``V.T R V = I``.

    Parameters
    ----------
    G : (m, m) array
        Symmetric.
    R : (m, m) array
        Symmetric positive definite.  A failing Cholesky pivot is
        reported by index (see ``cholesky_row``).

    Returns
    -------
    GeneralizedEigenResult
        Values descending, vectors R-orthonormal.
    """
    G = _require_symmetric(G, "left-hand matrix", tol)
    R = _require_symmetric(R, "right-hand matrix", tol)
    if G.shape != R.shape:
        raise ValueError(f"pencil shapes differ: {G.shape} vs {R.shape}")
    L = cholesky(R)
    T = np.linalg.solve(L, G)
    M = np.linalg.solve(L, T.T).T  # L^-1 G L^-T
    vals, Q = sym_eig(0.5 * (M + M.T), tol=tol)
    V = np.linalg.solve(L.T, Q)
    return GeneralizedEigenResult(values=vals, vectors=V)


# A Gram eigenvalue counts only above this share of the largest one.
# Forming and diagonalizing X.T X leaves an absolute error of about
# eps * ||X||^2; for rank-deficient 1e5 x 64 factors the spurious
# eigenvalues measured 5e-17 of the largest, so the cut sits 2,000 times
# above that noise.  It keeps singular values of X down to
# sqrt(GRAM_RTOL) ~ 3e-7 of the largest, about 20 * sqrt(eps).
GRAM_RTOL = 1e-13


def _gram_root(G, name):
    """Eigenpairs ``(d, V)`` of the Gram matrix ``G = X.T X`` above the ``GRAM_RTOL`` cut,
    so ``G ~ V diag(d) V.T``."""
    if not np.all(np.isfinite(G)):
        raise SolveFailure(f"the Gram matrix of {name} is not finite")
    try:
        d, V = sym_eig(G)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"the Gram matrix of {name} has no eigendecomposition: {exc}") from exc
    keep = d > GRAM_RTOL * d[0]
    return d[keep], V[:, keep]


def thin_svd_product(gram_a, gram_c, mul_a, keep=None):
    """Thin SVD of ``A @ C.T`` from the factors' Gram matrices and one product with A.

    ``A`` and ``C`` are N x m with m <= N, and the caller passes what the
    method reads of them: the m x m Gram matrices ``gram_a = A.T A`` and
    ``gram_c = C.T C`` and a function ``mul_a`` with ``mul_a(X) = A @ X``
    for an m x r matrix X.  ``inference.IncrementalPosterior.grams``
    supplies these from its probe buffers without forming A or C as
    N x m arrays.  The method is
    CholeskyQR2 (Fukaya et al. 2014) applied as in randomized low-rank
    reduction (Halko, Martinsson & Tropp 2011):

    1. diagonalize ``A.T A = Va diag(da) Va.T`` and
       ``C.T C = Vc diag(dc) Vc.T``, dropping eigenvalues at or below
       ``GRAM_RTOL`` times the largest, so ``Ra = diag(sqrt(da)) Va.T``
       and ``Rc`` are square-root factors with ``A = Qa Ra``,
       ``C = Qc Rc`` and orthonormal ``Qa``, ``Qc`` that are never formed;
    2. run a dense SVD of the small core ``Ra Rc.T = u diag(sigma) v.T``;
    3. form only the kept columns, ``U = mul_a(Va diag(da)^-1/2 u[:, :keep])``;
    4. re-orthonormalize them with one Cholesky-QR pass,
       ``U.T U = R.T R`` and ``U <- U R^-1``, by a GEMM.

    Cost: O(m^3) on the Gram matrices, one ``mul_a`` call with keep
    columns (an N x m by m x keep GEMM for a held A) and the second
    pass's N x keep^2 Gram and product; no QR of an N x m matrix.

    Accuracy: the Gram matrices square the factors' condition numbers.
    Directions of A or C below sqrt(GRAM_RTOL) ~ 3e-7 of their largest
    singular value are dropped, a rank-deficient factor's null space
    included.  What is kept has condition number under 3e6, so the first
    pass's columns lose at most eps * 1e13 ~ 2e-3 of orthogonality and
    the second pass restores ``||U.T U - I||`` to about 1e-15.  A singular
    value sigma_i carries a relative error of up to about
    eps * (sigma_1 / sigma_i)^2, against eps * sigma_1 / sigma_i for
    Householder QR: 1e-10 at sigma_1 / 670, 2e-4 at sigma_1 / 1e6.
    ``reduce_rank`` keeps the leading values, where the two agree to
    about 1e-10.

    Parameters
    ----------
    keep : int, optional
        How many left singular vectors to form (all of them by default).

    Returns
    -------
    U : (N, r) array
        Leading left singular vectors, orthonormal columns; r is
        ``keep`` or the number of singular values the cut leaves,
        whichever is smaller.
    sigma : (m,) array
        Singular values, descending and non-negative.  Directions the
        Gram cut dropped yield trailing zeros.

    Raises
    ------
    SolveFailure
        If a Gram matrix is not finite or has no eigendecomposition, or
        the second-pass Cholesky factorization fails.
    """
    m = gram_a.shape[0]
    if m == 0:
        return mul_a(np.zeros((0, 0))), np.zeros(0)
    da, Va = _gram_root(gram_a, "A")
    dc, Vc = _gram_root(gram_c, "C")
    ra, rc = np.sqrt(da), np.sqrt(dc)
    u, sigma, _ = np.linalg.svd(ra[:, None] * (Va.T @ Vc) * rc)
    k = sigma.size if keep is None else min(keep, sigma.size)
    U = mul_a(Va @ (u[:, :k] / ra[:, None]))
    try:
        R = np.linalg.cholesky(U.T @ U).T
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"the kept singular vectors are numerically dependent: {exc}") from exc
    return U @ np.linalg.inv(R), np.concatenate([sigma, np.zeros(m - sigma.size)])


def woodbury_solve(b0, A, C, rhs):
    """Solve ``(b0 I + A C.T) x = rhs`` by the matrix-inversion lemma.

    ``A`` and ``C`` are N x m.  Only the m x m capacitance system
    ``(b0 I_m + C.T A)`` is ever factorized:

        x = (rhs - A (b0 I + C.T A)^-1 C.T rhs) / b0

    Raises
    ------
    SolveFailure
        If the capacitance matrix is singular (condition estimate is
        included in the message).
    """
    if not np.isfinite(b0) or b0 <= 0:
        raise ValueError(f"diagonal weight b0 must be positive and finite, got {b0!r}")
    rhs = np.asarray(rhs, dtype=float)
    m = A.shape[1]
    if m == 0:
        return rhs / b0
    t = solve_capacitance(b0 * np.eye(m) + C.T @ A, C.T @ rhs)
    return (rhs - A @ t) / b0


def solve_capacitance(cap, v):
    """Solve the m x m capacitance system ``cap t = v`` of a Woodbury solve.

    Raises ``SolveFailure`` when ``cap`` is numerically singular, that is
    when its condition number is not finite or exceeds 1e14.
    """
    cond = np.linalg.cond(cap)
    if not np.isfinite(cond) or cond > 1e14:
        raise SolveFailure(
            f"capacitance matrix is numerically singular (condition estimate {cond:.3e})"
        )
    return np.linalg.solve(cap, v)
