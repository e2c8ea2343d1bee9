"""Dense linear-algebra kernels for the low-rank curvature machinery.

Everything in here operates on matrices that are either small (m x m with
m at most a few dozen) or tall and skinny (N x m), so cubic work on the
small dimension is always acceptable.  The one thing none of these
routines may do is materialize an N x N matrix.
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


def thin_svd_product(A, C):
    """Thin SVD of ``A @ C.T`` without forming the N x N product.

    ``A`` and ``C`` are N x m with m <= N.  QR-factor both, run a dense
    SVD on the m x m core ``Ra @ Rc.T``, and rotate A's orthonormal QR
    basis by the core's left singular vectors.  Only the R factor of C
    is formed, because the right singular vectors are not returned.
    Total cost O(N m^2).

    Returns
    -------
    U : (N, m) array
        Left singular vectors, orthonormal columns.
    sigma : (m,) array
        Singular values, descending and non-negative.  Rank-deficient
        input simply yields trailing zeros.
    """
    n, m = A.shape
    if m == 0:
        return np.zeros((n, 0)), np.zeros(0)
    Qa, Ra = np.linalg.qr(A)
    Rc = np.linalg.qr(C, mode="r")
    u, sigma, _ = np.linalg.svd(Ra @ Rc.T)
    return Qa @ u, sigma


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
