"""Turn a posterior matrix estimate into an SGD pre-conditioner.

The estimate's low-rank part is compressed to its top-k spectral
directions U, sigma.  The pre-conditioner

    P = alpha * (I + U (beta / sqrt(sigma) - 1) U.T)

rescales curvature along U to a flat level beta^2 while the global
factor alpha^2 = sigma_1 / sigma_k stretches the step on everything
else by the measured conditioning improvement.  The optimizer applies
P^2 to each gradient, which costs O(N k).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import thin_svd_product

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpectralApprox:
    """Top-k spectral directions of the estimated curvature: B ~ U diag(sigma) U.T."""

    U: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if U.ndim != 2 or sigma.ndim != 1 or U.shape[1] != sigma.shape[0]:
            raise ValueError(f"inconsistent shapes: U {U.shape}, sigma {sigma.shape}")
        k = sigma.size
        if k:
            if np.any(sigma <= 0):
                raise ValueError("sigma entries must be positive")
            if np.any(np.diff(sigma) > 0):
                raise ValueError("sigma must be sorted descending")
            gram_err = np.linalg.norm(U.T @ U - np.eye(k))
            if gram_err > 1e-8:
                raise ValueError(f"U columns are not orthonormal (||U.T U - I|| = {gram_err:.3e})")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "sigma", sigma)

    @property
    def k(self) -> int:
        return self.sigma.size

    @property
    def n(self) -> int:
        return self.U.shape[0]


@dataclass(frozen=True)
class Preconditioner:
    spectral: SpectralApprox
    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta!r}")


def reduce_rank(post, k: int) -> SpectralApprox:
    """Compress the posterior's low-rank part to its top-k left directions.

    ``post`` is an ``IncrementalPosterior``; its ``grams`` supplies the
    factors' m x m Gram matrices and the product with A.  The thin SVD of ``A @ C.T``
    (``linalg.thin_svd_product``: no QR, the N x N product never
    formed) forms only the k leading left singular vectors, and they are
    kept with their values.  From the probe buffers that costs one
    blocked O(N m^2) pass over Delta for ``A.T A`` and one N x m by
    m x k GEMM, and no N x m factor is copied.  The leading values carry
    the Gram method's smallest error, about eps * (sigma_1 / sigma_k)^2
    relative.  If the requested rank runs into numerically zero singular
    values (below ``1e-12 * sigma_1``) the rank is reduced to the
    numerical rank with a warning rather than inverting noise.

    The two cuts do different jobs.  ``linalg.GRAM_RTOL`` acts on each
    factor: directions of A or C below about 3e-7 of their largest
    singular value never reach the core SVD and show here as zeros.
    This cut acts on the product, whose condition number can reach the
    product of the factors' (up to 1e13), and keeps the rank from
    running into values at the core SVD's rounding level, about
    eps * sigma_1.  It stays
    at 1e-12: no test needs it moved, and raising it to sigma_1 / 670,
    where the Gram method's error reaches 1e-10, would clip ranks that a
    Householder reduction keeps.
    """
    if not 1 <= k <= post.m:
        raise ValueError(f"rank k must be in [1, {post.m}], got {k}")
    U, sigma = thin_svd_product(*post.grams(), keep=k)
    if sigma[0] == 0:
        effective = 0
    else:
        effective = int(np.sum(sigma > 1e-12 * sigma[0]))
    if k > effective:
        log.warning("requested rank %d exceeds numerical rank %d; reducing", k, effective)
        k = effective
    # a contiguous copy when the rank was clipped: the strided U[:, :k] view
    # of a wider U makes every apply_p_squared several times slower at large N
    return SpectralApprox(U=np.ascontiguousarray(U[:, :k]), sigma=sigma[:k])


def build(spectral: SpectralApprox, beta: float = 1.0, base_lr: float = 1.0):
    """Assemble the pre-conditioner and hand back the loop learning rate.

    ``alpha^2`` is the ratio of the largest to the smallest retained
    value, ``sigma_1 / sigma_k`` (1 when fewer than two directions are
    kept).  The returned learning rate is ``base_lr`` unchanged: the
    conditioning-improvement factor is applied exactly once, inside
    ``P^2``, never a second time on the step length.
    """
    if spectral.k <= 1:
        alpha = 1.0
    else:
        alpha = float(np.sqrt(spectral.sigma[0] / spectral.sigma[-1]))
    return Preconditioner(spectral=spectral, alpha=alpha, beta=beta), base_lr


def apply_p_squared(precond: Preconditioner, g):
    """Apply ``P^2`` to a gradient in O(N k).

    Expanding P^2 with orthonormal U:

        P^2 g = alpha^2 * (g + U diag(beta^2 / sigma - 1) (U.T g))

    so the complement of span(U) is scaled by alpha^2 alone, and each
    retained direction by alpha^2 * beta^2 / sigma_i.  U is read twice.
    """
    g = np.asarray(g, dtype=float)
    sp = precond.spectral
    a2 = precond.alpha ** 2
    if sp.k == 0:
        return a2 * g
    t = sp.U.T @ g
    return a2 * (g + sp.U @ ((precond.beta ** 2 / sp.sigma - 1.0) * t))


def precond_to_dict(precond: Preconditioner) -> dict:
    sp = precond.spectral
    return {
        "kind": "preconditioner",
        "n": sp.n,
        "k": sp.k,
        "alpha": precond.alpha,
        "beta": precond.beta,
        "sigma": sp.sigma.tolist(),
        "U": sp.U.ravel().tolist(),
    }

