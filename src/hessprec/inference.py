"""Gaussian inference on a latent symmetric matrix from noisy projections.

The model: an unknown N x N matrix B is observed through products
``Y = B S + noise`` for a thin probe matrix S.  The prior mean is
``b0 * I``; prior covariance and observation noise are both scaled
identities (weights ``w0`` and ``lam0``), and the per-column noise
magnitude additionally carries the squared probe norm.  Under these
assumptions the posterior mean is ``b0 * I`` plus a rank-m correction
``A @ C.T`` that this module computes without ever forming an N x N
matrix.  ``IncrementalPosterior`` is the one posterior type: its probe
buffers take one probe at a time, in the probing loop and in
``infer_noisy`` and ``infer_noise_free`` alike.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SolveFailure, cho_solve, cholesky_row, solve_capacitance


@dataclass(frozen=True)
class MatrixPrior:
    """Prior over the latent matrix: mean ``b0 * I``, covariance weight w0."""

    b0: float
    w0: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.b0):
            raise ValueError(f"prior mean scale b0 must be finite, got {self.b0!r}")
        if not (np.isfinite(self.w0) and self.w0 > 0):
            raise ValueError(f"prior covariance weight w0 must be positive, got {self.w0!r}")
        if self.n < 1:
            raise ValueError(f"matrix dimension must be at least 1, got {self.n}")


@dataclass(frozen=True)
class NoiseModel:
    """Observation-noise weight; zero means exact products."""

    lam0: float

    def __post_init__(self):
        if not (np.isfinite(self.lam0) and self.lam0 >= 0):
            raise ValueError(f"noise weight lam0 must be non-negative, got {self.lam0!r}")


@dataclass(frozen=True)
class ObservationSet:
    """Probe directions S, observed products Y, per-column noise magnitudes."""

    S: np.ndarray
    Y: np.ndarray
    noise_diag: np.ndarray

    def __post_init__(self):
        S = np.atleast_2d(np.asarray(self.S, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        nd = np.atleast_1d(np.asarray(self.noise_diag, dtype=float))
        if S.shape != Y.shape:
            raise ValueError(f"probe and product shapes differ: {S.shape} vs {Y.shape}")
        if nd.shape != (S.shape[1],):
            raise ValueError(
                f"noise_diag must have one entry per probe column, got shape {nd.shape} "
                f"for {S.shape[1]} columns"
            )
        if np.any(nd < 0):
            raise ValueError("noise_diag entries must be non-negative")
        norms = np.linalg.norm(S, axis=0)
        zero = np.where(norms == 0)[0]
        if zero.size:
            raise ValueError(f"probe column {zero[0]} is identically zero")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "noise_diag", nd)

    @classmethod
    def from_probes(cls, S, Y, lam0):
        """Build the set with the standard noise law ``lam0 * ||s_i||^2``."""
        S = np.atleast_2d(np.asarray(S, dtype=float))
        return cls(S=S, Y=Y, noise_diag=lam0 * np.sum(S * S, axis=0))

    @property
    def n(self) -> int:
        return self.S.shape[0]

    @property
    def m(self) -> int:
        return self.S.shape[1]


class IncrementalPosterior:
    """The posterior mean ``b0 I + A C.T``, grown one probe at a time.

    Probe-major buffers of shape ``capacity x N`` hold the probes S and
    ``Delta = Y - b0 S`` one row per probe, so ``S[:m].T`` is the N x m
    probe matrix in Fortran order.  Beside them sit the m x m matrices
    ``S.T S`` and ``S.T Delta``, the noise diagonal and the Cholesky
    factor L of ``M = w0^2 S.T S + lam0 diag(noise)``.

    The buffers are the posterior: the factors ``A = w0 Delta M^-1`` and
    ``C = w0 S`` are not held.  ``add`` extends every matrix with GEMVs
    against the new row (two passes over S, one over Delta) and one row
    of L, in O(N m + m^3); ``solve`` works from the m x m Woodbury
    capacitance in O(N m + m^3); ``grams`` serves rank reduction with no
    N x m copy.  ``A``, ``C``, ``apply`` and ``dense`` form the factors
    on each read.
    """

    def __init__(self, prior: MatrixPrior, noise: NoiseModel, capacity: int):
        self.prior = prior
        self.lam0 = noise.lam0
        self.S = np.empty((capacity, prior.n))
        self.D = np.empty((capacity, prior.n))
        self.StS = np.zeros((capacity, capacity))
        self.StD = np.zeros((capacity, capacity))
        self.noise = np.zeros(capacity)
        self.L = np.zeros((capacity, capacity))
        self.m = 0

    @property
    def n(self) -> int:
        return self.prior.n

    def add(self, s, y, noise=None):
        """Absorb the probe ``s`` and its product ``y``, with noise magnitude
        ``noise`` (by default the law ``lam0 ||s||^2``).

        Raises ``ValueError``, and leaves every buffer as it was, when the
        pair is not finite or the probe's Cholesky pivot is sub-threshold.
        """
        k = self.m
        if k == self.S.shape[0]:
            raise ValueError(f"buffers are full ({k} probes)")
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
            raise ValueError(f"probe column {k} or its product is not finite")
        delta = y - self.prior.b0 * s
        sts = np.append(self.S[:k] @ s, s @ s)
        if noise is None:
            noise = self.lam0 * sts[k]
        row = self.prior.w0 ** 2 * sts
        self.L[k, :k + 1] = cholesky_row(self.L[:k, :k], row[:k], row[k] + self.lam0 * noise)
        self.S[k], self.D[k], self.noise[k] = s, delta, noise
        self.StS[k, :k + 1] = self.StS[:k + 1, k] = sts
        self.StD[k, :k + 1] = self.D[:k + 1] @ s
        self.StD[:k, k] = self.S[:k] @ delta
        self.m = k + 1

    def solve(self, v):
        """Solve ``(b0 I + A C.T) x = v`` through the capacitance ``b0 I + w0^2 S.T Delta M^-1``.

        Raises ``SolveFailure`` when b0 is not positive or the capacitance
        is numerically singular.
        """
        b0, w0, k = self.prior.b0, self.prior.w0, self.m
        if not (np.isfinite(b0) and b0 > 0):
            raise SolveFailure(f"cannot invert posterior with b0 = {b0!r}")
        v = np.asarray(v, dtype=float)
        if k == 0:
            return v / b0
        L = self.L[:k, :k]
        cap = b0 * np.eye(k) + w0 ** 2 * cho_solve(L, self.StD[:k, :k].T).T
        t = solve_capacitance(cap, w0 * (self.S[:k] @ v))
        return (v - self.D[:k].T @ (w0 * cho_solve(L, t))) / b0

    def _weights(self):
        """``w0 M^-1``, whose transpose W makes ``A = Delta W``."""
        k = self.m
        return self.prior.w0 * cho_solve(self.L[:k, :k], np.eye(k))

    def grams(self):
        """``(A.T A, C.T C, X -> A X)`` for ``linalg.thin_svd_product``, without forming A or C.

        With ``A = Delta W`` and ``W = w0 M^-T``: ``C.T C = w0^2 S.T S`` is
        held, ``A X = Delta (W X)`` is one GEMM, and ``A.T A`` is summed
        over row blocks of A the size of one N-vector.
        ``W.T (Delta.T Delta) W`` would square Delta, whose condition
        number reaches 1e5 on a noisy posterior, before W mixes its
        columns: the leading singular values then moved by up to 3e-8
        relative, against 2e-11 from A's own Gram matrix.
        """
        k, n = self.m, self.n
        D = self.D[:k]
        W = self._weights().T
        gram_a = np.zeros((k, k))
        rows = max(1, n // max(k, 1))
        for lo in range(0, n, rows):
            block = D[:, lo:lo + rows].T @ W
            gram_a += block.T @ block
        return gram_a, self.prior.w0 ** 2 * self.StS[:k, :k], lambda X: D.T @ (W @ X)

    @property
    def A(self):
        # one GEMM with the m x m inverse; a triangular solve against N
        # right-hand sides is about ten times slower at N = 1e5
        return (self._weights() @ self.D[:self.m]).T

    @property
    def C(self):
        return (self.prior.w0 * self.S[:self.m]).T

    def apply(self, v):
        """Matrix-vector product ``(b0 I + A C.T) v`` in O(N m)."""
        v = np.asarray(v, dtype=float)
        return self.prior.b0 * v + self.A @ (self.C.T @ v)

    def dense(self):
        """Materialize the N x N estimate.  Test and toy-problem use only."""
        return self.prior.b0 * np.eye(self.n) + self.A @ self.C.T


def _fill(prior, lam0, obs):
    post = IncrementalPosterior(prior, NoiseModel(lam0), obs.m)
    for s, y, noise in zip(obs.S.T, obs.Y.T, obs.noise_diag):
        post.add(s, y, noise)
    return post


def infer_noise_free(prior: MatrixPrior, obs: ObservationSet) -> IncrementalPosterior:
    """Posterior mean for exact (noiseless) products.

    With zero observation noise the update interpolates: the returned
    estimate satisfies ``B_m @ S = Y`` exactly, and reduces to

        B_m = b0 I + (Y - b0 S) (S.T W S)^-1 S.T W,   W = w0 I,

    which is the ``lam0 = 0`` case of the one update in ``infer_noisy``.
    The probe columns must be linearly independent; the first dependent
    column is reported by index.
    """
    if np.any(obs.noise_diag != 0):
        raise ValueError("noise-free update called with nonzero noise_diag")
    if obs.n != prior.n:
        raise ValueError(f"observation dimension {obs.n} does not match prior {prior.n}")
    return _fill(prior, 0.0, obs)


def infer_noisy(prior: MatrixPrior, noise: NoiseModel, obs: ObservationSet) -> IncrementalPosterior:
    """Posterior mean for noisy products, over a whole observation set.

    The correction solves the structured system

        (W x S.T W S + Lam x noise_diag) vec X = vec(Y - b0 S)

    where "x" couples row and column factors (row-major vectorization)
    and (W, Lam) = (w0 I, lam0 I).  The row side is a pair of scaled
    identities, so it collapses out and the system is one m x m SPD
    solve:

        X = Delta M^-1,   M = w0^2 S.T S + lam0 diag(noise_diag),

    with ``Delta = Y - b0 S``; ``lam0 = 0`` is ``infer_noise_free``.  The
    posterior mean is ``b0 I + A C.T`` with ``A = w0 X`` and ``C = w0 S``.
    The columns go one at a time, with their ``noise_diag`` entries,
    through ``IncrementalPosterior.add``, the update the probing loop
    runs; a sub-threshold Cholesky pivot (``linalg.PIVOT_RTOL``) names the
    first dependent probe column, and a non-finite column is rejected.
    """
    if noise.lam0 == 0:
        return infer_noise_free(prior, obs)
    if obs.n != prior.n:
        raise ValueError(f"observation dimension {obs.n} does not match prior {prior.n}")
    if np.any(obs.noise_diag <= 0):
        raise ValueError("noisy update requires strictly positive noise_diag entries")
    return _fill(prior, noise.lam0, obs)


# ---------------------------------------------------------------------------
# serialization

def posterior_to_dict(post: IncrementalPosterior) -> dict:
    return {
        "kind": "posterior_mean",
        "n": post.n,
        "m": post.m,
        "b0": post.prior.b0,
        "w0": post.prior.w0,
        "A": post.A.ravel().tolist(),
        "C": post.C.ravel().tolist(),
    }
