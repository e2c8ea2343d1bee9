"""Synthetic noisy quadratic for the large-N probing workload.

The objective is ``f(w) = 1/2 (w - w*)^T H (w - w*)`` with a diagonal
Hessian: a flat bulk of curvature ``BULK`` plus a head of ``HEAD``
coordinates, at positions drawn by a random permutation, whose
curvatures are log-spaced from ``HEAD_HI`` down to ``HEAD_LO``.  The top
``HEAD``-dimensional eigenspace is therefore known exactly, which is
what the workload's ``capture`` metric scores the kept directions
against.

Gradients and Hessian products carry Gaussian noise drawn from a
generator seeded by ``(seed, batch counter, stream)``, so a batch's
gradient and product are reproducible and share one loaded batch, as
the cost model of :class:`hessprec.solver.HessianOracle` requires.
"""
from __future__ import annotations

import numpy as np

from hessprec.solver import HessianOracle

HEAD = 16
HEAD_HI = 1e3
HEAD_LO = 1e1
BULK = 1e-2
GRAD_NOISE = 1e-1
HVP_NOISE = 1e-1


class ProbeOracle(HessianOracle):
    """Noisy diagonal quadratic with a permuted, log-spaced curvature head."""

    def __init__(self, n: int, seed: int, batch_size: int = 256):
        super().__init__(batch_size)
        rng = np.random.default_rng([np.uint32(seed), np.uint32(n)])
        self.seed = int(seed)
        self.head = np.sort(rng.permutation(n)[:HEAD])
        self.h = np.full(n, BULK)
        self.h[self.head] = np.logspace(np.log10(HEAD_HI), np.log10(HEAD_LO), HEAD)
        self.w_star = rng.standard_normal(n)
        self._counter = 0

    @property
    def dim(self) -> int:
        return self.h.size

    def restart(self):
        """Rewind the batch stream and the read counter to a fresh oracle's."""
        self._counter = 0
        self.data_read = 0

    def _draw(self):
        self._counter += 1
        return self._counter

    def _noise(self, batch, stream):
        rng = np.random.default_rng([np.uint32(self.seed), np.uint32(batch),
                                     np.uint32(stream)])
        return rng.standard_normal(self.h.size)

    def gradient(self, w, batch):
        return self.h * (w - self.w_star) + GRAD_NOISE * self._noise(batch, 0)

    def hvp(self, w, s, batch):
        scale = HVP_NOISE * np.linalg.norm(s) / np.sqrt(s.size)
        return self.h * s + scale * self._noise(batch, 1)

    def loss(self, w):
        d = w - self.w_star
        return 0.5 * float(d @ (self.h * d))

    def capture(self, U):
        """Share of the exact top-``HEAD`` eigenspace spanned by the columns of U."""
        return float(np.sum(U[self.head] ** 2)) / HEAD
