"""Desk-scale test problems with analytic gradients and curvature products.

The regression problem mirrors the classic setup of an ill-conditioned
quadratic produced by a polynomial feature expansion with hand-picked
per-feature scales; it is the problem of the paper's pre-conditioned SGD
experiment, and its two reference baselines live here too (averaged
per-batch inverses, and conjugate gradients on noisy products).
Logistic regression supplies a convex non-quadratic oracle, used by no
experiment, for checking the estimator on a Hessian that moves with ``w``.
Both oracles use the draw-once / evaluate-free cost model of :mod:`hessprec.solver`.

The regression losses that the harness records come from the exact
second-order Taylor form of the data term about the minimizer ``w_star``
(:class:`SquaredLoss`), built from the stored moments and one residual
pass at ``w_star``: O(N^2) per value for N features instead of the
O(N |D|) of a pass over the data, with rounding of order
``eps (L(w_star) + L(w))`` rather than ``eps y.T y / |D|``.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .linalg import SolveFailure, woodbury_solve
from .solver import HessianOracle

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# feature map

@dataclass(frozen=True)
class FeatureMapSpec:
    """Second-order polynomial features with per-feature scaling.

    With a scale vector of length q, the map selects the distinct
    monomials in a fixed order (the d linear terms, then the upper
    triangle of ``x x.T`` row by row, then the trace ``||x||^2``),
    truncates to the first q, and multiplies entrywise by ``scales``.
    For d = 21 the distinct-monomial count is 21 + 231 + 1 = 253.
    """

    input_dim: int
    scales: np.ndarray

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        scales = np.asarray(self.scales, dtype=float)
        if scales.ndim != 1 or scales.size < 1:
            raise ValueError("scales must be a non-empty vector")
        if not np.all((scales > 0) & np.isfinite(scales)):
            raise ValueError("scales must be positive and finite")
        limit = n_monomials(self.input_dim)
        if scales.size > limit:
            raise ValueError(
                f"at most {limit} distinct monomial features exist for input_dim={self.input_dim}, "
                f"got {scales.size} scales"
            )
        object.__setattr__(self, "scales", scales)

    @property
    def n_features(self) -> int:
        return self.scales.size


def scales_log_uniform(n_features: int, lo: float = 1e-3, hi: float = 1.0):
    """Deterministic log-spaced scale profile from hi down to lo."""
    if not (0 < lo <= hi):
        raise ValueError(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
    return np.logspace(np.log10(hi), np.log10(lo), n_features)


def n_monomials(d):
    """How many distinct monomials ``raw_monomials`` has for d inputs: d + d(d+1)/2 + 1."""
    return d + d * (d + 1) // 2 + 1


def raw_monomials(X, input_dim, count):
    """First ``count`` distinct monomials [x, upper-tri(x x.T), ||x||^2], unscaled.

    Only those ``count`` columns are formed, not all ``n_monomials(d)``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = input_dim
    if X.shape[1] != d:
        raise ValueError(f"expected inputs of dimension {d}, got {X.shape[1]}")
    if count > n_monomials(d):
        raise ValueError(f"only {n_monomials(d)} distinct monomials exist, need {count}")
    iu, ju = np.triu_indices(d)
    pairs = max(count - d, 0)
    cols = [X[:, :count], X[:, iu[:pairs]] * X[:, ju[:pairs]]]
    if count == n_monomials(d):
        cols.append(np.sum(X * X, axis=1, keepdims=True))
    return np.concatenate(cols, axis=1)


def polynomial_features(X, spec: FeatureMapSpec):
    """Apply the feature map to one sample (1-d input) or a batch (2-d input)."""
    X = np.asarray(X, dtype=float)
    feats = raw_monomials(X, spec.input_dim, spec.scales.size) * spec.scales
    return feats[0] if X.ndim == 1 else feats


# ---------------------------------------------------------------------------
# regularized least squares on features

class SquaredLoss:
    """The data term ``L(w) = (1/2|D|) ||Phi.T w - y||^2`` in Taylor form about ``anchor``.

    With ``d = w - anchor``, ``G = Phi Phi.T / |D|`` and the data
    gradient at the anchor ``g = Phi (Phi.T anchor - y) / |D|``, the
    quadratic is exactly ``L(w) = L(anchor) + g.T d + 1/2 d.T G d``.
    One residual pass at construction gives ``L(anchor)`` and ``g``;
    after that a value costs O(N^2) for N features instead of the
    O(N |D|) of a residual pass.  ``gram`` passes an already formed G.

    Rounding scales with the terms: by Cauchy-Schwarz
    ``|g.T d| <= L(anchor) + 1/2 d.T G d``, and ``Phi.T d`` is the
    difference of the two residuals, so the error is a small multiple
    of ``eps (3 L(anchor) + 2 L(w))`` (at most 36 on 21-feature problems
    with noise 1 to 0 and ``alpha_reg`` 1e-2 to 1e-8) and shrinks with
    the loss.  The expanded form ``1/2 (w.T G w - 2 b.T w + y.T y / |D|)``
    errs by order ``eps y.T y / |D|`` at every ``w``, which near a good
    fit is larger than ``L(w)`` itself and can make it negative.
    """

    def __init__(self, Phi, y, anchor, gram=None):
        n = y.size
        resid = Phi.T @ anchor - y
        self.anchor = anchor
        self.gram = Phi @ Phi.T / n if gram is None else gram
        self.value_at_anchor = 0.5 * float(np.mean(resid * resid))
        self.grad_at_anchor = Phi @ resid / n

    def __call__(self, w):
        d = w - self.anchor
        return (self.value_at_anchor + float(self.grad_at_anchor @ d)
                + 0.5 * float(d @ (self.gram @ d)))


@dataclass(frozen=True)
class QuadraticProblem:
    """min_w  (alpha_reg/2) ||w||^2 + (1/2|D|) ||Phi.T w - y||^2.

    ``Phi`` holds one feature vector per column (features x data), so
    the curvature is ``Phi Phi.T / |D| + alpha_reg I``.

    Construction stores the moments ``G = Phi Phi.T / |D|`` and
    ``b = Phi y / |D|``, the minimizer ``w_star`` from a dense solve, and
    the data term as a :class:`SquaredLoss` anchored at ``w_star``, so
    ``loss`` costs O(N^2) against the O(N |D|) of a residual pass and
    errs by a small multiple of ``eps (3 L(w_star) + 2 L(w))`` in the
    data term: within 4e-14 relative of the residual form on small
    problems, noise-free ones included, and 3e-16 on the regression
    comparison's.  ``gradient`` keeps the residual pass; it is a test
    reference.
    """

    Phi: np.ndarray
    y: np.ndarray
    alpha_reg: float
    G: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)
    data_loss: SquaredLoss = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Phi = np.asarray(self.Phi, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if Phi.ndim != 2 or y.ndim != 1 or Phi.shape[1] != y.shape[0]:
            raise ValueError(f"inconsistent shapes: Phi {Phi.shape}, y {y.shape}")
        if y.size == 0:
            raise ValueError("a quadratic problem needs at least one training sample")
        if not (np.isfinite(self.alpha_reg) and self.alpha_reg > 0):
            raise ValueError(f"alpha_reg must be positive, got {self.alpha_reg!r}")
        object.__setattr__(self, "Phi", Phi)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "G", Phi @ Phi.T / y.size)
        object.__setattr__(self, "b", Phi @ y / y.size)
        object.__setattr__(self, "data_loss", SquaredLoss(Phi, y, exact_solution(self), self.G))

    @property
    def n_features(self) -> int:
        return self.Phi.shape[0]

    @property
    def n_data(self) -> int:
        return self.Phi.shape[1]

    @property
    def w_star(self):
        return self.data_loss.anchor

    def hessian(self):
        return self.G + self.alpha_reg * np.eye(self.n_features)

    def loss(self, w):
        return 0.5 * self.alpha_reg * float(w @ w) + self.data_loss(w)

    def gradient(self, w):
        resid = self.Phi.T @ w - self.y
        return self.alpha_reg * w + self.Phi @ resid / self.n_data


def exact_solution(problem: QuadraticProblem):
    """Minimizer by a dense solve of the normal equations (desk scale only)."""
    return np.linalg.solve(problem.hessian(), problem.b)


class QuadraticOracle(HessianOracle):
    """Mini-batch oracle for :class:`QuadraticProblem` on the base class's seeded batches."""

    def __init__(self, problem: QuadraticProblem, batch_size: int, seed: int):
        super().__init__(batch_size, problem.n_data, seed)
        self.problem = problem

    @property
    def dim(self) -> int:
        return self.problem.n_features

    def gradient(self, w, batch):
        return self.gradients([w], batch)[0]

    def gradients(self, ws, batch):
        # one gather for every w; each gradient keeps its own products, so
        # it does not depend on which other vectors share the batch
        Phib = self.problem.Phi[:, batch]
        yb = self.problem.y[batch]
        return [self.problem.alpha_reg * w + Phib @ (Phib.T @ w - yb) / batch.size
                for w in ws]

    def hvp(self, w, s, batch):
        Phib = self.problem.Phi[:, batch]
        return self.problem.alpha_reg * s + Phib @ (Phib.T @ s) / batch.size


def batch_oracle(problem: QuadraticProblem, batch_size: int, seed: int) -> QuadraticOracle:
    return QuadraticOracle(problem, batch_size, seed)


# ---------------------------------------------------------------------------
# logistic regression

def sigmoid(z):
    # tanh form: exact and overflow-free
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class LogisticProblem:
    """Binary logistic regression with labels in {-1, +1} and L2 weight decay.

    min_w  (1/|D|) sum_i log(1 + exp(-y_i x_i.T w)) + (reg/2) ||w||^2

    The data-term curvature ``(1/|D|) sum pi (1 - pi) x x.T`` is exact
    here (the second-order label term vanishes for this likelihood), so
    the Gauss-Newton matrix and the full Hessian coincide.
    """

    X: np.ndarray
    labels: np.ndarray
    reg: float

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if X.ndim != 2 or labels.shape != (X.shape[0],):
            raise ValueError(f"inconsistent shapes: X {X.shape}, labels {labels.shape}")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not (np.isfinite(self.reg) and self.reg > 0):
            raise ValueError(f"reg must be positive, got {self.reg!r}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", labels)

    @property
    def n_data(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def loss(self, w):
        margins = self.labels * (self.X @ w)
        return float(np.mean(np.logaddexp(0.0, -margins))) + 0.5 * self.reg * float(w @ w)

    def gradient(self, w):
        margins = self.labels * (self.X @ w)
        coeff = -self.labels * sigmoid(-margins)
        return self.X.T @ coeff / self.n_data + self.reg * w

    def hessian_at(self, w):
        z = self.X @ w
        d = sigmoid(z) * sigmoid(-z)
        return (self.X * d[:, None]).T @ self.X / self.n_data + self.reg * np.eye(self.n_features)


class LogisticOracle(HessianOracle):
    def __init__(self, problem: LogisticProblem, batch_size: int, seed: int):
        super().__init__(batch_size, problem.n_data, seed)
        self.problem = problem

    @property
    def dim(self) -> int:
        return self.problem.n_features

    def gradient(self, w, batch):
        Xb = self.problem.X[batch]
        yb = self.problem.labels[batch]
        coeff = -yb * sigmoid(-yb * (Xb @ w))
        return Xb.T @ coeff / batch.size + self.problem.reg * w

    def hvp(self, w, s, batch):
        Xb = self.problem.X[batch]
        z = Xb @ w
        d = sigmoid(z) * sigmoid(-z)
        return Xb.T @ (d * (Xb @ s)) / batch.size + self.problem.reg * s


def logistic_oracle(problem: LogisticProblem, batch_size: int, seed: int) -> LogisticOracle:
    return LogisticOracle(problem, batch_size, seed)


# ---------------------------------------------------------------------------
# baselines

def avg_inv_baseline(oracle: QuadraticOracle, n_batches: int, callback=None):
    """Average of per-batch ridge solutions on ``oracle``'s batch stream.

    Each batch solves its own normal equations exactly, through the
    inversion lemma when the batch is no larger than the feature count,
    else (as in the paper's batch 256 on 253 features) densely, and the
    w estimates are averaged.  The per-batch inverse is biased for the
    inverse of the averaged curvature, which is the point of comparing
    against it.  Numerically failing batches are skipped with a warning,
    but their reads stay charged.

    ``callback(i, w_running_mean)`` fires after each batch.
    """
    if n_batches < 1:
        raise ValueError(f"n_batches must be at least 1, got {n_batches}")
    problem, batch_size = oracle.problem, oracle.batch_size
    total = np.zeros(problem.n_features)
    used = 0
    for t in range(n_batches):
        idx = oracle.draw_batch()
        Phib = problem.Phi[:, idx]
        rhs = Phib @ problem.y[idx] / batch_size
        try:
            if batch_size <= problem.n_features:
                wt = woodbury_solve(problem.alpha_reg, Phib / batch_size, Phib, rhs)
            else:
                Hb = Phib @ Phib.T / batch_size \
                    + problem.alpha_reg * np.eye(problem.n_features)
                wt = np.linalg.solve(Hb, rhs)
        except (SolveFailure, np.linalg.LinAlgError) as exc:
            log.warning("skipping batch %d in averaged-inverse baseline (%s)", t, exc)
            continue
        total += wt
        used += 1
        if callback is not None:
            callback(t, total / used)
    if used == 0:
        raise SolveFailure("every batch failed in the averaged-inverse baseline")
    return total / used


def cg_baseline(oracle: HessianOracle, b, iters: int, callback=None):
    """Conjugate gradients on ``B w = b`` driven by (possibly noisy) products.

    Textbook CG from zero.  Divergence is expected under noise and is
    recorded, not raised: the run stops and flags when the residual goes
    non-finite, the curvature term ``p.T B p`` stops being positive, or
    the residual norm grows past 10x its starting value.  Because the
    recursively updated residual goes blind once resampled products stop
    being consistent with each other, each iteration also recomputes the
    residual from a fresh product; when the recomputed norm exceeds 10x
    the recursive one (and is not itself at convergence level), the
    recurrence has lost coherence and the run is flagged as diverged.

    Returns ``(w, diverged)``.  ``callback(t, w, residual_norm)`` fires
    per completed iteration with the recursive residual norm.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    r = b.copy()
    rs = float(r @ r)
    r0 = np.sqrt(rs)
    if r0 == 0 or iters < 1:
        return x, False
    p = r.copy()
    diverged = False
    for t in range(iters):
        Ap = oracle.noisy_hvp(x, p)
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0:
            diverged = True
            break
        step = rs / pAp
        x = x + step * p
        r = r - step * Ap
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            diverged = True
            break
        if callback is not None:
            callback(t, x.copy(), np.sqrt(rs_new))
        rnorm = np.sqrt(rs_new)
        if rnorm > 10.0 * r0:
            diverged = True
            break
        check = np.linalg.norm(b - oracle.noisy_hvp(x, x))
        if not np.isfinite(check) or (check > 10.0 * rnorm and check > 1e-2 * r0):
            diverged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, diverged
