"""Desk-scale test problems with analytic gradients and curvature products.

The regression problem mirrors the classic setup of an ill-conditioned
quadratic produced by a polynomial feature expansion with hand-picked
per-feature scales; it is the problem of the paper's pre-conditioned SGD
experiment.  The per-batch ridge solve of its averaged-inverse baseline
lives here too; ``harness`` steps that baseline, and CG on noisy
products, as lanes of its one loop.  The feature map takes the input
dimension from ``X`` and its scales as given; ``harness.ProblemConfig``
checks a run's scales, one per feature.
Logistic regression supplies a convex non-quadratic oracle, used by no
experiment, for checking the estimator on a Hessian that moves with ``w``.
Both oracles implement ``gradients`` and ``hvp``, on the cost model of :mod:`hessprec.solver`.

The regression losses that the harness records come from the exact
second-order Taylor form of the data term about the minimizer ``w_star``
(:class:`SquaredLoss`), built from the stored moments and one residual
pass at ``w_star``: O(N^2) per value for N features instead of the
O(N |D|) of a pass over the data, with rounding of order
``eps (L(w_star) + L(w))`` rather than ``eps y.T y / |D|``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import woodbury_solve
from .solver import HessianOracle


# ---------------------------------------------------------------------------
# feature map

def n_monomials(d):
    """How many distinct monomials ``raw_monomials`` has for d inputs: d + d(d+1)/2 + 1."""
    return d + d * (d + 1) // 2 + 1


def raw_monomials(X, count):
    """First ``count`` distinct monomials of each row of ``X``, unscaled.

    The order is fixed: the d linear terms, then the upper triangle of
    ``x x.T`` row by row, then the trace ``||x||^2``; for d = 21 that is
    21 + 231 + 1 = 253.  Only the ``count`` returned columns are formed,
    each written once into the one returned array: row ``i`` of the
    triangle is ``x_i`` times the block ``x_i .. x_{d-1}``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    if count > n_monomials(d):
        raise ValueError(f"only {n_monomials(d)} distinct monomials exist, need {count}")
    feats = np.empty((X.shape[0], count))
    feats[:, :d] = X[:, :count]
    col = d
    for i in range(d):
        w = min(d - i, count - col)
        if w <= 0:
            break
        np.multiply(X[:, i:i + 1], X[:, i:i + w], out=feats[:, col:col + w])
        col += w
    if count == n_monomials(d):
        feats[:, -1:] = np.sum(X * X, axis=1, keepdims=True)
    return feats


def polynomial_features(X, scales):
    """The first ``len(scales)`` monomials times ``scales``, of one sample
    (1-d input) or a batch (2-d input), scaled in place."""
    X = np.asarray(X, dtype=float)
    feats = raw_monomials(X, len(scales))
    feats *= scales
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
        with np.errstate(over="ignore"):
            self.value_at_anchor = 0.5 * float(np.mean(resid * resid))
        if not np.isfinite(self.value_at_anchor):
            raise ValueError("the targets overflow: the data term at the anchor is not finite")
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
    reference.  Features so large that G, b or w_star is not finite, or
    targets so large that L(w_star) is not, are refused with a ``ValueError``.
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
        # min and max are non-finite when an entry is, and unlike an entrywise
        # check they take no temporary; Phi is not checked, as an entrywise
        # check of it would take a temporary as large as Phi
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "G", Phi @ Phi.T / y.size)
            object.__setattr__(self, "b", Phi @ y / y.size)
            finite = np.isfinite([self.G.min(), self.G.max(), self.b.min(), self.b.max()]).all()
            w_star = exact_solution(self) if finite else None
        if not (finite and np.isfinite(w_star).all()):
            raise ValueError("the feature moments overflow: G = Phi Phi.T / |D|, b = Phi y / |D| "
                             "or the minimizer w_star is not finite; scale the features down")
        object.__setattr__(self, "data_loss", SquaredLoss(Phi, y, w_star, self.G))

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


batch_oracle = QuadraticOracle


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

    def gradients(self, ws, batch):
        Xb = self.problem.X[batch]
        yb = self.problem.labels[batch]
        return [Xb.T @ (-yb * sigmoid(-yb * (Xb @ w))) / batch.size + self.problem.reg * w
                for w in ws]

    def hvp(self, w, s, batch):
        Xb = self.problem.X[batch]
        z = Xb @ w
        d = sigmoid(z) * sigmoid(-z)
        return Xb.T @ (d * (Xb @ s)) / batch.size + self.problem.reg * s


logistic_oracle = LogisticOracle


# ---------------------------------------------------------------------------
# baselines

def batch_ridge_solution(problem: QuadraticProblem, batch):
    """The minimizer of ``problem``'s objective on the samples ``batch`` alone.

    This is the averaged-inverse baseline's per-batch solve, which
    ``harness`` averages.  It goes through the inversion lemma when the
    batch is no larger than the feature count, else (as in the paper's
    batch 256 on 253 features) through a dense solve.  Raises
    ``SolveFailure`` or ``numpy.linalg.LinAlgError`` when the solve fails.
    """
    Phib = problem.Phi[:, batch]
    rhs = Phib @ problem.y[batch] / batch.size
    if batch.size <= problem.n_features:
        return woodbury_solve(problem.alpha_reg, Phib / batch.size, Phib, rhs)
    Hb = Phib @ Phib.T / batch.size + problem.alpha_reg * np.eye(problem.n_features)
    return np.linalg.solve(Hb, rhs)
