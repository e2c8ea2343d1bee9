"""Synthetic dataset generators, the dataset CSV format and the one CSV writer.

Dataset layout: a header row, one sample per line, feature columns
first and the target last.  Targets are the regression value or the
integer class index depending on the problem kind.  Floats are written
with enough digits to round-trip exactly.  ``write_csv`` writes every
CSV the package emits: datasets, run records and the solver's
iteration log.
"""
from __future__ import annotations

import warnings

import numpy as np

from .problems import raw_monomials


def gen_regression(seed, n_samples, input_dim=21, n_features=253, noise=0.05,
                   signal_dim=None, equal_coef=False):
    """Regression data whose truth lives on the raw (unscaled) monomials.

    Inputs are standard normal; the target is a random linear function
    of the first ``signal_dim`` (default: all ``n_features``) distinct
    second-order monomials plus relative Gaussian noise.  Because the
    truth is isotropic in the *unscaled* monomial basis, any per-feature
    scaling applied later is a pure reparametrization: it makes the
    optimization landscape as ill-conditioned as the scales without
    changing what is learnable.  Restricting ``signal_dim`` leaves the
    remaining features as pure nuisance coordinates: they contribute
    curvature and sampling noise but carry no signal to recover.

    With ``equal_coef`` the coefficients keep their random signs but all
    share the magnitude ``1/sqrt(signal_dim)``, so every supported
    feature carries the same signal power instead of a chi-squared draw
    of it.  Useful when an experiment needs each supported direction to
    be comparably visible.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, input_dim))
    k = n_features if signal_dim is None else signal_dim
    if not 1 <= k <= n_features:
        raise ValueError(f"signal_dim must be in [1, {n_features}], got {k}")
    u = rng.normal(size=n_features)
    if equal_coef:
        u = np.sign(u)
        u[u == 0] = 1.0
    u /= np.sqrt(k)
    u[k:] = 0.0
    signal = raw_monomials(X, n_features) @ u
    scale = float(np.std(signal)) or 1.0
    y = signal + noise * scale * rng.normal(size=n_samples)
    return X, y


def gen_classification(seed, n_samples, input_dim=784, separation=3.0):
    """Two spherical Gaussians with +/-1 labels, means separated by ``separation``."""
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=input_dim)
    mu *= 0.5 * separation / np.linalg.norm(mu)
    labels = rng.choice(np.array([-1.0, 1.0]), size=n_samples)
    X = labels[:, None] * mu + rng.normal(size=(n_samples, input_dim))
    return X, labels


def gen_blobs(seed, n_samples, input_dim=20, n_classes=10, separation=3.0):
    """Gaussian blobs with integer class labels, for the little network."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, input_dim))
    centers *= separation / np.sqrt(input_dim)
    labels = rng.integers(0, n_classes, size=n_samples)
    X = centers[labels] + rng.normal(size=(n_samples, input_dim))
    return X, labels


def write_csv(path, columns, rows):
    """Write a header of ``columns``, then one line per row of string cells."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _target_cell(target):
    """An integral target as an integer, any other with round-trip digits."""
    if float(target) == int(target):
        return str(int(target))
    return f"{float(target):.17g}"


def write_dataset(path, X, y):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    write_csv(path, [f"x{j}" for j in range(X.shape[1])] + ["target"],
              ([f"{v:.17g}" for v in row] + [_target_cell(target)]
               for row, target in zip(X, np.asarray(y))))


def read_dataset(path):
    """Read a dataset CSV back into ``(X, target)`` arrays."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if body.size == 0:
        raise ValueError(f"dataset {path} has no data rows")
    if body.shape[1] < 2:
        raise ValueError(f"dataset {path} needs at least one feature and a target column")
    bad = np.argwhere(~np.isfinite(body))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"dataset {path} has a non-finite value in data row {row + 1}, "
                         f"column {col + 1}")
    return body[:, :-1], body[:, -1]


def train_test_split(n, test_fraction, seed):
    """Deterministic index split; returns (train_idx, test_idx)."""
    if not 0 <= test_fraction < 1:
        raise ValueError(f"test_fraction must be in [0, 1), got {test_fraction}")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(round(n * test_fraction))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])
