"""Active probing loop: choose directions with the current posterior.

Each iteration solves the current estimate against the latest gradient
to pick the next probe direction, observes a noisy Hessian product along
it, refreshes the gradient on the same mini-batch, and adds the new pair
to an incremental posterior, in O(N m + m^3) per probe with nothing
rebuilt.  With exact products the probes reproduce the Krylov sequence
of the underlying matrix; with noise they stay close to it while the
posterior absorbs the error.  The module also owns the oracle base
class, whose seeded batch stream every method is charged on, the one
settings type, ``SolverSettings``, and ``config_from_dict``, the one
JSON-to-config path of every config type.
"""
from __future__ import annotations

import abc
import dataclasses
import logging
import types
import typing
from dataclasses import dataclass

import numpy as np

from .inference import IncrementalPosterior, MatrixPrior, NoiseModel
from .linalg import SolveFailure

log = logging.getLogger(__name__)


class EstimationError(RuntimeError):
    """Raised when scale estimation fails on the sampled batches."""


class HessianOracle(abc.ABC):
    """Source of mini-batch gradients and Hessian-vector products.

    The unit of cost is a *loaded batch*: ``draw_batch`` fetches a fresh
    independent mini-batch and charges ``batch_size`` samples to the
    ``data_read`` counter.  Evaluating a gradient or a product on an
    already-loaded batch is free, so a caller that needs both from the
    same data pays for it once.  The convenience wrappers
    ``noisy_gradient`` / ``noisy_hvp`` draw their own batch per call.
    A dataset subclass passes its size ``n_data`` and a seed to inherit
    ``_draw``'s batch stream and implements ``gradients``; any other overrides
    ``_draw`` and, if never stepped as a lane, may implement ``gradient`` alone.
    Oracles that share the seed, the data and the batch size draw the
    same batch at each position, so ``draw_batch`` can hand one oracle
    the batch another drew there.
    """

    def __init__(self, batch_size: int, n_data: int | None = None, seed: int = 0):
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if n_data is not None and batch_size > n_data:
            raise ValueError(f"batch_size {batch_size} exceeds data size {n_data}")
        self.batch_size = int(batch_size)
        self.n_data = n_data
        self.seed = int(seed)
        self._counter = 0
        self.data_read = 0

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Dimension of the parameter vector."""

    @property
    def position(self) -> int:
        """Batches drawn so far, which is the stream position of the next draw."""
        return self._counter

    def _draw(self):
        """Indices of one fresh batch, drawn without replacement by a generator
        seeded from ``(seed, call counter)``, so runs replay exactly."""
        rng = np.random.default_rng([np.uint32(self.seed), np.uint32(self._counter)])
        self._counter += 1
        return rng.choice(self.n_data, size=self.batch_size, replace=False)

    @abc.abstractmethod
    def hvp(self, w, s, batch):
        """Mini-batch Hessian product with ``s`` on a previously drawn batch."""

    def gradient(self, w, batch):
        """Mini-batch gradient at ``w`` on a previously drawn batch: ``gradients``' stack of one."""
        return self.gradients([w], batch)[0]

    def draw_batch(self, drawn=None):
        """The next batch, charged to ``data_read``: a fresh draw, or ``drawn``,
        the batch an oracle of the same stream drew at this position."""
        if drawn is None:
            drawn = self._draw()
        else:
            self._counter += 1
        self.data_read += self.batch_size
        return drawn

    def noisy_gradient(self, w):
        return self.gradient(w, self.draw_batch())

    def noisy_hvp(self, w, s):
        return self.hvp(w, s, self.draw_batch())


@dataclass(frozen=True)
class PriorEstimates:
    """Data-driven scales for the prior and noise model, plus the mean gradient."""

    b0: float
    w0: float
    lam0: float
    mean_grad: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.b0) and self.b0 > 0):
            raise ValueError(f"estimated b0 must be positive, got {self.b0!r}")
        if not (np.isfinite(self.w0) and self.w0 > 0):
            raise ValueError(f"estimated w0 must be positive, got {self.w0!r}")
        if not (np.isfinite(self.lam0) and self.lam0 >= 0):
            raise ValueError(f"estimated lam0 must be non-negative, got {self.lam0!r}")
        object.__setattr__(self, "mean_grad", np.asarray(self.mean_grad, dtype=float))


class ConfigError(ValueError):
    """Bad or inconsistent configuration (CLI exit code 1)."""


def _fits(tp, value):
    """Whether a JSON value fits a field annotation: an int field takes
    integers only (no bools, no floats), a float field takes any number."""
    if typing.get_origin(tp) is types.UnionType:
        return any(_fits(arg, value) for arg in typing.get_args(tp))
    if typing.get_origin(tp) is tuple:
        return (isinstance(value, (list, tuple))
                and all(_fits(typing.get_args(tp)[0], v) for v in value))
    if tp is type(None):
        return value is None
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def config_from_dict(cls, payload, block="config"):
    """Build the config dataclass ``cls`` from a JSON object.

    Rejects a payload that is not an object, unknown keys and values whose
    JSON type does not fit the field; a nested config block is built by
    the same rules.  Every failure is a ``ConfigError``.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"the {block} block must be a JSON object, got {payload!r}")
    unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"unknown {block} keys: {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in payload.items():
        tp = hints[name]
        if dataclasses.is_dataclass(tp):
            value = config_from_dict(tp, value, name)
        elif not _fits(tp, value):
            shown = str(tp) if typing.get_origin(tp) else tp.__name__
            raise ConfigError(f"{block} entry {name!r} must be {shown}, got {value!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class SolverSettings:
    """Settings of scale estimation, the probing loop and pre-conditioner assembly."""

    iterations: int = 16
    init_samples: int = 5
    rank: int = 16
    mode: str = "full"

    def __post_init__(self):
        if self.mode not in ("full", "scalar"):
            raise ConfigError(f"solver mode must be 'full' or 'scalar', got {self.mode!r}")
        for name, low in (("iterations", 1), ("init_samples", 2), ("rank", 1)):
            if (value := getattr(self, name)) < low:
                raise ConfigError(f"solver {name} must be at least {low}, got {value}")

    from_dict = classmethod(config_from_dict)


SolverConfig = SolverSettings


def estimate_parameters(oracle: HessianOracle, w, init_samples=5, mode="full") -> PriorEstimates:
    """Estimate prior/noise scales from a handful of mini-batches.

    Draws ``init_samples`` independent batches, averages their gradients
    into a probe ``s``, then evaluates the curvature product along ``s``
    on the *same* batches (each batch is loaded once and charged once).
    From the means ``s`` and ``ybar``:

        w0 = (s . ybar) / (s . s)

    and the prior mean scale b0 comes from the curvature magnitude along
    s, either as ``sqrt(ybar . ybar / s . ybar)`` ("full" mode) or as
    the plain Rayleigh-style ratio ``(ybar . ybar) / (s . ybar)``
    ("scalar" mode, used directly as an inverse step length).

    The noise weight lam0 is a plug-in variance estimate of the gradient
    samples: in full mode the median over coordinates of the
    per-coordinate variance, divided by ``||s||``; in scalar mode
    ``sqrt((mean ||g_k||^2 - ||gbar||^2) / n)``.  Exact oracles yield
    lam0 = 0.

    Raises
    ------
    EstimationError
        If the mean gradient is zero, the curvature along it is not
        positive, or a scale overflows (retry with fresh batches then).
    """
    if init_samples < 2:
        raise ValueError(f"need at least 2 samples to estimate scales, got {init_samples}")
    w = np.asarray(w, dtype=float)
    batches = [oracle.draw_batch() for _ in range(init_samples)]
    grads = np.stack([oracle.gradient(w, b) for b in batches])
    gbar = grads.mean(axis=0)
    if np.linalg.norm(gbar) == 0:
        raise EstimationError("mean gradient is zero; nothing to probe")
    s = gbar
    ys = np.stack([oracle.hvp(w, s, b) for b in batches])
    ybar = ys.mean(axis=0)
    # an overflowing product gives an inf scale, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        sty = float(s @ ybar)
        if not np.isfinite(sty) or sty <= 0:
            raise EstimationError(
                f"curvature along the mean gradient is not positive (s.y = {sty:.3e}); "
                "retry with fresh batches"
            )
        sts = float(s @ s)
        yty = float(ybar @ ybar)
        w0 = sty / sts
        if mode == "full":
            b0 = np.sqrt(yty / sty)
            per_coord_var = grads.var(axis=0)  # population (plug-in) variance
            lam0 = float(np.median(per_coord_var)) / np.sqrt(sts)
        elif mode == "scalar":
            b0 = yty / sty
            mean_sq = float(np.mean(np.sum(grads * grads, axis=1)))
            lam0 = np.sqrt(max(0.0, mean_sq - float(gbar @ gbar)) / s.size)
        else:
            raise ValueError(f"mode must be 'full' or 'scalar', got {mode!r}")
    if not (np.all(np.isfinite([b0, w0, lam0])) and b0 > 0 and w0 > 0):
        raise EstimationError(f"scale estimates are not usable (b0={b0:.3e}, w0={w0:.3e}, "
                              f"lam0={lam0:.3e}); retry with fresh batches")
    return PriorEstimates(b0=float(b0), w0=float(w0), lam0=float(lam0), mean_grad=gbar)


def next_direction(post, r):
    """Probe direction ``-B^-1 r`` for the current estimate B.

    ``post`` is an ``IncrementalPosterior``.  Falls back to the
    prior-scaled gradient ``-r / b0`` (with a logged warning) when the
    low-rank solve fails numerically.
    """
    r = np.asarray(r, dtype=float)
    if np.linalg.norm(r) == 0:
        raise ValueError("residual is zero; no probe direction exists")
    try:
        return -post.solve(r)
    except SolveFailure as exc:
        log.warning("posterior solve failed (%s); falling back to gradient direction", exc)
        return -r / post.prior.b0


def run_inference(oracle: HessianOracle, w, estimates: PriorEstimates,
                  settings: SolverSettings, callback=None) -> IncrementalPosterior:
    """Run the active probing loop and return the final posterior.

    Per iteration (``settings.iterations`` of them): pick a direction
    with ``next_direction`` against the latest gradient, scale it to unit
    length, load one fresh batch, observe the curvature product along the
    probe and refresh the gradient on that same batch, then add the pair
    to an ``IncrementalPosterior``, which costs O(N m + m^3) and rebuilds
    nothing.  If a probe is rejected (for instance a dependent probe in
    the exact-product case once the reachable subspace is exhausted) or
    a batch gradient is zero, the posterior of the previous iteration is
    returned with a warning.  The returned ``IncrementalPosterior`` is the
    probe buffers themselves: rank reduction reads them directly, and its
    ``A``, ``C`` and ``dense`` are formed only when read.

    Raises ``ConfigError`` before the first batch is drawn when
    ``settings.iterations`` exceeds ``oracle.dim``.

    ``callback``, if given, receives the row ``(iteration, probe_norm,
    data_read)`` of each completed iteration.
    """
    w = np.asarray(w, dtype=float)
    n = oracle.dim
    if settings.iterations > n:
        raise ConfigError(
            f"iterations ({settings.iterations}) exceed the parameter dimension ({n}); "
            f"at most {n} probes can be independent"
        )
    prior = MatrixPrior(b0=estimates.b0, w0=estimates.w0, n=n)
    post = IncrementalPosterior(prior, NoiseModel(lam0=estimates.lam0), settings.iterations)
    r = np.asarray(estimates.mean_grad, dtype=float)
    for i in range(1, settings.iterations + 1):
        if np.linalg.norm(r) == 0:  # a zero residual ends a Krylov sequence
            log.warning("batch gradient is zero at iteration %d; keeping previous estimate", i)
            break
        raw = next_direction(post, r)
        probe_norm = float(np.linalg.norm(raw))
        s = raw / probe_norm
        batch = oracle.draw_batch()
        y = oracle.hvp(w, s, batch)
        r = oracle.gradient(w, batch)
        try:
            post.add(s, y)
        except ValueError as exc:
            log.warning(
                "posterior update failed at iteration %d (%s); keeping previous estimate",
                i, exc,
            )
            break
        if callback is not None:
            callback((i, probe_norm, oracle.data_read))
    return post
