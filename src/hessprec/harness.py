"""Experiment harness: configs, the optimizer loop, baselines, comparisons.

Two problem kinds cover the paper's two experiments: ``quadratic``, the
ill-conditioned regression on polynomial features with the averaged
inverse and CG baselines, and ``mlp``, the small network of the
learning-rate sweep.  All loops share a cost axis: cumulative samples
loaded from disk (``data_read``), charged through the oracle including
everything spent on pre-conditioner construction, so curves from
different methods are directly comparable.  Runs are deterministic given
(config, seed), and so is every emitted CSV, byte for byte for one BLAS
build and thread count: no column holds a wall time.  Every record,
baselines' included, is built by ``_Lane.emit`` from the lane's own
iterate and step length, and a CSV row is its field values, which
``data.write_csv`` formats.  Every lane kind records step 0 and ends in
``_Lane.finish``, diverged at its first non-finite record after step 0
(or, for averaged inverse, with no batch solved), with the one warning.
``ProblemConfig`` checks the rules on the problem block's fields, so
``gen-data`` refuses a block that breaks one before it writes; the
held-out share and the network's penalty are constants.

``run_sgd_lanes`` is the one step loop, and a run's result is its lane.
It steps plain SGD, full mode, its plain-SGD fallback, scalar mode and
the two baselines as lanes: the lanes of one batch stream at its lowest
position step on one drawn batch, the SGD lanes with one ``gradients``
call and the baselines on the batch itself, and each lane keeps its own
oracle and draws its own batches for a construction, a scalar rebuild or
a CG residual check, so its records equal those of the run made alone.
``compare`` runs all its configs in one call, on the problem its caller
built or on one it builds, and ``run_experiment`` one config; ``run_sgd``,
``run_precond_sgd`` and ``run_baseline`` are other names for it.  Both
bundles hold ``n_train`` and ``dim`` as attributes and read their
held-out ``test_loss`` (the data term, without the penalty) and
``test_accuracy`` from ``test_metrics``.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import data as datagen
from .linalg import SolveFailure
from .mlp import MLPOracle, ToyNet
from .precond import apply_p_squared, build, reduce_rank
from .problems import (
    QuadraticProblem,
    SquaredLoss,
    batch_oracle,
    batch_ridge_solution,
    n_monomials,
    polynomial_features,
)
from .solver import (ConfigError, EstimationError, SolverSettings, config_from_dict,
                     estimate_parameters, run_inference)

log = logging.getLogger(__name__)

OPTIMIZERS = ("sgd", "precond_sgd", "avg_inv", "cg")

SCALAR_ATTEMPTS = 3  # scalar-mode estimates tried before the previous step length is kept
TEST_FRACTION = 0.2  # the held-out share of every problem's samples
MLP_REG = 1e-3  # the network's L2 penalty


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ProblemConfig:
    kind: str = "quadratic"
    data: str | None = None
    n_samples: int = 44484
    input_dim: int = 21
    n_features: int = 253
    alpha_reg: float = 1e-4
    noise: float = 0.05
    signal_dim: int | None = None
    equal_coef: bool = False
    scales: tuple[float, ...] | None = None
    hidden: tuple[int, ...] = (32, 16)
    n_classes: int = 10
    data_seed: int = 0

    def __post_init__(self):
        if self.kind not in ("quadratic", "mlp"):
            raise ConfigError(f"unknown problem kind {self.kind!r}; choose from quadratic, mlp")
        for name, low in (("n_samples", 1), ("input_dim", 1), ("n_features", 1),
                          ("n_classes", 2), ("data_seed", 0)):
            if (value := getattr(self, name)) < low:
                raise ConfigError(f"problem {name} must be at least {low}, got {value}")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(f"problem noise must be non-negative and finite, got {self.noise}")
        if not (np.isfinite(self.alpha_reg) and self.alpha_reg > 0):
            raise ConfigError(f"problem alpha_reg must be positive and finite, got {self.alpha_reg}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"problem hidden sizes must be at least 1, got {list(self.hidden)}")
        if self.scales is not None:
            object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
            if len(self.scales) != self.n_features:
                raise ConfigError(f"problem scales have {len(self.scales)} entries "
                                  f"but problem n_features is {self.n_features}")
            if bad := [s for s in self.scales if not 0 < s < math.inf]:
                raise ConfigError(f"problem scales must be positive and finite, got {bad[0]}")
        if self.signal_dim is not None and not 1 <= self.signal_dim <= self.n_features:
            raise ConfigError(f"problem signal_dim must be in [1, {self.n_features}], "
                              f"got {self.signal_dim}")
        if self.kind == "quadratic" and self.n_features > n_monomials(self.input_dim):
            raise ConfigError(f"problem n_features must be at most {n_monomials(self.input_dim)}, "
                              f"the distinct monomials of {self.input_dim} inputs, "
                              f"got {self.n_features}")

    from_dict = classmethod(config_from_dict)

    def scale_vector(self):
        """The per-feature scales as an array; log-uniform from 1 to 1e-3 by default."""
        if self.scales is None:
            return np.logspace(np.log10(1.0), np.log10(1e-3), self.n_features)
        return np.array(self.scales)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    optimizer: str = "sgd"
    batch_size: int = 256
    lr: float = 0.1
    steps: int | None = None
    epochs: float | None = None
    record_every: int = 10
    seed: int = 0
    target_loss: float | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZERS}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.lr < 0 or not np.isfinite(self.lr):
            raise ConfigError(f"lr must be a non-negative finite number, got {self.lr}")
        if self.steps is not None and self.steps < 1:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if self.epochs is not None and not (np.isfinite(self.epochs) and self.epochs > 0):
            raise ConfigError(f"epochs must be a positive finite number, got {self.epochs}")
        if not 0 <= self.seed < 2 ** 32:
            raise ConfigError(f"seed must be in [0, 2**32), got {self.seed}")
        if self.record_every < 1:
            raise ConfigError(f"record_every must be positive, got {self.record_every}")
        if self.target_loss is not None and not np.isfinite(self.target_loss):
            raise ConfigError(f"target_loss must be finite, got {self.target_loss}")

    from_dict = classmethod(config_from_dict)

    def n_steps(self, n_train):
        if self.steps is not None:
            return self.steps
        if self.epochs is not None:
            steps = self.epochs * n_train / self.batch_size
            if not math.isfinite(steps):
                raise ConfigError(f"epochs {self.epochs!r} imply a step count that is not finite")
            return max(1, math.ceil(steps))
        raise ConfigError("either steps or epochs must be set")


# ---------------------------------------------------------------------------
# run records

@dataclass(frozen=True)
class RunRecord:
    step: int
    data_read: int
    train_loss: float
    test_loss: float
    test_accuracy: float
    step_length: float


RUN_CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))
_record_values = attrgetter(*RUN_CSV_COLUMNS)  # a record's field values, in column order


def write_run_csv(path, records):
    """Write records in the exact run-CSV schema: a row is a record's field values."""
    datagen.write_csv(path, RUN_CSV_COLUMNS, map(_record_values, records))


def write_comparison_csv(path, labeled_records):
    """Write (label, record) pairs: an ``optimizer`` column, then the run-CSV schema."""
    datagen.write_csv(path, ("optimizer",) + RUN_CSV_COLUMNS,
                      ((label, *_record_values(rec)) for label, rec in labeled_records))


# ---------------------------------------------------------------------------
# problem bundles

def dataset(pc: ProblemConfig):
    """The problem block's ``(X, targets)``: ``pc.data`` read and checked, or else
    the synthetic set that ``pc.data_seed`` and the block's sizes generate, whose
    targets must be finite, as a file's must."""
    if pc.data is None:
        if pc.kind == "mlp":
            return datagen.gen_blobs(pc.data_seed, pc.n_samples, pc.input_dim, pc.n_classes)
        with np.errstate(over="ignore", invalid="ignore"):  # a huge noise overflows the targets
            X, y = datagen.gen_regression(pc.data_seed, pc.n_samples, pc.input_dim,
                                          pc.n_features, pc.noise, pc.signal_dim, pc.equal_coef)
        if not np.all(np.isfinite(y)):
            raise ConfigError(f"problem noise {pc.noise:g} makes targets that are not finite")
        return X, y
    X, y = datagen.read_dataset(pc.data)
    if X.shape[1] != pc.input_dim:
        raise ConfigError(
            f"dataset {pc.data} has {X.shape[1]} features, config says {pc.input_dim}")
    if pc.kind == "quadratic":
        return X, y
    # a negative label would wrap in the one-hot index, a large one escape it
    bad = (y != np.round(y)) | (y < 0) | (y >= pc.n_classes)
    if np.any(bad):
        raise ConfigError(f"dataset {pc.data} has label {y[bad][0]:g}; "
                          f"labels must be integers in [0, {pc.n_classes})")
    return X, y.astype(int)


class _Bundle:
    """A problem kind's held-out pair, read from its ``test_metrics``."""

    def test_loss(self, w):
        return self.test_metrics(w)[0]

    def test_accuracy(self, w):
        return self.test_metrics(w)[1]


class QuadraticBundle(_Bundle):
    """A quadratic block's training problem and held-out data term.

    The samples are split first, and the training and held-out rows are
    each mapped to features once, straight into their own array; no
    feature array of all the samples is formed."""

    kind = "quadratic"

    def __init__(self, pc: ProblemConfig):
        self.config = pc
        X, y = dataset(pc)
        tr, te = datagen.train_test_split(X.shape[0], TEST_FRACTION, pc.data_seed)
        scales = pc.scale_vector()
        # features x samples, F-contiguous as the transpose of the row-major map,
        # so each gradient's Phi[:, batch] gather reads one sample's features together
        Phi = polynomial_features(X[tr], scales).T
        self.problem = problem = QuadraticProblem(Phi, y[tr], pc.alpha_reg)
        self.n_train, self.dim = problem.n_data, problem.n_features
        self._optimum = (problem.w_star, problem.loss(problem.w_star))
        # the held-out data term, anchored at the training minimizer too
        self._test_loss = (SquaredLoss(polynomial_features(X[te], scales).T, y[te], problem.w_star)
                           if te.size else None)

    def make_oracle(self, batch_size, seed):
        return batch_oracle(self.problem, batch_size, seed)

    def init_w(self, seed):
        return np.zeros(self.dim)

    def train_loss(self, w):
        return self.problem.loss(w)

    def test_metrics(self, w):
        """Held-out ``(test_loss, NaN)``: a regression has no accuracy."""
        return float("nan") if self._test_loss is None else self._test_loss(w), float("nan")

    def optimum(self):
        return self._optimum


class MLPBundle(_Bundle):
    kind = "mlp"

    def __init__(self, pc: ProblemConfig):
        self.config = pc
        X, targets = dataset(pc)
        tr, te = datagen.train_test_split(X.shape[0], TEST_FRACTION, pc.data_seed)
        self.net = ToyNet((pc.input_dim,) + pc.hidden + (pc.n_classes,), reg=MLP_REG)
        self._train = (X[tr], targets[tr])
        self._test = (X[te], targets[te])
        self.n_train, self.dim = tr.size, self.net.n_params

    def make_oracle(self, batch_size, seed):
        return MLPOracle(self.net, self._train[0], self._train[1], batch_size, seed)

    def init_w(self, seed):
        return self.net.init_params(seed)

    def train_loss(self, w):
        return self.net.loss_value(w, self._train[0], self._train[1])

    def test_metrics(self, w):
        """Held-out ``(test_loss, test_accuracy)``: the data term and the accuracy."""
        X, t = self._test
        if t.size == 0:
            return float("nan"), float("nan")
        return self.net.data_loss_and_accuracy(w, X, t)


def build_problem(pc: ProblemConfig):
    try:
        if pc.kind == "quadratic":
            return QuadraticBundle(pc)
        return MLPBundle(pc)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# optimizer loops

def construct_preconditioner(oracle, w, settings: SolverSettings, base_lr):
    """Estimation, active probing, rank reduction, assembly; one place.

    Rank reduction reads the probe buffers S and Delta of the returned
    ``inference.IncrementalPosterior``, so construction peaks at those
    buffers plus a few N x rank arrays, with no N x m factor copy.

    Returns ``(preconditioner, lr, posterior, estimates)``.  Raises
    ``EstimationError`` / ``SolveFailure`` / ``ValueError`` on failure;
    callers decide whether to fall back.  ``settings.mode`` is not read:
    this is the full-mode construction.
    """
    est = estimate_parameters(oracle, w, settings.init_samples, mode="full")
    post = run_inference(oracle, w, est, settings)
    if post.m == 0:
        raise EstimationError("active solver produced no usable observations")
    k = min(settings.rank, post.m)
    spectral = reduce_rank(post, k)
    precond, lr = build(spectral, base_lr=base_lr)
    return precond, lr, post, est


@np.errstate(over="ignore", invalid="ignore")  # divergence shows in the records instead
def run_sgd_lanes(bundle, cfgs) -> list:
    """Runs of any optimizer, seed and batch size, stepped together per batch stream.

    Every batch is seeded by (seed, position), so runs that share the seed
    and the batch size draw the same batch at each stream position.  Each
    lane keeps its own oracle (its position and reads), iterate, records,
    step rule and step count, so its records equal those of the config run
    alone; a full-mode construction, a scalar rebuild or a CG residual check
    draws on the lane's own oracle and so moves it ahead.  Every lane is
    built, then started and recorded as step 0, before the loop's first
    draw.  The streams are then stepped in turn, in order of first
    appearance: each round, the first lane at the stream's lowest position
    draws the batch, the others there are charged for it, and all step on
    it, the SGD lanes with gradients from one ``gradients`` call; a lane
    that ran ahead waits.  A lane stops at its last step, at its first
    non-finite record after step 0, or when its rule finds it diverged.
    Returns the lanes, one per config, in order.
    """
    lanes = [_LANE_RULES.get(c.optimizer, _Lane)(bundle, c) for c in cfgs]
    for lane in lanes:
        lane.start()
        lane.emit(0)
    for stream in dict.fromkeys((lane.cfg.seed, lane.cfg.batch_size) for lane in lanes):
        live = [lane for lane in lanes if (lane.cfg.seed, lane.cfg.batch_size) == stream]
        while live := [lane for lane in live if lane.diverged is None]:
            position = min(lane.oracle.position for lane in live)
            stepping = [lane for lane in live if lane.oracle.position == position]
            batch = stepping[0].oracle.draw_batch()
            for lane in stepping[1:]:
                lane.oracle.draw_batch(batch)
            takers = [lane for lane in stepping if lane.takes_gradient]
            grads = dict(zip(takers, takers and takers[0].oracle.gradients(
                [lane.w for lane in takers], batch)))
            for lane in stepping:
                lane.step(batch, grads.get(lane))
    return lanes


class _Lane:
    """One run of ``run_sgd_lanes``, and its result: an oracle, an iterate, its
    records and a step rule.

    This class holds the SGD rule, ``w <- w - lr * (P^2 g if a
    pre-conditioner was built, else g)``, for plain SGD, full mode, its
    plain-SGD fallback and scalar mode alike.  Full mode builds P before
    the step-0 record and keeps it as ``precond`` and its scale estimates
    as ``estimates``; a numerical failure there falls back to plain SGD
    with a warning and leaves both ``None``, as plain SGD and the
    baselines do, and a ``ConfigError`` propagates.  Scalar mode steps
    its first epoch at the configured rate and refreshes ``lr`` and the
    recorded step length before the first step of every later epoch,
    after the record of the step before.  The subclasses hold the
    baselines' rules, at step length 0.  ``diverged`` is ``None`` while the
    lane is live and a bool once ``finish``, every lane kind's end, has set
    it, True at any kind's first non-finite record after step 0 or when its rule fails.
    """

    takes_gradient = True  # whether ``step`` reads the batch gradient at ``w``

    def __init__(self, bundle, cfg: ExperimentConfig):
        self.bundle, self.cfg = bundle, cfg
        self.steps = cfg.n_steps(bundle.n_train)
        self.epoch_len = max(1, math.ceil(bundle.n_train / cfg.batch_size))
        self.oracle = bundle.make_oracle(cfg.batch_size, cfg.seed)
        self.w = bundle.init_w(cfg.seed)
        self.records = []
        self.t = 0
        self.precond, self.estimates, self.lr, self.step_length = None, None, cfg.lr, cfg.lr
        self.scalar = cfg.optimizer == "precond_sgd" and cfg.solver.mode == "scalar"
        self.diverged = None

    @property
    def final(self) -> RunRecord:
        return self.records[-1]

    def due(self, step):
        return (step == self.steps or step % self.cfg.record_every == 0
                or step % self.epoch_len == 0)

    def emit(self, step):
        """Append a record at the oracle's reads; returns False when the loss went
        non-finite, and the record then holds NaN losses and accuracy.  A diverging
        iterate overflows the loss; ``run_sgd_lanes`` silences numpy's warnings."""
        nan = float("nan")
        train = self.bundle.train_loss(self.w) if np.all(np.isfinite(self.w)) else nan
        finite = math.isfinite(train)
        losses = (train, *self.bundle.test_metrics(self.w)) if finite else (nan, nan, nan)
        self.records.append(RunRecord(step, self.oracle.data_read, *losses, self.step_length))
        return finite

    def start(self):
        """Full mode's construction, falling back to plain SGD."""
        cfg = self.cfg
        if cfg.optimizer == "precond_sgd" and not self.scalar:
            try:
                self.precond, self.lr, _, self.estimates = construct_preconditioner(
                    self.oracle, self.w, cfg.solver, cfg.lr)
                self.step_length = self.lr * self.precond.alpha ** 2
            except ConfigError:
                raise
            except (EstimationError, SolveFailure, ValueError) as exc:
                log.warning("pre-conditioner construction failed (%s); plain SGD fallback", exc)

    def step(self, batch, g):
        """One step along the gradient ``g``, then its record if one is due, then
        scalar mode's rebuild if the next step opens an epoch: every epoch but
        the first, which steps at the configured rate, starts with one."""
        self.t = t = self.t + 1
        self.w = self.w - self.lr * (apply_p_squared(self.precond, g)
                                     if self.precond is not None else g)
        if self.due(t) and not self.emit(t):
            self.finish(True)
        elif t == self.steps:
            self.finish(False)
        elif self.scalar and t % self.epoch_len == 0:
            self.lr = self.step_length = _scalar_rebuild(
                self.oracle, self.w, self.cfg.solver, self.lr)

    def finish(self, diverged):
        """End the lane, every kind's one end; one that ends diverged logs the one
        warning, which names the rate only for a lane that steps at one."""
        if diverged:
            log.warning("%s diverged at step %d%s", self.cfg.optimizer, self.t,
                        f" (lr={self.cfg.lr:g})" if self.takes_gradient else "")
        self.diverged = diverged


class _Baseline(_Lane):
    """A baseline's lane: a rule that reads the loaded batch, not a gradient, on a
    quadratic problem; its step length is 0."""

    takes_gradient = False

    def __init__(self, bundle, cfg: ExperimentConfig):
        if bundle.kind != "quadratic":
            raise ConfigError(f"{cfg.optimizer} baseline only applies to quadratic problems")
        super().__init__(bundle, cfg)
        self.problem, self.step_length = bundle.problem, 0.0


class _AvgInvLane(_Baseline):
    """The running mean of ``problems.batch_ridge_solution``, one batch per step.

    The per-batch inverse is biased for the inverse of the averaged
    curvature, which is the point of comparing against it.  A batch whose
    solve fails is skipped with a warning but stays charged.  After the
    step-0 record of the zero start, at no reads, the mean is recorded
    after step 1, every ``record_every``-th step and the last step, once a
    batch has been solved; a run with no solved batch records its last step,
    the untouched start at the reads charged, and ends diverged.
    """

    def start(self):
        self.total, self.used = np.zeros(self.problem.n_features), 0

    def step(self, batch, g):
        self.t = t = self.t + 1
        try:
            self.total += batch_ridge_solution(self.problem, batch)
        except (SolveFailure, np.linalg.LinAlgError) as exc:
            log.warning("skipping batch %d in averaged-inverse baseline (%s)", t - 1, exc)
        else:
            self.used += 1
            self.w = self.total / self.used
        due = t == self.steps or self.used and (t == 1 or t % self.cfg.record_every == 0)
        if due and not self.emit(t):
            self.finish(True)
        elif t == self.steps:
            self.finish(not self.used)


class _CgLane(_Baseline):
    """Conjugate gradients from zero on ``B w = b`` from noisy products, one
    iteration per step, each recorded after the step-0 record, which follows
    one full pass charged for ``b``; its product along ``p`` is on the lane's batch.

    Divergence is expected under noise and is recorded, not raised: the
    run stops and flags when ``p.T B p`` stops being positive and finite,
    the residual or the record goes non-finite or the residual's norm
    grows past 10x its start.  The recursive residual goes blind once
    resampled products stop being consistent, so each iteration then
    recomputes it from a product on the next batch, which the lane draws
    itself; a recomputed norm above 10x the recursive one (and not itself
    at convergence level) flags the run too; each exit logs through
    ``finish``.  A run that stops at its first iteration (b = 0, or no
    positive curvature) holds only step 0.
    """

    def start(self):
        self.oracle.data_read += self.problem.n_data  # b = Phi y / n is one full pass
        self.r = self.problem.b.copy()
        self.rs = float(self.r @ self.r)
        self.r0 = np.sqrt(self.rs)
        self.p = self.r.copy()
        if self.r0 == 0:
            self.finish(False)

    def step(self, batch, g):
        self.t = t = self.t + 1
        Ap = self.oracle.hvp(self.w, self.p, batch)
        pAp = float(self.p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0:
            return self.finish(True)
        step = self.rs / pAp
        self.w = self.w + step * self.p
        r = self.r - step * Ap
        rs_new = float(r @ r)
        rnorm = np.sqrt(rs_new)
        if not np.isfinite(rs_new) or not self.emit(t) or rnorm > 10.0 * self.r0:
            return self.finish(True)
        check = np.linalg.norm(self.problem.b - self.oracle.noisy_hvp(self.w, self.w))
        if not np.isfinite(check) or (check > 10.0 * rnorm and check > 1e-2 * self.r0):
            return self.finish(True)
        if t == self.steps:
            return self.finish(False)
        self.p = r + (rs_new / self.rs) * self.p
        self.r, self.rs = r, rs_new


_LANE_RULES = {"avg_inv": _AvgInvLane, "cg": _CgLane}  # the other optimizers are _Lane's


def _scalar_rebuild(oracle, w, settings: SolverSettings, previous):
    """The scalar step rule: ``eta = 1 / b0``, b0 estimated on fresh batches.

    An ``EstimationError`` is retried, ``SCALAR_ATTEMPTS`` times in all.  An
    eta that is not positive and finite, or no estimate, keeps ``previous``.
    """
    for _ in range(SCALAR_ATTEMPTS):
        try:
            est = estimate_parameters(oracle, w, settings.init_samples, mode="scalar")
        except EstimationError as exc:
            log.warning("scalar estimation attempt failed (%s)", exc)
            continue
        eta = 1.0 / est.b0
        if not (np.isfinite(eta) and eta > 0):
            log.warning("scalar step estimate unusable (%r); keeping previous %g", eta, previous)
            return previous
        return float(eta)
    log.warning("scalar estimation failed %d times; keeping step %g", SCALAR_ATTEMPTS, previous)
    return previous


def run_experiment(bundle, cfg: ExperimentConfig) -> _Lane:
    """A run of any optimizer: a lane loop of one run."""
    return run_sgd_lanes(bundle, [cfg])[0]


run_sgd = run_precond_sgd = run_baseline = run_experiment  # one loop, four names


# ---------------------------------------------------------------------------
# comparisons

@dataclass(frozen=True)
class RunSummary:
    label: str
    final_train_loss: float
    final_test_loss: float
    diverged: bool
    data_read: int
    data_read_to_target: int | None


@dataclass
class ComparisonResult:
    labeled_records: list
    summaries: list
    target_loss: float | None

    def summary_text(self):
        lines = []
        if self.target_loss is not None:
            lines.append(f"target train loss: {self.target_loss:.6g}")
        for s in self.summaries:
            reach = "never" if s.data_read_to_target is None else str(s.data_read_to_target)
            lines.append(
                f"{s.label}: final_train={s.final_train_loss:.6g} "
                f"final_test={s.final_test_loss:.6g} diverged={s.diverged} "
                f"data_read={s.data_read} to_target={reach}"
            )
        return "\n".join(lines) + "\n"


def compare(configs, bundle=None) -> ComparisonResult:
    """Run several optimizers on one shared problem and merge the results.

    All configs must agree on the problem block, the seed and the target,
    and no two may share a label; the merged records are keyed by
    (optimizer label, data_read).  ``bundle``, if given, is the problem
    built from that block, and one built from another block is refused
    before any batch is drawn; with none, ``build_problem`` builds it.
    One ``run_sgd_lanes`` call steps every run, and the runs that share a
    batch size share one batch stream; records and summaries stay in
    config order.
    A run's failure, at any lane kind's end, is recorded in its summary, not fatal.
    """
    if not configs:
        raise ConfigError("compare needs at least one run config")
    first = configs[0]
    for name in ("problem", "seed", "target_loss"):
        if any(getattr(cfg, name) != getattr(first, name) for cfg in configs[1:]):
            raise ConfigError(f"compare requires all runs to share the same {name}")
    counts = Counter(cfg.optimizer for cfg in configs)
    labels = [f"{cfg.optimizer}[lr={cfg.lr:g}]" if counts[cfg.optimizer] > 1 else cfg.optimizer
              for cfg in configs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError(f"compare runs share the label {label!r}; their rows could not "
                              "be told apart")
    if bundle is None:
        bundle = build_problem(first.problem)
    elif bundle.config != first.problem:
        raise ConfigError("compare was given a problem built from another problem block")
    target = first.target_loss
    labeled = []
    summaries = []
    for label, result in zip(labels, run_sgd_lanes(bundle, configs)):
        labeled.extend((label, r) for r in result.records)
        # a NaN train loss, which is how a record holds a non-finite one, never reaches it
        reach = next((r.data_read for r in result.records
                      if target is not None and r.train_loss <= target), None)
        final = result.final
        summaries.append(RunSummary(label=label, final_train_loss=final.train_loss,
                                    final_test_loss=final.test_loss,
                                    diverged=result.diverged,
                                    data_read=final.data_read,
                                    data_read_to_target=reach))
    return ComparisonResult(labeled, summaries, target)
