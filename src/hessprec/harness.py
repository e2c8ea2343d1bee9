"""Experiment harness: configs, optimizer loops, baselines, comparisons.

Two problem kinds cover the paper's two experiments: ``quadratic``, the
ill-conditioned regression on polynomial features with the averaged
inverse and CG baselines, and ``mlp``, the small network of the
learning-rate sweep.  All loops share a cost axis: cumulative samples
loaded from disk (``data_read``), charged through the oracle including
everything spent on pre-conditioner construction, so curves from
different methods are directly comparable.  Runs are deterministic given
(config, seed), and so is every emitted CSV, byte for byte: no column
holds a wall time.  Every record, baselines' included, is built by one
``_Recorder``.  ``ProblemConfig`` checks the rules on the problem block's
fields, so ``gen-data`` refuses a block that breaks one before it writes.

``run_sgd_lanes`` is the one step loop.  It steps plain SGD, full mode,
its plain-SGD fallback and scalar mode as lanes: the lanes at the lowest
stream position step on one drawn batch with one ``gradients`` call, and
each lane keeps its own oracle and draws its own batches for a
construction or a scalar rebuild, so its records equal those of the run
made alone.  ``compare`` runs every ``sgd`` and ``precond_sgd`` config
of one batch size in it.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import data as datagen
from .linalg import SolveFailure
from .mlp import MLPOracle, ToyNet
from .precond import apply_p_squared, build, reduce_rank
from .problems import (
    QuadraticProblem,
    SquaredLoss,
    avg_inv_baseline,
    batch_oracle,
    cg_baseline,
    n_monomials,
    polynomial_features,
)
from .solver import (ConfigError, EstimationError, SolverSettings, config_from_dict,
                     estimate_parameters, run_inference)

log = logging.getLogger(__name__)

RUN_CSV_COLUMNS = ("step", "data_read", "train_loss", "test_loss",
                   "test_accuracy", "step_length")

OPTIMIZERS = ("sgd", "precond_sgd", "avg_inv", "cg")
LANE_OPTIMIZERS = ("sgd", "precond_sgd")  # the runs that run_sgd_lanes steps

SCALAR_ATTEMPTS = 3  # scalar-mode estimates tried before the previous step length is kept


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
    reg: float = 1e-3
    noise: float = 0.05
    signal_dim: int | None = None
    equal_coef: bool = False
    scales: tuple[float, ...] | None = None
    hidden: tuple[int, ...] = (32, 16)
    n_classes: int = 10
    separation: float = 3.0
    test_fraction: float = 0.2
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
        if not (np.isfinite(self.reg) and self.reg >= 0):
            raise ConfigError(f"problem reg must be non-negative and finite, got {self.reg}")
        if not (np.isfinite(self.alpha_reg) and self.alpha_reg > 0):
            raise ConfigError(f"problem alpha_reg must be positive and finite, got {self.alpha_reg}")
        if not np.isfinite(self.separation):
            raise ConfigError(f"problem separation must be finite, got {self.separation}")
        if not 0 <= self.test_fraction < 1:
            raise ConfigError(f"problem test_fraction must be in [0, 1), got {self.test_fraction}")
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


@dataclass
class RunResult:
    records: list
    diverged: bool
    w: np.ndarray
    info: dict = field(default_factory=dict)

    @property
    def final(self) -> RunRecord:
        return self.records[-1]


def _csv_row(rec):
    """The RUN_CSV_COLUMNS cells of one record; floats in shortest round-trip form."""
    floats = (rec.train_loss, rec.test_loss, rec.test_accuracy, rec.step_length)
    return [str(rec.step), str(rec.data_read)] + [repr(float(x)) for x in floats]


def write_run_csv(path, records):
    """Write records in the exact run-CSV schema."""
    datagen.write_csv(path, RUN_CSV_COLUMNS, (_csv_row(rec) for rec in records))


def write_comparison_csv(path, labeled_records):
    """Write (label, record) pairs: an ``optimizer`` column, then the run-CSV schema."""
    datagen.write_csv(path, ("optimizer",) + RUN_CSV_COLUMNS,
                      ([label] + _csv_row(rec) for label, rec in labeled_records))


# ---------------------------------------------------------------------------
# problem bundles

def dataset(pc: ProblemConfig):
    """The problem block's ``(X, targets)``: ``pc.data`` read and checked, or else
    the synthetic set that ``pc.data_seed`` and the block's sizes generate."""
    if pc.data is None:
        if pc.kind == "quadratic":
            return datagen.gen_regression(pc.data_seed, pc.n_samples, pc.input_dim,
                                          pc.n_features, pc.noise, pc.signal_dim, pc.equal_coef)
        return datagen.gen_blobs(pc.data_seed, pc.n_samples, pc.input_dim, pc.n_classes,
                                 pc.separation)
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


class QuadraticBundle:
    kind = "quadratic"

    def __init__(self, pc: ProblemConfig):
        X, y = dataset(pc)
        Phi = polynomial_features(X, pc.scale_vector()).T  # features x samples
        tr, te = datagen.train_test_split(Phi.shape[1], pc.test_fraction, pc.data_seed)
        self.problem = problem = QuadraticProblem(Phi[:, tr], y[tr], pc.alpha_reg)
        self._optimum = (problem.w_star, problem.loss(problem.w_star))
        # the held-out split lives as long as the bundle: freed here, it moved
        # malloc's mmap threshold and raised the regression benchmark's peak
        # RSS from 197 to 230 MB once set-ups repeat
        self._test = (Phi[:, te], y[te])
        # the held-out data term, anchored at the training minimizer too
        self._test_loss = SquaredLoss(*self._test, problem.w_star) if te.size else None

    @property
    def n_train(self):
        return self.problem.n_data

    @property
    def dim(self):
        return self.problem.n_features

    def make_oracle(self, batch_size, seed):
        return batch_oracle(self.problem, batch_size, seed)

    def init_w(self, seed):
        return np.zeros(self.dim)

    def train_loss(self, w):
        return self.problem.loss(w)

    def test_loss(self, w):
        return float("nan") if self._test_loss is None else self._test_loss(w)

    def test_accuracy(self, w):
        return float("nan")

    def test_metrics(self, w):
        return self.test_loss(w), float("nan")

    def optimum(self):
        return self._optimum


class MLPBundle:
    kind = "mlp"

    def __init__(self, pc: ProblemConfig):
        X, targets = dataset(pc)
        tr, te = datagen.train_test_split(X.shape[0], pc.test_fraction, pc.data_seed)
        self.net = ToyNet((pc.input_dim,) + pc.hidden + (pc.n_classes,), reg=pc.reg)
        self._train = (X[tr], targets[tr])
        self._test = (X[te], targets[te])

    @property
    def n_train(self):
        return self._train[0].shape[0]

    @property
    def dim(self):
        return self.net.n_params

    def make_oracle(self, batch_size, seed):
        return MLPOracle(self.net, self._train[0], self._train[1], batch_size, seed)

    def init_w(self, seed):
        return self.net.init_params(seed)

    def train_loss(self, w):
        return self.net.loss_value(w, self._train[0], self._train[1])

    def test_loss(self, w):
        return self.test_metrics(w)[0]

    def test_accuracy(self, w):
        return self.test_metrics(w)[1]

    def test_metrics(self, w):
        """Held-out ``(test_loss, test_accuracy)`` from one forward pass."""
        X, t = self._test
        if t.size == 0:
            return float("nan"), float("nan")
        loss, acc = self.net.loss_and_accuracy(w, X, t)
        # report the data term only on held-out samples
        return loss - 0.5 * self.net.reg * float(w @ w), acc

    def optimum(self):
        return None


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

class _Recorder:
    """Emission schedule plus loss evaluation shared by all loops."""

    def __init__(self, bundle, cfg, oracle, total_steps):
        self.bundle = bundle
        self.cfg = cfg
        self.oracle = oracle
        self.total = total_steps
        self.epoch_len = max(1, math.ceil(bundle.n_train / cfg.batch_size))
        self.records = []

    def due(self, step):
        return (step == 0 or step == self.total
                or step % self.cfg.record_every == 0
                or step % self.epoch_len == 0)

    def emit(self, step, w, step_length):
        """Append a record at the oracle's reads; returns False when the loss went non-finite.

        A diverging iterate overflows the loss, which the record reports as NaN, so
        numpy's overflow warnings are silenced here.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            train = self.bundle.train_loss(w) if np.all(np.isfinite(w)) else float("nan")
            read = self.oracle.data_read
            if not np.isfinite(train):
                self.records.append(RunRecord(step, read, float("nan"), float("nan"),
                                              float("nan"), step_length))
                return False
            self.records.append(RunRecord(step, read, train, *self.bundle.test_metrics(w),
                                          step_length))
        return True


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


def run_sgd(bundle, cfg: ExperimentConfig) -> RunResult:
    """Plain fixed-step SGD: a lane loop of one run."""
    return run_sgd_lanes(bundle, [cfg])[0]


def run_precond_sgd(bundle, cfg: ExperimentConfig) -> RunResult:
    """SGD behind the curvature-adapted pre-conditioner: a lane loop of one run.

    Full mode builds P once up front and steps along P^2 g; scalar mode
    steps along g at the configured rate for its first epoch and
    refreshes the step length before the first step of every later
    epoch, before that step's batch is drawn.  Numerical
    construction failures fall back to plain SGD with a warning; a
    ``ConfigError`` (such as more probes than dimensions) propagates.
    """
    return run_sgd_lanes(bundle, [cfg])[0]


@np.errstate(over="ignore", invalid="ignore")  # divergence shows in the records instead
def run_sgd_lanes(bundle, cfgs) -> list:
    """SGD runs, plain and pre-conditioned, stepped together on one batch stream.

    Every batch is seeded by (seed, position), so runs that share the seed
    and the batch size draw the same batch at each stream position.  Each
    lane keeps its own oracle (its position and reads), parameters,
    records, step rule and step count, so its records equal those of the
    config run alone; a full-mode construction or a scalar rebuild draws
    on the lane's own oracle and so moves it ahead.  Each round, the first
    lane at the lowest position draws the batch, every other lane there
    is charged for it, and they step on it with one ``gradients`` call; a
    lane that ran ahead waits for the others.  A lane stops at its last
    step or at the first record whose loss is non-finite.  Returns one
    ``RunResult`` per config, in order.
    """
    cfgs = list(cfgs)
    seed, batch_size = cfgs[0].seed, cfgs[0].batch_size
    if any(c.seed != seed or c.batch_size != batch_size for c in cfgs):
        raise ConfigError("SGD lanes must share the seed and the batch size")
    lanes = [_Lane(bundle, c) for c in cfgs]
    for lane in lanes:
        lane.start()
    live = lanes
    while live:
        position = min(lane.oracle.position for lane in live)
        stepping = [lane for lane in live if lane.oracle.position == position]
        batch = stepping[0].oracle.draw_batch()
        for lane in stepping[1:]:
            lane.oracle.draw_batch(batch)
        grads = stepping[0].oracle.gradients([lane.w for lane in stepping], batch)
        for lane, g in zip(stepping, grads):
            lane.step(g)
        live = [lane for lane in live if lane.result is None]
    return [lane.result for lane in lanes]


class _Lane:
    """One run of ``run_sgd_lanes``: an oracle, an iterate, a recorder and a step rule.

    The step is ``w <- w - lr * (P^2 g if a pre-conditioner was built,
    else g)`` for plain SGD, full mode, its plain-SGD fallback and scalar
    mode alike; scalar mode refreshes ``lr`` and the recorded step length
    at its rebuilds, each after the record of the step before.
    """

    def __init__(self, bundle, cfg: ExperimentConfig):
        self.cfg = cfg
        self.steps = cfg.n_steps(bundle.n_train)
        self.oracle = bundle.make_oracle(cfg.batch_size, cfg.seed)
        self.w = bundle.init_w(cfg.seed)
        self.rec = _Recorder(bundle, cfg, self.oracle, self.steps)
        self.t = 0
        self.precond, self.lr, self.step_length = None, cfg.lr, cfg.lr
        self.scalar = cfg.optimizer == "precond_sgd" and cfg.solver.mode == "scalar"
        self.info = {"rebuilds": 0, "eta": cfg.lr} if self.scalar else {}
        self.result = None

    def start(self):
        """Full mode's construction, falling back to plain SGD; then the step-0 record."""
        cfg = self.cfg
        if cfg.optimizer == "precond_sgd" and not self.scalar:
            try:
                self.precond, self.lr, _, est = construct_preconditioner(
                    self.oracle, self.w, cfg.solver, cfg.lr)
                self.info.update(alpha2=self.precond.alpha ** 2, rank=self.precond.spectral.k,
                                 construction_data_read=self.oracle.data_read,
                                 b0=est.b0, w0=est.w0, lam0=est.lam0)
                self.step_length = self.lr * self.precond.alpha ** 2
            except ConfigError:
                raise
            except (EstimationError, SolveFailure, ValueError) as exc:
                log.warning("pre-conditioner construction failed (%s); plain SGD fallback", exc)
                self.info.update(fallback=str(exc))
        self.rec.emit(0, self.w, self.step_length)

    def step(self, g):
        """One step along the gradient ``g``, then its record if one is due, then
        scalar mode's rebuild if the next step opens an epoch: every epoch but
        the first, which steps at the configured rate, starts with one."""
        self.t = t = self.t + 1
        self.w = self.w - self.lr * (apply_p_squared(self.precond, g)
                                     if self.precond is not None else g)
        if self.rec.due(t) and not self.rec.emit(t, self.w, self.step_length):
            if self.cfg.optimizer == "precond_sgd":
                log.warning("precond_sgd diverged at step %d", t)
            else:
                log.warning("sgd diverged at step %d (lr=%g)", t, self.cfg.lr)
            self.result = RunResult(self.rec.records, True, self.w, self.info)
        elif t == self.steps:
            self.result = RunResult(self.rec.records, False, self.w, self.info)
        elif self.scalar and t % self.rec.epoch_len == 0:
            self.lr = self.step_length = self.info["eta"] = _scalar_rebuild(
                self.oracle, self.w, self.cfg.solver, self.lr)
            self.info["rebuilds"] += 1


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


def run_baseline(bundle, cfg: ExperimentConfig) -> RunResult:
    if cfg.optimizer not in ("avg_inv", "cg"):
        raise ConfigError(f"{cfg.optimizer!r} is not a baseline")
    if bundle.kind != "quadratic":
        raise ConfigError(f"{cfg.optimizer} baseline only applies to quadratic problems")
    n = cfg.n_steps(bundle.n_train)
    oracle = bundle.make_oracle(cfg.batch_size, cfg.seed)
    rec = _Recorder(bundle, cfg, oracle, n)
    if cfg.optimizer == "avg_inv":
        def cb(t, w_mean):
            if (t + 1) % cfg.record_every == 0 or t == 0 or t + 1 == n:
                rec.emit(t + 1, w_mean, 0.0)

        w = avg_inv_baseline(oracle, n, callback=cb)
        return RunResult(rec.records, False, w)
    oracle.data_read += bundle.n_train  # b = Phi y / n is one full pass over the data
    w, diverged = cg_baseline(oracle, bundle.problem.b, n,
                              callback=lambda t, x, res_norm: rec.emit(t + 1, x, 0.0))
    if not rec.records:  # no iteration completed (b = 0, or no positive curvature at once)
        rec.emit(0, w, 0.0)
    return RunResult(rec.records, diverged, w)


def run_experiment(bundle, cfg: ExperimentConfig) -> RunResult:
    if cfg.optimizer == "sgd":
        return run_sgd(bundle, cfg)
    if cfg.optimizer == "precond_sgd":
        return run_precond_sgd(bundle, cfg)
    return run_baseline(bundle, cfg)


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


def _run_label(cfg, counts):
    base = cfg.optimizer
    if counts[base] > 1:
        return f"{base}[lr={cfg.lr:g}]"
    return base


def compare(configs) -> ComparisonResult:
    """Run several optimizers on one shared problem and merge the results.

    All configs must agree on the problem block, the seed and the target,
    and no two may share a label; the merged records are keyed by
    (optimizer label, data_read).
    The ``sgd`` and ``precond_sgd`` runs that share a batch size are
    stepped together by ``run_sgd_lanes``, on one batch stream; records
    and summaries stay in config order.
    Divergence of an individual run is recorded in its summary, not fatal.
    """
    if not configs:
        raise ConfigError("compare needs at least one run config")
    first = configs[0]
    for name in ("problem", "seed", "target_loss"):
        if any(getattr(cfg, name) != getattr(first, name) for cfg in configs[1:]):
            raise ConfigError(f"compare requires all runs to share the same {name}")
    counts = {}
    for cfg in configs:
        counts[cfg.optimizer] = counts.get(cfg.optimizer, 0) + 1
    labels = [_run_label(cfg, counts) for cfg in configs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError(f"compare runs share the label {label!r}; their rows could not "
                              "be told apart")
    bundle = build_problem(first.problem)
    target = first.target_loss
    results = [None] * len(configs)
    for i, cfg in enumerate(configs):
        if results[i] is not None:
            continue
        if cfg.optimizer not in LANE_OPTIMIZERS:
            results[i] = run_baseline(bundle, cfg)
            continue
        lanes = [j for j, c in enumerate(configs)
                 if c.optimizer in LANE_OPTIMIZERS and c.batch_size == cfg.batch_size]
        for j, result in zip(lanes, run_sgd_lanes(bundle, [configs[j] for j in lanes])):
            results[j] = result

    labeled = []
    summaries = []
    for label, result in zip(labels, results):
        for r in result.records:
            labeled.append((label, r))
        reach = None
        if target is not None:
            for r in result.records:
                if np.isfinite(r.train_loss) and r.train_loss <= target:
                    reach = r.data_read
                    break
        final = result.final
        summaries.append(RunSummary(label=label, final_train_loss=final.train_loss,
                                    final_test_loss=final.test_loss,
                                    diverged=result.diverged,
                                    data_read=final.data_read,
                                    data_read_to_target=reach))
    return ComparisonResult(labeled, summaries, target)
