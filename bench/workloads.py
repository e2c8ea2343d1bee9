"""The three benchmark workloads and their output checks.

Each workload has ``setup()``, which builds the problem or oracle the
timed part needs, ``run(state)``, the timed part, which returns its
result, and ``outcome(result)``, which checks the result outside the
timed region.  An ``Outcome`` carries the results fingerprint (per run:
label, diverged, reads to target, reads, final loss), the runs whose
check failed, the loaded batch count and the workload's result metric.

- ``regression``: the criterion-07 four-way comparison, built by
  ``scripts/run_regression_comparison.py`` itself.
- ``mlp_sweep``: the criterion-09 learning-rate sweep, built by
  ``scripts/run_mlp_lr_sweep.py`` with that script's default grid.
- ``probe_large``: ``harness.construct_preconditioner`` in full mode at
  N=10^5 with 64 probes on the synthetic oracle in ``probe_oracle``,
  then a short pre-conditioned SGD loop.

The two comparisons run ``harness.compare`` on the bundle built in
``setup()``: ``harness.build_problem`` is swapped for one that returns
it while ``compare`` runs, so the timed part does not build the problem
a second time.
"""
from __future__ import annotations

import contextlib
import importlib.util
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Traced functions are called through their modules, so that the
# tracer's wrappers are the ones called.
from hessprec import harness, precond

from probe_oracle import ProbeOracle


@dataclass
class Outcome:
    rows: list
    failed: dict
    batches: float
    results: dict
    precond_labels: list
    csv_bytes: int = 0
    diverged: int = 0
    extra: dict = field(default_factory=dict)

    def fingerprint(self):
        return {"rows": self.rows, "results": self.results}


def _row(label, diverged, to_target, data_read, loss):
    loss = float(loss)
    return [label, bool(diverged), to_target, int(data_read),
            loss if math.isfinite(loss) else None]


def same_results(a, b, rtol):
    """Fingerprints agree: integers and flags exactly, losses to ``rtol``."""
    if len(a["rows"]) != len(b["rows"]) or a["results"].keys() != b["results"].keys():
        return False
    for ra, rb in zip(a["rows"], b["rows"]):
        if ra[:4] != rb[:4]:
            return False
        if ra[1]:
            continue
        if (ra[4] is None) != (rb[4] is None):
            return False
        if ra[4] is not None and not math.isclose(ra[4], rb[4], rel_tol=rtol):
            return False
    return all(math.isclose(a["results"][k], b["results"][k], rel_tol=rtol)
               for k in a["results"])


def _load_script(root, name):
    path = os.path.join(root, "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _given_bundle(bundle):
    """Make ``harness.build_problem`` return ``bundle`` inside the block."""
    original = harness.build_problem
    harness.build_problem = lambda pc: bundle
    try:
        yield
    finally:
        harness.build_problem = original


def _compare(bundle, runs, csv_path=None):
    with _given_bundle(bundle), np.errstate(over="ignore", invalid="ignore"):
        result = harness.compare(runs)
    if csv_path is not None:
        harness.write_comparison_csv(csv_path, result.labeled_records)
    return result


def _comparison_rows(result):
    return [_row(s.label, s.diverged, s.data_read_to_target, s.data_read,
                 s.final_train_loss) for s in result.summaries]


class Regression:
    """Criterion 07: SGD grid, pre-conditioned SGD, averaged inverses, noisy CG."""

    batch_size = 256

    def __init__(self, seed, root, out_dir):
        self.seed = seed
        self.script = _load_script(root, "run_regression_comparison")
        self.csv_path = os.path.join(out_dir, f"regression_{seed}.csv")

    def setup(self):
        pc = self.script.problem_config(self.seed)
        bundle = harness.QuadraticBundle(pc)
        _, star = bundle.optimum()
        init = bundle.train_loss(np.zeros(bundle.dim))
        target = star + 0.01 * (init - star)
        return bundle, self.script.build_runs(pc, self.seed, target)

    def run(self, state):
        return _compare(*state, self.csv_path)

    def outcome(self, result):
        by_label = {}
        for label, rec in result.labeled_records:
            by_label.setdefault(label, []).append(rec)
        summary = {s.label: s for s in result.summaries}
        failed = {}
        sgd_reads = [s.data_read_to_target if s.data_read_to_target is not None
                     else s.data_read for s in result.summaries
                     if s.label.startswith("sgd[")
                     and (s.data_read_to_target is not None or not s.diverged)]
        pre = summary["precond_sgd"]
        reached = pre.data_read_to_target is not None and not pre.diverged
        if not reached:
            failed["precond_sgd"] = "did not reach the target"
        elif not sgd_reads or pre.data_read_to_target > min(sgd_reads) / 2:
            failed["precond_sgd"] = "needs more than half the reads of the best SGD"
        avg = summary["avg_inv"]
        pre_at = [r.train_loss for r in by_label["precond_sgd"] if r.data_read <= avg.data_read]
        if reached and not avg.final_train_loss > pre_at[-1]:
            failed["avg_inv"] = "not worse than precond_sgd at its final read count"
        cg = summary["cg"]
        if not (cg.diverged and len(by_label["cg"]) - 1 <= 20):
            failed["cg"] = "noisy CG was not flagged divergent within 20 steps"
        reads = sum(s.data_read for s in result.summaries)
        return Outcome(rows=_comparison_rows(result), failed=failed,
                       batches=reads / self.batch_size,
                       results={"reads_to_target": pre.data_read_to_target or 0},
                       precond_labels=["precond_sgd"],
                       csv_bytes=os.path.getsize(self.csv_path),
                       diverged=sum(s.diverged for s in result.summaries))


class MLPSweep:
    """Criterion 09: plain SGD versus scalar mode over a two-decade grid."""

    batch_size = 128
    grid = np.logspace(-3.5, -1.5, 5)
    epochs = 20.0

    def __init__(self, seed, root, out_dir):
        self.seed = seed
        self.script = _load_script(root, "run_mlp_lr_sweep")

    def setup(self):
        runs = self.script.build_runs(self.seed, self.grid, self.epochs)
        return harness.build_problem(runs[0].problem), runs

    def run(self, state):
        return _compare(*state)

    def outcome(self, result):
        sgd = [s for s in result.summaries if s.label.startswith("sgd")]
        scalar = [s for s in result.summaries if s.label.startswith("precond_sgd")]
        failed = {}
        sgd_losses = [s.final_train_loss for s in sgd]
        sgd_spread = max(sgd_losses) / min(sgd_losses)
        if not sgd_spread > 2.0:
            failed.update((s.label, f"SGD spread {sgd_spread:.3g} is not above 2") for s in sgd)
        losses = [s.final_train_loss for s in scalar]
        lr_spread = max(losses) / min(losses)
        if not lr_spread <= 1.2:
            failed.update((s.label, f"scalar-mode spread {lr_spread:.3g} is above 1.2")
                          for s in scalar)
        failed.update((s.label, "scalar-mode run diverged") for s in scalar if s.diverged)
        reads = sum(s.data_read for s in result.summaries)
        return Outcome(rows=_comparison_rows(result), failed=failed,
                       batches=reads / self.batch_size,
                       results={"lr_spread": lr_spread},
                       precond_labels=[s.label for s in scalar],
                       diverged=sum(s.diverged for s in result.summaries),
                       extra={"sgd_spread": sgd_spread})


class ProbeLarge:
    """Full-mode construction at N=10^5, m=64, then a short pre-conditioned loop."""

    n = 100_000
    probes = 64
    rank = 16
    init_samples = 5
    steps = 200
    lr = 2e-5
    # The kept rank-16 directions span 0.50-0.56 of the exact head on
    # seeds 0-9; a drop below this floor means the estimate got worse.
    capture_floor = 0.4

    def __init__(self, seed, root, out_dir):
        self.seed = seed
        self.settings = harness.SolverSettings(iterations=self.probes,
                                               init_samples=self.init_samples,
                                               rank=self.rank)

    def setup(self):
        return ProbeOracle(self.n, self.seed)

    def run(self, oracle):
        oracle.restart()
        w = np.zeros(oracle.dim)
        pre, lr, post, _ = harness.construct_preconditioner(oracle, w, self.settings, self.lr)
        for _ in range(self.steps):
            w = w - lr * precond.apply_p_squared(pre, oracle.noisy_gradient(w))
        return oracle, pre, post, w

    def outcome(self, result):
        oracle, pre, post, w = result
        capture = oracle.capture(pre.spectral.U)
        loss, loss0 = oracle.loss(w), oracle.loss(np.zeros_like(w))
        failed = []
        if not capture > self.capture_floor:
            failed.append(f"capture {capture:.3f} is not above {self.capture_floor}")
        if post.m != self.probes:
            failed.append(f"{post.m} of {self.probes} probes accepted")
        if not loss < loss0:
            failed.append(f"loss {loss:.6g} did not fall below its start {loss0:.6g}")
        row = _row("precond_sgd", not math.isfinite(loss), None, oracle.data_read, loss)
        return Outcome(rows=[row],
                       failed={"precond_sgd": "; ".join(failed)} if failed else {},
                       batches=oracle.data_read / oracle.batch_size,
                       results={"capture": capture},
                       precond_labels=["precond_sgd"],
                       diverged=int(row[1]))


WORKLOADS = {"regression": Regression, "mlp_sweep": MLPSweep, "probe_large": ProbeLarge}
