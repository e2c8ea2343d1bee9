#!/usr/bin/env python3
"""Four-way optimizer comparison on the ill-conditioned synthetic regression.

Runs, per seed: a five-point fixed-step SGD grid, pre-conditioned SGD,
the batched-inverse averaging baseline, and the noisy CG baseline, all
against the same target (1% of the initial suboptimality above the
exact solution).  Prints one summary block per seed and optionally
writes the full record CSV per seed.

The problem places all the signal on 16 steep curvature directions
(eigenvalues spread over two decades) above a flat 237-direction bulk
whose per-batch covariance is nearly singular at batch 256 — the regime
where batch inversion is biased and plain CG loses coherence.
"""
import argparse
import sys
import time

import numpy as np

from hessprec.harness import (
    ExperimentConfig,
    ProblemConfig,
    QuadraticBundle,
    SolverSettings,
    compare,
    write_comparison_csv,
)
from hessprec.problems import n_monomials


def head_tail_scales(head_hi=3e5, head_lo=1e4, lam_tail=0.1, d=21):
    """Feature scales: 16 leading directions between the two head values,
    the rest moment-corrected to a flat bulk eigenvalue ``lam_tail``.

    The bulk scales correct for each monomial's second moment (squares 3,
    cross terms 1, squared norm 2d + d^2) so the bulk eigenvalues land
    together; the first 16 monomials are linear coordinates with unit
    second moment, so their scales are the target eigenvalue roots.
    """
    second = np.ones(n_monomials(d))
    iu, ju = np.triu_indices(d)
    second[d:d + iu.size] = np.where(iu == ju, 3.0, 1.0)
    second[-1] = 2 * d + d * d
    s = np.sqrt(lam_tail / second)
    s[:16] = np.sqrt(np.logspace(np.log10(head_hi), np.log10(head_lo), 16))
    return tuple(map(float, s))


def problem_config(seed):
    return ProblemConfig(kind="quadratic", n_samples=20000, input_dim=21,
                         n_features=253, alpha_reg=5e-5, noise=1.0,
                         signal_dim=16, equal_coef=True,
                         scales=head_tail_scales(), data_seed=seed)


def build_runs(pc, seed, target):
    solver = SolverSettings(iterations=16, init_samples=5, rank=16)
    runs = [ExperimentConfig(problem=pc, optimizer="sgd", lr=4e-8 * 10 ** i,
                             batch_size=256, steps=12000, record_every=500,
                             seed=seed, target_loss=target) for i in range(5)]
    runs.append(ExperimentConfig(problem=pc, optimizer="precond_sgd", lr=2e-4,
                                 batch_size=256, steps=2200, record_every=25,
                                 solver=solver, seed=seed, target_loss=target))
    runs.append(ExperimentConfig(problem=pc, optimizer="avg_inv", batch_size=256,
                                 steps=900, record_every=20, seed=seed,
                                 target_loss=target))
    runs.append(ExperimentConfig(problem=pc, optimizer="cg", batch_size=256,
                                 steps=20, record_every=1, seed=seed,
                                 target_loss=target))
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--out-prefix", help="write <prefix><seed>.csv per seed")
    args = ap.parse_args(argv)

    t0 = time.time()
    for seed in args.seeds:
        pc = problem_config(seed)
        bundle = QuadraticBundle(pc)
        _, star = bundle.optimum()
        init = bundle.train_loss(np.zeros(bundle.dim))
        target = star + 0.01 * (init - star)
        print(f"seed {seed}: exact loss {star:.6g}, target {target:.6g}")
        with np.errstate(over="ignore", invalid="ignore"):
            result = compare(build_runs(pc, seed, target))
        print(result.summary_text(), end="")
        if args.out_prefix:
            path = f"{args.out_prefix}{seed}.csv"
            write_comparison_csv(path, result.labeled_records)
            print(f"  records -> {path}")
        print()
    print(f"total {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
