#!/usr/bin/env python3
"""Learning-rate sweep on the little tanh network: plain SGD vs scalar mode.

Sweeps five initial learning rates spanning two decades on the 10-class
Gaussian-blobs problem.  Plain SGD keeps its rate; the scalar-mode runs
refresh their step length from fresh curvature probes at every epoch
boundary after the first, which runs at the initial rate; that should
make the final train losses nearly independent of where the grid
started.  Prints final losses and the max/min spread per optimizer.
"""
import argparse
import sys
import time

import hessprec  # first: its one-BLAS-thread default must precede numpy's load
import numpy as np

from hessprec.harness import (
    ExperimentConfig,
    ProblemConfig,
    SolverSettings,
    compare,
    write_comparison_csv,
)

GRID = np.logspace(-3.5, -1.5, 5)  # the initial learning rates, two decades
EPOCHS = 20.0


def build_runs(seed, grid, epochs):
    pc = ProblemConfig(kind="mlp", n_samples=4096, input_dim=20, n_classes=10,
                       hidden=(32, 16), data_seed=seed)
    runs = [ExperimentConfig(problem=pc, optimizer="sgd", lr=float(lr),
                             batch_size=128, epochs=epochs, record_every=50,
                             seed=seed) for lr in grid]
    scalar = SolverSettings(mode="scalar", init_samples=6)
    runs += [ExperimentConfig(problem=pc, optimizer="precond_sgd", lr=float(lr),
                              batch_size=128, epochs=epochs, record_every=50,
                              seed=seed, solver=scalar) for lr in grid]
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=float, default=EPOCHS)
    ap.add_argument("--out-prefix", help="write <prefix><seed>.csv per seed")
    args = ap.parse_args(argv)

    t0 = time.time()
    for seed in args.seeds:
        result = compare(build_runs(seed, GRID, args.epochs))
        finals = {s.label: s.final_train_loss for s in result.summaries}
        print(f"seed {seed}:")
        for label, loss in finals.items():
            print(f"  {label:28s} final train loss {loss:.5g}")
        sgd = [v for k, v in finals.items() if k.startswith("sgd")]
        sc = [v for k, v in finals.items() if k.startswith("precond_sgd")]
        print(f"  spread: sgd {max(sgd) / min(sgd):.2f}x, "
              f"scalar mode {max(sc) / min(sc):.2f}x")
        if args.out_prefix:
            path = f"{args.out_prefix}{seed}.csv"
            write_comparison_csv(path, result.labeled_records)
            print(f"  records -> {path}")
    print(f"total {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
