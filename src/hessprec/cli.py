"""Command-line entry points.

Subcommands: ``gen-data`` (write the problem block's dataset), ``estimate``
(scale/noise parameter estimates from minibatches), ``solve`` (run the
active probing loop and save the posterior), ``precond`` (build and save
a pre-conditioner), ``run`` (one optimizer run -> CSV), ``compare``
(several optimizers on a shared problem -> merged CSV + summary).
``solve`` and ``precond`` run the full-mode construction only.

Exit codes: 0 success, 1 configuration or usage error (a problem block
too large to allocate included), 2 numerical failure or a diverged run
(outputs are still written when possible).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import data as datagen
from .harness import (
    ConfigError,
    ExperimentConfig,
    build_problem,
    compare,
    construct_preconditioner,
    dataset,
    run_experiment,
    write_comparison_csv,
    write_run_csv,
)
from .inference import posterior_to_dict
from .linalg import SolveFailure
from .precond import precond_to_dict
from .solver import EstimationError, estimate_parameters, run_inference


def _parse_set_args(items):
    """Turn ``a.b=value`` override strings into a nested dict."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set key {key!r} conflicts with an earlier override")
        node[parts[-1]] = value
    return out


def read_config_object(path):
    """The JSON object in the file at ``path``; anything else is a ``ConfigError``."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return payload


def merge_config(base, over):
    out = dict(base)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], value)
        else:
            out[key] = value
    return out


def _overrides(args):
    """The ``--set`` entries, then every config flag the command has and was given."""
    overrides = _parse_set_args(args.set)
    for name in ("optimizer", "lr", "steps", "epochs", "seed", "batch_size"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return overrides


def _config_from_args(args):
    overrides = _overrides(args)
    if args.config is not None:
        overrides = merge_config(read_config_object(args.config), overrides)
    return ExperimentConfig.from_dict(overrides)


def _setup(args, full_mode=False):
    """The config of ``args``, a fresh oracle on its problem and the start point;
    with ``full_mode``, a scalar ``solver.mode`` is refused, not ignored."""
    cfg = _config_from_args(args)
    if full_mode and cfg.solver.mode != "full":
        raise ConfigError(f"{args.command} runs the full-mode construction; "
                          f"solver.mode {cfg.solver.mode!r} is read by estimate and run only")
    bundle = build_problem(cfg.problem)
    return cfg, bundle.make_oracle(cfg.batch_size, cfg.seed), bundle.init_w(cfg.seed)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _add_config_file_flags(p):
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config entry, e.g. --set problem.n_samples=4096")


def _add_config_flags(p):
    _add_config_file_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)


def _cmd_gen_data(args):
    X, y = dataset(_config_from_args(args).problem)
    datagen.write_dataset(args.out, X, y)
    print(f"wrote {X.shape[0]} samples x {X.shape[1]} features to {args.out}")
    return 0


def _cmd_estimate(args):
    cfg, oracle, w = _setup(args)
    est = estimate_parameters(oracle, w, cfg.solver.init_samples, mode=cfg.solver.mode)
    print(json.dumps({
        "mode": cfg.solver.mode,
        "b0": est.b0, "w0": est.w0, "lam0": est.lam0,
        "grad_norm": float(np.linalg.norm(est.mean_grad)),
        "n": int(est.mean_grad.size),
        "data_read": int(oracle.data_read),
    }, indent=2))
    return 0


def _cmd_solve(args):
    cfg, oracle, w = _setup(args, full_mode=True)
    est = estimate_parameters(oracle, w, cfg.solver.init_samples, mode="full")
    rows, refused = [], False
    try:
        post = run_inference(oracle, w, est, cfg.solver, callback=rows.append)
    except ConfigError:  # refused before the first probe, so there is no loop to log
        refused = True
        raise
    finally:
        # written even when the loop fails part-way, so the log shows how far it got
        if args.log and not refused:
            datagen.write_csv(args.log, ("iteration", "probe_norm", "data_read"), rows)
    _write_json(args.out, posterior_to_dict(post))
    print(f"wrote posterior (n={post.n}, m={post.m}, b0={post.prior.b0:g}) to {args.out}")
    print(f"data_read={oracle.data_read}")
    return 0


def _cmd_precond(args):
    cfg, oracle, w = _setup(args, full_mode=True)
    precond, _, post, _ = construct_preconditioner(oracle, w, cfg.solver, cfg.lr)
    _write_json(args.out, precond_to_dict(precond))
    print(f"wrote preconditioner (n={precond.spectral.n}, k={precond.spectral.k}, "
          f"alpha={precond.alpha:g}) to {args.out}")
    print(f"posterior rank m={post.m}, data_read={oracle.data_read}")
    return 0


def _cmd_run(args):
    cfg = _config_from_args(args)
    bundle = build_problem(cfg.problem)
    result = run_experiment(bundle, cfg)
    write_run_csv(args.out, result.records)
    final = result.final
    print(f"wrote {len(result.records)} records to {args.out}")
    print(f"final: step={final.step} data_read={final.data_read} "
          f"train_loss={final.train_loss:g} diverged={result.diverged}")
    return 2 if result.diverged else 0


def _cmd_compare(args):
    if args.config is None:
        raise ConfigError("compare requires --config")
    payload = read_config_object(args.config)
    if unknown := sorted(payload.keys() - {"base", "runs"}):
        raise ConfigError(f"unknown compare keys: {unknown}")
    base, runs = payload.get("base", {}), payload.get("runs")
    if not (isinstance(base, dict) and isinstance(runs, list)
            and all(isinstance(entry, dict) for entry in runs)):
        raise ConfigError('compare config must be {"base": {...}, "runs": [{...}, ...]}')
    overrides = _overrides(args)
    configs = []
    for entry in runs:
        merged = merge_config(merge_config(base, entry), overrides)
        configs.append(ExperimentConfig.from_dict(merged))
    result = compare(configs)
    write_comparison_csv(args.out, result.labeled_records)
    text = result.summary_text()
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(text)
    print(f"wrote {len(result.labeled_records)} records to {args.out}")
    print(text, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors exit 1, since 2 means a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="hessprec",
        description="Low-rank Hessian inference and pre-conditioned SGD experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the problem block's dataset as a CSV")
    _add_config_file_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("estimate", help="estimate scale/noise parameters")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("solve", help="run active probing, save the posterior")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="write per-iteration CSV log here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("precond", help="build a pre-conditioner, save it")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_precond)

    p = sub.add_parser("run", help="run one optimizer, write the curve CSV")
    _add_config_flags(p)
    p.add_argument("--optimizer")
    p.add_argument("--lr", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--epochs", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="run several optimizers on one problem")
    _add_config_file_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--summary", help="write the text summary here as well")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it must be caught first
    except (SolveFailure, EstimationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # such as a problem block too large to generate
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
