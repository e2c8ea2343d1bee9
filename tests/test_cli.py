import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hessprec.cli as cli_mod
from hessprec.cli import _parse_set_args, main
from hessprec.data import read_dataset, write_dataset
from hessprec.harness import (
    ConfigError,
    ExperimentConfig,
    ProblemConfig,
    SolverSettings,
    construct_preconditioner,
)
from hessprec.linalg import SolveFailure
from hessprec.solver import HessianOracle, estimate_parameters, run_inference

SMALL = [
    "--set", "problem.n_samples=400",
    "--set", "problem.input_dim=4",
    "--set", "problem.n_features=12",
    "--set", "solver.iterations=6",
    "--set", "solver.init_samples=3",
    "--set", "solver.rank=6",
    "--batch-size", "64",
]


def small_setup(argv):
    """Config, oracle and start point of a CLI command, from the CLI's own set-up."""
    return cli_mod._setup(cli_mod.build_parser().parse_args(argv))


class TestSetParsing:
    def test_nested_keys_and_json_values(self):
        out = _parse_set_args(["problem.noise=0.2", "lr=0.5",
                               "problem.scales=[1.0,0.5]", "optimizer=sgd"])
        assert out == {"problem": {"noise": 0.2, "scales": [1.0, 0.5]},
                       "lr": 0.5, "optimizer": "sgd"}

    def test_bare_strings_pass_through(self):
        assert _parse_set_args(["optimizer=precond_sgd"]) == {
            "optimizer": "precond_sgd"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            _parse_set_args(["loose"])

    def test_scalar_then_nested_conflict(self):
        with pytest.raises(ConfigError, match="conflicts"):
            _parse_set_args(["problem=3", "problem.noise=0.1"])


class TestGenData:
    def test_regression_features_past_the_monomials_exit_1(self, tmp_path, capsys):
        out = tmp_path / "reg.csv"
        args = ["gen-data", "--out", str(out), "--set", "problem.n_samples=50",
                "--set", "problem.input_dim=3"]
        # the default n_features (253) exceeds the 10 monomials of 3 inputs, as in a run
        assert main(args) == 1
        assert ("problem n_features must be at most 10, the distinct monomials of 3 inputs, "
                "got 253") in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--set", "problem.n_features=10"]) == 0
        X, y = read_dataset(out)
        assert X.shape == (50, 3) and y.shape == (50,)
        assert "50 samples x 3 features" in capsys.readouterr().out
        # a data file forms no features, and the block is still refused, as a run refuses it
        copy = tmp_path / "copy.csv"
        block = args[3:] + ["--set", f'problem.data="{out}"', "--set", "problem.n_features=12"]
        assert main(["gen-data", "--out", str(copy), *block]) == 1
        assert "problem n_features must be at most 10" in capsys.readouterr().err
        assert not copy.exists()
        assert main(["run", "--out", str(copy), *block, "--optimizer", "sgd", "--steps", "3",
                     "--batch-size", "8"]) == 1
        assert "problem n_features must be at most 10" in capsys.readouterr().err
        assert not copy.exists()

    def test_blobs(self, tmp_path):
        out = tmp_path / "blobs.csv"
        rc = main(["gen-data", "--out", str(out), "--set", "problem.kind=mlp",
                   "--set", "problem.n_samples=60", "--set", "problem.input_dim=5",
                   "--set", "problem.n_classes=4", "--set", "problem.data_seed=2"])
        assert rc == 0
        X, labels = read_dataset(out)
        assert X.shape == (60, 5)
        assert set(labels.astype(int)) <= set(range(4))

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(["gen-data", "--out", str(out), "--set", "problem.kind=spirals",
                   "--set", "problem.n_samples=10"])
        assert rc == 1
        assert "unknown problem kind" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("problem", [
        ["--set", "problem.n_samples=400", "--set", "problem.input_dim=4",
         "--set", "problem.n_features=12", "--set", "problem.signal_dim=4",
         "--set", "problem.equal_coef=true", "--set", "problem.data_seed=3"],
        ["--set", "problem.kind=mlp", "--set", "problem.n_samples=200",
         "--set", "problem.input_dim=6", "--set", "problem.n_classes=3",
         "--set", "problem.hidden=[5]", "--set", "problem.data_seed=3"],
    ], ids=["quadratic", "mlp"])
    def test_run_on_the_written_dataset_matches_the_synthetic_run(self, tmp_path, capsys,
                                                                   problem):
        data = tmp_path / "data.csv"
        assert main(["gen-data", *problem, "--out", str(data)]) == 0
        run = ["run", *problem, "--optimizer", "sgd", "--lr", "0.01", "--steps", "8",
               "--batch-size", "32", "--set", "record_every=2"]
        assert main(run + ["--out", str(tmp_path / "synthetic.csv")]) == 0
        assert main(run + ["--set", f'problem.data="{data}"',
                           "--out", str(tmp_path / "read.csv")]) == 0
        assert (tmp_path / "read.csv").read_bytes() == (tmp_path / "synthetic.csv").read_bytes()
        # a dataset named in the block is checked and written back unchanged
        copy = tmp_path / "copy.csv"
        assert main(["gen-data", *problem, "--set", f'problem.data="{data}"',
                     "--out", str(copy)]) == 0
        assert copy.read_bytes() == data.read_bytes()
        capsys.readouterr()


class TestEstimate:
    def test_prints_parameter_json(self, capsys):
        rc = main(["estimate", *SMALL])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "full"
        assert payload["b0"] > 0 and payload["w0"] > 0 and payload["lam0"] >= 0
        assert payload["grad_norm"] > 0
        assert payload["n"] == 12
        assert payload["data_read"] == 3 * 64

    def test_scalar_mode(self, capsys):
        rc = main(["estimate", *SMALL, "--set", "solver.mode=scalar"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "scalar"

    def test_zero_gradient_is_numerical_failure(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        rng = np.random.default_rng(0)
        write_dataset(data, rng.standard_normal((100, 4)), np.zeros(100))
        rc = main(["estimate", "--set", f'problem.data="{data}"',
                   "--set", "problem.input_dim=4",
                   "--set", "problem.n_features=12",
                   "--batch-size", "50"])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_scale_is_numerical_failure(self, capsys):
        # y.y overflows to inf while s.y stays finite
        scales = "[" + ",".join(["1e60"] * 12) + "]"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["estimate", *SMALL[:6], "--set", f"problem.scales={scales}",
                       "--batch-size", "32"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical failure: scale estimates are not usable (b0=inf" in err


class TestSolve:
    def test_writes_posterior_and_log(self, tmp_path, capsys):
        out = tmp_path / "post.json"
        log = tmp_path / "iters.csv"
        rc = main(["solve", *SMALL, "--out", str(out), "--log", str(log)])
        assert rc == 0
        with open(out) as fh:
            payload = json.load(fh)
        cfg, oracle, w = small_setup(["solve", *SMALL, "--out", str(out)])
        est = estimate_parameters(oracle, w, cfg.solver.init_samples, mode="full")
        rows = []
        post = run_inference(oracle, w, est, cfg.solver, callback=rows.append)
        assert payload["kind"] == "posterior_mean"
        assert (payload["n"], payload["m"]) == (12, 6) == (post.n, post.m)
        assert (payload["b0"], payload["w0"]) == (post.prior.b0, post.prior.w0)
        np.testing.assert_array_equal(np.reshape(payload["A"], (12, 6)), post.A)
        np.testing.assert_array_equal(np.reshape(payload["C"], (12, 6)), post.C)
        # 3 estimation batches of 64, then one batch per probe; probe norms in
        # shortest round-trip form
        golden = "iteration,probe_norm,data_read\n" + "".join(
            f"{i},{probe_norm!r},{192 + 64 * i}\n" for i, (_, probe_norm, _) in enumerate(rows, 1))
        assert len(rows) == 6
        assert log.read_bytes() == golden.encode()
        capsys.readouterr()

    def test_failed_run_leaves_its_partial_log(self, tmp_path, monkeypatch, capsys):
        real = cli_mod.run_inference

        def fails_after_two(oracle, w, est, settings, callback):
            def cb(row):
                callback(row)
                if row[0] == 2:  # the iteration
                    raise SolveFailure("capacitance matrix is numerically singular")
            return real(oracle, w, est, settings, callback=cb)

        monkeypatch.setattr(cli_mod, "run_inference", fails_after_two)
        out, log = tmp_path / "post.json", tmp_path / "iters.csv"
        rc = main(["solve", *SMALL, "--out", str(out), "--log", str(log)])
        assert rc == 2
        assert "numerical failure" in capsys.readouterr().err
        lines = log.read_text().splitlines()
        assert lines[0] == "iteration,probe_norm,data_read"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
        assert not out.exists()

    def test_more_iterations_than_dimensions_exits_1(self, tmp_path, capsys):
        # refused before the first probe: neither the posterior nor a log is written
        out, log = tmp_path / "post.json", tmp_path / "iters.csv"
        rc = main(["solve", *SMALL, "--set", "solver.iterations=16", "--out", str(out),
                   "--log", str(log)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "iterations (16) exceed the parameter dimension (12)" in err
        assert "Traceback" not in err
        assert not out.exists() and not log.exists()


@pytest.mark.parametrize("command", ["solve", "precond"])
def test_zero_batch_gradient_keeps_the_posterior_so_far(tmp_path, capsys, command):
    # five nonzero targets in 160 training samples: a batch of 8 that misses
    # them has an exactly zero gradient at w = 0, which ends the probing loop
    X = np.random.default_rng(0).standard_normal((200, 4))
    y = np.zeros(200)
    y[:5] = 1
    data, out = tmp_path / "sparse.csv", tmp_path / "out.json"
    write_dataset(data, X, y)
    rc = main([command, "--set", f"problem.data={data}", "--set", "problem.input_dim=4",
               "--set", "problem.n_features=12", "--set", "solver.iterations=6",
               "--batch-size", "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert re.search(r"\bm=1\b", captured.out)
    assert out.exists()


class TestPrecond:
    def test_writes_loadable_preconditioner(self, tmp_path, capsys):
        out = tmp_path / "P.json"
        rc = main(["precond", *SMALL, "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            payload = json.load(fh)
        cfg, oracle, w = small_setup(["precond", *SMALL, "--out", str(out)])
        precond, _, _, _ = construct_preconditioner(oracle, w, cfg.solver, cfg.lr)
        sp = precond.spectral
        assert payload["kind"] == "preconditioner"
        assert payload["n"] == 12 and 1 <= payload["k"] <= 6
        assert (payload["n"], payload["k"]) == sp.U.shape
        assert (payload["alpha"], payload["beta"]) == (precond.alpha, precond.beta)
        assert payload["alpha"] >= 1.0
        np.testing.assert_array_equal(payload["sigma"], sp.sigma)
        np.testing.assert_array_equal(np.reshape(payload["U"], sp.U.shape), sp.U)
        capsys.readouterr()

    def test_failed_rank_reduction_exits_2(self, tmp_path, monkeypatch, capsys):
        def fails(gram_a, gram_c, mul_a, keep=None):
            raise SolveFailure("synthetic rank-reduction failure")

        monkeypatch.setattr("hessprec.precond.thin_svd_product", fails)
        out = tmp_path / "P.json"
        rc = main(["precond", *SMALL, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "numerical failure: synthetic rank-reduction failure" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestRun:
    def run_args(self, out, extra=()):
        return ["run", *SMALL, "--optimizer", "sgd", "--lr", "0.05",
                "--steps", "12", "--out", str(out), *extra]

    def test_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(self.run_args(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("step,data_read,")
        assert len(lines) > 2
        assert "diverged=False" in capsys.readouterr().out

    def test_byte_identical_repeats(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.run_args(a)) == 0
        assert main(self.run_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_named_flag_beats_set_override(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["run", *SMALL, "--set", "lr=0.9", "--set", "optimizer=\"sgd\"",
                   "--lr", "0.05", "--steps", "5", "--out", str(out)])
        assert rc == 0
        first_row = out.read_text().splitlines()[1].split(",")
        assert first_row[5] == "0.05"  # step_length column
        capsys.readouterr()

    def test_divergent_run_exits_2_but_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "boom.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["run", *SMALL, "--optimizer", "sgd", "--lr", "1e8",
                       "--steps", "40", "--out", str(out)])
        assert rc == 2
        assert out.exists() and len(out.read_text().splitlines()) > 1
        assert "diverged=True" in capsys.readouterr().out

    @pytest.mark.parametrize("problem, lr", [
        (["--set", "problem.n_samples=400", "--set", "problem.input_dim=4",
          "--set", "problem.n_features=12"], "1e6"),
        (["--set", "problem.kind=mlp", "--set", "problem.n_samples=200",
          "--set", "problem.input_dim=8", "--set", "problem.hidden=[8]"], "1e8"),
    ], ids=["quadratic", "mlp"])
    def test_diverging_run_raises_no_numpy_warning(self, tmp_path, capsys, problem, lr):
        out = tmp_path / "div.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["run", *problem, "--optimizer", "sgd", "--lr", lr, "--steps", "50",
                       "--batch-size", "32", "--out", str(out)])
        assert rc == 2
        assert out.read_text().splitlines()[-1].split(",")[2] == "nan"
        assert "diverged=True" in capsys.readouterr().out

    def test_linalg_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def singular(bundle, cfg):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli_mod, "run_experiment", singular)
        assert main(self.run_args(tmp_path / "x.csv")) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_precond_iterations_above_dimension_exits_1(self, tmp_path, capsys, caplog):
        out = tmp_path / "run.csv"
        rc = main(["run", *SMALL, "--optimizer", "precond_sgd", "--set",
                   "solver.iterations=16", "--steps", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "config error: iterations (16) exceed the parameter dimension (12)" in err
        assert "Traceback" not in err
        assert not any("fallback" in r.getMessage() for r in caplog.records)
        assert not out.exists()

    @pytest.mark.parametrize("label", [-1, 3])
    def test_mlp_label_out_of_range_exits_1(self, tmp_path, capsys, label):
        data = tmp_path / "blobs.csv"
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=60)
        labels[7] = label
        write_dataset(data, rng.standard_normal((60, 5)), labels)
        rc = main(["run", "--set", "problem.kind=mlp",
                   "--set", f'problem.data="{data}"',
                   "--set", "problem.input_dim=5", "--set", "problem.n_classes=3",
                   "--set", "problem.hidden=[4]", "--optimizer", "sgd",
                   "--lr", "0.1", "--steps", "2", "--batch-size", "16",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"label {label}" in err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        rc = main(["run", "--set", "problem.flavor=1", "--optimizer", "sgd",
                   "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "optimizer": "sgd", "lr": 0.05, "steps": 6, "batch_size": 64,
            "problem": {"kind": "quadratic", "n_samples": 400, "input_dim": 4,
                        "n_features": 12},
            "solver": {"iterations": 6, "init_samples": 3, "rank": 6},
        }))
        out = tmp_path / "run.csv"
        rc = main(["run", "--config", str(cfg), "--set", "steps=4",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[-1].split(",")[0] == "4"
        capsys.readouterr()


class TestCompare:
    def test_merged_csv_and_summary(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "base": {
                "batch_size": 64, "steps": 8, "record_every": 4, "seed": 0,
                "target_loss": 0.5,
                "problem": {"kind": "quadratic", "n_samples": 400,
                            "input_dim": 4, "n_features": 12},
            },
            "runs": [
                {"optimizer": "sgd", "lr": 0.1},
                {"optimizer": "sgd", "lr": 0.05},
                {"optimizer": "avg_inv"},
            ],
        }))
        out = tmp_path / "cmp.csv"
        summary = tmp_path / "summary.txt"
        rc = main(["compare", "--config", str(cfg), "--out", str(out),
                   "--summary", str(summary)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("optimizer,step,")
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"sgd[lr=0.1]", "sgd[lr=0.05]", "avg_inv"}
        text = summary.read_text()
        assert "target train loss" in text and "avg_inv:" in text
        assert text in capsys.readouterr().out

    def test_colliding_labels_exit_1_and_write_nothing(self, tmp_path, capsys):
        # both runs would be labelled sgd[lr=0.1]: the label omits the batch size
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "base": {"optimizer": "sgd", "lr": 0.1, "steps": 4, "seed": 0,
                     "problem": {"kind": "quadratic", "n_samples": 400,
                                 "input_dim": 4, "n_features": 12}},
            "runs": [{"batch_size": 16}, {"batch_size": 64}],
        }))
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert "share the label 'sgd[lr=0.1]'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        rc = main(["compare", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "requires --config" in capsys.readouterr().err

    def test_malformed_payload_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"base": {}}))
        rc = main(["compare", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "runs" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "reg.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "hessprec", "gen-data", "--out", str(out),
             "--set", "problem.n_samples=30", "--set", "problem.input_dim=3",
             "--set", "problem.n_features=10"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_blas_threads_default_to_one(self, tmp_path):
        # the set-up moments of 1,600 samples take OpenBLAS's threaded path,
        # whose sums differ by thread count; unset, the count defaults to one
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        unset = {k: v for k, v in os.environ.items() if k not in blas}
        csvs = []
        for name, env in (("unset", unset), ("one", dict(unset, **dict.fromkeys(blas, "1")))):
            csvs.append(tmp_path / f"{name}.csv")
            proc = subprocess.run(
                [sys.executable, "-m", "hessprec", "run", "--set", "problem.n_samples=2000",
                 "--optimizer", "sgd", "--lr", "1e-3", "--steps", "40", "--batch-size", "64",
                 "--set", "record_every=5", "--out", str(csvs[-1])],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        assert csvs[0].read_bytes() == csvs[1].read_bytes()


# Each bad input: (subcommand, extra CLI arguments, JSON written to the
# --config file or None).  A run gets SMALL's settings as --set overrides,
# which a later --set of the same key replaces.
BAD_INPUTS = {
    "config-is-a-list": ("run", [], [1, 2]),
    "problem-not-an-object": ("run", ["--set", "problem=3"], None),
    "solver-not-an-object": ("run", ["--set", "solver=3"], None),
    "noise-is-a-string": ("run", ["--set", 'problem.noise="x"'], None),
    "iterations-not-an-integer": ("run", ["--set", "solver.iterations=2.5"], None),
    "batch-size-not-an-integer": ("run", ["--set", "batch_size=1.5"], None),
    "batch-size-is-a-bool": ("run", ["--set", "batch_size=true"], None),
    "steps-not-an-integer": ("run", ["--set", "steps=2.5"], None),
    "steps-zero": ("run", ["--set", "steps=0"], None),
    "hidden-not-integers": ("run", ["--set", "problem.hidden=[8,2.5]"], None),
    "scales-entry-null": ("run", ["--set", "problem.scales=[1.0,null]"], None),
    "target-loss-is-a-string": ("run", ["--set", 'target_loss="x"'], None),
    "epochs-inf": ("run", ["--epochs", "inf"], None),
    "epochs-negative": ("run", ["--epochs", "-3"], None),
    "epochs-nan": ("run", ["--epochs", "nan"], None),
    "epochs-zero": ("run", ["--epochs", "0"], None),
    # finite, but epochs * n_train overflows to an infinite step count
    "epochs-overflow": ("run", ["--epochs", "1e308", "--set", "steps=null"], None),
    "seed-negative": ("run", ["--set", "seed=-1"], None),
    "seed-past-32-bits": ("run", ["--set", "seed=4294967296"], None),
    "scales-profile-dict": ("run", ["--set", 'problem.scales={"profile": "two_band"}'], None),
    "logistic-kind": ("run", ["--set", "problem.kind=logistic"], None),
    "newton-optimizer": ("run", ["--optimizer", "newton_oracle"], None),
    "n-classes-one": ("run", ["--set", "problem.kind=mlp", "--set", "problem.n_classes=1"], None),
    "n-classes-zero": ("run", ["--set", "problem.kind=mlp", "--set", "problem.n_classes=0"], None),
    "input-dim-negative": ("run", ["--set", "problem.input_dim=-2"], None),
    "noise-negative": ("run", ["--set", "problem.noise=-0.5"], None),
    "compare-config-a-list": ("compare", [], [{"optimizer": "sgd"}]),
    "compare-runs-of-ints": ("compare", [], {"base": {}, "runs": [1]}),
    "compare-runs-an-object": ("compare", [], {"base": {}, "runs": {"optimizer": "sgd"}}),
    "compare-base-a-list": ("compare", [], {"base": [1], "runs": [{"optimizer": "sgd"}]}),
    # a misspelled block: the run is valid on its own, so only the key check refuses it
    "compare-unknown-key": ("compare", [], {
        "bases": {"problem": {"n_samples": 400, "input_dim": 4, "n_features": 12},
                  "batch_size": 32},
        "runs": [{"optimizer": "sgd", "lr": 0.01, "steps": 3}]}),
    # one scale per feature, so the length check passes and the NaN is what fails
    "scales-entry-nan": ("run", ["--set", "problem.scales=[1.0,NaN" + ",0.5" * 10 + "]"], None),
    "target-loss-nan": ("run", ["--set", "target_loss=NaN"], None),
    "target-loss-inf": ("run", ["--set", "target_loss=Infinity"], None),
    "compare-targets-differ": ("compare", [], {"base": {}, "runs": [{"target_loss": 1e-12},
                                                                 {"target_loss": 1e9}]}),
    "gen-data-noise-nan": ("gen-data", ["--set", "problem.noise=NaN"], None),
    "gen-data-noise-negative": ("gen-data", ["--set", "problem.noise=-0.5"], None),
    "gen-data-input-dim-zero": ("gen-data", ["--set", "problem.kind=mlp",
                                             "--set", "problem.input_dim=0"], None),
    "gen-data-seed-negative": ("gen-data", ["--set", "problem.kind=mlp",
                                            "--set", "problem.data_seed=-1"], None),
    "data-seed-negative": ("run", ["--set", "problem.data_seed=-1"], None),
    # the test writes header-only.csv, a header with no rows, in the working directory
    "dataset-header-only": ("run", ["--set", "problem.data=header-only.csv",
                                    "--set", "problem.input_dim=4"], None),
    # keys the config does not have: any value is an unknown key, named as such
    "timing-not-a-bool": ("run", ["--set", "timing=1"], None),
    "target-suboptimality-negative": ("run", ["--set", "target_suboptimality=-0.5"], None),
    "target-suboptimality-nan": ("run", ["--set", "target_suboptimality=NaN"], None),
    "both-targets": ("run", ["--set", "target_loss=0.5", "--set", "target_suboptimality=0.1"],
                     None),
    "warmup-false": ("run", ["--set", "warmup=false"], None),
    "rebuild-every-two": ("run", ["--set", "rebuild_every=2"], None),
    "solver-beta-half": ("run", ["--set", "solver.beta=0.5"], None),
    "separation-nan": ("run", ["--set", "problem.kind=mlp", "--set", "problem.separation=NaN"],
                       None),
    "gen-data-separation-nan": ("gen-data", ["--set", "problem.kind=mlp",
                                             "--set", "problem.separation=NaN"], None),
}


# The cases whose message must also name the field at fault, or the fault.
NAMED_FIELD = {"epochs-overflow": "epochs", "n-classes-one": "n_classes", "n-classes-zero": "n_classes",
               "input-dim-negative": "input_dim", "noise-negative": "noise",
               "scales-entry-nan": "scales",
               "target-loss-nan": "target_loss", "target-loss-inf": "target_loss",
               "timing-not-a-bool": "config keys: ['timing']",
               "target-suboptimality-negative": "config keys: ['target_suboptimality']",
               "target-suboptimality-nan": "config keys: ['target_suboptimality']",
               "both-targets": "config keys: ['target_suboptimality']",
               "warmup-false": "config keys: ['warmup']",
               "rebuild-every-two": "config keys: ['rebuild_every']",
               "solver-beta-half": "solver keys: ['beta']",
               "separation-nan": "problem keys: ['separation']",
               "gen-data-separation-nan": "problem keys: ['separation']",
               "compare-targets-differ": "target_loss",
               "compare-unknown-key": "compare keys: ['bases']",
               "gen-data-noise-nan": "noise",
               "gen-data-noise-negative": "noise", "gen-data-input-dim-zero": "input_dim",
               "gen-data-seed-negative": "data_seed", "data-seed-negative": "data_seed",
               "dataset-header-only": "no data rows"}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_1_with_a_message(tmp_path, capsys, monkeypatch, case):
    command, extra, payload = BAD_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "header-only.csv").write_text("x0,x1,x2,x3,target\n")
    args = [command, "--out", str(tmp_path / "out.csv")]
    if payload is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(payload))
        args += ["--config", str(tmp_path / "cfg.json")]
    if command == "run":
        args += [*SMALL[:-2], "--set", "batch_size=64", "--set", "steps=3",
                 "--optimizer", "sgd"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would leak to stderr
        rc = main(args + extra)
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and "Traceback" not in err
    assert NAMED_FIELD.get(case, "") in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_non_finite_dataset_cell_exits_1(tmp_path, capsys, cell):
    X = np.random.default_rng(0).standard_normal((100, 4))
    X[2, 1] = cell
    write_dataset(tmp_path / "reg.csv", X, np.ones(100))
    out = tmp_path / "out.csv"
    rc = main(["run", "--set", f'problem.data="{tmp_path / "reg.csv"}"',
               "--set", "problem.input_dim=4", "--set", "problem.n_features=12",
               "--optimizer", "sgd", "--steps", "3", "--batch-size", "16", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and "data row 3, column 2" in err
    assert "Traceback" not in err
    assert not out.exists()


# 10^15 samples: numpy refuses the first array (149 PiB of regression inputs,
# 7.1 PiB of blob labels) before it allocates anything
@pytest.mark.parametrize("command, kind", [("run", "quadratic"), ("run", "mlp"),
                                           ("gen-data", "quadratic"), ("gen-data", "mlp")])
def test_problem_too_large_to_allocate_exits_1(tmp_path, capsys, command, kind):
    out = tmp_path / "out.csv"
    args = [command, "--set", f"problem.kind={kind}",
            "--set", "problem.n_samples=1000000000000000", "--out", str(out)]
    rc = main(args + (["--optimizer", "sgd", "--steps", "3"] if command == "run" else []))
    err = capsys.readouterr().err
    assert rc == 1
    assert "out of memory" in err and "Unable to allocate" in err
    assert "Traceback" not in err
    assert not out.exists()


# Rules that need only the problem block, each with a kind to try it on (they
# hold for either kind): gen-data refuses the block before it writes anything,
# with the message that a run of the block gives.  The network's penalty and the
# held-out share are constants, so setting either is an unknown key.
BLOCK_RULES = {
    "scales-negative": ("quadratic", "problem.scales=[-1,1,1,1]",
                        "problem scales must be positive"),
    "scales-short": ("quadratic", "problem.scales=[1,1]", "problem scales have 2 entries"),
    "alpha-reg-zero": ("quadratic", "problem.alpha_reg=0", "problem alpha_reg must be positive"),
    "alpha-reg-negative": ("quadratic", "problem.alpha_reg=-1",
                           "problem alpha_reg must be positive"),
    "reg-negative": ("mlp", "problem.reg=-1", "unknown problem keys: ['reg']"),
    "hidden-zero": ("mlp", "problem.hidden=[0]", "problem hidden sizes must be at least 1"),
    "test-fraction-above-1": ("quadratic", "problem.test_fraction=1.5",
                              "unknown problem keys: ['test_fraction']"),
    "signal-dim-zero": ("quadratic", "problem.signal_dim=0",
                        "problem signal_dim must be in [1, 4], got 0"),
    "signal-dim-negative": ("mlp", "problem.signal_dim=-4",
                            "problem signal_dim must be in [1, 4], got -4"),
}


@pytest.mark.parametrize("case", BLOCK_RULES)
def test_gen_data_and_run_refuse_the_same_block(tmp_path, capsys, case):
    kind, setting, message = BLOCK_RULES[case]
    block = ["--set", f"problem.kind={kind}", "--set", "problem.n_samples=50",
             "--set", "problem.input_dim=3", "--set", "problem.n_features=4", "--set", setting]
    out = tmp_path / "out.csv"
    assert main(["gen-data", *block, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert not out.exists()
    assert main(["run", *block, "--optimizer", "sgd", "--steps", "2", "--batch-size", "8",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_cg_on_all_zero_targets_writes_the_start_point(tmp_path, capsys):
    data = tmp_path / "zero.csv"
    write_dataset(data, np.random.default_rng(0).standard_normal((200, 4)), np.zeros(200))
    out = tmp_path / "cg.csv"
    rc = main(["run", "--set", f'problem.data="{data}"', "--set", "problem.input_dim=4",
               "--set", "problem.n_features=12", "--optimizer", "cg", "--steps", "20",
               "--batch-size", "32", "--out", str(out)])
    assert rc == 0
    # b = Phi y / n is one full pass over the 160 training samples
    assert out.read_text().splitlines()[1:] == ["0,160,0.0,0.0,nan,0.0"]
    assert "diverged=False" in capsys.readouterr().out


OVERFLOW_COMMANDS = pytest.mark.parametrize(
    "command", [["run", "--optimizer", name, "--steps", "20"]
                for name in ("sgd", "precond_sgd", "avg_inv", "cg")] + [["estimate"]],
    ids=lambda c: c[-3] if len(c) > 1 else c[0])


# scales of 1e160 overflow G = Phi Phi.T / |D|, which the problem refuses
@OVERFLOW_COMMANDS
def test_overflowing_feature_moments_exit_1(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    scales = "[" + ",".join(["1e160"] * 12) + "]"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would leak to stderr
        rc = main([*command, *SMALL[:6], "--set", f"problem.scales={scales}",
                   "--set", "solver.iterations=4", "--batch-size", "32"]
                  + (["--out", str(out)] if command[0] == "run" else []))
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error: the feature moments overflow" in err
    assert not out.exists()


# noise of 1e200 gives targets whose squared residuals overflow, so the loss
# at the minimizer is not finite, which the problem refuses
@OVERFLOW_COMMANDS
def test_overflowing_targets_exit_1(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would leak to stderr
        rc = main([*command, *SMALL[:6], "--set", "problem.noise=1e200",
                   "--set", "solver.iterations=4", "--batch-size", "32"]
                  + (["--out", str(out)] if command[0] == "run" else []))
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error: the targets overflow" in err
    assert not out.exists()


# noise of 1e308 overflows the synthetic targets themselves: gen-data refuses
# them before it writes, and a run before it builds the problem
@pytest.mark.parametrize("command", [["gen-data"], ["run", "--optimizer", "sgd", "--steps", "3"]],
                         ids=lambda c: c[0])
def test_non_finite_synthetic_targets_exit_1(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would leak to stderr
        rc = main([*command, "--set", "problem.noise=1e308", "--set", "problem.n_samples=500",
                   "--set", "problem.input_dim=3", "--set", "problem.n_features=4",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error: problem noise 1e+308 makes targets that are not finite" in err
    assert not out.exists()


# solve and precond take no optimizer-run flags, and no command has --timing
@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in ("solve", "precond")
      for flag in ("--optimizer=sgd", "--lr=0.1", "--steps=3", "--epochs=1")),
    ("precond", "--timing"), ("run", "--timing"), ("solve", "--timing"),
])
def test_command_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *SMALL, "--out", str(tmp_path / "out.json"), flag])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# solve and precond run the full-mode construction only, so a scalar mode is
# refused before a batch is drawn rather than ignored
@pytest.mark.parametrize("command", ["solve", "precond"])
def test_full_mode_command_refuses_scalar_mode(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(HessianOracle, "draw_batch", lambda *args: pytest.fail("drew a batch"))
    out = tmp_path / "out.json"
    rc = main([command, *SMALL, "--set", "solver.mode=scalar", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"config error: {command} runs the full-mode construction; solver.mode 'scalar'" in err
    assert not out.exists()


TINY = {
    "optimizer": "precond_sgd", "batch_size": 32, "lr": 0.001, "steps": 4,
    "record_every": 2, "seed": 0,
    "problem": {"n_samples": 200, "input_dim": 3, "n_features": 8},
    "solver": {"iterations": 4, "init_samples": 3, "rank": 4},
}
FIELDS = ([f.name for f in dataclasses.fields(ExperimentConfig)
           if f.name not in ("problem", "solver")]
          + [f"problem.{f.name}" for f in dataclasses.fields(ProblemConfig)]
          + [f"solver.{f.name}" for f in dataclasses.fields(SolverSettings)])
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(-10, 10).filter(lambda x: x != int(x)),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 4), st.floats(-2, 2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


# values that each field may well take, drawn as often as any JSON value, so
# that some settings pass validation and reach the numerics
PLAUSIBLE = {
    "optimizer": ["sgd", "precond_sgd", "avg_inv", "cg"], "batch_size": [1, 8, 200],
    "lr": [0.0, 1e-3, 0.1, 10.0, 1e8], "steps": [1, 3, 20, None], "epochs": [0.5, 2.0],
    "record_every": [1, 3, 100], "seed": [7, 2 ** 32 - 1], "target_loss": [0.0, 1.0, -1.0],
    "problem.kind": ["quadratic", "mlp"], "problem.data": [None],
    "problem.n_samples": [2, 5, 50], "problem.input_dim": [1, 2, 5],
    "problem.n_features": [1, 4, 10], "problem.alpha_reg": [1e-8, 1.0, 1e8],
    "problem.noise": [0.0, 10.0, 1e200, 1e308], "problem.signal_dim": [1, 3],
    "problem.equal_coef": [True], "problem.scales": [[1e-150] * 8, [1e150] * 8],
    "problem.hidden": [[], [1], [4, 4]], "problem.n_classes": [2, 3],
    "problem.data_seed": [1, 99], "solver.iterations": [1, 2, 8],
    "solver.init_samples": [2, 10], "solver.rank": [1, 2, 8], "solver.mode": ["scalar"],
}
FIELD_SETTINGS = st.sampled_from(FIELDS).flatmap(lambda field: st.tuples(
    st.just(field),
    st.booleans().flatmap(lambda plausible: st.sampled_from(PLAUSIBLE[field])
                          if plausible else JSON_VALUES)))
# the runs of the fuzzed comparison; each drawn field is set in its base block
COMPARE_RUNS = [{"optimizer": "sgd"}, {"optimizer": "precond_sgd"}, {"optimizer": "cg"}]
SUMMARY_LINE = re.compile(r"^(\S+): final_train=.* diverged=(True|False) ", re.M)


def _fuzz_args(command, settings_, as_set, tmp):
    """The argv of ``command`` with the drawn ``(field, value)`` pairs, written into
    its config file or, with ``as_set``, passed as ``--set`` strings after it."""
    payload = json.loads(json.dumps(TINY))
    for field, value in ([] if as_set else settings_):
        *block, name = field.split(".")
        (payload[block[0]] if block else payload)[name] = value
    if command == "compare":
        payload = {"base": payload, "runs": COMPARE_RUNS}
    with open(f"{tmp}/cfg.json", "w") as fh:
        json.dump(payload, fh)
    args = ["--config", f"{tmp}/cfg.json"]
    for field, value in (settings_ if as_set else []):
        args += ["--set", f"{field}={value if isinstance(value, str) else json.dumps(value)}"]
    return args


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["run", "estimate", "solve", "precond", "compare"]),
       settings_=st.lists(FIELD_SETTINGS, min_size=1, max_size=3, unique_by=lambda fv: fv[0]),
       as_set=st.booleans())
def test_any_values_in_any_command_exit_cleanly(command, settings_, as_set):
    """Up to three fields at once, in a config file or as ``--set`` strings, through
    every config command: the exit code is 0, 1 or 2 and never a traceback; a run
    that exits 0 wrote finite losses, a comparison's non-finite rows belong to runs
    its summary calls diverged, and exit 2 is a numerical failure or a divergence."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        config = _fuzz_args(command, settings_, as_set, tmp)
        outputs = {"estimate": []}.get(command, ["--out", f"{tmp}/out"])
        if command == "compare":
            outputs += ["--summary", f"{tmp}/summary.txt"]
        rc = main([command, *config, *outputs])
        rows = []
        if rc == 0 and command in ("run", "compare"):
            with open(f"{tmp}/out") as fh:
                rows = list(csv.DictReader(fh))
        summary = ""
        if rc == 0 and command == "compare":
            with open(f"{tmp}/summary.txt") as fh:
                summary = fh.read()
        # gen-data reads the same problem block, and may fail only as a config error
        if command != "compare" and any(f.startswith("problem.") for f, _ in settings_):
            gen_rc = main(["gen-data", *config, "--out", f"{tmp}/d.csv"])
            assert gen_rc in (0, 1)
            assert os.path.exists(f"{tmp}/d.csv") == (gen_rc == 0)
            assert gen_rc == 0 or rc == 1  # a block gen-data refuses, a command refuses too
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert "numerical failure" in err.getvalue() or "diverged=True" in out.getvalue()
    finite = [math.isfinite(float(row["train_loss"])) for row in rows]
    if command == "run":
        assert all(finite)
    diverged = {label: flag == "True" for label, flag in SUMMARY_LINE.findall(summary)}
    for row, ok in zip(rows, finite):
        assert ok or diverged[row["optimizer"]], row
