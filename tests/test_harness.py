import dataclasses
import importlib
import json
import logging
import math
import pathlib
import types
import warnings
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hessprec.cli as cli_mod
import hessprec.harness as harness_mod
import hessprec.precond as precond_mod
import hessprec.problems as problems_mod
from hessprec.cli import _config_from_args, build_parser, merge_config
from hessprec.data import train_test_split, write_dataset
from hessprec.harness import (
    ComparisonResult,
    ConfigError,
    ExperimentConfig,
    ProblemConfig,
    RunRecord,
    SolverSettings,
    build_problem,
    compare,
    run_baseline,
    run_experiment,
    run_precond_sgd,
    run_sgd,
    run_sgd_lanes,
    write_comparison_csv,
    write_run_csv,
)
from hessprec.inference import IncrementalPosterior
from hessprec.linalg import SolveFailure
from hessprec.mlp import MLPOracle, ToyNet
from hessprec.solver import EstimationError, HessianOracle
from tests.test_solver import MatrixOracle, ScriptedOracle


def assert_same_records(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(np.array(dataclasses.astuple(ra)),
                                      np.array(dataclasses.astuple(rb)))


def assert_same_construction(a, b):
    """Lanes ``a`` and ``b`` built the same pre-conditioner, from the same estimates,
    or neither built one, and end at the same step size."""
    assert (a.precond is None) == (b.precond is None)
    assert (a.estimates is None) == (b.estimates is None)
    if a.precond is not None:
        assert a.precond.alpha == b.precond.alpha
        np.testing.assert_array_equal(a.precond.spectral.sigma, b.precond.spectral.sigma)
        np.testing.assert_array_equal(a.precond.spectral.U, b.precond.spectral.U)
    if a.estimates is not None:
        ea, eb = a.estimates, b.estimates
        assert (ea.b0, ea.w0, ea.lam0) == (eb.b0, eb.w0, eb.lam0)
        np.testing.assert_array_equal(ea.mean_grad, eb.mean_grad)
    assert a.lr == b.lr


def small_quadratic(**kw):
    base = dict(kind="quadratic", n_samples=400, input_dim=4, n_features=12,
                alpha_reg=1e-2, noise=0.05, scales=[1.0] * 12, data_seed=0)
    base.update(kw)
    return ProblemConfig(**base)


def small_mlp(**kw):
    base = dict(kind="mlp", n_samples=120, input_dim=5, hidden=[8],
                n_classes=3, data_seed=0)
    base.update(kw)
    return ProblemConfig(**base)


class TestConfigs:
    def test_problem_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="bogus"):
            ProblemConfig.from_dict({"kind": "quadratic", "bogus": 1})

    def test_problem_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown problem kind"):
            ProblemConfig(kind="cubic")

    def test_solver_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="verbosity"):
            SolverSettings.from_dict({"verbosity": 3})

    def test_experiment_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="momentum"):
            ExperimentConfig.from_dict({"momentum": 0.9})

    def test_experiment_nested_defaults(self):
        cfg = ExperimentConfig.from_dict({"optimizer": "sgd", "steps": 3})
        assert cfg.solver == SolverSettings()
        assert cfg.problem == ProblemConfig()
        assert cfg.lr == 0.1 and cfg.batch_size == 256

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="optimizer"):
            ExperimentConfig(optimizer="adam")
        with pytest.raises(ConfigError, match="batch_size"):
            ExperimentConfig(batch_size=0)
        with pytest.raises(ConfigError, match="lr"):
            ExperimentConfig(lr=-0.1)
        with pytest.raises(ConfigError, match="solver mode"):
            SolverSettings(mode="diagonal")
        with pytest.raises(ConfigError, match="solver rank must be at least 1, got 0"):
            SolverSettings(rank=0)

    @pytest.mark.parametrize("field, value", [
        ("alpha_reg", 0.0), ("alpha_reg", math.nan), ("reg", -1e-9), ("reg", math.inf),
        ("test_fraction", 1.0), ("test_fraction", -0.1), ("hidden", (8, 0)),
        ("scales", (1.0,) * 11), ("scales", (1.0,) * 11 + (0.0,)),
        ("signal_dim", -4), ("signal_dim", 0), ("signal_dim", 13),
    ])
    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_problem_rules_hold_for_either_kind(self, kind, field, value):
        # reg and test_fraction are constants, not fields: any value is an unknown key
        message = (f"^unknown problem keys: \\['{field}'\\]$" if field in ("reg", "test_fraction")
                   else f"^problem {field} ")
        with pytest.raises(ConfigError, match=message):
            ProblemConfig.from_dict({"kind": kind, "n_features": 12, field: value},
                                    "problem")

    def test_problem_rule_edges_accepted(self):
        pc = ProblemConfig(hidden=(), n_features=2, scales=(5e-324, 1.7e308))
        assert pc.hidden == () and pc.scales == (5e-324, 1.7e308)

    def test_from_dict_takes_integers_for_float_fields(self):
        cfg = ExperimentConfig.from_dict({"lr": 1, "epochs": 2,
                                          "problem": {"n_features": 2, "scales": [1, 0.5],
                                                      "signal_dim": None}})
        assert cfg.lr == 1 and cfg.epochs == 2
        assert cfg.problem.scales == (1.0, 0.5)

    def test_n_steps_resolution(self):
        cfg = ExperimentConfig(steps=7, epochs=2.0)
        assert cfg.n_steps(320) == 7  # explicit steps win
        cfg = ExperimentConfig(epochs=1.5, batch_size=64)
        assert cfg.n_steps(320) == math.ceil(1.5 * 320 / 64)
        with pytest.raises(ConfigError, match="steps or epochs"):
            ExperimentConfig().n_steps(320)

    def test_merge_config_is_recursive(self):
        base = {"lr": 0.1, "problem": {"kind": "quadratic", "noise": 0.05}}
        over = {"problem": {"noise": 0.2}, "steps": 5}
        merged = merge_config(base, over)
        assert merged == {"lr": 0.1, "steps": 5,
                          "problem": {"kind": "quadratic", "noise": 0.2}}
        assert base["problem"]["noise"] == 0.05  # input untouched

    def test_load_config_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "optimizer": "sgd", "steps": 3, "lr": 0.5,
            "problem": {"kind": "quadratic", "n_samples": 100, "input_dim": 3,
                        "n_features": 6},
        }))
        cfg = _config_from_args(build_parser().parse_args(
            ["run", "--config", str(path), "--out", "x.csv", "--lr", "0.25",
             "--set", "problem.n_samples=50"]))
        assert cfg.lr == 0.25
        assert cfg.problem.n_samples == 50
        assert cfg.problem.input_dim == 3

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot read config"):
            _config_from_args(build_parser().parse_args(
                ["run", "--config", str(path), "--out", "x.csv"]))


class TestScaleVector:
    def test_default_is_log_uniform(self):
        pc = ProblemConfig(kind="quadratic", n_features=8, scales=None)
        s = pc.scale_vector()
        assert s.size == 8 and s[0] == pytest.approx(1.0)
        assert s[-1] == pytest.approx(1e-3)

    def test_explicit_list_is_the_scale_vector(self):
        # an explicit list, here two log-uniform bands, is taken as given
        two_band = np.concatenate([np.logspace(0, -1, 4), np.logspace(-3, -4, 6)])
        pc = ProblemConfig.from_dict({"kind": "quadratic", "n_features": 10,
                                      "scales": two_band.tolist()})
        s = pc.scale_vector()
        assert s[3] == pytest.approx(0.1) and s[4] == pytest.approx(1e-3)

    def test_explicit_list_length_checked(self):
        # refused when the config is built, so gen-data refuses it too
        with pytest.raises(ConfigError, match="problem scales have 2 entries but problem "
                                              "n_features is 5"):
            ProblemConfig(kind="quadratic", n_features=5, scales=[1.0, 0.5])

    # a JSON object is refused as a whole, before any of its keys is read
    @pytest.mark.parametrize("scales, message", [
        ({"profile": "banded"}, "'scales' must be"),
        ({"profile": "bogus", "lo": 0.1}, r"^problem entry 'scales' must be"),
        ({"profile": "log_uniform", "high": 2.0}, "'scales' must be"),
    ], ids=["profile", "profile-and-option", "option"])
    def test_object_refused_as_a_whole(self, scales, message):
        with pytest.raises(ConfigError, match=message):
            ProblemConfig.from_dict({"kind": "quadratic", "n_features": 5, "scales": scales},
                                    "problem")


class TestBundles:
    def test_quadratic_split_sizes(self):
        pc = small_quadratic()
        b = build_problem(pc)
        _, held_out = train_test_split(pc.n_samples, harness_mod.TEST_FRACTION, pc.data_seed)
        assert b.n_train == 320
        assert held_out.size == 80
        assert b.dim == 12

    def test_quadratic_optimum_cached_and_stationary(self):
        b = build_problem(small_quadratic())
        w_star, loss_star = b.optimum()
        assert b.optimum() is b.optimum()
        assert loss_star == pytest.approx(b.train_loss(w_star))
        np.testing.assert_allclose(b.problem.gradient(w_star), 0.0, atol=1e-10)

    def test_mlp_test_loss_is_data_term(self):
        b = build_problem(small_mlp())
        w = b.init_w(seed=1)
        bare = ToyNet(b.net.sizes, reg=0.0)
        X_te, t_te = b._test
        assert b.test_loss(w) == pytest.approx(bare.loss_value(w, X_te, t_te))
        assert 0.0 <= b.test_accuracy(w) <= 1.0

    def test_mlp_test_loss_survives_a_dominant_penalty(self):
        # the penalty 0.5 * reg * |w|^2 dwarfs the data term, so a total less its
        # penalty cancels to 0.0; the data term computed alone does not
        b = build_problem(small_mlp())
        w = np.full(b.dim, 1e150)
        X_te, t_te = b._test
        data_term = ToyNet(b.net.sizes, reg=0.0).loss_value(w, X_te, t_te)
        assert b.train_loss(w) > 1e20 * data_term > 0.0
        assert b.test_loss(w) != 0.0
        assert b.test_loss(w) == data_term

    # every bundle holds out TEST_FRACTION, so the 0.0 case holds out nothing by
    # taking a 2-sample block, where round(0.2 * 2) = 0
    @pytest.mark.parametrize("test_fraction", [0.25, 0.0])
    @pytest.mark.parametrize("problem", [small_quadratic, small_mlp])
    def test_test_metrics_equal_separate_calls(self, problem, test_fraction):
        b = build_problem(problem() if test_fraction else problem(n_samples=2))
        rng = np.random.default_rng(3)
        for w in (b.init_w(seed=1), rng.standard_normal(b.dim)):
            metrics = b.test_metrics(w)
            assert repr(metrics) == repr((b.test_loss(w), b.test_accuracy(w)))
            if test_fraction == 0.0:
                assert all(math.isnan(m) for m in metrics)
            elif b.kind == "mlp":
                # the data term and the accuracy of one forward pass, with no penalty
                X, t = b._test
                assert repr(metrics) == repr(b.net.data_loss_and_accuracy(w, X, t))

    @pytest.mark.parametrize("problem", [small_quadratic, small_mlp])
    def test_bundle_keeps_the_block_it_was_built_from(self, problem):
        pc = problem()
        assert build_problem(pc).config is pc

    def test_feature_overflow_is_config_error(self):
        # a valid block whose feature moments overflow: build_problem turns the
        # problem's ValueError into a ConfigError
        with pytest.raises(ConfigError, match="feature moments overflow"):
            build_problem(small_quadratic(scales=[1e160] * 12))


class TestRunSgd:
    def cfg(self, **kw):
        base = dict(problem=small_quadratic(), optimizer="sgd", batch_size=64,
                    lr=0.05, steps=25, record_every=10, seed=0)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_recording_schedule(self):
        res = run_sgd(build_problem(small_quadratic()), self.cfg())
        # epoch_len = 320/64 = 5; due at 0, multiples of 5 and 10, and 25
        assert [r.step for r in res.records] == [0, 5, 10, 15, 20, 25]
        assert [r.data_read for r in res.records] == [0, 320, 640, 960, 1280, 1600]
        assert all(r.step_length == 0.05 for r in res.records)

    def test_zero_rate_freezes_iterates(self):
        res = run_sgd(build_problem(small_quadratic()), self.cfg(lr=0.0))
        losses = {r.train_loss for r in res.records}
        assert len(losses) == 1
        np.testing.assert_array_equal(res.w, np.zeros(12))

    def test_full_batch_descent_is_monotone(self):
        bundle = build_problem(small_quadratic())
        lam_max = np.linalg.eigvalsh(bundle.problem.hessian()).max()
        cfg = self.cfg(batch_size=320, lr=1.0 / (2 * lam_max), steps=20,
                       record_every=1)
        res = run_sgd(bundle, cfg)
        losses = [r.train_loss for r in res.records]
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert not res.diverged

    def test_huge_rate_flags_divergence(self, caplog):
        bundle = build_problem(small_quadratic())
        full = SolverSettings(iterations=4, init_samples=3, rank=4)
        with np.errstate(over="ignore", invalid="ignore"), \
                caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            res = run_sgd(bundle, self.cfg(lr=1e6))
            pre = run_precond_sgd(bundle, self.cfg(optimizer="precond_sgd", lr=1e6, solver=full))
        assert res.diverged
        assert math.isnan(res.records[-1].train_loss)
        # one warning text for plain and pre-conditioned SGD lanes alike
        assert pre.diverged and pre.precond is not None
        assert [r.message for r in caplog.records if "diverged" in r.message] == [
            f"sgd diverged at step {res.final.step} (lr=1e+06)",
            f"precond_sgd diverged at step {pre.final.step} (lr=1e+06)"]

    def test_lane_far_above_stability_diverges_to_nan(self):
        # the w*-anchored loss overflows later than a residual pass, but a
        # lane at 25x the stable rate still ends flagged with a NaN record
        bundle = build_problem(small_quadratic())
        lam_max = np.linalg.eigvalsh(bundle.problem.hessian()).max()
        cfgs = [self.cfg(lr=0.5 / lam_max, steps=400, record_every=1),
                self.cfg(lr=50.0 / lam_max, steps=400, record_every=1)]
        with np.errstate(over="ignore", invalid="ignore"):
            stable, wild = run_sgd_lanes(bundle, cfgs)
        assert not stable.diverged and len(stable.records) == 401
        assert wild.diverged and len(wild.records) < 401
        assert math.isnan(wild.final.train_loss) and math.isnan(wild.final.test_loss)
        assert all(math.isfinite(r.train_loss) for r in wild.records[:-1])

    def test_repeat_is_identical(self):
        bundle = build_problem(small_quadratic())
        r1 = run_experiment(bundle, self.cfg())
        r2 = run_experiment(bundle, self.cfg())
        assert_same_records(r1.records, r2.records)


class TestRunPrecondSgd:
    def cfg(self, **kw):
        solver = kw.pop("solver", SolverSettings(iterations=6, init_samples=3,
                                                 rank=6))
        base = dict(problem=small_quadratic(), optimizer="precond_sgd",
                    batch_size=64, lr=0.05, steps=15, record_every=5, seed=0,
                    solver=solver)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_construction_info_and_cost(self):
        cfg = self.cfg()
        res = run_precond_sgd(build_problem(cfg.problem), cfg)
        assert not res.diverged
        assert res.precond.spectral.k <= 6
        alpha2 = res.precond.alpha ** 2
        assert alpha2 >= 1.0
        # the step-0 record is cut after construction, at the reads it spent
        assert res.records[0].data_read == (3 + 6) * 64
        est = res.estimates
        assert est.b0 > 0 and est.w0 > 0 and est.lam0 >= 0
        assert res.records[0].step_length == pytest.approx(cfg.lr * alpha2)

    def test_reduces_loss(self):
        cfg = self.cfg(lr=0.02, steps=40)
        res = run_precond_sgd(build_problem(cfg.problem), cfg)
        assert res.records[-1].train_loss < res.records[0].train_loss

    def test_fallback_matches_plain_sgd(self, monkeypatch, caplog):
        def broken(oracle, w, init_samples, mode="full"):
            raise EstimationError("synthetic failure")

        monkeypatch.setattr(harness_mod, "estimate_parameters", broken)
        cfg_p = self.cfg()
        bundle = build_problem(cfg_p.problem)
        with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            res_p = run_precond_sgd(bundle, cfg_p)
        assert res_p.precond is None and res_p.estimates is None
        assert any("(synthetic failure); plain SGD fallback" in r.message
                   for r in caplog.records)
        cfg_s = ExperimentConfig(problem=cfg_p.problem, optimizer="sgd",
                                 batch_size=64, lr=0.05, steps=15,
                                 record_every=5, seed=0)
        res_s = run_sgd(bundle, cfg_s)
        assert_same_records(res_p.records, res_s.records)

    def test_failed_rank_reduction_falls_back_to_plain_sgd(self, monkeypatch, caplog):
        def fails(gram_a, gram_c, mul_a, keep=None):
            raise SolveFailure("synthetic rank-reduction failure")

        monkeypatch.setattr("hessprec.precond.thin_svd_product", fails)
        cfg_p = self.cfg()
        bundle = build_problem(cfg_p.problem)
        with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            res_p = run_precond_sgd(bundle, cfg_p)
        assert res_p.precond is None and res_p.estimates is None
        assert any("(synthetic rank-reduction failure); plain SGD fallback" in r.message
                   for r in caplog.records)
        # plain SGD steps after the batches construction read before failing
        assert not res_p.diverged
        assert res_p.records[0].data_read == (3 + 6) * 64
        assert [r.step for r in res_p.records] == [0, 5, 10, 15]
        assert all(r.step_length == cfg_p.lr for r in res_p.records)
        # a config error is still raised, not turned into the fallback
        cfg_bad = self.cfg(solver=SolverSettings(iterations=16, init_samples=3))
        with pytest.raises(ConfigError, match=r"iterations \(16\) exceed"):
            run_precond_sgd(bundle, cfg_bad)

    def test_probing_that_keeps_no_probe_falls_back_to_plain_sgd(self, monkeypatch, caplog):
        # every probe is rejected, so the posterior holds no observation and the
        # construction raises EstimationError, which the lane turns into the fallback
        def rejects(post, s, y, noise=None):
            raise ValueError("synthetic rejection")

        monkeypatch.setattr(IncrementalPosterior, "add", rejects)
        cfg = self.cfg()
        with caplog.at_level(logging.WARNING, logger="hessprec"):
            res = run_precond_sgd(build_problem(cfg.problem), cfg)
        assert res.precond is None and res.estimates is None and not res.diverged
        assert any("(active solver produced no usable observations); plain SGD fallback"
                   in r.message for r in caplog.records)
        # the estimate's 3 batches and the rejected probe's batch stay charged
        assert res.records[0].data_read == (3 + 1) * 64
        assert all(r.step_length == cfg.lr for r in res.records)

    def test_scalar_mode_rebuild_count(self, monkeypatch):
        solver = SolverSettings(init_samples=3, mode="scalar")
        cfg = self.cfg(solver=solver, lr=0.05, steps=15)
        real, rebuilds = harness_mod._scalar_rebuild, []
        monkeypatch.setattr(harness_mod, "_scalar_rebuild",
                            lambda *args: rebuilds.append(1) or real(*args))
        res = run_precond_sgd(build_problem(cfg.problem), cfg)
        assert not res.diverged
        # epoch_len = 5 -> epochs 0,1,2; epoch 0 steps at the configured rate
        assert len(rebuilds) == 2
        assert res.lr > 0 and res.lr == res.records[-1].step_length
        assert res.precond is None and res.estimates is None

    def test_scalar_mode_divergence_stops_at_first_nan_record(self, monkeypatch, caplog):
        # a step of 1e6 on this quadratic overflows after a few epochs
        rebuilds = []
        monkeypatch.setattr(harness_mod, "_scalar_rebuild",
                            lambda *args: rebuilds.append(1) or 1e6)
        cfg = self.cfg(solver=SolverSettings(init_samples=3, mode="scalar"), steps=60,
                       record_every=1)
        with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            res = run_precond_sgd(build_problem(cfg.problem), cfg)
        assert res.diverged
        assert [math.isnan(r.train_loss) for r in res.records].index(True) == len(res.records) - 1
        assert res.records[-1].step < 60
        # epoch_len = 5 and epoch 0 has no rebuild: one per later epoch begun
        assert len(rebuilds) == (res.records[-1].step - 1) // 5 > 0
        assert res.lr == 1e6
        assert any("precond_sgd diverged at step" in r.message for r in caplog.records)


class TestScalarRebuild:
    """``_scalar_rebuild``: the whole scalar step rule, eta = 1 / b0."""

    settings = SolverSettings(init_samples=2, mode="scalar")

    def rebuild(self, monkeypatch, outcomes, previous=0.05):
        """The rule's step when successive estimates give ``outcomes`` (a b0 or an exception)."""
        outcomes = iter(outcomes)

        def scripted(oracle, w, init_samples, mode="full"):
            assert mode == "scalar"
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return types.SimpleNamespace(b0=outcome)

        monkeypatch.setattr(harness_mod, "estimate_parameters", scripted)
        return harness_mod._scalar_rebuild(None, None, self.settings, previous)

    def test_isotropic_curvature(self):
        oracle = MatrixOracle(5.0 * np.eye(4), np.ones(4))
        eta = harness_mod._scalar_rebuild(oracle, np.zeros(4), self.settings, 1.0)
        assert eta == pytest.approx(0.2)

    def test_rayleigh_quotient_of_squares(self):
        # B = diag(1, 100) probed along (1,1)/sqrt(2): eta = 101/10001
        B = np.diag([1.0, 100.0])
        s = np.array([1.0, 1.0]) / np.sqrt(2.0)
        oracle = ScriptedOracle([s, s], B)
        eta = harness_mod._scalar_rebuild(oracle, np.zeros(2), self.settings, 1.0)
        assert eta == pytest.approx(101.0 / 10001.0, rel=1e-12)

    def test_scalar_step_validation(self, monkeypatch):
        # a usable estimate gives the plain float 1 / b0
        step = self.rebuild(monkeypatch, [4.0])
        assert type(step) is float and step == 0.25

    def test_unusable_estimate_keeps_previous(self, monkeypatch, caplog):
        # eta = inf, nan, negative and 0 each keep the previous step
        for b0 in (5e-324, np.nan, -2.0, np.inf):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
                assert self.rebuild(monkeypatch, [b0]) == 0.05
            assert any("keeping previous" in r.message for r in caplog.records)

    def test_failed_estimates_retried_three_times_then_keep_step(self, monkeypatch, caplog):
        failure = EstimationError("synthetic failure")
        assert self.rebuild(monkeypatch, [failure, failure, 4.0]) == 0.25
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            assert self.rebuild(monkeypatch, [failure] * 3 + [4.0]) == 0.05
        messages = [r.message for r in caplog.records]
        assert sum("scalar estimation attempt failed" in m for m in messages) == 3
        assert any("keeping step" in m for m in messages)


    def test_overflowing_products_retried_then_keep_step(self, caplog):
        # s.y is finite and y.y overflows, so every scalar estimate fails
        oracle = MatrixOracle(1e200 * np.eye(4), np.ones(4), batch_size=8)
        with warnings.catch_warnings(), \
                caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            warnings.simplefilter("error", RuntimeWarning)
            assert harness_mod._scalar_rebuild(oracle, np.zeros(4), self.settings, 0.05) == 0.05
        messages = [r.message for r in caplog.records]
        assert sum("b0=inf" in m for m in messages) == 3
        assert any("keeping step 0.05" in m for m in messages)
        assert oracle.data_read == 3 * 2 * 8

class TestBaselines:
    def test_avg_inv_cadence(self):
        bundle = build_problem(small_quadratic())
        cfg = ExperimentConfig(problem=small_quadratic(), optimizer="avg_inv",
                               batch_size=32, steps=5, record_every=2)
        res = run_baseline(bundle, cfg)
        assert [r.step for r in res.records] == [0, 1, 2, 4, 5]
        assert [r.data_read for r in res.records] == [0, 32, 64, 128, 160]

    def test_avg_inv_flags_a_non_finite_loss_as_diverged(self, monkeypatch):
        bundle = build_problem(small_quadratic())
        cfg = ExperimentConfig(problem=small_quadratic(), optimizer="avg_inv",
                               batch_size=32, steps=5, record_every=2)
        assert not run_baseline(bundle, cfg).diverged
        losses = iter([1.0, math.inf, 1.0, 1.0])
        monkeypatch.setattr(bundle, "train_loss", lambda w: next(losses))
        res = run_baseline(bundle, cfg)
        assert res.diverged
        assert len(res.records) == 2  # the step-0 record, then the first non-finite one
        assert math.isnan(res.records[1].train_loss)

    def test_cg_charges_per_iteration(self):
        bundle = build_problem(small_quadratic())
        cfg = ExperimentConfig(problem=small_quadratic(), optimizer="cg",
                               batch_size=32, steps=4)
        res = run_baseline(bundle, cfg)
        reads = [r.data_read for r in res.records]
        # one full pass for the target before the step-0 record, then per iteration
        # one product batch plus one residual-check batch (charged after the record)
        assert reads[:2] == [320, 320 + 32]
        assert all(b - a == 64 for a, b in zip(reads[1:], reads[2:]))

    def test_cg_without_an_iteration_records_the_start_point(self, tmp_path, monkeypatch):
        # all-zero targets make b = 0, so CG stops before its first iteration
        data = tmp_path / "zero.csv"
        write_dataset(data, np.random.default_rng(0).standard_normal((200, 4)), np.zeros(200))
        pc = small_quadratic(data=str(data))
        cfg = ExperimentConfig(problem=pc, optimizer="cg", batch_size=32, steps=20)
        result = compare([cfg])
        assert [(label, r.step, r.data_read) for label, r in result.labeled_records] == [
            ("cg", 0, 160)]
        assert not result.summaries[0].diverged
        # a first curvature that is not positive stops it there too, flagged
        monkeypatch.setattr("hessprec.problems.QuadraticOracle.hvp",
                            lambda self, w, s, batch: -s)
        res = run_baseline(build_problem(small_quadratic()), dataclasses.replace(
            cfg, problem=small_quadratic()))
        assert [(r.step, r.data_read) for r in res.records] == [(0, 320)]
        assert res.diverged and np.all(res.w == 0)

    # every lane kind ends in the one warning that the bench's fallback counter reads:
    # an averaged-inverse lane at its first non-finite record, a CG lane at the exit
    # that stops it; a baseline reads no rate, so its warning names none
    @pytest.mark.parametrize("case", ["avg_inv", "cg", "cg-at-once"])
    def test_a_diverged_baseline_logs_the_one_warning(self, case, monkeypatch, caplog):
        bundle = build_problem(small_quadratic())
        optimizer = case.split("-")[0]
        cfg = ExperimentConfig(problem=small_quadratic(), optimizer=optimizer,
                               batch_size=32, steps=20, record_every=3)
        if case == "avg_inv":
            losses = iter([1.0, math.inf] + [1.0] * 6)
            monkeypatch.setattr(bundle, "train_loss", lambda w: next(losses))
        elif case == "cg-at-once":  # no positive curvature at step 1, before a record
            monkeypatch.setattr("hessprec.problems.QuadraticOracle.hvp",
                                lambda self, w, s, batch: -s)
        with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            res = run_baseline(bundle, cfg)
        assert res.diverged and res.t == {"avg_inv": 1, "cg": 7, "cg-at-once": 1}[case]
        assert [r.message for r in caplog.records if "diverged at step" in r.message] == [
            f"{optimizer} diverged at step {res.t}"]

    def test_the_first_non_finite_record_ends_every_lane_kind(self, monkeypatch, caplog):
        # a loss that is finite only at the zero start: each lane ends diverged at its
        # first record after step 0, the baselines' at step 1 and the SGD lanes' at the
        # first due step; only the lanes that step at a rate name it
        bundle = build_problem(small_quadratic())
        monkeypatch.setattr(bundle, "train_loss", lambda w: math.inf if w.any() else 1.0)
        base = dict(problem=small_quadratic(), batch_size=32, steps=20, record_every=3, lr=2.0)
        cfgs = [ExperimentConfig(**LANE_KINDS[kind], **base)
                for kind in ("sgd", "full", "scalar", "avg_inv", "cg")]
        with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            lanes = run_sgd_lanes(bundle, cfgs)
        assert [(lane.diverged, [r.step for r in lane.records]) for lane in lanes] == (
            [(True, [0, 3])] * 3 + [(True, [0, 1])] * 2)
        assert [r.message for r in caplog.records if "diverged at step" in r.message] == [
            "avg_inv diverged at step 1", "cg diverged at step 1",
            "sgd diverged at step 3 (lr=2)", "precond_sgd diverged at step 3 (lr=2)",
            "precond_sgd diverged at step 3 (lr=2)"]

    def test_kind_restrictions(self):
        mlp = build_problem(small_mlp())
        for optimizer in ("avg_inv", "cg"):
            with pytest.raises(ConfigError, match="quadratic"):
                run_baseline(mlp, ExperimentConfig(problem=small_mlp(),
                                                   optimizer=optimizer, steps=2))

    def test_avg_inv_records_a_due_step_whose_batch_was_skipped(self, monkeypatch):
        # the last batch's solve fails: the last step still records the running
        # mean, at the reads charged for every batch
        pc = small_quadratic()
        cfg = ExperimentConfig(problem=pc, optimizer="avg_inv", batch_size=8, steps=4,
                               record_every=2)
        bundle = build_problem(pc)
        three = run_baseline(bundle, dataclasses.replace(cfg, steps=3))
        real, calls = problems_mod.woodbury_solve, []

        def fails_fourth(*args):
            calls.append(1)
            if len(calls) == 4:
                raise SolveFailure("synthetic failure")
            return real(*args)

        monkeypatch.setattr(problems_mod, "woodbury_solve", fails_fourth)
        res = run_baseline(bundle, cfg)
        assert [(r.step, r.data_read) for r in res.records] == [(0, 0), (1, 8), (2, 16),
                                                                  (4, 32)]
        np.testing.assert_array_equal(res.w, three.w)
        assert res.records[-1].train_loss == three.records[-1].train_loss
        calls.clear()
        assert compare([cfg]).summaries[0].data_read == 32


class TestCsvOutput:
    def records(self):
        return [RunRecord(0, 0, 2.5, 2.25, float("nan"), 0.1),
                RunRecord(5, 320, 1.0, 1.125, float("nan"), 0.1)]

    def test_run_csv_schema(self, tmp_path):
        path = tmp_path / "run.csv"
        write_run_csv(path, self.records())
        lines = path.read_text().splitlines()
        assert lines[0] == ("step,data_read,train_loss,test_loss,"
                            "test_accuracy,step_length")
        assert lines[1] == "0,0,2.5,2.25,nan,0.1"
        assert lines[2] == "5,320,1.0,1.125,nan,0.1"

    def test_comparison_csv(self, tmp_path):
        path = tmp_path / "cmp.csv"
        write_comparison_csv(path, [("sgd", self.records()[0]),
                                    ("cg", self.records()[1])])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("optimizer,step,")
        assert lines[1].split(",")[0] == "sgd"
        assert lines[2].split(",")[0] == "cg"

    def test_final_property(self):
        res = run_sgd(build_problem(small_quadratic()), ExperimentConfig(
            problem=small_quadratic(), batch_size=64, steps=2))
        res.records = self.records()
        assert res.final.step == 5


class TestCompare:
    def configs(self, **common):
        base = dict(problem=small_quadratic(), batch_size=64, steps=10,
                    record_every=2, seed=0)
        base.update(common)
        return [
            ExperimentConfig(optimizer="sgd", lr=0.1, **base),
            ExperimentConfig(optimizer="sgd", lr=0.05, **base),
            ExperimentConfig(optimizer="avg_inv", lr=0.1, **base),
        ]

    def test_duplicate_optimizers_get_rate_labels(self):
        result = compare(self.configs())
        labels = [s.label for s in result.summaries]
        assert labels == ["sgd[lr=0.1]", "sgd[lr=0.05]", "avg_inv"]
        assert {lab for lab, _ in result.labeled_records} == set(labels)

    def test_mismatched_problem_rejected(self):
        cfgs = self.configs()
        cfgs[1] = ExperimentConfig(problem=small_quadratic(noise=0.2),
                                   optimizer="sgd", lr=0.05, batch_size=64,
                                   steps=10, seed=0)
        with pytest.raises(ConfigError, match="problem"):
            compare(cfgs)

    def test_mismatched_seed_rejected(self):
        cfgs = self.configs()
        cfgs[1] = ExperimentConfig(problem=small_quadratic(), optimizer="sgd",
                                   lr=0.05, batch_size=64, steps=10, seed=1)
        with pytest.raises(ConfigError, match="seed"):
            compare(cfgs)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            compare([])

    def test_precond_config_error_is_raised_not_a_fallback(self):
        cfgs = self.configs()
        cfgs[2] = ExperimentConfig(problem=small_quadratic(), optimizer="precond_sgd",
                                   lr=0.05, batch_size=64, steps=10, seed=0,
                                   solver=SolverSettings(iterations=16, init_samples=3))
        with pytest.raises(ConfigError, match=r"iterations \(16\) exceed"):
            compare(cfgs)

    def test_explicit_target_loss(self):
        bundle = build_problem(small_quadratic())
        init_loss = bundle.train_loss(np.zeros(12))
        target = 0.9 * init_loss
        result = compare(self.configs(target_loss=target))
        assert result.target_loss == target
        by_label = {s.label: s for s in result.summaries}
        s = by_label["sgd[lr=0.1]"]
        assert s.data_read_to_target is not None
        reached = [r for lab, r in result.labeled_records
                   if lab == s.label and np.isfinite(r.train_loss)
                   and r.train_loss <= target]
        assert s.data_read_to_target == min(r.data_read for r in reached)

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_given_bundle_gives_the_comparison_compare_builds(self, kind, monkeypatch):
        problem = small_quadratic() if kind == "quadratic" else small_mlp()
        base = dict(problem=problem, batch_size=30, steps=8, record_every=2, seed=0,
                    solver=SolverSettings(iterations=4, init_samples=2, rank=4))
        optimizers = ("sgd", "precond_sgd") + (("avg_inv", "cg") if kind == "quadratic" else ())
        cfgs = [ExperimentConfig(optimizer=o, lr=0.01, **base) for o in optimizers]
        built = []
        monkeypatch.setattr(harness_mod, "build_problem",
                            lambda pc: built.append(pc) or build_problem(pc))
        own = compare(cfgs)
        assert built == [problem]  # built through harness.build_problem, looked up per call
        given = compare(cfgs, build_problem(problem))
        assert built == [problem]
        assert [lab for lab, _ in given.labeled_records] == [lab for lab, _ in own.labeled_records]
        assert_same_records([r for _, r in given.labeled_records],
                            [r for _, r in own.labeled_records])
        assert repr(given.summaries) == repr(own.summaries)
        assert not any(s.diverged for s in own.summaries)

    @pytest.mark.parametrize("other", [small_quadratic(noise=0.2), small_mlp()])
    def test_bundle_of_another_block_raises_before_a_draw(self, other, monkeypatch):
        bundle = build_problem(other)
        draws = []
        monkeypatch.setattr(HessianOracle, "_draw", lambda self: draws.append(1))
        with pytest.raises(ConfigError, match="built from another problem block"):
            compare(self.configs(), bundle)
        assert draws == []

    def test_summary_text_mentions_every_run(self):
        result = compare(self.configs(target_loss=1e-9))
        text = result.summary_text()
        for s in result.summaries:
            assert s.label + ":" in text
        assert "to_target=never" in text


class TestSgdLanes:
    """compare steps the runs of one batch size in one lane loop.

    Each comparison mixes plain SGD lanes (one diverging early), a full-mode
    run, a full-mode run whose construction falls back, and two scalar-mode
    runs; at their second rebuild, one of their estimates raises, so that run
    retries and draws ahead.  The quadratic one adds an averaged-inverse run
    and a CG run, whose residual checks read ahead.
    """

    def configs(self, kind):
        if kind == "quadratic":
            base = dict(problem=small_quadratic(), batch_size=64, seed=0)
            sgd = [
                ExperimentConfig(optimizer="sgd", lr=0.1, steps=10, record_every=2, **base),
                ExperimentConfig(optimizer="avg_inv", steps=5, record_every=1, **base),
                ExperimentConfig(optimizer="cg", steps=6, **base),
                ExperimentConfig(optimizer="sgd", lr=0.05, steps=14, record_every=3, **base),
                ExperimentConfig(optimizer="sgd", lr=1e8, steps=30, record_every=4, **base),
                ExperimentConfig(optimizer="sgd", lr=0.02, steps=6, record_every=1,
                                 **dict(base, batch_size=32)),
            ]
            steps, scalar_lrs = 20, (0.05, 0.02)
        else:
            base = dict(problem=small_mlp(), batch_size=30, seed=0)
            sgd = [
                ExperimentConfig(optimizer="sgd", lr=0.1, steps=12, record_every=2, **base),
                ExperimentConfig(optimizer="sgd", lr=0.3, epochs=2.0, record_every=5, **base),
                ExperimentConfig(optimizer="sgd", lr=1e6, steps=300, record_every=7, **base),
            ]
            steps, scalar_lrs = 14, (0.1, 0.3)
        precond = dict(optimizer="precond_sgd", steps=steps, record_every=3, **base)
        scalar = SolverSettings(init_samples=3, mode="scalar")
        return sgd + [
            ExperimentConfig(lr=0.01, solver=SolverSettings(iterations=6, init_samples=3,
                                                            rank=6), **precond),
            # rank 2 is the one whose rank reduction fails (see ``runs``)
            ExperimentConfig(lr=0.03, solver=SolverSettings(iterations=4, init_samples=2,
                                                            rank=2), **precond),
            ExperimentConfig(lr=scalar_lrs[0], solver=scalar, **precond),
            ExperimentConfig(lr=scalar_lrs[1], solver=scalar, **precond),
        ]

    def runs(self, kind, monkeypatch):
        """The comparison, each config run alone and the comparison's lane results."""
        cfgs = self.configs(kind)
        bundle = build_problem(cfgs[0].problem)
        real_svd = precond_mod.thin_svd_product

        def svd_fails_at_rank_2(gram_a, gram_c, mul_a, keep=None):
            if keep == 2:
                raise SolveFailure("synthetic rank-reduction failure")
            return real_svd(gram_a, gram_c, mul_a, keep=keep)

        monkeypatch.setattr(precond_mod, "thin_svd_product", svd_fails_at_rank_2)
        # the first estimate of the last scalar run's second rebuild raises,
        # once per run; the run alone shows the iterate that rebuild starts from
        real_estimate = harness_mod.estimate_parameters
        seen = []
        monkeypatch.setattr(harness_mod, "estimate_parameters",
                            lambda oracle, w, *args, **kw: seen.append(w.copy())
                            or real_estimate(oracle, w, *args, **kw))
        run_precond_sgd(bundle, cfgs[-1])
        fail_at, failed = seen[1], []

        def flaky(oracle, w, *args, **kw):
            est = real_estimate(oracle, w, *args, **kw)  # the failed attempt charges its batches
            if np.array_equal(w, fail_at) and oracle not in failed:
                failed.append(oracle)
                raise EstimationError("synthetic estimate failure")
            return est

        monkeypatch.setattr(harness_mod, "estimate_parameters", flaky)
        real_rebuild, self.rebuilt = harness_mod._scalar_rebuild, []
        monkeypatch.setattr(harness_mod, "_scalar_rebuild", lambda oracle, *args:
                            self.rebuilt.append(oracle) or real_rebuild(oracle, *args))
        lane_results = []
        real_lanes = harness_mod.run_sgd_lanes

        def recorded_lanes(bundle, cfgs):
            lane_results.append((cfgs, real_lanes(bundle, cfgs)))
            return lane_results[-1][1]

        with np.errstate(over="ignore", invalid="ignore"):
            with monkeypatch.context() as m:
                m.setattr(harness_mod, "run_sgd_lanes", recorded_lanes)
                result = compare(cfgs)
            solo = [run_experiment(build_problem(c.problem), c) for c in cfgs]
        assert len(lane_results) == 1  # one lane loop, whatever the batch sizes
        lanes = {id(c): r for group, results in lane_results for c, r in zip(group, results)}
        return cfgs, result, solo, [lanes.get(id(c)) for c in cfgs]

    def rebuilds(self, lane):
        """The scalar rebuilds ``runs`` saw on ``lane``'s oracle."""
        return sum(oracle is lane.oracle for oracle in self.rebuilt)

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_comparison_csv_equals_solo_runs(self, tmp_path, kind, monkeypatch):
        cfgs, result, solo, lanes = self.runs(kind, monkeypatch)
        assert [s.diverged for s in result.summaries] == [r.diverged for r in solo]
        assert any(r.diverged for r in solo) and not all(r.diverged for r in solo)
        labels = [s.label for s in result.summaries]
        write_comparison_csv(tmp_path / "lanes.csv", result.labeled_records)
        write_comparison_csv(tmp_path / "solo.csv",
                             [(lab, r) for lab, res in zip(labels, solo) for r in res.records])
        assert (tmp_path / "lanes.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()
        for lane, alone in zip(lanes, solo):
            assert_same_construction(lane, alone)
            assert self.rebuilds(lane) == self.rebuilds(alone)
            assert_same_records(lane.records, alone.records)
            np.testing.assert_array_equal(lane.w, alone.w)

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_comparison_covers_each_lane_kind(self, kind, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            cfgs, result, solo, lanes = self.runs(kind, monkeypatch)
        full, fallback, scalar, flaky = solo[-4:]
        # an SGD lane diverges and stops before its last step
        assert any(r.diverged and r.final.step < c.steps for c, r in zip(cfgs, solo))
        assert full.precond is not None and full.estimates is not None
        assert fallback.precond is None and fallback.estimates is None
        fell_back = [r.message for r in caplog.records if "plain SGD fallback" in r.message]
        assert len(fell_back) == 2  # once in the comparison, once alone
        assert all("(synthetic rank-reduction failure)" in m for m in fell_back)
        assert fallback.records[0].data_read == (2 + 4) * cfgs[-1].batch_size
        assert all(r.step_length == cfgs[-3].lr for r in fallback.records)
        # the flaky run retried its second rebuild, three batches ahead
        assert self.rebuilds(scalar) == self.rebuilds(flaky) > 1
        assert flaky.final.data_read - scalar.final.data_read == 3 * cfgs[-1].batch_size
        failed = [r.message for r in caplog.records if "scalar estimation attempt failed" in r.message]
        assert len(failed) == 2  # once in the comparison, once alone

    @pytest.mark.parametrize("kind", ["quadratic", "mlp"])
    def test_lanes_at_one_position_share_one_draw_and_one_gradients_call(self, kind,
                                                                          monkeypatch):
        problem = small_quadratic() if kind == "quadratic" else small_mlp()
        cfgs = [ExperimentConfig(problem=problem, optimizer="sgd", lr=lr, steps=9,
                                 batch_size=30, record_every=4) for lr in (0.1, 0.05, 0.02)]
        if kind == "quadratic":  # a lane that reads the batch, not a gradient
            cfgs.append(ExperimentConfig(problem=problem, optimizer="avg_inv", steps=7,
                                         batch_size=30, record_every=4))
        oracle_type = type(build_problem(problem).make_oracle(30, 0))
        calls = []
        for owner, name in ((HessianOracle, "_draw"), (oracle_type, "gradients")):
            monkeypatch.setattr(owner, name, lambda self, *args, real=getattr(owner, name),
                                name=name: calls.append((name, len(args[0]) if args else 0))
                                or real(self, *args))
        result = compare(cfgs)
        assert not any(s.diverged for s in result.summaries)
        assert [s.data_read for s in result.summaries] == [9 * 30] * 3 + [7 * 30] * (len(cfgs) - 3)
        assert calls.count(("_draw", 0)) == 9
        # the gradients call takes the three SGD lanes' iterates only
        assert [c for c in calls if c[0] == "gradients"] == [("gradients", 3)] * 9

    def test_baseline_on_mlp_block_raises_before_a_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(HessianOracle, "_draw", lambda self: draws.append(1))
        cfgs = [ExperimentConfig(problem=small_mlp(), optimizer=optimizer, steps=3,
                                 batch_size=30) for optimizer in ("sgd", "avg_inv")]
        with pytest.raises(ConfigError, match="avg_inv baseline only applies to quadratic"):
            compare(cfgs)
        assert draws == []

    def test_each_lane_charged_once_per_step(self, monkeypatch):
        cfgs, result, solo, _ = self.runs("quadratic", monkeypatch)
        for cfg, summary, alone in zip(cfgs, result.summaries, solo):
            lane = [r for lab, r in result.labeled_records if lab == summary.label]
            assert [r.data_read for r in lane] == [r.data_read for r in alone.records]
            if cfg.optimizer == "sgd":
                assert all(r.data_read == r.step * cfg.batch_size for r in lane)

    def test_one_call_steps_each_batch_stream(self):
        # two seeds and two batch sizes make four streams; each stream holds a
        # stable and a diverging SGD run, and two add a baseline and a full-mode run
        bundle = build_problem(small_quadratic())
        base = dict(problem=small_quadratic(), steps=30, record_every=5)
        cfgs = [ExperimentConfig(optimizer="sgd", lr=lr, batch_size=b, seed=seed, **base)
                for seed, b in ((0, 32), (1, 64), (0, 64), (1, 32)) for lr in (0.05, 1e8)]
        cfgs[3:3] = [ExperimentConfig(optimizer="avg_inv", batch_size=64, seed=1, **base)]
        cfgs.append(ExperimentConfig(optimizer="precond_sgd", lr=0.01, batch_size=32, seed=1,
                                     solver=SolverSettings(iterations=4, init_samples=2,
                                                           rank=4), **base))
        with np.errstate(over="ignore", invalid="ignore"):
            lanes = run_sgd_lanes(bundle, cfgs)
            solo = [run_experiment(bundle, c) for c in cfgs]
        assert [lane.cfg for lane in lanes] == cfgs
        assert [r.diverged for r in solo] == [c.lr == 1e8 for c in cfgs]
        assert lanes[-1].precond is not None
        for lane, alone in zip(lanes, solo):
            assert lane.diverged is alone.diverged
            assert_same_records(lane.records, alone.records)
            np.testing.assert_array_equal(lane.w, alone.w)
            assert_same_construction(lane, alone)


LANE_KINDS = {
    "sgd": dict(optimizer="sgd"),
    "full": dict(optimizer="precond_sgd",
                 solver=SolverSettings(iterations=4, init_samples=3, rank=4)),
    "scalar": dict(optimizer="precond_sgd", solver=SolverSettings(init_samples=3, mode="scalar")),
    "avg_inv": dict(optimizer="avg_inv"),
    "cg": dict(optimizer="cg"),
}


@cache
def lane_bundle(kind):
    """A 400-sample, 12-feature quadratic or a 300-sample MLP, built once per test run."""
    return build_problem(small_quadratic() if kind == "quadratic" else small_mlp(n_samples=300))


def lane_config(problem, kinds):
    length = st.one_of(st.builds(dict, steps=st.integers(1, 40)),
                       st.builds(dict, epochs=st.floats(0.05, 1.0)))
    return st.builds(
        lambda kind, length, **kw: ExperimentConfig(problem=problem, **LANE_KINDS[kind],
                                                    **length, **kw),
        st.sampled_from(kinds), length, seed=st.sampled_from([0, 1, 7]),
        batch_size=st.sampled_from([8, 16, 32]),
        lr=st.floats(-4.0, 1.0).map(lambda e: 10.0 ** e), record_every=st.integers(1, 12))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_each_lane_equals_its_run_alone(data):
    """``run_sgd_lanes``'s one promise, on random mixes of 1-6 runs of every lane kind
    (the baselines on the quadratic only): each lane's records, ``diverged`` and final
    ``w`` equal those of its config run alone, and every lane keeps the one start and end."""
    kind = data.draw(st.sampled_from(["quadratic", "mlp"]))
    bundle = lane_bundle(kind)
    kinds = list(LANE_KINDS) if kind == "quadratic" else ["sgd", "full", "scalar"]
    cfgs = data.draw(st.lists(lane_config(bundle.config, kinds), min_size=1, max_size=6))
    with np.errstate(over="ignore", invalid="ignore"):
        lanes = run_sgd_lanes(bundle, cfgs)
        solo = [run_experiment(bundle, c) for c in cfgs]
    for lane, alone in zip(lanes, solo):
        assert lane.diverged is alone.diverged
        assert_same_records(lane.records, alone.records)
        np.testing.assert_array_equal(lane.w, alone.w)
        # every lane kind starts with a step-0 record and ends at its first
        # non-finite one, diverged
        assert lane.records[0].step == 0
        assert all(math.isfinite(r.train_loss) for r in lane.records[:-1])
        assert lane.diverged or math.isfinite(lane.final.train_loss)


def test_bench_tracer_finds_and_restores_the_names_it_wraps(monkeypatch):
    """``bench/tracing.py`` wraps ``hessprec`` names by name: each must still exist,
    and uninstalling puts every original back, also where one function is bound to
    several names, which the tracer then wraps once per name, one wrapper in another.
    The oracles' ``gradient`` and the bundles' held-out pair are inherited names."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    tracer, run = importlib.import_module("tracing").Tracer(), harness_mod.run_experiment
    names = ("run_sgd", "run_precond_sgd", "run_baseline", "run_experiment")
    bundles = (harness_mod.QuadraticBundle, harness_mod.MLPBundle)
    oracles = (problems_mod.QuadraticOracle, MLPOracle)
    assert all(getattr(harness_mod, name) is run for name in names)
    assert all(oracle.gradient is HessianOracle.gradient for oracle in oracles)
    try:
        tracer.install()
        assert all(getattr(harness_mod, name) is not run for name in names)
        assert cli_mod.run_experiment is not run
        assert all(bundle.test_loss is not harness_mod._Bundle.test_loss for bundle in bundles)
        assert all(oracle.gradient is not HessianOracle.gradient for oracle in oracles)
    finally:
        tracer.uninstall()
    assert all(oracle.gradient is HessianOracle.gradient for oracle in oracles)
    assert all(getattr(harness_mod, name) is run for name in names)
    assert cli_mod.run_experiment is run
    assert problems_mod.batch_oracle is problems_mod.QuadraticOracle
    assert problems_mod.logistic_oracle is problems_mod.LogisticOracle
    for bundle in bundles:
        for name in ("test_loss", "test_accuracy"):
            assert getattr(bundle, name) is getattr(harness_mod._Bundle, name)
