import logging
import tracemalloc
import types

import numpy as np
import pytest

import hessprec.problems as problems_mod
from hessprec import data as datagen
from hessprec.harness import (
    TEST_FRACTION,
    ConfigError,
    ExperimentConfig,
    ProblemConfig,
    QuadraticBundle,
    build_problem,
    run_baseline,
)
from hessprec.linalg import SolveFailure
from hessprec.mlp import MLPOracle, ToyNet
from hessprec.problems import (
    LogisticProblem,
    QuadraticProblem,
    SquaredLoss,
    batch_oracle,
    exact_solution,
    logistic_oracle,
    n_monomials,
    polynomial_features,
    raw_monomials,
    sigmoid,
)
from hessprec.solver import HessianOracle


def fd_gradient(f, w, eps=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = eps
        g[i] = (f(w + e) - f(w - e)) / (2 * eps)
    return g


def fd_hvp(grad, w, s, eps=1e-6):
    return (grad(w + eps * s) - grad(w - eps * s)) / (2 * eps)


class TestFeatureMap:
    def test_distinct_monomial_count_for_dim_21(self):
        assert n_monomials(21) == 21 + 21 * 22 // 2 + 1 == 253
        X = np.random.default_rng(0).normal(size=(3, 21))
        assert polynomial_features(X, np.ones(253)).shape == (3, 253)

    def test_monomial_order_and_trace_term(self):
        x = np.array([2.0, 3.0])
        feats = raw_monomials(x[None, :], 6)[0]
        # linear terms, then x0^2, x0 x1, x1^2, then ||x||^2
        np.testing.assert_allclose(feats, [2.0, 3.0, 4.0, 6.0, 9.0, 13.0])

    def test_each_count_is_a_prefix_of_all_monomials(self):
        X = np.random.default_rng(0).normal(size=(5, 4))
        full = raw_monomials(X, n_monomials(4))
        assert full.shape == (5, 15)
        for count in range(1, 16):
            np.testing.assert_array_equal(raw_monomials(X, count), full[:, :count])
        with pytest.raises(ValueError, match="only 15 distinct monomials"):
            raw_monomials(X, 16)

    def test_forms_only_the_returned_columns(self):
        # 120 inputs have 7,381 monomials (118 MB at 2,000 samples); 253 are kept
        X = np.random.default_rng(0).normal(size=(2000, 120))
        tracemalloc.start()
        try:
            feats = raw_monomials(X, 253)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feats.shape == (2000, 253)
        # one output array and no gathered or concatenated copies of it
        assert peak < 1.25 * feats.nbytes

    @staticmethod
    def gathered_monomials(X, count):
        """The feature map as two index gathers and a concatenation, the reference."""
        d = X.shape[1]
        iu, ju = np.triu_indices(d)
        pairs = max(count - d, 0)
        cols = [X[:, :count], X[:, iu[:pairs]] * X[:, ju[:pairs]]]
        if count == n_monomials(d):
            cols.append(np.sum(X * X, axis=1, keepdims=True))
        return np.concatenate(cols, axis=1)

    @pytest.mark.parametrize("d", [1, 2, 4, 21])
    def test_equals_the_gathered_map_bit_for_bit(self, d):
        X = np.random.default_rng(d).normal(size=(37, d))
        for count in range(1, n_monomials(d) + 1):
            feats = raw_monomials(X, count)
            assert feats.flags.c_contiguous
            assert np.array_equal(feats, self.gathered_monomials(X, count)), count

    def test_scaling_in_place_is_the_product_bit_for_bit(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(9, 4))
        scales = ProblemConfig(n_features=13).scale_vector()
        assert np.array_equal(polynomial_features(X, scales), raw_monomials(X, 13) * scales)
        assert np.array_equal(polynomial_features(X[2], scales),
                              (raw_monomials(X[2], 13) * scales)[0])
        assert polynomial_features(X[2], scales).shape == (13,)

    def test_scales_select_and_multiply(self):
        x = np.array([2.0, 3.0])
        scales = np.array([10.0, 1.0, 0.1])
        feats = polynomial_features(x, scales)
        np.testing.assert_allclose(feats, [20.0, 3.0, 0.4])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 4))
        scales = ProblemConfig(n_features=10).scale_vector()
        batch = polynomial_features(X, scales)
        for i in range(5):
            np.testing.assert_allclose(batch[i], polynomial_features(X[i], scales))

    def test_too_many_scales_rejected(self):
        with pytest.raises(ValueError, match="only 6 distinct monomials"):
            polynomial_features(np.ones((3, 2)), np.ones(7))

    def test_non_positive_scales_rejected(self):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ConfigError, match="problem scales must be positive and finite"):
                ProblemConfig(n_features=2, scales=(1.0, bad))

    def test_log_uniform_profile(self):
        # the default profile, bit for bit: log-spaced from 1 down to 1e-3
        for n in (1, 2, 12, 253):
            s = ProblemConfig(n_features=n).scale_vector()
            assert np.array_equal(s, np.logspace(np.log10(1.0), np.log10(1e-3), n))
        s = ProblemConfig(n_features=5).scale_vector()
        assert s[0] == 1.0 and s[-1] == pytest.approx(1e-3) and np.all(np.diff(s) < 0)


class TestQuadraticProblem:
    def make(self, seed=1, n_feat=7, n_data=60, alpha=1e-2):
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((n_feat, n_data))
        y = rng.standard_normal(n_data)
        return QuadraticProblem(Phi=Phi, y=y, alpha_reg=alpha)

    def test_hessian_formula(self):
        p = self.make()
        H = p.hessian()
        np.testing.assert_allclose(
            H, p.Phi @ p.Phi.T / p.n_data + p.alpha_reg * np.eye(7), atol=0)

    def test_gradient_matches_fd(self):
        p = self.make()
        w = np.random.default_rng(2).standard_normal(7)
        np.testing.assert_allclose(p.gradient(w), fd_gradient(p.loss, w),
                                   rtol=1e-6, atol=1e-8)

    def test_hessian_is_loss_curvature(self):
        p = self.make()
        w = np.random.default_rng(3).standard_normal(7)
        s = np.random.default_rng(4).standard_normal(7)
        np.testing.assert_allclose(p.hessian() @ s, fd_hvp(p.gradient, w, s),
                                   rtol=1e-6, atol=1e-8)

    def test_exact_solution_is_stationary(self):
        p = self.make()
        w_star = exact_solution(p)
        np.testing.assert_allclose(p.gradient(w_star), np.zeros(7), atol=1e-12)
        w_other = w_star + 0.1
        assert p.loss(w_other) > p.loss(w_star)

    def test_hessian_reuses_stored_gram(self):
        p = self.make()
        np.testing.assert_array_equal(p.hessian(), p.G + p.alpha_reg * np.eye(7))
        np.testing.assert_array_equal(exact_solution(p), p.w_star)

    def test_needs_a_training_sample(self):
        with pytest.raises(ValueError, match="at least one training sample"):
            QuadraticProblem(Phi=np.zeros((3, 0)), y=np.zeros(0), alpha_reg=1e-2)

    @pytest.mark.filterwarnings("error")  # the overflow is reported, not warned about
    def test_overflowing_targets_refused(self):
        # G, b and w_star stay finite, but the squared residuals overflow
        p = self.make()
        with pytest.raises(ValueError, match="the targets overflow"):
            QuadraticProblem(Phi=p.Phi, y=p.y * 1e200, alpha_reg=1e-2)

    @pytest.mark.filterwarnings("error")  # the overflow is reported, not warned about
    @pytest.mark.parametrize("scale, alpha", [(1e160, 1e-2), (1e-170, 1e-308)])
    def test_overflowing_moments_refused(self, scale, alpha):
        # G overflows in the first case; w_star = b / alpha_reg in the second
        p = self.make()
        with pytest.raises(ValueError, match="feature moments overflow"):
            QuadraticProblem(Phi=scale * p.Phi, y=p.y / scale ** 1.01, alpha_reg=alpha)

    def test_held_out_loss_excludes_regularizer(self):
        pc = ProblemConfig(kind="quadratic", n_samples=400, input_dim=4, n_features=12,
                           alpha_reg=1e-2, noise=0.05)
        bundle = build_problem(pc)
        Phi_te, y_te = held_out_split(pc)
        w = np.ones(12)
        assert bundle.test_loss(w) == pytest.approx(
            TestAnchoredLoss.residual_loss(Phi_te, y_te, w), rel=1e-12, abs=0)


def map_then_split(pc):
    """``pc``'s bundle data built here from the public pieces, every sample mapped
    first and then split: ``(Phi_train, y_train, Phi_test, y_test)``."""
    X, y = datagen.gen_regression(pc.data_seed, pc.n_samples, pc.input_dim, pc.n_features,
                                  pc.noise, pc.signal_dim, pc.equal_coef)
    Phi = polynomial_features(X, pc.scale_vector()).T
    tr, te = datagen.train_test_split(Phi.shape[1], TEST_FRACTION, pc.data_seed)
    return Phi[:, tr], y[tr], Phi[:, te], y[te]


def held_out_split(pc):
    """The held-out (Phi, y) of ``pc``'s bundle."""
    return map_then_split(pc)[2:]


class TestSplitFirstBundle:
    """The bundle maps its training and held-out rows apart, after the split."""

    @pytest.mark.parametrize("pc", [
        ProblemConfig(n_samples=400, input_dim=4, n_features=12),
        ProblemConfig(n_samples=500, input_dim=5, n_features=20, signal_dim=7,
                      scales=tuple(np.linspace(2.0, 0.01, 20))),
    ], ids=["default-scales", "signal-dim-and-scales"])
    def test_equals_the_map_then_split_construction(self, pc):
        bundle = build_problem(pc)
        Phi_tr, y_tr, Phi_te, y_te = map_then_split(pc)
        ref = QuadraticProblem(Phi_tr, y_tr, pc.alpha_reg)
        p = bundle.problem
        for name in ("Phi", "y", "G", "b", "w_star"):
            assert np.array_equal(getattr(p, name), getattr(ref, name)), name
        # the gradients' Phi[:, batch] gathers see the layout they saw before
        assert p.Phi.flags.f_contiguous
        held_out, ref_held_out = bundle._test_loss, SquaredLoss(Phi_te, y_te, ref.w_star)
        assert np.array_equal(held_out.gram, ref_held_out.gram)
        assert np.array_equal(held_out.grad_at_anchor, ref_held_out.grad_at_anchor)
        assert held_out.value_at_anchor == ref_held_out.value_at_anchor
        w = np.random.default_rng(1).standard_normal(pc.n_features)
        assert bundle.test_loss(w) == ref_held_out(w)

    def test_builds_no_feature_array_of_all_samples(self):
        # the training and held-out features together are 1.0x; an all-sample
        # feature array or a copy of either split would add 0.8x or more
        pc = ProblemConfig(n_samples=4000)
        tracemalloc.start()
        try:
            QuadraticBundle(pc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * pc.n_samples * pc.n_features * 8


class TestAnchoredLoss:
    """The w*-anchored Taylor form against a residual pass written here.

    With ``noise=0`` and a weak regularizer the data term at w* is about
    7e-8 of ``y.T y / |D|``, so an expanded ``w.T G w - 2 b.T w + c`` form
    misses the 1e-12 tolerance there by orders of magnitude.
    """

    @staticmethod
    def residual_loss(Phi, y, w):
        resid = Phi.T @ w - y
        return 0.5 * float(np.mean(resid * resid))

    @pytest.mark.parametrize("noise", [0.05, 0.0])
    @pytest.mark.parametrize("point", ["zero", "w_star", "near_w_star", "random"])
    def test_train_and_test_losses_match_residual_pass(self, noise, point):
        pc = ProblemConfig(kind="quadratic", n_samples=600, input_dim=4, n_features=15,
                           alpha_reg=1e-8, noise=noise)
        bundle = build_problem(pc)
        p = bundle.problem
        w = {"zero": np.zeros(15), "w_star": p.w_star, "near_w_star": p.w_star * (1 + 1e-3),
             "random": np.random.default_rng(7).standard_normal(15)}[point]
        Phi_te, y_te = held_out_split(pc)
        data_train, data_test = p.data_loss(w), bundle.test_loss(w)
        assert data_train >= 0 and data_test >= 0
        # abs=0: pytest.approx's default absolute 1e-12 would hide an error in L(w*)
        ref_train = self.residual_loss(p.Phi, p.y, w)
        assert data_train == pytest.approx(ref_train, rel=1e-12, abs=0)
        assert data_test == pytest.approx(self.residual_loss(Phi_te, y_te, w), rel=1e-12, abs=0)
        assert bundle.train_loss(w) == pytest.approx(
            0.5 * p.alpha_reg * float(w @ w) + ref_train, rel=1e-12, abs=0)


class TestQuadraticOracle:
    def make(self, seed=5, n_feat=6, n_data=300):
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((n_feat, n_data))
        y = rng.standard_normal(n_data)
        return QuadraticProblem(Phi=Phi, y=y, alpha_reg=1e-3)

    def test_hvp_matches_fd_of_batch_gradient(self):
        p = self.make()
        oracle = batch_oracle(p, 32, seed=0)
        w = np.random.default_rng(6).standard_normal(6)
        s = np.random.default_rng(7).standard_normal(6)
        batch = oracle.draw_batch()
        hv = oracle.hvp(w, s, batch)
        fd = fd_hvp(lambda v: oracle.gradient(v, batch), w, s)
        np.testing.assert_allclose(hv, fd, rtol=1e-5, atol=1e-7)

    def test_gradients_equal_per_vector_calls(self):
        p = self.make()
        oracle = batch_oracle(p, 32, seed=0)
        ws = list(np.random.default_rng(10).standard_normal((3, 6)))
        batch = oracle.draw_batch()
        grads = oracle.gradients(ws, batch)
        assert len(grads) == 3
        for g, w in zip(grads, ws):
            assert g.tobytes() == oracle.gradient(w, batch).tobytes()

    def mlp_oracle(self):
        net = ToyNet(sizes=(5, 8, 6, 3), reg=1e-3)
        rng = np.random.default_rng(11)
        X = rng.standard_normal((200, 5))
        targets = rng.integers(0, 3, size=200)
        return MLPOracle(net, X, targets, batch_size=32, seed=0)

    def test_mlp_gradients_equal_per_vector_calls(self):
        oracle = self.mlp_oracle()
        rng = np.random.default_rng(12)
        ws = [oracle.net.init_params(seed=i) + 0.3 * rng.standard_normal(oracle.dim)
              for i in range(4)]
        batch = oracle.draw_batch()
        grads = oracle.gradients(ws, batch)
        assert len(grads) == 4
        for g, w in zip(grads, ws):
            assert g.tobytes() == oracle.gradient(w, batch).tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_mlp_non_finite_lane_leaves_others_alone(self, bad):
        oracle = self.mlp_oracle()
        ws = [oracle.net.init_params(seed=i) for i in range(3)]
        wild = ws[1].copy()
        wild[::7] = bad
        batch = oracle.draw_batch()
        with np.errstate(over="ignore", invalid="ignore"):
            grads = oracle.gradients([ws[0], wild, ws[2]], batch)
        assert not np.all(np.isfinite(grads[1]))
        for i in (0, 2):
            assert grads[i].tobytes() == oracle.gradient(ws[i], batch).tobytes()

    def test_full_batch_equals_problem(self):
        p = self.make()
        oracle = batch_oracle(p, p.n_data, seed=0)
        w = np.random.default_rng(8).standard_normal(6)
        batch = oracle.draw_batch()
        np.testing.assert_allclose(oracle.gradient(w, batch), p.gradient(w),
                                   atol=1e-12)
        np.testing.assert_allclose(oracle.hvp(w, np.ones(6), batch),
                                   p.hessian() @ np.ones(6), atol=1e-10)

    def test_gradient_is_unbiased(self):
        p = self.make()
        oracle = batch_oracle(p, 16, seed=42)
        w = np.random.default_rng(9).standard_normal(6)
        full = p.gradient(w)
        draws = np.stack([oracle.noisy_gradient(w) for _ in range(2000)])
        err = draws.mean(axis=0) - full
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        assert np.all(np.abs(err) <= 4.0 * se + 1e-12)

    def test_determinism_and_independence(self):
        p = self.make()
        o1 = batch_oracle(p, 16, seed=3)
        o2 = batch_oracle(p, 16, seed=3)
        b1, b2 = o1.draw_batch(), o2.draw_batch()
        np.testing.assert_array_equal(b1, b2)
        assert not np.array_equal(o1.draw_batch(), b1)

    def test_data_read_charges(self):
        p = self.make()
        oracle = batch_oracle(p, 20, seed=1)
        w = np.zeros(6)
        oracle.noisy_gradient(w)
        oracle.noisy_hvp(w, np.ones(6))
        batch = oracle.draw_batch()
        oracle.gradient(w, batch)
        oracle.hvp(w, np.ones(6), batch)  # free: same loaded batch
        assert oracle.data_read == 60

    def test_batch_size_cap(self):
        p = self.make()
        with pytest.raises(ValueError, match="exceeds data size"):
            batch_oracle(p, p.n_data + 1, seed=0)


class TestLogistic:
    def make(self, seed=10, n=200, d=5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        labels = np.sign(rng.standard_normal(n))
        labels[labels == 0] = 1.0
        return LogisticProblem(X=X, labels=labels, reg=1e-2)

    def test_loss_and_gradient_at_origin(self):
        p = self.make()
        w = np.zeros(5)
        assert p.loss(w) == pytest.approx(np.log(2.0))
        expected = -(p.X * p.labels[:, None]).mean(axis=0) / 2.0
        np.testing.assert_allclose(p.gradient(w), expected, atol=1e-12)

    def test_gradient_matches_fd(self):
        p = self.make()
        w = np.random.default_rng(11).standard_normal(5) * 0.5
        np.testing.assert_allclose(p.gradient(w), fd_gradient(p.loss, w),
                                   rtol=1e-6, atol=1e-9)

    def test_hessian_matches_fd(self):
        p = self.make()
        w = np.random.default_rng(12).standard_normal(5) * 0.5
        s = np.random.default_rng(13).standard_normal(5)
        np.testing.assert_allclose(p.hessian_at(w) @ s, fd_hvp(p.gradient, w, s),
                                   rtol=1e-5, atol=1e-8)

    def test_oracle_full_batch_hvp_matches_hessian(self):
        p = self.make()
        oracle = logistic_oracle(p, p.n_data, seed=0)
        w = np.random.default_rng(14).standard_normal(5) * 0.3
        s = np.random.default_rng(15).standard_normal(5)
        batch = oracle.draw_batch()
        np.testing.assert_allclose(oracle.hvp(w, s, batch), p.hessian_at(w) @ s,
                                   atol=1e-10)

    def test_oracle_hvp_matches_fd_on_batch(self):
        p = self.make()
        oracle = logistic_oracle(p, 32, seed=1)
        w = np.random.default_rng(16).standard_normal(5) * 0.3
        s = np.random.default_rng(17).standard_normal(5)
        batch = oracle.draw_batch()
        fd = fd_hvp(lambda v: oracle.gradient(v, batch), w, s)
        np.testing.assert_allclose(oracle.hvp(w, s, batch), fd,
                                   rtol=1e-5, atol=1e-7)

    def test_sigmoid_is_stable_and_correct(self):
        z = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
        out = sigmoid(z)
        assert np.all(np.isfinite(out))
        assert out[2] == pytest.approx(0.5)
        np.testing.assert_allclose(out[1] + out[3], 1.0, atol=1e-12)
        np.testing.assert_allclose(out[[0, 4]], [0.0, 1.0], atol=1e-12)

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            LogisticProblem(X=np.ones((3, 2)), labels=np.array([0.0, 1.0, -1.0]),
                            reg=1e-2)


class BaselineBundle:
    """The bundle interface that ``run_baseline`` reads, around ``problem`` (which
    gives ``b``, ``n_data`` and ``loss``) and an oracle factory."""

    kind = "quadratic"

    def __init__(self, problem, make_oracle):
        self.problem = problem
        self.make_oracle = make_oracle
        self.n_train = problem.n_data

    def init_w(self, seed):
        return np.zeros(self.problem.b.size)

    def train_loss(self, w):
        return self.problem.loss(w)

    def test_metrics(self, w):
        return float("nan"), float("nan")


class TestAvgInvBaseline:
    def make(self, n_feat, n_data=500, seed=20):
        rng = np.random.default_rng(seed)
        Phi = rng.standard_normal((n_feat, n_data))
        y = Phi.T @ rng.standard_normal(n_feat) + 0.1 * rng.standard_normal(n_data)
        return QuadraticProblem(Phi=Phi, y=y, alpha_reg=1e-2)

    def run(self, problem, batch_size, n_batches, seed, record_every=10):
        """The averaged-inverse baseline on ``problem``: its result and its oracle."""
        oracles = []
        bundle = BaselineBundle(problem, lambda size, s: oracles.append(
            batch_oracle(problem, size, s)) or oracles[-1])
        res = run_baseline(bundle, ExperimentConfig(optimizer="avg_inv", batch_size=batch_size,
                                                    steps=n_batches, seed=seed,
                                                    record_every=record_every))
        return res, oracles[0]

    def reference(self, problem, batch_size, n_batches, seed):
        # independent re-computation with plain dense per-batch solves
        total = np.zeros(problem.n_features)
        for t in range(n_batches):
            rng = np.random.default_rng([np.uint32(seed), np.uint32(t)])
            idx = rng.choice(problem.n_data, size=batch_size, replace=False)
            Phib = problem.Phi[:, idx]
            Hb = Phib @ Phib.T / batch_size \
                + problem.alpha_reg * np.eye(problem.n_features)
            total += np.linalg.solve(Hb, Phib @ problem.y[idx] / batch_size)
        return total / n_batches

    def test_matches_dense_reference_small_batches(self):
        p = self.make(n_feat=10)
        res, _ = self.run(p, 8, 6, 0)
        np.testing.assert_allclose(res.w, self.reference(p, 8, 6, 0), atol=1e-8)

    def test_matches_dense_reference_large_batches(self):
        p = self.make(n_feat=10)
        res, _ = self.run(p, 50, 4, 1)
        np.testing.assert_allclose(res.w, self.reference(p, 50, 4, 1), atol=1e-8)

    def test_records_running_mean_at_cadence(self):
        # the zero start at step 0, then after step 1, every record_every-th step and
        # the last step
        p = self.make(n_feat=6)
        res, _ = self.run(p, 12, 5, 2, record_every=2)
        assert [(r.step, r.data_read) for r in res.records] == [(0, 0), (1, 12), (2, 24),
                                                                  (4, 48), (5, 60)]
        assert res.records[0].train_loss == p.loss(np.zeros(6))
        for r in res.records[1:]:
            assert r.train_loss == pytest.approx(p.loss(self.reference(p, 12, r.step, 2)),
                                                 rel=1e-10)
        np.testing.assert_allclose(res.w, self.reference(p, 12, 5, 2), atol=1e-8)

    def test_skips_failing_batches(self, monkeypatch, caplog):
        p = self.make(n_feat=10)
        calls = {"n": 0}
        real = problems_mod.woodbury_solve

        def flaky(b0, A, C, rhs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SolveFailure("synthetic failure")
            return real(b0, A, C, rhs)

        monkeypatch.setattr(problems_mod, "woodbury_solve", flaky)
        with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            res, oracle = self.run(p, 8, 4, 3)
        assert any("skipping batch 0" in rec.message for rec in caplog.records)
        assert oracle.data_read == 4 * 8  # the skipped batch stays charged
        ref = self.reference(p, 8, 4, 3)  # includes the skipped batch
        assert not np.allclose(res.w, ref)

    def test_all_batches_failing_ends_diverged_at_the_start(self, monkeypatch, caplog):
        # no batch solved: the last step records the untouched start at the reads
        # charged, and the lane ends through finish, diverged, instead of raising
        p = self.make(n_feat=10)

        def broken(b0, A, C, rhs):
            raise SolveFailure("synthetic failure")

        monkeypatch.setattr(problems_mod, "woodbury_solve", broken)
        with caplog.at_level(logging.WARNING, logger="hessprec.harness"):
            res, oracle = self.run(p, 8, 3, 4)
        assert res.diverged is True
        assert [(r.step, r.data_read) for r in res.records] == [(0, 0), (3, 24)]
        assert oracle.data_read == 3 * 8
        np.testing.assert_array_equal(res.w, np.zeros(10))
        assert res.final.train_loss == res.records[0].train_loss == p.loss(np.zeros(10))
        assert res.final.step_length == 0.0
        warnings_ = [r.message for r in caplog.records]
        assert sum("skipping batch" in m for m in warnings_) == 3
        assert [m for m in warnings_ if "diverged" in m] == ["avg_inv diverged at step 3"]


class ExactOracle(HessianOracle):
    def __init__(self, B):
        super().__init__(batch_size=1)
        self.B = B

    @property
    def dim(self):
        return self.B.shape[0]

    def _draw(self):
        return None

    def gradient(self, w, batch):
        raise NotImplementedError

    def hvp(self, w, s, batch):
        return self.B @ s


def run_cg(oracle, b, iters):
    """The CG baseline on ``oracle``'s products and right-hand side ``b``."""
    problem = types.SimpleNamespace(b=np.asarray(b, dtype=float), n_data=1,
                                    loss=lambda w: 0.5 * float(w @ (oracle.B @ w)) - float(b @ w))
    return run_baseline(BaselineBundle(problem, lambda size, seed: oracle),
                        ExperimentConfig(optimizer="cg", batch_size=1, steps=iters))


class TestCgBaseline:
    def test_exact_products_converge(self):
        rng = np.random.default_rng(30)
        n = 12
        M = rng.standard_normal((n, n))
        B = M @ M.T + np.eye(n)
        b = rng.standard_normal(n)
        res = run_cg(ExactOracle(B), b, iters=n + 2)
        assert not res.diverged
        np.testing.assert_allclose(B @ res.w, b, atol=1e-8)

    def test_zero_rhs_short_circuits(self):
        res = run_cg(ExactOracle(np.eye(3)), np.zeros(3), iters=5)
        assert not res.diverged
        np.testing.assert_array_equal(res.w, np.zeros(3))
        assert [(r.step, r.data_read) for r in res.records] == [(0, 1)]

    def test_negative_curvature_flags_divergence(self):
        assert run_cg(ExactOracle(-np.eye(4)), np.ones(4), iters=10).diverged

    def test_nonfinite_product_flags_divergence(self):
        class NanOracle(ExactOracle):
            def hvp(self, w, s, batch):
                return np.full_like(s, np.nan)

        assert run_cg(NanOracle(np.eye(4)), np.ones(4), iters=10).diverged

    def test_residual_blowup_flags_divergence(self):
        # alternating wrong products make the residual grow without bound
        class LyingOracle(ExactOracle):
            def __init__(self, B):
                super().__init__(B)
                self.calls = 0

            def hvp(self, w, s, batch):
                self.calls += 1
                scale = 1e-4 if self.calls % 2 else 1e4
                return scale * (self.B @ s)

        assert run_cg(LyingOracle(np.eye(6)), np.ones(6), iters=50).diverged

    def test_incoherent_products_flag_divergence(self):
        # resampled multiplicative noise: the recursive residual keeps
        # shrinking while the recomputed one stalls, so the coherence
        # check must fire even though nothing blows up
        class ResampledOracle(ExactOracle):
            def __init__(self, B, rel, seed):
                super().__init__(B)
                self.rel = rel
                self.rng = np.random.default_rng(seed)

            def hvp(self, w, s, batch):
                n = self.dim
                M = self.rng.standard_normal((n, n))
                E = self.rel * (M + M.T) / (2 * np.sqrt(n))
                return (self.B + np.linalg.norm(self.B, 2) * E) @ s

        B = np.diag(np.logspace(0, 4, 40))
        b = np.ones(40)
        assert run_cg(ResampledOracle(B, rel=0.5, seed=7), b, iters=30).diverged

    def test_exact_run_past_convergence_stays_clean(self):
        # after convergence both residuals sit at rounding level; the
        # coherence check must not misfire on their ratio
        B = np.diag(np.linspace(1.0, 3.0, 8))
        res = run_cg(ExactOracle(B), np.ones(8), iters=60)
        assert not res.diverged
        np.testing.assert_allclose(B @ res.w, np.ones(8), atol=1e-8)

    def test_one_record_per_iteration(self):
        # after the step-0 record at the one pass for b, each iteration reads one
        # batch for its product, then one for the residual check after its record
        rng = np.random.default_rng(31)
        B = np.diag(rng.uniform(1.0, 3.0, size=5))
        res = run_cg(ExactOracle(B), np.ones(5), iters=4)
        assert [(r.step, r.data_read) for r in res.records] == [(0, 1), (1, 2), (2, 4), (3, 6),
                                                                  (4, 8)]
        assert not res.diverged and all(np.isfinite(r.train_loss) for r in res.records)
