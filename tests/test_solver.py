import logging
import re
import warnings

import numpy as np
import pytest

from hessprec.inference import (IncrementalPosterior, MatrixPrior, NoiseModel, ObservationSet,
                                infer_noise_free)
from hessprec.mlp import MLPOracle, ToyNet
from hessprec.precond import SpectralApprox
from hessprec.problems import (
    LogisticOracle,
    LogisticProblem,
    QuadraticOracle,
    QuadraticProblem,
    batch_oracle,
)
from hessprec.solver import (
    EstimationError,
    HessianOracle,
    PriorEstimates,
    SolverConfig,
    estimate_parameters,
    next_direction,
    run_inference,
)
from tests.test_inference import dense_posterior_mean


def dataset_oracle(kind, n_data, batch_size, seed):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n_data, 3))
    if kind == "quadratic":
        problem = QuadraticProblem(Phi=X.T, y=rng.standard_normal(n_data), alpha_reg=1e-3)
        return QuadraticOracle(problem, batch_size, seed)
    if kind == "logistic":
        labels = np.where(rng.random(n_data) < 0.5, -1.0, 1.0)
        return LogisticOracle(LogisticProblem(X=X, labels=labels, reg=1e-3), batch_size, seed)
    return MLPOracle(ToyNet((3, 2)), X, rng.integers(0, 2, n_data), batch_size, seed)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
def test_dataset_oracles_draw_the_seeded_batch_stream(kind):
    n_data, batch_size, seed = 50, 7, 11
    oracle = dataset_oracle(kind, n_data, batch_size, seed)
    for t in range(6):
        want = np.random.default_rng([seed, t]).choice(n_data, size=batch_size, replace=False)
        np.testing.assert_array_equal(oracle.draw_batch(), want)
    assert oracle.data_read == 6 * batch_size
    with pytest.raises(ValueError, match="batch_size 51 exceeds data size 50"):
        dataset_oracle(kind, n_data, n_data + 1, seed)


# The literal first indices of today's stream, so that a numpy whose
# SeedSequence, PCG64 or Generator.choice changed fails here instead of
# silently changing every run's batches, CSV and benchmark fingerprint.
@pytest.mark.parametrize("seed, position, first", [
    (0, 0, [6148, 10668, 1457, 13279, 84, 13619]),
    (0, 1, [15101, 1707, 9234, 14777, 8743, 1672]),
    (0, 2 ** 32 - 1, [4816, 5635, 6616, 13925, 3441, 15844]),
    (2 ** 32 - 1, 0, [14010, 5817, 12641, 6500, 11028, 5910]),
    (2 ** 32 - 1, 1, [14045, 2168, 6784, 12859, 1895, 6374]),
    (2 ** 32 - 1, 2 ** 32 - 1, [6031, 867, 993, 10106, 4761, 4276]),
])
def test_batch_stream_is_pinned(seed, position, first):
    oracle = dataset_oracle("quadratic", 16000, 256, seed)
    oracle._counter = position
    batch = oracle.draw_batch()
    assert batch.tolist()[:6] == first
    assert batch.size == 256 and np.unique(batch).size == 256
    assert oracle.position == position + 1


class MatrixOracle(HessianOracle):
    """Exact full-batch oracle for the quadratic 0.5 w.T B w - c.T w."""

    def __init__(self, B, c, batch_size=10):
        super().__init__(batch_size)
        self.B = np.asarray(B, dtype=float)
        self.c = np.asarray(c, dtype=float)

    @property
    def dim(self):
        return self.B.shape[0]

    def _draw(self):
        return None

    def gradient(self, w, batch):
        return self.B @ w - self.c

    def hvp(self, w, s, batch):
        return self.B @ s


class ScriptedOracle(HessianOracle):
    """Replays a fixed sequence of per-batch gradients; exact products."""

    def __init__(self, grads, B, batch_size=4):
        super().__init__(batch_size)
        self.grads = [np.asarray(g, dtype=float) for g in grads]
        self.B = np.asarray(B, dtype=float)
        self._next = 0

    @property
    def dim(self):
        return self.B.shape[0]

    def _draw(self):
        idx = self._next
        self._next += 1
        return idx

    def gradient(self, w, batch):
        return self.grads[batch]

    def hvp(self, w, s, batch):
        return self.B @ s


def spd_matrix(rng, n, spread=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.geomspace(spread, 1.0, n)
    return Q @ np.diag(vals) @ Q.T


class TestEstimateParameters:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.n = 12
        self.B = spd_matrix(rng, self.n)
        self.grads = [rng.standard_normal(self.n) + np.array([2.0] + [0.0] * (self.n - 1))
                      for _ in range(5)]

    def test_full_mode_formulas(self):
        oracle = ScriptedOracle(self.grads, self.B)
        est = estimate_parameters(oracle, np.zeros(self.n), init_samples=5, mode="full")
        G = np.stack(self.grads)
        s = G.mean(axis=0)
        y = self.B @ s
        assert est.w0 == pytest.approx((s @ y) / (s @ s), rel=1e-12)
        assert est.b0 == pytest.approx(np.sqrt((y @ y) / (s @ y)), rel=1e-12)
        expected_lam0 = np.median(G.var(axis=0)) / np.sqrt(s @ s)
        assert est.lam0 == pytest.approx(expected_lam0, rel=1e-12)
        np.testing.assert_allclose(est.mean_grad, s)

    def test_scalar_mode_formulas(self):
        oracle = ScriptedOracle(self.grads, self.B)
        est = estimate_parameters(oracle, np.zeros(self.n), init_samples=5, mode="scalar")
        G = np.stack(self.grads)
        s = G.mean(axis=0)
        y = self.B @ s
        assert est.b0 == pytest.approx((y @ y) / (s @ y), rel=1e-12)
        noise_var = np.mean(np.sum(G * G, axis=1)) - s @ s
        assert est.lam0 == pytest.approx(np.sqrt(max(0.0, noise_var) / self.n), rel=1e-10)

    def test_exact_oracle_gives_zero_noise(self):
        oracle = MatrixOracle(self.B, np.ones(self.n))
        est = estimate_parameters(oracle, np.zeros(self.n), init_samples=3)
        assert est.lam0 == 0.0

    def test_charges_one_batch_per_sample(self):
        oracle = ScriptedOracle(self.grads, self.B, batch_size=7)
        estimate_parameters(oracle, np.zeros(self.n), init_samples=5)
        assert oracle.data_read == 5 * 7

    def test_zero_mean_gradient_raises(self):
        g = np.ones(4)
        oracle = ScriptedOracle([g, -g], np.eye(4))
        with pytest.raises(EstimationError, match="mean gradient is zero"):
            estimate_parameters(oracle, np.zeros(4), init_samples=2)

    def test_negative_curvature_raises_with_retry_hint(self):
        oracle = ScriptedOracle(self.grads, -np.eye(self.n))
        with pytest.raises(EstimationError, match="retry with fresh batches"):
            estimate_parameters(oracle, np.zeros(self.n), init_samples=5)

    @pytest.mark.parametrize("mode", ["full", "scalar"])
    def test_overflowing_scale_raises_without_numpy_warning(self, mode):
        # s.y = 4e200 is finite, y.y = 4e400 is not
        oracle = MatrixOracle(1e200 * np.eye(4), np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EstimationError, match="b0=inf"):
                estimate_parameters(oracle, np.zeros(4), init_samples=2, mode=mode)

    def test_rejects_single_sample(self):
        oracle = MatrixOracle(self.B, np.ones(self.n))
        with pytest.raises(ValueError, match="at least 2"):
            estimate_parameters(oracle, np.zeros(self.n), init_samples=1)

    def test_isotropic_curvature_recovers_scale(self):
        # for B = 4 I the full-mode prior scale sits on the square-root
        # level (b0 = 2) while w0 and the scalar-mode inverse step see
        # the curvature itself (4)
        oracle = MatrixOracle(4.0 * np.eye(6), np.ones(6))
        full = estimate_parameters(oracle, np.zeros(6), init_samples=2, mode="full")
        oracle2 = MatrixOracle(4.0 * np.eye(6), np.ones(6))
        scal = estimate_parameters(oracle2, np.zeros(6), init_samples=2, mode="scalar")
        assert full.w0 == pytest.approx(4.0)
        assert full.b0 == pytest.approx(2.0)
        assert scal.b0 == pytest.approx(4.0)


class TestPriorEstimates:
    def test_validation(self):
        with pytest.raises(ValueError, match="b0"):
            PriorEstimates(b0=0.0, w0=1.0, lam0=0.0, mean_grad=np.ones(2))
        with pytest.raises(ValueError, match="w0"):
            PriorEstimates(b0=1.0, w0=-1.0, lam0=0.0, mean_grad=np.ones(2))
        with pytest.raises(ValueError, match="lam0"):
            PriorEstimates(b0=1.0, w0=1.0, lam0=-0.1, mean_grad=np.ones(2))


class TestNextDirection:
    def test_descent_direction_from_posterior(self):
        rng = np.random.default_rng(0)
        B = spd_matrix(rng, 8)
        # exact products along all of I interpolate to B itself
        post = infer_noise_free(MatrixPrior(b0=1.0, w0=1.0, n=8),
                                ObservationSet.from_probes(np.eye(8), B, 0.0))
        r = rng.standard_normal(8)
        s = next_direction(post, r)
        np.testing.assert_allclose(s, -np.linalg.solve(B, r), atol=1e-9)

    def test_zero_residual_rejected(self):
        post = infer_noise_free(MatrixPrior(b0=1.0, w0=1.0, n=3), ObservationSet(
            S=np.zeros((3, 0)), Y=np.zeros((3, 0)), noise_diag=np.zeros(0)))
        with pytest.raises(ValueError, match="residual is zero"):
            next_direction(post, np.zeros(3))

    def test_solve_failure_falls_back_to_scaled_gradient(self, caplog):
        # a zero product along s gives b0 (I - s s.T / ||s||^2), singular along
        # s, and the capacitance b0 + s.T (0 - b0 s) / ||s||^2 is exactly zero
        s = np.array([[1.0], [2.0], [2.0]])
        b0 = 1.5
        post = infer_noise_free(MatrixPrior(b0=b0, w0=1.0, n=3),
                                ObservationSet.from_probes(s, np.zeros_like(s), 0.0))
        r = np.array([1.0, -1.0, 0.5])
        with caplog.at_level(logging.WARNING, logger="hessprec.solver"):
            s = next_direction(post, r)
        np.testing.assert_allclose(s, -r / b0)
        assert any("falling back" in rec.message for rec in caplog.records)


class TestRunInference:
    def test_probes_span_krylov_subspace(self):
        rng = np.random.default_rng(1)
        n, iters = 20, 6
        B = spd_matrix(rng, n, spread=50.0)
        c = rng.standard_normal(n)
        oracle = MatrixOracle(B, c)
        est = estimate_parameters(oracle, np.zeros(n), init_samples=3)
        assert est.lam0 == 0.0
        post = run_inference(oracle, np.zeros(n), est,
                             SolverConfig(iterations=iters, init_samples=3))
        S = post.C / est.w0  # probe matrix, recovered from the stored factor
        assert S.shape == (n, iters)
        g0 = est.mean_grad
        krylov = np.column_stack([np.linalg.matrix_power(B, j) @ g0
                                  for j in range(iters)])
        Qs, _ = np.linalg.qr(S)
        Qk, _ = np.linalg.qr(krylov)
        # all principal angles between the two spans must vanish
        cosines = np.linalg.svd(Qs.T @ Qk, compute_uv=False)
        np.testing.assert_allclose(cosines, 1.0, atol=1e-6)

    def test_exact_recovery_with_full_rank_probing(self):
        rng = np.random.default_rng(2)
        n = 8
        B = spd_matrix(rng, n, spread=5.0)
        c = rng.standard_normal(n)
        oracle = MatrixOracle(B, c)
        est = estimate_parameters(oracle, np.zeros(n), init_samples=2)
        post = run_inference(oracle, np.zeros(n), est,
                             SolverConfig(iterations=n, init_samples=2))
        assert post.m == n
        np.testing.assert_allclose(post.dense(), B, atol=1e-6 * np.linalg.norm(B))

    def test_data_read_accounting_is_one_batch_per_iteration(self):
        rng = np.random.default_rng(3)
        Phi = rng.standard_normal((10, 400))
        problem = QuadraticProblem(Phi=Phi, y=rng.standard_normal(400), alpha_reg=1e-3)
        bs, k, iters = 32, 4, 6
        oracle = batch_oracle(problem, bs, seed=0)
        est = estimate_parameters(oracle, np.zeros(10), init_samples=k)
        assert oracle.data_read == k * bs
        run_inference(oracle, np.zeros(10), est,
                      SolverConfig(iterations=iters, init_samples=k))
        assert oracle.data_read == (k + iters) * bs

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        Phi = rng.standard_normal((12, 300))
        problem = QuadraticProblem(Phi=Phi, y=rng.standard_normal(300), alpha_reg=1e-3)

        def build():
            oracle = batch_oracle(problem, 24, seed=11)
            est = estimate_parameters(oracle, np.zeros(12), init_samples=3)
            return run_inference(oracle, np.zeros(12), est,
                                 SolverConfig(iterations=5, init_samples=3))

        p1, p2 = build(), build()
        assert p1.A.tobytes() == p2.A.tobytes()
        assert p1.C.tobytes() == p2.C.tobytes()

    def test_callback_records(self):
        rng = np.random.default_rng(5)
        Phi = rng.standard_normal((9, 200))
        problem = QuadraticProblem(Phi=Phi, y=rng.standard_normal(200), alpha_reg=1e-3)
        oracle = batch_oracle(problem, 20, seed=1)
        est = estimate_parameters(oracle, np.zeros(9), init_samples=2)
        rows = []
        run_inference(oracle, np.zeros(9), est,
                      SolverConfig(iterations=4, init_samples=2),
                      callback=rows.append)
        assert [iteration for iteration, _, _ in rows] == [1, 2, 3, 4]
        # each row is (iteration, probe_norm, data_read)
        assert all(type(row) is tuple and len(row) == 3 for row in rows)
        reads = [data_read for _, _, data_read in rows]
        assert reads == [(2 + i) * 20 for i in range(1, 5)]
        assert all(probe_norm > 0 for _, probe_norm, _ in rows)

    def test_normalized_probes_have_unit_columns(self):
        rng = np.random.default_rng(6)
        B = spd_matrix(rng, 7)
        oracle = MatrixOracle(B, rng.standard_normal(7))
        est = estimate_parameters(oracle, np.zeros(7), init_samples=2)
        post = run_inference(oracle, np.zeros(7), est,
                             SolverConfig(iterations=3, init_samples=2))
        S = post.C / est.w0
        np.testing.assert_allclose(np.linalg.norm(S, axis=0), 1.0, atol=1e-12)

    def test_exhausted_krylov_space_returns_partial_posterior(self, caplog):
        # identity curvature: the reachable space is one-dimensional, so
        # the second probe repeats the first and the loop stops updating
        oracle = MatrixOracle(np.eye(5), np.ones(5))
        est = estimate_parameters(oracle, np.zeros(5), init_samples=2)
        with caplog.at_level(logging.WARNING, logger="hessprec.solver"):
            post = run_inference(oracle, np.zeros(5), est,
                                 SolverConfig(iterations=4, init_samples=2))
        assert post.m == 1
        assert any("keeping previous" in rec.message for rec in caplog.records)

    def test_rejected_probe_returns_previous_posterior(self):
        # the repeated second probe is rejected under lam0 = 0, so the
        # result is bitwise the one-probe posterior
        def build(iterations):
            oracle = MatrixOracle(np.eye(5), np.ones(5))
            est = estimate_parameters(oracle, np.zeros(5), init_samples=2)
            return run_inference(oracle, np.zeros(5), est,
                                 SolverConfig(iterations=iterations, init_samples=2))

        one, four = build(1), build(4)
        assert four.A.tobytes() == one.A.tobytes()
        assert four.C.tobytes() == one.C.tobytes()

    def test_zero_batch_gradient_keeps_the_posterior_so_far(self, caplog):
        # the first probe's batch has an exactly zero gradient, so no second
        # direction exists: the loop stops with its one-probe posterior
        rng = np.random.default_rng(10)
        grads = [rng.standard_normal(6) for _ in range(2)] + [np.zeros(6)] * 4
        oracle = ScriptedOracle(grads, spd_matrix(rng, 6))
        est = estimate_parameters(oracle, np.zeros(6), init_samples=2)
        with caplog.at_level(logging.WARNING, logger="hessprec.solver"):
            post = run_inference(oracle, np.zeros(6), est,
                                 SolverConfig(iterations=4, init_samples=2))
        assert post.m == 1
        assert oracle.data_read == 3 * oracle.batch_size
        assert any("batch gradient is zero at iteration 2" in rec.message
                   for rec in caplog.records)

    def test_loop_matches_from_scratch_update_after_every_probe(self):
        rng = np.random.default_rng(9)
        Phi = rng.standard_normal((10, 300))
        problem = QuadraticProblem(Phi=Phi, y=rng.standard_normal(300), alpha_reg=1e-3)
        for iters in range(1, 9):
            oracle = batch_oracle(problem, 16, seed=3)
            est = estimate_parameters(oracle, np.zeros(10), init_samples=3)
            assert est.lam0 > 0
            probes, products = [], []
            hvp = oracle.hvp

            def recording_hvp(w, s, batch):
                y = hvp(w, s, batch)
                probes.append(s)
                products.append(y)
                return y

            oracle.hvp = recording_hvp
            post = run_inference(oracle, np.zeros(10), est,
                                 SolverConfig(iterations=iters, init_samples=3))
            assert isinstance(post, IncrementalPosterior) and post.m == iters
            ref = dense_posterior_mean(est.b0, est.w0, est.lam0,
                                       np.column_stack(probes), np.column_stack(products))
            assert np.linalg.norm(post.dense() - ref) / np.linalg.norm(ref) <= 1e-10

    def test_rejects_more_iterations_than_dimensions_before_drawing(self):
        rng = np.random.default_rng(7)
        problem = QuadraticProblem(Phi=rng.standard_normal((5, 200)),
                                   y=rng.standard_normal(200), alpha_reg=1e-3)
        oracle = batch_oracle(problem, 16, seed=0)
        est = estimate_parameters(oracle, np.zeros(5), init_samples=3)
        reads = oracle.data_read
        with pytest.raises(ValueError, match=r"iterations \(8\) exceed the parameter "
                                             r"dimension \(5\)"):
            run_inference(oracle, np.zeros(5), est, SolverConfig(iterations=8))
        assert oracle.data_read == reads

    def test_solver_config_validation(self):
        with pytest.raises(ValueError, match="iterations"):
            SolverConfig(iterations=0)
        with pytest.raises(ValueError, match="init_samples"):
            SolverConfig(iterations=1, init_samples=1)
        with pytest.raises(ValueError, match="mode"):
            SolverConfig(iterations=1, mode="banana")


def _add_past_capacity():
    """Add a probe to a full posterior; every buffer must be as it was after the refusal."""
    post = IncrementalPosterior(MatrixPrior(b0=1.0, w0=1.0, n=3), NoiseModel(lam0=0.0), 1)
    post.add(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))
    before = {name: value.copy() for name, value in vars(post).items()
              if isinstance(value, np.ndarray)}
    try:
        post.add(np.array([0.0, 1.0, 0.0]), np.array([0.0, 3.0, 0.0]))
    finally:
        assert post.m == 1
        assert all(np.array_equal(getattr(post, name), value, equal_nan=True)
                   for name, value in before.items())


def _quadratic_oracle(batch_size):
    rng = np.random.default_rng(0)
    problem = QuadraticProblem(Phi=rng.standard_normal((3, 20)), y=rng.standard_normal(20),
                               alpha_reg=1e-3)
    return QuadraticOracle(problem, batch_size, seed=0)


_NET = ToyNet((3, 4, 2))

# Each library check that no command reaches: the call, and the field its ValueError names.
LIBRARY_INPUT_CHECKS = {
    "prior-b0": (lambda: MatrixPrior(b0=np.inf, w0=1.0, n=3), "b0"),
    "prior-w0": (lambda: MatrixPrior(b0=1.0, w0=0.0, n=3), "w0"),
    "prior-n": (lambda: MatrixPrior(b0=1.0, w0=1.0, n=0), "dimension"),
    "noise-lam0": (lambda: NoiseModel(lam0=-1.0), "lam0"),
    "posterior-capacity": (_add_past_capacity, "buffers are full"),
    "noise-free-dimension": (lambda: infer_noise_free(
        MatrixPrior(b0=1.0, w0=1.0, n=3), ObservationSet(np.eye(4)[:, :2], np.eye(4)[:, :2],
                                                         np.zeros(2))),
        "observation dimension 4"),
    "toynet-sizes": (lambda: ToyNet((3,)), "sizes"),
    "toynet-reg": (lambda: ToyNet((3, 2), reg=-1.0), "reg"),
    "toynet-unpack": (lambda: _NET.unpack(np.zeros(_NET.n_params + 1)), "parameters"),
    "toynet-hvp": (lambda: _NET.hvp(np.zeros(_NET.n_params), np.zeros(_NET.n_params - 1),
                                    np.zeros((2, 3)), np.zeros(2, dtype=int)),
                   "direction shape"),
    "mlp-oracle-samples": (lambda: MLPOracle(_NET, np.zeros((5, 3)), np.zeros(4, dtype=int),
                                             2, 0), "sample count"),
    "spectral-shapes": (lambda: SpectralApprox(np.eye(3)[:, :2], np.ones(3)), "shapes"),
    "quadratic-shapes": (lambda: QuadraticProblem(np.zeros((3, 5)), np.zeros(4), 1.0), "Phi"),
    "quadratic-empty": (lambda: QuadraticProblem(np.zeros((3, 0)), np.zeros(0), 1.0),
                        "training sample"),
    "quadratic-alpha-reg": (lambda: QuadraticProblem(np.ones((3, 5)), np.ones(5), 0.0),
                            "alpha_reg"),
    "logistic-shapes": (lambda: LogisticProblem(np.zeros((5, 3)), np.ones(4), 1.0), "labels"),
    "logistic-labels": (lambda: LogisticProblem(np.zeros((2, 3)), np.array([1.0, 0.0]), 1.0),
                        "labels"),
    "logistic-reg": (lambda: LogisticProblem(np.zeros((2, 3)), np.ones(2), np.nan), "reg"),
    "oracle-batch-size": (lambda: _quadratic_oracle(0), "batch_size"),
    "oracle-batch-past-data": (lambda: _quadratic_oracle(21), "batch_size"),
    "estimate-mode": (lambda: estimate_parameters(_quadratic_oracle(4), np.ones(3),
                                                  mode="banana"), "mode"),
}


@pytest.mark.parametrize("case", LIBRARY_INPUT_CHECKS)
def test_library_input_check_raises_naming_the_field(case):
    call, field = LIBRARY_INPUT_CHECKS[case]
    with pytest.raises(ValueError, match=re.escape(field)):
        call()
