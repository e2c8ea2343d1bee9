import json
import logging
import tracemalloc

import numpy as np
import pytest

from hessprec.harness import construct_preconditioner
from hessprec.inference import MatrixPrior, ObservationSet, infer_noise_free
from hessprec.precond import (
    Preconditioner,
    SpectralApprox,
    apply_p_squared,
    build,
    precond_to_dict,
    reduce_rank,
)
from hessprec.problems import QuadraticProblem, batch_oracle
from hessprec.solver import (HessianOracle, SolverConfig, SolverSettings, estimate_parameters,
                             run_inference)
from tests.test_linalg import FactorPair
from tests.test_solver import MatrixOracle


def spd_with_spectrum(rng, vals):
    n = len(vals)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(vals) @ Q.T, Q


def dense_p(precond):
    """Materialize P = alpha (I - U U.T + U diag(beta/sqrt(sigma)) U.T)."""
    sp = precond.spectral
    n = sp.n
    inner = np.eye(n) - sp.U @ sp.U.T \
        + sp.U @ np.diag(precond.beta / np.sqrt(sp.sigma)) @ sp.U.T
    return precond.alpha * inner


def posterior_from_exact_probing(rng, B, iters, init_samples=3):
    n = B.shape[0]
    oracle = MatrixOracle(B, rng.standard_normal(n))
    est = estimate_parameters(oracle, np.zeros(n), init_samples=init_samples)
    post = run_inference(oracle, np.zeros(n), est,
                         SolverConfig(iterations=iters, init_samples=init_samples))
    return post


class TestSpectralApprox:
    def test_validation(self):
        U = np.eye(4)[:, :2]
        SpectralApprox(U=U, sigma=np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="descending"):
            SpectralApprox(U=U, sigma=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="positive"):
            SpectralApprox(U=U, sigma=np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="orthonormal"):
            SpectralApprox(U=np.ones((4, 2)), sigma=np.array([2.0, 1.0]))

    def test_empty_rank_allowed(self):
        sp = SpectralApprox(U=np.zeros((4, 0)), sigma=np.zeros(0))
        assert sp.k == 0 and sp.n == 4


class TestReduceRank:
    def test_rank_one_unit_vector(self):
        q = np.zeros(6)
        q[2] = 1.0
        post = FactorPair(q[:, None], q[:, None])
        sp = reduce_rank(post, 1)
        assert sp.k == 1
        np.testing.assert_allclose(sp.sigma, [1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(sp.U[:, 0]), q, atol=1e-12)

    def test_full_rank_matches_dense_svd(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 4))
        C = rng.standard_normal((12, 4))
        post = FactorPair(A, C)
        sp = reduce_rank(post, 4)
        u_ref, s_ref, _ = np.linalg.svd(A @ C.T)
        np.testing.assert_allclose(sp.sigma, s_ref[:4], atol=1e-10)
        # columns agree up to sign
        overlap = np.abs(np.sum(sp.U * u_ref[:, :4], axis=0))
        np.testing.assert_allclose(overlap, 1.0, atol=1e-9)

    def test_recovers_top_eigenspace_from_probing(self):
        rng = np.random.default_rng(1)
        vals = np.geomspace(100.0, 1.0, 20)
        B, Q = spd_with_spectrum(rng, vals)
        post = posterior_from_exact_probing(rng, B, iters=10)
        sp = reduce_rank(post, 2)
        # principal angles between estimated and true top-2 spaces
        cosines = np.linalg.svd(sp.U[:, :2].T @ Q[:, :2], compute_uv=False)
        angle = np.arccos(np.clip(cosines.min(), -1, 1))
        assert angle <= 1e-3

    def test_clips_to_numerical_rank_with_warning(self, caplog):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 1))
        A = np.concatenate([a, a], axis=1)  # rank 1
        C = rng.standard_normal((8, 2))
        post = FactorPair(A, C)
        with caplog.at_level(logging.WARNING, logger="hessprec.precond"):
            sp = reduce_rank(post, 2)
        assert sp.k == 1
        assert any("numerical rank" in rec.message for rec in caplog.records)

    def test_kept_directions_are_c_contiguous(self):
        rng = np.random.default_rng(4)
        post = FactorPair(rng.standard_normal((30, 8)), rng.standard_normal((30, 8)))
        for k in (3, 8):
            assert reduce_rank(post, k).U.flags.c_contiguous

    def test_rank_bounds(self):
        post = FactorPair(np.eye(4)[:, :2], np.eye(4)[:, :2])
        with pytest.raises(ValueError, match="rank k"):
            reduce_rank(post, 0)
        with pytest.raises(ValueError, match="rank k"):
            reduce_rank(post, 3)

    def test_transposition_symmetry_on_invariant_subspace(self):
        # probes inside an invariant subspace of B make the low-rank part
        # symmetric, so swapping the factor roles must not move U
        rng = np.random.default_rng(3)
        vals = np.linspace(9.0, 1.0, 9)
        B, Q = spd_with_spectrum(rng, vals)
        S = Q[:, :3] @ rng.standard_normal((3, 3))  # spans top-3 eigenspace
        Y = B @ S
        post = infer_noise_free(MatrixPrior(b0=0.5, w0=1.0, n=9),
                                ObservationSet.from_probes(S, Y, 0.0))
        swapped = FactorPair(post.C, post.A)
        sp1 = reduce_rank(post, 3)
        sp2 = reduce_rank(swapped, 3)
        cosines = np.linalg.svd(sp1.U.T @ sp2.U, compute_uv=False)
        np.testing.assert_allclose(cosines, 1.0, atol=1e-8)


class NoisyDiagonalOracle(HessianOracle):
    """Diagonal quadratic with a log-spaced curvature head and Gaussian noise
    on every gradient and product, shaped like the large-N benchmark oracle."""

    def __init__(self, h, seed, noise=0.1, batch_size=32):
        super().__init__(batch_size)
        self.h = h
        self.noise = noise
        self.rng = np.random.default_rng(seed)

    @property
    def dim(self):
        return self.h.size

    def _draw(self):
        return self.rng.standard_normal((2, self.h.size))

    def gradient(self, w, batch):
        return self.h * (w - 1.0) + self.noise * batch[0]

    def hvp(self, w, s, batch):
        return self.h * s + self.noise * np.linalg.norm(s) / np.sqrt(s.size) * batch[1]


class TestReduceRankMatchesHouseholder:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_noisy_posterior(self, seed):
        # the posterior's factors have condition numbers of 1.5e3 to 3e3 here,
        # as on the large-N benchmark, so their Gram matrices reach about 1e7
        n, m, k = 500, 32, 16
        h = np.full(n, 1e-2)
        h[:16] = np.geomspace(1e3, 1e1, 16)
        oracle = NoisyDiagonalOracle(h, seed)
        est = estimate_parameters(oracle, np.zeros(n), init_samples=3)
        post = run_inference(oracle, np.zeros(n), est,
                             SolverConfig(iterations=m, init_samples=3))
        assert post.m == m
        sp = reduce_rank(post, k)
        # reference: Householder QR of both factors and the core's SVD
        Qa, Ra = np.linalg.qr(post.A)
        Rc = np.linalg.qr(post.C, mode="r")
        u, sigma, _ = np.linalg.svd(Ra @ Rc.T)
        U_ref = Qa @ u[:, :k]
        np.testing.assert_allclose(sp.sigma, sigma[:k], rtol=1e-10, atol=0)
        cosines = np.linalg.svd(sp.U.T @ U_ref, compute_uv=False)
        assert cosines.min() >= 1 - 1e-10


class RejectingOracle(NoisyDiagonalOracle):
    """A non-finite product on the given probe, which ends the probing loop there."""

    def __init__(self, h, seed, init_samples, reject):
        super().__init__(h, seed)
        self.products_left = init_samples + reject

    def hvp(self, w, s, batch):
        self.products_left -= 1
        y = super().hvp(w, s, batch)
        return y * np.nan if self.products_left == 0 else y


class TestReduceRankFromProbeBuffers:
    """``reduce_rank`` of the probing loop's posterior reads its buffers, and
    agrees with ``reduce_rank`` of the explicit factors it stands for."""

    @pytest.mark.parametrize("seed, reject", [(0, None), (1, None), (2, 11)])
    def test_matches_factored_form(self, seed, reject):
        n, m = 800, 32
        h = np.full(n, 1e-2)
        h[:16] = np.geomspace(1e3, 1e1, 16)
        oracle = (NoisyDiagonalOracle(h, seed) if reject is None
                  else RejectingOracle(h, seed, init_samples=3, reject=reject))
        est = estimate_parameters(oracle, np.zeros(n), init_samples=3)
        post = run_inference(oracle, np.zeros(n), est,
                             SolverConfig(iterations=m, init_samples=3))
        assert post.m == (m if reject is None else reject - 1)
        k = min(16, post.m)
        sp = reduce_rank(post, k)
        ref = reduce_rank(FactorPair(post.A, post.C), k)
        np.testing.assert_allclose(sp.sigma, ref.sigma, rtol=1e-10, atol=0)
        cosines = np.linalg.svd(sp.U.T @ ref.U, compute_uv=False)
        assert cosines.min() >= 1 - 1e-8

    def test_construction_copies_no_factor(self):
        # the probe buffers S and Delta hold 2 m N doubles; the N x m factors
        # A and C of the factored form would add as many again
        n, m, rank = 20_000, 32, 4
        h = np.full(n, 1e-2)
        h[:16] = np.geomspace(1e3, 1e1, 16)
        oracle = NoisyDiagonalOracle(h, 0)
        settings = SolverSettings(iterations=m, init_samples=3, rank=rank)
        tracemalloc.start()
        try:
            precond, _, post, _ = construct_preconditioner(oracle, np.zeros(n), settings, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert post.m == m and precond.spectral.k == rank
        assert peak < 8 * (2 * m * n + 6 * rank * n)


class TestBuild:
    def test_alpha_is_spread_ratio(self):
        sp = SpectralApprox(U=np.eye(5)[:, :3],
                            sigma=np.array([100.0, 10.0, 1.0]))
        precond, lr = build(sp, base_lr=0.3)
        assert precond.alpha ** 2 == pytest.approx(100.0)
        assert lr == 0.3

    def test_flat_spectrum_gives_unit_alpha(self):
        sp = SpectralApprox(U=np.eye(4)[:, :2], sigma=np.array([2.0, 2.0]))
        precond, _ = build(sp)
        assert precond.alpha == 1.0

    def test_rank_one_gives_unit_alpha(self):
        sp = SpectralApprox(U=np.eye(4)[:, :1], sigma=np.array([7.0]))
        precond, _ = build(sp)
        assert precond.alpha == 1.0

    def test_textbook_ratio(self):
        sp = SpectralApprox(U=np.eye(3)[:, :2], sigma=np.array([100.0, 1.0]))
        precond, _ = build(sp, beta=1.0)
        assert precond.alpha ** 2 == pytest.approx(100.0)

    def test_validation(self):
        sp = SpectralApprox(U=np.eye(3)[:, :1], sigma=np.array([1.0]))
        with pytest.raises(ValueError, match="beta"):
            Preconditioner(spectral=sp, alpha=1.0, beta=0.0)
        with pytest.raises(ValueError, match="alpha"):
            Preconditioner(spectral=sp, alpha=-1.0)


class TestApplyPSquared:
    def make(self, rng, n=10, k=3, beta=1.0):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        sigma = np.geomspace(50.0, 2.0, k)
        sp = SpectralApprox(U=Q[:, :k], sigma=sigma)
        precond, _ = build(sp, beta=beta)
        return precond

    def test_matches_dense_p_squared(self):
        rng = np.random.default_rng(4)
        for beta in (1.0, 0.5, 2.0):
            precond = self.make(rng, beta=beta)
            P = dense_p(precond)
            g = rng.standard_normal(10)
            np.testing.assert_allclose(apply_p_squared(precond, g), P @ P @ g,
                                       atol=1e-10)

    def test_empty_rank_scales_only(self):
        sp = SpectralApprox(U=np.zeros((5, 0)), sigma=np.zeros(0))
        precond = Preconditioner(spectral=sp, alpha=3.0)
        g = np.arange(5.0)
        np.testing.assert_allclose(apply_p_squared(precond, g), 9.0 * g)

    def test_complement_is_pure_scaling(self):
        rng = np.random.default_rng(5)
        precond = self.make(rng)
        sp = precond.spectral
        g = rng.standard_normal(10)
        g -= sp.U @ (sp.U.T @ g)  # orthogonal to span(U)
        np.testing.assert_allclose(apply_p_squared(precond, g),
                                   precond.alpha ** 2 * g, atol=1e-12)

    def test_top_direction_rescaled_by_its_value(self):
        rng = np.random.default_rng(6)
        precond = self.make(rng, beta=1.0)
        sp = precond.spectral
        u1 = sp.U[:, 0]
        expected = precond.alpha ** 2 * u1 / sp.sigma[0]
        np.testing.assert_allclose(apply_p_squared(precond, u1), expected,
                                   atol=1e-12)

    def test_operator_is_symmetric_positive_definite(self):
        rng = np.random.default_rng(7)
        precond = self.make(rng, beta=0.8)
        for _ in range(10):
            v = rng.standard_normal(10)
            w = rng.standard_normal(10)
            lhs = v @ apply_p_squared(precond, w)
            rhs = w @ apply_p_squared(precond, v)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert v @ apply_p_squared(precond, v) > 0

    def test_linearity(self):
        rng = np.random.default_rng(8)
        precond = self.make(rng)
        v, w = rng.standard_normal((2, 10))
        out = apply_p_squared(precond, 2.0 * v - 3.0 * w)
        ref = 2.0 * apply_p_squared(precond, v) - 3.0 * apply_p_squared(precond, w)
        np.testing.assert_allclose(out, ref, atol=1e-11)


class TestSpectrumFlattening:
    def test_covered_directions_equalized(self):
        rng = np.random.default_rng(9)
        vals = np.geomspace(1000.0, 0.5, 16)
        B, Q = spd_with_spectrum(rng, vals)
        k = 4
        sp = SpectralApprox(U=Q[:, :k], sigma=vals[:k])
        precond, _ = build(sp, beta=1.0)
        P = dense_p(precond)
        M = P.T @ B @ P
        for i in range(k):
            assert Q[:, i] @ M @ Q[:, i] == pytest.approx(precond.alpha ** 2,
                                                          rel=1e-8)

    def test_full_spectrum_after_preconditioning(self):
        rng = np.random.default_rng(10)
        vals = np.geomspace(200.0, 0.1, 12)
        B, Q = spd_with_spectrum(rng, vals)
        k = 3
        sp = SpectralApprox(U=Q[:, :k], sigma=vals[:k])
        precond, _ = build(sp, beta=1.0)
        P = dense_p(precond)
        got = np.sort(np.linalg.eigvalsh(P.T @ B @ P / precond.alpha ** 2))
        expected = np.sort(np.concatenate([np.ones(k), vals[k:]]))
        np.testing.assert_allclose(got, expected, atol=1e-8)


class TestSerializationAndCosts:
    def test_dict_holds_factors_row_major(self):
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        sp = SpectralApprox(U=Q[:, :2], sigma=np.array([4.0, 1.0]))
        precond, _ = build(sp, beta=0.9)
        payload = json.loads(json.dumps(precond_to_dict(precond)))
        assert payload["kind"] == "preconditioner"
        assert (payload["n"], payload["k"]) == (6, 2)
        assert payload["alpha"] == precond.alpha and payload["beta"] == 0.9
        assert payload["sigma"] == [4.0, 1.0]
        np.testing.assert_array_equal(np.reshape(payload["U"], (6, 2)), sp.U)


class TestStochasticConsistency:
    def test_top_direction_sharpens_with_batch_size(self):
        # the angle to the true leading eigenvector should shrink, in the
        # median over seeds, as the batch size doubles twice
        rng = np.random.default_rng(13)
        n_feat, n_data = 24, 4096
        base = rng.standard_normal((n_feat, n_feat))
        scale = np.geomspace(3.0, 0.2, n_feat)
        Phi = (scale[:, None] * base) @ rng.standard_normal((n_feat, n_data))
        Phi /= np.sqrt(n_feat)
        problem = QuadraticProblem(Phi=Phi, y=rng.standard_normal(n_data),
                                   alpha_reg=1e-4)
        H = problem.hessian()
        _, vecs = np.linalg.eigh(H)
        v_top = vecs[:, -1]

        def angle_for(batch_size, seed):
            oracle = batch_oracle(problem, batch_size, seed)
            est = estimate_parameters(oracle, np.zeros(n_feat), init_samples=3)
            post = run_inference(oracle, np.zeros(n_feat), est,
                                 SolverConfig(iterations=8, init_samples=3))
            sp = reduce_rank(post, 1)
            c = abs(float(sp.U[:, 0] @ v_top))
            return np.arccos(min(c, 1.0))

        medians = []
        for bs in (16, 64, 256):
            medians.append(np.median([angle_for(bs, seed) for seed in range(20)]))
        assert medians[0] > medians[1] > medians[2]
