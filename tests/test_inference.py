import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hessprec.cli as cli
from hessprec.inference import (
    IncrementalPosterior,
    MatrixPrior,
    NoiseModel,
    ObservationSet,
    infer_noise_free,
    infer_noisy,
    posterior_to_dict,
)
from hessprec.linalg import SolveFailure


def make_case(seed, n, m, noise_std=0.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    B = 0.5 * (B + B.T)
    S = rng.standard_normal((n, m))
    Y = B @ S + noise_std * rng.standard_normal((n, m))
    return B, S, Y


def dense_posterior_mean(b0, w0, lam0, S, Y, noise_diag=None):
    """Reference by brute force: the full linear-Gaussian update on the
    n^2-dimensional flattened matrix, using explicit Kronecker blocks.

    Row-major flattening, observation operator I (x) S^T, prior
    covariance w0^2 I, and per-column noise variance lam0 * noise_diag_i,
    by default lam0^2 ||s_i||^2 (the law of ``ObservationSet.from_probes``).
    """
    n, m = S.shape
    if noise_diag is None:
        noise_diag = lam0 * np.sum(S * S, axis=0)
    H = np.kron(np.eye(n), S.T)
    P = w0 ** 2 * np.eye(n * n)
    Ne = np.kron(np.eye(n), np.diag(lam0 * noise_diag))
    m0 = b0 * np.eye(n).ravel()
    innov = Y.ravel() - H @ m0
    vec = m0 + P @ H.T @ np.linalg.solve(H @ P @ H.T + Ne, innov)
    return vec.reshape(n, n)


class TestObservationSet:
    def test_from_probes_noise_law(self):
        S = np.array([[3.0, 0.0], [4.0, 1.0]])
        obs = ObservationSet.from_probes(S, np.zeros_like(S), lam0=0.5)
        np.testing.assert_allclose(obs.noise_diag, [12.5, 0.5])

    def test_rejects_zero_probe_column(self):
        S = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="column 1 is identically zero"):
            ObservationSet.from_probes(S, np.zeros_like(S), 0.1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            ObservationSet(S=np.ones((3, 2)), Y=np.ones((3, 3)), noise_diag=np.ones(2))

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="non-negative"):
            ObservationSet(S=np.ones((3, 1)), Y=np.ones((3, 1)),
                           noise_diag=np.array([-1.0]))

    def test_rejects_wrong_noise_length(self):
        with pytest.raises(ValueError, match="one entry per probe column"):
            ObservationSet(S=np.ones((3, 2)), Y=np.ones((3, 2)), noise_diag=np.ones(3))


class TestNoiseFree:
    def test_interpolates_observations(self):
        B, S, Y = make_case(0, 14, 5)
        post = infer_noise_free(MatrixPrior(b0=0.8, w0=1.7, n=14),
                                ObservationSet.from_probes(S, Y, 0.0))
        np.testing.assert_allclose(post.dense() @ S, Y, atol=1e-10)

    def test_exact_recovery_with_full_probes(self):
        n = 10
        B, S, Y = make_case(1, n, n)
        post = infer_noise_free(MatrixPrior(b0=0.3, w0=2.0, n=n),
                                ObservationSet.from_probes(S, Y, 0.0))
        np.testing.assert_allclose(post.dense(), B, atol=1e-8)

    def test_prior_reversion_on_prior_consistent_data(self):
        # products exactly matching the prior mean leave the estimate at b0 I
        rng = np.random.default_rng(2)
        n, b0 = 9, 1.3
        S = rng.standard_normal((n, 4))
        post = infer_noise_free(MatrixPrior(b0=b0, w0=1.0, n=n),
                                ObservationSet.from_probes(S, b0 * S, 0.0))
        np.testing.assert_allclose(post.dense(), b0 * np.eye(n), atol=1e-12)

    def test_closed_form_projection(self):
        B, S, Y = make_case(3, 12, 4)
        b0 = 0.5
        post = infer_noise_free(MatrixPrior(b0=b0, w0=0.9, n=12),
                                ObservationSet.from_probes(S, Y, 0.0))
        expected = b0 * np.eye(12) + (Y - b0 * S) @ np.linalg.solve(S.T @ S, S.T)
        np.testing.assert_allclose(post.dense(), expected, atol=1e-10)

    def test_w0_invariance(self):
        # the noise-free mean cannot depend on the prior spread
        B, S, Y = make_case(4, 8, 3)
        obs = ObservationSet.from_probes(S, Y, 0.0)
        p1 = infer_noise_free(MatrixPrior(b0=0.7, w0=0.1, n=8), obs)
        p2 = infer_noise_free(MatrixPrior(b0=0.7, w0=10.0, n=8), obs)
        np.testing.assert_allclose(p1.dense(), p2.dense(), atol=1e-10)

    def test_rejects_dependent_probe(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((8, 3))
        S[:, 2] = 2.0 * S[:, 0] - S[:, 1]
        Y = rng.standard_normal((8, 3))
        with pytest.raises(ValueError, match="column 2 is linearly dependent"):
            infer_noise_free(MatrixPrior(b0=1.0, w0=1.0, n=8),
                             ObservationSet.from_probes(S, Y, 0.0))

    def test_rejects_nonzero_noise_diag(self):
        S = np.ones((3, 1))
        with pytest.raises(ValueError, match="nonzero noise_diag"):
            infer_noise_free(MatrixPrior(b0=1.0, w0=1.0, n=3),
                             ObservationSet.from_probes(S, S, 0.5))

    def test_empty_observations_return_prior(self):
        prior = MatrixPrior(b0=2.0, w0=1.0, n=5)
        post = infer_noise_free(prior, ObservationSet(
            S=np.zeros((5, 0)), Y=np.zeros((5, 0)), noise_diag=np.zeros(0)))
        np.testing.assert_allclose(post.dense(), 2.0 * np.eye(5))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_interpolation_property(self, m, seed):
        rng = np.random.default_rng(seed)
        n = m + int(rng.integers(0, 12))
        B, S, Y = make_case(seed, n, m)
        post = infer_noise_free(MatrixPrior(b0=1.0, w0=1.0, n=n),
                                ObservationSet.from_probes(S, Y, 0.0))
        scale = max(np.linalg.norm(Y), 1.0)
        assert np.linalg.norm(post.dense() @ S - Y) <= 1e-8 * scale


class TestNoisy:
    def test_matches_dense_kronecker_update(self):
        b0, w0, lam0 = 0.7, 1.3, 0.25
        B, S, Y = make_case(7, 9, 4, noise_std=0.1)
        post = infer_noisy(MatrixPrior(b0, w0, 9), NoiseModel(lam0),
                           ObservationSet.from_probes(S, Y, lam0))
        ref = dense_posterior_mean(b0, w0, lam0, S, Y)
        np.testing.assert_allclose(post.dense(), ref, atol=1e-10)

    @pytest.mark.parametrize("seed,n,m,lam0", [
        (10, 6, 2, 1.0), (11, 12, 6, 0.05), (12, 8, 8, 0.4), (13, 15, 1, 2.5),
    ])
    def test_dense_agreement_across_shapes(self, seed, n, m, lam0):
        B, S, Y = make_case(seed, n, m, noise_std=0.2)
        b0, w0 = 0.9, 0.6
        post = infer_noisy(MatrixPrior(b0, w0, n), NoiseModel(lam0),
                           ObservationSet.from_probes(S, Y, lam0))
        ref = dense_posterior_mean(b0, w0, lam0, S, Y)
        np.testing.assert_allclose(post.dense(), ref, atol=1e-9)

    def test_zero_noise_delegates_to_interpolation(self):
        B, S, Y = make_case(14, 10, 3)
        prior = MatrixPrior(b0=0.4, w0=1.1, n=10)
        p_noisy = infer_noisy(prior, NoiseModel(0.0),
                              ObservationSet.from_probes(S, Y, 0.0))
        p_free = infer_noise_free(prior, ObservationSet.from_probes(S, Y, 0.0))
        np.testing.assert_allclose(p_noisy.dense(), p_free.dense(), atol=1e-12)

    def test_small_noise_approaches_interpolation(self):
        B, S, Y = make_case(15, 10, 4)
        prior = MatrixPrior(b0=0.4, w0=1.1, n=10)
        p_free = infer_noise_free(prior, ObservationSet.from_probes(S, Y, 0.0))
        p_eps = infer_noisy(prior, NoiseModel(1e-9),
                            ObservationSet.from_probes(S, Y, 1e-9))
        np.testing.assert_allclose(p_eps.dense(), p_free.dense(), atol=1e-6)

    def test_noise_shrinks_correction(self):
        # more assumed noise pulls the estimate toward the prior mean
        B, S, Y = make_case(16, 11, 5, noise_std=0.3)
        prior = MatrixPrior(b0=0.5, w0=1.0, n=11)
        norms = []
        for lam0 in (0.01, 0.1, 1.0, 10.0):
            post = infer_noisy(prior, NoiseModel(lam0),
                               ObservationSet.from_probes(S, Y, lam0))
            norms.append(np.linalg.norm(post.A @ post.C.T))
        assert norms[0] > norms[1] > norms[2] > norms[3]

    def test_prior_reversion_under_huge_noise(self):
        B, S, Y = make_case(17, 7, 3)
        prior = MatrixPrior(b0=0.8, w0=1.0, n=7)
        post = infer_noisy(prior, NoiseModel(1e8),
                           ObservationSet.from_probes(S, Y, 1e8))
        np.testing.assert_allclose(post.dense(), 0.8 * np.eye(7), atol=1e-5)

    def test_noisy_update_handles_dependent_probes(self):
        # with noise the update is a proper regression, no independence needed
        rng = np.random.default_rng(18)
        S = rng.standard_normal((6, 3))
        S[:, 2] = S[:, 0]
        Y = rng.standard_normal((6, 3))
        lam0 = 0.5
        post = infer_noisy(MatrixPrior(1.0, 1.0, 6), NoiseModel(lam0),
                           ObservationSet.from_probes(S, Y, lam0))
        ref = dense_posterior_mean(1.0, 1.0, lam0, S, Y)
        np.testing.assert_allclose(post.dense(), ref, atol=1e-8)

    def test_rejects_zero_noise_diag_entries(self):
        S = np.ones((3, 1))
        with pytest.raises(ValueError, match="strictly positive"):
            infer_noisy(MatrixPrior(1.0, 1.0, 3), NoiseModel(0.5),
                        ObservationSet(S=S, Y=S, noise_diag=np.zeros(1)))

    def test_matches_kronecker_update_with_its_own_noise_diag(self):
        # a noise diagonal off the lam0 ||s||^2 law reaches the update as given
        b0, w0, lam0 = 0.7, 1.3, 0.25
        B, S, Y = make_case(19, 8, 4, noise_std=0.1)
        noise_diag = np.array([0.05, 3.0, 0.4, 12.0])
        assert not np.allclose(noise_diag, lam0 * np.sum(S * S, axis=0))
        post = infer_noisy(MatrixPrior(b0, w0, 8), NoiseModel(lam0),
                           ObservationSet(S=S, Y=Y, noise_diag=noise_diag))
        assert isinstance(post, IncrementalPosterior)
        np.testing.assert_allclose(post.noise, noise_diag)
        ref = dense_posterior_mean(b0, w0, lam0, S, Y, noise_diag)
        assert rel_err(post.dense(), ref) <= 1e-10
        assert rel_err(post.dense(), dense_posterior_mean(b0, w0, lam0, S, Y)) > 1e-3

    def test_rejects_non_finite_product(self):
        B, S, Y = make_case(24, 5, 2)
        Y[3, 1] = np.nan
        with pytest.raises(ValueError, match="column 1 or its product is not finite"):
            infer_noisy(MatrixPrior(1.0, 1.0, 5), NoiseModel(0.5),
                        ObservationSet.from_probes(S, Y, 0.5))

    def test_dimension_mismatch(self):
        S = np.ones((3, 1))
        with pytest.raises(ValueError, match="does not match prior"):
            infer_noisy(MatrixPrior(1.0, 1.0, 4), NoiseModel(0.5),
                        ObservationSet.from_probes(S, S, 0.5))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_dense_agreement_property(self, m, seed, lam0):
        rng = np.random.default_rng(seed)
        n = m + int(rng.integers(0, 8))
        B, S, Y = make_case(seed, n, m, noise_std=0.1)
        post = infer_noisy(MatrixPrior(0.8, 1.2, n), NoiseModel(lam0),
                           ObservationSet.from_probes(S, Y, lam0))
        ref = dense_posterior_mean(0.8, 1.2, lam0, S, Y)
        scale = max(np.linalg.norm(ref), 1.0)
        assert np.linalg.norm(post.dense() - ref) <= 1e-8 * scale


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestIncrementalPosterior:
    @pytest.mark.parametrize("lam0", [0.3, 0.0])
    @pytest.mark.parametrize("seed,n,m", [(40, 7, 4), (41, 10, 6), (42, 12, 12)])
    def test_matches_from_scratch_after_every_probe(self, seed, n, m, lam0):
        b0, w0 = 0.9, 1.3
        B, S, Y = make_case(seed, n, m, noise_std=0.1 if lam0 else 0.0)
        prior, noise = MatrixPrior(b0, w0, n), NoiseModel(lam0)
        state = IncrementalPosterior(prior, noise, capacity=m)
        for j in range(1, m + 1):
            state.add(S[:, j - 1], Y[:, j - 1])
            Sj, Yj = S[:, :j], Y[:, :j]
            got = state.dense()
            assert rel_err(got, dense_posterior_mean(b0, w0, lam0, Sj, Yj)) <= 1e-10
            np.testing.assert_allclose(state.StS[:j, :j], Sj.T @ Sj, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(state.StD[:j, :j], Sj.T @ (Yj - b0 * Sj),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(state.noise[:j], lam0 * np.sum(Sj * Sj, axis=0))
            v = np.random.default_rng(seed + j).standard_normal(n)
            np.testing.assert_allclose(got @ state.solve(v), v, atol=1e-8)

    def test_rejected_probe_leaves_buffers_and_posterior_unchanged(self):
        B, S, Y = make_case(43, 8, 3)
        state = IncrementalPosterior(MatrixPrior(1.1, 0.7, 8), NoiseModel(0.0), capacity=4)
        for j in range(3):
            state.add(S[:, j], Y[:, j])
        names = ("S", "D", "StS", "StD", "noise", "L")
        before = {name: getattr(state, name).tobytes() for name in names}
        A, C = state.A, state.C
        with pytest.raises(ValueError, match="column 3 is linearly dependent"):
            state.add(S[:, 1], Y[:, 1])
        assert state.m == 3
        for name in names:
            assert getattr(state, name).tobytes() == before[name], name
        assert state.A.tobytes() == A.tobytes()
        assert state.C.tobytes() == C.tobytes()

    def test_rejects_non_finite_product(self):
        state = IncrementalPosterior(MatrixPrior(1.0, 1.0, 3), NoiseModel(0.1), capacity=2)
        with pytest.raises(ValueError, match="not finite"):
            state.add(np.ones(3), np.array([1.0, np.nan, 0.0]))
        assert state.m == 0

    def test_empty_state_is_prior(self):
        state = IncrementalPosterior(MatrixPrior(2.0, 1.0, 4), NoiseModel(0.5), capacity=3)
        np.testing.assert_allclose(state.dense(), 2.0 * np.eye(4))
        np.testing.assert_allclose(state.solve(np.arange(4.0)), 0.5 * np.arange(4.0))


class TestPosteriorMean:
    """``apply`` and ``solve`` of the posterior mean ``b0 I + A C.T``."""

    def test_apply_matches_dense(self):
        B, S, Y = make_case(20, 10, 4, noise_std=0.1)
        post = infer_noisy(MatrixPrior(0.6, 1.0, 10), NoiseModel(0.3),
                           ObservationSet.from_probes(S, Y, 0.3))
        v = np.random.default_rng(21).standard_normal(10)
        np.testing.assert_allclose(post.apply(v), post.dense() @ v, atol=1e-11)

    def test_solve_inverts_apply(self):
        B, S, Y = make_case(22, 10, 4, noise_std=0.1)
        post = infer_noisy(MatrixPrior(0.9, 1.0, 10), NoiseModel(0.3),
                           ObservationSet.from_probes(S, Y, 0.3))
        v = np.random.default_rng(23).standard_normal(10)
        np.testing.assert_allclose(post.solve(post.apply(v)), v, atol=1e-9)

    def test_solve_refuses_non_positive_b0(self):
        S = np.eye(3)[:, :1]
        post = infer_noisy(MatrixPrior(b0=-1.0, w0=1.0, n=3), NoiseModel(0.3),
                           ObservationSet.from_probes(S, S, 0.3))
        with pytest.raises(SolveFailure, match="b0"):
            post.solve(np.ones(3))

    def test_empty_posterior_is_prior(self):
        post = infer_noise_free(MatrixPrior(b0=2.0, w0=1.0, n=4), ObservationSet(
            S=np.zeros((4, 0)), Y=np.zeros((4, 0)), noise_diag=np.zeros(0)))
        assert isinstance(post, IncrementalPosterior)
        assert post.A.shape == post.C.shape == (4, 0)
        v = np.arange(4.0)
        np.testing.assert_allclose(post.apply(v), 2.0 * v)
        np.testing.assert_allclose(post.solve(v), 0.5 * v)


class TestSerialization:
    def test_dict_holds_prior_and_factors_row_major(self):
        B, S, Y = make_case(30, 8, 3, noise_std=0.1)
        post = infer_noisy(MatrixPrior(0.7, 1.4, 8), NoiseModel(0.2),
                           ObservationSet.from_probes(S, Y, 0.2))
        payload = json.loads(json.dumps(posterior_to_dict(post)))
        assert payload["kind"] == "posterior_mean"
        assert (payload["n"], payload["m"]) == (8, 3)
        assert (payload["b0"], payload["w0"]) == (0.7, 1.4)
        np.testing.assert_array_equal(np.reshape(payload["A"], (8, 3)), post.A)
        np.testing.assert_array_equal(np.reshape(payload["C"], (8, 3)), post.C)

    def test_saved_file_is_the_dict(self, tmp_path):
        B, S, Y = make_case(31, 6, 2)
        post = infer_noise_free(MatrixPrior(1.1, 0.8, 6),
                                ObservationSet.from_probes(S, Y, 0.0))
        path = tmp_path / "post.json"
        cli._write_json(path, posterior_to_dict(post))
        with open(path) as fh:
            assert json.load(fh) == json.loads(json.dumps(posterior_to_dict(post)))
