import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hessprec.linalg import (
    GeneralizedEigenResult,
    SolveFailure,
    generalized_sym_eig,
    sym_eig,
    thin_svd_product,
    woodbury_solve,
)


def random_symmetric(rng, n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def random_spd(rng, n, floor=0.1):
    M = rng.standard_normal((n, n))
    return M @ M.T + floor * np.eye(n)


class FactorPair:
    """``A @ C.T`` held as explicit N x m factors, with the ``m`` and ``grams``
    that ``reduce_rank`` reads of a posterior: the Gram matrices are formed
    from A and C directly, as a reference for the probe buffers' own."""

    def __init__(self, A, C):
        self.A, self.C = np.asarray(A, dtype=float), np.asarray(C, dtype=float)
        assert self.A.ndim == 2 and self.A.shape == self.C.shape
        self.m = self.A.shape[1]

    def grams(self):
        A = self.A
        return A.T @ A, self.C.T @ self.C, lambda X: A @ X


class TestSymEig:
    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(0)
        M = random_symmetric(rng, 8)
        vals, vecs = sym_eig(M)
        assert np.all(np.diff(vals) <= 0)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, M, atol=1e-12)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(8), atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(np.ones((2, 3)))

    def test_known_spectrum(self):
        vals, _ = sym_eig(np.diag([3.0, -1.0, 7.0]))
        np.testing.assert_allclose(vals, [7.0, 3.0, -1.0])

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_matches_eigvalsh(self, n, seed):
        M = random_symmetric(np.random.default_rng(seed), n)
        vals, _ = sym_eig(M)
        np.testing.assert_allclose(vals, np.sort(np.linalg.eigvalsh(M))[::-1],
                                   atol=1e-10)


class TestGeneralizedEig:
    def test_pencil_equations(self):
        rng = np.random.default_rng(1)
        G = random_symmetric(rng, 7)
        R = random_spd(rng, 7)
        res = generalized_sym_eig(G, R)
        V, t = res.vectors, res.values
        np.testing.assert_allclose(G @ V, R @ V @ np.diag(t), atol=1e-9)
        np.testing.assert_allclose(V.T @ R @ V, np.eye(7), atol=1e-9)
        assert np.all(np.diff(t) <= 0)

    def test_matches_general_eigensolver(self):
        # independent reference: eigenvalues of R^-1 G (real for this pencil)
        rng = np.random.default_rng(2)
        G = random_symmetric(rng, 6)
        R = random_spd(rng, 6)
        res = generalized_sym_eig(G, R)
        ref = np.linalg.eigvals(np.linalg.solve(R, G))
        np.testing.assert_allclose(res.values, np.sort(ref.real)[::-1], atol=1e-9)

    def test_identity_right_side_reduces_to_sym_eig(self):
        rng = np.random.default_rng(3)
        G = random_symmetric(rng, 5)
        res = generalized_sym_eig(G, np.eye(5))
        vals, vecs = sym_eig(G)
        np.testing.assert_allclose(res.values, vals, atol=1e-12)
        np.testing.assert_allclose(np.abs(res.vectors), np.abs(vecs), atol=1e-9)

    def test_diagonal_pencil(self):
        G = np.diag([6.0, 1.0])
        R = np.diag([2.0, 1.0])
        res = generalized_sym_eig(G, R)
        np.testing.assert_allclose(res.values, [3.0, 1.0])

    def test_indefinite_right_side_reports_pivot(self):
        G = np.eye(3)
        R = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="pivot 1"):
            generalized_sym_eig(G, R)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="pencil shapes"):
            generalized_sym_eig(np.eye(3), np.eye(4))

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_residual_property(self, m, seed):
        rng = np.random.default_rng(seed)
        G = random_symmetric(rng, m)
        R = random_spd(rng, m, floor=0.5)
        res = generalized_sym_eig(G, R)
        resid = G @ res.vectors - R @ res.vectors @ np.diag(res.values)
        scale = max(np.linalg.norm(G), np.linalg.norm(R), 1.0)
        assert np.linalg.norm(resid) <= 1e-8 * scale


def svd_of(A, C, keep=None):
    """``thin_svd_product`` of ``A @ C.T``, given the pair's explicit Gram matrices."""
    return thin_svd_product(*FactorPair(A, C).grams(), keep=keep)


class TestThinSvdProduct:
    def test_reconstructs_product(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 5))
        C = rng.standard_normal((30, 5))
        U, sigma = svd_of(A, C)
        # U spans the column space of A C.T, so projecting onto it changes nothing
        np.testing.assert_allclose(U @ (U.T @ (A @ C.T)), A @ C.T, atol=1e-10)
        np.testing.assert_allclose(U.T @ U, np.eye(5), atol=1e-12)
        assert np.all(sigma >= 0) and np.all(np.diff(sigma) <= 0)

    def test_matches_dense_svd_values(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((20, 4))
        C = rng.standard_normal((20, 4))
        U, sigma = svd_of(A, C)
        dense_u, dense_s, _ = np.linalg.svd(A @ C.T)
        np.testing.assert_allclose(sigma, dense_s[:4], atol=1e-10)
        # each left vector equals the dense one up to sign
        signs = np.sign(np.sum(U * dense_u[:, :4], axis=0))
        np.testing.assert_allclose(U * signs, dense_u[:, :4], atol=1e-10)
        # the rows of U.T A C.T are the right vectors scaled by sigma
        np.testing.assert_allclose(np.linalg.norm(U.T @ A @ C.T, axis=1), sigma, atol=1e-10)

    def test_rank_deficient_trailing_zeros(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((15, 4))
        A[:, 3] = A[:, 0]  # rank 3
        C = rng.standard_normal((15, 4))
        _, sigma = svd_of(A, C)
        dense = np.linalg.svd(A @ C.T, compute_uv=False)
        np.testing.assert_allclose(sigma, dense[:4], atol=1e-8)

    def test_rank_deficient_c_trailing_zeros(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((15, 4))
        C = rng.standard_normal((15, 4))
        C[:, 3] = C[:, 0]  # rank 3
        U, sigma = svd_of(A, C)
        dense = np.linalg.svd(A @ C.T, compute_uv=False)
        np.testing.assert_allclose(sigma, dense[:4], atol=1e-8)
        # the Gram cut drops C's null direction, so only three vectors exist
        assert U.shape == (15, 3) and sigma[3] == 0.0
        np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(U @ (U.T @ (A @ C.T)), A @ C.T, atol=1e-10)

    def test_ill_conditioned_factor(self):
        # A's singular values fall log-spaced from 1 to 1e-6, so its Gram
        # matrix has condition number 1e12, all of it above the Gram cut
        rng = np.random.default_rng(8)
        n, m = 2000, 32
        Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
        V, _ = np.linalg.qr(rng.standard_normal((m, m)))
        A = (Q * np.logspace(0, -6, m)) @ V.T
        C = rng.standard_normal((n, m))
        U, sigma = svd_of(A, C)
        assert U.shape == (n, m)
        np.testing.assert_allclose(U.T @ U, np.eye(m), atol=1e-12)
        # the reference: A C.T = Q_A (R_A R_C.T) Q_C.T, so its singular values
        # are those of the m x m product of the triangular factors, which
        # Householder QR forms backward stably; it agrees with the SVD of the
        # dense n x n product to 3e-16 sigma_1 at a thousandth of the cost
        R_A, R_C = np.linalg.qr(A, mode="r"), np.linalg.qr(C, mode="r")
        dense = np.linalg.svd(R_A @ R_C.T, compute_uv=False)
        rel = np.abs(sigma - dense) / dense
        eps = np.finfo(float).eps
        # the stated accuracy, eps * (sigma_1 / sigma_i)^2 relative, with a
        # factor 10 for the reference's own rounding at the top ...
        assert np.all(rel <= 10 * eps * (dense[0] / dense) ** 2)
        # ... which is 1e-10 or better down to sigma_1 / 670
        top = dense >= dense[0] * np.sqrt(eps / 1e-10)
        assert top.sum() >= 15
        assert np.all(rel[top] <= 1e-10)

    @pytest.mark.parametrize("keep", [1, 3, 5, 9])
    def test_keep_forms_the_leading_columns(self, keep):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((40, 6))
        C = rng.standard_normal((40, 6))
        U, sigma = svd_of(A, C)
        U_kept, sigma_kept = svd_of(A, C, keep=keep)
        k = min(keep, 6)
        assert U_kept.shape == (40, k)
        np.testing.assert_array_equal(sigma_kept, sigma)
        signs = np.sign(np.sum(U_kept * U[:, :k], axis=0))
        np.testing.assert_allclose(U_kept * signs, U[:, :k], atol=1e-12)

    def test_non_finite_factor_is_a_solve_failure(self):
        A = np.ones((5, 2))
        A[0, 0] = np.inf
        with pytest.raises(SolveFailure, match="not finite"):
            svd_of(A, np.ones((5, 2)))

    def test_failed_second_pass_is_a_solve_failure(self, monkeypatch):
        def fails(M):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fails)
        rng = np.random.default_rng(11)
        with pytest.raises(SolveFailure, match="numerically dependent"):
            svd_of(rng.standard_normal((8, 3)), rng.standard_normal((8, 3)))

    def test_empty_factors(self):
        U, sigma = svd_of(np.zeros((7, 0)), np.zeros((7, 0)))
        assert U.shape == (7, 0) and sigma.shape == (0,)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction_property(self, m, seed):
        rng = np.random.default_rng(seed)
        n = m + rng.integers(0, 20)
        A = rng.standard_normal((n, m))
        C = rng.standard_normal((n, m))
        U, sigma = svd_of(A, C)
        B = A @ C.T
        scale = max(np.linalg.norm(B), 1.0)
        assert np.linalg.norm(U @ (U.T @ B) - B) <= 1e-9 * scale
        assert np.allclose(np.linalg.norm(U.T @ B, axis=1), sigma, atol=1e-9 * scale)


class TestWoodburySolve:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        n, m = 25, 4
        A = rng.standard_normal((n, m))
        C = rng.standard_normal((n, m))
        rhs = rng.standard_normal(n)
        b0 = 0.7
        x = woodbury_solve(b0, A, C, rhs)
        dense = np.linalg.solve(b0 * np.eye(n) + A @ C.T, rhs)
        np.testing.assert_allclose(x, dense, atol=1e-10)

    def test_empty_factors_scale_only(self):
        rhs = np.array([2.0, -4.0])
        x = woodbury_solve(2.0, np.zeros((2, 0)), np.zeros((2, 0)), rhs)
        np.testing.assert_allclose(x, [1.0, -2.0])

    def test_rejects_bad_b0(self):
        for b0 in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="b0"):
                woodbury_solve(b0, np.zeros((2, 0)), np.zeros((2, 0)), np.ones(2))

    def test_singular_capacitance_raises(self):
        # A = u, C = -(b0/||u||^2) u makes b0 I + A C.T exactly singular
        u = np.array([[1.0], [2.0], [2.0]])
        b0 = 1.5
        C = -(b0 / 9.0) * u
        with pytest.raises(SolveFailure, match="singular"):
            woodbury_solve(b0, u, C, np.ones(3))

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_dense_agreement_property(self, m, seed):
        rng = np.random.default_rng(seed)
        n = m + int(rng.integers(1, 15))
        A = rng.standard_normal((n, m))
        C = rng.standard_normal((n, m))
        b0 = float(rng.uniform(0.5, 3.0))
        rhs = rng.standard_normal(n)
        B = b0 * np.eye(n) + A @ C.T
        try:
            x = woodbury_solve(b0, A, C, rhs)
        except SolveFailure:
            assert np.linalg.cond(B) > 1e12
            return
        np.testing.assert_allclose(B @ x, rhs, atol=1e-7 * max(np.linalg.norm(rhs), 1.0))
