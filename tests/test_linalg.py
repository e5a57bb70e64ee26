"""Dense linear-algebra kernels: factorizations, norms, truncation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    gram_singular_values,
    rank_k_matrix,
    spectral_norm_oracle,
    triple_loop_matmul,
)
from trunclsq import (
    InvalidTruncation,
    RankDeficient,
    ZeroMatrix,
    matmul,
    pseudo_inverse,
    qr_factor,
    reconstruct,
    spectral_norm,
    thin_svd,
    truncate,
)
from trunclsq.linalg import TOLERANCES, KernelTolerances, as_matrix, as_vector


class TestValidation:
    def test_as_matrix_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix(np.ones(3))

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix(np.array([[1.0, np.nan]]))

    def test_as_matrix_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))

    def test_as_vector_checks_length(self):
        with pytest.raises(ValueError, match="length"):
            as_vector(np.ones(3), dim=4)

    def test_as_matrix_casts_to_float64(self):
        M = as_matrix(np.array([[1, 2], [3, 4]]))
        assert M.dtype == np.float64


class TestTolerances:
    def test_config_record_is_frozen(self):
        with pytest.raises(AttributeError):
            TOLERANCES.qr_rank_threshold = 1.0

    def test_expected_defaults(self):
        assert TOLERANCES == KernelTolerances()
        assert TOLERANCES.qr_rank_threshold == 1e-12
        assert TOLERANCES.svd_rank_factor == 1e-14


class TestMatmul:
    def test_diagonal_product(self):
        assert_allclose(matmul(np.diag([2.0, 3.0]), np.diag([5.0, 7.0])), np.diag([10.0, 21.0]))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((3, 2))
        assert_allclose(matmul(A, B), triple_loop_matmul(A, B), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner"):
            matmul(np.ones((2, 3)), np.ones((2, 3)))


class TestQrFactor:
    def test_orthonormal_input_passes_through(self):
        rng = np.random.default_rng(5)
        M = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        factors = qr_factor(M)
        signs = np.sign(np.diag(factors.R))
        assert_allclose(factors.Q * signs, M, atol=1e-12)
        assert_allclose(np.abs(np.diag(factors.R)), np.ones(3), atol=1e-12)

    def test_single_column_normalization(self):
        factors = qr_factor(np.array([[3.0], [4.0]]))
        assert_allclose(np.abs(factors.R), [[5.0]], atol=1e-14)
        assert_allclose(np.abs(factors.Q[:, 0]), [0.6, 0.8], atol=1e-14)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 3))
        factors = qr_factor(M)
        err = spectral_norm_oracle(M - factors.Q @ factors.R)
        assert err <= 1e-12 * spectral_norm_oracle(M)

    def test_q_is_orthonormal(self):
        rng = np.random.default_rng(8)
        factors = qr_factor(rng.standard_normal((9, 4)))
        assert np.max(np.abs(factors.Q.T @ factors.Q - np.eye(4))) <= 1e-12

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="rows >= cols"):
            qr_factor(np.ones((2, 3)))

    def test_duplicate_columns_are_rank_deficient(self):
        rng = np.random.default_rng(9)
        col = rng.standard_normal((5, 1))
        with pytest.raises(RankDeficient):
            qr_factor(np.hstack([col, col]))

    def test_zero_matrix_is_rank_deficient(self):
        with pytest.raises(RankDeficient):
            qr_factor(np.zeros((4, 2)))

    def test_zero_threshold_accepts_ill_conditioned_input(self):
        rng = np.random.default_rng(10)
        M = rank_k_matrix(rng, 8, 3, 3, sigma=[1.0, 1e-7, 1e-14])
        with pytest.raises(RankDeficient):
            qr_factor(M)
        factors = qr_factor(M, rank_threshold=0.0)
        assert np.max(np.abs(factors.Q.T @ factors.Q - np.eye(3))) <= 1e-12

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            qr_factor(np.eye(3), rank_threshold=-1.0)

    def test_deterministic_bits(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((7, 3))
        first = qr_factor(M)
        second = qr_factor(M.copy())
        assert np.array_equal(first.Q, second.Q)
        assert np.array_equal(first.R, second.R)


class TestThinSvd:
    def test_diagonal_matrix(self):
        F = thin_svd(np.diag([3.0, 2.0, 1.0]))
        assert F.rank == 3
        assert_allclose(F.sigma, [3.0, 2.0, 1.0])
        assert_allclose(F.U, np.eye(3), atol=1e-14)
        assert_allclose(F.V, np.eye(3), atol=1e-14)

    def test_rank_one_outer_product(self):
        u = np.array([0.0, 2.0, 0.0]) / 1.0
        v = np.array([1.0, 0.0])
        F = thin_svd(np.outer(u, v))
        assert F.rank == 1
        assert_allclose(F.sigma, [2.0], atol=1e-14)

    def test_sigma_matches_gram_eigenvalue_oracle(self):
        rng = np.random.default_rng(21)
        M = rng.standard_normal((5, 4))
        F = thin_svd(M)
        oracle = gram_singular_values(M)[: F.rank]
        assert_allclose(F.sigma, oracle, rtol=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrix):
            thin_svd(np.zeros((3, 3)))

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(22)
        M = rng.standard_normal((6, 4))
        F = thin_svd(M)
        assert spectral_norm_oracle(M - reconstruct(F)) <= 1e-10 * F.sigma[0]

    def test_numerical_rank_detection(self):
        rng = np.random.default_rng(23)
        M = rank_k_matrix(rng, 5, 5, 2, sigma=[1.0, 0.5])
        assert thin_svd(M).rank == 2

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(24)
        F = thin_svd(rng.standard_normal((6, 4)))
        leads = np.argmax(np.abs(F.V), axis=0)
        assert all(F.V[leads[j], j] > 0 for j in range(F.rank))

    def test_deterministic_bits(self):
        rng = np.random.default_rng(25)
        M = rng.standard_normal((5, 5))
        first = thin_svd(M)
        second = thin_svd(M.copy())
        assert np.array_equal(first.U, second.U)
        assert np.array_equal(first.sigma, second.sigma)
        assert np.array_equal(first.V, second.V)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(26)
        F = thin_svd(rng.standard_normal((7, 4)))
        assert np.max(np.abs(F.U.T @ F.U - np.eye(F.rank))) <= 1e-10
        assert np.max(np.abs(F.V.T @ F.V - np.eye(F.rank))) <= 1e-10


class TestPseudoInverse:
    def test_diagonal_inverse(self):
        F = thin_svd(np.diag([2.0, 4.0]))
        assert_allclose(pseudo_inverse(F), np.diag([0.5, 0.25]), atol=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(31)
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        M = 2.0 * np.outer(u, v)
        assert_allclose(pseudo_inverse(thin_svd(M)), 0.5 * np.outer(v, u), atol=1e-12)

    def test_left_inverse_of_full_column_rank(self):
        rng = np.random.default_rng(32)
        M = rng.standard_normal((5, 3))
        P = pseudo_inverse(thin_svd(M))
        assert_allclose(P @ M, np.eye(3), atol=1e-10)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(33)
        M = rng.standard_normal((6, 4))
        F = thin_svd(M)
        P = pseudo_inverse(F)
        scale = 1e-10 * F.sigma[0]
        assert np.max(np.abs(M @ P @ M - M)) <= scale
        assert np.max(np.abs(P @ M @ P - P)) <= scale


class TestSpectralNorm:
    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_diagonal(self):
        assert_allclose(spectral_norm(np.diag([3.0, -7.0])), 7.0, rtol=1e-10)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(41)
        M = rng.standard_normal((6, 4))
        assert_allclose(spectral_norm(M), spectral_norm_oracle(M), rtol=1e-8)

    def test_degenerate_top_pair_still_converges_in_value(self):
        M = np.diag([5.0, 5.0, 1.0])
        assert_allclose(spectral_norm(M), 5.0, rtol=1e-8)

    def test_large_scale_values(self):
        M = np.diag([3e8, 2e8])
        assert_allclose(spectral_norm(M), 3e8, rtol=1e-8)

    def test_clustered_top_singular_values(self):
        # Forty singular values within 1e-4 of 1: a power iteration stopped
        # on the Rayleigh quotient reads this norm about 3e-5 too low.
        rng = np.random.default_rng(15)
        U = np.linalg.qr(rng.standard_normal((60, 40)))[0]
        V = np.linalg.qr(rng.standard_normal((40, 40)))[0]
        sigma = 1.0 + 1e-4 * np.sort(rng.random(40))[::-1]
        M = (U * sigma) @ V.T
        assert_allclose(spectral_norm(M), spectral_norm_oracle(M), rtol=1e-12)


class TestTruncate:
    def test_diagonal_truncation(self):
        F = thin_svd(np.diag([3.0, 2.0, 1.0]))
        A2 = truncate(F, 2)
        assert_allclose(reconstruct(A2), np.diag([3.0, 2.0, 0.0]), atol=1e-12)
        assert_allclose(
            spectral_norm_oracle(np.diag([3.0, 2.0, 1.0]) - reconstruct(A2)), 1.0, rtol=1e-10
        )

    def test_best_rank_one_of_rank_two(self):
        rng = np.random.default_rng(51)
        M = rank_k_matrix(rng, 5, 4, 2, sigma=[3.0, 1.5])
        F = thin_svd(M)
        A1 = truncate(F, 1)
        assert_allclose(spectral_norm_oracle(M - reconstruct(A1)), 1.5, rtol=1e-10)

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(52)
        M = rng.standard_normal((5, 5))
        F = thin_svd(M)
        A3 = reconstruct(truncate(F, 3))
        best = spectral_norm_oracle(M - A3)
        for _ in range(100):
            X = rank_k_matrix(rng, 5, 5, 3, sigma=rng.uniform(0.5, 3.0, size=3))
            assert best <= spectral_norm_oracle(M - X) + 1e-12

    def test_rejects_k_at_or_above_rank(self):
        F = thin_svd(np.diag([3.0, 2.0, 1.0]))
        with pytest.raises(InvalidTruncation):
            truncate(F, 3)
        with pytest.raises(InvalidTruncation):
            truncate(F, 0)

    def test_kind_tag(self):
        F = thin_svd(np.diag([3.0, 2.0, 1.0]))
        assert truncate(F, 1).kind == "exact"


class TestPerturbationInequalities:
    def test_weyl_inequality_sample(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            A = rng.standard_normal((6, 5))
            E = 0.1 * rng.standard_normal((6, 5))
            sa = np.linalg.svd(A, compute_uv=False)
            sb = np.linalg.svd(A + E, compute_uv=False)
            bound = spectral_norm_oracle(E) + 1e-10 * sa[0]
            assert np.max(np.abs(sb - sa)) <= bound

    def test_stewart_inequality_sample(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            U = np.linalg.qr(rng.standard_normal((8, 3)))[0]
            V = np.linalg.qr(rng.standard_normal((5, 3)))[0]
            sigma = np.array([2.0, 1.0, 0.5])
            A = (U * sigma) @ V.T
            B = (U * (sigma + 1e-3 * rng.standard_normal(3))) @ V.T
            E = B - A
            Ap = pseudo_inverse(thin_svd(A))
            Bp = pseudo_inverse(thin_svd(B))
            lhs = spectral_norm_oracle(Bp - Ap)
            rhs = 2.0 * spectral_norm_oracle(Ap) * spectral_norm_oracle(Bp) * spectral_norm_oracle(E)
            assert lhs <= rhs + 1e-8
