"""Dense linear-algebra kernels: factorizations, norms, truncation."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    count_linalg_calls,
    gram_singular_values,
    rank_k_matrix,
    spectral_norm_oracle,
)
from trunclsq import (
    InvalidTruncation,
    ZeroMatrix,
    exact_truncated_solve,
    pseudo_inverse,
    qr_factor,
    reconstruct,
    spectral_norm,
    thin_svd,
)
from trunclsq.linalg import SVD_RANK_FACTOR, _gram, as_matrix, as_vector, leading_factors


class TestValidation:
    def test_as_matrix_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix(np.ones(3))

    @pytest.mark.parametrize("where", [0, 7, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("check, shape", [(as_matrix, (3, 5)), (as_vector, (15,))],
                             ids=["as_matrix", "as_vector"])
    def test_rejects_non_finite_entries(self, check, shape, bad, where):
        values = np.arange(15.0).reshape(shape)
        values.flat[where] = bad
        with pytest.raises(ValueError, match="^A must contain only finite values$"):
            check(values, "A")

    def test_as_matrix_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))

    def test_as_vector_checks_length(self):
        with pytest.raises(ValueError, match="length"):
            as_vector(np.ones(3), dim=4)

    @pytest.mark.parametrize("check, values", [
        pytest.param(as_matrix, [[1, 2], [3, 4]], id="as_matrix-list"),
        pytest.param(as_matrix, np.array([[1, 2], [3, 4]]), id="as_matrix-integer-array"),
        pytest.param(as_vector, [1, -2, 3], id="as_vector-list"),
        pytest.param(as_vector, np.array([1, -2, 3], dtype=np.int32), id="as_vector-integer-array"),
    ])
    def test_casts_lists_and_integers_to_float64(self, check, values):
        cast = check(values)
        assert cast.dtype == np.float64
        assert np.array_equal(cast, np.array(values, dtype=float))


class TestTolerances:
    def test_expected_defaults(self):
        assert SVD_RANK_FACTOR == 1e-14


class TestQrFactor:
    def test_orthonormal_input_passes_through(self):
        rng = np.random.default_rng(5)
        M = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        Q, R = qr_factor(M)
        signs = np.sign(np.diag(R))
        assert_allclose(Q * signs, M, atol=1e-12)
        assert_allclose(np.abs(np.diag(R)), np.ones(3), atol=1e-12)

    def test_single_column_normalization(self):
        Q, R = qr_factor(np.array([[3.0], [4.0]]))
        assert_allclose(np.abs(R), [[5.0]], atol=1e-14)
        assert_allclose(np.abs(Q[:, 0]), [0.6, 0.8], atol=1e-14)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 3))
        Q, R = qr_factor(M)
        err = spectral_norm_oracle(M - Q @ R)
        assert err <= 1e-12 * spectral_norm_oracle(M)

    def test_q_is_orthonormal(self):
        rng = np.random.default_rng(8)
        Q, _ = qr_factor(rng.standard_normal((9, 4)))
        assert np.max(np.abs(Q.T @ Q - np.eye(4))) <= 1e-12

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="rows >= cols"):
            qr_factor(np.ones((2, 3)))

    def test_zero_matrix_gets_an_orthonormal_q(self):
        Q, R = qr_factor(np.zeros((4, 2)))
        assert np.max(np.abs(Q.T @ Q - np.eye(2))) <= 1e-12
        assert not R.any()

    def test_zero_threshold_accepts_ill_conditioned_input(self):
        rng = np.random.default_rng(10)
        M = rank_k_matrix(rng, 8, 3, 3, sigma=[1.0, 1e-7, 1e-14])
        Q, _ = qr_factor(M)
        assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-12

    def test_deterministic_bits(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((7, 3))
        Q, R = qr_factor(M)
        Q_again, R_again = qr_factor(M.copy())
        assert np.array_equal(Q, Q_again)
        assert np.array_equal(R, R_again)


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

    def test_overflowing_singular_values_are_not_a_zero_matrix(self):
        # sigma_1 = 2e308 overflows to inf, and so would the rank cutoff:
        # the matrix is huge, not zero, and both calls say so.
        M = np.full((2, 2), 1e308)
        with pytest.raises(ValueError, match="overflows float64") as raised:
            thin_svd(M)
        assert not isinstance(raised.value, ZeroMatrix)
        with pytest.raises(ValueError, match="overflows float64"):
            exact_truncated_solve(M, np.ones(2), 1)

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

    @pytest.mark.parametrize("rows, cols, rank", [(9, 6, 6), (6, 6, 6), (6, 9, 6), (9, 7, 3)])
    def test_matches_the_copy_and_flip_reference(self, rows, cols, rank):
        # The factors are contiguous copies of LAPACK's, each right singular
        # vector flipped so that its largest-magnitude entry is positive,
        # bit for bit.
        rng = np.random.default_rng(28)
        M = rank_k_matrix(rng, rows, cols, rank, sigma=np.logspace(0.0, -2.0, rank))
        wide = rows < cols
        U, s, Vt = np.linalg.svd(M.T if wide else M, full_matrices=False)
        U, Vt = (Vt.T, U.T) if wide else (U, Vt)
        U, s, V = U[:, :rank].copy(), s[:rank].copy(), Vt[:rank].T.copy()
        signs = np.array([1.0 if V[np.argmax(np.abs(V[:, j])), j] > 0 else -1.0
                          for j in range(rank)])
        F = thin_svd(M)
        assert F.rank == rank
        assert np.array_equal(F.U, U * signs) and np.array_equal(F.V, V * signs)
        assert np.array_equal(F.sigma, s)
        assert F.U.flags.c_contiguous and F.V.flags.c_contiguous

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

    @pytest.mark.parametrize("rows, cols, rank", [(8, 20, 8), (24, 500, 24), (10, 30, 4)])
    def test_wide_matrix_meets_the_contract(self, rows, cols, rank):
        rng = np.random.default_rng(27)
        M = rank_k_matrix(rng, rows, cols, rank, sigma=np.logspace(0.0, -3.0, rank))
        F = thin_svd(M)
        assert F.rank == rank and F.U.shape == (rows, rank) and F.V.shape == (cols, rank)
        assert np.max(np.abs(F.U.T @ F.U - np.eye(rank))) <= 1e-12
        assert np.max(np.abs(F.V.T @ F.V - np.eye(rank))) <= 1e-12
        assert np.all(F.sigma[:-1] >= F.sigma[1:])
        cutoff = spectral_norm_oracle(M) * cols * SVD_RANK_FACTOR
        assert F.sigma[-1] > cutoff
        assert np.all(np.linalg.svd(M, compute_uv=False)[rank:] <= cutoff)
        assert spectral_norm_oracle(M - reconstruct(F)) <= 1e-12 * F.sigma[0]
        leads = np.argmax(np.abs(F.V), axis=0)
        assert np.all(F.V[leads, np.arange(rank)] > 0)

    @pytest.mark.parametrize("rows, cols", [(8, 20), (24, 500)])
    def test_wide_matrix_factors_are_its_transposes_swapped(self, rows, cols):
        # The same SVD of M^T, each side sign-canonicalized on its own V.
        M = np.random.default_rng(28).standard_normal((rows, cols))
        F, T = thin_svd(M), thin_svd(M.T)
        signs = np.sign(np.sum(F.U * T.V, axis=0))
        assert np.array_equal(F.sigma, T.sigma)
        assert np.array_equal(F.U, T.V * signs)
        assert np.array_equal(F.V, T.U * signs)

    @staticmethod
    def well_conditioned(rows, cols):
        r = min(rows, cols)
        return rank_k_matrix(np.random.default_rng(29), rows, cols, r,
                             sigma=np.logspace(0.0, -1.0, r))

    @pytest.mark.parametrize("rows, cols", [(24, 300), (20, 20), (60, 16)])
    def test_gram_route_matches_the_default_route(self, rows, cols, monkeypatch):
        M = self.well_conditioned(rows, cols)
        F = thin_svd(M)
        calls = count_linalg_calls(monkeypatch, "svd", "eigh")
        G = thin_svd(M, gram=True)
        assert calls == {"svd": 0, "eigh": 1}
        assert G.rank == F.rank == min(rows, cols)
        assert_allclose(G.sigma, F.sigma, rtol=1e-12, atol=0.0)
        # Unit columns, each side sign-canonicalized on its own V.
        assert np.all(np.abs(G.U - F.U).max(axis=0) <= 1e-12)
        assert np.all(np.abs(G.V - F.V).max(axis=0) <= 1e-12)

    @pytest.mark.parametrize("rows, cols", [(24, 300), (20, 20), (60, 16)])
    def test_gram_route_factors_are_orthonormal_and_c_ordered(self, rows, cols):
        G = thin_svd(self.well_conditioned(rows, cols), gram=True)
        assert np.max(np.abs(G.U.T @ G.U - np.eye(G.rank))) <= 1e-12
        assert np.max(np.abs(G.V.T @ G.V - np.eye(G.rank))) <= 1e-12
        assert G.U.flags.c_contiguous and G.V.flags.c_contiguous
        leads = np.argmax(np.abs(G.V), axis=0)
        assert np.all(G.V[leads, np.arange(G.rank)] > 0)

    @pytest.mark.parametrize("M", [
        rank_k_matrix(np.random.default_rng(30), 24, 300, 24, sigma=np.logspace(0.0, -3.0, 24)),
        rank_k_matrix(np.random.default_rng(31), 24, 300, 10),
        1e160 * np.random.default_rng(32).standard_normal((24, 300)),
        1e-160 * np.random.default_rng(33).standard_normal((24, 300)),
    ], ids=["spread-past-100", "rank-deficient", "gram-overflows", "gram-underflows"])
    def test_gram_route_falls_back_bit_for_bit(self, M):
        F, G = thin_svd(M), thin_svd(M, gram=True)
        assert G.rank == F.rank
        assert np.array_equal(G.U, F.U) and np.array_equal(G.V, F.V)
        assert np.array_equal(G.sigma, F.sigma)

    def test_gram_kernel_keeps_an_in_range_block_bitwise(self):
        B = np.random.default_rng(34).standard_normal((24, 300))
        assert np.array_equal(_gram(B), B @ B.T)

    @pytest.mark.parametrize("B", [
        1e200 * np.random.default_rng(35).standard_normal((12, 64)),
        np.zeros((3, 5)),
    ], ids=["overflows-mixed-sign", "all-zero"])
    def test_gram_kernel_refuses_a_block_out_of_range(self, B):
        # Some of the mixed-sign block's dot products read inf - inf (with
        # OpenBLAS, a 12-row block's do); no warning reaches the caller,
        # since the range check catches the NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _gram(B) is None

    def test_gram_route_rejects_a_zero_matrix(self):
        with pytest.raises(ZeroMatrix, match="all-zero 3x5"):
            thin_svd(np.zeros((3, 5)), gram=True)


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

    def test_is_numpys_two_norm_bit_for_bit(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            rows, cols = (int(v) for v in rng.integers(1, 40, size=2))
            M = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-8, 8)
            assert spectral_norm(M) == float(np.linalg.norm(M, 2))

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
    """The k leading triples of a thin SVD (``leading_factors``)."""

    def test_diagonal_truncation(self):
        F = thin_svd(np.diag([3.0, 2.0, 1.0]))
        A2 = leading_factors(F, 2)
        assert_allclose(reconstruct(A2), np.diag([3.0, 2.0, 0.0]), atol=1e-12)
        assert_allclose(
            spectral_norm_oracle(np.diag([3.0, 2.0, 1.0]) - reconstruct(A2)), 1.0, rtol=1e-10
        )

    def test_best_rank_one_of_rank_two(self):
        rng = np.random.default_rng(51)
        M = rank_k_matrix(rng, 5, 4, 2, sigma=[3.0, 1.5])
        F = thin_svd(M)
        A1 = leading_factors(F, 1)
        assert_allclose(spectral_norm_oracle(M - reconstruct(A1)), 1.5, rtol=1e-10)

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(52)
        M = rng.standard_normal((5, 5))
        F = thin_svd(M)
        A3 = reconstruct(leading_factors(F, 3))
        best = spectral_norm_oracle(M - A3)
        for _ in range(100):
            X = rank_k_matrix(rng, 5, 5, 3, sigma=rng.uniform(0.5, 3.0, size=3))
            assert best <= spectral_norm_oracle(M - X) + 1e-12

    def test_accepts_k_at_rank_and_rejects_above_rank_or_zero(self):
        F = thin_svd(np.diag([3.0, 2.0, 1.0]))
        assert_allclose(reconstruct(leading_factors(F, 3)), np.diag([3.0, 2.0, 1.0]), atol=1e-12)
        # Past the shape the sketched solves' wording; within it, the rank.
        with pytest.raises(InvalidTruncation, match="k=4 must satisfy 1 <= k <= min\\(rows, cols\\) \\(3\\)"):
            leading_factors(F, 4)
        with pytest.raises(InvalidTruncation, match="k=3 must satisfy 1 <= k <= rank \\(2\\)"):
            leading_factors(thin_svd(np.diag([3.0, 2.0, 0.0])), 3)
        with pytest.raises(InvalidTruncation):
            leading_factors(F, 0)

    def test_kind_tag(self):
        F = thin_svd(np.diag([3.0, 2.0, 1.0]))
        assert leading_factors(F, 1).kind == "exact"


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
