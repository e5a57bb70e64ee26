"""Least-squares solvers: truncated, randomized, damped, and full."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_orthonormal, rank_k_matrix
from trunclsq import (
    IllConditionedTruncation,
    InvalidTruncation,
    RngSeed,
    TruncatedFactorization,
    exact_truncated_solve,
    approx_truncated_solve,
    full_ls_solve,
    gaussian_matrix,
    gaussian_vector,
    pseudo_inverse,
    thin_svd,
    tikhonov_solve,
)
from trunclsq import regression as regression_module
from trunclsq.linalg import leading_factors

DIAG = np.diag([4.0, 3.0, 2.0, 1.0])


class TestExactTruncatedSolve:
    def test_diagonal_fixture(self):
        b = np.array([4.0, 3.0, 2.0, 1.0])
        outcome = exact_truncated_solve(DIAG, b, 2)
        assert_allclose(outcome.x, [1.0, 1.0, 0.0, 0.0], rtol=0, atol=1e-12)
        assert outcome.residual_norm == pytest.approx(np.sqrt(5.0), rel=1e-12)
        assert outcome.rhs_norm == pytest.approx(np.linalg.norm(b), rel=1e-15)
        assert outcome.method == "exact_truncated"
        assert outcome.k == 2 and outcome.p is None

    def test_rhs_orthogonal_to_retained_subspace_gives_zero(self):
        b = np.array([0.0, 0.0, 1.0, 0.0])
        outcome = exact_truncated_solve(DIAG, b, 2)
        assert np.array_equal(outcome.x, np.zeros(4))
        assert outcome.residual_norm == pytest.approx(1.0, rel=1e-15)

    def test_matches_pseudo_inverse_of_truncation(self):
        rng = np.random.default_rng(60)
        A = rng.standard_normal((9, 6))
        b = rng.standard_normal(9)
        for k in (1, 3, 5):
            outcome = exact_truncated_solve(A, b, k)
            reference = pseudo_inverse(leading_factors(thin_svd(A), k)) @ b
            assert np.linalg.norm(outcome.x - reference) <= 1e-10

    def test_wide_matrix_matches_the_svd_solution(self):
        rng = np.random.default_rng(61)
        A = rng.standard_normal((200, 500))
        b = rng.standard_normal(200)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        reference = Vt[:20].T @ ((U[:, :20].T @ b) / s[:20])
        x = exact_truncated_solve(A, b, 20).x
        assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_level_bounds(self):
        b = np.ones(4)
        full = exact_truncated_solve(DIAG, b, 4)
        assert full.residual_norm <= 1e-12
        with pytest.raises(InvalidTruncation):
            exact_truncated_solve(DIAG, b, 0)
        with pytest.raises(InvalidTruncation):
            exact_truncated_solve(DIAG, b, 5)

    def test_wall_time_nonnegative(self):
        outcome = exact_truncated_solve(DIAG, np.ones(4), 2)
        assert outcome.wall_time >= 0.0


class TestApproxTruncatedSolve:
    def test_exact_rank_k_needs_no_iteration(self):
        rng = np.random.default_rng(62)
        A = rank_k_matrix(rng, 10, 8, 3, sigma=np.array([4.0, 2.0, 1.0]))
        b = rng.standard_normal(10)
        exact = exact_truncated_solve(A, b, 3)
        approx = approx_truncated_solve(A, b, 3, 0, RngSeed(63))
        scale = np.linalg.norm(exact.x)
        assert np.linalg.norm(approx.x - exact.x) <= 1e-8 * scale
        assert approx.method == "approx_truncated"
        assert approx.k == 3 and approx.p == 0

    def test_deep_iteration_matches_exact_on_gapped_matrix(self):
        b = np.array([4.0, 3.0, 2.0, 1.0])
        outcome = approx_truncated_solve(DIAG, b, 2, 50, RngSeed(64))
        assert_allclose(outcome.x, [1.0, 1.0, 0.0, 0.0], rtol=0, atol=1e-6)

    def test_deep_solve_keeps_a_wide_head_accurate(self):
        # sigma_1/sigma_k = 1e6: the Gram matrix A A^T rounds the k-th
        # direction at about n eps 1e12, so the passes must stay A (A^T Y).
        rng = np.random.default_rng(68)
        n, k = 200, 10
        sigma = np.concatenate([np.logspace(0.0, -6.0, k), 0.5e-6 * np.logspace(0.0, -2.0, n - k)])
        A = (random_orthonormal(rng, n, n) * sigma) @ random_orthonormal(rng, n, n).T
        b = rng.standard_normal(n)
        exact = exact_truncated_solve(A, b, k)
        approx = approx_truncated_solve(A, b, k, 30, RngSeed(69))
        assert np.linalg.norm(approx.x - exact.x) <= 1e-9 * np.linalg.norm(exact.x)

    def test_deterministic_per_seed(self):
        A = gaussian_matrix(9, 7, RngSeed(65))
        b = gaussian_vector(9, RngSeed(66))
        first = approx_truncated_solve(A, b, 3, 2, RngSeed(67))
        second = approx_truncated_solve(A, b, 3, 2, RngSeed(67))
        assert np.array_equal(first.x, second.x)
        assert first.residual_norm == second.residual_norm

    def test_rejects_uninvertible_recovered_spectrum(self, monkeypatch):
        def degenerate_factorization(A, k, p, seed):
            m, n = A.shape
            U = np.eye(m)[:, :2]
            V = np.eye(n)[:, :2]
            return TruncatedFactorization(
                U=U, sigma=np.array([1.0, 1e-14]), V=V, k=2, kind="approximate"
            )

        monkeypatch.setattr(
            regression_module, "approx_truncated_svd", degenerate_factorization
        )
        with pytest.raises(IllConditionedTruncation):
            approx_truncated_solve(np.eye(5), np.ones(5), 2, 1, RngSeed(1))


class TestTikhonovSolve:
    def test_hand_worked_damping(self):
        A = np.diag([2.0, 1.0])
        b = np.array([2.0, 1.0])
        outcome = tikhonov_solve(A, b, np.array([2.0, 1.0]))
        assert_allclose(outcome.x, [0.5, 0.5], rtol=0, atol=1e-15)
        assert outcome.method == "tikhonov"
        assert outcome.k is None and outcome.p is None

    def test_zero_damping_recovers_least_squares(self):
        rng = np.random.default_rng(70)
        A = rng.standard_normal((8, 5))
        b = rng.standard_normal(8)
        F = thin_svd(A)
        damped = tikhonov_solve(A, b, np.zeros(F.rank))
        plain = full_ls_solve(A, b)
        assert np.linalg.norm(damped.x - plain.x) <= 1e-12 * np.linalg.norm(plain.x)

    def test_huge_tail_damping_recovers_truncation(self):
        rng = np.random.default_rng(71)
        A = rng.standard_normal((8, 6))
        b = rng.standard_normal(8)
        F = thin_svd(A)
        k = 3
        lambdas = np.zeros(F.rank)
        lambdas[k:] = 1e9 * F.sigma[0]
        damped = tikhonov_solve(A, b, lambdas)
        truncated = exact_truncated_solve(A, b, k)
        scale = np.linalg.norm(truncated.x)
        assert np.linalg.norm(damped.x - truncated.x) <= 1e-10 * scale

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            tikhonov_solve(DIAG, np.ones(4), np.ones(3))

    def test_one_value_damps_every_component(self):
        A = gaussian_matrix(50, 40, RngSeed(74))
        b = gaussian_vector(50, RngSeed(75))
        one = tikhonov_solve(A, b, 0.3)
        each = tikhonov_solve(A, b, np.full(40, 0.3))
        assert one.x.tobytes() == each.x.tobytes()
        with pytest.raises(ValueError, match="lambdas must have length 40"):
            tikhonov_solve(A, b, [0.3, 0.3])

    def test_rejects_negative_damping(self):
        with pytest.raises(ValueError):
            tikhonov_solve(DIAG, np.ones(4), np.array([1.0, -1.0, 1.0, 1.0]))


class TestFullLsSolve:
    def test_square_invertible_solves_exactly(self):
        rng = np.random.default_rng(72)
        A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        x_true = rng.standard_normal(6)
        b = A @ x_true
        outcome = full_ls_solve(A, b)
        assert np.linalg.norm(outcome.x - x_true) <= 1e-9 * np.linalg.norm(x_true)
        assert outcome.residual_norm <= 1e-9 * np.linalg.norm(b)
        assert outcome.method == "full_ls"

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(73)
        A = rng.standard_normal((10, 6))
        b = rng.standard_normal(10)
        outcome = full_ls_solve(A, b)
        for _ in range(100):
            competitor = outcome.x + 0.1 * rng.standard_normal(6)
            assert outcome.residual_norm <= np.linalg.norm(A @ competitor - b) + 1e-12

    def test_minimum_norm_solution_lies_in_row_space(self):
        rng = np.random.default_rng(74)
        A = rank_k_matrix(rng, 8, 6, 3)
        b = rng.standard_normal(8)
        outcome = full_ls_solve(A, b)
        F = thin_svd(A)
        residual = outcome.x - F.V @ (F.V.T @ outcome.x)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(outcome.x)


class TestSharedContracts:
    def build(self):
        rng = np.random.default_rng(75)
        A = rng.standard_normal((9, 7))
        b = rng.standard_normal(9)
        return A, b

    def test_residual_is_recomputed_from_solution(self):
        A, b = self.build()
        outcomes = [
            exact_truncated_solve(A, b, 3),
            approx_truncated_solve(A, b, 3, 2, RngSeed(76)),
            tikhonov_solve(A, b, np.full(7, 0.5)),
            full_ls_solve(A, b),
        ]
        for outcome in outcomes:
            direct = np.linalg.norm(A @ outcome.x - b)
            assert outcome.residual_norm == pytest.approx(direct, abs=1e-10)
            assert outcome.rhs_norm == pytest.approx(np.linalg.norm(b), rel=1e-15)
            assert outcome.wall_time >= 0.0

    def test_truncated_solution_lies_in_leading_right_subspace(self):
        A, b = self.build()
        F = thin_svd(A)
        for k in (1, 3, 5):
            x = exact_truncated_solve(A, b, k).x
            V_k = F.V[:, :k]
            residual = x - V_k @ (V_k.T @ x)
            assert np.linalg.norm(residual) <= 1e-10 * max(np.linalg.norm(x), 1.0)

    def test_residuals_shrink_with_level(self):
        A, b = self.build()
        rhs_norm = np.linalg.norm(b)
        full = full_ls_solve(A, b).residual_norm
        previous = np.inf
        for k in range(1, 8):
            current = exact_truncated_solve(A, b, k).residual_norm
            assert current <= previous + 1e-10 * rhs_norm
            assert full <= current + 1e-10 * rhs_norm
            previous = current

    def test_residual_never_exceeds_rhs_norm(self):
        A, b = self.build()
        outcomes = [
            exact_truncated_solve(A, b, 3),
            tikhonov_solve(A, b, np.full(7, 0.7)),
            full_ls_solve(A, b),
        ]
        for outcome in outcomes:
            assert outcome.residual_norm <= outcome.rhs_norm * (1.0 + 1e-10)

    def test_rhs_length_validated(self):
        A, _ = self.build()
        with pytest.raises(ValueError):
            exact_truncated_solve(A, np.ones(4), 2)
        with pytest.raises(ValueError):
            full_ls_solve(A, np.ones(4))
