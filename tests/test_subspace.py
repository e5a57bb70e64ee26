"""Randomized range finder and the sketched truncated factorization."""

import math
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    hard_spectrum_problem,
    projection_distance_oracle,
    random_orthonormal,
    rank_k_matrix,
)
from trunclsq import (
    InvalidTruncation,
    RngSeed,
    approx_truncated_solve,
    approx_truncated_svd,
    gaussian_matrix,
    power_basis,
    power_basis_from_sketch,
    power_product,
    synthetic_problem,
)
from trunclsq import subspace as subspace_module


def exact_top_k(A: np.ndarray, k: int):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return U[:, :k], s, Vt.T[:, :k]


@pytest.fixture
def ladder(monkeypatch):
    """The Gram-ladder rungs a walk forms, the matrix each was formed from,
    and the m-by-m-by-l steps taken on them."""
    record = SimpleNamespace(sources=[], rungs=[], steps=0)
    real = subspace_module._rung

    class CountingRung(np.ndarray):
        def __matmul__(self, other):
            record.steps += 1
            return np.asarray(self) @ np.asarray(other)

        def __rmatmul__(self, other):
            record.steps += 1
            return np.asarray(other) @ np.asarray(self)

    def counting(M):
        record.sources.append(M)
        record.rungs.append(real(np.asarray(M)).view(CountingRung))
        return record.rungs[-1]

    monkeypatch.setattr(subspace_module, "_rung", counting)
    return record


def reference_solve(A, b, k, p, seed):
    """The fixed-depth solve on the sketch it draws, written out with numpy:
    p two-product passes with a QR after every pass, the Ritz step and the
    apply."""
    Y = A @ gaussian_matrix(A.shape[1], min(k + 4, *A.shape), seed)
    for _ in range(p):
        Y = A @ (A.T @ np.linalg.qr(Y)[0])
    Q = np.linalg.qr(Y)[0]
    U, s, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
    return Vt[:k].T @ (((Q @ U[:, :k]).T @ b) / s[:k])


class TestPowerProduct:
    def test_zero_depth_is_plain_product(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 5))
        S = rng.standard_normal((5, 2))
        assert_allclose(power_product(A, S, 0), A @ S, rtol=0, atol=1e-14)

    def test_one_pass_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 5))
        S = rng.standard_normal((5, 2))
        direct = A @ (A.T @ (A @ S))
        assert_allclose(power_product(A, S, 1), direct, rtol=0, atol=1e-14)

    def test_deep_iterate_is_finite_and_orthonormalizes(self):
        rng = np.random.default_rng(2)
        A = 100.0 * rng.standard_normal((8, 8))
        S = rng.standard_normal((8, 3))
        assert np.all(np.isfinite(power_product(A, S, 40)))
        Q = power_basis_from_sketch(A, S, 40)
        assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-10

    def test_orthonormalizes_only_when_the_spread_demands_it(self, monkeypatch):
        calls = []
        real = np.linalg.qr

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        # Gap 0.99 at k, as in the benchmark sweep: the block spreads slowly.
        problem = synthetic_problem(100, 20, 0.99, 0.2, RngSeed(60))
        power_product(problem.A, gaussian_matrix(100, 24, RngSeed(61)), 47)
        assert 1 <= len(calls) <= 8
        # sigma_1/sigma_k = 1e3: one pass spreads the block by about 1e6.
        calls.clear()
        A, _, k = hard_spectrum_problem()
        power_product(A, gaussian_matrix(A.shape[1], k + 4, RngSeed(62)), 16)
        assert len(calls) >= 13

    def test_forms_the_gram_matrix_once_a_deep_solve_repays_it(self, ladder):
        # The paper's depth ceil(10 ln n): G = A A^T, then G^2, G^4, ...,
        # each squared from the one before and each formed once.
        for n, seed in [(100, 60), (500, 66)]:
            problem = synthetic_problem(n, 20, 0.99, 0.2, RngSeed(seed))
            A, p = problem.A, math.ceil(10 * math.log(n))
            ladder.sources.clear()
            ladder.rungs.clear()
            ladder.steps = 0
            Y = power_product(A, gaussian_matrix(n, 24, RngSeed(seed + 1)), p)
            assert ladder.sources[0] is A and len(ladder.rungs) >= 3
            assert all(source is rung for source, rung in zip(ladder.sources[1:], ladder.rungs))
            for j, rung in enumerate(ladder.rungs):
                power = np.linalg.matrix_power(A @ A.T, 2**j)
                assert_allclose(rung / np.trace(rung), power / np.trace(power), rtol=0, atol=1e-12)
            assert ladder.steps <= math.ceil(p / 2)
            assert np.all(np.isfinite(Y))

    def test_first_reading_lets_the_ladder_climb_before_the_next_qr(self, ladder, monkeypatch):
        # The first QR reads A A^T A S, one and a half passes' worth of
        # spread: about 0.8 a pass in log terms, so a step of 8 passes on G^8
        # spreads the block by about e^6.4, within the 1e4 gate.
        rungs_at_qr = []
        real = np.linalg.qr

        def counting(*args, **kwargs):
            rungs_at_qr.append(len(ladder.rungs))
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        problem = synthetic_problem(100, 20, 0.99, 0.2, RngSeed(60))
        power_product(problem.A, gaussian_matrix(100, 24, RngSeed(61)), 47)
        assert rungs_at_qr == [0, 4, 4]

    @pytest.mark.parametrize(
        "case", ["tall", "below-break-even", "hard-spectrum", "wide-hard-spectrum"]
    )
    def test_keeps_two_product_passes_where_the_gram_matrix_does_not_pay(self, ladder, case):
        if case == "tall":
            A, width, p = gaussian_matrix(120, 100, RngSeed(63)), 24, 47
        elif case == "below-break-even":
            # Break-even is 200 / (2 * 24) = 4.2 two-product passes, and 2
            # are left after the first.
            A, width, p = gaussian_matrix(200, 200, RngSeed(64)), 24, 3
        else:
            # sigma_1/sigma_l = 1e3: one pass spreads the block by about 1e6.
            A, _, k = hard_spectrum_problem()
            A = A.T if case == "wide-hard-spectrum" else A
            width, p = k + 4, 16
        power_product(A, gaussian_matrix(A.shape[1], width, RngSeed(65)), p)
        assert ladder.rungs == []

    def test_stops_climbing_where_a_step_would_round_past_the_gate(self, ladder):
        # sigma_1/sigma_l is about 21: a pass spreads the block by about 430,
        # within the 1e4 gate, and a step on G^2 by about 2e5, past it.
        rng = np.random.default_rng(66)
        sigma = np.concatenate([np.logspace(1.0, 0.0, 10), 0.5 * np.logspace(0.0, -1.0, 190)])
        A = (random_orthonormal(rng, 200, 200) * sigma) @ random_orthonormal(rng, 200, 200).T
        power_product(A, gaussian_matrix(200, 14, RngSeed(67)), 50)
        assert len(ladder.rungs) == 1 and ladder.sources[0] is A

    @pytest.mark.parametrize("n", [100, 200, 300, 400, 500])
    def test_ladder_matches_a_qr_every_pass_reference(self, n):
        problem = synthetic_problem(n, 20, 0.99, 0.2, RngSeed(67, n))
        p, seed = math.ceil(10 * math.log(n)), RngSeed(68, n)
        x = approx_truncated_solve(problem.A, problem.b, 20, p, seed).x
        reference = reference_solve(problem.A, problem.b, 20, p, seed)
        assert np.linalg.norm(x - reference) <= 1e-9 * np.linalg.norm(reference)

    @pytest.mark.parametrize("exponent", [300, -300])
    def test_ladder_keeps_a_scaled_matrix_in_range(self, exponent):
        # sigma_1^(2^j) leaves float64's range from G^4 on at either scale
        # unless each rung is rescaled.
        problem = synthetic_problem(200, 20, 0.99, 0.2, RngSeed(69))
        p, seed, scale = math.ceil(10 * math.log(200)), RngSeed(70), 2.0**exponent
        x = approx_truncated_solve(problem.A, problem.b, 20, p, seed).x
        scaled = approx_truncated_solve(scale * problem.A, problem.b, 20, p, seed).x
        assert np.all(np.isfinite(scaled))
        assert np.linalg.norm(scale * scaled - x) <= 1e-8 * np.linalg.norm(x)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            power_product(np.eye(3), np.eye(3), -1)

    def test_rejects_sketch_row_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            power_product(np.eye(3), np.ones((4, 2)), 0)


class TestPowerIterates:
    @pytest.mark.parametrize("n", [100, 500])
    def test_spans_what_the_fixed_depth_walk_gives(self, ladder, n):
        # The walk without a depth stops at G; the one toward p forms G, G^2
        # and G^4 at least, and lands on the same subspace.
        problem = synthetic_problem(n, 20, 0.99, 0.2, RngSeed(73, n))
        p, seed = math.ceil(10 * math.log(n)), RngSeed(74, n)
        Y = next(islice(subspace_module.power_iterates(problem.A, 20, seed), p, None))
        assert len(ladder.rungs) == 1
        Z = power_product(problem.A, gaussian_matrix(n, 24, seed), p)
        assert len(ladder.rungs) >= 4
        assert projection_distance_oracle(np.linalg.qr(Y)[0], np.linalg.qr(Z)[0]) <= 1e-10

    def test_is_the_fixed_depth_iterate_on_a_tall_matrix(self):
        A = gaussian_matrix(90, 40, RngSeed(75))
        p, seed = math.ceil(10 * math.log(40)), RngSeed(76)
        Y = next(islice(subspace_module.power_iterates(A, 5, seed), p, None))
        assert np.array_equal(Y, power_product(A, gaussian_matrix(40, 9, seed), p))

    def test_forms_the_gram_matrix_once_the_passes_run_repay_it(self, ladder):
        # Break-even is 500 / (2 * 24) = 10.4 two-product passes: G is formed
        # before pass 12, and passes 12..60 are steps on it.
        problem = synthetic_problem(500, 20, 0.99, 0.2, RngSeed(77))
        walk = subspace_module.power_iterates(problem.A, 20, RngSeed(78))
        formed = [len(ladder.rungs) for _, _ in zip(range(61), walk)]
        assert formed.index(1) == 12 and formed[-1] == 1
        assert ladder.sources[0] is problem.A and ladder.steps == 49
        # A tall matrix forms none.
        tall = gaussian_matrix(120, 100, RngSeed(79))
        list(islice(subspace_module.power_iterates(tall, 20, RngSeed(80)), 61))
        assert len(ladder.rungs) == 1


class TestPowerBasisFromSketch:
    def test_identity_matrix_preserves_sketch_span(self):
        S = gaussian_matrix(7, 3, RngSeed(5))
        Q = power_basis_from_sketch(np.eye(7), S, 0)
        reference = np.linalg.qr(S)[0]
        assert projection_distance_oracle(Q, reference) <= 1e-10

    def test_columns_are_orthonormal(self):
        A = gaussian_matrix(10, 8, RngSeed(6))
        S = gaussian_matrix(8, 4, RngSeed(7))
        Q = power_basis_from_sketch(A, S, 3)
        assert np.max(np.abs(Q.T @ Q - np.eye(4))) <= 1e-10

    def test_survives_deep_iteration_conditioning(self):
        # The columns of (A A^T)^p A S become ill-conditioned like
        # (sigma_1/sigma_k)^(2p+1); deep depths must still orthonormalize.
        A = np.diag([4.0, 3.0, 2.0, 1.0])
        S = gaussian_matrix(4, 2, RngSeed(8))
        Q = power_basis_from_sketch(A, S, 50)
        assert np.max(np.abs(Q.T @ Q - np.eye(2))) <= 1e-10


class TestPowerBasis:
    def test_deterministic_per_seed(self):
        A = gaussian_matrix(9, 7, RngSeed(12))
        first = power_basis(A, 3, 2, RngSeed(13))
        second = power_basis(A, 3, 2, RngSeed(13))
        assert np.array_equal(first, second)

    def test_rejects_bad_truncation_level(self):
        A = gaussian_matrix(6, 5, RngSeed(14))
        with pytest.raises(InvalidTruncation):
            power_basis(A, 0, 1, RngSeed(1))
        with pytest.raises(InvalidTruncation):
            power_basis(A, 6, 1, RngSeed(1))

    def test_rejects_negative_depth(self):
        A = gaussian_matrix(6, 5, RngSeed(15))
        with pytest.raises(ValueError):
            power_basis(A, 2, -3, RngSeed(1))


class TestApproxTruncatedSvd:
    def test_exact_rank_k_recovered_for_any_depth(self):
        rng = np.random.default_rng(30)
        A = rank_k_matrix(rng, 12, 9, 3, sigma=np.array([5.0, 2.0, 1.0]))
        exact_sigma = np.linalg.svd(A, compute_uv=False)[:3]
        for p in (0, 2, 5):
            fact = approx_truncated_svd(A, 3, p, RngSeed(31 + p))
            assert_allclose(fact.sigma, exact_sigma, rtol=1e-8)
            rebuilt = (fact.U * fact.sigma) @ fact.V.T
            gap = np.linalg.norm(rebuilt - A, 2)
            assert gap <= 1e-8 * exact_sigma[0]

    def test_deep_iteration_matches_exact_truncation(self):
        A = np.diag([4.0, 3.0, 2.0, 1.0])
        fact = approx_truncated_svd(A, 2, 50, RngSeed(32))
        assert_allclose(fact.sigma, [4.0, 3.0], rtol=1e-6)
        assert projection_distance_oracle(fact.U, np.eye(4)[:, :2]) <= 1e-8

    def test_factor_shapes_and_kind(self):
        A = gaussian_matrix(10, 7, RngSeed(33))
        fact = approx_truncated_svd(A, 3, 1, RngSeed(34))
        assert fact.U.shape == (10, 3)
        assert fact.sigma.shape == (3,)
        assert fact.V.shape == (7, 3)
        assert fact.k == 3
        assert fact.kind == "approximate"

    def test_recovered_sigma_never_exceeds_exact(self):
        # Projection cannot amplify singular values, and Weyl's inequality
        # limits how far below the exact values the recovered ones can sit.
        for trial in range(20):
            A = gaussian_matrix(10, 8, RngSeed(40, trial))
            k, p = 3, trial % 4
            fact = approx_truncated_svd(A, k, p, RngSeed(41, trial))
            U_k, s, _ = exact_top_k(A, k)
            distance = projection_distance_oracle(U_k, fact.U)
            assert fact.sigma[-1] <= s[k - 1] + 1e-10 * s[0]
            assert fact.sigma[-1] >= s[k - 1] - s[0] * distance - 1e-10 * s[0]

    def test_factors_span_the_power_basis(self):
        A = gaussian_matrix(9, 8, RngSeed(50))
        k, p, seed = 3, 2, RngSeed(51)
        fact = approx_truncated_svd(A, k, p, seed)
        Q = power_basis(A, k, p, seed)
        residual = fact.U - Q @ (Q.T @ fact.U)
        assert np.linalg.norm(residual, 2) <= 1e-10

    def test_reconstruction_equals_projected_matrix(self):
        A = gaussian_matrix(9, 8, RngSeed(52))
        k, p, seed = 3, 2, RngSeed(53)
        fact = approx_truncated_svd(A, k, p, seed)
        Q = power_basis(A, k, p, seed)
        sigma_1 = np.linalg.svd(A, compute_uv=False)[0]
        rebuilt = (fact.U * fact.sigma) @ fact.V.T
        U_k, s, V_k = exact_top_k(Q @ (Q.T @ A), k)
        expected = (U_k * s[:k]) @ V_k.T
        assert np.linalg.norm(rebuilt - expected, 2) <= 1e-10 * sigma_1

    def test_deterministic_per_seed(self):
        A = gaussian_matrix(8, 6, RngSeed(54))
        first = approx_truncated_svd(A, 2, 3, RngSeed(55))
        second = approx_truncated_svd(A, 2, 3, RngSeed(55))
        assert np.array_equal(first.U, second.U)
        assert np.array_equal(first.sigma, second.sigma)
        assert np.array_equal(first.V, second.V)

    @pytest.mark.parametrize("A, k", [
        (rank_k_matrix(np.random.default_rng(56), 10, 8, 2), 3),
        (np.diag([3.0, 2.0, 1.0, 0.0, 0.0]), 4),
    ], ids=["rank-2-at-k3", "diag-rank-3-at-k4"])
    def test_rank_deficient_matrix_rejected_at_requested_level(self, A, k):
        with pytest.raises(InvalidTruncation, match=rf"rank \({k - 1}\)"):
            approx_truncated_svd(A, k, 1, RngSeed(57))
