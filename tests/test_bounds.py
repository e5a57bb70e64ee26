"""Depth selection, subspace distances, and the bound certificates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import rank_k_matrix, random_orthonormal
from trunclsq import (
    DegenerateSketch,
    GapProfile,
    IllConditionedTruncation,
    InvalidTruncation,
    NoSpectralGap,
    RngSeed,
    TruncatedFactorization,
    approx_truncated_svd,
    choose_power_depth,
    error_chain,
    exact_truncated_solve,
    gap_profile,
    gaussian_matrix,
    gaussian_vector,
    lower_bound_instance,
    projection_distance,
    subspace_capture_bound,
    thin_svd,
)

DIAG = np.diag([4.0, 3.0, 2.0, 1.0])


class TestGapProfile:
    def test_fields_from_diagonal(self):
        profile = gap_profile(DIAG, 2)
        assert profile.sigma_1 == 4.0
        assert profile.sigma_k == 3.0
        assert profile.sigma_k_plus_1 == 2.0
        assert profile.gamma_k == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert profile.n == 4 and profile.k == 2

    def test_full_rank_level_has_zero_tail(self):
        profile = gap_profile(DIAG, 4)
        assert profile.sigma_k_plus_1 == 0.0
        assert profile.gamma_k == 0.0

    def test_precomputed_factorization_accepted(self):
        assert gap_profile(thin_svd(DIAG), 2) == gap_profile(DIAG, 2)
        with pytest.raises(InvalidTruncation):
            gap_profile(thin_svd(np.diag([3.0, 2.0, 0.0])), 3)

    def test_level_out_of_range(self):
        with pytest.raises(InvalidTruncation):
            gap_profile(DIAG, 0)
        with pytest.raises(InvalidTruncation):
            gap_profile(DIAG, 5)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            GapProfile(1.0, 2.0, 0.5, 0.25, 10, 2)  # sigma_1 < sigma_k
        with pytest.raises(ValueError):
            GapProfile(1.0, 0.0, 0.0, 0.0, 10, 2)  # sigma_k must be positive
        with pytest.raises(ValueError):
            GapProfile(1.0, 0.5, 0.25, 1.5, 10, 2)  # gamma outside [0, 1]
        with pytest.raises(ValueError):
            GapProfile(1.0, 0.5, 0.25, 0.5, 0, 2)  # n must be positive


class TestChoosePowerDepth:
    def test_reference_depth_moderate_targets(self):
        profile = GapProfile(
            sigma_1=1.0, sigma_k=0.5, sigma_k_plus_1=0.25, gamma_k=0.5, n=100, k=5
        )
        assert choose_power_depth(0.1, 0.1, profile) == 10

    def test_reference_depth_loose_targets(self):
        gamma = 1.0 / np.e
        profile = GapProfile(
            sigma_1=1.0, sigma_k=1.0, sigma_k_plus_1=gamma, gamma_k=gamma, n=1, k=1
        )
        assert choose_power_depth(1.0, 1.0, profile) == 2

    def test_matches_log_space_formula(self):
        profile = GapProfile(
            sigma_1=2.0, sigma_k=1.5, sigma_k_plus_1=0.9, gamma_k=0.6, n=40, k=3
        )
        for epsilon, delta in [(0.5, 0.5), (0.2, 0.1), (0.01, 0.05)]:
            numerator = np.log(
                epsilon * delta * profile.sigma_k**2
                / (12.0 * profile.n * profile.sigma_1**2)
            )
            expected = max(0, int(np.ceil(numerator / (2.0 * np.log(profile.gamma_k)))))
            assert choose_power_depth(epsilon, delta, profile) == expected

    def test_tight_targets_need_deeper_iteration(self):
        profile = GapProfile(
            sigma_1=1.0, sigma_k=0.5, sigma_k_plus_1=0.25, gamma_k=0.5, n=100, k=5
        )
        depths_eps = [choose_power_depth(e, 0.1, profile) for e in (0.5, 0.1, 0.01)]
        depths_delta = [choose_power_depth(0.1, d, profile) for d in (0.5, 0.1, 0.01)]
        assert depths_eps == sorted(depths_eps)
        assert depths_delta == sorted(depths_delta)

    def test_no_gap_is_rejected(self):
        profile = GapProfile(
            sigma_1=1.0, sigma_k=0.5, sigma_k_plus_1=0.5, gamma_k=1.0, n=10, k=2
        )
        with pytest.raises(NoSpectralGap):
            choose_power_depth(0.1, 0.1, profile)

    def test_rounded_ties_are_rejected(self):
        # Every sigma is 3: thin_svd returns the ties up to rounding, so
        # gamma_k can come out as 1 - 2.2e-16, which is a tie, not a gap
        # that some finite depth (about 5e16 passes) would close.
        rng = np.random.default_rng(77)
        for _ in range(200):
            m, n = (int(v) for v in rng.integers(8, 60, size=2))
            r = min(m, n)
            A = 3.0 * random_orthonormal(rng, m, r) @ random_orthonormal(rng, n, r).T
            profile = gap_profile(A, int(rng.integers(1, r)))
            with pytest.raises(NoSpectralGap):
                choose_power_depth(0.05, 0.1, profile)

    def test_zero_tail_needs_no_iteration(self):
        profile = GapProfile(
            sigma_1=1.0, sigma_k=0.5, sigma_k_plus_1=0.0, gamma_k=0.0, n=10, k=2
        )
        assert choose_power_depth(0.1, 0.1, profile) == 0

    def test_targets_outside_unit_interval_rejected(self):
        profile = gap_profile(DIAG, 2)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                choose_power_depth(bad, 0.1, profile)
            with pytest.raises(ValueError):
                choose_power_depth(0.1, bad, profile)


class TestProjectionDistance:
    def test_planted_rotation_equals_sine(self):
        for theta in (0.1, 0.4, 1.0):
            U = np.eye(4)[:, :2]
            W = np.zeros((4, 2))
            W[:, 0] = [np.cos(theta), 0.0, np.sin(theta), 0.0]
            W[:, 1] = [0.0, 1.0, 0.0, 0.0]
            assert projection_distance(U, W) == pytest.approx(np.sin(theta), abs=1e-12)

    def test_identical_subspaces_give_zero(self):
        rng = np.random.default_rng(82)
        U = random_orthonormal(rng, 7, 3)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert projection_distance(U, U @ rotation) <= 1e-12

    def test_orthogonal_subspaces_clamp_to_one(self):
        U = np.eye(4)[:, :1]
        W = np.eye(4)[:, 1:2]
        assert projection_distance(U, W) == 1.0

    def test_rejects_non_orthonormal_input(self):
        U = np.eye(4)[:, :2]
        skew = U.copy()
        skew[0, 0] = 2.0
        with pytest.raises(ValueError, match="orthonormal"):
            projection_distance(skew, U)
        with pytest.raises(ValueError, match="orthonormal"):
            projection_distance(U, skew)
        # Unit columns that are not orthogonal: |M^T M - I| peaks off the
        # diagonal, at cos(1).
        oblique = np.zeros((4, 2))
        oblique[:2, 0], oblique[:2, 1] = [1.0, 0.0], [np.cos(1.0), np.sin(1.0)]
        with pytest.raises(ValueError, match=r"max \|M\^T M - I\| = 5\.403e-01"):
            projection_distance(U, oblique)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            projection_distance(np.eye(4)[:, :2], np.eye(4)[:, :1])

    def test_symmetry(self):
        rng = np.random.default_rng(83)
        U = random_orthonormal(rng, 8, 3)
        W = random_orthonormal(rng, 8, 3)
        assert projection_distance(U, W) == pytest.approx(
            projection_distance(W, U), abs=1e-10
        )


class TestSubspaceCaptureBound:
    def test_holds_on_random_instances(self):
        for trial in range(30):
            instance = RngSeed(90, trial)
            m = 8 + trial % 5
            n = 6 + trial % 4
            k = 1 + trial % (min(m, n) // 2)
            p = trial % 4
            A = gaussian_matrix(m, n, instance)
            S = gaussian_matrix(n, k, instance.bump_stream(1))
            report = subspace_capture_bound(A, S, k, p)
            assert report.satisfied, (
                f"trial {trial}: measured {report.measured} > "
                f"bound {report.bound} + tol {report.tol}"
            )
            assert report.label == "sketched-subspace capture"

    def test_holds_with_k_near_n_at_depth(self):
        # The benchmark's Gaussian certificate instances where a sketched
        # power product loses directions to rounding: k within 1-3 of n,
        # sigma_1/sigma_k of 5-50 and 5-10 passes.
        rng = np.random.default_rng(93)
        checked = 0
        while checked < 100:
            m = int(rng.integers(24, 61))
            n = int(rng.integers(16, min(m, 48) + 1))
            k, p = n - int(rng.integers(1, 4)), int(rng.integers(5, 11))
            A, S = rng.standard_normal((m, n)), rng.standard_normal((n, k))
            sigma = np.linalg.svd(A, compute_uv=False)
            if not 5.0 <= sigma[0] / sigma[k - 1] <= 50.0:
                continue
            checked += 1
            report = subspace_capture_bound(A, S, k, p)
            assert report.satisfied, (
                f"m={m} n={n} k={k} p={p}: measured {report.measured} > "
                f"bound {report.bound} + tol {report.tol}"
            )

    def test_bound_decays_by_squared_gap_per_pass(self):
        A = gaussian_matrix(9, 7, RngSeed(91))
        S = gaussian_matrix(7, 2, RngSeed(92))
        profile = gap_profile(A, 2)
        reports = [subspace_capture_bound(A, S, 2, p) for p in range(4)]
        for shallow, deep in zip(reports, reports[1:]):
            assert deep.bound / shallow.bound == pytest.approx(
                profile.gamma_k**2, rel=1e-12
            )

    def test_exact_rank_k_has_no_tail(self):
        rng = np.random.default_rng(93)
        A = rank_k_matrix(rng, 8, 6, 3)
        S = rng.standard_normal((6, 3))
        report = subspace_capture_bound(A, S, 3, 2)
        assert report.measured == 0.0 and report.bound == 0.0
        assert report.satisfied

    def test_sketch_missing_the_subspace_is_degenerate(self):
        A = np.diag([4.0, 3.0, 2.0, 1.0, 0.5])
        S = np.eye(5)[:, 2:4]  # tail directions only: V_k^T S = 0 exactly
        with pytest.raises(DegenerateSketch):
            subspace_capture_bound(A, S, 2, 1)

    def test_zero_sketch_is_degenerate(self):
        with pytest.raises(DegenerateSketch):
            subspace_capture_bound(DIAG, np.zeros((4, 2)), 2, 1)

    def test_rejects_negative_depth(self):
        S = gaussian_matrix(4, 2, RngSeed(94))
        with pytest.raises(ValueError):
            subspace_capture_bound(DIAG, S, 2, -1)

    def test_rejects_sketch_shape_mismatch(self):
        with pytest.raises(ValueError, match="sketch"):
            subspace_capture_bound(DIAG, np.ones((4, 3)), 2, 1)
        with pytest.raises(ValueError, match="sketch"):
            subspace_capture_bound(DIAG, np.ones((5, 2)), 2, 1)

    def test_rejects_bad_level(self):
        S = gaussian_matrix(4, 2, RngSeed(95))
        with pytest.raises(InvalidTruncation):
            subspace_capture_bound(DIAG, np.ones((4, 5)), 5, 1)


class TestErrorChain:
    def test_all_links_hold_on_random_instances(self):
        for trial in range(20):
            instance = RngSeed(100, trial)
            m = 9 + trial % 6
            n = 7 + trial % 5
            k = 1 + trial % (min(m, n) // 2)
            p = trial % 4
            A = gaussian_matrix(m, n, instance)
            b = gaussian_vector(m, instance.bump_stream(1))
            reports = error_chain(A, b, k, p, instance.bump_stream(2))
            assert len(reports) == 3
            for report in reports:
                assert report.satisfied, (
                    f"trial {trial} [{report.label}]: measured {report.measured} "
                    f"> bound {report.bound} + tol {report.tol}"
                )

    def test_report_labels(self):
        A = gaussian_matrix(8, 6, RngSeed(101))
        b = gaussian_vector(8, RngSeed(102))
        reports = error_chain(A, b, 2, 1, RngSeed(103))
        assert [r.label for r in reports] == [
            "solution-perturbation",
            "truncated-singular-value floor",
            "projected-truncation gap",
        ]

    def test_rejects_bad_level(self):
        A = gaussian_matrix(8, 6, RngSeed(104))
        b = gaussian_vector(8, RngSeed(105))
        with pytest.raises(InvalidTruncation):
            error_chain(A, b, 0, 1, RngSeed(106))
        with pytest.raises(InvalidTruncation):
            error_chain(A, b, 7, 1, RngSeed(106))

    def test_rhs_length_validated(self):
        A = gaussian_matrix(8, 6, RngSeed(107))
        with pytest.raises(ValueError):
            error_chain(A, np.ones(5), 2, 1, RngSeed(108))


class TestLowerBoundInstance:
    def test_separates_the_solvers_on_random_instances(self):
        for trial in range(20):
            instance = RngSeed(110, trial)
            m = 9 + trial % 5
            n = 7 + trial % 4
            k = 1 + trial % 3
            p = trial % 2
            A = gaussian_matrix(m, n, instance)
            approx = approx_truncated_svd(A, k, p, instance.bump_stream(3))
            result = lower_bound_instance(A, approx, k)
            b = result.b
            rhs_norm = np.linalg.norm(b)
            assert rhs_norm > 0.0
            exact = exact_truncated_solve(A, b, k)
            assert exact.residual_norm <= 1e-8 * rhs_norm
            x_approx = approx.V @ ((approx.U.T @ b) / approx.sigma)
            approx_residual = np.linalg.norm(A @ x_approx - b)
            assert approx_residual >= (result.epsilon_star - 1e-8) * rhs_norm

    def test_near_exact_approximation_is_negligible(self):
        A = np.diag([4.0, 3.0, 2.0, 1.0, 0.5])
        approx = approx_truncated_svd(A, 2, 60, RngSeed(111))
        result = lower_bound_instance(A, approx, 2)
        assert result.negligible
        assert result.epsilon_star <= 1e-12
        assert np.linalg.norm(result.b) > 0.0

    def test_exact_factors_leave_a_zero_failure_block(self):
        # The exact pair reproduces A_k, so (I - A_k A~_k^+) A_k is exactly
        # zero, has no SVD, and the instance falls back to A's leading
        # right singular vector.
        approx = TruncatedFactorization(
            U=np.eye(4)[:, :2], sigma=np.ones(2), V=np.eye(4)[:, :2], k=2, kind="approximate"
        )
        result = lower_bound_instance(np.eye(4), approx, 2)
        assert result.epsilon_star == 0.0
        assert result.negligible
        assert np.array_equal(result.b, [1.0, 0.0, 0.0, 0.0])

    def test_rejects_level_mismatch(self):
        A = gaussian_matrix(8, 6, RngSeed(112))
        approx = approx_truncated_svd(A, 2, 1, RngSeed(113))
        with pytest.raises(ValueError, match="level"):
            lower_bound_instance(A, approx, 3)

    def test_certificate_holds_at_level_equal_to_rank(self):
        # No tail: the sketched factors capture all of A, so the instance
        # separates nothing and both solvers fit b.
        rng = np.random.default_rng(114)
        A = rank_k_matrix(rng, 8, 6, 3)
        approx = approx_truncated_svd(A, 3, 2, RngSeed(115))
        result = lower_bound_instance(A, approx, 3)
        assert result.negligible
        rhs_norm = np.linalg.norm(result.b)
        assert rhs_norm > 0.0
        assert exact_truncated_solve(A, result.b, 3).residual_norm <= 1e-8 * rhs_norm
        x_approx = approx.V @ ((approx.U.T @ result.b) / approx.sigma)
        approx_residual = np.linalg.norm(A @ x_approx - result.b)
        assert approx_residual >= (result.epsilon_star - 1e-8) * rhs_norm

    def test_rejects_factor_shape_mismatch(self):
        A = gaussian_matrix(10, 8, RngSeed(116))
        other = gaussian_matrix(9, 7, RngSeed(117))
        approx = approx_truncated_svd(other, 2, 1, RngSeed(118))
        with pytest.raises(ValueError, match="shape"):
            lower_bound_instance(A, approx, 2)

    def test_rejects_uninvertible_approximation(self):
        A = np.eye(5)
        approx = TruncatedFactorization(
            U=np.eye(5)[:, :2],
            sigma=np.array([1.0, 1e-14]),
            V=np.eye(5)[:, :2],
            k=2,
            kind="approximate",
        )
        with pytest.raises(IllConditionedTruncation):
            lower_bound_instance(A, approx, 2)
