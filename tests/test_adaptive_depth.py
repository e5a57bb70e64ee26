"""The adaptive randomized solve behind ``trunclsq solve --epsilon --delta``.

adaptive_truncated_solve runs orthonormalized subspace iteration on the
sketch approx_truncated_solve draws, re-solves at checkpoints whose depths
double, and stops once x has settled to the (epsilon, 4/3 epsilon) target or
the paper's depth rule, evaluated on the current Ritz values, is reached.
"""

import subprocess
import sys

import numpy as np
import pytest

from helpers import hard_spectrum_problem, random_orthonormal
from trunclsq import (
    InvalidTruncation,
    NoSpectralGap,
    RngSeed,
    adaptive_truncated_solve,
    approx_truncated_solve,
    choose_power_depth,
    exact_truncated_solve,
    gap_profile,
    gaussian_matrix,
    gaussian_vector,
    load_vector,
    save_matrix,
    save_vector,
    synthetic_problem,
)
from trunclsq import regression as regression_module
from trunclsq.cli import main


def relative_error(x, reference):
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


def test_meets_joint_accuracy_targets_on_the_acceptance_instance():
    """The instance of test_chosen_depth_meets_joint_accuracy_targets (gap
    0.5, size 100, level 5, epsilon=0.2, delta=0.1): both targets must hold
    jointly in at least 70% of 200 sketch draws, never past the paper depth."""
    epsilon, delta = 0.2, 0.1
    problem = synthetic_problem(100, 5, 0.5, 0.2, RngSeed(42))
    A, b, k = problem.A, problem.b, problem.k
    cap = choose_power_depth(epsilon, delta, problem.gap_profile)
    exact = exact_truncated_solve(A, b, k)
    rhs_norm = np.linalg.norm(b)
    successes = 0
    for trial in range(200):
        approx = adaptive_truncated_solve(A, b, k, epsilon, delta, RngSeed(4242, trial))
        assert approx.p <= cap
        residual_ok = approx.residual_norm <= exact.residual_norm + epsilon * rhs_norm
        solution_ok = relative_error(approx.x, exact.x) <= (4.0 / 3.0) * epsilon
        successes += residual_ok and solution_ok
    assert successes >= 140, f"joint accuracy target met in only {successes}/200 trials"


def test_settles_far_below_the_worst_case_depth():
    # Gap 0.99 at k, as in the benchmark sweep: the paper's rule asks for
    # hundreds of passes, while x settles within a few dozen.
    epsilon, delta = 0.05, 0.1
    problem = synthetic_problem(200, 10, 0.99, 0.2, RngSeed(21))
    exact = exact_truncated_solve(problem.A, problem.b, 10)
    approx = adaptive_truncated_solve(problem.A, problem.b, 10, epsilon, delta, RngSeed(22))
    assert approx.p <= choose_power_depth(epsilon, delta, problem.gap_profile) / 4
    assert relative_error(approx.x, exact.x) <= (4.0 / 3.0) * epsilon


def test_meets_the_solution_target_within_the_cap_on_every_seed():
    # Checkpoints double in depth, so the stop rule extrapolates what is to
    # come from the last two changes at the rate per doubling; on 24
    # (problem, sketch) pairs across sizes and gaps every stop is within
    # the (4/3) epsilon solution-error target and the paper's depth.
    epsilon, delta = 0.05, 0.1
    for trial in range(24):
        n, gamma = (60, 100, 200, 300)[trial % 4], (0.9, 0.95, 0.99)[trial % 3]
        problem = synthetic_problem(n, 10, gamma, 0.2, RngSeed(30, trial))
        exact = exact_truncated_solve(problem.A, problem.b, 10)
        approx = adaptive_truncated_solve(problem.A, problem.b, 10, epsilon, delta,
                                          RngSeed(31, trial))
        assert relative_error(approx.x, exact.x) <= (4.0 / 3.0) * epsilon, trial
        assert approx.p <= choose_power_depth(epsilon, delta, problem.gap_profile), trial


@pytest.mark.parametrize("stream", range(3))
def test_hard_spectrum_meets_the_solution_target(stream):
    epsilon, delta = 0.05, 0.1
    A, b, k = hard_spectrum_problem()
    exact = exact_truncated_solve(A, b, k)
    approx = adaptive_truncated_solve(A, b, k, epsilon, delta, RngSeed(9, stream))
    assert relative_error(approx.x, exact.x) <= (4.0 / 3.0) * epsilon
    assert approx.p <= choose_power_depth(epsilon, delta, gap_profile(A, k))
    # The fixed-depth path on the same sketch: every direction of the head
    # survives the passes, so the error falls with depth.
    errors = [relative_error(approx_truncated_solve(A, b, k, p, RngSeed(9, stream)).x, exact.x)
              for p in (2, 4, 8, 16)]
    assert errors == sorted(errors, reverse=True) and errors[-1] < 1e-8


def test_wide_dynamic_range_diagonal_matches_the_exact_solve(tmp_path):
    # sigma_2 / sigma_1 = 1e-4: an unnormalized power product loses the
    # second direction to underflow long before p = 40.
    A = np.diag([1.0, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    b = np.arange(1.0, 7.0)
    approx = adaptive_truncated_solve(A, b, 2, 0.05, 0.1, RngSeed(1))
    exact = exact_truncated_solve(A, b, 2)
    np.testing.assert_allclose(approx.x, exact.x, rtol=0.0, atol=1e-8 * np.linalg.norm(exact.x))
    assert approx.method == "adaptive_truncated" and approx.k == 2
    save_matrix(A, tmp_path / "A.mtx")
    save_vector(b, tmp_path / "b.mtx")
    files = [str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx")]
    assert main(["solve", *files, "--k", "2", "--p", "40", "--output", str(tmp_path / "x.mtx")]) == 0
    assert main(["exact", *files, "--k", "2", "--output", str(tmp_path / "exact.mtx")]) == 0
    np.testing.assert_allclose(load_vector(tmp_path / "x.mtx"), load_vector(tmp_path / "exact.mtx"),
                               rtol=0.0, atol=1e-8 * np.linalg.norm(exact.x))


def test_tied_spectrum_has_no_spectral_gap(tmp_path):
    b = np.arange(1.0, 7.0)
    with pytest.raises(NoSpectralGap):
        adaptive_truncated_solve(np.eye(6), b, 2, 0.05, 0.1, RngSeed(1))
    save_matrix(np.eye(6), tmp_path / "A.mtx")
    save_vector(b, tmp_path / "b.mtx")
    argv = ["solve", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"), "--k", "2",
            "--epsilon", "0.05", "--delta", "0.1"]
    assert main(argv) == 1


def test_exact_rank_k_stops_before_any_pass():
    # sigma_{k+1} = 0: the depth rule gives 0, and the sketch already spans
    # the range.
    rng = np.random.default_rng(7)
    A = (random_orthonormal(rng, 30, 3) * [3.0, 2.0, 1.0]) @ random_orthonormal(rng, 20, 3).T
    b = rng.standard_normal(30)
    approx = adaptive_truncated_solve(A, b, 3, 0.05, 0.1, RngSeed(2))
    assert approx.p == 0
    np.testing.assert_allclose(approx.x, exact_truncated_solve(A, b, 3).x, atol=1e-10)


@pytest.mark.parametrize("cap", [0, 3, 7])
def test_depth_stops_at_the_cap(monkeypatch, cap):
    # gap 0.99 at k: x is far from settled after a handful of passes.
    problem = synthetic_problem(60, 4, 0.99, 0.2, RngSeed(5))
    monkeypatch.setattr(regression_module, "choose_power_depth", lambda *args: cap)
    approx = adaptive_truncated_solve(problem.A, problem.b, 4, 0.01, 0.1, RngSeed(6))
    assert approx.p == cap


def test_bitwise_reproducible_per_seed():
    problem = synthetic_problem(80, 6, 0.9, 0.2, RngSeed(11))
    args = (problem.A, problem.b, 6, 0.05, 0.1)
    first = adaptive_truncated_solve(*args, RngSeed(3))
    again = adaptive_truncated_solve(*args, RngSeed(3))
    other = adaptive_truncated_solve(*args, RngSeed(4))
    assert first.x.tobytes() == again.x.tobytes() and first.p == again.p
    assert first.x.tobytes() != other.x.tobytes()
    fixed = approx_truncated_solve(*args[:3], first.p, RngSeed(3))
    assert relative_error(first.x, fixed.x) <= 1e-12


@pytest.mark.parametrize("trial", range(10))
def test_stops_on_the_fixed_depth_solution(trial):
    # Both depth modes finish with the same Ritz step on the same sketch and
    # depth; on these square matrices the fixed-depth walk climbs the Gram
    # ladder, which moves x in the last digits only.
    n, k = 30 + 5 * trial, 2 + trial % 4
    problem = synthetic_problem(n, k, (0.5, 0.9, 0.99)[trial % 3], 0.2, RngSeed(70, trial))
    approx = adaptive_truncated_solve(problem.A, problem.b, k, 0.05, 0.1, RngSeed(71, trial))
    fixed = approx_truncated_solve(problem.A, problem.b, k, approx.p, RngSeed(71, trial))
    assert relative_error(approx.x, fixed.x) <= 1e-12


def test_stops_on_the_fixed_depth_solution_on_a_tall_matrix():
    # A tall A climbs no rung, so both walks take the same two-product
    # passes; the adaptive walk's checkpoints take QRs that the fixed walk
    # does not, which moves x in the last digits only.
    rng = np.random.default_rng(72)
    sigma = np.concatenate([np.linspace(2.0, 1.0, 4), 0.9 * np.linspace(1.0, 0.1, 36)])
    A = (random_orthonormal(rng, 90, 40) * sigma) @ random_orthonormal(rng, 40, 40).T
    b = rng.standard_normal(90)
    approx = adaptive_truncated_solve(A, b, 4, 0.01, 0.1, RngSeed(73))
    fixed = approx_truncated_solve(A, b, 4, approx.p, RngSeed(73))
    assert approx.p >= 10
    assert relative_error(approx.x, fixed.x) <= 1e-12


def test_stops_on_the_fixed_depth_solution_below_the_sketch_width():
    # Rank 4 < l = 6: the QR completes the basis to R^6 on both paths, so
    # both solve on the one sketch and give exact's x; the adaptive walk's
    # checkpoint QRs move it in the last digits only.
    A, b = np.diag([4.0, 3.0, 2.0, 1.0, 0.0, 0.0]), np.arange(1.0, 7.0)
    approx = adaptive_truncated_solve(A, b, 2, 0.05, 0.1, RngSeed(67))
    fixed = approx_truncated_solve(A, b, 2, approx.p, RngSeed(67))
    assert relative_error(approx.x, fixed.x) <= 1e-12
    exact = exact_truncated_solve(A, b, 2).x
    np.testing.assert_allclose(approx.x, exact, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("shape, k", [((50, 20), 17), ((20, 50), 16), ((24, 24), 21)],
                         ids=["tall", "wide", "square"])
@pytest.mark.parametrize("epsilon", [0.05, 1e-6])
def test_stops_at_depth_zero_where_the_sketch_spans_the_whole_range(shape, k, epsilon):
    # l = min(k + 4, m, n) = min(m, n): the sketch spans A's range at every
    # depth, so the first checkpoint's x is final.
    A = gaussian_matrix(*shape, RngSeed(70, k))
    b = gaussian_vector(shape[0], RngSeed(71, k))
    approx = adaptive_truncated_solve(A, b, k, epsilon, 0.1, RngSeed(72))
    assert approx.p == 0
    fixed = approx_truncated_solve(A, b, k, 0, RngSeed(72)).x
    assert relative_error(approx.x, fixed) <= 1e-12
    assert relative_error(approx.x, exact_truncated_solve(A, b, k).x) <= 1e-12


@pytest.mark.parametrize("diagonal, k", [([4.0, 3.0, 0.0, 0.0, 0.0, 0.0], 3),
                                         ([3.0, 2.0, 1.0, 0.0, 0.0], 4)],
                         ids=["rank-2-at-k3", "rank-3-at-k4"])
@pytest.mark.parametrize("solve", [
    lambda A, b, k: exact_truncated_solve(A, b, k),
    lambda A, b, k: approx_truncated_solve(A, b, k, 3, RngSeed(1)),
    lambda A, b, k: adaptive_truncated_solve(A, b, k, 0.05, 0.1, RngSeed(1)),
    lambda A, b, k: gap_profile(A, k),
], ids=["exact", "approx", "adaptive", "gap_profile"])
def test_rank_below_k_is_an_invalid_truncation(solve, diagonal, k):
    # One level check for every solver: the exact SVD and the Ritz step both
    # see rank k - 1 and refuse it the same way.
    A = np.diag(diagonal)
    with pytest.raises(InvalidTruncation, match=rf"k={k} must satisfy 1 <= k <= rank \({k - 1}\)"):
        solve(A, np.arange(1.0, A.shape[0] + 1.0), k)


def test_cli_runs_give_byte_identical_stdout(tmp_path):
    problem = synthetic_problem(60, 4, 0.9, 0.2, RngSeed(8))
    save_matrix(problem.A, tmp_path / "A.mtx")
    save_vector(problem.b, tmp_path / "b.mtx")
    argv = [sys.executable, "-m", "trunclsq", "solve", str(tmp_path / "A.mtx"),
            str(tmp_path / "b.mtx"), "--k", "4", "--epsilon", "0.05", "--delta", "0.1",
            "--seed", "3"]
    runs = [subprocess.run(argv, capture_output=True, timeout=120) for _ in range(2)]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    cap = choose_power_depth(0.05, 0.1, problem.gap_profile)
    depth = next(line for line in runs[0].stdout.decode().splitlines() if line.startswith("p = "))
    assert 0 <= int(depth[len("p = "):]) <= cap
