"""Randomized range finder and the sketched truncated factorization."""

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    count_linalg_calls,
    hard_spectrum_problem,
    projection_distance_oracle,
    random_orthonormal,
    rank_k_matrix,
)
from trunclsq import (
    InvalidTruncation,
    RngSeed,
    adaptive_truncated_solve,
    approx_truncated_solve,
    approx_truncated_svd,
    gaussian_matrix,
    power_basis,
    power_basis_from_sketch,
    power_product,
    synthetic_problem,
)
from trunclsq import subspace as subspace_module
from trunclsq.linalg import solve_factored


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
        real = subspace_module._orthonormalize

        def counting(Yt, *args):
            calls.append(Yt.shape)
            return real(Yt, *args)

        monkeypatch.setattr(subspace_module, "_orthonormalize", counting)
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
        # spreads the block by about e^6.4, within the 1e4 gate.  Two such
        # steps would spread it past two thirds of the 1e6 limit, so a QR
        # follows every step after the second QR.
        rungs_at_qr = []
        real = subspace_module._orthonormalize

        def counting(*args):
            rungs_at_qr.append(len(ladder.rungs))
            return real(*args)

        monkeypatch.setattr(subspace_module, "_orthonormalize", counting)
        problem = synthetic_problem(100, 20, 0.99, 0.2, RngSeed(60))
        power_product(problem.A, gaussian_matrix(100, 24, RngSeed(61)), 47)
        assert rungs_at_qr[:2] == [0, 4] and set(rungs_at_qr[1:]) == {4}

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

    @pytest.mark.parametrize("m, n", [(100, 100), (200, 200), (300, 300), (400, 400),
                                      (500, 500), (300, 120)],
                             ids=["100", "200", "300", "400", "500", "300x120"])
    def test_ladder_matches_a_qr_every_pass_reference(self, m, n):
        # The float64 range finder matches the reference to 1e-9; the solve,
        # whose walk may run its ladder in float32 from n = 200 on, moves
        # x by at most 1e-6 relative from it.  A tall A runs two-product
        # passes only; it gets the same gap 0.99 at k = 20.
        if m == n:
            problem = synthetic_problem(n, 20, 0.99, 0.2, RngSeed(67, n))
            A, b = problem.A, problem.b
        else:
            rng = np.random.default_rng(67)
            U, sigma, Vt = np.linalg.svd(rng.standard_normal((m, n)), full_matrices=False)
            sigma[20:] *= 0.99 * sigma[19] / sigma[20]
            A, b = (U * sigma) @ Vt, rng.standard_normal(m)
        p, seed = math.ceil(10 * math.log(n)), RngSeed(68, n)
        fact = subspace_module.ritz_factorization(A, power_basis(A, 20, p, seed), 20)[1]
        x = solve_factored(fact, b)
        reference = reference_solve(A, b, 20, p, seed)
        assert np.linalg.norm(x - reference) <= 1e-9 * np.linalg.norm(reference)
        solved = approx_truncated_solve(A, b, 20, p, seed).x
        assert np.linalg.norm(solved - x) <= 1e-6 * np.linalg.norm(x)

    @pytest.mark.parametrize("n, rounding, exponent", [
        pytest.param(200, np.float32, 300, id="300"),
        pytest.param(200, np.float32, -300, id="-300"),
        pytest.param(100, np.float64, 300, id="float64-300"),
        pytest.param(100, np.float64, -300, id="float64--300"),
    ])
    def test_ladder_keeps_a_scaled_matrix_in_range(self, n, rounding, exponent):
        # sigma_1^(2^j) leaves float64's range from G^4 on at either scale
        # unless each rung is rescaled, and A itself lies outside float32's
        # range unless its float32 copy is rescaled.
        problem = synthetic_problem(n, 20, 0.99, 0.2, RngSeed(69))
        p, seed, scale = math.ceil(10 * math.log(n)), RngSeed(70), 2.0**exponent
        basis = power_basis(scale * problem.A, 20, p, seed, dtype=np.float32)
        assert basis.dtype == rounding
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


def perfbench_inputs():
    """The benchmark's input generators (numpy only), loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def instrument_qrs(monkeypatch):
    """Instruments the walk's QRs.  Returns a function that runs one walk
    and returns a record of each QR it took: the passes of its interval, how
    far past the spread or drift limit of its precision its block read, in
    log terms, and whether it ran numpy's Householder QR rather than a
    Cholesky QR."""
    real_qr, real = np.linalg.qr, subspace_module._orthonormalize
    record, householder = [], [0]

    def counting_qr(*args, **kwargs):
        householder[0] += 1
        return real_qr(*args, **kwargs)

    def reading(Yt, passes, steps, cholesky):
        R = real_qr(Yt.T.astype(np.float64), mode="r")
        logs = np.log(np.maximum(np.abs(np.diag(R)), np.finfo(np.float64).tiny))
        limits = subspace_module._FLOAT32 if Yt.dtype == np.float32 else subspace_module._FLOAT64
        excess = max(logs.max() - logs.min() - limits.spread, np.abs(logs).max() - limits.drift)
        before = householder[0]
        result = real(Yt, passes, steps, cholesky)
        record.append(SimpleNamespace(passes=passes, excess=excess, dtype=Yt.dtype,
                                      householder=householder[0] > before))
        return result

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(subspace_module, "_orthonormalize", reading)

    def run(walk, *args, **kwargs):
        record.clear()
        walk(*args, **kwargs)
        return list(record)

    return run


def overshoots(qrs):
    """How far past its limit each QR after the first read, where its
    interval ran more than one pass."""
    return [qr.excess for qr in qrs[1:] if qr.passes > 1 and qr.excess > 0]


def checked(qrs) -> int:
    """The QRs after the first whose interval ran more than one pass."""
    return sum(qr.passes > 1 for qr in qrs[1:])


@pytest.fixture
def qr_walk(monkeypatch):
    return instrument_qrs(monkeypatch)


@pytest.fixture(scope="class")
def paper_grid_qrs():
    """The QRs of the 100 walks of the benchmark's generator at seeds 1..5:
    two problems per n and two sketches each, at the paper's depth, both in
    float64 and as the solver asks for them."""
    inputs = perfbench_inputs()
    walks = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        run = instrument_qrs(monkeypatch)
        for seed in range(1, 6):
            for n in inputs.PAPER_GRID:
                p = inputs.paper_depth(n)
                for j in range(2):
                    rng = inputs.rng_for(seed, inputs.TAG_PAPER_SWEEP, n, j)
                    A = inputs.paper_problem(n, 20, 0.99, 0.2, rng).A
                    for sketch_seed in rng.integers(inputs.SEED_LIMIT, size=2):
                        args = (A, 20, p, RngSeed(int(sketch_seed)))
                        for rounding in (np.float64, np.float32):
                            walks.append(((seed, n, j), run(power_basis, *args, dtype=rounding)))
    return walks


class TestQRSchedule:
    """No QR after a walk's first reads a spread or drift past the limits of
    the precision its block is in: a spread of 1e6 and a drift of 1e100 in
    float64, 1e4 and 1e15 in float32.  An interval of one pass is exempt,
    since no schedule can split it."""

    def test_paper_grid_walks_stay_within_the_limit(self, paper_grid_qrs):
        # Each first QR reads A S and pass 1, one and a half passes, so the
        # fixture reads each interval's passes; every float32 walk, and all
        # the walks together at least once a walk, check a later QR.
        for walk, qrs in paper_grid_qrs:
            assert qrs[0].passes == 1.5, walk
            assert overshoots(qrs) == [], walk
        assert all(checked(qrs) >= 1 for _, qrs in paper_grid_qrs[1::2])
        assert sum(checked(qrs) for _, qrs in paper_grid_qrs) >= len(paper_grid_qrs)

    def test_paper_grid_walks_take_only_cholesky_qrs(self, paper_grid_qrs):
        # The first QR reads a block no reading bounds, whose diag L reads
        # within float64's spread limit all the same; every later one plans
        # within that limit.  All of them take the cheaper Cholesky QR
        # without falling back.
        for walk, qrs in paper_grid_qrs:
            assert not any(qr.householder for qr in qrs), walk

    def test_hard_spectrum_walks_stay_within_the_limit(self, qr_walk):
        A, _, k = hard_spectrum_problem()
        for M in (A, A.T):
            for stream in range(3):
                for p in (2, 4, 8, 16):
                    qrs = qr_walk(power_basis, M, k, p, RngSeed(9, stream), dtype=np.float32)
                    assert len(qrs) >= 2 or p == 2
                    assert overshoots(qrs) == []

    def test_certificate_walks_stay_within_the_limit(self, qr_walk):
        inputs = perfbench_inputs()
        later = 0
        for i in range(200):
            instance = inputs.certificate_instance(
                inputs.rng_for(1, inputs.TAG_CERTIFICATES, i), clustered=i % 2 == 1)
            A, k, p = instance.problem.A, instance.problem.k, instance.p
            for qrs in (qr_walk(power_basis_from_sketch, A, instance.S, p),
                        qr_walk(power_basis, A, k, p, RngSeed(instance.solve_seed),
                                dtype=np.float32)):
                assert overshoots(qrs) == []
                later += checked(qrs)
        # Most of these walks are too short for a second QR; 98 QRs come
        # after a first.
        assert later >= 50

    def test_adaptive_walks_stay_within_the_limit(self, qr_walk):
        # The segmented walk plans to the same margin and carries its
        # reading across checkpoints; at epsilon = 0.05 its segments run
        # their ladder in float32 from n = 300 on, whose QRs read at least
        # 1.2 nats inside float32's limit on the benchmark's seeds 1 to 5.
        inputs = perfbench_inputs()
        float32 = 0
        for seed in range(1, 4):
            for n in (100, 300, 500):
                rng = inputs.rng_for(seed, inputs.TAG_PAPER_SWEEP, n, 0)
                problem = inputs.paper_problem(n, 20, 0.99, 0.2, rng)
                for sketch_seed in rng.integers(inputs.SEED_LIMIT, size=2):
                    qrs = qr_walk(adaptive_truncated_solve, problem.A, problem.b, 20, 0.05, 0.1,
                                  RngSeed(int(sketch_seed)))
                    assert checked(qrs) >= 1, (seed, n)
                    assert overshoots(qrs) == [], (seed, n)
                    float32 += sum(qr.passes > 1 for qr in qrs[1:] if qr.dtype == np.float32)
        # 29 such QRs on these 18 solves.
        assert float32 >= 20


class TestCholeskyQR:
    def test_blocks_without_a_bounded_spread_fall_back_to_householder(self, qr_walk):
        # A of rank 10 below the sketch width 14: past the first QR the
        # block's last columns are rounding noise, so every later QR is
        # Householder, which completes the basis with orthonormal columns.
        # The hard spectrum spreads the block by about 1e6 a pass, past what
        # the walk plans a Cholesky QR for.
        rng = np.random.default_rng(90)
        A = rank_k_matrix(rng, 200, 200, 10)
        hard, _, k = hard_spectrum_problem()
        for M, width, p in ((A, 10, 40), (hard, k, 16), (hard.T, k, 16)):
            qrs = qr_walk(power_basis, M, width, p, RngSeed(91))
            assert len(qrs) >= 3 and all(qr.householder for qr in qrs)
            Q = power_basis(M, width, p, RngSeed(91))
            assert np.all(np.isfinite(Q))
            assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1]))) <= 1e-12

    def test_a_failed_cholesky_falls_back_to_householder(self):
        rng = np.random.default_rng(92)
        for Yt in (np.zeros((4, 30)), rank_k_matrix(rng, 4, 30, 2),
                   np.diag([1.0, 1e-8, 1.0, 1.0]) @ rng.standard_normal((4, 30))):
            Qt, spread, drift = subspace_module._orthonormalize(Yt, 2, 2, True)
            assert np.all(np.isfinite(Qt)) and spread >= 0 and drift >= 0
            assert np.max(np.abs(Qt @ Qt.T - np.eye(4))) <= 1e-14

    def test_cholesky_reads_what_householder_reads(self):
        # diag L of the Gram's Cholesky factor is |diag R| in exact
        # arithmetic; a float32 block's Gram is formed in float64.
        rng = np.random.default_rng(93)
        Yt = np.diag(np.logspace(0, -5, 24)) @ rng.standard_normal((24, 300))
        for block in (Yt, Yt.astype(np.float32)):
            cholesky = subspace_module._orthonormalize(block, 3, 2, True)
            householder = subspace_module._orthonormalize(block, 3, 2, False)
            assert cholesky[0].dtype == householder[0].dtype == block.dtype
            # diag L carries the Gram's rounding, about kappa^2 u = 1e-6
            # relative on the weakest column.
            assert_allclose(cholesky[1:], householder[1:], rtol=0, atol=1e-6)
            Qt = cholesky[0].astype(np.float64)
            atol = 1e-6 if block.dtype == np.float32 else 1e-10
            assert np.max(np.abs(Qt @ Qt.T - np.eye(24))) <= atol
            Q = np.linalg.qr(Yt.T)[0]
            assert projection_distance_oracle(Qt.T, Q) <= atol

    def test_short_blocks_take_householder(self, qr_walk):
        # A Cholesky QR is dearer than Householder on a block under 1.5 l
        # rows, as on the certificate-shaped 30-by-28 A sketched 24 wide, and
        # on one under 64 rows, as on the 60-by-16 A sketched 14 wide: every
        # QR of their walks, the first included, is Householder.  At 72 rows,
        # 1.5 times the sketch width 48, every one is a Cholesky QR.
        rng = np.random.default_rng(94)
        for m, n, k, householder in ((30, 28, 20, True), (60, 16, 10, True),
                                     (71, 80, 44, True), (72, 80, 44, False),
                                     (100, 80, 20, False)):
            A = rng.standard_normal((m, n))
            qrs = qr_walk(power_basis, A, k, 6, RngSeed(95))
            assert qrs and all(qr.householder == householder for qr in qrs), m

    @pytest.mark.parametrize("rank, householder", [(10, True), (14, False)])
    def test_float32_basis_falls_back_to_householder_past_float32s_limit(
            self, monkeypatch, rank, householder):
        # A float32 iterate of rank 10 below its width 14 reads a spread far
        # past float32's 1e4: its basis is Householder's, which completes it
        # with orthonormal columns.  A full-rank one takes the Cholesky QR.
        # Either basis is float32 and spans the iterate.
        Y = rank_k_matrix(np.random.default_rng(96), 200, 14, rank).astype(np.float32)
        monkeypatch.setattr(subspace_module, "power_product", lambda *args, **kwargs: Y)
        real, calls = subspace_module.qr_factor, []
        monkeypatch.setattr(subspace_module, "qr_factor", lambda M: calls.append(M) or real(M))
        Q = power_basis_from_sketch(np.eye(200), np.ones((200, 14)), 3, dtype=np.float32)
        assert Q.dtype == np.float32 and len(calls) == householder
        Q = Q.astype(np.float64)
        assert np.max(np.abs(Q.T @ Q - np.eye(14))) <= 1e-6
        Y = Y.astype(np.float64)
        assert np.linalg.norm(Y - Q @ (Q.T @ Y)) <= 1e-6 * np.linalg.norm(Y)


class TestFloat32Ladder:
    @pytest.mark.parametrize("dtype, exponents, weak", [
        (np.float64, (-520, -300, 0, 300, 500), -530),
        (np.float32, (-30, 0, 30), -70),
    ])
    def test_rungs_scale_as_ldexp_does(self, dtype, exponents, weak):
        # A rung is scaled by multiplying where the power of two is a normal
        # number of its precision, which rounds as ldexp does, subnormal
        # entries included; beyond that range it runs ldexp.  A weak row
        # leaves entries subnormal after the scaling.
        rng = np.random.default_rng(98)
        for exponent in exponents:
            M = (rng.standard_normal((30, 20)) * 2.0**exponent).astype(dtype)
            M[0] *= dtype(2.0**weak)
            G = M @ M.T
            expected = np.ldexp(G, -np.frexp(G.trace())[1])
            assert subspace_module._rung(M).tobytes() == expected.tobytes(), exponent

    def test_float32_copy_is_bitwise_the_float64_scaling_cast(self):
        # The copy casts first where that rounds as scaling in float64 and
        # casting does; entries subnormal in float32 before or after the
        # scaling, and scales outside float32's normal range, take the
        # float64 scaling.
        rng = np.random.default_rng(97)
        for exponent in (-300, -140, -120, -10, 0, 3, 120, 140, 300):
            A = rng.standard_normal((20, 12)) * 2.0**exponent
            for head in ([0.0, -0.0, 1e-40, 2.0**(exponent - 130), -3.3 * 2.0**(exponent - 148)],
                         2.0**exponent):
                A[0, :5] = head
                expected = np.ldexp(A, -np.frexp(np.abs(A).max())[1]).astype(np.float32)
                assert subspace_module._float32_copy(A).tobytes() == expected.tobytes(), exponent

    def test_default_calls_never_round_at_float32(self, monkeypatch):
        # On a problem whose fixed-depth walk runs its ladder in float32 when
        # asked to, every call with default arguments stays in float64.
        problem = synthetic_problem(300, 20, 0.99, 0.2, RngSeed(81))
        A, b, p, seed = problem.A, problem.b, math.ceil(10 * math.log(300)), RngSeed(82)
        S = gaussian_matrix(300, 24, seed)
        assert power_product(A, S, p, dtype=np.float32).dtype == np.float32
        product = power_product(A, S, p, dtype=np.float64)
        basis = power_basis_from_sketch(A, S, p, dtype=np.float64)

        def refuse(matrix):
            raise AssertionError("a default call made a float32 copy of A")

        monkeypatch.setattr(subspace_module, "_float32_copy", refuse)
        assert power_product(A, S, p).tobytes() == product.tobytes()
        assert power_basis_from_sketch(A, S, p).tobytes() == basis.tobytes()
        checkpoint_walk(A, 20, seed, [16, 32, p])
        # The adaptive solve asks for float32 only at an epsilon whose target
        # dwarfs float32's rounding.
        assert adaptive_truncated_solve(A, b, 20, 1e-4, 0.1, seed).x.dtype == np.float64

    def test_underflowed_first_reading_keeps_float64(self):
        # Scaled by 2^-500, A S and the first pass underflow to zero and read
        # no spread, which would let a float32 ladder run without a QR.
        problem = synthetic_problem(200, 20, 0.99, 0.2, RngSeed(69))
        A, b = 2.0**-500 * problem.A, problem.b
        p, seed = math.ceil(10 * math.log(200)), RngSeed(70)
        assert power_basis(A, 20, p, seed, dtype=np.float32).dtype == np.float64
        fact = subspace_module.ritz_factorization(A, power_basis(A, 20, p, seed), 20)[1]
        x = approx_truncated_solve(A, b, 20, p, seed).x
        assert x.tobytes() == solve_factored(fact, b).tobytes()

    def test_paper_solves_stay_within_float32_rounding_of_the_float64_walk(self):
        # The first float32 interval is planned on a float64 reading taken
        # after one and a half passes, which runs low; planned at the
        # ordinary margin it reached a spread of e^8.9 against float32's
        # e^9.2 and moved x by 3.3e-6 at n = 300.
        inputs = perfbench_inputs()
        for n in inputs.PAPER_GRID[1:]:
            p = inputs.paper_depth(n)
            for j in range(4):
                rng = inputs.rng_for(1, inputs.TAG_PAPER_SWEEP, n, j)
                problem = inputs.paper_problem(n, 20, 0.99, 0.2, rng)
                A, b = problem.A, problem.b
                for sketch_seed in rng.integers(inputs.SEED_LIMIT, size=5)[:3]:
                    seed = RngSeed(int(sketch_seed))
                    fact = subspace_module.ritz_factorization(A, power_basis(A, 20, p, seed), 20)[1]
                    x = solve_factored(fact, b)
                    solved = approx_truncated_solve(A, b, 20, p, seed).x
                    assert np.linalg.norm(solved - x) <= 1e-6 * np.linalg.norm(x), (n, j)

    def test_precision_census_on_the_benchmark_inputs(self):
        # On the paper grid the flops float32 halves outweigh the QRs it adds
        # from n = 200 on; certificate walks are too small for it to pay.
        inputs = perfbench_inputs()
        for seed in (1, 2):
            for n in inputs.PAPER_GRID:
                for j in range(2):
                    rng = inputs.rng_for(seed, inputs.TAG_PAPER_SWEEP, n, j)
                    A = inputs.paper_problem(n, 20, 0.99, 0.2, rng).A
                    sketch_seed = int(rng.integers(inputs.SEED_LIMIT, size=5)[0])
                    Q = power_basis(A, 20, inputs.paper_depth(n), RngSeed(sketch_seed),
                                    dtype=np.float32)
                    assert Q.dtype == (np.float64 if n == 100 else np.float32), (seed, n, j)
            for i in range(100):
                instance = inputs.certificate_instance(
                    inputs.rng_for(seed, inputs.TAG_CERTIFICATES, i), clustered=i % 2 == 1)
                A, k, p = instance.problem.A, instance.problem.k, instance.p
                Q = power_basis(A, k, p, RngSeed(instance.solve_seed), dtype=np.float32)
                assert Q.dtype == np.float64, (seed, i)

    def test_small_wide_walk_keeps_float64(self):
        # Near m = 100 float32 adds about six loop QRs to the walk, more than
        # the flops it halves repay: on this shape float64 solved about 5 %
        # faster (min of 15, one thread).
        A = np.random.default_rng(0).standard_normal((100, 200))
        assert power_basis(A, 10, 47, RngSeed(1), dtype=np.float32).dtype == np.float64

    @pytest.mark.parametrize("gamma", [0.8, 0.9])
    def test_well_separated_spectrum_falls_back_to_float64(self, gamma):
        # At gap 0.9 or less and this depth the float64 solution is exact to
        # 1e-7 or better, below float32's rounding: the k-th Ritz residual
        # reads under the floor and the solve returns the float64 walk's x.
        problem = synthetic_problem(300, 20, gamma, 0.2, RngSeed(5))
        A, b, p, seed = problem.A, problem.b, math.ceil(10 * math.log(300)), RngSeed(6)
        assert power_basis(A, 20, p, seed, dtype=np.float32).dtype == np.float32
        fact = subspace_module.ritz_factorization(A, power_basis(A, 20, p, seed), 20)[1]
        x = approx_truncated_solve(A, b, 20, p, seed).x
        assert x.tobytes() == solve_factored(fact, b).tobytes()


def checkpoint_walk(A, k, seed, depths, **kwargs):
    """The Ritz steps of :func:`ritz_checkpoints` at depth 0 and at each of
    ``depths``, each segment planning its ladder on the next depth."""
    walk = subspace_module.ritz_checkpoints(A, k, seed, **kwargs)
    steps = [next(walk)]
    for depth, plan in zip(depths, [*depths[1:], depths[-1]]):
        steps.append(walk.send((depth, plan)))
    return steps


class TestRitzCheckpoints:
    @pytest.mark.parametrize("n", [100, 500])
    def test_spans_what_the_fixed_depth_walk_gives(self, ladder, n):
        # The segmented walk forms each rung once, squared from the one
        # before, and carries it to later segments; at every checkpoint its
        # Ritz values are the fixed-depth walk's, which depend only on the
        # span of the basis.
        problem = synthetic_problem(n, 20, 0.99, 0.2, RngSeed(73, n))
        A, p, seed = problem.A, math.ceil(10 * math.log(n)), RngSeed(74, n)
        steps = checkpoint_walk(A, 20, seed, [16, 32, p])
        assert ladder.sources[0] is A and len(ladder.rungs) >= 3
        assert all(source is rung for source, rung in zip(ladder.sources[1:], ladder.rungs))
        S = gaussian_matrix(n, 24, seed)
        for depth, ritz, _ in steps:
            fixed = np.linalg.svd(power_basis_from_sketch(A, S, depth).T @ A, compute_uv=False)
            assert_allclose(ritz.sigma, fixed, rtol=0, atol=1e-10 * fixed[0])

    def test_seeds_each_segment_with_the_checkpoints_cross_product(self, monkeypatch):
        # A tall A climbs no rung, so every segment opens with a two-product
        # pass, whose first product is the Q^T A its checkpoint's Ritz step
        # computed; both walks take the same passes.
        A = gaussian_matrix(90, 40, RngSeed(75))
        p, seed = math.ceil(10 * math.log(40)), RngSeed(76)
        fixed = np.linalg.svd(power_basis_from_sketch(A, gaussian_matrix(40, 9, seed), p).T @ A,
                              compute_uv=False)
        real, seeded = subspace_module._walk, []

        def walk(A, Yt, depth, ladder, **kwargs):
            seeded.append(kwargs["QtA"].tobytes() == (Yt @ A).tobytes())
            return real(A, Yt, depth, ladder, **kwargs)

        monkeypatch.setattr(subspace_module, "_walk", walk)
        depth, ritz, _ = checkpoint_walk(A, 5, seed, [16, 32, p])[-1]
        assert seeded == [True] * 3
        assert_allclose(ritz.sigma, fixed, rtol=1e-12)

    def test_plans_the_gram_matrix_on_the_next_checkpoint(self, ladder):
        # Break-even is 500 / (2 * 24) = 10.4 passes.  The segment to 4,
        # planned to 8, forms no rung; the one to 8, planned to 16, forms G
        # and steps on it; the one to 16 reuses G and, planned to 32, squares
        # it once the 12 steps saved on G^2 repay it.
        problem = synthetic_problem(500, 20, 0.99, 0.2, RngSeed(77))
        walk = subspace_module.ritz_checkpoints(problem.A, 20, RngSeed(78))
        next(walk)
        walk.send((4, 8))
        assert ladder.rungs == []
        walk.send((8, 16))
        assert len(ladder.rungs) == 1 and ladder.sources[0] is problem.A and ladder.steps == 4
        walk.send((16, 32))
        assert len(ladder.rungs) == 2 and ladder.sources[1] is ladder.rungs[0]
        # A tall matrix forms none.
        tall = gaussian_matrix(120, 100, RngSeed(79))
        checkpoint_walk(tall, 20, RngSeed(80), [16, 32, 61])
        assert len(ladder.rungs) == 2

    def test_runs_the_ladder_in_float32_only_when_asked(self, ladder):
        # A walk asked for float32 runs its ladder there where it pays, as
        # the fixed-depth walk does, and its Ritz values move by float32's
        # rounding only.
        problem = synthetic_problem(300, 20, 0.99, 0.2, RngSeed(81))
        depths = [16, 32, 64]
        reference = checkpoint_walk(problem.A, 20, RngSeed(82), depths)
        assert {rung.dtype for rung in ladder.rungs} == {np.dtype(np.float64)}
        ladder.rungs.clear()
        steps = checkpoint_walk(problem.A, 20, RngSeed(82), depths, dtype=np.float32)
        assert {rung.dtype for rung in ladder.rungs} == {np.dtype(np.float32)}
        for (_, ritz, _), (_, exact, _) in zip(steps, reference):
            assert_allclose(ritz.sigma, exact.sigma, rtol=0, atol=1e-6 * exact.sigma[0])


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


@pytest.fixture(scope="module")
def ritz_cases():
    """Fixed-depth solves as the benchmark runs them: one paper problem per
    n at seeds 1 and 2 with its first sketch seed, at the paper's depth, and
    the first 100 certificate instances of seed 1."""
    inputs = perfbench_inputs()
    cases = []
    for seed in (1, 2):
        for n in inputs.PAPER_GRID:
            rng = inputs.rng_for(seed, inputs.TAG_PAPER_SWEEP, n, 0)
            problem = inputs.paper_problem(n, 20, 0.99, 0.2, rng)
            sketch_seed = int(rng.integers(inputs.SEED_LIMIT, size=5)[0])
            cases.append((problem.A, problem.b, 20, inputs.paper_depth(n), RngSeed(sketch_seed)))
    for i in range(100):
        inst = inputs.certificate_instance(inputs.rng_for(1, inputs.TAG_CERTIFICATES, i),
                                           clustered=i % 2 == 1)
        cases.append((inst.problem.A, inst.problem.b, inst.problem.k, inst.p,
                      RngSeed(inst.solve_seed)))
    return cases


class TestRitzRoute:
    """The Ritz step factors ``Q^T A`` through the eigendecomposition of its
    row Gram where that Gram is well conditioned, and through LAPACK's SVD
    elsewhere (:func:`trunclsq.linalg.thin_svd` with ``gram=True``)."""

    def test_paper_grid_and_certificate_steps_take_the_gram_route(self, ritz_cases, monkeypatch):
        calls = count_linalg_calls(monkeypatch, "svd", "eigh")
        for A, _, k, p, seed in ritz_cases:
            approx_truncated_svd(A, k, p, seed)
        assert calls["svd"] == 0 and calls["eigh"] >= len(ritz_cases)

    def test_hard_spectrum_step_takes_lapack(self, monkeypatch):
        # sigma_1/sigma_l reads about 2.4e3 on this spectrum, past the Gram
        # route's 100.
        A, _, k = hard_spectrum_problem()
        calls = count_linalg_calls(monkeypatch, "svd", "eigh")
        approx_truncated_svd(A, k, 3, RngSeed(90))
        assert calls["svd"] == calls["eigh"] >= 1

    def test_solutions_stay_within_1e_12_of_the_lapack_route(self, ritz_cases, monkeypatch):
        x_gram = [approx_truncated_solve(*case).x for case in ritz_cases]
        real = subspace_module.thin_svd
        monkeypatch.setattr(subspace_module, "thin_svd", lambda M, gram: real(M))
        for case, x in zip(ritz_cases, x_gram):
            x_lapack = approx_truncated_solve(*case).x
            assert np.linalg.norm(x - x_lapack) <= 1e-12 * np.linalg.norm(x_lapack)
