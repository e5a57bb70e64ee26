"""The oversampled range finder behind power_basis and approx_truncated_svd.

The sketch is n-by-l with l = min(k + 4, m, n); power_basis returns the
l-dimensional basis, and the factorization is the rank-k truncation of the
projection onto it.  These tests rebuild that basis from the public pieces
and check the factorization against a numpy SVD of the projected matrix.
Where l = min(m, n) the basis would span A's whole range, and the
factorization is A's own, with no sketch drawn.
"""

import numpy as np
import pytest

from helpers import projection_distance_oracle
from trunclsq import (
    InvalidTruncation,
    RngSeed,
    approx_truncated_solve,
    approx_truncated_svd,
    exact_truncated_solve,
    gaussian_matrix,
    gaussian_vector,
    power_basis,
    power_basis_from_sketch,
)
from trunclsq import linalg as linalg_module
from trunclsq import subspace as subspace_module


def oversampled_basis(A, k, p, seed):
    width = min(k + 4, *A.shape)
    return power_basis_from_sketch(A, gaussian_matrix(A.shape[1], width, seed), p)


def rank_k_truncation(M, k):
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return (U[:, :k] * s[:k]) @ Vt[:k]


@pytest.mark.parametrize("shape, k, p", [((14, 11), 3, 2), ((9, 12), 2, 1), ((10, 8), 5, 0)])
def test_factorization_is_rank_k_truncation_of_oversampled_projection(shape, k, p):
    A = gaussian_matrix(*shape, RngSeed(60, k))
    seed = RngSeed(61, k)
    Q_l = oversampled_basis(A, k, p, seed)
    fact = approx_truncated_svd(A, k, p, seed)
    sigma_1 = np.linalg.svd(A, compute_uv=False)[0]
    assert np.linalg.norm(fact.U - Q_l @ (Q_l.T @ fact.U), 2) <= 1e-10
    rebuilt = (fact.U * fact.sigma) @ fact.V.T
    expected = rank_k_truncation(Q_l @ (Q_l.T @ A), k)
    assert np.linalg.norm(rebuilt - expected, 2) <= 1e-10 * sigma_1
    top = np.linalg.svd(Q_l.T @ A, compute_uv=False)[:k]
    np.testing.assert_allclose(fact.sigma, top, rtol=1e-12)


def test_power_basis_is_the_oversampled_basis():
    A = gaussian_matrix(13, 10, RngSeed(62))
    k, p, seed = 4, 2, RngSeed(63)
    Q = power_basis(A, k, p, seed)
    assert Q.shape == (13, 8)
    assert np.array_equal(Q, oversampled_basis(A, k, p, seed))


@pytest.mark.parametrize("stream", range(6))
def test_basis_spanning_every_row_gives_the_exact_solve(stream):
    # l = min(32 + 4, 35, 36) = m: the basis spans R^m, so the sketched
    # rank-k factorization is A's own, on a spectrum graded over six decades.
    A = gaussian_matrix(35, 36, RngSeed(90, stream)) * np.logspace(0, -6, 36)
    b = gaussian_vector(35, RngSeed(91, stream))
    x = approx_truncated_solve(A, b, 32, 10, RngSeed(92, stream)).x
    exact = exact_truncated_solve(A, b, 32).x
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


def test_first_k_columns_of_the_wide_sketch_are_the_k_wide_sketch():
    seed = RngSeed(64, 2)
    wide = gaussian_matrix(30, 24, seed)
    assert np.array_equal(wide[:, :20], gaussian_matrix(30, 20, seed))


def test_matrix_with_exact_zero_rows_solves_without_a_sketch(monkeypatch):
    # l = min(2 + 4, 6, 6) = 6 exceeds the rank 4 of A: a sketch that wide
    # would span R^6, so the factorization draws none and takes the Ritz
    # step on A itself, whose rank-revealing SVD keeps the four nonzero
    # values.
    A = np.diag([4.0, 3.0, 2.0, 1.0, 0.0, 0.0])
    widths = []
    real = subspace_module.gaussian_matrix

    def recording(rows, cols, seed):
        widths.append(cols)
        return real(rows, cols, seed)

    monkeypatch.setattr(subspace_module, "gaussian_matrix", recording)
    fact = approx_truncated_svd(A, 2, 30, RngSeed(67))
    assert widths == []
    np.testing.assert_allclose(fact.sigma, [4.0, 3.0], rtol=1e-8)
    assert projection_distance_oracle(fact.U, np.eye(6)[:, :2]) <= 1e-8
    b = np.arange(1.0, 7.0)
    x = approx_truncated_solve(A, b, 2, 30, RngSeed(67)).x
    np.testing.assert_allclose(x, exact_truncated_solve(A, b, 2).x, atol=1e-8)


def _whole_range_problem(shape, k, *, rank=None, scale=1.0):
    A = gaussian_matrix(*shape, RngSeed(93, k))
    if rank is not None:
        A = gaussian_matrix(shape[0], rank, RngSeed(94, k)) @ gaussian_matrix(rank, shape[1],
                                                                             RngSeed(95, k))
    return scale * A, gaussian_vector(shape[0], RngSeed(96, k))


@pytest.mark.parametrize("shape, k, rank, scale", [
    ((50, 20), 17, None, 1.0),
    ((20, 50), 16, None, 1.0),
    ((30, 30), 26, None, 1.0),
    ((30, 24), 20, 22, 1.0),
    ((36, 40), 32, None, 2.0**300),
    ((36, 40), 32, None, 2.0**-300),
    ((36, 40), 32, None, 2.0**400),
    ((36, 40), 32, None, 2.0**-400),
], ids=["tall", "wide", "square", "rank-22-at-k20", "2^300", "2^-300", "2^400", "2^-400"])
def test_sketch_as_wide_as_the_short_side_factors_a_itself(monkeypatch, shape, k, rank, scale):
    # l = min(k + 4, m, n) = min(m, n): the sketch would span A's whole range
    # at every depth, so none is drawn and the solve is exact's to rounding.
    # At 2^+-400 the short side's Gram leaves its range and the Ritz step
    # falls back to LAPACK's SVD; at 2^+-300 it stays on the Gram route.
    # Warnings are errors in this suite, so neither route may warn.
    A, b = _whole_range_problem(shape, k, rank=rank, scale=scale)
    assert subspace_module._spans_range(A, k)
    short = A if shape[0] <= shape[1] else A.T
    assert (linalg_module._gram(short) is None) == (abs(np.log2(scale)) == 400)

    def no_sketch(rows, cols, seed):
        raise AssertionError("the range finder drew a sketch")

    monkeypatch.setattr(subspace_module, "gaussian_matrix", no_sketch)
    fact = approx_truncated_svd(A, k, 7, RngSeed(97))
    assert fact.kind == "approximate" and fact.k == k
    x = approx_truncated_solve(A, b, k, 7, RngSeed(97)).x
    exact = exact_truncated_solve(A, b, k).x
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


def test_sketch_one_column_short_of_the_short_side_runs_the_walk(monkeypatch):
    # l = min(19 + 4, 30, 24) = 23 = min(m, n) - 1: one 23-wide sketch, walked.
    A, _ = _whole_range_problem((30, 24), 19)
    assert not subspace_module._spans_range(A, 19)
    widths, walks = [], []
    sketch, walk = subspace_module.gaussian_matrix, subspace_module._walk

    def recording_sketch(rows, cols, seed):
        widths.append(cols)
        return sketch(rows, cols, seed)

    def recording_walk(*args, **kwargs):
        walks.append(args[2])
        return walk(*args, **kwargs)

    monkeypatch.setattr(subspace_module, "gaussian_matrix", recording_sketch)
    monkeypatch.setattr(subspace_module, "_walk", recording_walk)
    fact = approx_truncated_svd(A, 19, 3, RngSeed(98))
    assert widths == [23] and walks == [3]
    assert fact.kind == "approximate" and fact.k == 19


_WIDE = gaussian_matrix(4, 6, RngSeed(99))


@pytest.mark.parametrize("A, k, p, seed, kind", [
    (_WIDE, 2, -1, RngSeed(1), ValueError),
    (_WIDE, 2, 3, 7, ValueError),
    (_WIDE, 0, 3, RngSeed(1), InvalidTruncation),
    (_WIDE, 5, 3, RngSeed(1), InvalidTruncation),
    (np.where(np.eye(4, 6) > 0, np.nan, _WIDE), 2, 3, RngSeed(1), ValueError),
    (np.outer(np.arange(1.0, 5.0), np.arange(1.0, 7.0)), 2, 3, RngSeed(1), InvalidTruncation),
], ids=["negative-p", "int-seed", "k0", "k-past-shape", "nan", "rank-1-at-k2"])
def test_sketch_as_wide_as_the_short_side_raises_as_the_walk_does(A, k, p, seed, kind):
    # Each input takes the shortcut, and must be refused with the type and
    # message the walk's own route gives on it: A, k, the seed, then p.
    assert subspace_module._spans_range(A, k)
    with pytest.raises(kind) as walked:
        subspace_module.ritz_factorization(A, power_basis(A, k, p, seed), k)
    with pytest.raises(kind) as shortcut:
        approx_truncated_svd(A, k, p, seed)
    assert type(shortcut.value) is type(walked.value)
    assert str(shortcut.value) == str(walked.value)
