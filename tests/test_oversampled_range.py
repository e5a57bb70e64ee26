"""The oversampled range finder behind power_basis and approx_truncated_svd.

The sketch is n-by-l with l = min(k + 4, m, n); power_basis returns the
l-dimensional basis, and the factorization is the rank-k truncation of the
projection onto it.  These tests rebuild that basis from the public pieces
and check the factorization against a numpy SVD of the projected matrix.
"""

import numpy as np
import pytest

from helpers import projection_distance_oracle
from trunclsq import (
    RngSeed,
    approx_truncated_solve,
    approx_truncated_svd,
    exact_truncated_solve,
    gaussian_matrix,
    gaussian_vector,
    power_basis,
    power_basis_from_sketch,
)
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


def test_matrix_with_exact_zero_rows_solves_on_one_sketch(monkeypatch):
    # l = min(2 + 4, 6, 6) = 6 exceeds the rank 4 of A, so the power product
    # has exactly zero pivots; the QR completes it to a basis of R^6, and the
    # solve draws no second sketch.
    A = np.diag([4.0, 3.0, 2.0, 1.0, 0.0, 0.0])
    widths = []
    real = subspace_module.gaussian_matrix

    def recording(rows, cols, seed):
        widths.append(cols)
        return real(rows, cols, seed)

    monkeypatch.setattr(subspace_module, "gaussian_matrix", recording)
    fact = approx_truncated_svd(A, 2, 30, RngSeed(67))
    assert widths == [6]
    np.testing.assert_allclose(fact.sigma, [4.0, 3.0], rtol=1e-8)
    assert projection_distance_oracle(fact.U, np.eye(6)[:, :2]) <= 1e-8
    b = np.arange(1.0, 7.0)
    x = approx_truncated_solve(A, b, 2, 30, RngSeed(67)).x
    np.testing.assert_allclose(x, exact_truncated_solve(A, b, 2).x, atol=1e-8)
