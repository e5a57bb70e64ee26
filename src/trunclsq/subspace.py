"""Randomized subspace power iteration and the sketched truncated SVD.

The fixed-depth range finder draws an n-by-l Gaussian sketch S, oversampled to
``l = min(k + 4, m, n)`` columns, forms the power product ``(A A^T)^p A S``
strictly right-to-left, and orthonormalizes the result with one QR
factorization at the end.  The k leading left singular vectors of the small
l-by-n cross product ``Q_l^T A`` cut that basis down to k directions, so the
projected matrix ``Q Q^T A`` is the rank-k truncation of ``Q_l Q_l^T A``.
Its rank-k factorization is then read off from the thin SVD of the k-by-n
cross product ``Q^T A``, where fewer than k numerically nonzero singular
values raise :class:`RankDeficient` — the m-by-n projection itself is never
materialized.

:func:`orthonormal_iterates` runs the same sketch as subspace iteration
instead, orthonormalizing after every pass, for callers that decide the
depth while iterating.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .errors import InvalidTruncation, RankDeficient
from .linalg import TruncatedFactorization, as_matrix, qr_factor, thin_svd
from .sketch import RngSeed, gaussian_matrix

__all__ = [
    "power_product",
    "power_basis_from_sketch",
    "power_basis",
    "approx_truncated_svd",
    "orthonormal_iterates",
]

# Sketch columns drawn beyond k.  The error left in the top-k subspace after
# p passes is gamma_k^(2p+1) times a factor ||(V_k^T S)^+||; for a k-wide
# sketch V_k^T S is a square Gaussian block and that factor is heavy-tailed,
# while a few extra columns make it small (Halko, Martinsson & Tropp 2011,
# arXiv:0909.4061, Sec. 4.2 and Thm 9.1).  The first k columns of the wider
# sketch are the k-wide sketch, since gaussian_matrix fills column-major.
_OVERSAMPLING = 4


def _validate_depth(p: int) -> int:
    p = int(p)
    if p < 0:
        raise ValueError(f"power-iteration depth must be nonnegative, got {p}")
    return p


def _validate_level(A: np.ndarray, k: int) -> int:
    k = int(k)
    m, n = A.shape
    if not 1 <= k < min(m, n):
        raise InvalidTruncation(
            f"truncation level k={k} must satisfy 1 <= k < min(rows, cols) ({min(m, n)})"
        )
    return k


def _sketch_width(A: np.ndarray, k: int) -> int:
    return min(k + _OVERSAMPLING, *A.shape)


def power_product(A: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """``(A A^T)^p A S`` evaluated right-to-left.

    After each of the p refinement passes the iterate is rescaled by its
    largest absolute entry — a pure scaling that preserves the column span
    while keeping the powers of the leading singular value away from
    floating-point overflow.
    """
    A = as_matrix(A, "A")
    S = as_matrix(S, "S")
    p = _validate_depth(p)
    if S.shape[0] != A.shape[1]:
        raise ValueError(
            f"sketch must have {A.shape[1]} rows to match the matrix columns, got {S.shape[0]}"
        )
    Y = A @ S
    for _ in range(p):
        Y = A @ (A.T @ Y)
        peak = float(np.max(np.abs(Y)))
        if peak > 0.0:
            Y /= peak
    return Y


def power_basis_from_sketch(A: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """Orthonormal basis for the columns of ``(A A^T)^p A S``.

    Fully deterministic in its inputs: no randomness beyond the given sketch.
    Raises :class:`RankDeficient` when the power product loses column rank.

    The terminal QR treats only exactly zero pivots as rank loss: a deep
    power product is legitimately ill-conditioned — its column conditioning
    grows like ``(sigma_1 / sigma_k) ** (2p+1)``.  Genuine rank deficiency of
    the sketched pipeline is enforced where the statistic is well-conditioned:
    at the thin SVD of the small cross product in :func:`approx_truncated_svd`.
    """
    return qr_factor(power_product(A, S, p)).Q


def power_basis(A: np.ndarray, k: int, p: int, seed: RngSeed) -> np.ndarray:
    """m-by-k orthonormal basis capturing the dominant k-dimensional column
    space of ``A`` after p power-iteration passes on a seeded Gaussian sketch.

    The sketch is n-by-l with ``l = min(k + 4, m, n)``.  The m-by-l basis
    ``Q_l`` of its power product is cut down to the span of the k leading
    left singular vectors of ``Q_l^T A``, so that ``Q Q^T A`` is the rank-k
    truncation of ``Q_l Q_l^T A``.

    A rank-deficient power product — a degenerate draw, or a matrix whose
    range has fewer than l dimensions — is retried once on a k-wide sketch
    with the stream advanced by one; a second failure propagates
    :class:`RankDeficient`.
    """
    A = as_matrix(A, "A")
    k = _validate_level(A, k)
    p = _validate_depth(p)
    n = A.shape[1]
    S = gaussian_matrix(n, _sketch_width(A, k), seed)
    try:
        Q = power_basis_from_sketch(A, S, p)
    except RankDeficient:
        Q = power_basis_from_sketch(A, gaussian_matrix(n, k, seed.bump_stream(1)), p)
    # Only the span of the k leading left singular vectors of B = Q_l^T A is
    # needed (approx_truncated_svd rotates within it), and the eigenvectors
    # of the small Gram matrix B B^T give it at about half the cost of an SVD.
    B = Q.T @ A
    W = np.linalg.eigh(B @ B.T)[1]
    return Q @ W[:, ::-1][:, :k]


def approx_truncated_svd(A: np.ndarray, k: int, p: int, seed: RngSeed) -> TruncatedFactorization:
    """Rank-k factorization of the projected matrix ``Q Q^T A``.

    With ``Q = power_basis(A, k, p, seed)``, the thin SVD of the k-by-n
    cross product ``Q^T A`` is computed and lifted: ``U = Q @ U_small``,
    ``sigma = sigma_small``, ``V = V_small``.  The result is tagged
    ``kind="approximate"`` and satisfies
    ``U @ diag(sigma) @ V.T == Q @ Q.T @ A`` to working precision, which is
    the rank-k truncation of the oversampled projection described in
    :func:`power_basis`.  A cross product of numerical rank below k raises
    :class:`RankDeficient`.
    """
    A = as_matrix(A, "A")
    Q = power_basis(A, k, p, seed)
    small = thin_svd(Q.T @ A)
    if small.rank < Q.shape[1]:
        raise RankDeficient(
            f"projected cross product lost rank: {small.rank} < k = {Q.shape[1]}"
        )
    return TruncatedFactorization(
        U=Q @ small.U, sigma=small.sigma, V=small.V, k=int(k), kind="approximate"
    )


def orthonormal_iterates(
    A: np.ndarray, k: int, seed: RngSeed
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Subspace iteration on the sketch of :func:`power_basis`, one pass at a
    time: yields ``(p, Q, B)`` for p = 0, 1, 2, ... without end.

    ``Q`` is the m-by-l orthonormal basis after p passes, with the same
    ``l = min(k + 4, m, n)`` column sketch, and ``B = Q^T A`` its l-by-n cross
    product.  A pass is ``Q <- qr(A (A^T Q))``: the basis is orthonormalized
    after every pass (Halko, Martinsson & Tropp 2011, arXiv:0909.4061,
    Alg. 4.4), so no direction drowns in rounding at depth, as it can in the
    unnormalized product of :func:`power_product`.  ``A^T Q = B^T`` is the first
    half of the next pass, so yielding ``B`` costs nothing extra.  The caller
    decides when to stop by leaving the loop.
    """
    A = as_matrix(A, "A")
    k = _validate_level(A, k)
    S = gaussian_matrix(A.shape[1], _sketch_width(A, k), seed)
    Q = np.linalg.qr(A @ S)[0]
    for p in itertools.count():
        Z = A.T @ Q
        yield p, Q, Z.T
        Q = np.linalg.qr(A @ Z)[0]
