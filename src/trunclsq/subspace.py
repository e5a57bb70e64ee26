"""Randomized subspace iteration and the sketched truncated SVD.

One loop serves every depth mode.  It draws an n-by-l Gaussian sketch S,
oversampled to ``l = min(k + 4, m, n)`` columns, and runs passes
``Y <- A (A^T Y)`` from ``Y = A S``, replacing Y by the Q of its QR after the
first pass and then only when the schedule of :func:`_iterates` calls for it
(Halko, Martinsson & Tropp 2011, arXiv:0909.4061, Alg. 4.4).  The fixed-depth
range finder orthonormalizes the p-th iterate with one QR at the end; the k
leading left singular vectors of the small l-by-n cross product ``Q_l^T A``
cut that basis down to k directions, so the projected matrix ``Q Q^T A`` is
the rank-k truncation of ``Q_l Q_l^T A``.  Its rank-k factorization is read
off the thin SVD of the k-by-n cross product ``Q^T A``, where fewer than k
numerically nonzero singular values raise :class:`RankDeficient` — the m-by-n
projection itself is never materialized.  :func:`power_iterates` hands the
same loop to callers that decide the depth while iterating.
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
    "power_iterates",
]

# Sketch columns drawn beyond k.  The error left in the top-k subspace after
# p passes is gamma_k^(2p+1) times a factor ||(V_k^T S)^+||; for a k-wide
# sketch V_k^T S is a square Gaussian block and that factor is heavy-tailed,
# while a few extra columns make it small (Halko, Martinsson & Tropp 2011,
# arXiv:0909.4061, Sec. 4.2 and Thm 9.1).  The first k columns of the wider
# sketch are the k-wide sketch, since gaussian_matrix fills column-major.
_OVERSAMPLING = 4

# _iterates orthonormalizes before a pass could spread its columns by more
# than _SPREAD_LIMIT, which leaves the weakest ten float64 digits above the
# rounding of the strongest, or move their scale by more than _DRIFT_LIMIT,
# far inside float64's 1e+-308 range.
_SPREAD_LIMIT = 1e6
_DRIFT_LIMIT = 1e100


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


def _iterates(A: np.ndarray, S: np.ndarray) -> Iterator[np.ndarray]:
    """``Y_0 = A S``, then ``Y_p = A (A^T Y_{p-1})`` for p = 1, 2, ... without
    end.  Y goes through a QR after pass 1, and after that before any pass
    that, at the per-pass spread ``max/min |R_ii|`` and drift ``max |ln |R_ii||``
    the last QR read, could exceed ``_SPREAD_LIMIT`` or ``_DRIFT_LIMIT``."""
    Y = A @ S
    yield Y
    passes, rate = 0, 1.0  # passes since the last QR, growth per pass over the limits
    while True:
        if (passes + 1) * rate > 1.0:
            Y, R = np.linalg.qr(Y)
            logs = np.log(np.maximum(np.abs(np.diag(R)), np.finfo(np.float64).tiny))
            rate = max((logs.max() - logs.min()) / np.log(_SPREAD_LIMIT),
                       np.abs(logs).max() / np.log(_DRIFT_LIMIT)) / passes
            passes = 0
        Y = A @ (A.T @ Y)
        passes += 1
        yield Y


def power_product(A: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """The p-th iterate of the subspace iteration on ``A S``, whose columns
    span ``(A A^T)^p A S``; p = 0 and 1 give ``A S`` and ``A (A^T (A S))``
    exactly."""
    A = as_matrix(A, "A")
    S = as_matrix(S, "S")
    p = _validate_depth(p)
    if S.shape[0] != A.shape[1]:
        raise ValueError(
            f"sketch must have {A.shape[1]} rows to match the matrix columns, got {S.shape[0]}"
        )
    return next(itertools.islice(_iterates(A, S), p, None))


def power_basis_from_sketch(A: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """Orthonormal basis for the columns of ``(A A^T)^p A S``.

    Fully deterministic in its inputs: no randomness beyond the given sketch.
    Raises :class:`RankDeficient` when the p-th iterate loses column rank;
    rank lost exactly before one of the loop's QRs does not show, because
    that QR completes the block with orthonormal columns, as Alg. 4.4 does.

    The terminal QR treats only exactly zero pivots as rank loss: it sees
    the columns spread by the passes since the loop's last QR, up to about
    ``1e6`` or one pass's worth, which is legitimately ill-conditioned
    without being rank-deficient.  Genuine rank deficiency of the sketched
    pipeline is enforced where the statistic is well-conditioned: at the
    thin SVD of the small cross product in :func:`approx_truncated_svd`.
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


def power_iterates(A: np.ndarray, k: int, seed: RngSeed) -> Iterator[np.ndarray]:
    """The iterates of :func:`power_product` on the sketch :func:`power_basis`
    draws, one pass at a time: yields ``Y_p`` for p = 0, 1, 2, ... without
    end.  The caller decides when to stop by leaving the loop.
    """
    A = as_matrix(A, "A")
    k = _validate_level(A, k)
    return _iterates(A, gaussian_matrix(A.shape[1], _sketch_width(A, k), seed))
