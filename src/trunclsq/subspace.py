"""Randomized subspace iteration and the sketched truncated SVD.

The iteration draws an n-by-l Gaussian sketch S, oversampled to
``l = min(k + 4, m, n)`` columns, and runs passes ``Y <- A (A^T Y)`` from
``Y = A S``, replacing Y by the Q of its QR after the first pass and then
only when the spread and drift the last QR read call for it (Halko,
Martinsson & Tropp 2011, arXiv:0909.4061, Alg. 4.4).  One walk serves every
depth.  On a square or wide A whose block is not too spread for G's
rounding, passes run as ``Y <- G Y`` on ``G = A A^T`` once G pays for
itself: once the passes left to a known depth repay it, or, when the depth
is unknown, once the two-product passes already run would have.  Toward a
known depth the walk also climbs to the rungs ``G^2, G^4, ...``, each
squared from the one before, while the steps a rung saves repay its m^3
flops and one step on it stays within G's rounding gate; a step on
``G^(2^j)`` runs ``2^j`` passes.  :func:`power_product` takes the walk's
last iterate at a given depth; :func:`power_iterates` hands it, one pass a
step, to callers that decide the depth while iterating.

The walk carries the l-by-m row block ``Y^T``: a pass runs as
``(Y^T A) A^T`` and a step as ``Y^T G^(2^j)``, and it hands out the m-by-l
view ``Y``.  Each rung is symmetric, so the step is the same product.  With
one OpenBLAS thread these row-block products measured 10-30 % faster than
``A (A^T Y)`` and ``G Y`` for m from 300 to 500, and up to 17 % slower at
m = 200; the walk takes the row block at every size.

The fixed-depth range finder orthonormalizes the p-th iterate to the m-by-l
basis ``Q`` with one QR at the end, which completes a rank-deficient iterate
with orthonormal columns.  One Ritz step, :func:`ritz_factorization`, turns
any such basis into a rank-k factorization (Alg. 5.1): the thin SVD of the
small l-by-n cross product ``Q^T A``, whose k leading triples, lifted by Q,
are the rank-k truncation of the projected matrix ``Q Q^T A``;
:func:`trunclsq.linalg.thin_svd` factors it as ``(Q^T A)^T``, the shape
LAPACK's gesdd measured faster at on OpenBLAS.  The Ritz step takes its
triples through :func:`trunclsq.linalg.leading_factors`, so fewer than k
numerically nonzero singular values raise :class:`InvalidTruncation`, as in
the exact solve.  The m-by-n projection itself is never materialized.
Callers of :func:`power_iterates` finish with the same Ritz step.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator

import numpy as np

from .linalg import (
    ThinSVD,
    TruncatedFactorization,
    _check_level,
    as_matrix,
    leading_factors,
    qr_factor,
    thin_svd,
)
from .sketch import RngSeed, gaussian_matrix

__all__ = [
    "power_product",
    "power_basis_from_sketch",
    "power_basis",
    "ritz_factorization",
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

# The walk orthonormalizes before a step could spread its columns by more
# than _SPREAD_LIMIT, which leaves the weakest ten float64 digits above the
# rounding of the strongest, or move their scale by more than _DRIFT_LIMIT,
# far inside float64's 1e+-308 range.
_SPREAD_LIMIT = 1e6
_DRIFT_LIMIT = 1e100

# A Gram pass rounds G = A A^T's entries at about n eps sigma_1^2, which
# reaches the k-th direction at about n eps (sigma_1/sigma_k)^2 where a
# two-product pass gives n eps (sigma_1/sigma_k); the walk forms G only where
# the last QR read a pass spreading the block by at most _GRAM_SPREAD_LIMIT,
# that is sigma_1/sigma_l below about 100 (Halko, Martinsson & Tropp 2011,
# Sec. 4.5).  A step on the rung G^(2^j) rounds at
# (sigma_1/sigma_k)^(2^(j+1)), so the walk climbs to it only where its 2^j
# passes spread the block by at most as much.
_GRAM_SPREAD_LIMIT = 1e4


def _validate_depth(p: int) -> int:
    p = int(p)
    if p < 0:
        raise ValueError(f"power-iteration depth must be nonnegative, got {p}")
    return p


def _sketch_width(A: np.ndarray, k: int) -> int:
    return min(k + _OVERSAMPLING, *A.shape)


def _rung(M: np.ndarray) -> np.ndarray:
    """The next rung of the Gram ladder, ``M M^T``: ``G = A A^T`` from A, and
    ``G^(2^(j+1))`` from the rung ``G^(2^j)``, which is symmetric.  numpy
    computes it as one symmetric rank update (BLAS syrk).  The rung is scaled
    in place by the power of two that brings its trace into [0.5, 1): exact
    in binary, and it keeps ``sigma_1^(2^(j+1))`` inside float64's range
    however high the ladder climbs."""
    G = M @ M.T
    G *= np.ldexp(1.0, -np.frexp(G.trace())[1])
    return G


def _orthonormalize(Y: np.ndarray, passes: float) -> tuple[np.ndarray, float, float]:
    """The Q of Y's QR, with what ``|diag R|`` reads after ``passes`` passes
    since the last QR: the growth per pass over ``_SPREAD_LIMIT`` or
    ``_DRIFT_LIMIT``, whichever is nearer, and the log spread per pass."""
    Y, R = np.linalg.qr(Y)
    logs = np.log(np.maximum(np.abs(np.diag(R)), np.finfo(np.float64).tiny))
    spread = logs.max() - logs.min()
    rate = max(spread / np.log(_SPREAD_LIMIT),
               np.abs(logs).max() / np.log(_DRIFT_LIMIT)) / passes
    return Y, rate, spread / passes


def _climbs(A: np.ndarray, width: int, level: int, spread: float, run: int,
            depth: int | None) -> bool:
    """Whether a walk on rung ``level`` (-1 before G) that has run ``run``
    passes toward ``depth`` (None when unknown) forms the next rung
    ``G^(2^j)``, j = level + 1.

    One step of ``2^j`` passes must spread the block by at most
    ``_GRAM_SPREAD_LIMIT`` at the per-pass ``spread`` the last QR read, and
    the passes the rung saves must repay it.  G saves ``2 m l (2n - m)``
    flops a pass and costs ``m^2 n``: it is repaid by the passes left to a
    known depth, or else by the two-product passes already run, so that a
    deep walk pays for G at most twice what the best schedule pays.  A higher
    rung saves one ``2 m^2 l`` step in every ``2^j`` passes left and costs
    ``m^3``; it is climbed only toward a known depth, where a step of ``2^j``
    passes lands on it.  A tall A climbs no rung: its G would be larger than
    A."""
    m, n = A.shape
    j = level + 1
    if m > n or spread * (1 << j) > np.log(_GRAM_SPREAD_LIMIT):
        return False
    if j == 0:
        return (run if depth is None else depth - run) * 2 * width * (2 * n - m) >= m * n
    if depth is None:
        return False
    left = depth - run
    return not left % (1 << j) and (left >> j) * 2 * width >= m


def _walk(A: np.ndarray, S: np.ndarray, depth: int | None = None) -> Iterator[np.ndarray]:
    """The subspace iteration on ``A S``: yields ``Y = A S``, then the
    iterate after every step, whose columns span ``(A A^T)^p A S`` after p
    passes, up to ``depth`` passes or, when it is None, one pass a step
    without end.  It works on the row block ``Y^T`` and yields its
    transpose, a view.

    A step is a two-product pass ``Y^T <- (Y^T A) A^T`` until
    :func:`_climbs` forms a rung; on the rung ``G^(2^j)`` it runs ``2^j``
    passes as one l-by-m-by-m product ``Y^T G^(2^j)``.  Toward a known
    depth the walk lands on it in binary-exponentiation order: a rung below
    the top takes a step only where the passes left have bit j set, and each
    rung replaces the one it was squared from, so at most two m-by-m
    matrices are alive.  Y goes through a QR after pass 1, and after that
    before any step that, at the per-pass spread ``max/min |R_ii|`` and
    drift ``max |ln |R_ii||`` the last QR read, could exceed
    ``_SPREAD_LIMIT`` or ``_DRIFT_LIMIT``, counting a step as its passes;
    the walk re-plans its climb after every QR.  ``A S`` counts as half a
    pass, since it scales by ``sigma`` where a pass scales by ``sigma^2``:
    the first QR reads ``A A^T A S`` as one and a half passes."""
    width = S.shape[1]
    Yt = S.T @ A.T
    yield Yt.T
    run, passes, rate, spread = 0, 0.5, 1.0, math.inf
    level, rung = -1, None
    while depth is None or run < depth:
        while _climbs(A, width, level, spread, run, depth):
            rung = _rung(A if rung is None else rung)
            level += 1
        step = 1 << max(level, 0)
        if passes >= 1 and (passes + step) * rate > 1.0:
            Q, rate, spread = _orthonormalize(Yt.T, passes)
            Yt, passes = Q.T, 0
            continue
        Yt = (Yt @ A) @ A.T if rung is None else Yt @ rung
        run += step
        passes += step
        yield Yt.T


def power_product(A: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """The p-th iterate of the subspace iteration on ``A S``, whose columns
    span ``(A A^T)^p A S``: the last iterate of the walk that plans on
    depth p.  p = 0 and 1 give ``A S`` and ``A (A^T (A S))`` themselves,
    to rounding: the walk takes no QR before its first pass is done."""
    A = as_matrix(A, "A")
    S = as_matrix(S, "S")
    p = _validate_depth(p)
    if S.shape[0] != A.shape[1]:
        raise ValueError(
            f"sketch must have {A.shape[1]} rows to match the matrix columns, got {S.shape[0]}"
        )
    return deque(_walk(A, S, p), maxlen=1)[0]


def power_basis_from_sketch(A: np.ndarray, S: np.ndarray, p: int) -> np.ndarray:
    """Orthonormal basis, as wide as S, whose span contains the columns of
    ``(A A^T)^p A S``; the QR completes a rank-deficient iterate with
    orthonormal columns.  Fully deterministic in its inputs: no randomness
    beyond the given sketch."""
    return qr_factor(power_product(A, S, p))[0]


def power_basis(A: np.ndarray, k: int, p: int, seed: RngSeed) -> np.ndarray:
    """m-by-l orthonormal basis of the column space of ``A`` after p
    power-iteration passes on a seeded Gaussian sketch.

    The sketch is n-by-l with ``l = min(k + 4, m, n)``; the basis is
    :func:`power_basis_from_sketch` of it.
    """
    A = as_matrix(A, "A")
    k = _check_level(k, *A.shape)
    p = _validate_depth(p)
    return power_basis_from_sketch(A, gaussian_matrix(A.shape[1], _sketch_width(A, k), seed), p)


def ritz_factorization(
    A: np.ndarray, Q: np.ndarray, k: int
) -> tuple[ThinSVD, TruncatedFactorization]:
    """The Ritz step on an orthonormal basis ``Q`` of ``A``'s sketched range.

    Returns the thin SVD of the cross product ``Q^T A`` and its k leading
    triples from :func:`trunclsq.linalg.leading_factors`, lifted to
    ``U = Q @ U_small`` and tagged ``kind="approximate"``: the rank-k
    truncation of the projected matrix ``Q Q^T A``.  A cross product of
    numerical rank below k raises :class:`InvalidTruncation`.
    """
    ritz = thin_svd(Q.T @ A)
    head = leading_factors(ritz, k)
    return ritz, TruncatedFactorization(
        U=Q @ head.U, sigma=head.sigma, V=head.V, k=head.k, kind="approximate"
    )


def approx_truncated_svd(A: np.ndarray, k: int, p: int, seed: RngSeed) -> TruncatedFactorization:
    """Rank-k factorization of ``A`` from the sketched range after p passes:
    :func:`ritz_factorization` on ``power_basis(A, k, p, seed)``.

    With Q that basis, ``U @ diag(sigma) @ V.T`` is the rank-k truncation of
    ``Q Q^T A`` to working precision; a cross product of numerical rank below
    k raises :class:`InvalidTruncation`.
    """
    Q = power_basis(A, k, p, seed)  # validates A
    return ritz_factorization(np.asarray(A, dtype=np.float64), Q, k)[1]


def power_iterates(A: np.ndarray, k: int, seed: RngSeed) -> Iterator[np.ndarray]:
    """The iterates of the subspace iteration on the sketch
    :func:`power_basis` draws, one pass at a time: yields ``Y_p`` for
    p = 0, 1, 2, ... without end.  The caller decides when to stop by
    leaving the loop.  The walk does not know its depth, so it climbs no
    higher than ``G = A A^T``; ``Y_p`` spans what :func:`power_product` gives
    at depth p on that sketch, and on a tall A it is the same array.
    """
    A = as_matrix(A, "A")
    k = _check_level(k, *A.shape)
    return _walk(A, gaussian_matrix(A.shape[1], _sketch_width(A, k), seed))
