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
step, to callers that decide the depth while iterating.  A spread reading
runs low while the block is still turning, so a walk toward a known depth
plans each interval between QRs to two thirds of the spread limit.

Toward a known depth a walk may also run its ladder in float32, whose
syrk and gemm OpenBLAS runs in 41-67 % of the float64 time: G is formed
from a float32 copy of A scaled by a power of two, and its squares and the
steps on them run in float32 under float32's own spread, drift and Gram
limits.  Everything else stays float64: ``A S``, the two-product passes,
every walk without a depth, the terminal QR, the Ritz step and the apply.
The walk does so only where the caller asks for it, where float32's
tighter Gram limit costs the ladder no rung, and where the flops float32
halves outweigh the QRs its tighter spread limit adds.
:func:`approx_truncated_svd` asks for it, then keeps the float32 answer
only where its own Ritz residual shows that the sketch's error dwarfs
float32's rounding; on the paper's problems (n = 200..500, gap 0.99) x
moved about 2e-7 to 5e-7 relative from the float64 walk's.  Every call
with default arguments stays in float64,
:func:`trunclsq.bounds.subspace_capture_bound` among them, whose
exact-arithmetic bound float32 rounding would break.

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


class _Limits:
    """The limits that the walk's steps in one precision plan under, kept as
    natural logs: the spread and drift a block may reach before its QR, and
    the spread one Gram step may add."""

    __slots__ = ("spread", "drift", "gram")

    def __init__(self, spread: float, drift: float, gram: float) -> None:
        self.spread, self.drift, self.gram = math.log(spread), math.log(drift), math.log(gram)


# The walk orthonormalizes before a step could spread its columns by more
# than the spread limit, which leaves the weakest ten float64 digits above
# the rounding of the strongest, or move their scale by more than the drift
# limit, far inside float64's 1e+-308 range.
#
# A Gram pass rounds G = A A^T's entries at about n eps sigma_1^2, which
# reaches the k-th direction at about n eps (sigma_1/sigma_k)^2 where a
# two-product pass gives n eps (sigma_1/sigma_k); the walk forms G only where
# the last QR read a pass spreading the block by at most the Gram limit 1e4,
# that is sigma_1/sigma_l below about 100 (Halko, Martinsson & Tropp 2011,
# Sec. 4.5).  A step on the rung G^(2^j) rounds at
# (sigma_1/sigma_k)^(2^(j+1)), so the walk climbs to it only where its 2^j
# passes spread the block by at most as much.
_FLOAT64 = _Limits(spread=1e6, drift=1e100, gram=1e4)

# The same limits for steps on a float32 ladder, whose rounding unit is
# 6e-8 where float64's is 1.1e-16.  A spread of 1e4 leaves the weakest
# direction three float32 digits above the rounding of the strongest.  A
# limit of 1e3, four digits, took 6 or 7 float32 QRs on the paper's n = 300
# problems where 1e4 takes 4, and moved x by 1.8e-7 to 3.7e-7 relative
# where 1e4 moves it by 1.9e-7 to 4.8e-7.  The Gram limit 1e2 lets G's
# float32 rounding reach the l-th direction at about 1e2 * 6e-8 = 6e-6
# relative, as float64's 1e4 does at 1e-12.  Every float32 interval starts
# from an orthonormal block and every rung is scaled to a trace below one,
# so the columns only shrink: a drift of 1e15 with a spread of 1e4 keeps
# every column above 1e-19, nineteen orders above float32's smallest normal
# number.
_FLOAT32 = _Limits(spread=1e4, drift=1e15, gram=1e2)

# A spread reading runs low: the block's columns are still turning toward
# the singular directions, so the spread a pass adds grows as the walk goes
# on.  On the paper's problems (n = 100..500, gap 0.99) a first reading of
# 0.61 a pass was followed by an interval of 22 passes spreading 0.84 a
# pass, and a float32 reading of 0.26 by one spreading 0.38.  Planned to
# the limits themselves, 7 of the 226 QRs after the first on the 100
# paper-grid walks of the benchmark's generator (seeds 1 to 5) read past
# 1e6, the worst by a factor of 99.  A walk toward a known depth therefore
# plans each interval to two thirds of the spread limit, which no QR after
# the first has read past on those walks, on the hard-spectrum walks or on
# 400 certificate-sized ones.  The walk without a depth, the adaptive
# solve's, plans to the limit itself, so its steps and x are unchanged.
_PLANNING_MARGIN = 1.5

# A reading is taken from the block the last interval left, and a block
# whose |R_ii| reached the edge of float64's range carries no spread: where
# sigma_1^3 is below about 1e-308, A S and the first pass underflow to zero
# and read a spread of 0.  The walk plans no float32 ladder on such a
# reading, whose first interval would otherwise run without a QR.
_FLOAT64_EDGE = -math.log(np.finfo(np.float64).tiny)

# One QR of the m-by-l block costs about as much as 5e5 + 18 m l^2 flops of
# the ladder's products: with numpy 2.4 on one OpenBLAS thread and l = 24 it
# took 38 us at m = 100 and 139 us at m = 500, where A A^T took 34 us and
# 2.2 ms.
_QR_FLOPS = (5e5, 18)

# approx_truncated_svd keeps a basis whose walk ran its ladder in float32
# only where the k-th Ritz pair's relative residual
# ||A v_k - theta_k u_k|| / theta_k reads at least this floor.  On
# synthetic_problem(n, 20, gamma, 0.2) for n = 200..500, gamma = 0.5..0.99
# and depth ceil(10 ln n) or half of it, float32 moved x by 5e-8 to 5e-7
# relative; where float64's x was within 2e-7 of the exact one, the
# residual read 2e-7 to 7e-7, and everywhere else the solution error read at
# least 1.6 times the residual, so the move stayed below 1 % of the error
# the sketch leaves.  On 600 random problems (m = 150..420, k = 1..39, gaps
# 0.9..0.999, scales 2^-500..2^500, some with a zero tail) 295 walks ran in
# float32, 52 of them fell back, and in the 243 kept the move reached at
# most 3.2 % of that error.
_RESIDUAL_FLOOR = 1e-5


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
    computes it as one symmetric rank update (BLAS syrk) in M's precision.
    The rung is scaled in place, in its own precision, by the power of two
    that brings its trace into [0.5, 1): exact in binary, and it keeps
    ``sigma_1^(2^(j+1))`` inside the range however high the ladder climbs."""
    G = M @ M.T
    np.ldexp(G, -np.frexp(G.trace())[1], out=G)
    return G


def _float32_copy(A: np.ndarray) -> np.ndarray:
    """A in float32, scaled by the power of two that brings ``max |A_ij|``
    into [0.5, 1): exact, and it keeps any float64 A inside float32's range."""
    exponent = np.frexp(max(A.max(), -A.min()))[1]
    return np.ldexp(A, -exponent, out=np.empty(A.shape, np.float32), casting="same_kind")


def _orthonormalize(Y: np.ndarray, passes: float) -> tuple[np.ndarray, float, float]:
    """The Q of Y's QR, with what ``|diag R|`` reads after ``passes`` passes
    since the last QR: the log spread ``ln(max/min |R_ii|)`` and the drift
    ``max |ln |R_ii||``, each per pass."""
    Y, R = np.linalg.qr(Y)
    logs = np.log(np.maximum(np.abs(np.diag(R)), np.finfo(np.float64).tiny))
    return Y, (logs.max() - logs.min()) / passes, np.abs(logs).max() / passes


def _climbs(A: np.ndarray, width: int, level: int, spread: float, run: int,
            depth: int | None, limits: _Limits) -> bool:
    """Whether a walk on rung ``level`` (-1 before G) that has run ``run``
    passes toward ``depth`` (None when unknown) forms the next rung
    ``G^(2^j)``, j = level + 1.

    One step of ``2^j`` passes must spread the block by at most the Gram
    limit of ``limits`` at the per-pass log ``spread`` the last QR read, and
    the passes the rung saves must repay it.  G saves ``2 m l (2n - m)``
    flops a pass and costs ``m^2 n``: it is repaid by the passes left to a
    known depth, or else by the two-product passes already run, so that a
    deep walk pays for G at most twice what the best schedule pays.  A
    higher rung saves one ``2 m^2 l`` step in every ``2^j`` passes left and
    costs ``m^3``; it is climbed only toward a known depth, where a step of
    ``2^j`` passes lands on it.  A tall A climbs no rung: its G would be
    larger than A."""
    m, n = A.shape
    j = level + 1
    if m > n or spread * (1 << j) > limits.gram:
        return False
    if j == 0:
        return (run if depth is None else depth - run) * 2 * width * (2 * n - m) >= m * n
    if depth is None:
        return False
    left = depth - run
    return not left % (1 << j) and (left >> j) * 2 * width >= m


def _top_rung(m: int, width: int, spread: float, left: int, limits: _Limits) -> int:
    """The highest rung that :func:`_climbs` reaches under ``limits`` with
    ``left`` passes to go, were every bit of ``left`` set."""
    j = 0
    while spread * (2 << j) <= limits.gram and (left >> (j + 1)) * 2 * width >= m:
        j += 1
    return j


def _float32_pays(A: np.ndarray, width: int, spread: float, run: int, depth: int) -> bool:
    """Whether a walk about to form G toward ``depth`` forms its ladder in
    float32.  float32's Gram limit must let it form G and climb as high as
    float64's would: a spread too wide for that would cost the ladder rungs,
    and it converges so fast that approx_truncated_svd would likely run the
    walk again in float64 (gap 0.5 at n = 300 did, at twice the time).  And
    half the ladder's flops, G's ``m^2 n``, ``m^3`` a squaring and
    ``2 m^2 l`` a step, must outweigh the QRs that float32's tighter spread
    limit takes over the passes left, and one more for the first interval,
    at ``_QR_FLOPS`` each."""
    m, n = A.shape
    left = depth - run
    top = _top_rung(m, width, spread, left, _FLOAT32)
    if not _climbs(A, width, -1, spread, run, depth, _FLOAT32) or top < _top_rung(
            m, width, spread, left, _FLOAT64):
        return False
    ladder = m * m * n + top * m**3 + 2 * m * m * width * (left >> top)
    qrs = 1 + _PLANNING_MARGIN * spread * left * (1 / _FLOAT32.spread - 1 / _FLOAT64.spread)
    return ladder >= 2 * qrs * (_QR_FLOPS[0] + _QR_FLOPS[1] * m * width**2)


def _walk(A: np.ndarray, S: np.ndarray, depth: int | None = None, *,
          dtype: type = np.float64) -> Iterator[np.ndarray]:
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
    drift ``max |ln |R_ii||`` the last QR read, could exceed the spread or
    drift limit, counting a step as its passes and, toward a known depth,
    the spread by ``_PLANNING_MARGIN``; the walk re-plans its climb after
    every QR.  ``A S`` counts as half a pass, since it scales by ``sigma``
    where a pass scales by ``sigma^2``: the first QR reads ``A A^T A S`` as
    one and a half passes.

    With ``dtype=np.float32`` and a known depth, a walk about to form G
    forms its ladder in float32 where :func:`_float32_pays`: G from a
    float32 copy of A, then its squares and the steps on them, planned under
    ``_FLOAT32``; its iterates from then on are float32.  The first float32
    interval has no float32 reading of the drift, so it plans on the bound
    the trace scaling gives: a rung's largest eigenvalue is at least
    ``1/(2m)``, so a step on it shrinks the block's strongest column by at
    most a factor of ``2m``, and its weakest by that and the step's
    spread."""
    width = S.shape[1]
    Yt = S.T @ A.T
    yield Yt.T
    limits, source = _FLOAT64, A
    margin = 1.0 if depth is None else _PLANNING_MARGIN
    run, passes, rate, spread, drift = 0, 0.5, 1.0, math.inf, 0.0
    level, rung = -1, None
    while depth is None or run < depth:
        while _climbs(A, width, level, spread, run, depth, limits):
            rung = _rung(source if rung is None else rung)
            level += 1
        step = 1 << max(level, 0)
        if drift is None:  # the first float32 interval, once its climb is done
            drift = spread + math.log(2 * A.shape[0]) / step
            rate = max(margin * spread / limits.spread, drift / limits.drift)
        if passes >= 1 and (passes + step) * rate > 1.0:
            Q, spread, drift = _orthonormalize(Yt.T, passes)
            readable = drift * passes < _FLOAT64_EDGE
            Yt, passes = Q.T, 0
            if (rung is None and dtype == np.float32 and depth is not None and readable
                    and _float32_pays(A, width, spread, run, depth)):
                limits, source, drift = _FLOAT32, _float32_copy(A), None
            else:
                rate = max(margin * spread / limits.spread, drift / limits.drift)
            continue
        Yt = (Yt @ A) @ A.T if rung is None else Yt.astype(rung.dtype, copy=False) @ rung
        run += step
        passes += step
        yield Yt.T


def power_product(A: np.ndarray, S: np.ndarray, p: int, *, dtype: type = np.float64) -> np.ndarray:
    """The p-th iterate of the subspace iteration on ``A S``, whose columns
    span ``(A A^T)^p A S``: the last iterate of the walk that plans on
    depth p.  p = 0 and 1 give ``A S`` and ``A (A^T (A S))`` themselves,
    to rounding: the walk takes no QR before its first pass is done.

    ``dtype=np.float32`` lets the walk run its Gram ladder in float32 where
    that pays; the iterate then comes back in float32."""
    A = as_matrix(A, "A")
    S = as_matrix(S, "S")
    p = _validate_depth(p)
    if S.shape[0] != A.shape[1]:
        raise ValueError(
            f"sketch must have {A.shape[1]} rows to match the matrix columns, got {S.shape[0]}"
        )
    dtype = np.dtype(dtype)
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"the walk rounds at float64 or float32, got {dtype}")
    return deque(_walk(A, S, p, dtype=dtype), maxlen=1)[0]


def power_basis_from_sketch(A: np.ndarray, S: np.ndarray, p: int, *,
                            dtype: type = np.float64) -> np.ndarray:
    """Orthonormal basis, as wide as S, whose span contains the columns of
    ``(A A^T)^p A S``; the QR completes a rank-deficient iterate with
    orthonormal columns.  Fully deterministic in its inputs: no randomness
    beyond the given sketch.  ``dtype`` goes to :func:`power_product`; the
    QR runs in float64 and the basis comes back in the iterate's precision,
    so a float32 basis says that the walk rounded at float32."""
    Y = power_product(A, S, p, dtype=dtype)
    return qr_factor(Y)[0].astype(Y.dtype, copy=False)


def power_basis(A: np.ndarray, k: int, p: int, seed: RngSeed, *,
                dtype: type = np.float64) -> np.ndarray:
    """m-by-l orthonormal basis of the column space of ``A`` after p
    power-iteration passes on a seeded Gaussian sketch.

    The sketch is n-by-l with ``l = min(k + 4, m, n)``; the basis is
    :func:`power_basis_from_sketch` of it, with ``dtype`` passed on.
    """
    A = as_matrix(A, "A")
    k = _check_level(k, *A.shape)
    p = _validate_depth(p)
    S = gaussian_matrix(A.shape[1], _sketch_width(A, k), seed)
    return power_basis_from_sketch(A, S, p, dtype=dtype)


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

    The basis is asked for in float32, so the walk may run its Gram ladder
    in float32, which moves x by float32's rounding: 2e-7 to 5e-7 relative
    on the paper's problems, up to 4e-6 on flatter spectra.  Where it did, the
    factorization is kept only if the k-th Ritz pair's relative residual
    ``||A v_k - sigma_k u_k|| / sigma_k`` reads at least
    ``_RESIDUAL_FLOOR``, so that the sketch's own error dwarfs that move;
    below it the walk runs again in float64, whose factorization is returned.
    """
    Q = power_basis(A, k, p, seed, dtype=np.float32)  # validates A
    A = np.asarray(A, dtype=np.float64)
    fact = ritz_factorization(A, Q, k)[1]
    if Q.dtype == np.float32:
        theta = fact.sigma[-1]
        if np.linalg.norm(A @ fact.V[:, -1] - theta * fact.U[:, -1]) < _RESIDUAL_FLOOR * theta:
            fact = ritz_factorization(A, power_basis(A, k, p, seed), k)[1]
    return fact


def power_iterates(A: np.ndarray, k: int, seed: RngSeed) -> Iterator[np.ndarray]:
    """The iterates of the subspace iteration on the sketch
    :func:`power_basis` draws, one pass at a time: yields ``Y_p`` for
    p = 0, 1, 2, ... without end.  The caller decides when to stop by
    leaving the loop.  The walk does not know its depth, so it climbs no
    higher than ``G = A A^T``, and it plans each QR on the spread limit
    itself; ``Y_p`` spans what :func:`power_product` gives at depth p on that
    sketch.
    """
    A = as_matrix(A, "A")
    k = _check_level(k, *A.shape)
    return _walk(A, gaussian_matrix(A.shape[1], _sketch_width(A, k), seed))
