"""Randomized subspace iteration and the sketched truncated SVD.

The iteration draws an n-by-l Gaussian sketch S, oversampled to
``l = min(k + 4, m, n)`` columns, and runs passes ``Y <- A (A^T Y)`` from
``Y = A S``, replacing Y by an orthonormal basis of its span after the
first pass and then only when the spread and drift the last QR read call
for it (Halko, Martinsson & Tropp 2011, arXiv:0909.4061, Alg. 4.4).  One
walk serves every depth, and it knows how far it goes: on a square or wide
A whose block is not too spread for G's rounding, passes run as
``Y <- G Y`` on ``G = A A^T`` once the passes it will serve repay it, and
the walk climbs to the rungs ``G^2, G^4, ...``, each squared from the one
before, while the steps a rung saves repay its m^3 flops and one step on it
stays within G's rounding gate; a step on ``G^(2^j)`` runs ``2^j`` passes.
:func:`power_product` takes the walk's last iterate at a given depth;
:func:`ritz_checkpoints` runs it in segments to depths its caller picks
while iterating, each segment resuming from the orthonormal basis the last
checkpoint took, on the rungs earlier segments formed.  A spread reading
runs low while the block is still turning, so every walk plans each
interval between QRs to two thirds of the spread limit.  The spread is read
per pass and the drift per step: a step on a rung, which is scaled to a
trace below one, shrinks the block by about the same factor whatever its
``2^j``.

The walk needs only its block's span, so every QR it takes, the first
included, is a Cholesky QR of the block's l-by-l Gram (46-79 us on a
float32 block where Householder took 51-153 us, l = 24, m = 100..500, one
thread), kept where its own reading lies within the spread limit that keeps
it exact enough.  The first block, which no reading bounds, is scaled by a
power of two wherever its Gram would leave float64's range.  A block under
1.5 l or 64 rows tall, a QR the schedule could not keep within the limit,
one whose Cholesky fails or reads past it, and every checkpoint's QR, which
hands a float64 basis to a Ritz step, take numpy's Householder QR.

A walk may also run its ladder in float32, whose syrk and gemm OpenBLAS
runs in 41-67 % of the float64 time, under float32's own spread, drift and
Gram limits; ``A S``, the two-product passes, the checkpoints' QRs, the
Ritz step and the apply stay float64, and every QR forms its Gram in
float64.  It does so
only where the caller asks, where float32's tighter Gram limit costs
float64's ladder plan no rung, and where the flops float32 halves outweigh
a measured count of the QRs it adds.  :func:`approx_truncated_svd` asks,
then keeps the float32 answer only where its own Ritz residual shows that
the sketch's error dwarfs float32's rounding; on the paper's problems
(n = 200..500, gap 0.99) x moved about 2e-7 to 5.4e-7 relative.  Every call
with default arguments stays in float64,
:func:`trunclsq.bounds.subspace_capture_bound` among them, whose
exact-arithmetic bound float32 rounding would break.

The walk carries the l-by-m row block ``Y^T``: a pass runs as
``(Y^T A) A^T`` and a step as ``Y^T G^(2^j)``, 10-30 % faster than
``A (A^T Y)`` and ``G Y`` at m = 300..500 on one OpenBLAS thread.

The range finder orthonormalizes the p-th iterate to the m-by-l basis
``Q`` with one QR at the end: a Cholesky QR within float32's spread limit
where the walk rounded at float32, whose basis goes on in float32 anyway,
and otherwise Householder's, which completes a rank-deficient iterate with
orthonormal columns.  One Ritz step, :func:`ritz_factorization`, turns any
such basis into a rank-k factorization (Alg. 5.1): the thin SVD of the
small l-by-n cross product ``Q^T A``, whose k leading triples, lifted by Q,
are the rank-k truncation of the projected matrix ``Q Q^T A``.  It takes
them through :func:`trunclsq.linalg.leading_factors`, so fewer than k
numerically nonzero singular values raise :class:`InvalidTruncation`, as in
the exact solve.  The SVD goes through ``eigh`` of the l-by-l row Gram of
``Q^T A`` wherever ``sigma_1 / sigma_l <= 100`` (``thin_svd(gram=True)``),
about half of gesdd's time at l = 24, n = 300..500, and through LAPACK's
SVD elsewhere, as where the l leading values span a thousandfold.  The Gram
route took every paper-grid Ritz step and 799 of 800 certificate ones
measured (the benchmark's seeds 1 and 2), and it moved x at most 2.2e-13
relative from LAPACK's factors.
"""

from __future__ import annotations

import math
from collections.abc import Generator

import numpy as np

from .linalg import (
    ThinSVD,
    TruncatedFactorization,
    _GRAM_RANGE,
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
    "ritz_checkpoints",
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
# direction three float32 digits above the rounding of the strongest, and
# moved x no further than 1e3 did on the paper's n = 300 problems, for 4
# QRs where 1e3 took 6 or 7.  The Gram limit 1e2 lets G's
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
# 1e6, the worst by a factor of 99.  Every walk therefore plans each
# interval to two thirds of the spread limit, which no QR after the first
# has read past on those walks, on the hard-spectrum walks, on 400
# certificate-sized ones or on 80 adaptive solves of paper problems, whose
# float32 QRs stayed 1.2 nats or more inside float32's limit.
_PLANNING_MARGIN = 1.5

# The first float32 interval is planned on the float64 reading taken after
# one and a half passes.  With the drift planned per step, and planned at
# _PLANNING_MARGIN, it ran 9 to 25 passes at n = 300, and one of the 48
# paper-grid solves of the benchmark's seed 1 (n = 200..500) moved x by
# 3.3e-6 relative from the float64 walk's.  At twice the margin it ran 1 to
# 9 passes and every move stayed below 8e-7, against 5e-7 with every QR
# Householder and the drift planned per pass.
_FIRST_FLOAT32_MARGIN = 2 * _PLANNING_MARGIN

# A reading is taken from the block the last interval left, and a block
# whose |R_ii| reached the edge of float64's range carries no spread: where
# sigma_1^3 is below about 1e-308, A S and the first pass underflow to zero
# and read a spread of 0.  The walk plans no float32 ladder on such a
# reading, whose first interval would otherwise run without a QR.
_FLOAT64_EDGE = -math.log(np.finfo(np.float64).tiny)

# A Cholesky QR needs a block at least _CHOLESKY_ASPECT times as tall as
# wide and at least _CHOLESKY_ROWS rows tall; shorter blocks take
# Householder.  Below 1.5 l rows the l-by-l inverse of L costs about as much
# as the Gram, and a Cholesky QR of 24 to 48 rows at l = 24 ran 2-7 % dearer
# than Householder, called alone (one OpenBLAS thread).  Below 64 rows the
# fixed cost of its five LAPACK and BLAS calls outweighs what it saves: in a
# loop over the benchmark's certificate solves (m <= 60), where each call
# finds the other kind's code cold, Cholesky first QRs raised the median
# approx-to-exact time ratio 2.5 %, and with both limits it stayed within
# 1 % of walks whose first QR is Householder.  From m = 100 on, the paper's
# sizes, a Cholesky QR costs about half of Householder's.
_CHOLESKY_ASPECT = 1.5
_CHOLESKY_ROWS = 64

# One Cholesky QR of a float32 m-by-l block, its Gram formed in float64,
# costs about as much as 6e5 + 12 m l^2 flops of the ladder's products: with
# numpy 2.4 on one OpenBLAS thread and l = 24 it took 40 us at m = 100,
# 53 us at m = 300 and 61 to 100 us at m = 500, where A A^T took 31 us,
# 0.56 ms and 2.3 to 2.5 ms.
_QR_FLOPS = (6e5, 12)

# The QRs a float32 ladder adds to its walk, through float32's tighter spread
# limit and a first interval planned at twice the margin, counted where the
# choice is closest: on the n = 100 paper walks of the benchmark's generator
# (seeds 1 to 5) whose spread float32's Gram limit admits, the float32 walk
# took 11 loop QRs where the float64 walk took 5.  Larger walks add fewer,
# 1 to 4 at n = 200 and 300, and their ladders repay 6 all the same.
_FLOAT32_QRS = 6

# approx_truncated_svd keeps a basis whose walk ran its ladder in float32
# only where the k-th Ritz pair's relative residual
# ||A v_k - theta_k u_k|| / theta_k reads at least this floor.  On
# synthetic_problem(n, 20, gamma, 0.2) for n = 200..500, gamma = 0.5..0.99
# and depth ceil(10 ln n) or half of it, float32 moved x by 5e-8 to 5e-7
# relative, and where the residual read above the floor the solution error
# read at least 1.6 times it.  On 600 random problems (m = 150..420, gaps
# 0.9..0.999, scales 2^-500..2^500) the 243 float32 walks kept moved x by
# at most 3.2 % of the error the sketch leaves.
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
    ``sigma_1^(2^(j+1))`` inside the range however high the ladder climbs.
    Where that power is a normal number of the rung's precision the scaling
    multiplies by it, which rounds as ``ldexp`` does in half its time."""
    G = M @ M.T
    exponent = int(np.frexp(G.trace())[1])
    info = np.finfo(G.dtype)
    if info.minexp <= -exponent < info.maxexp:
        G *= G.dtype.type(2.0**-exponent)
    else:
        np.ldexp(G, -exponent, out=G)
    return G


def _float32_copy(A: np.ndarray) -> np.ndarray:
    """A in float32, scaled by the power of two that brings ``max |A_ij|``
    into [0.5, 1): exact, and it keeps any float64 A inside float32's range.

    It casts first and scales the float32 copy in place, 12-27 % faster
    than scaling in float64 and casting at n = 200..500; the two round alike
    wherever no entry is subnormal in float32 before or after the scaling,
    and an inexact subnormal raises the underflow flag.  Where the scale
    itself is not a normal float32 or the flag is raised, it scales in
    float64 and casts."""
    exponent = int(np.frexp(max(A.max(), -A.min()))[1])
    if -127 <= exponent <= 126:
        try:
            with np.errstate(under="raise"):
                copy = A.astype(np.float32)
                copy *= np.float32(2.0**-exponent)
            return copy
        except FloatingPointError:
            pass
    return np.ldexp(A, -exponent, out=np.empty(A.shape, np.float32), casting="same_kind")


def _reading(logs: np.ndarray) -> tuple[float, float]:
    """The spread ``max - min`` and drift ``max |.|`` of the logs of a
    block's ``|R_ii|``."""
    low, high = logs.min(), logs.max()
    return high - low, max(high, -low)


def _cholesky_qr(Yt: np.ndarray, spread: float) -> tuple[np.ndarray, float, float] | None:
    """A Cholesky QR of ``Y``, kept only where its own reading allows it, and
    the :func:`_reading` of its ``diag L``, which is ``|diag R|`` in exact
    arithmetic; None where it does not apply.

    ``L = cholesky(Y^T Y)`` of the l-by-l Gram, formed in float64 whatever
    the block's precision, gives the block ``inv(L) Y^T`` in the block's
    precision.  It keeps the block's span, and its rows orthonormal to about
    ``kappa^2 u``, while ``kappa^2 u < 1`` (Fukaya, Nakatsukasa, Yanagisawa &
    Yamamoto 2014): the float64 spread limit 1e6 holds that at about 1e-4,
    float32's 1e4 at about 1e-8.  A Gram whose largest diagonal entry leaves
    ``_GRAM_RANGE`` is formed again on the block scaled by the power of two
    that brings its largest entry into [0.5, 1): exact, so only the drift
    reading moves, by the known exponent.  Only the walk's first block,
    which no reading bounds, leaves that range: its entries scale like
    ``sigma^3``, 2^+-900 for A scaled by 2^+-300, where an unscaled Gram
    overflows, or underflows to a factor that can pass the spread check.
    It returns None on a block under ``_CHOLESKY_ASPECT`` times as tall as
    wide or under ``_CHOLESKY_ROWS`` rows, where it is dearer than
    Householder, on a Gram that is not positive definite, and where
    ``diag L`` reads a log spread past ``spread`` (or NaN)."""
    width, m = Yt.shape
    if m < max(_CHOLESKY_ASPECT * width, _CHOLESKY_ROWS):
        return None
    B = Yt.astype(np.float64, copy=False)
    with np.errstate(over="ignore", under="ignore"):  # caught by the range check
        G, exponent = B @ B.T, 0
    if not _GRAM_RANGE[0] <= G.diagonal().max() <= _GRAM_RANGE[1]:  # also on NaN
        exponent = int(np.frexp(max(B.max(), -B.min()))[1])
        B = np.ldexp(B, -exponent)
        G = B @ B.T
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    logs = np.log(L.diagonal())
    if exponent:
        logs += exponent * math.log(2)
    reading = _reading(logs)
    if not reading[0] <= spread:
        return None
    return (np.linalg.inv(L) @ B).astype(Yt.dtype, copy=False), *reading


def _orthonormalize(Yt: np.ndarray, passes: float, steps: float,
                    cholesky: bool) -> tuple[np.ndarray, float, float]:
    """A row block with orthonormal rows spanning the rows of ``Y^T``, and
    what ``|diag R|`` of Y's QR reads after ``passes`` passes in ``steps``
    steps since the last QR: the log spread ``ln(max/min |R_ii|)`` per pass
    and the drift ``max |ln |R_ii||`` per step.

    With ``cholesky`` it takes :func:`_cholesky_qr` within the float64
    spread limit, all the walk needs being the block's span; where that
    returns None, and on every other call, numpy's Householder QR, which
    completes a rank-deficient block with orthonormal rows."""
    found = _cholesky_qr(Yt, _FLOAT64.spread) if cholesky else None
    if found is None:
        Q, R = np.linalg.qr(Yt.T)
        found = Q.T, *_reading(np.log(np.maximum(np.abs(R.diagonal()), np.finfo(np.float64).tiny)))
    Qt, spread, drift = found
    return Qt, spread / passes, drift / steps


class _Ladder:
    """What a walk on A carries from one segment to the next: the rungs
    ``G^(2^j)`` it climbed, which depend only on A, the limits, source and
    margin of their precision, and its last QR's reading."""

    __slots__ = ("rungs", "limits", "source", "margin", "spread", "drift", "readable")

    def __init__(self, A: np.ndarray) -> None:
        self.rungs: list[np.ndarray] = []
        self.limits, self.source, self.margin = _FLOAT64, A, _PLANNING_MARGIN
        self.spread, self.drift, self.readable = math.inf, 0.0, False


def _climbs(A: np.ndarray, width: int, j: int, spread: float, left: int, beyond: int,
            limits: _Limits, formed: bool) -> bool:
    """Whether a walk with ``left`` passes to go steps up to the rung
    ``G^(2^j)`` (j = 0 is ``G = A A^T``), its ladder to serve ``beyond``
    passes more after them.

    One step of ``2^j`` passes must land within the passes left and spread
    the block by at most the Gram limit of ``limits`` at the per-pass log
    ``spread`` the last QR read, and a rung not yet ``formed`` must be
    repaid by the passes it serves: G saves ``2 m l (2n - m)`` flops a pass
    for its ``m^2 n``, a higher rung one ``2 m^2 l`` step in every ``2^j``
    passes for its ``m^3``.  A is square or wide: :func:`_walk` asks for no
    rung on a tall A, whose G would be larger."""
    m, n = A.shape
    if spread * (1 << j) > limits.gram or left % (1 << j):
        return False
    if formed:
        return True
    served = left + beyond
    if j == 0:
        return served * 2 * width * (2 * n - m) >= m * n
    return (served >> j) * 2 * width >= m


def _float32_pays(A: np.ndarray, width: int, spread: float, left: int) -> bool:
    """Whether a walk about to form G for a ladder that serves ``left``
    passes forms it in float32.  The walk plans float64's ladder: the
    highest rung ``top`` that :func:`_climbs` reaches under float64's Gram
    limit with those passes, were every bit of them set.  float32's Gram
    limit must admit that rung, and so every rung below it: a spread too
    wide for that would cost the ladder rungs, and converges so fast that
    approx_truncated_svd would likely run the walk again in float64.  And
    half the ladder's flops, G's ``m^2 n``, ``m^3`` a squaring and
    ``2 m^2 l`` a step, must outweigh ``_FLOAT32_QRS`` QRs at ``_QR_FLOPS``
    each."""
    m, n = A.shape
    top = 0
    while spread * (2 << top) <= _FLOAT64.gram and (left >> (top + 1)) * 2 * width >= m:
        top += 1
    if not _climbs(A, width, 0, spread * (1 << top), left, 0, _FLOAT32, False):
        return False
    ladder = m * m * n + top * m**3 + 2 * m * m * width * (left >> top)
    return ladder >= 2 * _FLOAT32_QRS * (_QR_FLOPS[0] + _QR_FLOPS[1] * m * width**2)


def _walk(A: np.ndarray, Yt: np.ndarray, depth: int, ladder: _Ladder, *, passes: float = 0.0,
          beyond: int = 0, float32: bool = False, QtA: np.ndarray | None = None) -> np.ndarray:
    """The row block ``Y^T`` after ``depth`` more passes, spanning
    ``(A A^T)^depth Y``.  ``passes`` counts what the block ran since it was
    orthonormal: 0.5 for ``A S``, which scales by ``sigma`` where a pass
    scales by ``sigma^2``.  ``ladder`` holds what earlier segments on A left,
    keeps what this one adds, and is planned to serve ``beyond`` more passes.

    A step is a two-product pass ``Y^T <- (Y^T A) A^T``, its first product
    ``QtA`` where the caller has it, until :func:`_climbs` steps up to G; on
    ``G^(2^j)`` it runs ``2^j`` passes as one product ``Y^T G^(2^j)``.  A
    segment starts on G where G is formed and lands on its depth in
    binary-exponentiation order: a rung below the top takes a step only
    where the passes left have bit j set.  Y goes through a QR after its
    first full pass while no QR has read it, and after that before any step
    that could exceed the spread or drift limit, at the spread per pass
    ``ln(max/min |R_ii|)`` and drift per step ``max |ln |R_ii||`` the last
    QR read, the spread counted by the planning margin; the walk re-plans
    its climb after every QR.  The passes left only fall between QRs, so G
    is formed right after one or at the segment's start, and no reading
    mixes two-product passes with steps on a rung.  Until a QR reads such
    steps their drift is planned on the bound trace scaling gives: a rung's
    largest eigenvalue is at least ``1/(2m)``, so a step shrinks the
    strongest column by at most ``2m``, the weakest by that and its spread.
    Every QR, the first included, is a Cholesky QR where the reading
    leaves it within float64's spread limit or no QR has read the block yet
    (:func:`_orthonormalize`).  With ``float32``, G
    and the ladder are formed in float32 where :func:`_float32_pays` and
    planned under ``_FLOAT32``, the first interval at ``_FIRST_FLOAT32_MARGIN``
    on its float64 reading.  A tall A runs two-product passes only: its G
    would be larger than A, so :func:`_climbs` is not asked."""
    width, shrink, tall = Yt.shape[0], math.log(2 * A.shape[0]), A.shape[0] > A.shape[1]
    steps, run, level = passes, 0, 0 if ladder.rungs else -1
    while run < depth:
        left = depth - run
        while not tall and _climbs(A, width, level + 1, ladder.spread, left, beyond,
                                   ladder.limits, level + 1 < len(ladder.rungs)):
            if not ladder.rungs:
                if float32 and ladder.readable and _float32_pays(A, width, ladder.spread,
                                                                 left + beyond):
                    ladder.limits, ladder.source = _FLOAT32, _float32_copy(A)
                    ladder.margin = _FIRST_FLOAT32_MARGIN
                ladder.drift = None  # read on two-product passes, not on rung steps
            if level + 1 == len(ladder.rungs):
                ladder.rungs.append(_rung(ladder.source if level < 0 else ladder.rungs[level]))
            level += 1
        step = 1 << max(level, 0)
        per_step = shrink + step * ladder.spread if ladder.drift is None else ladder.drift
        if passes >= 1 and ((passes + step) * ladder.margin * ladder.spread > ladder.limits.spread
                            or (steps + 1) * per_step > ladder.limits.drift):
            cholesky = (ladder.spread == math.inf
                        or passes * ladder.margin * ladder.spread <= _FLOAT64.spread)
            Yt, ladder.spread, ladder.drift = _orthonormalize(Yt, passes, steps, cholesky)
            ladder.readable = ladder.drift * steps < _FLOAT64_EDGE
            passes, steps, ladder.margin = 0, 0, _PLANNING_MARGIN
            continue
        if level < 0:
            Yt, QtA = (Yt @ A if QtA is None else QtA) @ A.T, None
        else:
            Yt = Yt.astype(ladder.rungs[level].dtype, copy=False) @ ladder.rungs[level]
        run, passes, steps = run + step, passes + step, steps + 1
    return Yt


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
    return _walk(A, S.T @ A.T, p, _Ladder(A), passes=0.5,
                 float32=dtype == np.float32).T


def power_basis_from_sketch(A: np.ndarray, S: np.ndarray, p: int, *,
                            dtype: type = np.float64) -> np.ndarray:
    """Orthonormal basis, as wide as S, whose span contains the columns of
    ``(A A^T)^p A S``; the QR completes a rank-deficient iterate with
    orthonormal columns.  Fully deterministic in its inputs: no randomness
    beyond the given sketch.  ``dtype`` goes to :func:`power_product`, and
    the basis comes back in the iterate's precision, so a float32 basis says
    that the walk rounded at float32.  A float32 iterate takes a Cholesky QR
    of its float64 Gram, kept within float32's spread limit; a float64 one,
    and a float32 one past that limit, numpy's Householder QR in float64
    (:func:`trunclsq.linalg.qr_factor`), which gives a float64 basis
    orthonormal to working precision."""
    Y = power_product(A, S, p, dtype=dtype)
    if Y.dtype == np.float32:
        found = _cholesky_qr(Y.T, _FLOAT32.spread)
        if found is not None:
            return found[0].T
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


def ritz_factorization(A: np.ndarray, Q: np.ndarray,
                       k: int) -> tuple[ThinSVD, TruncatedFactorization]:
    """The Ritz step on an orthonormal basis ``Q`` of ``A``'s sketched range.

    Returns the thin SVD of the cross product ``Q^T A`` and its k leading
    triples from :func:`trunclsq.linalg.leading_factors`, lifted to
    ``U = Q @ U_small`` and tagged ``kind="approximate"``: the rank-k
    truncation of the projected matrix ``Q Q^T A``.  A cross product of
    numerical rank below k raises :class:`InvalidTruncation`.  The thin SVD
    goes through ``eigh`` of the cross product's row Gram where
    ``sigma_1 / sigma_l <= 100`` and LAPACK's SVD elsewhere
    (:func:`trunclsq.linalg.thin_svd` with ``gram=True``), which moves x by
    at most about 2e-13 relative.
    """
    return _ritz_step(Q, Q.T @ A, k)


def _ritz_step(Q: np.ndarray, QtA: np.ndarray, k: int) -> tuple[ThinSVD, TruncatedFactorization]:
    ritz = thin_svd(QtA, gram=True)
    head = leading_factors(ritz, k)
    return ritz, TruncatedFactorization(U=Q @ head.U, sigma=head.sigma, V=head.V, k=head.k,
                                        kind="approximate")


def approx_truncated_svd(A: np.ndarray, k: int, p: int, seed: RngSeed) -> TruncatedFactorization:
    """Rank-k factorization of ``A`` from the sketched range after p passes:
    :func:`ritz_factorization` on ``power_basis(A, k, p, seed)``.

    With Q that basis, ``U @ diag(sigma) @ V.T`` is the rank-k truncation of
    ``Q Q^T A`` to working precision; a cross product of numerical rank below
    k raises :class:`InvalidTruncation`.

    The basis is asked for in float32, which moves x by 2e-7 to 5.4e-7
    relative on the paper's problems, up to 4e-6 on flatter spectra.  Where
    the walk ran in float32, the factorization is kept only if the k-th Ritz
    pair's relative residual ``||A v_k - sigma_k u_k|| / sigma_k`` reads at
    least ``_RESIDUAL_FLOOR``; below it the walk runs again in float64.
    """
    Q = power_basis(A, k, p, seed, dtype=np.float32)  # validates A
    A = np.asarray(A, dtype=np.float64)
    fact = ritz_factorization(A, Q, k)[1]
    if Q.dtype == np.float32:
        theta = fact.sigma[-1]
        if np.linalg.norm(A @ fact.V[:, -1] - theta * fact.U[:, -1]) < _RESIDUAL_FLOOR * theta:
            fact = ritz_factorization(A, power_basis(A, k, p, seed), k)[1]
    return fact


def ritz_checkpoints(
    A: np.ndarray, k: int, seed: RngSeed, *, dtype: type = np.float64
) -> Generator[tuple[int, ThinSVD, TruncatedFactorization], tuple[int, int], None]:
    """The Ritz step of the subspace iteration on the sketch
    :func:`power_basis` draws, at depths picked while iterating: yields
    ``(p, ritz, fact)`` of :func:`ritz_factorization` at p = 0, then at the
    depth of each ``(depth, plan)`` sent back, ``p < depth <= plan``.

    Each segment resumes from the basis Q the last checkpoint took with a
    float64 Householder QR, which keeps the span (Alg. 4.4), on the rungs
    and reading earlier segments left; its first two-product pass reuses
    the checkpoint's ``Q^T A``.  It plans its Gram ladder, in float32 with
    ``dtype=np.float32`` where that pays, to serve the passes up to plan.
    """
    A = as_matrix(A, "A")
    k = _check_level(k, *A.shape)
    S = gaussian_matrix(A.shape[1], _sketch_width(A, k), seed)
    ladder, float32 = _Ladder(A), np.dtype(dtype) == np.float32
    Yt, p = S.T @ A.T, 0
    while True:
        Q = np.linalg.qr(Yt.T.astype(np.float64, copy=False))[0]
        QtA = Q.T @ A
        depth, plan = yield (p, *_ritz_step(Q, QtA, k))
        Yt = _walk(A, Q.T, depth - p, ladder, beyond=plan - depth, float32=float32, QtA=QtA)
        p = depth
