"""Least-squares solvers built on singular-value filtering.

Five solvers share one pattern — expand the right-hand side in the left
singular basis, damp or drop components, map back through the right singular
basis.  The four that leave every kept component undamped share one
apply step, :func:`trunclsq.linalg.solve_factored`, which computes
``x = V @ ((U^T b) / sigma)`` on the kept triples:

* :func:`exact_truncated_solve` keeps the k leading singular triples of A.
* :func:`approx_truncated_solve` does the same on the sketched rank-k
  factorization from :mod:`trunclsq.subspace`, avoiding the full SVD.
* :func:`adaptive_truncated_solve` runs the sketched solve as subspace
  iteration to checkpoints of doubling depth and stops once the solution has
  settled to an accuracy target.
* :func:`tikhonov_solve` applies filter factors ``sigma^2/(sigma^2+lambda^2)``
  per singular component.
* :func:`full_ls_solve` keeps every nonzero triple: the minimum-norm
  least-squares solution.

Each solver factors A itself, and the truncated ones refuse a level outside
``1 <= k <= rank`` through :func:`trunclsq.linalg.leading_factors`.
Every solver returns a :class:`SolveOutcome` whose residual norm is
recomputed from ``(A, x, b)`` rather than trusted from the solver's algebra.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import choose_power_depth, gap_profile
from .linalg import (
    as_matrix,
    as_vector,
    leading_factors,
    require_invertible,
    solve_factored,
    thin_svd,
)
from .sketch import RngSeed
from .subspace import _spans_range, approx_truncated_svd, ritz_checkpoints

__all__ = [
    "SolveOutcome",
    "exact_truncated_solve",
    "approx_truncated_solve",
    "adaptive_truncated_solve",
    "tikhonov_solve",
    "full_ls_solve",
]

# adaptive_truncated_solve re-solves at depth 0, _FIRST_CHECKPOINT and then
# _GROWTH times the last depth, and extrapolates the remaining change of x
# as a geometric series whose ratio is capped below one, so that a stalled
# sequence is never taken as converged.  A first checkpoint at 12 or 16
# passed the depth rule's cap on the gap-0.5 acceptance instance, whose
# Ritz values at depth 0 give a cap up to 16 where the true one is 9; one
# at 4 adds a Ritz step to every solve that stops at 16 or later.
_FIRST_CHECKPOINT = 8
_GROWTH = 2
_RATE_CAP = 0.999

# The least epsilon at which the adaptive walk runs its Gram ladder in
# float32, kept against the (4/3) epsilon target, not the sketch's error: it
# moved x by at most 2.4e-6 at epsilon = 1e-3 on the fuzz test's problems
# and 2.1e-4 on flat spectra at 0.05, 0.2 and 0.3 % of the target.
_FLOAT32_EPSILON = 1e-3


@dataclass(frozen=True)
class SolveOutcome:
    """Solution vector with its recomputed residual and timing.

    ``residual_norm`` is ``||A x - b||_2`` evaluated from the returned x,
    ``rhs_norm`` is ``||b||_2``, ``method`` tags the solver, ``k`` echoes the
    truncation level where it applies, ``p`` is the number of power passes
    the randomized solvers ran (the requested depth for
    :func:`approx_truncated_solve`, the depth at which
    :func:`adaptive_truncated_solve` stopped), and ``wall_time`` is the
    monotonic-clock duration of the solver body (factorization included,
    I/O excluded).
    """

    x: np.ndarray
    residual_norm: float
    rhs_norm: float
    method: str
    k: int | None
    p: int | None
    wall_time: float


def _outcome(method: str, A: np.ndarray, b: np.ndarray, x: np.ndarray, k: int | None,
             p: int | None, started: float) -> SolveOutcome:
    wall_time = time.perf_counter() - started
    r = A @ x - b  # the norms as numpy.linalg.norm takes them, without its dispatch
    return SolveOutcome(x=x, residual_norm=math.sqrt(r.dot(r)), rhs_norm=math.sqrt(b.dot(b)),
                        method=method, k=k, p=p, wall_time=wall_time)


def exact_truncated_solve(A: np.ndarray, b: np.ndarray, k: int) -> SolveOutcome:
    """Solution through the k leading singular triples of A.

    Expands b on the leading left singular vectors, divides by the singular
    values, and maps back:  ``x = V_k @ ((U_k^T b) / sigma_k)``.  The thin
    SVD of A is computed and timed here.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    started = time.perf_counter()
    fact = leading_factors(thin_svd(A), k)
    x = solve_factored(fact, b)
    return _outcome("exact_truncated", A, b, x, fact.k, None, started)


def approx_truncated_solve(
    A: np.ndarray, b: np.ndarray, k: int, p: int, seed: RngSeed
) -> SolveOutcome:
    """Randomized counterpart of :func:`exact_truncated_solve`.

    Uses the sketched rank-k factorization after p power-iteration passes;
    the cost is dominated by ``O(m n (k + s) (p + 1))`` multiply-adds, with
    ``s = 4`` oversampling columns, instead of a full SVD, except where
    ``k + s >= min(m, n)``: there the sketch would span A's whole range, and
    the solve costs one thin SVD of A, whatever p.  On a square or
    wide A whose head is not too spread, a deep solve runs its passes on
    ``A A^T`` and its squares ``(A A^T)^(2^j)``, for
    ``O(m^2 n + J m^3 + m^2 (k + s) (p / 2^J + J))`` with J squarings, and
    from about n = 200 on the paper's problems runs that ladder in float32,
    which moves x by 2e-7 to 5.4e-7 relative there, elsewhere a fraction of
    the sketch's error; where the k-th Ritz residual reads below 1e-5 it runs
    the walk again in float64 (:func:`trunclsq.subspace.approx_truncated_svd`).
    Raises :class:`IllConditionedTruncation` when the recovered k-th singular
    value falls below ``SIGMA_RATIO_FLOOR`` times the first.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    started = time.perf_counter()
    fact = approx_truncated_svd(A, k, p, seed)
    require_invertible(fact)
    x = solve_factored(fact, b)
    return _outcome("approx_truncated", A, b, x, int(k), int(p), started)


def _relative_change(x: np.ndarray, previous: np.ndarray) -> float:
    change = float(np.linalg.norm(x - previous))
    size = float(np.linalg.norm(x))
    if size > 0.0:
        return change / size
    return 0.0 if change == 0.0 else math.inf


def _next_checkpoint(p: int, cap: int) -> int:
    return min(max(_FIRST_CHECKPOINT, _GROWTH * p), cap)


def _settled(change: float, last_change: float, growth: float, epsilon: float) -> bool:
    """Whether x is within the ``(4/3) epsilon`` solution-error target: the
    last change is, and so is twice the change still to come.  A change over
    L passes shrinks like ``rho^L``, so the ratio of the last two changes,
    raised to ``growth``, the last segment's length over the one before, is
    the rate of the series the changes to come form; it errs high, which
    only makes the estimate of what is to come larger."""
    target = 4.0 / 3.0 * epsilon
    rate = min((change / last_change) ** growth, _RATE_CAP) if last_change > 0.0 else _RATE_CAP
    return change <= target and 2.0 * change * rate / (1.0 - rate) <= target


def adaptive_truncated_solve(
    A: np.ndarray, b: np.ndarray, k: int, epsilon: float, delta: float, seed: RngSeed
) -> SolveOutcome:
    """Randomized truncated solve that picks its own depth.

    Runs the subspace iteration of :func:`trunclsq.subspace.ritz_checkpoints`
    on the sketch :func:`approx_truncated_solve` draws to checkpoints at
    depths 0, ``_FIRST_CHECKPOINT`` and then ``_GROWTH`` times the last, each
    segment's ladder planned on the checkpoint after its own.  At each it
    solves on the Ritz step's rank-k factorization and stops at the first of:

    * the solution has settled (:func:`_settled`): the relative change of x
      since the last solve, and twice the change still to come, are both
      within ``(4/3) epsilon``, the solution-error target of
      :func:`trunclsq.bounds.choose_power_depth`;
    * the depth reaches that function's worst-case rule for
      ``(epsilon, delta)``, evaluated on the current Ritz values at every
      solve; every checkpoint is clamped to it;
    * the sketch is as wide as A's short side, ``l = min(m, n)``, where it
      stops at p = 0: its basis spans all of A's range at every depth, so no
      later checkpoint can move x beyond rounding.

    ``p`` of the outcome is the number of passes run, and x is the x of
    ``approx_truncated_solve(A, b, k, p, seed)`` to rounding: a checkpoint's
    QR moves it in the last digits, and for ``epsilon >= _FLOAT32_EPSILON``
    the walk runs its ladder in float32 where that pays, which moves it far
    inside the target (``_FLOAT32_EPSILON``).  A tied spectrum raises
    :class:`NoSpectralGap`, a cross product of rank below k
    :class:`InvalidTruncation`, and a recovered k-th singular value below
    ``SIGMA_RATIO_FLOOR`` times the first :class:`IllConditionedTruncation`.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    started = time.perf_counter()
    dtype = np.float32 if epsilon >= _FLOAT32_EPSILON else np.float64
    walk = ritz_checkpoints(A, k, seed, dtype=dtype)
    p, ritz, fact = next(walk)
    x = change = None
    last = length = 0
    while True:
        cap = choose_power_depth(epsilon, delta, gap_profile(ritz, k))
        require_invertible(fact)
        x, previous = solve_factored(fact, b), x
        if previous is not None:
            change, last_change = _relative_change(x, previous), change
            if last_change is not None and _settled(change, last_change, length / last, epsilon):
                break
        if p >= cap or _spans_range(A, k):
            break
        depth = _next_checkpoint(p, cap)
        last, length = length, depth - p
        p, ritz, fact = walk.send((depth, _next_checkpoint(depth, cap)))
    return _outcome("adaptive_truncated", A, b, x, int(k), p, started)


def tikhonov_solve(A: np.ndarray, b: np.ndarray, lambdas: np.ndarray | float) -> SolveOutcome:
    """Per-component ridge-filtered solution.

    Each singular component of the expansion is damped by the filter factor
    ``sigma_i^2 / (sigma_i^2 + lambda_i^2)``; ``lambdas`` must supply one
    nonnegative value per nonzero singular value of A, or a single value
    that damps every component.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    started = time.perf_counter()
    F = thin_svd(A)
    lam = np.asarray(lambdas, dtype=np.float64)
    lam = as_vector(np.full(F.rank, lam.item()) if lam.size == 1 else lam, "lambdas", dim=F.rank)
    if np.any(lam < 0.0):
        raise ValueError("lambdas must be nonnegative")
    coefficients = (F.sigma * (F.U.T @ b)) / (F.sigma**2 + lam**2)
    x = F.V @ coefficients
    return _outcome("tikhonov", A, b, x, None, None, started)


def full_ls_solve(A: np.ndarray, b: np.ndarray) -> SolveOutcome:
    """Minimum-norm least-squares solution through every nonzero singular
    triple (the pseudo-inverse applied to b)."""
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    started = time.perf_counter()
    x = solve_factored(thin_svd(A), b)
    return _outcome("full_ls", A, b, x, None, None, started)
