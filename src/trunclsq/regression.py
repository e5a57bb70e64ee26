"""Least-squares solvers built on singular-value filtering.

Four solvers share one pattern — expand the right-hand side in the left
singular basis, damp or drop components, map back through the right singular
basis.  The three that leave every kept component undamped share one
apply step, :func:`trunclsq.linalg.solve_factored`, which computes
``x = V @ ((U^T b) / sigma)`` on the kept triples:

* :func:`exact_truncated_solve` keeps the k leading singular triples of A.
* :func:`approx_truncated_solve` does the same on the sketched rank-k
  factorization from :mod:`trunclsq.subspace`, avoiding the full SVD.
* :func:`tikhonov_solve` applies filter factors ``sigma^2/(sigma^2+lambda^2)``
  per singular component.
* :func:`full_ls_solve` keeps every nonzero triple: the minimum-norm
  least-squares solution.

Every solver returns a :class:`SolveOutcome` whose residual norm is
recomputed from ``(A, x, b)`` rather than trusted from the solver's algebra.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedTruncation
from .linalg import (
    ThinSVD,
    TruncatedFactorization,
    as_matrix,
    as_vector,
    leading_factors,
    solve_factored,
    thin_svd,
)
from .sketch import RngSeed
from .subspace import approx_truncated_svd

__all__ = [
    "SolveOutcome",
    "SIGMA_RATIO_FLOOR",
    "require_invertible",
    "exact_truncated_solve",
    "approx_truncated_solve",
    "tikhonov_solve",
    "full_ls_solve",
]

# Smallest acceptable ratio of the k-th retained singular value to the first;
# anything below is refused as numerically uninvertible.
SIGMA_RATIO_FLOOR = 1e-13


@dataclass(frozen=True)
class SolveOutcome:
    """Solution vector with its recomputed residual and timing.

    ``residual_norm`` is ``||A x - b||_2`` evaluated from the returned x,
    ``rhs_norm`` is ``||b||_2``, ``method`` tags the solver, ``k``/``p`` echo
    the truncation level and power depth where they apply, and ``wall_time``
    is the monotonic-clock duration of the solver body (factorization
    included, I/O excluded).
    """

    x: np.ndarray
    residual_norm: float
    rhs_norm: float
    method: str
    k: int | None
    p: int | None
    wall_time: float


def _outcome(
    method: str,
    A: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    k: int | None,
    p: int | None,
    started: float,
) -> SolveOutcome:
    wall_time = time.perf_counter() - started
    residual_norm = float(np.linalg.norm(A @ x - b))
    return SolveOutcome(
        x=x,
        residual_norm=residual_norm,
        rhs_norm=float(np.linalg.norm(b)),
        method=method,
        k=k,
        p=p,
        wall_time=wall_time,
    )


def require_invertible(fact: TruncatedFactorization) -> None:
    """Raise :class:`IllConditionedTruncation` when the k-th singular value
    of ``fact`` falls below ``SIGMA_RATIO_FLOOR`` times the first."""
    floor = SIGMA_RATIO_FLOOR * fact.sigma[0]
    if fact.sigma[-1] < floor:
        raise IllConditionedTruncation(
            f"recovered sigma_k = {fact.sigma[-1]:.3e} is below "
            f"{SIGMA_RATIO_FLOOR:g} * sigma_1 = {floor:.3e}"
        )


def exact_truncated_solve(
    A: np.ndarray,
    b: np.ndarray,
    k: int,
    factorization: ThinSVD | None = None,
) -> SolveOutcome:
    """Solution through the k leading singular triples of A.

    Expands b on the leading left singular vectors, divides by the singular
    values, and maps back:  ``x = V_k @ ((U_k^T b) / sigma_k)``.  Passing a
    precomputed ``factorization`` of A reuses it (and excludes it from the
    timed body); otherwise the thin SVD is computed and timed here.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    started = time.perf_counter()
    F = factorization if factorization is not None else thin_svd(A)
    fact = leading_factors(F, k)
    x = solve_factored(fact, b)
    return _outcome("exact_truncated", A, b, x, fact.k, None, started)


def approx_truncated_solve(
    A: np.ndarray, b: np.ndarray, k: int, p: int, seed: RngSeed
) -> SolveOutcome:
    """Randomized counterpart of :func:`exact_truncated_solve`.

    Uses the sketched rank-k factorization after p power-iteration passes;
    the cost is dominated by ``O(m n (k + s) (p + 1))`` multiply-adds, with
    ``s = 4`` oversampling columns, instead of a full SVD.  Raises
    :class:`IllConditionedTruncation` when the recovered k-th singular value
    falls below ``SIGMA_RATIO_FLOOR`` times the first.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    started = time.perf_counter()
    fact = approx_truncated_svd(A, k, p, seed)
    require_invertible(fact)
    x = solve_factored(fact, b)
    return _outcome("approx_truncated", A, b, x, int(k), int(p), started)


def tikhonov_solve(
    A: np.ndarray,
    b: np.ndarray,
    lambdas: np.ndarray,
    factorization: ThinSVD | None = None,
) -> SolveOutcome:
    """Per-component ridge-filtered solution.

    Each singular component of the expansion is damped by the filter factor
    ``sigma_i^2 / (sigma_i^2 + lambda_i^2)``; ``lambdas`` must supply one
    nonnegative value per nonzero singular value of A.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    started = time.perf_counter()
    F = factorization if factorization is not None else thin_svd(A)
    lam = as_vector(lambdas, "lambdas", dim=F.rank)
    if np.any(lam < 0.0):
        raise ValueError("lambdas must be nonnegative")
    coefficients = (F.sigma * (F.U.T @ b)) / (F.sigma**2 + lam**2)
    x = F.V @ coefficients
    return _outcome("tikhonov", A, b, x, None, None, started)


def full_ls_solve(
    A: np.ndarray,
    b: np.ndarray,
    factorization: ThinSVD | None = None,
) -> SolveOutcome:
    """Minimum-norm least-squares solution through every nonzero singular
    triple (the pseudo-inverse applied to b)."""
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    started = time.perf_counter()
    F = factorization if factorization is not None else thin_svd(A)
    x = solve_factored(F, b)
    return _outcome("full_ls", A, b, x, None, None, started)
