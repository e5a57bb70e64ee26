"""Certified error bounds for the randomized truncated solver.

This module makes the solver's accuracy guarantees executable:

* :func:`choose_power_depth` picks the smallest power-iteration depth that
  meets an additive-residual / relative-solution-error target with
  probability about ``1 - 2.35 * delta``.
* :func:`projection_power_depth` is the analogous depth for driving the
  projection distance between the exact and sketched top-k left subspaces
  below a target.
* :func:`projection_distance` measures that subspace distance (the sine of
  the largest principal angle).
* :func:`subspace_capture_bound` certifies a fully deterministic inequality:
  for ANY sketch S, the weighted projection gap is dominated by the
  geometrically decaying tail term ``gamma_k^(2p+1) * sigma_1(V_tail^T S)``.
* :func:`error_chain` certifies the three-link deterministic chain that
  converts a projection distance into a bound on the solution perturbation.
* :func:`lower_bound_instance` constructs an adversarial right-hand side
  proving that no multiplicative accuracy guarantee is possible for a
  b-oblivious rank-k approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSketch, NoSpectralGap, RankDeficient, ZeroMatrix
from .linalg import (
    ThinSVD,
    TruncatedFactorization,
    as_matrix,
    as_vector,
    leading_factors,
    pseudo_inverse,
    reconstruct,
    solve_factored,
    spectral_norm,
    thin_svd,
    truncate,
)
from .regression import require_invertible
from .sketch import RngSeed
from .subspace import approx_truncated_svd, power_basis_from_sketch

__all__ = [
    "GapProfile",
    "BoundReport",
    "AdversarialInstance",
    "gap_profile",
    "choose_power_depth",
    "projection_power_depth",
    "projection_distance",
    "subspace_capture_bound",
    "error_chain",
    "lower_bound_instance",
]

# Orthonormality slack accepted on inputs to projection_distance.
ORTHONORMALITY_TOLERANCE = 1e-8
# Absolute floor below which an adversarial separation is flagged negligible.
NEGLIGIBLE_SEPARATION = 1e-12
# Certificate tolerances are this fraction of the relevant scale.
CERTIFICATE_TOLERANCE = 1e-8


@dataclass(frozen=True)
class GapProfile:
    """Spectral summary of a truncation problem.

    ``gamma_k = sigma_k_plus_1 / sigma_k`` is the tail-to-head ratio that
    controls how fast power iteration separates the top-k subspace; ``n`` is
    the column count of the underlying matrix.
    """

    sigma_1: float
    sigma_k: float
    sigma_k_plus_1: float
    gamma_k: float
    n: int
    k: int

    def __post_init__(self) -> None:
        if not (self.sigma_1 >= self.sigma_k >= self.sigma_k_plus_1 >= 0.0):
            raise ValueError(
                "singular values must be ordered sigma_1 >= sigma_k >= sigma_k_plus_1 >= 0"
            )
        if self.sigma_k <= 0.0:
            raise ValueError("sigma_k must be positive")
        if not 0.0 <= self.gamma_k <= 1.0:
            raise ValueError(f"gamma_k must lie in [0, 1], got {self.gamma_k}")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: ``satisfied`` iff ``measured <= bound + tol``."""

    measured: float
    bound: float
    satisfied: bool
    tol: float
    label: str


def _report(label: str, measured: float, bound: float, tol: float) -> BoundReport:
    measured = float(measured)
    bound = float(bound)
    tol = float(tol)
    return BoundReport(
        measured=measured,
        bound=bound,
        satisfied=bool(measured <= bound + tol),
        tol=tol,
        label=label,
    )


@dataclass(frozen=True)
class AdversarialInstance:
    """Output of :func:`lower_bound_instance`.

    ``b`` is the constructed right-hand side, ``epsilon_star`` the certified
    relative separation, and ``negligible`` flags the degenerate case
    ``epsilon_star <= 1e-12`` (the approximation is essentially exact, so the
    instance separates nothing)."""

    b: np.ndarray
    epsilon_star: float
    negligible: bool


def gap_profile(A: np.ndarray, k: int, factorization: ThinSVD | None = None) -> GapProfile:
    """Measure the spectral profile of ``(A, k)`` from a thin SVD."""
    A = as_matrix(A, "A")
    F = factorization if factorization is not None else thin_svd(A)
    k = leading_factors(F, k).k
    sigma_1 = float(F.sigma[0])
    sigma_k = float(F.sigma[k - 1])
    sigma_k_plus_1 = float(F.sigma[k]) if k < F.rank else 0.0
    return GapProfile(
        sigma_1=sigma_1,
        sigma_k=sigma_k,
        sigma_k_plus_1=sigma_k_plus_1,
        gamma_k=sigma_k_plus_1 / sigma_k,
        n=A.shape[1],
        k=k,
    )


def _check_unit_interval(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")
    return value


def _depth_from_logs(log_numerator: float, gamma_k: float) -> int:
    # Both logs are negative: the ratio is the smallest real depth that
    # closes the target, and the ceiling is the smallest valid integer.
    denominator = 2.0 * math.log(gamma_k)
    return max(0, math.ceil(log_numerator / denominator))


def choose_power_depth(epsilon: float, delta: float, profile: GapProfile) -> int:
    """Smallest power-iteration depth p meeting the solver guarantees.

    With this depth, the sketched solver's residual exceeds the exact
    truncated residual by at most ``epsilon * ||b||`` and its solution error
    ``||x_k - x~_k|| / ||x_k||`` stays within ``(4/3) * epsilon``, each with
    probability at least about ``1 - 2.35 * delta`` over the sketch draw.
    Computed in log space as
    ``ceil((ln eps + ln delta + 2 ln sigma_k - 2 ln sigma_1 - ln 12 - ln n)
    / (2 ln gamma_k))``.

    ``gamma_k = 1`` raises :class:`NoSpectralGap` (no depth separates the
    subspace); ``gamma_k = 0`` returns 0 (one pass captures the range
    exactly).
    """
    epsilon = _check_unit_interval(epsilon, "epsilon")
    delta = _check_unit_interval(delta, "delta")
    gamma_k = profile.gamma_k
    if gamma_k >= 1.0:
        raise NoSpectralGap(
            "gamma_k = 1: the tail ties the head, no power depth separates them"
        )
    if gamma_k == 0.0:
        return 0
    log_numerator = (
        math.log(epsilon)
        + math.log(delta)
        + 2.0 * math.log(profile.sigma_k)
        - 2.0 * math.log(profile.sigma_1)
        - math.log(12.0)
        - math.log(profile.n)
    )
    return _depth_from_logs(log_numerator, gamma_k)


def projection_power_depth(epsilon: float, delta: float, profile: GapProfile) -> int:
    """Smallest depth driving the top-k subspace projection distance below
    ``epsilon`` with probability at least about ``1 - 2.35 * delta``:
    ``ceil(ln(eps * delta / (4 n)) / (2 ln gamma_k))``."""
    epsilon = _check_unit_interval(epsilon, "epsilon")
    delta = _check_unit_interval(delta, "delta")
    gamma_k = profile.gamma_k
    if gamma_k >= 1.0:
        raise NoSpectralGap(
            "gamma_k = 1: the tail ties the head, no power depth separates them"
        )
    if gamma_k == 0.0:
        return 0
    log_numerator = math.log(epsilon) + math.log(delta) - math.log(4.0) - math.log(profile.n)
    return _depth_from_logs(log_numerator, gamma_k)


def _require_orthonormal(M: np.ndarray, name: str) -> np.ndarray:
    M = as_matrix(M, name)
    gram_error = float(np.max(np.abs(M.T @ M - np.eye(M.shape[1]))))
    if gram_error > ORTHONORMALITY_TOLERANCE:
        raise ValueError(
            f"{name} columns are not orthonormal: max |M^T M - I| = {gram_error:.3e}"
        )
    return M


def projection_distance(U: np.ndarray, W: np.ndarray) -> float:
    """``||U U^T - W W^T||_2`` between two k-dimensional column spaces.

    Both inputs must be m-by-k with orthonormal columns.  Computed as the
    spectral norm of ``(I - U U^T) W`` — the sine of the largest principal
    angle — so the value lies in [0, 1].
    """
    U = _require_orthonormal(U, "U")
    W = _require_orthonormal(W, "W")
    if U.shape != W.shape:
        raise ValueError(f"subspace bases must share a shape, got {U.shape} and {W.shape}")
    value = spectral_norm(W - U @ (U.T @ W))
    return min(float(value), 1.0)


def subspace_capture_bound(A: np.ndarray, S: np.ndarray, k: int, p: int) -> BoundReport:
    """Deterministic certificate of sketched-subspace capture.

    For the exact top-k factors ``(U_k, V_k)`` of A, the trailing right
    factors ``V_tail``, and the basis Q rebuilt from this exact sketch S
    (no fresh randomness), the inequality

    ``sigma_k(V_k^T S) * ||U_k U_k^T - Q Q^T||_2
      <= gamma_k^(2p+1) * sigma_1(V_tail^T S)``

    holds for every matrix S.  The report's ``satisfied`` must therefore be
    true on every valid input; its tolerance is ``1e-8 * sigma_1(A)``, a
    scale independent of S.  A sketch with ``sigma_k(V_k^T S) = 0`` cannot
    probe the subspace and raises :class:`DegenerateSketch`; when A has exact
    rank k there is no tail and both sides are declared zero.
    """
    A = as_matrix(A, "A")
    S = as_matrix(S, "S")
    k = int(k)
    p = int(p)
    if p < 0:
        raise ValueError(f"power-iteration depth must be nonnegative, got {p}")
    F = thin_svd(A)
    head = leading_factors(F, k)
    if S.shape != (A.shape[1], k):
        raise ValueError(
            f"sketch must be {A.shape[1]}x{k} to match (columns of A, k), got {S.shape}"
        )
    tol = CERTIFICATE_TOLERANCE * float(F.sigma[0])
    label = "sketched-subspace capture"
    if F.rank == k:
        return _report(label, 0.0, 0.0, tol)
    head_cross = head.V.T @ S
    head_sigma = np.linalg.svd(head_cross, compute_uv=False)
    sigma_k_head = float(head_sigma[-1])
    if sigma_k_head == 0.0:
        raise DegenerateSketch("sigma_k(V_k^T S) = 0: the sketch misses the top-k subspace")
    try:
        Q = power_basis_from_sketch(A, S, p)
    except RankDeficient as exc:
        raise DegenerateSketch(f"sketch produced a rank-deficient power product: {exc}") from exc
    distance = projection_distance(head.U, Q)
    tail_cross = F.V[:, k:].T @ S
    sigma_1_tail = float(np.linalg.svd(tail_cross, compute_uv=False)[0])
    gamma_k = float(F.sigma[k] / F.sigma[k - 1])
    measured = sigma_k_head * distance
    bound = gamma_k ** (2 * p + 1) * sigma_1_tail
    return _report(label, measured, bound, tol)


def error_chain(
    A: np.ndarray, b: np.ndarray, k: int, p: int, seed: RngSeed
) -> list[BoundReport]:
    """Three deterministic inequality certificates linking the projection
    distance to the solution perturbation, evaluated on realized factors.

    1. ``||A (x~_k - x_k)||`` is at most
       ``2 sigma_1^2 / (sigma_k(A~_k) sigma_k(A)) * dist * ||b||``
       (a pseudo-inverse perturbation bound in the style of Stewart).
    2. ``sigma_k(A) - sigma_k(A~_k)`` is at most ``sigma_1 * dist``
       (Weyl's singular-value perturbation inequality applied to link 3).
    3. ``||A~_k - A_k||_2`` is at most ``sigma_1 * dist``
       (submultiplicativity of the projector difference).

    All three must be satisfied on every valid input; a violation beyond
    tolerance indicates an implementation bug, not bad luck.
    """
    A = as_matrix(A, "A")
    b = as_vector(b, "b", dim=A.shape[0])
    F = thin_svd(A)
    exact = leading_factors(F, k)
    k = exact.k
    fact = approx_truncated_svd(A, k, p, seed)
    require_invertible(fact)
    sigma_1 = float(F.sigma[0])
    sigma_k = float(F.sigma[k - 1])
    sigma_k_sketch = float(fact.sigma[-1])
    distance = projection_distance(exact.U, fact.U)
    rhs_norm = float(np.linalg.norm(b))

    x_exact = solve_factored(exact, b)
    x_sketch = solve_factored(fact, b)
    delta_measured = float(np.linalg.norm(A @ (x_sketch - x_exact)))
    delta_bound = 2.0 * sigma_1**2 / (sigma_k_sketch * sigma_k) * distance * rhs_norm

    block_gap = float(spectral_norm(reconstruct(fact) - reconstruct(exact)))

    def tol_for(bound: float) -> float:
        return CERTIFICATE_TOLERANCE * (1.0 + bound)

    reports = [
        _report("solution-perturbation", delta_measured, delta_bound, tol_for(delta_bound)),
        _report(
            "truncated-singular-value floor",
            sigma_k - sigma_k_sketch,
            sigma_1 * distance,
            tol_for(sigma_1 * distance),
        ),
        _report(
            "projected-truncation gap",
            block_gap,
            sigma_1 * distance,
            tol_for(sigma_1 * distance),
        ),
    ]
    return reports


def lower_bound_instance(
    A: np.ndarray, approx: TruncatedFactorization, k: int
) -> AdversarialInstance:
    """Adversarial right-hand side showing additive error is the best possible.

    For ``M = (I - A_k A~_k^+) A_k`` the separation is
    ``epsilon_star = ||M||_2 / ||A_k||_2``, achieved by ``b = A_k z`` with z
    the top right singular vector of M: the exact rank-k solver then has zero
    residual while the sketched solver's residual is at least
    ``epsilon_star * ||b||``.  When the approximation is essentially exact
    (``epsilon_star <= 1e-12``) the instance is flagged ``negligible`` and z
    falls back to the leading right singular vector of A.
    """
    A = as_matrix(A, "A")
    k = int(k)
    if approx.k != k:
        raise ValueError(f"approximation level {approx.k} does not match k={k}")
    F = thin_svd(A)
    exact = truncate(F, k)
    if approx.U.shape != (A.shape[0], k) or approx.V.shape != (A.shape[1], k):
        raise ValueError("approximation factor shapes do not match A")
    require_invertible(approx)
    exact_block = reconstruct(exact)
    approx_pinv = pseudo_inverse(approx)
    failure = exact_block - exact_block @ (approx_pinv @ exact_block)
    sigma_1 = float(F.sigma[0])
    try:
        failure_svd = thin_svd(failure)
        epsilon_star = float(failure_svd.sigma[0]) / sigma_1
        z = failure_svd.V[:, 0]
    except ZeroMatrix:
        epsilon_star = 0.0
        z = exact.V[:, 0]
    negligible = epsilon_star <= NEGLIGIBLE_SEPARATION
    if negligible:
        z = exact.V[:, 0]
    b = exact_block @ z
    return AdversarialInstance(b=b, epsilon_star=epsilon_star, negligible=negligible)
