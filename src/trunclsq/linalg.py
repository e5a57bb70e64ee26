"""Dense linear-algebra kernels.

This module holds the deterministic building blocks everything else uses:
matrix/vector validation, QR factorization, rank-revealing thin SVD,
Moore-Penrose pseudo-inverse, the exact spectral norm, and the rank-k factor
arithmetic every solver and certificate shares: selecting the k leading
triples, applying ``V_k diag(1/sigma_k) U_k^T`` to a vector, and rebuilding
``U_k diag(sigma_k) V_k^T``.  Matrices are plain 2-D float64 ``numpy``
arrays and vectors are 1-D float64 arrays; the helpers :func:`as_matrix` /
:func:`as_vector` enforce shape and finiteness at every public entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTruncation, RankDeficient, ZeroMatrix

__all__ = [
    "KernelTolerances",
    "TOLERANCES",
    "ThinSVD",
    "QRFactors",
    "TruncatedFactorization",
    "as_matrix",
    "as_vector",
    "matmul",
    "qr_factor",
    "thin_svd",
    "pseudo_inverse",
    "spectral_norm",
    "leading_factors",
    "truncate",
    "reconstruct",
    "solve_factored",
]


@dataclass(frozen=True)
class KernelTolerances:
    """Rank thresholds used by the factorization kernels, in one record.

    qr_rank_threshold:
        ``qr_factor`` declares rank deficiency when the smallest ``|R[i, i]|``
        is at most this fraction of the spectral norm of the input.
    svd_rank_factor:
        ``thin_svd`` keeps singular values above
        ``max(rows, cols) * sigma_1 * svd_rank_factor``.
    """

    qr_rank_threshold: float = 1e-12
    svd_rank_factor: float = 1e-14


TOLERANCES = KernelTolerances()


def as_matrix(M: object, name: str = "matrix") -> np.ndarray:
    """Validate ``M`` as a dense real matrix and return it as float64."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(
            f"{name} must be a 2-D array with positive dimensions, got shape {A.shape}"
        )
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} must contain only finite values")
    return A


def as_vector(v: object, name: str = "vector", dim: int | None = None) -> np.ndarray:
    """Validate ``v`` as a dense real vector and return it as float64."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-D array with positive length, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must contain only finite values")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {x.shape[0]}")
    return x


@dataclass(frozen=True)
class ThinSVD:
    """Rank-revealing thin SVD ``M = U @ diag(sigma) @ V.T``.

    ``U`` is m-by-r and ``V`` is n-by-r with orthonormal columns, ``sigma``
    holds the r strictly positive singular values in descending order, and
    ``rank`` is r, the numerical rank of the factored matrix.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int


@dataclass(frozen=True)
class QRFactors:
    """Economy QR factorization ``M = Q @ R`` with Q m-by-k orthonormal and
    R k-by-k upper triangular."""

    Q: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class TruncatedFactorization:
    """A rank-k factor triple ``U @ diag(sigma) @ V.T``.

    ``kind`` tags where the factors came from: ``"exact"`` for the leading
    block of a thin SVD, ``"approximate"`` for factors recovered from a
    sketched subspace.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    k: int
    kind: str


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Standard matrix product with dimension validation."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[1] != B.shape[0]:
        raise ValueError(
            f"inner dimensions must agree: A is {A.shape[0]}x{A.shape[1]}, "
            f"B is {B.shape[0]}x{B.shape[1]}"
        )
    return A @ B


def qr_factor(M: np.ndarray, rank_threshold: float | None = None) -> QRFactors:
    """Economy QR of a tall full-column-rank matrix.

    Raises :class:`RankDeficient` when the smallest diagonal entry of R falls
    at or below ``rank_threshold`` times the spectral norm of ``M`` (default:
    ``qr_rank_threshold``), and ``ValueError`` when ``M`` has more columns
    than rows.  Callers that orthonormalize legitimately ill-conditioned
    inputs — deep power-iteration products, whose conditioning grows like
    ``(sigma_1 / sigma_k) ** (2p+1)`` without being rank-deficient — may pass
    ``rank_threshold=0.0`` so that only exactly zero pivots are rejected.
    """
    M = as_matrix(M, "M")
    if rank_threshold is None:
        rank_threshold = TOLERANCES.qr_rank_threshold
    rank_threshold = float(rank_threshold)
    if rank_threshold < 0.0:
        raise ValueError(f"rank_threshold must be nonnegative, got {rank_threshold}")
    m, n = M.shape
    if m < n:
        raise ValueError(f"qr_factor requires rows >= cols, got {m}x{n}")
    Q, R = np.linalg.qr(M, mode="reduced")
    smallest = float(np.min(np.abs(np.diag(R))))
    if rank_threshold == 0.0 and smallest > 0.0:
        # Only exactly zero pivots are rejected; the norm is not needed.
        return QRFactors(Q=Q, R=R)
    # ||M||_2 equals the top singular value of the small factor R.
    top = float(np.linalg.svd(R, compute_uv=False)[0])
    if top == 0.0 or smallest <= rank_threshold * top:
        raise RankDeficient(
            f"matrix of shape {m}x{n} is numerically rank-deficient: "
            f"min |R[i,i]| = {smallest:.3e} against spectral norm {top:.3e}"
        )
    return QRFactors(Q=Q, R=R)


def thin_svd(M: np.ndarray) -> ThinSVD:
    """Thin SVD keeping only the numerically nonzero singular triples.

    Singular values at or below ``max(rows, cols) * sigma_1 * svd_rank_factor``
    are treated as zero.  Each right singular vector is sign-canonicalized so
    that its largest-magnitude entry (lowest index on ties) is positive,
    making the factors deterministic.  Raises :class:`ZeroMatrix` for an
    all-zero input.
    """
    M = as_matrix(M, "M")
    if not M.any():
        raise ZeroMatrix(f"cannot factor an all-zero {M.shape[0]}x{M.shape[1]} matrix")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    cutoff = max(M.shape) * s[0] * TOLERANCES.svd_rank_factor
    rank = int(np.count_nonzero(s > cutoff))
    if rank == 0:
        raise ZeroMatrix("matrix is numerically zero: all singular values below cutoff")
    U = U[:, :rank].copy()
    s = s[:rank].copy()
    V = Vt[:rank].T.copy()
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.where(V[lead, np.arange(rank)] < 0.0, -1.0, 1.0)
    V *= signs
    U *= signs
    return ThinSVD(U=U, sigma=s, V=V, rank=rank)


def pseudo_inverse(F: ThinSVD | TruncatedFactorization) -> np.ndarray:
    """Moore-Penrose pseudo-inverse ``V @ diag(1/sigma) @ U.T`` of the
    factored matrix, with shape n-by-m."""
    return (F.V / F.sigma) @ F.U.T


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of ``M``, read off its full singular-value
    decomposition (``numpy.linalg.norm(M, 2)``); 0.0 for an all-zero matrix.

    Exact to working precision on every spectrum, clustered top singular
    values included, so a certificate's measured side is never underestimated.
    """
    return float(np.linalg.norm(as_matrix(M, "M"), 2))


def leading_factors(F: ThinSVD, k: int) -> TruncatedFactorization:
    """The k leading singular triples of a thin SVD, tagged ``"exact"``.

    Requires ``1 <= k <= F.rank``; anything else raises
    :class:`InvalidTruncation`.  ``k == F.rank`` keeps every triple.
    """
    k = int(k)
    if not 1 <= k <= F.rank:
        raise InvalidTruncation(
            f"truncation level k={k} must satisfy 1 <= k <= rank ({F.rank})"
        )
    return TruncatedFactorization(
        U=F.U[:, :k], sigma=F.sigma[:k], V=F.V[:, :k], k=k, kind="exact"
    )


def truncate(F: ThinSVD, k: int) -> TruncatedFactorization:
    """Leading rank-k block of a thin SVD (the best rank-k approximation).

    The strict form of :func:`leading_factors`: it also refuses ``k ==
    F.rank``, so the truncation always drops a nonzero tail.  Requires
    ``1 <= k < F.rank``; anything else raises :class:`InvalidTruncation`.
    """
    k = int(k)
    if k >= F.rank:
        raise InvalidTruncation(
            f"truncation level k={k} must satisfy 1 <= k < rank ({F.rank}) "
            "to leave a nonzero tail"
        )
    return leading_factors(F, k)


def reconstruct(fact: TruncatedFactorization) -> np.ndarray:
    """Materialize ``U @ diag(sigma) @ V.T`` from a factor triple."""
    return (fact.U * fact.sigma) @ fact.V.T


def solve_factored(F: ThinSVD | TruncatedFactorization, b: np.ndarray) -> np.ndarray:
    """Apply the pseudo-inverse of the factored matrix to ``b`` without
    forming it: ``x = V diag(1/sigma) U^T b``, evaluated right to left."""
    return F.V @ ((F.U.T @ b) / F.sigma)
