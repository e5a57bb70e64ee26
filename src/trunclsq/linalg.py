"""Dense linear-algebra kernels.

This module holds the deterministic building blocks everything else uses:
matrix/vector validation, QR factorization, rank-revealing thin SVD,
Moore-Penrose pseudo-inverse, the exact spectral norm, and the rank-k factor
contract every solver and certificate shares: the one level check
(:func:`leading_factors`), the one invertibility floor
(:func:`require_invertible`), applying ``V_k diag(1/sigma_k) U_k^T`` to a
vector, and rebuilding ``U_k diag(sigma_k) V_k^T``.  Matrices are plain 2-D float64 ``numpy``
arrays and vectors are 1-D float64 arrays; the helpers :func:`as_matrix` /
:func:`as_vector` enforce shape and finiteness at every public entry point,
with one ``isfinite`` pass and one array-method reduction: 2.9 us a call on
the benchmark's certificate instances (m <= 60, n <= 48; one OpenBLAS thread
on a shared 2-vCPU Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedTruncation, InvalidTruncation, ZeroMatrix

__all__ = [
    "SVD_RANK_FACTOR",
    "SIGMA_RATIO_FLOOR",
    "ThinSVD",
    "TruncatedFactorization",
    "as_matrix",
    "as_vector",
    "qr_factor",
    "thin_svd",
    "pseudo_inverse",
    "spectral_norm",
    "leading_factors",
    "require_invertible",
    "reconstruct",
    "solve_factored",
]


# thin_svd keeps singular values above max(rows, cols) * sigma_1 * this factor.
SVD_RANK_FACTOR = 1e-14

# Smallest acceptable ratio of the k-th retained singular value to the first;
# anything below is refused as numerically uninvertible.
SIGMA_RATIO_FLOOR = 1e-13

# thin_svd(gram=True) takes the Gram route only where the short-side Gram's
# eigenvalues lie within this ratio of each other, sigma_1/sigma_r <= 100:
# eigh resolves each eigenvalue to about eps * lambda_max, so every sigma to
# about eps * 1e4 / 2, 1e-12 relative.
_GRAM_SPREAD = 1e-4

# The range _gram keeps a Gram in.  With its largest diagonal entry, the
# largest squared norm of a row of the block, within 1e+-200, the Gram cannot
# overflow, and every row within a spread of 1e6 of the largest in norm keeps
# its squared norm above 1e-212, far above float64's smallest normal number.
_GRAM_RANGE = (1e-200, 1e200)


def as_matrix(M: object, name: str = "matrix") -> np.ndarray:
    """Validate ``M`` as a dense real matrix and return it as float64."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(
            f"{name} must be a 2-D array with positive dimensions, got shape {A.shape}"
        )
    if not np.isfinite(A).all():
        raise ValueError(f"{name} must contain only finite values")
    return A


def as_vector(v: object, name: str = "vector", dim: int | None = None) -> np.ndarray:
    """Validate ``v`` as a dense real vector and return it as float64."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-D array with positive length, got shape {x.shape}")
    if not np.isfinite(x).all():
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


def qr_factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economy QR ``M = Q @ R`` of a tall matrix, returned as the pair
    ``(Q, R)``; raises ``ValueError`` when ``M`` has more columns than rows.
    A rank-deficient M still gets an orthonormal Q, whose extra columns
    complete the block (Halko, Martinsson & Tropp 2011, Alg. 4.4)."""
    M = as_matrix(M, "M")
    m, n = M.shape
    if m < n:
        raise ValueError(f"qr_factor requires rows >= cols, got {m}x{n}")
    return np.linalg.qr(M, mode="reduced")


def _gram(B: np.ndarray) -> np.ndarray | None:
    """``B B^T`` of a float64 block, for :func:`_gram_factors` and the walk's
    Cholesky QRs; None where its largest diagonal entry leaves ``_GRAM_RANGE``
    (NaN included), with no warning for the ``inf - inf`` an overflow leaves."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        G = B @ B.T
    return G if _GRAM_RANGE[0] <= G.diagonal().max() <= _GRAM_RANGE[1] else None


def _gram_factors(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(U, sigma, V^T)`` of M through ``eigh`` of its short-side Gram
    ``T T^T`` (T = M, or M^T where M is tall): eigenvectors W, eigenvalues
    ``sigma^2``, and the long side's rows ``(W / sigma)^T T``.  None where
    :func:`_gram` refuses the Gram or it reads
    ``lambda_min < _GRAM_SPREAD * lambda_max`` (an all-zero M included)."""
    wide = M.shape[0] <= M.shape[1]
    T = M if wide else M.T
    G = _gram(T)
    if G is None:
        return None
    w, W = np.linalg.eigh(G)
    if w[0] < _GRAM_SPREAD * w[-1]:
        return None
    s = np.sqrt(w[::-1])
    W = W[:, ::-1]
    long = (W / s).T @ T
    return (W, s, long) if wide else (long.T, s, W.T)


def thin_svd(M: np.ndarray, *, gram: bool = False) -> ThinSVD:
    """Thin SVD keeping only the numerically nonzero singular triples.

    Singular values at or below ``max(rows, cols) * sigma_1 * SVD_RANK_FACTOR``
    are treated as zero.  Each right singular vector is sign-canonicalized so
    that its largest-magnitude entry (lowest index on ties) is positive,
    making the factors deterministic.  A matrix with fewer rows than columns
    is factored through the SVD of its transpose, which LAPACK's gesdd runs
    faster on OpenBLAS than the wide factorization.  Raises
    :class:`ZeroMatrix` for an all-zero input and ``ValueError`` where
    ``sigma_1 * max(rows, cols)`` overflows float64.

    With ``gram=True`` a matrix whose short-side r-by-r Gram is well
    conditioned, ``lambda_min >= 1e-4 lambda_max`` so that
    ``sigma_1 / sigma_r <= 100``, is factored through ``eigh`` of that Gram:
    one syrk, one r-by-r eigendecomposition and the long side
    ``T^T W / sigma`` (:func:`_gram_factors`).  Each sigma is then accurate
    to about ``eps * 1e4``, 2e-12 relative, where LAPACK's SVD is backward
    stable on any spectrum; the factors keep the sign canonicalization, C
    order and ``rank = r``.  A Ritz step through it took 140-170 us at
    24 x 300..500 where one through gesdd took 250-345 us (one OpenBLAS
    thread, min of 200).  Every other input, and every call without the
    keyword, runs LAPACK as above, bit for bit.  Only the Ritz step of
    :mod:`trunclsq.subspace` asks for it; the exact, Tikhonov and full
    least-squares solves and every certificate's exact factors keep
    LAPACK's SVD.
    """
    M = as_matrix(M, "M")
    found = _gram_factors(M) if gram else None
    if found is not None:
        U, s, Vt = found
        rank = s.shape[0]
    else:
        wide = M.shape[0] < M.shape[1]
        U, s, Vt = np.linalg.svd(M.T if wide else M, full_matrices=False)
        if s[0] == 0.0:  # sigma_1 >= max |M_ij|, so only an all-zero M reads 0
            raise ZeroMatrix(f"cannot factor an all-zero {M.shape[0]}x{M.shape[1]} matrix")
        if wide:
            U, Vt = Vt.T, U.T
        cutoff = max(M.shape) * float(s[0]) * SVD_RANK_FACTOR  # a float overflows quietly
        if not cutoff < np.inf:  # else sigma_1 > cutoff, so rank >= 1
            raise ValueError(f"cannot factor a {M.shape[0]}x{M.shape[1]} matrix: "
                             "sigma_1 * max(rows, cols) overflows float64")
        rank = int(np.count_nonzero(s > cutoff))
        Vt = Vt[:rank]
    signs = np.copysign(1.0, Vt[np.arange(rank), abs(Vt).argmax(axis=1)])
    # C order: a product taken on a strided view of a factor can round differently.
    U = np.multiply(U[:, :rank], signs, order="C")
    V = np.multiply(Vt.T, signs, order="C")
    return ThinSVD(U=U, sigma=s[:rank].copy(), V=V, rank=rank)


def pseudo_inverse(F: ThinSVD | TruncatedFactorization) -> np.ndarray:
    """Moore-Penrose pseudo-inverse ``V @ diag(1/sigma) @ U.T`` of the
    factored matrix, with shape n-by-m."""
    return (F.V / F.sigma) @ F.U.T


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of ``M``, the first of its singular values
    from LAPACK's SVD: the value ``numpy.linalg.norm(M, 2)`` returns, without
    its axis bookkeeping; 0.0 for an all-zero matrix.

    Exact to working precision on every spectrum, clustered top singular
    values included, so a certificate's measured side is never underestimated.
    """
    return float(np.linalg.svd(as_matrix(M, "M"), compute_uv=False)[0])


def _check_level(k: int, rows: int, cols: int) -> int:
    """The level check every solver makes on an m-by-n matrix before it
    looks at the rank: ``1 <= k <= min(rows, cols)``, else
    :class:`InvalidTruncation`."""
    k = int(k)
    if not 1 <= k <= min(rows, cols):
        raise InvalidTruncation(
            f"truncation level k={k} must satisfy 1 <= k <= min(rows, cols) ({min(rows, cols)})"
        )
    return k


def leading_factors(F: ThinSVD, k: int) -> TruncatedFactorization:
    """The k leading singular triples of a thin SVD, tagged ``"exact"``.

    Requires ``1 <= k <= F.rank``; anything else raises
    :class:`InvalidTruncation`, worded as the sketched solves' check on the
    factored matrix's shape when k is outside ``1 <= k <= min(rows, cols)``.
    ``k == F.rank`` keeps every triple.
    """
    k = _check_level(k, F.U.shape[0], F.V.shape[0])
    if k > F.rank:
        raise InvalidTruncation(
            f"truncation level k={k} must satisfy 1 <= k <= rank ({F.rank})"
        )
    return TruncatedFactorization(
        U=F.U[:, :k], sigma=F.sigma[:k], V=F.V[:, :k], k=k, kind="exact"
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


def reconstruct(fact: TruncatedFactorization) -> np.ndarray:
    """Materialize ``U @ diag(sigma) @ V.T`` from a factor triple."""
    return (fact.U * fact.sigma) @ fact.V.T


def solve_factored(F: ThinSVD | TruncatedFactorization, b: np.ndarray) -> np.ndarray:
    """Apply the pseudo-inverse of the factored matrix to ``b`` without
    forming it: ``x = V diag(1/sigma) U^T b``, evaluated right to left."""
    return F.V @ ((F.U.T @ b) / F.sigma)
