"""Shared oracle utilities for the test suite.

Everything here is deliberately independent of the library's internals:
naive reference algorithms and numpy/LAPACK calls used as second opinions,
so library results are always checked against a separately computed value.
"""

from __future__ import annotations

import numpy as np


def gram_singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values via eigenvalues of the Gram matrix M^T M (descending).

    An independent route: symmetric eigensolver instead of an SVD.
    """
    gram = M.T @ M
    eigenvalues = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eigenvalues, 0.0, None))[::-1]


def random_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random orthonormal columns from the QR of a Gaussian matrix."""
    Q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return Q


def hard_spectrum_problem():
    """m=300, n=200, k=10: sigma_1/sigma_k = 1e3 across the head, gap 0.5 at
    k, and a tail decaying a further hundredfold."""
    rng = np.random.default_rng(2024)
    m, n, k = 300, 200, 10
    sigma = np.concatenate([np.logspace(3.0, 0.0, k), 0.5 * np.logspace(0.0, -2.0, n - k)])
    A = (random_orthonormal(rng, m, n) * sigma) @ random_orthonormal(rng, n, n).T
    return A, rng.standard_normal(m), k


def count_linalg_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Counts, by name, the calls made to each named ``numpy.linalg``
    function while ``monkeypatch`` holds."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def rank_k_matrix(
    rng: np.random.Generator, rows: int, cols: int, k: int, sigma=None
) -> np.ndarray:
    """Matrix of exact rank k with prescribed (or default 2^0..2^{1-k}) spectrum."""
    U = random_orthonormal(rng, rows, k)
    V = random_orthonormal(rng, cols, k)
    if sigma is None:
        sigma = 2.0 ** -np.arange(k, dtype=float)
    sigma = np.asarray(sigma, dtype=np.float64)
    assert sigma.shape == (k,)
    return (U * sigma) @ V.T


def projection_distance_oracle(U: np.ndarray, W: np.ndarray) -> float:
    """||U U^T - W W^T||_2 computed directly from the projector difference."""
    return float(np.linalg.norm(U @ U.T - W @ W.T, 2))


def spectral_norm_oracle(M: np.ndarray) -> float:
    """sigma_1 via LAPACK SVD."""
    return float(np.linalg.svd(M, compute_uv=False)[0])
