"""Seeded inputs for the trunclsq benchmark, built with numpy alone.

Nothing here calls the package under test: the matrices, right-hand sides,
sketches, approximate factors, reference solutions and Matrix Market files
that the workloads hand to trunclsq are all made by the benchmark, so a
defect in the package cannot shape its own inputs.  Every generator draws
from ``numpy.random.default_rng([seed, *tags])``, so one (seed, tags) pair
always gives bitwise-equal inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The paper's experiment: square sizes, truncation level, spectral gap at k
# and right-hand-side noise.  Depth follows p = ceil(10 ln n).
PAPER_GRID = (100, 200, 300, 400, 500)
PAPER_K = 20
PAPER_GAMMA = 0.99
PAPER_NOISE = 0.2

# Stream tags keep the workloads' random streams apart under one seed.
TAG_PAPER_SWEEP = 1
TAG_CLI_FILES = 2
TAG_CERTIFICATES = 3

SEED_LIMIT = 2**63


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Generator pinned to ``(seed, *tags)``."""
    return np.random.default_rng([int(seed), *(int(t) for t in tags)])


def paper_depth(n: int) -> int:
    """The sweep's depth schedule, ``ceil(10 ln n)``."""
    return math.ceil(10.0 * math.log(n))


@dataclass(frozen=True)
class Reference:
    """Thin SVD of A computed by ``numpy.linalg.svd``: ``A = U diag(s) Vt``."""

    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray

    @classmethod
    def of(cls, A: np.ndarray) -> "Reference":
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        return cls(U=U, s=s, Vt=Vt)

    def solve(self, b: np.ndarray, k: int) -> np.ndarray:
        """Truncated solution ``V_k (U_k^T b) / s_k``."""
        return self.Vt[:k].T @ ((self.U[:, :k].T @ b) / self.s[:k])

    def block(self, k: int) -> np.ndarray:
        """Best rank-k approximation ``A_k``."""
        return (self.U[:, :k] * self.s[:k]) @ self.Vt[:k]


@dataclass(frozen=True)
class Problem:
    """A truncated least-squares problem with its reference solution."""

    A: np.ndarray
    b: np.ndarray
    k: int
    ref: Reference
    x_ref: np.ndarray
    residual_ref: float


def make_problem(A: np.ndarray, b: np.ndarray, k: int) -> Problem:
    ref = Reference.of(A)
    x_ref = ref.solve(b, k)
    return Problem(
        A=A, b=b, k=k, ref=ref, x_ref=x_ref,
        residual_ref=float(np.linalg.norm(A @ x_ref - b)),
    )


def paper_problem(n: int, k: int, gamma: float, noise: float, rng: np.random.Generator) -> Problem:
    """The paper's construction: an n-by-n Gaussian matrix whose tail
    singular values are rescaled by one factor so that
    ``sigma_{k+1} / sigma_k = gamma``, and
    ``b = A_k r1 / ||A_k r1|| + noise * r2 / ||r2||``."""
    U, s, Vt = np.linalg.svd(rng.standard_normal((n, n)))
    s[k:] *= gamma * s[k - 1] / s[k]
    A = (U * s) @ Vt
    r1 = rng.standard_normal(n)
    r2 = rng.standard_normal(n)
    signal = U[:, :k] @ (s[:k] * (Vt[:k] @ r1))
    b = signal / np.linalg.norm(signal) + noise * r2 / np.linalg.norm(r2)
    return make_problem(A, b, k)


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return Q


@dataclass(frozen=True)
class CertificateInstance:
    """Inputs of one certificate request.

    ``S`` is the sketch handed to the capture bound, ``chain_seed`` and
    ``solve_seed`` address the package's own sketches, and
    ``(approx_U, approx_sigma, approx_V)`` is a rank-k approximation built
    by the benchmark's own range finder, for the lower-bound construction.
    """

    problem: Problem
    p: int
    S: np.ndarray
    solve_seed: int
    chain_seed: int
    approx_U: np.ndarray
    approx_sigma: np.ndarray
    approx_V: np.ndarray


def certificate_instance(rng: np.random.Generator, clustered: bool) -> CertificateInstance:
    """An m-by-n instance with m <= 60, n <= 48, 1 <= k < n and p in 0..10.

    Gaussian instances are i.i.d. normal.  Clustered ones have head singular
    values in [1, 1 + 1e-3] and tail values in gap * [1, 1 + 1e-3] with
    gap in [0.3, 0.9]: each cluster is within 1e-3 relative, which is where
    a power-iteration norm converges slowest.
    """
    m = int(rng.integers(24, 61))
    n = int(rng.integers(16, min(m, 48) + 1))
    k = int(rng.integers(1, n))
    p = int(rng.integers(0, 11))
    if clustered:
        gap = rng.uniform(0.3, 0.9)
        head = np.sort(1.0 + 1e-3 * rng.random(k))[::-1]
        tail = np.sort(gap * (1.0 + 1e-3 * rng.random(n - k)))[::-1]
        s = np.concatenate([head, tail])
        A = (_orthonormal(rng, m, n) * s) @ _orthonormal(rng, n, n).T
    else:
        A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    S = rng.standard_normal((n, k))
    solve_seed, chain_seed = (int(v) for v in rng.integers(SEED_LIMIT, size=2))

    # Subspace iteration with a QR each pass, then the small SVD of Q^T A.
    Y = A @ rng.standard_normal((n, k))
    for _ in range(p):
        Y = A @ (A.T @ np.linalg.qr(Y)[0])
    Q = np.linalg.qr(Y)[0]
    Us, sigma, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
    return CertificateInstance(
        problem=make_problem(A, b, k), p=p, S=S,
        solve_seed=solve_seed, chain_seed=chain_seed,
        approx_U=Q @ Us, approx_sigma=sigma, approx_V=Vt.T,
    )


def write_mtx(path, M: np.ndarray) -> None:
    """Write a matrix, or a vector as one column, as a Matrix Market
    ``array real general`` file with round-trip decimal values."""
    M = M.reshape((-1, 1)) if M.ndim == 1 else M
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("%%%%MatrixMarket matrix array real general\n%d %d\n" % M.shape)
        handle.write("\n".join(map(repr, M.ravel(order="F").tolist())))
        handle.write("\n")


def read_mtx(path) -> np.ndarray:
    """Read a Matrix Market ``array`` file into a 2-D float64 array."""
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line and not line.startswith("%")]
    rows, cols = (int(v) for v in lines[0].split())
    values = np.array(" ".join(lines[1:]).split(), dtype=np.float64)
    if values.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {values.size}")
    return values.reshape((rows, cols), order="F")
