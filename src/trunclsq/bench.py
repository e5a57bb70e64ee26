"""Synthetic benchmark problems and the accuracy/timing experiment harness.

:func:`synthetic_problem` manufactures a square matrix with an exactly
controlled spectral gap at index k, plus a right-hand side that mixes a
top-k-subspace signal with isotropic noise.  :func:`run_experiment` sweeps
(n, seed) pairs, solving each problem exactly and with the randomized
solver, and collect per-run accuracy ratios and wall times into an
:class:`ExperimentReport` that can be emitted as CSV.

Every row is independently reproducible: its integer ``seed`` column is
derived from the base seed with a splitmix64 mix of (n, trial), the problem
generator uses streams (seed, 0..2), and the sketch uses stream 10_000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .bounds import GapProfile, gap_profile
from .linalg import ThinSVD, thin_svd
from .regression import approx_truncated_solve, exact_truncated_solve
from .sketch import RngSeed, gaussian_matrix, gaussian_vector

__all__ = [
    "ProblemInstance",
    "ReportRow",
    "ExperimentReport",
    "CSV_HEADER",
    "SKETCH_STREAM_OFFSET",
    "default_power_depth_rule",
    "derive_row_seed",
    "synthetic_problem",
    "recompute_row_metrics",
    "run_experiment",
]

# Stream used for the solver's sketch, far from the generator streams 0..2.
SKETCH_STREAM_OFFSET = 10_000

# Each sweep row times both solvers as the minimum of this many runs.
_TIMING_REPS = 3

_UINT64_MASK = (1 << 64) - 1
_CSV_FIELDS = ("n", "k", "p", "seed", "objective_error", "solution_error",
               "time_exact_s", "time_approx_s")
CSV_HEADER = ",".join(_CSV_FIELDS)


@dataclass(frozen=True)
class ProblemInstance:
    """A benchmark triple (A, b, k) with its spectral profile and seed."""

    A: np.ndarray
    b: np.ndarray
    k: int
    gap_profile: GapProfile
    seed: RngSeed

    def __post_init__(self) -> None:
        if self.A.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        if self.b.shape != (self.A.shape[0],):
            raise ValueError("b length must match the row count of A")
        if not 1 <= self.k < min(self.A.shape):
            raise ValueError(f"k={self.k} must satisfy 1 <= k < min(A.shape)")


@dataclass(frozen=True)
class ReportRow:
    """One experiment run.  ``error`` (not emitted to CSV) records a failure
    message when the run raised; its metric fields are then NaN."""

    n: int
    k: int
    p: int
    seed: int
    objective_error: float
    solution_error: float
    time_exact_s: float
    time_approx_s: float
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """Rows of an (n, seed) sweep, sorted by (n, seed)."""

    rows: tuple[ReportRow, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row in self.rows:
            cells = []
            for name in _CSV_FIELDS:
                value = getattr(row, name)
                if isinstance(value, int):
                    cells.append(str(value))
                else:
                    cells.append(repr(float(value)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as handle:
            handle.write(self.to_csv())

    def _group_by_n(self, metric: str) -> dict[int, list[float]]:
        groups: dict[int, list[float]] = {}
        for row in self.rows:
            value = float(getattr(row, metric))
            if math.isnan(value):
                continue
            groups.setdefault(row.n, []).append(value)
        return groups

    def median_by_n(self, metric: str) -> dict[int, float]:
        """Per-n median of a metric column, NaN (failed) rows excluded."""
        return {n: float(np.median(vals)) for n, vals in self._group_by_n(metric).items()}

    def mean_by_n(self, metric: str) -> dict[int, float]:
        """Per-n mean of a metric column, NaN (failed) rows excluded."""
        return {n: float(np.mean(vals)) for n, vals in self._group_by_n(metric).items()}


def default_power_depth_rule(n: int) -> int:
    """Default depth schedule for the benchmark sweep: ``ceil(10 * ln n)``."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return math.ceil(10.0 * math.log(n))


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _UINT64_MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _UINT64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _UINT64_MASK
    return z ^ (z >> 31)


def derive_row_seed(base: RngSeed, n: int, trial: int) -> int:
    """Mix (base seed, n, trial) into one reproducible 64-bit row seed."""
    mixed = _splitmix64(base.seed)
    mixed = _splitmix64(mixed ^ base.stream)
    mixed = _splitmix64(mixed ^ (int(n) & _UINT64_MASK))
    mixed = _splitmix64(mixed ^ (int(trial) & _UINT64_MASK))
    return mixed


def synthetic_problem(
    n: int, k: int, gamma_target: float, noise: float, seed: RngSeed
) -> ProblemInstance:
    """Square n-by-n problem with spectral gap exactly ``gamma_target`` at k.

    An n-by-n Gaussian matrix is factored, its tail singular values
    ``sigma_{k+1..n}`` are rescaled by the single factor
    ``gamma_target * sigma_k / sigma_{k+1}`` (which preserves their
    ordering), and the matrix is reassembled.  The right-hand side is
    ``b = A_k r1 / ||A_k r1|| + noise * r2 / ||r2||`` with r1, r2 fresh
    Gaussian vectors, placing roughly ``1 / (1 + noise)`` of its energy in
    the top-k left subspace.

    The generator consumes streams ``seed.stream + 0..2`` (matrix, r1, r2).
    """
    n = int(n)
    k = int(k)
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not 1 <= k < n:
        raise ValueError(f"k={k} must satisfy 1 <= k < n ({n})")
    gamma_target = float(gamma_target)
    if not 0.0 < gamma_target < 1.0:
        raise ValueError(f"gamma_target must lie in (0, 1), got {gamma_target}")
    noise = float(noise)
    if noise < 0.0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
    if not isinstance(seed, RngSeed):
        raise TypeError(f"seed must be an RngSeed, got {type(seed).__name__}")

    raw = gaussian_matrix(n, n, seed)
    F = thin_svd(raw)
    if F.rank < n:
        raise ValueError("generated Gaussian matrix is numerically rank deficient")
    sigma = F.sigma.copy()
    scale = gamma_target * sigma[k - 1] / sigma[k]
    sigma[k:] *= scale
    A = (F.U * sigma) @ F.V.T

    r1 = gaussian_vector(n, seed.bump_stream(1))
    r2 = gaussian_vector(n, seed.bump_stream(2))
    signal = F.U[:, :k] @ (sigma[:k] * (F.V[:, :k].T @ r1))
    b = signal / np.linalg.norm(signal)
    if noise > 0.0:
        b = b + noise * r2 / np.linalg.norm(r2)

    profile = gap_profile(ThinSVD(U=F.U, sigma=sigma, V=F.V, rank=n), k)
    return ProblemInstance(A=A, b=b, k=k, gap_profile=profile, seed=seed)


def _solve_pair(
    problem: ProblemInstance, p: int, sketch_seed: RngSeed, timing_reps: int
) -> tuple[float, float, float, float]:
    """Run both solvers ``timing_reps`` times; return (objective_error,
    solution_error, min exact time, min approx time)."""
    A, b, k = problem.A, problem.b, problem.k
    exact = None
    approx = None
    time_exact = math.inf
    time_approx = math.inf
    for _ in range(timing_reps):
        exact = exact_truncated_solve(A, b, k)
        time_exact = min(time_exact, exact.wall_time)
    for _ in range(timing_reps):
        approx = approx_truncated_solve(A, b, k, p, sketch_seed)
        time_approx = min(time_approx, approx.wall_time)
    objective_error = (approx.residual_norm - exact.residual_norm) / exact.rhs_norm
    solution_error = float(
        np.linalg.norm(approx.x - exact.x) / np.linalg.norm(exact.x)
    )
    return objective_error, solution_error, time_exact, time_approx


def recompute_row_metrics(
    row: ReportRow, gamma_target: float, noise: float = 0.2
) -> tuple[float, float]:
    """Rebuild a row's problem from its recorded seed and re-derive
    (objective_error, solution_error); used to audit report determinism."""
    problem = synthetic_problem(row.n, row.k, gamma_target, noise, RngSeed(row.seed))
    objective_error, solution_error, _, _ = _solve_pair(
        problem, row.p, RngSeed(row.seed, SKETCH_STREAM_OFFSET), timing_reps=1
    )
    return objective_error, solution_error


def _run_one(
    n: int,
    k: int,
    p: int,
    row_seed: int,
    gamma_target: float,
    noise: float,
) -> ReportRow:
    try:
        problem = synthetic_problem(n, k, gamma_target, noise, RngSeed(row_seed))
        metrics = _solve_pair(problem, p, RngSeed(row_seed, SKETCH_STREAM_OFFSET), _TIMING_REPS)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed run must not abort the sweep
        metrics = (math.nan,) * 4
        error = f"{type(exc).__name__}: {exc}"
    return ReportRow(n, k, p, row_seed, *metrics, error=error)


def run_experiment(
    n_values: Sequence[int] | Iterable[int],
    k: int,
    p_rule: Callable[[int], int] | None = None,
    gamma_target: float = 0.99,
    seeds_per_n: int = 20,
    base_seed: RngSeed = RngSeed(0),
    *,
    noise: float = 0.2,
) -> ExperimentReport:
    """Sweep (n, trial) pairs, solving each synthetic problem exactly and
    with the randomized solver.  A failed run becomes an error row (NaN
    metrics); the sweep never aborts.  Rows run one at a time, so the two
    timing columns, each the minimum of three runs, are uncontended; they are
    sorted by (n, seed), and all metric columns are deterministic for fixed
    arguments.
    """
    n_values = [int(n) for n in n_values]
    if not n_values:
        raise ValueError("n_values must be nonempty")
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if any(n <= k for n in n_values):
        raise ValueError(f"every n must exceed k={k}, got {n_values}")
    if int(seeds_per_n) < 1:
        raise ValueError(f"seeds_per_n must be positive, got {seeds_per_n}")
    if not isinstance(base_seed, RngSeed):
        raise TypeError(f"base_seed must be an RngSeed, got {type(base_seed).__name__}")
    rule = p_rule if p_rule is not None else default_power_depth_rule

    tasks = []
    for n in n_values:
        p = int(rule(n))
        if p < 0:
            raise ValueError(f"p_rule({n}) returned negative depth {p}")
        for trial in range(int(seeds_per_n)):
            tasks.append((n, k, p, derive_row_seed(base_seed, n, trial)))

    rows = [
        _run_one(n, k, p, row_seed, gamma_target, noise)
        for n, k, p, row_seed in tasks
    ]
    rows.sort(key=lambda row: (row.n, row.seed))
    return ExperimentReport(rows=tuple(rows))
