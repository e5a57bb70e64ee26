"""trunclsq: truncated-SVD regularized least squares, exact and randomized.

The package solves ``min_x ||A_k x - b||`` — least squares against the best
rank-k approximation of A — three ways:

* exactly, through the thin SVD (:func:`exact_truncated_solve`);
* fast, through randomized subspace iteration: to an accuracy target
  with the depth found while iterating (:func:`adaptive_truncated_solve`),
  or at a fixed depth (:func:`approx_truncated_solve`), such as the paper's
  worst-case depth from :func:`choose_power_depth`;
* smoothly, with per-component damping (:func:`tikhonov_solve`).

The :mod:`trunclsq.bounds` module turns the solver's guarantees into
executable certificates, and :mod:`trunclsq.bench` reproduces the
accuracy/timing experiments.  See the ``demos/`` directory for worked
examples and the ``trunclsq`` command for the file-based interface.
"""

from .bench import (
    ExperimentReport,
    ProblemInstance,
    ReportRow,
    default_power_depth_rule,
    derive_row_seed,
    recompute_row_metrics,
    run_experiment,
    synthetic_problem,
)
from .bounds import (
    AdversarialInstance,
    BoundReport,
    GapProfile,
    choose_power_depth,
    error_chain,
    gap_profile,
    lower_bound_instance,
    projection_distance,
    subspace_capture_bound,
)
from .errors import (
    DegenerateSketch,
    IllConditionedTruncation,
    InvalidTruncation,
    MatrixMarketError,
    NoSpectralGap,
    TruncLsqError,
    ZeroMatrix,
)
from .linalg import (
    ThinSVD,
    TruncatedFactorization,
    pseudo_inverse,
    qr_factor,
    reconstruct,
    spectral_norm,
    thin_svd,
)
from .mmio import load_matrix, load_vector, save_matrix, save_vector
from .regression import (
    SolveOutcome,
    adaptive_truncated_solve,
    approx_truncated_solve,
    exact_truncated_solve,
    full_ls_solve,
    tikhonov_solve,
)
from .sketch import RngSeed, gaussian_matrix, gaussian_vector
from .subspace import (
    approx_truncated_svd,
    power_basis,
    power_basis_from_sketch,
    power_product,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TruncLsqError",
    "ZeroMatrix",
    "InvalidTruncation",
    "IllConditionedTruncation",
    "NoSpectralGap",
    "DegenerateSketch",
    "MatrixMarketError",
    # linear-algebra kernels
    "ThinSVD",
    "TruncatedFactorization",
    "qr_factor",
    "thin_svd",
    "pseudo_inverse",
    "spectral_norm",
    "reconstruct",
    # sketching
    "RngSeed",
    "gaussian_matrix",
    "gaussian_vector",
    # subspace iteration
    "power_product",
    "power_basis",
    "power_basis_from_sketch",
    "approx_truncated_svd",
    # solvers
    "SolveOutcome",
    "exact_truncated_solve",
    "approx_truncated_solve",
    "adaptive_truncated_solve",
    "tikhonov_solve",
    "full_ls_solve",
    # bounds and certificates
    "GapProfile",
    "BoundReport",
    "AdversarialInstance",
    "gap_profile",
    "choose_power_depth",
    "projection_distance",
    "subspace_capture_bound",
    "error_chain",
    "lower_bound_instance",
    # benchmark harness
    "ProblemInstance",
    "ReportRow",
    "ExperimentReport",
    "synthetic_problem",
    "recompute_row_metrics",
    "run_experiment",
    "default_power_depth_rule",
    "derive_row_seed",
    # file I/O
    "load_matrix",
    "save_matrix",
    "load_vector",
    "save_vector",
]
