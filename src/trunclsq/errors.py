"""Exception types shared across the library."""

from __future__ import annotations


class TruncLsqError(Exception):
    """Base class for every error this library raises on purpose."""


class ZeroMatrix(TruncLsqError):
    """An operation that needs a nonzero matrix received an all-zero one."""


class InvalidTruncation(TruncLsqError):
    """The requested truncation level is incompatible with the matrix rank."""


class IllConditionedTruncation(TruncLsqError):
    """The retained singular values are too close to zero to invert safely."""


class NoSpectralGap(TruncLsqError):
    """The tail-to-head singular-value ratio equals one, so no power-iteration
    depth can separate the target subspace."""


class DegenerateSketch(TruncLsqError):
    """The sketch matrix is rank-deficient against the subspace it must probe."""


class MatrixMarketError(TruncLsqError):
    """A Matrix Market file could not be parsed or written."""
