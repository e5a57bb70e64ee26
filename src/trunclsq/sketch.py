"""Seeded Gaussian sketch generation.

Randomness is addressed by :class:`RngSeed`, a ``(seed, stream)`` pair of
64-bit unsigned integers.  The pair seeds a PCG64 counter-based generator
through ``numpy.random.SeedSequence``, and standard-normal variates are
produced by the Box-Muller transform applied to consecutive uniform pairs,
with both values of every pair consumed in order.  Matrices are filled in
column-major order, so ``(rows, cols, seed)`` fully pins every entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngSeed", "gaussian_matrix", "gaussian_vector"]

_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class RngSeed:
    """Reproducible randomness address: 64-bit ``seed`` plus 64-bit ``stream``.

    Equal pairs always reproduce the same sample sequence; distinct streams
    under one seed give independent sequences for parallel work.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for field in ("seed", "stream"):
            value = getattr(self, field)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{field} must be an integer, got {value!r}")
            if not 0 <= int(value) <= _UINT64_MASK:
                raise ValueError(f"{field} must fit in an unsigned 64-bit integer, got {value}")
            object.__setattr__(self, field, int(value))

    def bump_stream(self, delta: int = 1) -> "RngSeed":
        """A new address on the same seed with the stream advanced by ``delta``
        (wrapping at 64 bits)."""
        return RngSeed(self.seed, (self.stream + int(delta)) & _UINT64_MASK)


def _uniform_source(seed: RngSeed) -> np.random.Generator:
    """PCG64 generator pinned to the (seed, stream) pair."""
    sequence = np.random.SeedSequence([seed.seed, seed.stream])
    return np.random.Generator(np.random.PCG64(sequence))


def _standard_normals(count: int, seed: RngSeed) -> np.ndarray:
    """First ``count`` values of the Box-Muller output stream for ``seed``."""
    pairs = (count + 1) // 2
    u = _uniform_source(seed).random(2 * pairs)
    # Guard the open end of [0, 1): log(0) would produce an infinity.
    u1 = np.maximum(u[0::2], np.finfo(np.float64).tiny)
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def _check_seed(seed: object) -> None:
    """Refuse anything but an :class:`RngSeed` with ``ValueError``."""
    if not isinstance(seed, RngSeed):
        raise ValueError(f"seed must be an RngSeed, got {type(seed).__name__}")


def gaussian_matrix(rows: int, cols: int, seed: RngSeed) -> np.ndarray:
    """``rows``-by-``cols`` matrix of i.i.d. standard normals, deterministic
    per seed, filled in column-major order."""
    rows = int(rows)
    cols = int(cols)
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    _check_seed(seed)
    values = _standard_normals(rows * cols, seed)
    return values.reshape((rows, cols), order="F")


def gaussian_vector(dim: int, seed: RngSeed) -> np.ndarray:
    """Length-``dim`` vector of i.i.d. standard normals, deterministic per seed."""
    return gaussian_matrix(dim, 1, seed)[:, 0]
