"""Matrix Market file I/O (dense ``array`` and sparse ``coordinate``).

Supports the plain-text exchange format for real general matrices:

* ``load_matrix`` reads either variant into a dense float64 array.  The
  ``array`` variant stores entries in column-major order; ``coordinate``
  entries are densified with duplicates summed in file order, per the
  format convention.  An ``array`` file whose banner and size line are its
  first two lines and which holds no comment is parsed in one vectorized
  pass: numpy's str-to-float cast accepts exactly the tokens ``float()``
  accepts, so the array is bitwise that of a token-by-token parse.  Every
  other file -- a ``coordinate`` file, one with comments or blank lines
  before the size line, one with a fault -- goes through the line-by-line
  parser, which words each fault.
* ``save_matrix`` emits the ``array`` variant with shortest round-trip
  decimal values and LF line endings, so writes are byte-reproducible.
* Vectors travel as single-column ``array`` files.

All parse failures raise :class:`~trunclsq.errors.MatrixMarketError`: a
missing or undecodable file with a ``path:`` prefix, a fault in the text
with a ``path:line:`` prefix.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import MatrixMarketError
from .linalg import as_matrix, as_vector

__all__ = ["load_matrix", "save_matrix", "load_vector", "save_vector"]

# Refuse to densify anything above this entry count (~800 MB of float64).
MAX_DENSE_ENTRIES = 100_000_000

_BANNER_PREFIX = "%%matrixmarket"


def _fail(path, lineno: int, message: str) -> MatrixMarketError:
    return MatrixMarketError(f"{path}:{lineno}: {message}")


def _parse_real(token: str, path, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _fail(path, lineno, f"expected a real number, got {token!r}") from None
    if not math.isfinite(value):
        raise _fail(path, lineno, f"non-finite value {token!r}")
    return value


def _parse_index(token: str, path, lineno: int, limit: int, axis: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise _fail(path, lineno, f"expected an integer {axis} index, got {token!r}") from None
    if not 1 <= value <= limit:
        raise _fail(path, lineno, f"{axis} index {value} outside 1..{limit}")
    return value


def _parse_banner(line: str, path) -> str:
    tokens = line.split()
    if len(tokens) != 5 or not tokens[0].lower() == _BANNER_PREFIX:
        raise _fail(
            path, 1, "missing Matrix Market banner '%%MatrixMarket matrix <format> real general'"
        )
    obj, layout, field, symmetry = (t.lower() for t in tokens[1:])
    if obj != "matrix":
        raise _fail(path, 1, f"unsupported object {obj!r} (only 'matrix')")
    if layout not in ("array", "coordinate"):
        raise _fail(path, 1, f"unsupported format {layout!r} (only 'array' or 'coordinate')")
    if field != "real":
        raise _fail(path, 1, f"non-real field {field!r} (only 'real')")
    if symmetry != "general":
        raise _fail(path, 1, f"unsupported symmetry {symmetry!r} (only 'general')")
    return layout


def _content_lines(lines: list[str]):
    """Yield (lineno, stripped_line) skipping blank and comment lines."""
    for lineno, raw in lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno, stripped


def _parse_size(layout: str, line: str, path, lineno: int) -> tuple[int, int, int]:
    """Validate a size line; return rows, columns and the number of entries."""
    tokens = line.split()
    count = 2 if layout == "array" else 3
    if len(tokens) != count:
        raise _fail(path, lineno, f"size line must have {count} integers, got {len(tokens)}")
    dims = []
    for token in tokens:
        try:
            dims.append(int(token))
        except ValueError:
            raise _fail(path, lineno, f"expected an integer dimension, got {token!r}") from None
    rows, cols = dims[:2]
    entries = dims[2] if layout == "coordinate" else rows * cols
    if rows < 1 or cols < 1:
        raise _fail(path, lineno, f"dimensions must be positive, got {rows}x{cols}")
    if entries < 0:
        raise _fail(path, lineno, f"entry count must be nonnegative, got {entries}")
    if rows * cols > MAX_DENSE_ENTRIES:
        raise _fail(path, lineno, f"{rows}x{cols} overflows the dense-entry limit")
    return rows, cols, entries


def _parse_clean(text: str, path) -> np.ndarray | None:
    """Parse a comment-free ``array`` file in one vectorized pass, or return
    None.

    Applies when the banner and the size line are lines 1 and 2 and no ``%``
    follows the banner; a fault in either raises what ``_parse_lines``
    raises.  Returns None for a ``coordinate`` file and wherever
    ``_parse_lines`` would not return the same array -- a comment, a blank
    size line, a bad token, a wrong count or a non-finite value -- so that
    it handles the file.  The body is split once; no list of lines is built.
    """
    first = text.find("\n")
    second = text.find("\n", first + 1)
    if first < 0 or second < 0 or text.find("%", first) >= 0:
        return None
    head = text[:second].splitlines()
    if len(head) != 2 or not head[1].strip() or _parse_banner(head[0], path) != "array":
        return None
    rows, cols, _ = _parse_size("array", head[1], path, 2)
    try:  # a bad token, or a wrong entry count, which fails the reshape
        values = np.array(text[second + 1 :].split(), dtype=np.float64)
        values = values.reshape((rows, cols), order="F")
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _parse_lines(text: str, path) -> np.ndarray:
    """Parse line by line, skipping comments; words every parse error."""
    numbered = list(enumerate(text.splitlines(), start=1))
    if not numbered:
        raise _fail(path, 1, "empty file")
    layout = _parse_banner(numbered[0][1], path)
    content = _content_lines(numbered[1:])

    try:
        size_lineno, size_line = next(content)
    except StopIteration:
        raise _fail(path, len(numbered), "missing size line") from None
    rows, cols, count = _parse_size(layout, size_line, path, size_lineno)

    if layout == "array":
        values = np.empty(count, dtype=np.float64)
        filled = 0
        for lineno, line in content:
            for token in line.split():
                if filled >= count:
                    raise _fail(path, lineno, f"more than {count} entries")
                values[filled] = _parse_real(token, path, lineno)
                filled += 1
        if filled < count:
            raise _fail(path, len(numbered), f"expected {count} entries, found {filled}")
        return values.reshape((rows, cols), order="F")

    matrix = np.zeros((rows, cols), dtype=np.float64)
    seen = 0
    for lineno, line in content:
        tokens = line.split()
        if len(tokens) != 3:
            raise _fail(path, lineno, f"coordinate entry must be 'i j value', got {line!r}")
        if seen >= count:
            raise _fail(path, lineno, f"more than {count} coordinate entries")
        i = _parse_index(tokens[0], path, lineno, rows, "row")
        j = _parse_index(tokens[1], path, lineno, cols, "column")
        matrix[i - 1, j - 1] += _parse_real(tokens[2], path, lineno)
        seen += 1
    if seen < count:
        raise _fail(path, len(numbered), f"expected {count} coordinate entries, found {seen}")
    return matrix


def load_matrix(path) -> np.ndarray:
    """Read a real general Matrix Market file into a dense float64 array."""
    if not os.path.exists(path):
        raise MatrixMarketError(f"{path}: file does not exist")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise MatrixMarketError(
            f"{path}: not UTF-8 text ({exc.reason} at byte offset {exc.start})"
        ) from None
    matrix = _parse_clean(text, path)
    return _parse_lines(text, path) if matrix is None else matrix


def save_matrix(A: np.ndarray, path) -> None:
    """Write a dense matrix as a Matrix Market ``array real general`` file."""
    A = as_matrix(A, "A")
    header = f"%%MatrixMarket matrix array real general\n{A.shape[0]} {A.shape[1]}\n"
    body = "\n".join(map(repr, A.ravel(order="F").tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{header}{body}\n")


def load_vector(path) -> np.ndarray:
    """Read a single-column Matrix Market file as a 1-D vector."""
    matrix = load_matrix(path)
    if matrix.shape[1] != 1:
        raise MatrixMarketError(
            f"{path}: expected a single-column vector file, got {matrix.shape[1]} columns"
        )
    return matrix[:, 0]


def save_vector(v: np.ndarray, path) -> None:
    """Write a 1-D vector as a single-column Matrix Market file."""
    v = as_vector(v, "v")
    save_matrix(v.reshape((-1, 1)), path)
