"""The Matrix Market parse against token-by-token references.

Only ``array`` files take one pass: one whose banner is line 1, whose size
line follows it after blank and comment lines only, and whose body holds no
comment is parsed by numpy casts.  Every other file, ``coordinate`` files
among them, and every fault, goes through the line-by-line parser.  These
tests pin that the two give bitwise the same arrays and word the same
errors, that clean ``array`` files do take the one-pass route, that
``coordinate`` files load bitwise as an entry-by-entry reference parse does,
and that the writer's bytes are those of a per-value ``repr(float(v))``
writer.
"""

import subprocess
import sys

import numpy as np
import pytest

from trunclsq import (
    MatrixMarketError,
    RngSeed,
    approx_truncated_solve,
    exact_truncated_solve,
    load_matrix,
    load_vector,
    save_matrix,
)
from trunclsq import mmio
from trunclsq.cli import main

ARRAY = "%%MatrixMarket matrix array real general\n"
COORDINATE = "%%MatrixMarket matrix coordinate real general\n"


def write(tmp_path, text, name="matrix.mtx"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def reference_array(text):
    """Token-by-token ``float()`` parse of an ``array`` file."""
    lines = [line for line in text.splitlines() if line.strip() and line.strip()[0] != "%"]
    rows, cols = (int(token) for token in lines[0].split())
    values = [float(token) for line in lines[1:] for token in line.split()]
    assert len(values) == rows * cols
    return np.array(values, dtype=np.float64).reshape((rows, cols), order="F")


def reference_coordinate(text):
    """Entry-by-entry ``int()`` / ``float()`` parse with sequential sums."""
    lines = [line for line in text.splitlines() if line.strip() and line.strip()[0] != "%"]
    rows, cols, _ = (int(token) for token in lines[0].split())
    matrix = np.zeros((rows, cols))
    for line in lines[1:]:
        i, j, value = line.split()
        matrix[int(i) - 1, int(j) - 1] += float(value)
    return matrix


def outcome(parse, path):
    """The array a parser returns, or the message it raises."""
    try:
        return parse(path).tobytes()
    except MatrixMarketError as exc:
        return str(exc)


@pytest.fixture
def one_pass_only(monkeypatch):
    """Make the line-by-line parser fail on any entry it would read."""

    def refuse(token, path, lineno):
        raise AssertionError("line-by-line parse of a clean file")

    monkeypatch.setattr(mmio, "_parse_real", refuse)


def special_matrix(seed, rows, cols):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    A.flat[:6] = [-0.0, 5e-324, 1e-300, 1.0 / 3.0, 1e16, -1e300]
    return A


def tokens_of(A):
    return [repr(float(v)) for v in A.ravel(order="F")]


class TestOnePassArray:
    @pytest.mark.parametrize("per_line, newline", [(1, "\n"), (3, "\n"), (7, "\r\n"), (1, "\r\n")])
    def test_bitwise_equal_to_float_reference(self, tmp_path, one_pass_only, per_line, newline):
        A = special_matrix(per_line, 9, 5)
        tokens = tokens_of(A)
        body = [" ".join(tokens[i : i + per_line]) for i in range(0, len(tokens), per_line)]
        text = newline.join([ARRAY.rstrip("\n"), "9 5", *body]) + newline
        loaded = load_matrix(write(tmp_path, text))
        assert loaded.tobytes() == reference_array(text).tobytes() == A.tobytes()

    def test_python_number_spellings(self, tmp_path, one_pass_only):
        text = ARRAY + "2 3\n1_000 +3 .5\n-0 1e-400 \t 2E+2\n"
        loaded = load_matrix(write(tmp_path, text))
        assert loaded.tobytes() == reference_array(text).tobytes()
        assert np.array_equal(loaded, [[1000.0, 0.5, 1e-400], [3.0, -0.0, 200.0]])

    def test_clean_file_never_reads_line_by_line(self, tmp_path, one_pass_only):
        A = special_matrix(3, 40, 30)
        path = tmp_path / "clean.mtx"
        save_matrix(A, path)
        assert load_matrix(path).tobytes() == A.tobytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_commented_header_takes_one_pass(self, tmp_path, one_pass_only, newline):
        A = special_matrix(7, 9, 5)
        header = [ARRAY.rstrip("\n"), "% written by a tool", "", " %indented", "  ", "9 5"]
        text = newline.join([*header, *tokens_of(A)]) + newline
        loaded = load_matrix(write(tmp_path, text))
        assert loaded.tobytes() == reference_array(text).tobytes() == A.tobytes()

    def test_scipy_written_array_file_loads_bitwise(self, tmp_path, one_pass_only):
        # scipy.io.mmwrite puts a "%" line between the banner and the size line.
        scipy_io = pytest.importorskip("scipy.io")
        A = special_matrix(8, 40, 30)
        path = tmp_path / "scipy.mtx"
        scipy_io.mmwrite(path, A)
        assert load_matrix(path).tobytes() == A.tobytes()

    def test_comments_and_blank_lines_load_identically(self, tmp_path):
        A = special_matrix(4, 6, 4)
        tokens = tokens_of(A)
        clean = ARRAY + "6 4\n" + "\n".join(tokens) + "\n"
        noisy = (
            ARRAY + "% generated\n\n6 4\n"
            + "\n".join(tokens[:10]) + "\n\n% halfway\n  \n"
            + " ".join(tokens[10:]) + "\n% end\n"
        )
        first = load_matrix(write(tmp_path, clean, "clean.mtx"))
        second = load_matrix(write(tmp_path, noisy, "noisy.mtx"))
        assert first.tobytes() == second.tobytes() == A.tobytes()

    def test_overflowing_value_names_its_line(self, tmp_path):
        path = write(tmp_path, ARRAY + "1 2\n1e400\n2.0\n")
        with pytest.raises(MatrixMarketError, match=r":3: non-finite value '1e400'"):
            load_matrix(path)


class TestOnePassCoordinate:
    def test_duplicates_sum_in_file_order(self, tmp_path):
        rng = np.random.default_rng(5)
        rows, cols, count = 4, 3, 200
        i = rng.integers(1, rows + 1, count)
        j = rng.integers(1, cols + 1, count)
        values = rng.standard_normal(count) * 10.0 ** rng.integers(-20, 20, count)
        body = "".join(f"{a} {b} {float(v)!r}\n" for a, b, v in zip(i, j, values))
        text = COORDINATE + f"{rows} {cols} {count}\n" + body
        loaded = load_matrix(write(tmp_path, text))
        assert loaded.tobytes() == reference_coordinate(text).tobytes()

    def test_python_integer_spellings(self, tmp_path):
        text = COORDINATE + "3 3 3\n+1 0003 1_0\n2 1 -0\n1 3 .5\n"
        loaded = load_matrix(write(tmp_path, text))
        assert loaded.tobytes() == reference_coordinate(text).tobytes()

    def test_index_beyond_int64_reports_its_range(self, tmp_path):
        path = write(tmp_path, COORDINATE + "3 3 1\n12345678901234567890123 1 1.0\n")
        with pytest.raises(
            MatrixMarketError, match=r":3: row index 12345678901234567890123 outside 1\.\.3"
        ):
            load_matrix(path)

    def test_entry_split_across_lines_is_refused(self, tmp_path):
        # Two entries' worth of tokens, but on lines of 2 and 4 tokens.
        path = write(tmp_path, COORDINATE + "2 2 2\n1 1\n5.0 2 2 3.0\n")
        with pytest.raises(MatrixMarketError, match=r":3: coordinate entry must be 'i j value'"):
            load_matrix(path)


TRICKY = {
    "form feed in size line": ARRAY + "2\x0c2\n1\n2\n3\n4\n",
    "form feed ends banner": ARRAY.rstrip("\n") + "\x0c\n2 2\n1 2 3 4\n",
    "form feed ends size line": ARRAY + "2 2\x0c\n1 2 3 4\n",
    "form feed splits size line": ARRAY + "1 1\x0c7\n8\n",
    "carriage return in banner": "%%MatrixMarket matrix\rarray real general\n1 1\n1\n",
    "next-line separators in body": ARRAY + "2 2\n1\x852 3 4\n",
    "no-break spaces": ARRAY + "1 3\n1\xa02　3\n",
    "no final newline": ARRAY + "1 2\n1 2",
    "size line only": COORDINATE + "2 2 0",
    "blank size line": ARRAY + "   \n1 1\n7\n",
    "blank first line": "\n" + ARRAY + "1 1\n7\n",
    "comment before the size line": ARRAY + "% note\n\n1 2\n1 2\n",
    "carriage return in a header comment": ARRAY + "% note\r1 1\n2 1\n7\n8\n",
    "form feed in a header comment": ARRAY + "% a\x0c1 1\n2 1\n7\n8\n",
    "comment after the size line": ARRAY + "% note\n1 2\n1\n% more\n2\n",
    "percent inside a token": ARRAY + "1 2\n1 2%\n",
    "too many entries": ARRAY + "1 2\n1 2\n3\n",
    "too few entries": ARRAY + "1 2\n1\n",
    "bad token": ARRAY + "2 1\n1.0\n1.5d3\n",
    "hex token": ARRAY + "1 1\n0x10\n",
    "nan token": ARRAY + "1 1\nnan\n",
    "float size": ARRAY + "2.0 1\n1\n2\n",
    "zero rows": ARRAY + "0 1\n",
    "coordinate index zero": COORDINATE + "2 2 1\n0 1 1.0\n",
    "coordinate float index": COORDINATE + "2 2 1\n1.0 1 1.0\n",
    "coordinate infinite value": COORDINATE + "2 2 1\n1 1 -inf\n",
    "coordinate four tokens": COORDINATE + "2 2 1\n1 1 1.0 2\n",
    "coordinate blank lines": COORDINATE + "2 2 2\n\n1 1 1.0\n\n2 2 2.0\n\n",
    "coordinate negative count": COORDINATE + "2 2 -1\n",
}


@pytest.mark.parametrize("name", sorted(TRICKY))
def test_same_outcome_as_line_by_line_parser(tmp_path, name):
    path = write(tmp_path, TRICKY[name])
    text = path.read_text(encoding="utf-8")
    assert outcome(load_matrix, path) == outcome(lambda p: mmio._parse_lines(text, p), path)


class TestWriter:
    def test_bytes_equal_per_value_repr_writer(self, tmp_path):
        A = special_matrix(6, 40, 30)
        A.flat[6:16] = np.logspace(-310, 300, 10)
        path = tmp_path / "written.mtx"
        save_matrix(A, path)
        lines = ["%%MatrixMarket matrix array real general", "40 30"]
        lines.extend(repr(float(value)) for value in A.flatten(order="F"))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


class TestUndecodableFile:
    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.mtx"
        path.write_bytes(ARRAY.encode() + b"1 1\n1.\xff\n")
        message = r"latin1\.mtx: not UTF-8 text \(invalid start byte at byte offset 47\)"
        with pytest.raises(MatrixMarketError, match=message):
            load_matrix(path)

    def test_cli_exits_one_with_the_path(self, tmp_path, capsys):
        matrix = tmp_path / "latin1.mtx"
        matrix.write_bytes(ARRAY.encode() + b"1 1\n\xe9\n")
        rhs = write(tmp_path, ARRAY + "1 1\n1.0\n", "b.mtx")
        code = main(["exact", str(matrix), str(rhs), "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {matrix}: not UTF-8 text" in captured.err


def test_process_round_trip_matches_in_process_solvers(tmp_path):
    prefix = str(tmp_path / "problem")

    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "trunclsq", *argv], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr

    run("gen", "--n", "60", "--k", "5", "--seed", "11", "--output", prefix)
    matrix, rhs = f"{prefix}_A.mtx", f"{prefix}_b.mtx"
    run("exact", matrix, rhs, "--k", "5", "--output", str(tmp_path / "exact.mtx"))
    run("solve", matrix, rhs, "--k", "5", "--p", "3", "--seed", "4",
        "--output", str(tmp_path / "approx.mtx"))

    A, b = load_matrix(matrix), load_vector(rhs)
    exact = exact_truncated_solve(A, b, 5).x
    approx = approx_truncated_solve(A, b, 5, 3, RngSeed(4)).x
    assert load_vector(tmp_path / "exact.mtx").tobytes() == exact.tobytes()
    assert load_vector(tmp_path / "approx.mtx").tobytes() == approx.tobytes()
