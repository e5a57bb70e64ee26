"""Command-line interface: output format, exit codes, reproducibility."""

import argparse
import subprocess
import sys

import numpy as np
import pytest

from trunclsq import (
    RngSeed,
    choose_power_depth,
    gap_profile,
    load_matrix,
    load_vector,
    save_matrix,
    save_vector,
)
from trunclsq import cli as cli_module
from trunclsq import mmio as mmio_module
from trunclsq.cli import main


@pytest.fixture
def diag_problem(tmp_path):
    """3x3 diagonal fixture with a hand-checkable solution."""
    matrix_path = tmp_path / "A.mtx"
    rhs_path = tmp_path / "b.mtx"
    save_matrix(np.diag([3.0, 2.0, 1.0]), matrix_path)
    save_vector(np.array([3.0, 4.0, 5.0]), rhs_path)
    return str(matrix_path), str(rhs_path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExactCommand:
    GOLDEN = (
        "1.0\n2.0\n0.0\n"
        "residual_norm = 5.0\n"
        "rhs_norm = 7.0710678118654755\n"
        "k = 2\n"
    )

    def test_golden_output(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        code, out, err = run_main(capsys, ["exact", matrix_path, rhs_path, "--k", "2"])
        assert code == 0
        assert err == ""
        assert out == self.GOLDEN

    def test_byte_identical_across_runs(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        argv = ["exact", matrix_path, rhs_path, "--k", "2"]
        _, first, _ = run_main(capsys, argv)
        _, second, _ = run_main(capsys, argv)
        assert first == second

    def test_output_file_instead_of_stdout(self, capsys, diag_problem, tmp_path):
        matrix_path, rhs_path = diag_problem
        solution_path = tmp_path / "x.mtx"
        code, out, _ = run_main(
            capsys,
            ["exact", matrix_path, rhs_path, "--k", "2", "--output", str(solution_path)],
        )
        assert code == 0
        assert out.startswith(f"solution written to {solution_path}\n")
        assert "1.0\n2.0\n" not in out
        assert np.array_equal(load_vector(solution_path), [1.0, 2.0, 0.0])

    @pytest.mark.parametrize("command", [["exact", "--k", "2"], ["tikhonov", "--lambda", "0.5"]])
    def test_seedless_command_ignores_malformed_environment_seed(
        self, capsys, diag_problem, monkeypatch, command
    ):
        matrix_path, rhs_path = diag_problem
        monkeypatch.setenv(cli_module.ENV_SEED, "abc")
        code, _, err = run_main(capsys, [command[0], matrix_path, rhs_path, *command[1:]])
        assert code == 0
        assert err == ""

    def test_inputs_not_mutated(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        before = (open(matrix_path, "rb").read(), open(rhs_path, "rb").read())
        run_main(capsys, ["exact", matrix_path, rhs_path, "--k", "2"])
        after = (open(matrix_path, "rb").read(), open(rhs_path, "rb").read())
        assert before == after


class TestSolveCommand:
    def test_explicit_depth_reports_seed_and_depth(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        code, out, _ = run_main(
            capsys,
            ["solve", matrix_path, rhs_path, "--k", "2", "--p", "8", "--seed", "3"],
        )
        assert code == 0
        assert "k = 2\n" in out
        assert "p = 8\n" in out
        assert out.endswith("seed = 3\n")

    def test_deterministic_per_seed(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        argv = ["solve", matrix_path, rhs_path, "--k", "2", "--p", "8", "--seed", "3"]
        _, first, _ = run_main(capsys, argv)
        _, second, _ = run_main(capsys, argv)
        assert first == second

    def test_near_exact_at_depth(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        code, out, _ = run_main(
            capsys,
            ["solve", matrix_path, rhs_path, "--k", "2", "--p", "40", "--seed", "1"],
        )
        assert code == 0
        values = [float(line) for line in out.splitlines()[:3]]
        assert np.allclose(values, [1.0, 2.0, 0.0], atol=1e-8)

    def test_full_level_prints_the_exact_solution(self, capsys, diag_problem):
        # k = min(rows, cols) is a valid level for both solvers.
        matrix_path, rhs_path = diag_problem
        code, out, _ = run_main(capsys, ["solve", matrix_path, rhs_path, "--k", "3", "--p", "2"])
        assert code == 0
        _, exact, _ = run_main(capsys, ["exact", matrix_path, rhs_path, "--k", "3"])
        values = [float(line) for line in out.splitlines()[:3]]
        expected = [float(line) for line in exact.splitlines()[:3]]
        assert expected == [1.0, 2.0, 5.0]
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-14 * np.linalg.norm(expected))

    def test_targets_pick_the_advertised_depth(self, capsys, tmp_path):
        prefix = tmp_path / "gend"
        code, _, _ = run_main(
            capsys,
            ["gen", "--n", "60", "--k", "4", "--gamma", "0.5", "--seed", "11",
             "--output", str(prefix)],
        )
        assert code == 0
        matrix_path = f"{prefix}_A.mtx"
        rhs_path = f"{prefix}_b.mtx"
        A = load_matrix(matrix_path)
        expected = choose_power_depth(0.1, 0.1, gap_profile(A, 4))
        code, out, _ = run_main(
            capsys,
            ["solve", matrix_path, rhs_path, "--k", "4",
             "--epsilon", "0.1", "--delta", "0.1", "--seed", "2"],
        )
        assert code == 0
        assert f"p = {expected}\n" in out

    def test_seed_from_environment(self, capsys, diag_problem, monkeypatch):
        matrix_path, rhs_path = diag_problem
        monkeypatch.setenv(cli_module.ENV_SEED, "5")
        code, out, _ = run_main(
            capsys, ["solve", matrix_path, rhs_path, "--k", "2", "--p", "8"]
        )
        assert code == 0
        assert out.endswith("seed = 5\n")

    def test_flag_overrides_environment(self, capsys, diag_problem, monkeypatch):
        matrix_path, rhs_path = diag_problem
        monkeypatch.setenv(cli_module.ENV_SEED, "5")
        code, out, _ = run_main(
            capsys,
            ["solve", matrix_path, rhs_path, "--k", "2", "--p", "8", "--seed", "9"],
        )
        assert code == 0
        assert out.endswith("seed = 9\n")

    def test_requires_depth_or_targets(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        code, _, err = run_main(capsys, ["solve", matrix_path, rhs_path, "--k", "2"])
        assert code == 2
        assert "requires --p" in err

    def test_bad_environment_seed_is_usage_error(self, capsys, diag_problem, monkeypatch):
        matrix_path, rhs_path = diag_problem
        monkeypatch.setenv(cli_module.ENV_SEED, "abc")
        code, _, err = run_main(
            capsys, ["solve", matrix_path, rhs_path, "--k", "2", "--p", "1"]
        )
        assert code == 2
        assert "seed must be a nonnegative 64-bit integer" in err

    def test_bad_seed_is_usage_error(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        code, _, err = run_main(
            capsys,
            ["solve", matrix_path, rhs_path, "--k", "2", "--p", "1", "--seed", "abc"],
        )
        assert code == 2
        assert "seed" in err


class TestTikhonovCommand:
    def test_hand_checked_damping(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        code, out, _ = run_main(
            capsys, ["tikhonov", matrix_path, rhs_path, "--lambda", "0.5"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0.972972972972973"
        assert lines[1] == "1.8823529411764706"
        assert lines[2] == "4.0"
        assert lines[3] == "residual_norm = 1.0305034999982217"
        assert lines[4] == "rhs_norm = 7.0710678118654755"
        assert len(lines) == 5  # no k, p, or seed lines

    def test_scalar_broadcasts_to_every_component(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        _, scalar_out, _ = run_main(
            capsys, ["tikhonov", matrix_path, rhs_path, "--lambda", "0.5"]
        )
        _, list_out, _ = run_main(
            capsys, ["tikhonov", matrix_path, rhs_path, "--lambda", "0.5,0.5,0.5"]
        )
        assert scalar_out == list_out

    def test_rejects_negative_values(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        code, _, err = run_main(
            capsys, ["tikhonov", matrix_path, rhs_path, "--lambda", "-1.0"]
        )
        assert code == 2
        assert "nonnegative" in err

    def test_rejects_malformed_list(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        code, _, _ = run_main(
            capsys, ["tikhonov", matrix_path, rhs_path, "--lambda", "0.5,,1"]
        )
        assert code == 2


class TestCertifyCommand:
    def test_small_run_passes_all_suites(self, capsys):
        code, out, err = run_main(capsys, ["certify", "--trials", "3", "--seed", "7"])
        assert code == 0
        assert err == ""
        assert "capture-bound: 3/3 satisfied" in out
        assert "error-chain: 3/3 satisfied" in out
        assert "adversarial-separation: 3/3 satisfied" in out
        assert out.endswith("all certificates passed\n")

    def test_deterministic_per_seed(self, capsys):
        _, first, _ = run_main(capsys, ["certify", "--trials", "2", "--seed", "4"])
        _, second, _ = run_main(capsys, ["certify", "--trials", "2", "--seed", "4"])
        assert first == second

    def test_rejects_nonpositive_trials(self, capsys):
        code, _, _ = run_main(capsys, ["certify", "--trials", "0"])
        assert code == 2


class TestBenchCommand:
    def test_csv_to_file_with_deterministic_metrics(self, capsys, tmp_path):
        first_path = tmp_path / "first.csv"
        second_path = tmp_path / "second.csv"
        argv = [
            "bench", "--n-values", "20,30", "--k", "3", "--seeds-per-n", "2",
            "--seed", "3", "--gamma", "0.9",
        ]
        code, _, _ = run_main(capsys, argv + ["--output", str(first_path)])
        assert code == 0
        code, _, _ = run_main(capsys, argv + ["--output", str(second_path)])
        assert code == 0
        first = first_path.read_text().splitlines()
        second = second_path.read_text().splitlines()
        assert first[0] == (
            "n,k,p,seed,objective_error,solution_error,time_exact_s,time_approx_s"
        )
        assert len(first) == len(second) == 5
        for a, b in zip(first[1:], second[1:]):
            assert a.split(",")[:6] == b.split(",")[:6]

    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_main(
            capsys,
            ["bench", "--n-values", "20", "--k", "3", "--seeds-per-n", "1", "--seed", "1"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("n,k,p,seed,")
        assert len(lines) == 2

    def test_rejects_n_not_exceeding_k(self, capsys):
        code, _, err = run_main(capsys, ["bench", "--n-values", "20,3", "--k", "3"])
        assert code == 2
        assert "exceed" in err


class TestGenCommand:
    def test_writes_reproducible_problem_files(self, capsys, tmp_path):
        prefix = tmp_path / "case"
        argv = ["gen", "--n", "20", "--k", "3", "--gamma", "0.5", "--seed", "6",
                "--output", str(prefix)]
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        assert f"matrix written to {prefix}_A.mtx" in out
        assert f"rhs written to {prefix}_b.mtx" in out
        assert "n = 20\n" in out and "k = 3\n" in out
        gamma_line = [l for l in out.splitlines() if l.startswith("gamma_k = ")][0]
        assert float(gamma_line.split(" = ")[1]) == pytest.approx(0.5, rel=1e-10)

        first_bytes = (
            open(f"{prefix}_A.mtx", "rb").read(),
            open(f"{prefix}_b.mtx", "rb").read(),
        )
        code, rerun_out, _ = run_main(capsys, argv)
        assert code == 0
        assert rerun_out == out
        second_bytes = (
            open(f"{prefix}_A.mtx", "rb").read(),
            open(f"{prefix}_b.mtx", "rb").read(),
        )
        assert first_bytes == second_bytes

    def test_generated_problem_round_trips_through_solvers(self, capsys, tmp_path):
        prefix = tmp_path / "pipe"
        run_main(capsys, ["gen", "--n", "20", "--k", "3", "--gamma", "0.5",
                          "--seed", "6", "--output", str(prefix)])
        argv = [
            "solve", f"{prefix}_A.mtx", f"{prefix}_b.mtx",
            "--k", "3", "--p", "6", "--seed", "2",
        ]
        code, first, _ = run_main(capsys, argv)
        assert code == 0
        code, second, _ = run_main(capsys, argv)
        assert first == second

    def test_requires_output_prefix(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--n", "20", "--k", "3"])
        assert excinfo.value.code == 2


class TestErrorPaths:
    def test_unknown_command_exits_two(self, diag_problem):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_jobs_flag_is_unrecognized(self, capsys):
        # bench takes no --jobs: its sweep runs serially, so timings are uncontended.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--k", "3", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_missing_matrix_file_exits_one(self, capsys, tmp_path):
        rhs = tmp_path / "b.mtx"
        save_vector(np.ones(3), rhs)
        code, _, err = run_main(
            capsys, ["exact", str(tmp_path / "absent.mtx"), str(rhs), "--k", "1"]
        )
        assert code == 1
        assert "does not exist" in err

    def test_multicolumn_rhs_exits_one(self, capsys, tmp_path):
        matrix_path = tmp_path / "A.mtx"
        save_matrix(np.eye(3), matrix_path)
        wide_path = tmp_path / "wide.mtx"
        save_matrix(np.ones((3, 2)), wide_path)
        code, _, err = run_main(
            capsys, ["exact", str(matrix_path), str(wide_path), "--k", "1"]
        )
        assert code == 1
        assert "single-column" in err

    @pytest.mark.parametrize("rank", [0, 1])
    def test_solve_on_a_matrix_of_rank_below_k_exits_one(self, capsys, tmp_path, rank):
        A = np.zeros((6, 5))
        A[:rank, :rank] = 2.0
        save_matrix(A, tmp_path / "A.mtx")
        save_vector(np.arange(1.0, 7.0), tmp_path / "b.mtx")
        code, out, err = run_main(
            capsys,
            ["solve", str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx"), "--k", "2", "--p", "3"],
        )
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_level_above_rank_exits_one(self, capsys, diag_problem):
        matrix_path, rhs_path = diag_problem
        code, _, err = run_main(capsys, ["exact", matrix_path, rhs_path, "--k", "9"])
        assert code == 1

    def test_level_above_the_shape_reads_the_same_for_every_solver(self, capsys, tmp_path):
        save_matrix(np.diag(np.arange(8.0, 0.0, -1.0)), tmp_path / "A.mtx")
        save_vector(np.ones(8), tmp_path / "b.mtx")
        files = [str(tmp_path / "A.mtx"), str(tmp_path / "b.mtx")]
        errors = set()
        for argv in (["exact", *files, "--k", "9"],
                     ["solve", *files, "--k", "9", "--p", "3"],
                     ["solve", *files, "--k", "9", "--epsilon", "0.05", "--delta", "0.1"]):
            code, out, err = run_main(capsys, argv)
            assert (code, out) == (1, "")
            errors.add(err)
        assert errors == {"error: truncation level k=9 must satisfy 1 <= k <= min(rows, cols) (8)\n"}

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["exact", "A", "b", "--k", "0"], "exact requires --k >= 1"),
            (["solve", "A", "b", "--k", "2", "--p", "-1"], "--p must be nonnegative"),
            (
                ["solve", "A", "b", "--k", "2", "--epsilon", "2", "--delta", "0.1"],
                "--epsilon must lie in (0, 1]",
            ),
            (
                ["solve", "A", "b", "--k", "2", "--epsilon", "0.1", "--delta", "0"],
                "--delta must lie in (0, 1]",
            ),
            (["tikhonov", "A", "b"], "tikhonov requires --lambda"),
            (["bench", "--k", "3", "--seeds-per-n", "0"], "--seeds-per-n must be positive"),
            (
                ["solve", "A", "b", "--k", "2", "--epsilon", "0.1"],
                "solve requires --p, or both --epsilon and --delta",
            ),
            (["bench", "--k", "3", "--noise", "-1"], "--noise must be nonnegative"),
            (
                ["gen", "--n", "20", "--k", "3", "--gamma", "1.5", "--output", "out"],
                "--gamma must lie in (0, 1)",
            ),
            (["gen", "--n", "1", "--k", "1", "--output", "out"], "gen requires --n >= 2"),
            (["gen", "--n", "3", "--k", "3", "--output", "out"], "gen requires n > k"),
            (["certify", "--trials", "0"], "--trials must be positive"),
            (["bench", "--k", "3", "--n-values", "2,5"], "every n must exceed k=3"),
            (["tikhonov", "A", "b", "--lambda", "-1"], "--lambda values must be nonnegative"),
            (["solve", "A", "b", "--k", "0", "--p", "1"], "solve requires --k >= 1"),
            (["bench", "--k", "0"], "bench requires --k >= 1"),
            (["gen", "--n", "5", "--k", "0", "--output", "out"], "gen requires --k >= 1"),
            # Two checks fail on each argv below; the one named wins.
            (
                ["bench", "--k", "3", "--n-values", "2,5", "--gamma", "2"],
                "every n must exceed k=3",
            ),
            (
                ["gen", "--n", "1", "--k", "1", "--noise", "-1", "--output", "out"],
                "gen requires --n >= 2",
            ),
            (["solve", "A", "b", "--k", "0", "--p", "-1"], "solve requires --k >= 1"),
        ],
    )
    def test_usage_check_exits_two_with_message(self, capsys, argv, fragment):
        # Usage checks run before any file is read or written, so the paths
        # and prefixes above are never touched.
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert fragment in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_every_subcommand_routes_to_its_handler(self):
        # A subparser without a ``run`` default would end in an AttributeError
        # in main, not in exit code 1 or 2.
        parser = cli_module._build_parser()
        (commands,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(commands.choices) == {"solve", "exact", "tikhonov", "certify", "bench", "gen"}
        for name, subparser in commands.choices.items():
            assert subparser.get_default("run") is getattr(cli_module, f"_cmd_{name}"), name


class TestEntryPoints:
    def test_matrix_loader_is_reexported(self):
        assert cli_module.load_matrix is mmio_module.load_matrix

    def test_module_invocation(self, diag_problem):
        matrix_path, rhs_path = diag_problem
        result = subprocess.run(
            [sys.executable, "-m", "trunclsq", "exact", matrix_path, rhs_path, "--k", "2"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == TestExactCommand.GOLDEN
