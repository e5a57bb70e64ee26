"""Synthetic problems, the experiment sweep, and CSV emission."""

import math

import numpy as np
import pytest

from trunclsq import (
    ExperimentReport,
    ProblemInstance,
    ReportRow,
    RngSeed,
    default_power_depth_rule,
    derive_row_seed,
    gap_profile,
    recompute_row_metrics,
    run_experiment,
    synthetic_problem,
    thin_svd,
)
from trunclsq import bench as bench_module
from trunclsq.bench import CSV_HEADER


class TestDeriveRowSeed:
    def test_frozen_values(self):
        assert derive_row_seed(RngSeed(0), 100, 0) == 5439955024594650657
        assert derive_row_seed(RngSeed(0), 100, 1) == 3648388220376021251
        assert derive_row_seed(RngSeed(0), 200, 0) == 11676741024304532855
        assert derive_row_seed(RngSeed(1), 100, 0) == 7236971483162586893
        assert derive_row_seed(RngSeed(0, 5), 100, 0) == 17998217508739052263

    def test_all_inputs_change_the_output(self):
        base = derive_row_seed(RngSeed(0), 100, 0)
        assert derive_row_seed(RngSeed(1), 100, 0) != base
        assert derive_row_seed(RngSeed(0, 1), 100, 0) != base
        assert derive_row_seed(RngSeed(0), 101, 0) != base
        assert derive_row_seed(RngSeed(0), 100, 1) != base

    def test_sweep_seeds_are_distinct(self):
        seeds = {
            derive_row_seed(RngSeed(0), n, trial)
            for n in (100, 200, 300, 400, 500)
            for trial in range(20)
        }
        assert len(seeds) == 100


class TestDefaultPowerDepthRule:
    def test_frozen_values(self):
        assert default_power_depth_rule(2) == 7
        assert default_power_depth_rule(100) == 47
        assert default_power_depth_rule(500) == 63

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            default_power_depth_rule(1)


class TestSyntheticProblem:
    def test_gap_is_exactly_the_target(self):
        problem = synthetic_problem(40, 5, 0.7, 0.2, RngSeed(200))
        measured = gap_profile(problem.A, 5)
        assert measured.gamma_k == pytest.approx(0.7, rel=1e-10)
        stored = problem.gap_profile
        assert stored.sigma_1 == pytest.approx(measured.sigma_1, rel=1e-8)
        assert stored.sigma_k == pytest.approx(measured.sigma_k, rel=1e-8)
        assert stored.sigma_k_plus_1 == pytest.approx(measured.sigma_k_plus_1, rel=1e-8)

    def test_noiseless_rhs_lies_in_top_subspace(self):
        problem = synthetic_problem(30, 4, 0.8, 0.0, RngSeed(201))
        F = thin_svd(problem.A)
        U_k = F.U[:, :4]
        residual = problem.b - U_k @ (U_k.T @ problem.b)
        assert np.linalg.norm(residual) <= 1e-10

    def test_noisy_rhs_keeps_most_energy_in_top_subspace(self):
        hits = 0
        for trial in range(50):
            problem = synthetic_problem(60, 6, 0.9, 0.2, RngSeed(202, trial))
            F = thin_svd(problem.A)
            U_k = F.U[:, :6]
            kept = np.linalg.norm(U_k.T @ problem.b) / np.linalg.norm(problem.b)
            hits += kept >= 0.8
        assert hits >= 47

    def test_deterministic_per_seed(self):
        first = synthetic_problem(20, 3, 0.5, 0.2, RngSeed(203))
        second = synthetic_problem(20, 3, 0.5, 0.2, RngSeed(203))
        assert np.array_equal(first.A, second.A)
        assert np.array_equal(first.b, second.b)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_problem(1, 1, 0.5, 0.2, RngSeed(1))
        with pytest.raises(ValueError):
            synthetic_problem(10, 0, 0.5, 0.2, RngSeed(1))
        with pytest.raises(ValueError):
            synthetic_problem(10, 10, 0.5, 0.2, RngSeed(1))
        with pytest.raises(ValueError):
            synthetic_problem(10, 3, 1.0, 0.2, RngSeed(1))
        with pytest.raises(ValueError):
            synthetic_problem(10, 3, 0.0, 0.2, RngSeed(1))
        with pytest.raises(ValueError):
            synthetic_problem(10, 3, 0.5, -0.1, RngSeed(1))
        with pytest.raises(TypeError):
            synthetic_problem(10, 3, 0.5, 0.2, 7)

    def test_instance_record_validation(self):
        problem = synthetic_problem(10, 3, 0.5, 0.2, RngSeed(204))
        with pytest.raises(ValueError):
            ProblemInstance(
                A=problem.A,
                b=problem.b[:-1],
                k=3,
                gap_profile=problem.gap_profile,
                seed=problem.seed,
            )
        with pytest.raises(ValueError):
            ProblemInstance(
                A=problem.A,
                b=problem.b,
                k=10,
                gap_profile=problem.gap_profile,
                seed=problem.seed,
            )


class TestRunExperiment:
    def small_sweep(self, **overrides):
        settings = dict(
            n_values=[20, 30],
            k=3,
            p_rule=lambda n: 2,
            gamma_target=0.8,
            seeds_per_n=3,
            base_seed=RngSeed(7),
            noise=0.2,
        )
        settings.update(overrides)
        return run_experiment(**settings)

    def test_row_grid_and_ordering(self):
        report = self.small_sweep()
        assert len(report.rows) == 6
        keys = [(row.n, row.seed) for row in report.rows]
        assert keys == sorted(keys)
        for row in report.rows:
            assert row.error is None
            assert row.k == 3 and row.p == 2
            assert math.isfinite(row.objective_error)
            assert math.isfinite(row.solution_error)
            assert row.time_exact_s >= 0.0 and row.time_approx_s >= 0.0

    def test_metrics_deterministic_across_runs(self):
        first = self.small_sweep()
        second = self.small_sweep()
        for a, b in zip(first.rows, second.rows):
            assert (a.n, a.k, a.p, a.seed) == (b.n, b.k, b.p, b.seed)
            assert a.objective_error == b.objective_error
            assert a.solution_error == b.solution_error

    def test_rows_recomputable_from_their_seed(self):
        report = self.small_sweep()
        for row in report.rows:
            objective_error, solution_error = recompute_row_metrics(
                row, gamma_target=0.8, noise=0.2
            )
            assert objective_error == row.objective_error
            assert solution_error == row.solution_error

    def test_failed_runs_become_error_rows(self, monkeypatch):
        real = bench_module.synthetic_problem

        def failing_for_30(n, k, gamma_target, noise, seed):
            if n == 30:
                raise RuntimeError("synthetic failure")
            return real(n, k, gamma_target, noise, seed)

        monkeypatch.setattr(bench_module, "synthetic_problem", failing_for_30)
        report = self.small_sweep()
        assert len(report.rows) == 6
        failed = [row for row in report.rows if row.n == 30]
        healthy = [row for row in report.rows if row.n == 20]
        assert all(row.error is not None and "synthetic failure" in row.error for row in failed)
        assert all(math.isnan(row.objective_error) for row in failed)
        assert all(row.error is None for row in healthy)
        medians = report.median_by_n("objective_error")
        assert 20 in medians and 30 not in medians

    def test_validation(self):
        with pytest.raises(ValueError):
            run_experiment([], 3)
        with pytest.raises(ValueError):
            run_experiment([10], 10)
        with pytest.raises(ValueError):
            run_experiment([10], 0)
        with pytest.raises(ValueError):
            run_experiment([20], 3, seeds_per_n=0)
        with pytest.raises(TypeError):
            run_experiment([20], 3, base_seed=5)
        with pytest.raises(ValueError):
            self.small_sweep(p_rule=lambda n: -1)


class TestExperimentReportCsv:
    def sample_report(self):
        return ExperimentReport(
            rows=(
                ReportRow(
                    n=20,
                    k=3,
                    p=2,
                    seed=12345,
                    objective_error=0.015625,
                    solution_error=0.1 + 0.2,
                    time_exact_s=1e-4,
                    time_approx_s=2.5e-5,
                ),
            )
        )

    def test_header_and_layout(self):
        text = self.sample_report().to_csv()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == (
            "n,k,p,seed,objective_error,solution_error,time_exact_s,time_approx_s"
        )
        assert len(lines) == 2
        assert text.endswith("\n")

    def test_values_round_trip_exactly(self):
        row = self.sample_report().rows[0]
        cells = self.sample_report().to_csv().splitlines()[1].split(",")
        assert cells[0] == "20" and cells[1] == "3" and cells[2] == "2"
        assert cells[3] == "12345"
        assert float(cells[4]) == row.objective_error
        assert float(cells[5]) == row.solution_error
        assert float(cells[6]) == row.time_exact_s
        assert float(cells[7]) == row.time_approx_s

    def test_file_uses_lf_line_endings(self, tmp_path):
        path = tmp_path / "report.csv"
        self.sample_report().write_csv(path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8") == self.sample_report().to_csv()

    def test_error_rows_keep_nan_metrics_in_csv(self):
        report = ExperimentReport(
            rows=(
                ReportRow(
                    n=20,
                    k=3,
                    p=2,
                    seed=1,
                    objective_error=math.nan,
                    solution_error=math.nan,
                    time_exact_s=math.nan,
                    time_approx_s=math.nan,
                    error="boom",
                ),
            )
        )
        line = report.to_csv().splitlines()[1]
        assert line == "20,3,2,1,nan,nan,nan,nan"

    def test_summary_statistics(self):
        report = ExperimentReport(
            rows=(
                ReportRow(20, 3, 2, 1, 0.1, 0.2, 1.0, 1.0),
                ReportRow(20, 3, 2, 2, 0.3, 0.4, 1.0, 1.0),
                ReportRow(30, 3, 2, 3, 0.5, 0.6, 1.0, 1.0),
            )
        )
        assert report.median_by_n("objective_error") == {20: 0.2, 30: 0.5}
        assert report.mean_by_n("solution_error")[20] == pytest.approx(0.3)
