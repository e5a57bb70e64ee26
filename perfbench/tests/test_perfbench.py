"""Tests of the benchmark itself: deterministic inputs, checks that reject
perturbed outputs, a tiny run of every workload, and the refusal to run
outside a checkout.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import trunclsq as tl
import workloads
from inputs import certificate_instance, paper_problem, read_mtx, rng_for, write_mtx

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def tiny_workloads():
    return {
        "paper-sweep": workloads.PaperSweep(grid=(30, 40), problems_per_n=1, sketches=2, k=5),
        "cli-files": workloads.CliFiles(n=40, k=5, problems=2),
        "certificates": workloads.Certificates(count=4),
    }


def test_inputs_are_bitwise_deterministic_per_seed(tmp_path):
    first = paper_problem(60, 5, 0.99, 0.2, rng_for(7, 1, 60, 0))
    again = paper_problem(60, 5, 0.99, 0.2, rng_for(7, 1, 60, 0))
    other = paper_problem(60, 5, 0.99, 0.2, rng_for(8, 1, 60, 0))
    assert first.A.tobytes() == again.A.tobytes() and first.b.tobytes() == again.b.tobytes()
    assert first.A.tobytes() != other.A.tobytes()
    s = np.linalg.svd(first.A, compute_uv=False)
    assert s[5] / s[4] == pytest.approx(0.99, rel=1e-10)

    for clustered in (False, True):
        a = certificate_instance(rng_for(3, 3, 1), clustered)
        b = certificate_instance(rng_for(3, 3, 1), clustered)
        assert a.problem.A.tobytes() == b.problem.A.tobytes()
        assert a.S.tobytes() == b.S.tobytes() and a.approx_U.tobytes() == b.approx_U.tobytes()
        assert (a.p, a.solve_seed, a.chain_seed) == (b.p, b.solve_seed, b.chain_seed)

    write_mtx(tmp_path / "a.mtx", first.A)
    write_mtx(tmp_path / "b.mtx", again.A)
    assert (tmp_path / "a.mtx").read_bytes() == (tmp_path / "b.mtx").read_bytes()
    assert read_mtx(tmp_path / "a.mtx").tobytes() == first.A.tobytes()


def test_clustered_instances_have_clustered_spectra():
    inst = certificate_instance(rng_for(5, 3, 2), clustered=True)
    s, k = inst.problem.ref.s, inst.problem.k
    assert s[0] / s[k - 1] - 1.0 <= 1e-3
    assert s[k] / s[-1] - 1.0 <= 1e-3


def test_solution_check_rejects_perturbed_x():
    problem = paper_problem(40, 5, 0.99, 0.2, rng_for(1, 1, 40, 0))
    x = tl.exact_truncated_solve(problem.A, problem.b, 5).x
    assert checks.solution_failure(x, problem, exact=True) is None
    assert checks.solution_failure(x * (1.0 + 1e-6), problem, exact=True) is not None
    broken = x.copy()
    broken[0] = np.nan
    assert checks.solution_failure(broken, problem, exact=False) is not None
    assert checks.solution_failure(x * 1.5, problem, exact=False) is None


def test_stdout_check_rejects_changed_stdout():
    assert checks.stdout_failure(b"x\n", b"x\n") is None
    assert checks.stdout_failure(b"y\n", b"x\n") is not None


def test_certificate_checks_reject_perturbed_outputs():
    inst = certificate_instance(rng_for(2, 3, 0), clustered=True)
    A, b, k, p = inst.problem.A, inst.problem.b, inst.problem.k, inst.p

    report = tl.subspace_capture_bound(A, inst.S, k, p)
    Q = tl.power_basis_from_sketch(A, inst.S, p)
    assert checks.capture_failure(report, inst, Q) == (None, False)
    shifted = dataclasses.replace(report, measured=report.measured - 10 * report.tol)
    assert checks.capture_failure(shifted, inst, Q)[1] is True
    unsatisfied = dataclasses.replace(report, satisfied=False)
    assert checks.capture_failure(unsatisfied, inst, Q)[0] is not None

    reports = tl.error_chain(A, b, k, p, tl.RngSeed(inst.chain_seed))
    fact = tl.approx_truncated_svd(A, k, p, tl.RngSeed(inst.chain_seed))
    assert checks.error_chain_failure(reports, inst, fact) == (None, False)
    for link in range(3):
        bent = list(reports)
        bent[link] = dataclasses.replace(bent[link], measured=bent[link].measured - 10 * bent[link].tol)
        assert checks.error_chain_failure(bent, inst, fact)[1] is True

    approx = tl.TruncatedFactorization(U=inst.approx_U, sigma=inst.approx_sigma,
                                       V=inst.approx_V, k=k, kind="approximate")
    result = tl.lower_bound_instance(A, approx, k)
    assert checks.lower_bound_failure(result, inst) == (None, False)
    off = dataclasses.replace(result, epsilon_star=result.epsilon_star * (1 - 1e-6) - 1e-7)
    assert checks.lower_bound_failure(off, inst)[1] is True
    moved = dataclasses.replace(result, b=result.b + 1e-3 * np.linalg.norm(result.b) * inst.problem.ref.U[:, -1])
    assert checks.lower_bound_failure(moved, inst)[0] is not None


def test_cli_file_checks_reject_changed_outputs(tmp_path):
    workload = workloads.CliFiles(n=40, k=5, problems=1)
    workload.setup(4, tmp_path)
    rec = workloads.Recorder()
    workload.cycle(0, rec, in_process=True)
    assert rec.failures == {}
    exact = tmp_path / "x_exact.mtx"
    write_mtx(exact, read_mtx(exact)[:, 0] * (1.0 + 1e-6))
    assert workload._check_files("exact", 0) is not None
    gen = tmp_path / "gen_A.mtx"
    gen.write_bytes(gen.read_bytes() + b"\n")
    assert workload._check_files("gen", 0) is not None


@pytest.mark.parametrize("name", ["paper-sweep", "cli-files", "certificates"])
def test_every_workload_has_a_tiny_run(name, tmp_path):
    result = workloads.run_plain(name, 3, 0.2, tmp_path, setup_repeats=1,
                                 workload=tiny_workloads()[name])
    assert result.rec.failures == {}
    table = run.end_to_end(result, name)
    for metric in run.END_TO_END:
        value = table[metric][0]
        assert value is not None and value > 0, metric


def test_an_operation_that_fails_on_every_call_counts_once():
    def broken():
        raise ValueError("no")

    rec = workloads.Recorder()
    for _ in range(3):
        rec.call("exact", broken, op="problem=0")
    rec.call("exact", broken, op="problem=1")
    rec.call("exact", lambda: 1.0, op="problem=2")
    rec.wrong("exact", "off", "problem=2")
    assert (rec.attempted, rec.failed, rec.failed_calls, rec.calls) == (3, 3, 5, 5)
    assert rec.wrong_outputs == 1


@pytest.mark.parametrize("name", ["paper-sweep", "certificates"])
def test_operation_counts_do_not_depend_on_run_length(name, tmp_path):
    counts = []
    for seconds in (0.01, 0.5):
        result = workloads.run_plain(name, 3, seconds, tmp_path, setup_repeats=1,
                                     workload=tiny_workloads()[name])
        counts.append((result.rec.attempted, result.rec.failed))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", ["paper-sweep", "certificates"])
def test_traced_run_gives_every_per_layer_metric(name, tmp_path):
    result = workloads.run_traced(name, 3, 0.2, tmp_path, tmp_path / "spans.jsonl",
                                  workloads=tiny_workloads())
    assert result.rec.failures == {}
    table = run.per_layer(result)
    assert [m for m in run.PER_LAYER if table[m][0] is None] == []
    assert result.sources["regression.approx_ms"] == name
    assert result.sources["mmio.load_ms"] == "cli-files"
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"name", "start", "end", "parent", "request"} <= set(spans[0])
    assert 0.5 < table["trace.coverage"][0] <= 1.0


def test_instrument_restores_the_package():
    original = tl.regression.approx_truncated_solve
    with workloads.instrument(workloads.Tracer()):
        assert tl.regression.approx_truncated_solve is not original
    assert tl.regression.approx_truncated_solve is original
    assert tl.subspace.approx_truncated_svd is tl.approx_truncated_svd


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certificates",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
