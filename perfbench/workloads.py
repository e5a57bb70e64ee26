"""The benchmark's workloads and the loops that run them.

Every workload is a closed loop: one process, one request at a time, the
next request sent only after the last one returned.  A workload builds its
inputs in ``setup`` (with the benchmark's own generators), runs one cycle of
requests per ``cycle`` call, and checks what it kept in ``finish``.  Checks
that need more than a comparison run after the timed loop, so they do not
dilute throughput.

* ``paper-sweep`` -- the paper's experiment, in process: exact and
  randomized solves on the n = 100..500 grid, k = 20, gap 0.99.
* ``cli-files`` -- ``trunclsq solve`` / ``exact`` / ``gen`` as processes on
  n = 500 problems written as Matrix Market files.
* ``certificates`` -- the three certificates on small Gaussian and clustered
  instances, with the solves they certify.
"""

from __future__ import annotations

import hashlib
import io
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import trunclsq as tl
import trunclsq.cli  # noqa: F401 - loads the submodule behind tl.cli
from inputs import (
    PAPER_GAMMA, PAPER_GRID, PAPER_K, PAPER_NOISE, SEED_LIMIT, TAG_CERTIFICATES,
    TAG_CLI_FILES, TAG_PAPER_SWEEP, certificate_instance, paper_depth, paper_problem,
    read_mtx, rng_for, write_mtx,
)
from tracing import SpanIndex, Tracer, instrument, span_metrics

# A process that runs longer than this is killed and counted as failed.
PROCESS_TIMEOUT_S = 120.0
# Seconds between samples of the reference kernel during a measured loop.
REFERENCE_EVERY_S = 0.2

_REFERENCE_PRODUCT = np.random.default_rng(0).standard_normal((256, 256))
_REFERENCE_SVD = np.random.default_rng(1).standard_normal((128, 128))
_REFERENCE_SMALL = [np.random.default_rng(2 + i).standard_normal((48, 40)) for i in range(6)]


def reference_kernel() -> None:
    """Fixed numpy work that tracks the machine's speed: a dense product and
    an SVD large enough for BLAS throughput to dominate, then SVDs, QRs and
    products of certificate-sized matrices, where per-call overhead does;
    about 8 ms on one core.

    Shared machines drift by tens of percent within minutes, moving every
    timing together; the workloads sample this kernel between requests so
    that times can also be given in units of it.  The two halves drift
    differently, and their sum tracks both the large solves and the small
    certificate calls more closely than either half alone.
    """
    _REFERENCE_PRODUCT @ _REFERENCE_PRODUCT
    np.linalg.svd(_REFERENCE_SVD, full_matrices=False)
    for M in _REFERENCE_SMALL:
        np.linalg.svd(M, full_matrices=False)
        np.linalg.qr(M)
        M.T @ M


class Recorder:
    """Timing samples, operations and failures of a run.

    An operation is one request on one input, named by ``(kind, op)``; the
    loop repeats every operation of its workload, and ``calls`` counts the
    repeats.  ``measuring`` is false during warm-up: calls are still counted
    and checked, but their times are not sampled.  With ``reference``, the
    reference kernel is timed between requests every ``REFERENCE_EVERY_S``
    while measuring (sample ``ref_ms``).

    A failure is either a failed operation (it raised, exited non-zero, or a
    certificate did not hold) or a wrong output; only the second makes the
    run incorrect.  An operation that fails on several of its calls is one
    failed operation, kept with its first reason and its number of failing
    calls, so the counts depend on the inputs and not on how many times the
    loop came round.
    """

    def __init__(self, tracer: Tracer | None = None, reference: bool = False) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.operations: set[tuple[str, str]] = set()
        self.calls = 0
        self.failures: dict[tuple[str, str], list] = {}
        self.wrong_ops: set[tuple[str, str]] = set()
        self.measuring = True
        self.tracer = tracer
        self.reference = reference
        self._last_reference = -float("inf")

    def call(self, kind: str, fn, *args, op: str = ""):
        """Time one request; a request that raises is a failed operation."""
        if self.measuring and self.reference:
            now = time.perf_counter()
            if now - self._last_reference >= REFERENCE_EVERY_S:
                reference_kernel()
                self._last_reference = time.perf_counter()
                self.add("ref_ms", 1e3 * (self._last_reference - now))
        self.operations.add((kind, op))
        self.calls += 1
        if self.tracer is not None:
            self.tracer.request += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failing request is counted, the loop goes on
            result = None
            self.fail(kind, f"raised {type(exc).__name__}: {exc}", op)
        elapsed = time.perf_counter() - start
        self.add(f"{kind}_ms", 1e3 * elapsed)
        return result, elapsed

    @property
    def attempted(self) -> int:
        """Operations attempted."""
        return len(self.operations)

    @property
    def failed(self) -> int:
        """Operations that failed on at least one call."""
        return len(self.failures)

    @property
    def failed_calls(self) -> int:
        return sum(count for _, count in self.failures.values())

    @property
    def wrong_outputs(self) -> int:
        """Operations that gave a wrong output on at least one call."""
        return len(self.wrong_ops)

    def add(self, name: str, value: float) -> None:
        if self.measuring:
            self.samples[name].append(value)

    def fail(self, kind: str, reason: str | None, op: str = "") -> None:
        """Count a failing call of operation ``(kind, op)`` when ``reason``
        is given."""
        if reason is not None:
            self.failures.setdefault((kind, op), [reason, 0])[1] += 1

    def wrong(self, kind: str, reason: str | None, op: str = "") -> None:
        """Count a wrong output of operation ``(kind, op)`` when ``reason``
        is given."""
        if reason is not None:
            self.wrong_ops.add((kind, op))
            self.fail(kind, f"wrong output: {reason}", op)

    def merge(self, other: "Recorder") -> None:
        """Add another recorder's operations and failures to this one's."""
        self.operations |= other.operations
        self.calls += other.calls
        self.wrong_ops |= other.wrong_ops
        for key, (reason, count) in other.failures.items():
            self.failures.setdefault(key, [reason, 0])[1] += count


@dataclass
class CheckCounts:
    """Certificate verdicts: unsatisfied reports and measured sides that
    disagree with numpy."""

    checked: int = 0
    violations: int = 0
    mismatches: int = 0


class PaperSweep:
    """Exact and randomized solves on the paper's grid.

    Each n holds ``problems_per_n`` problems; each problem is solved exactly
    once and randomized with ``sketches`` sketch seeds per visit.  One cycle
    visits one problem of every n, so a cycle is balanced across the grid.
    """

    name = "paper-sweep"
    # The sweep's acceptance limits on objective and solution error.
    limits = (0.08, 0.05)

    def __init__(self, grid=PAPER_GRID, problems_per_n: int = 4, sketches: int = 5,
                 k: int = PAPER_K) -> None:
        self.grid, self.problems_per_n, self.sketches, self.k = grid, problems_per_n, sketches, k
        self.accuracy: dict[tuple[int, int, int], tuple[float, float]] = {}

    @property
    def inputs(self) -> int:
        """Cycles that visit every input once."""
        return self.problems_per_n

    def setup(self, seed: int, workdir: Path) -> None:
        self.rows = []
        for n in self.grid:
            row = []
            for j in range(self.problems_per_n):
                rng = rng_for(seed, TAG_PAPER_SWEEP, n, j)
                problem = paper_problem(n, self.k, PAPER_GAMMA, PAPER_NOISE, rng)
                row.append((problem, [int(v) for v in rng.integers(SEED_LIMIT, size=self.sketches)]))
            self.rows.append(row)

    def cycle(self, index: int, rec: Recorder, in_process: bool = True) -> float:
        j = index % self.problems_per_n
        total = 0.0
        for n, row in zip(self.grid, self.rows):
            problem, sketch_seeds = row[j]
            p = paper_depth(n)
            op = f"n={n} problem={j}"
            exact, exact_time = rec.call("exact", tl.exact_truncated_solve, problem.A, problem.b,
                                         self.k, op=op)
            if exact is not None:
                rec.wrong("exact", checks.solution_failure(exact.x, problem, exact=True), op)
            approx_times = []
            for s, sketch_seed in enumerate(sketch_seeds):
                sketch_op = f"{op} sketch={s}"
                approx, elapsed = rec.call("approx", tl.approx_truncated_solve, problem.A, problem.b,
                                           self.k, p, tl.RngSeed(sketch_seed), op=sketch_op)
                approx_times.append(elapsed)
                if approx is None:
                    continue
                reason = checks.solution_failure(approx.x, problem, exact=False)
                rec.wrong("approx", reason, sketch_op)
                if reason is None and (n, j, s) not in self.accuracy:
                    self.accuracy[(n, j, s)] = checks.accuracy(approx.x, problem)
            rec.add("time_ratio", statistics.fmean(approx_times) / exact_time)
            total += exact_time + sum(approx_times)
        return total

    def finish(self, rec: Recorder) -> CheckCounts:
        return CheckCounts()


class CliFiles:
    """``trunclsq solve``, ``exact`` and ``gen`` on n-by-n problems.

    Each problem's matrix and right-hand side are written by the benchmark
    as Matrix Market files.  A cycle runs ``solve`` and ``exact`` on the next
    problem in turn and ``gen`` once, as processes, or through
    ``trunclsq.cli.main`` in this process for the traced run.  Solve times
    depend on the problem (its SVD's convergence and chosen depth), so a
    seed brings ``problems`` of them rather than one.
    """

    name = "cli-files"
    COMMAND_METRICS = {"solve": "approx", "exact": "exact", "gen": "gen"}
    # The README's accuracy target for ``solve``; the randomized solution
    # should meet (epsilon, 4/3 epsilon) on objective and solution error.
    EPSILON, DELTA = 0.05, 0.1
    limits = (EPSILON, 4.0 / 3.0 * EPSILON)

    def __init__(self, n: int = 500, k: int = PAPER_K, problems: int = 3) -> None:
        self.n, self.k, self.count = n, k, problems
        self.accuracy: dict[int, tuple[float, float]] = {}
        self.first_stdout: dict[tuple[str, int], bytes] = {}
        self.gen_digest: str | None = None

    @property
    def inputs(self) -> int:
        """Cycles that visit every input once."""
        return self.count

    def setup(self, seed: int, workdir: Path) -> None:
        rng = rng_for(seed, TAG_CLI_FILES)
        solve_seed, gen_seed = (str(int(v)) for v in rng.integers(SEED_LIMIT, size=2))
        self.workdir = workdir
        k = str(self.k)
        self.problems, self.commands = [], []
        for j in range(self.count):
            problem = paper_problem(self.n, self.k, PAPER_GAMMA, PAPER_NOISE, rng_for(seed, TAG_CLI_FILES, j))
            matrix, rhs = str(workdir / f"A{j}.mtx"), str(workdir / f"b{j}.mtx")
            write_mtx(matrix, problem.A)
            write_mtx(rhs, problem.b)
            self.problems.append(problem)
            self.commands.append({
                "solve": ["solve", matrix, rhs, "--k", k, "--epsilon", repr(self.EPSILON),
                          "--delta", repr(self.DELTA), "--seed", solve_seed,
                          "--output", str(workdir / "x_solve.mtx")],
                "exact": ["exact", matrix, rhs, "--k", k, "--output", str(workdir / "x_exact.mtx")],
                "gen": ["gen", "--n", str(self.n), "--k", k, "--seed", gen_seed,
                        "--output", str(workdir / "gen")],
            })
        self.env = child_env()

    def _process(self, argv):
        done = subprocess.run([sys.executable, "-m", "trunclsq", *argv], cwd=self.workdir,
                              env=self.env, capture_output=True, timeout=PROCESS_TIMEOUT_S)
        return done.returncode, done.stdout

    @staticmethod
    def _in_process(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = tl.cli.main(argv)
        return code, out.getvalue().encode("utf-8")

    def cycle(self, index: int, rec: Recorder, in_process: bool = False) -> float:
        run = self._in_process if in_process else self._process
        j = index % self.count
        times = {}
        for command, argv in self.commands[j].items():
            kind = self.COMMAND_METRICS[command]
            op = "" if command == "gen" else f"problem={j}"
            result, times[command] = rec.call(kind, run, argv, op=op)
            if result is None:
                continue
            code, stdout = result
            if code != 0:
                rec.fail(kind, f"exit code {code}", op)
                continue
            first = self.first_stdout.setdefault((command, j), stdout)
            rec.wrong(kind, checks.stdout_failure(stdout, first) or self._check_files(command, j), op)
        rec.add("time_ratio", times["solve"] / times["exact"])
        return sum(times.values())

    def _check_files(self, command: str, j: int) -> str | None:
        if command == "gen":
            digest = hashlib.sha256()
            for suffix in ("_A.mtx", "_b.mtx"):
                digest.update((self.workdir / f"gen{suffix}").read_bytes())
            if self.gen_digest is None:
                self.gen_digest = digest.hexdigest()
            elif digest.hexdigest() != self.gen_digest:
                return "written files differ from the first run"
            return None
        x = read_mtx(self.workdir / f"x_{command}.mtx")[:, 0]
        reason = checks.solution_failure(x, self.problems[j], exact=command == "exact")
        if reason is None and command == "solve":
            self.accuracy.setdefault(j, checks.accuracy(x, self.problems[j]))
        return reason

    def finish(self, rec: Recorder) -> CheckCounts:
        """Check the generated problem once: its gap at k must be the
        requested 0.99."""
        if self.gen_digest is not None:
            A = read_mtx(self.workdir / "gen_A.mtx")
            s = np.linalg.svd(A, compute_uv=False)
            gamma = s[self.k] / s[self.k - 1]
            if A.shape != (self.n, self.n) or abs(gamma - PAPER_GAMMA) > 1e-8:
                rec.wrong("gen", f"generated matrix has shape {A.shape} and gap {gamma!r}")
        return CheckCounts()

    def startup_ms(self) -> float:
        """Median wall time of a fresh interpreter importing ``trunclsq.cli``,
        over three starts."""
        return 1e3 * import_probe("trunclsq.cli", 3)


class Certificates:
    """Solve and certify small instances: per instance, the randomized and
    exact solves, then ``subspace_capture_bound``, ``error_chain`` and
    ``lower_bound_instance``.  Half the instances are Gaussian, half have
    clustered spectra."""

    name = "certificates"
    limits = None

    def __init__(self, count: int = 400) -> None:
        self.count = count
        self.accuracy: dict[int, tuple[float, float]] = {}
        self.kept: list[tuple[int, str, object]] = []

    @property
    def inputs(self) -> int:
        """Cycles that visit every input once."""
        return self.count

    def setup(self, seed: int, workdir: Path) -> None:
        self.instances = [certificate_instance(rng_for(seed, TAG_CERTIFICATES, i), clustered=i % 2 == 1)
                          for i in range(self.count)]
        self.factors = [tl.TruncatedFactorization(U=inst.approx_U, sigma=inst.approx_sigma,
                                                  V=inst.approx_V, k=inst.problem.k, kind="approximate")
                        for inst in self.instances]

    def cycle(self, index: int, rec: Recorder, in_process: bool = True) -> float:
        i = index % self.count
        inst = self.instances[i]
        A, b, k, p = inst.problem.A, inst.problem.b, inst.problem.k, inst.p
        op = f"instance={i}"
        approx, approx_time = rec.call("approx", tl.approx_truncated_solve, A, b, k, p,
                                       tl.RngSeed(inst.solve_seed), op=op)
        if approx is not None:
            reason = checks.solution_failure(approx.x, inst.problem, exact=False)
            rec.wrong("approx", reason, op)
            if reason is None:
                self.accuracy.setdefault(i, checks.accuracy(approx.x, inst.problem))
        exact, exact_time = rec.call("exact", tl.exact_truncated_solve, A, b, k, op=op)
        if exact is not None:
            rec.wrong("exact", checks.solution_failure(exact.x, inst.problem, exact=True), op)
        rec.add("time_ratio", approx_time / exact_time)
        total = approx_time + exact_time
        for kind, fn, args in (
            ("capture", tl.subspace_capture_bound, (A, inst.S, k, p)),
            ("error_chain", tl.error_chain, (A, b, k, p, tl.RngSeed(inst.chain_seed))),
            ("lower_bound", tl.lower_bound_instance, (A, self.factors[i], k)),
        ):
            result, elapsed = rec.call("certify", fn, *args, op=f"{op} {kind}")
            total += elapsed
            if result is not None:
                self.kept.append((i, kind, result))
        return total

    @staticmethod
    def _signature(kind: str, result) -> tuple:
        if kind == "capture":
            return (result.measured, result.bound, result.satisfied)
        if kind == "error_chain":
            return tuple((r.measured, r.bound, r.satisfied) for r in result)
        return (result.epsilon_star, result.b.tobytes())

    def _verdict(self, i: int, kind: str, result) -> tuple[str | None, bool]:
        inst = self.instances[i]
        A, k, p = inst.problem.A, inst.problem.k, inst.p
        if kind == "capture":
            return checks.capture_failure(result, inst, tl.power_basis_from_sketch(A, inst.S, p))
        if kind == "error_chain":
            fact = tl.approx_truncated_svd(A, k, p, tl.RngSeed(inst.chain_seed))
            return checks.error_chain_failure(result, inst, fact)
        return checks.lower_bound_failure(result, inst)

    def finish(self, rec: Recorder) -> CheckCounts:
        """Check every kept certificate; repeats of an instance that return
        the same numbers share one verdict."""
        counts = CheckCounts()
        verdicts: dict[tuple, tuple[str | None, bool]] = {}
        for i, kind, result in self.kept:
            key = (i, kind, self._signature(kind, result))
            if key not in verdicts:
                verdicts[key] = self._verdict(i, kind, result)
            reason, mismatch = verdicts[key]
            counts.checked += 1
            if reason is None:
                continue
            op = f"instance={i} {kind}"
            if mismatch:
                counts.mismatches += 1
                rec.wrong("certify", reason, op)
            else:
                counts.violations += 1
                rec.fail("certify", reason, op)
        self.kept.clear()
        return counts


WORKLOADS = {cls.name: cls for cls in (PaperSweep, CliFiles, Certificates)}


def child_env() -> dict[str, str]:
    """Environment for package processes: the checkout's ``src`` first on the
    path, the BLAS thread variables inherited, no seed from the caller."""
    env = dict(os.environ)
    env.pop("TRUNCLSQ_SEED", None)
    src = str(Path(tl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_probe(module: str, repeats: int) -> float:
    """Median seconds for a fresh interpreter to start and import ``module``."""
    env = child_env()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True,
                       timeout=PROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class RunResult:
    """What one run measured: samples, operations and failures in ``rec``,
    the calls of the measured loop, and metrics computed directly."""

    workload: object
    rec: Recorder
    seconds: float
    loop_calls: int = 0
    layers: dict[str, tuple[float | None, int]] = field(default_factory=dict)
    sources: dict[str, str | None] = field(default_factory=dict)
    setup_times: list[float] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.loop_calls / self.seconds


def run_plain(name: str, seed: int, seconds: float, workdir: Path, setup_repeats: int = 5,
              workload=None) -> RunResult:
    """The untraced run: set up ``setup_repeats`` times, one warm-up cycle,
    then whole cycles until ``seconds`` have passed and every input has been
    visited."""
    workload = workload or WORKLOADS[name]()
    setup_times = []
    for _ in range(setup_repeats):
        start = time.perf_counter()
        workload.setup(seed, workdir)
        import_probe("trunclsq", 1)
        setup_times.append(time.perf_counter() - start)
    rec = Recorder(reference=True)
    rec.measuring = False
    workload.cycle(0, rec, False)
    rec.measuring = True
    before = rec.calls
    start = time.perf_counter()
    index = 0
    while index < workload.inputs or time.perf_counter() - start < seconds:
        rec.add("cycle_ms", 1e3 * workload.cycle(index, rec, False))
        index += 1
    wall = time.perf_counter() - start
    workload.finish(rec)
    return RunResult(workload=workload, rec=rec, seconds=wall, loop_calls=rec.calls - before,
                     setup_times=setup_times)


def run_traced(name: str, seed: int, seconds: float, workdir: Path, trace_path: Path | None,
               workloads=None) -> RunResult:
    """The traced run.

    Each cycle runs twice, untraced then traced, on the same requests; the
    ratio of the two is the tracing overhead.  Layers the workload does not
    call are then measured on one traced cycle of each other workload, so
    every per-layer metric has a value; ``sources`` names the workload each
    value came from.
    """
    workloads = workloads or {key: cls() for key, cls in WORKLOADS.items()}
    main = workloads[name]
    tracer = Tracer()
    plain, traced = Recorder(), Recorder(tracer)
    overhead, cycle_totals = [], []
    counts: dict[str, CheckCounts] = {}
    cycles_of: dict[str, list[float]] = {}
    with instrument(tracer):
        main.setup(seed, workdir)
        plain.measuring = False
        main.cycle(0, plain, True)
        plain.measuring = True
        start = time.perf_counter()
        index = 0
        while index < main.inputs or time.perf_counter() - start < seconds:
            untraced = main.cycle(index, plain, True)
            tracer.recording, tracer.workload = True, main.name
            cycle_totals.append(main.cycle(index, traced, True))
            tracer.recording = False
            overhead.append(cycle_totals[-1] / untraced - 1.0)
            index += 1
        wall = time.perf_counter() - start
        counts[main.name] = main.finish(traced)
        cycles_of[main.name] = cycle_totals
        for other_name, other in workloads.items():
            if other is main:
                continue
            other.setup(seed, workdir)
            tracer.recording, tracer.workload = True, other.name
            cycles_of[other_name] = [other.cycle(0, traced, True)]
            tracer.recording = False
            counts[other_name] = other.finish(traced)
    if trace_path is not None:
        tracer.write(trace_path)

    certified = counts["certificates"]
    extras = {
        "cli.startup_ms": ("cli-files", (workloads["cli-files"].startup_ms(), 3)),
        "cli.run_ms": ("cli-files", (1e3 * statistics.median(cycles_of["cli-files"]),
                                     len(cycles_of["cli-files"]))),
        "bounds.violations": ("certificates", (float(certified.violations), certified.checked)),
        "bounds.measured_mismatch": ("certificates", (float(certified.mismatches), certified.checked)),
        "trace.overhead_frac": (name, (statistics.median(overhead), len(overhead))),
    }
    order = [name] + [key for key in workloads if key != name]
    by_workload = {key: span_metrics(SpanIndex(tracer.spans, key)) for key in order}
    plain.merge(traced)
    result = RunResult(workload=main, rec=plain, seconds=wall)
    for metric in by_workload[name]:
        source = next((key for key in order if by_workload[key][metric][0] is not None), None)
        result.layers[metric] = by_workload[source][metric] if source else (None, 0)
        result.sources[metric] = source
    for metric, (home, value) in extras.items():
        result.layers[metric] = value
        result.sources[metric] = home
    return result
