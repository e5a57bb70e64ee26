"""trunclsq benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``paper-sweep``, ``cli-files`` and
``certificates``.  The run imports the package from the checkout's ``src``
(and starts ``python -m trunclsq`` processes with that ``src`` on the path),
fixes the BLAS thread count before numpy loads, builds its inputs from
``--seed``, measures whole cycles for ``--seconds`` and checks every output.

With ``--trace 0`` it measures the end-to-end metrics, untraced.  With
``--trace 1`` it makes the traced run instead: spans around the package's
public functions give per-layer metrics, and the spans are written to
``.bench_build/perfbench/`` in the checkout.  Either way it prints a table of
every metric with its unit and sample count, the environment, any failures,
and as its last line one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end or the per-layer set of BENCHMARK.json).
An operation is one request on one input; the loop repeats each one until
``--seconds`` have passed and every input has been visited.  ``attempted``
counts the operations and ``failed`` those that failed on any call: a call
that raised, a command that exited non-zero, a certificate that did not hold,
or a wrong output.  Both depend on the seed, not on how often the loop came
round; the table also gives the calls.  ``correct`` is false when any output
was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on two cores shared with other tenants it gives the
# steadiest timings, and the closed loop runs one request at a time.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# End-to-end metrics in the JSON line, with units.  Latencies are given in
# "ref", multiples of the reference kernel's median time in the same run:
# on a shared machine every timing drifts together by tens of percent within
# minutes, and the ratio cancels that drift.  The raw milliseconds, and the
# metrics that are not defined on every workload or that measure accuracy
# (reported, not gated), are printed in the table only.
END_TO_END = {
    "setup_s": "s",
    "approx_ref.p50": "ref",
    "exact_ref.p50": "ref",
    "cycle_ref.p50": "ref",
    "time_ratio.p50": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sketch.gaussian_ms": "ms",
    "subspace.power_ms": "ms",
    "subspace.passes": "count",
    "subspace.power_gflops": "GFLOP/s",
    "subspace.qr_ms": "ms",
    "subspace.cross_svd_ms": "ms",
    "subspace.rank_retries": "count",
    "regression.exact_ms": "ms",
    "regression.approx_ms": "ms",
    "regression.apply_ms": "ms",
    "regression.refusals": "count",
    "linalg.thin_svd_ms": "ms",
    "linalg.spectral_norm_ms": "ms",
    "linalg.spectral_norm_calls": "count",
    "bounds.gap_profile_ms": "ms",
    "bounds.depth_p": "count",
    "bounds.capture_ms": "ms",
    "bounds.error_chain_ms": "ms",
    "bounds.lower_bound_ms": "ms",
    "bounds.projection_distance_ms": "ms",
    "bounds.violations": "count",
    "bounds.measured_mismatch": "count",
    "mmio.load_ms": "ms",
    "mmio.load_mb_per_s": "MB/s",
    "mmio.save_ms": "ms",
    "mmio.save_mb_per_s": "MB/s",
    "cli.startup_ms": "ms",
    "cli.run_ms": "ms",
    "bench.synthetic_problem_ms": "ms",
    "kernel.power_gflop_computed": "GFLOP",
    "kernel.power_mb_computed": "MB",
    "kernel.thin_svd_gflop_computed": "GFLOP",
    "kernel.thin_svd_mb_computed": "MB",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

# A percentile is reported only when it leaves at least ten samples beyond it.
P90_MIN_SAMPLES = 100


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-sweep", "cli-files", "certificates"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def pin_blas_threads() -> dict[str, str]:
    """Fix the BLAS thread count for this process and its children; must run
    before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def import_package():
    """Import trunclsq from the checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "trunclsq" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'trunclsq'} not found; run from a trunclsq checkout")
    sys.path.insert(0, str(src))
    import trunclsq

    if Path(trunclsq.__file__).resolve().parent != (src / "trunclsq").resolve():
        raise SystemExit(f"error: imported trunclsq from {trunclsq.__file__}, not {src}")
    return trunclsq


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def environment(seed: int, threads: dict[str, str]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "blas_threads": threads,
    }


def _p50(values) -> float | None:
    import statistics

    return statistics.median(values) if values else None


def _p90(values) -> float | None:
    import numpy as np

    return float(np.quantile(values, 0.9)) if len(values) >= P90_MIN_SAMPLES else None


def end_to_end(result, workload_name: str) -> dict[str, tuple[float | None, str, int]]:
    """Every end-to-end metric of the table as ``name -> (value, unit,
    samples)``; ``None`` where the workload has no such measurement."""
    import resource

    samples = result.rec.samples
    table: dict[str, tuple[float | None, str, int]] = {}
    table["setup_s"] = (_p50(result.setup_times), "s", len(result.setup_times))
    for kind in ("approx", "exact", "gen", "certify"):
        values = samples.get(f"{kind}_ms", [])
        table[f"{kind}_ms.p50"] = (_p50(values), "ms", len(values))
        if kind != "gen":
            table[f"{kind}_ms.p90"] = (_p90(values), "ms", len(values))
    reference = _p50(samples["ref_ms"])
    table["ref_ms.p50"] = (reference, "ms", len(samples["ref_ms"]))
    for kind in ("approx", "exact", "cycle"):
        values = samples.get(f"{kind}_ms", [])
        table[f"{kind}_ref.p50"] = (_p50(values) / reference if values else None, "ref", len(values))
    ratios = samples.get("time_ratio", [])
    table["time_ratio.p50"] = (_p50(ratios), "ratio", len(ratios))
    accuracy = list(result.workload.accuracy.values())
    objective = [a[0] for a in accuracy]
    solution = [a[1] for a in accuracy]
    table["solution_error.p50"] = (_p50(solution), "ratio", len(solution))
    table["solution_error.p90"] = (_p90(solution), "ratio", len(solution))
    table["objective_error.p50"] = (_p50(objective), "ratio", len(objective))
    limits = result.workload.limits
    met = None
    if limits is not None and accuracy:
        met = sum(1 for o, s in accuracy if o <= limits[0] and s <= limits[1]) / len(accuracy)
    table["target_met_frac"] = (met, "ratio", len(accuracy))
    rec = result.rec
    table["ops_per_s"] = (result.ops_per_s, "1/s", result.loop_calls)
    table["failed_frac"] = (rec.failed_calls / rec.calls, "ratio", rec.calls)
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-files" else resource.RUSAGE_SELF
    table["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB", 1)
    return table


def per_layer(result) -> dict[str, tuple[float | None, str, int]]:
    return {name: (result.layers[name][0], unit, result.layers[name][1])
            for name, unit in PER_LAYER.items()}


def print_report(args, env: dict, table: dict, result, gated: dict[str, str]) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"trunclsq benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} run={mode} measured={result.seconds:.2f}s")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{'metric':34} {'value':>16} {'unit':>8} {'samples':>8}")
    for name, (value, unit, count) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        source = result.sources.get(name)
        note = f"  (measured on {source})" if source and source != args.workload else ""
        gate = "" if name in gated else "  [table only]"
        print(f"{name:34} {shown:>16} {unit:>8} {count:>8}{gate}{note}")
    rec = result.rec
    print(f"operations: attempted={rec.attempted} failed={rec.failed} "
          f"wrong_outputs={rec.wrong_outputs} calls={rec.calls} failed_calls={rec.failed_calls}")
    for (kind, op), (reason, count) in list(rec.failures.items())[:20]:
        print(f"  failure: {kind} {op}: {reason} ({count} calls)")


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    env = environment(args.seed, threads)
    out_dir = ROOT / ".bench_build" / "perfbench"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = workloads.run_traced(args.workload, args.seed, args.seconds, workdir, trace_path)
            table, gated = per_layer(result), PER_LAYER
        else:
            result = workloads.run_plain(args.workload, args.seed, args.seconds, workdir)
            table, gated = end_to_end(result, args.workload), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_report(args, env, table, result, gated)
    missing = [name for name in gated if table[name][0] is None]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result.rec.wrong_outputs == 0,
        "attempted": result.rec.attempted,
        "failed": result.rec.failed,
        "metrics": {name: {"value": table[name][0], "unit": unit} for name, unit in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
