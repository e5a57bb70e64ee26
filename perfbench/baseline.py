"""Rebuild ``baseline-seed.json``: untraced runs of every workload on ten
seeds and one traced run per workload, summarized per table metric.

    python3 perfbench/baseline.py --seconds 30 --output perfbench/baseline-seed.json

Run from the root of a checkout; each run is a ``perfbench/run.py`` process,
one at a time.  For each workload the file keeps ``attempted``, ``failed``
and ``correct`` per run, the median, min and max over runs of every table
metric, the spread (IQR over median) of every gated metric, and the traced
run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = tuple(range(401, 411))
WORKLOADS = ("certificates", "cli-files", "paper-sweep")
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One run: its table rows ``name -> (value, unit, samples, source)``,
    its environment and its result line."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = done.stdout.splitlines()
    env = json.loads(lines[1].split(":", 1)[1])
    rows = {}
    for line in lines[3:]:
        if line.startswith("operations:"):
            break
        fields = line.split()
        source = line.split("(measured on ", 1)[1].rstrip(")") if "(measured on " in line else workload
        value = None if fields[1] == "n/a" else float(fields[1])
        rows[fields[0]] = (value, fields[2], int(fields[3]), source)
    return rows, env, json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def summarize(workload: str, seconds: int) -> tuple[dict, dict]:
    runs = []
    for seed in SEEDS:
        runs.append(run_once(workload, seed, seconds, 0))
        print(f"{workload} seed {seed}: {json.dumps(runs[-1][2])}", file=sys.stderr)
    table = {}
    for name, (_, unit, _, _) in runs[0][0].items():
        values = [rows[name][0] for rows, _, _ in runs if rows[name][0] is not None]
        if values:
            table[name] = {"max": max(values), "median": statistics.median(values),
                           "min": min(values), "runs": len(values), "unit": unit,
                           "samples_per_run": statistics.median(rows[name][2] for rows, _, _ in runs)}
    gated = runs[0][2]["metrics"]
    traced_rows, _, traced = run_once(workload, SEEDS[0], seconds, 1)
    summary = {
        "seeds": list(SEEDS),
        "attempted": [result["attempted"] for _, _, result in runs],
        "failed": [result["failed"] for _, _, result in runs],
        "correct": all(result["correct"] for _, _, result in runs) and traced["correct"],
        "end_to_end": table,
        "gated_spread_iqr_over_median": {
            name: spread([result["metrics"][name]["value"] for _, _, result in runs]) for name in gated},
        "per_layer": {name: {"measured_on": source, "samples": count, "unit": unit, "value": value}
                      for name, (value, unit, count, source) in traced_rows.items()},
        "per_layer_traced_seed": SEEDS[0],
    }
    return summary, runs[0][1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads, env = {}, {}
    for workload in WORKLOADS:
        workloads[workload], env = summarize(workload, args.seconds)
    env.pop("seed", None)
    args.output.write_text(json.dumps({
        "about": ("Measurements of the package as first benchmarked: untraced runs on ten seeds "
                  "per workload (median, min and max over runs of each table metric) and one "
                  "traced run per workload. Regenerate with perfbench/baseline.py."),
        "environment": env,
        "run_seconds": args.seconds,
        "workloads": workloads,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
