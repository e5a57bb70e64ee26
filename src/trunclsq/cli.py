"""Command-line front end.

Subcommands::

    solve     randomized truncated solve of min ||A x - b|| at level k
    exact     exact truncated solve via the thin SVD
    tikhonov  regularized solve with per-component damping factors
    certify   run the deterministic bound certificates on random instances
    bench     accuracy/timing sweep, emitted as CSV
    gen       write a synthetic benchmark problem to Matrix Market files

Matrices and vectors travel as Matrix Market files (vectors are
single-column ``array`` files).  Exit codes: 0 success, 1 operation error,
2 usage error.  ``--seed`` falls back to the ``TRUNCLSQ_SEED`` environment
variable, then to 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bench import derive_row_seed, run_experiment, synthetic_problem
from .bounds import (
    choose_power_depth,
    error_chain,
    gap_profile,
    lower_bound_instance,
    subspace_capture_bound,
)
from .errors import TruncLsqError
from .linalg import solve_factored, thin_svd
from .mmio import load_matrix, load_vector, save_matrix, save_vector
from .regression import (
    SolveOutcome,
    approx_truncated_solve,
    exact_truncated_solve,
    tikhonov_solve,
)
from .sketch import RngSeed, gaussian_matrix, gaussian_vector
from .subspace import approx_truncated_svd

__all__ = ["CliConfig", "UsageError", "load_matrix", "run_cli", "main"]

ENV_SEED = "TRUNCLSQ_SEED"
# Residual slack accepted by the adversarial-separation certificate.
CERTIFY_RESIDUAL_TOLERANCE = 1e-8


class UsageError(ValueError):
    """Invalid command line (maps to exit code 2)."""


@dataclass(frozen=True)
class CliConfig:
    """Validated arguments for one CLI invocation."""

    command: str
    matrix_path: str | None = None
    rhs_path: str | None = None
    k: int | None = None
    p: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    seed: RngSeed = RngSeed(0)
    output_path: str | None = None
    lambdas: tuple[float, ...] | None = None
    trials: int = 100
    jobs: int = 1
    n: int | None = None
    n_values: tuple[int, ...] = (100, 200, 300, 400, 500)
    seeds_per_n: int = 20
    gamma: float = 0.99
    noise: float = 0.2


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_seed(seed: RngSeed) -> str:
    return str(seed.seed) if seed.stream == 0 else f"{seed.seed}/{seed.stream}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _emit_outcome(outcome: SolveOutcome, config: CliConfig) -> None:
    """Print the solution (or save it to --output) plus the summary lines."""
    if config.output_path is not None:
        save_vector(outcome.x, config.output_path)
        print(f"solution written to {config.output_path}")
    else:
        for value in outcome.x:
            print(_fmt(value))
    print(f"residual_norm = {_fmt(outcome.residual_norm)}")
    print(f"rhs_norm = {_fmt(outcome.rhs_norm)}")
    if outcome.k is not None:
        print(f"k = {outcome.k}")
    if outcome.p is not None:
        print(f"p = {outcome.p}")
    if outcome.method == "approx_truncated":
        print(f"seed = {_fmt_seed(config.seed)}")


def _cmd_solve(config: CliConfig) -> int:
    A = load_matrix(config.matrix_path)
    b = load_vector(config.rhs_path)
    p = config.p
    if p is None:
        profile = gap_profile(A, config.k)
        p = choose_power_depth(config.epsilon, config.delta, profile)
    outcome = approx_truncated_solve(A, b, config.k, p, config.seed)
    _emit_outcome(outcome, config)
    return 0


def _cmd_exact(config: CliConfig) -> int:
    A = load_matrix(config.matrix_path)
    b = load_vector(config.rhs_path)
    outcome = exact_truncated_solve(A, b, config.k)
    _emit_outcome(outcome, config)
    return 0


def _cmd_tikhonov(config: CliConfig) -> int:
    A = load_matrix(config.matrix_path)
    b = load_vector(config.rhs_path)
    F = thin_svd(A)
    lambdas = config.lambdas
    if len(lambdas) == 1:
        lambdas = lambdas * F.rank
    outcome = tikhonov_solve(A, b, np.asarray(lambdas, dtype=np.float64), factorization=F)
    _emit_outcome(outcome, config)
    return 0


def _certify_dims(base: RngSeed, suite: int, trial: int) -> tuple[int, int, int, int, int]:
    """Deterministic (m, n, k, p, instance_seed) for one certificate trial."""
    instance_seed = derive_row_seed(base, suite, trial)
    m = 10 + derive_row_seed(base, 100 * suite + 1, trial) % 21
    n = 8 + derive_row_seed(base, 100 * suite + 2, trial) % 16
    limit = min(m, n)
    k = 1 + derive_row_seed(base, 100 * suite + 3, trial) % (limit - 1)
    p = derive_row_seed(base, 100 * suite + 4, trial) % 5
    return m, n, k, p, instance_seed


def _cmd_certify(config: CliConfig) -> int:
    trials = config.trials
    base = config.seed
    failures: list[str] = []

    passed = 0
    for trial in range(trials):
        m, n, k, p, instance_seed = _certify_dims(base, 1, trial)
        A = gaussian_matrix(m, n, RngSeed(instance_seed, 0))
        S = gaussian_matrix(n, k, RngSeed(instance_seed, 1))
        report = subspace_capture_bound(A, S, k, p)
        if report.satisfied:
            passed += 1
        else:
            failures.append(
                f"capture-bound trial {trial}: measured {report.measured!r} "
                f"> bound {report.bound!r} + tol"
            )
    print(f"capture-bound: {passed}/{trials} satisfied")

    passed = 0
    for trial in range(trials):
        m, n, k, p, instance_seed = _certify_dims(base, 2, trial)
        A = gaussian_matrix(m, n, RngSeed(instance_seed, 0))
        b = gaussian_vector(m, RngSeed(instance_seed, 1))
        reports = error_chain(A, b, k, p, RngSeed(instance_seed, 2))
        if all(r.satisfied for r in reports):
            passed += 1
        else:
            for r in reports:
                if not r.satisfied:
                    failures.append(
                        f"error-chain trial {trial} [{r.label}]: measured "
                        f"{r.measured!r} > bound {r.bound!r} + tol"
                    )
    print(f"error-chain: {passed}/{trials} satisfied")

    passed = 0
    for trial in range(trials):
        m, n, k, p, instance_seed = _certify_dims(base, 3, trial)
        A = gaussian_matrix(m, n, RngSeed(instance_seed, 0))
        approx = approx_truncated_svd(A, k, p, RngSeed(instance_seed, 3))
        instance = lower_bound_instance(A, approx, k)
        b = instance.b
        rhs_norm = float(np.linalg.norm(b))
        exact_residual = exact_truncated_solve(A, b, k).residual_norm
        x_approx = solve_factored(approx, b)
        approx_residual = float(np.linalg.norm(A @ x_approx - b))
        slack = CERTIFY_RESIDUAL_TOLERANCE * rhs_norm
        ok = (
            exact_residual <= slack
            and approx_residual >= instance.epsilon_star * rhs_norm - slack
        )
        if ok:
            passed += 1
        else:
            failures.append(
                f"adversarial-separation trial {trial}: exact residual "
                f"{exact_residual!r}, approx residual {approx_residual!r}, "
                f"separation {instance.epsilon_star!r}, rhs norm {rhs_norm!r}"
            )
    print(f"adversarial-separation: {passed}/{trials} satisfied")

    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        print("certification FAILED")
        return 1
    print("all certificates passed")
    return 0


def _cmd_bench(config: CliConfig) -> int:
    report = run_experiment(
        list(config.n_values),
        config.k,
        p_rule=None,
        gamma_target=config.gamma,
        seeds_per_n=config.seeds_per_n,
        base_seed=config.seed,
        noise=config.noise,
        jobs=config.jobs,
    )
    failed = sum(1 for row in report.rows if row.error is not None)
    if config.output_path is not None:
        report.write_csv(config.output_path)
        print(f"{len(report.rows)} rows written to {config.output_path}")
    else:
        sys.stdout.write(report.to_csv())
    if failed:
        print(f"warning: {failed} rows failed", file=sys.stderr)
    return 0


def _cmd_gen(config: CliConfig) -> int:
    problem = synthetic_problem(config.n, config.k, config.gamma, config.noise, config.seed)
    matrix_path = f"{config.output_path}_A.mtx"
    rhs_path = f"{config.output_path}_b.mtx"
    save_matrix(problem.A, matrix_path)
    save_vector(problem.b, rhs_path)
    print(f"matrix written to {matrix_path}")
    print(f"rhs written to {rhs_path}")
    print(f"n = {config.n}")
    print(f"k = {config.k}")
    print(f"gamma_k = {_fmt(problem.gap_profile.gamma_k)}")
    print(f"seed = {_fmt_seed(config.seed)}")
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "tikhonov": _cmd_tikhonov,
    "certify": _cmd_certify,
    "bench": _cmd_bench,
    "gen": _cmd_gen,
}


def _validate(config: CliConfig) -> None:
    command = config.command
    _require(command in _HANDLERS, f"unknown command {command!r}")
    if command in ("solve", "exact", "tikhonov"):
        _require(config.matrix_path is not None, f"{command} requires a matrix file")
        _require(config.rhs_path is not None, f"{command} requires a right-hand-side file")
    if command in ("solve", "exact", "bench", "gen"):
        _require(config.k is not None and config.k >= 1, f"{command} requires --k >= 1")
    if command == "solve":
        _require(
            config.p is not None
            or (config.epsilon is not None and config.delta is not None),
            "solve requires --p, or both --epsilon and --delta to pick it",
        )
        if config.p is not None:
            _require(config.p >= 0, "--p must be nonnegative")
    if command == "tikhonov":
        _require(
            config.lambdas is not None and len(config.lambdas) >= 1,
            "tikhonov requires --lambda (a scalar or comma-separated list)",
        )
        _require(
            all(v >= 0.0 for v in config.lambdas),
            "--lambda values must be nonnegative",
        )
    if command == "certify":
        _require(config.trials >= 1, "--trials must be positive")
    if command == "bench":
        _require(len(config.n_values) >= 1, "--n-values must be nonempty")
        _require(
            all(n > config.k for n in config.n_values),
            f"every n must exceed k={config.k}",
        )
        _require(config.seeds_per_n >= 1, "--seeds-per-n must be positive")
        _require(config.jobs >= 1, "--jobs must be positive")
    if command == "gen":
        _require(config.n is not None and config.n >= 2, "gen requires --n >= 2")
        _require(config.n > config.k, "gen requires n > k")
        _require(config.output_path is not None, "gen requires --output (a file prefix)")
    if command in ("bench", "gen"):
        _require(0.0 < config.gamma < 1.0, "--gamma must lie in (0, 1)")
        _require(config.noise >= 0.0, "--noise must be nonnegative")
    if config.epsilon is not None:
        _require(0.0 < config.epsilon <= 1.0, "--epsilon must lie in (0, 1]")
    if config.delta is not None:
        _require(0.0 < config.delta <= 1.0, "--delta must lie in (0, 1]")


def run_cli(config: CliConfig) -> int:
    """Validate and execute one CLI invocation; returns the exit code."""
    _validate(config)
    return _HANDLERS[config.command](config)


def _parse_seed(text: str | None) -> RngSeed:
    if text is None:
        text = os.environ.get(ENV_SEED)
    if text is None:
        return RngSeed(0)
    try:
        return RngSeed(int(text))
    except (TypeError, ValueError):
        raise UsageError(f"seed must be a nonnegative 64-bit integer, got {text!r}") from None


def _parse_lambdas(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--lambda must be a comma-separated list of reals, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise UsageError("--lambda values must be finite")
    return values


def _parse_n_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--n-values must be a comma-separated list of integers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trunclsq",
        description="Truncated-SVD least squares: exact, randomized, and certified.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_args(sp: argparse.ArgumentParser, with_rank: bool = True) -> None:
        sp.add_argument("matrix", help="Matrix Market file holding A")
        sp.add_argument("rhs", help="Matrix Market single-column file holding b")
        if with_rank:
            sp.add_argument("--k", type=int, required=True, help="truncation level")
        sp.add_argument("--output", help="write the solution vector to this file")

    sp = sub.add_parser("solve", help="randomized truncated solve")
    add_solver_args(sp)
    sp.add_argument("--p", type=int, help="power-iteration depth")
    sp.add_argument("--epsilon", type=float, help="accuracy target used to pick p")
    sp.add_argument("--delta", type=float, help="failure-probability target used to pick p")
    sp.add_argument("--seed", help="sketch seed (fallback: env TRUNCLSQ_SEED, then 0)")

    sp = sub.add_parser("exact", help="exact truncated solve")
    add_solver_args(sp)

    sp = sub.add_parser("tikhonov", help="regularized solve with damping factors")
    add_solver_args(sp, with_rank=False)
    sp.add_argument(
        "--lambda",
        dest="lambdas",
        help="damping factors: comma-separated list, or one value broadcast to all",
    )

    sp = sub.add_parser("certify", help="run the deterministic bound certificates")
    sp.add_argument("--trials", type=int, default=100, help="instances per certificate suite")
    sp.add_argument("--seed", help="base seed for instance generation")

    sp = sub.add_parser("bench", help="accuracy/timing sweep to CSV")
    sp.add_argument("--n-values", default="100,200,300,400,500", help="comma-separated sizes")
    sp.add_argument("--k", type=int, required=True, help="truncation level")
    sp.add_argument("--gamma", type=float, default=0.99, help="spectral gap of each instance")
    sp.add_argument("--noise", type=float, default=0.2, help="rhs noise coefficient")
    sp.add_argument("--seeds-per-n", type=int, default=20, help="trials per size")
    sp.add_argument("--seed", help="base seed for the sweep")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers")
    sp.add_argument("--output", help="CSV path (default: standard output)")

    sp = sub.add_parser("gen", help="write a synthetic problem to files")
    sp.add_argument("--n", type=int, required=True, help="problem size")
    sp.add_argument("--k", type=int, required=True, help="truncation level")
    sp.add_argument("--gamma", type=float, default=0.99, help="spectral gap")
    sp.add_argument("--noise", type=float, default=0.2, help="rhs noise coefficient")
    sp.add_argument("--seed", help="generator seed")
    sp.add_argument("--output", required=True, help="file prefix for _A.mtx and _b.mtx")
    return parser


def parse_args(argv=None) -> CliConfig:
    """Parse an argv list into a validated :class:`CliConfig`."""
    namespace = _build_parser().parse_args(argv)
    get = lambda name, default=None: getattr(namespace, name, default)  # noqa: E731
    config = CliConfig(
        command=namespace.command,
        matrix_path=get("matrix"),
        rhs_path=get("rhs"),
        k=get("k"),
        p=get("p"),
        epsilon=get("epsilon"),
        delta=get("delta"),
        seed=_parse_seed(get("seed")),
        output_path=get("output"),
        lambdas=_parse_lambdas(get("lambdas")),
        trials=get("trials", 100),
        jobs=get("jobs", 1),
        n=get("n"),
        n_values=_parse_n_values(get("n_values", "100,200,300,400,500")),
        seeds_per_n=get("seeds_per_n", 20),
        gamma=get("gamma", 0.99),
        noise=get("noise", 0.2),
    )
    return config


def main(argv=None) -> int:
    """Console entry point: parse, run, map failures to exit codes."""
    try:
        config = parse_args(argv)
        return run_cli(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncLsqError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
