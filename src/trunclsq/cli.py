"""Command-line front end.

Subcommands::

    solve     randomized truncated solve of min ||A x - b|| at level k
    exact     exact truncated solve via the thin SVD
    tikhonov  regularized solve with per-component damping factors
    certify   run the deterministic bound certificates on random instances
    bench     accuracy/timing sweep, emitted as CSV
    gen       write a synthetic benchmark problem to Matrix Market files

``solve --p`` runs that many power passes (:func:`approx_truncated_solve`).
``solve --epsilon --delta`` runs :func:`adaptive_truncated_solve` instead: it
re-solves at depths 0, 8, 16, 32, ... and stops once the solution has
settled to the ``(epsilon, 4/3 epsilon)`` target, or at the depth
:func:`trunclsq.bounds.choose_power_depth` gives for ``(epsilon, delta)`` on
the current Ritz values, and the printed ``p`` is the number of passes it
ran.

Argparse routes each subcommand to its handler, and the handler's usage
checks come first, before any file is read or written.  Matrices and vectors
travel as Matrix Market files (vectors are single-column ``array`` files).
Exit codes: 0 success, 1 operation error, 2 usage error.  On the subcommands
that take ``--seed`` (``solve``, ``certify``, ``bench``, ``gen``) it falls
back to the ``TRUNCLSQ_SEED`` environment variable, then to 0; the others
never read that variable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .bench import derive_row_seed, run_experiment, synthetic_problem
from .bounds import (
    CERTIFICATE_TOLERANCE,
    error_chain,
    lower_bound_instance,
    subspace_capture_bound,
)
from .errors import TruncLsqError
from .linalg import solve_factored
from .mmio import load_matrix, load_vector, save_matrix, save_vector
from .regression import (
    SolveOutcome,
    adaptive_truncated_solve,
    approx_truncated_solve,
    exact_truncated_solve,
    tikhonov_solve,
)
from .sketch import RngSeed, gaussian_matrix, gaussian_vector
from .subspace import approx_truncated_svd

__all__ = ["UsageError", "main"]

ENV_SEED = "TRUNCLSQ_SEED"


class UsageError(ValueError):
    """Invalid command line (maps to exit code 2)."""


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_seed(seed: RngSeed) -> str:
    return str(seed.seed) if seed.stream == 0 else f"{seed.seed}/{seed.stream}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _emit_outcome(outcome: SolveOutcome, args: argparse.Namespace) -> None:
    """Print the solution (or save it to --output) plus the summary lines."""
    if args.output is not None:
        save_vector(outcome.x, args.output)
        print(f"solution written to {args.output}")
    else:
        for value in outcome.x:
            print(_fmt(value))
    print(f"residual_norm = {_fmt(outcome.residual_norm)}")
    print(f"rhs_norm = {_fmt(outcome.rhs_norm)}")
    if outcome.k is not None:
        print(f"k = {outcome.k}")
    if outcome.p is not None:  # a sketched solve: it ran p passes on a seeded sketch
        print(f"p = {outcome.p}")
        print(f"seed = {_fmt_seed(args.seed)}")


def _cmd_solve(args: argparse.Namespace) -> int:
    _require(args.k >= 1, "solve requires --k >= 1")
    _require(
        args.p is not None or (args.epsilon is not None and args.delta is not None),
        "solve requires --p, or both --epsilon and --delta to pick it",
    )
    _require(args.p is None or args.p >= 0, "--p must be nonnegative")
    _require(args.epsilon is None or 0.0 < args.epsilon <= 1.0, "--epsilon must lie in (0, 1]")
    _require(args.delta is None or 0.0 < args.delta <= 1.0, "--delta must lie in (0, 1]")
    A = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    if args.p is None:
        outcome = adaptive_truncated_solve(
            A, b, args.k, args.epsilon, args.delta, args.seed
        )
    else:
        outcome = approx_truncated_solve(A, b, args.k, args.p, args.seed)
    _emit_outcome(outcome, args)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    _require(args.k >= 1, "exact requires --k >= 1")
    A = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    outcome = exact_truncated_solve(A, b, args.k)
    _emit_outcome(outcome, args)
    return 0


def _cmd_tikhonov(args: argparse.Namespace) -> int:
    _require(
        args.lambdas is not None,
        "tikhonov requires --lambda (a scalar or comma-separated list)",
    )
    _require(all(v >= 0.0 for v in args.lambdas), "--lambda values must be nonnegative")
    A = load_matrix(args.matrix)
    b = load_vector(args.rhs)
    outcome = tikhonov_solve(A, b, args.lambdas)
    _emit_outcome(outcome, args)
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


def _capture_trial(trial: int, m: int, n: int, k: int, p: int, seed: int) -> list[str]:
    A = gaussian_matrix(m, n, RngSeed(seed, 0))
    S = gaussian_matrix(n, k, RngSeed(seed, 1))
    report = subspace_capture_bound(A, S, k, p)
    if report.satisfied:
        return []
    return [
        f"capture-bound trial {trial}: measured {report.measured!r} "
        f"> bound {report.bound!r} + tol"
    ]


def _chain_trial(trial: int, m: int, n: int, k: int, p: int, seed: int) -> list[str]:
    A = gaussian_matrix(m, n, RngSeed(seed, 0))
    b = gaussian_vector(m, RngSeed(seed, 1))
    reports = error_chain(A, b, k, p, RngSeed(seed, 2))
    return [
        f"error-chain trial {trial} [{r.label}]: measured "
        f"{r.measured!r} > bound {r.bound!r} + tol"
        for r in reports
        if not r.satisfied
    ]


def _separation_trial(trial: int, m: int, n: int, k: int, p: int, seed: int) -> list[str]:
    A = gaussian_matrix(m, n, RngSeed(seed, 0))
    approx = approx_truncated_svd(A, k, p, RngSeed(seed, 3))
    instance = lower_bound_instance(A, approx, k)
    b = instance.b
    rhs_norm = float(np.linalg.norm(b))
    exact_residual = exact_truncated_solve(A, b, k).residual_norm
    x_approx = solve_factored(approx, b)
    approx_residual = float(np.linalg.norm(A @ x_approx - b))
    slack = CERTIFICATE_TOLERANCE * rhs_norm
    if (
        exact_residual <= slack
        and approx_residual >= instance.epsilon_star * rhs_norm - slack
    ):
        return []
    return [
        f"adversarial-separation trial {trial}: exact residual "
        f"{exact_residual!r}, approx residual {approx_residual!r}, "
        f"separation {instance.epsilon_star!r}, rhs norm {rhs_norm!r}"
    ]


# One (name, trial function) pair per certificate suite.  The suite number
# (1, 2, 3) seeds the instances, so this order is part of the output.  A trial
# function takes (trial, m, n, k, p, seed) and returns its failure lines, an
# empty list when the trial is satisfied.
_CERTIFY_SUITES = (
    ("capture-bound", _capture_trial),
    ("error-chain", _chain_trial),
    ("adversarial-separation", _separation_trial),
)


def _cmd_certify(args: argparse.Namespace) -> int:
    _require(args.trials >= 1, "--trials must be positive")
    failures: list[str] = []
    for suite, (name, run_trial) in enumerate(_CERTIFY_SUITES, start=1):
        passed = 0
        for trial in range(args.trials):
            lines = run_trial(trial, *_certify_dims(args.seed, suite, trial))
            if lines:
                failures.extend(lines)
            else:
                passed += 1
        print(f"{name}: {passed}/{args.trials} satisfied")

    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        print("certification FAILED")
        return 1
    print("all certificates passed")
    return 0


def _require_sweep(args: argparse.Namespace, command: str, *checks: tuple[bool, str]) -> None:
    """Usage checks of ``bench`` and ``gen``, in order: ``--k``, the command's
    own ``(condition, message)`` checks, then ``--gamma`` and ``--noise``."""
    _require(args.k >= 1, f"{command} requires --k >= 1")
    for condition, message in checks:
        _require(condition, message)
    _require(0.0 < args.gamma < 1.0, "--gamma must lie in (0, 1)")
    _require(args.noise >= 0.0, "--noise must be nonnegative")


def _cmd_bench(args: argparse.Namespace) -> int:
    _require_sweep(
        args,
        "bench",
        (all(n > args.k for n in args.n_values), f"every n must exceed k={args.k}"),
        (args.seeds_per_n >= 1, "--seeds-per-n must be positive"),
    )
    report = run_experiment(
        list(args.n_values),
        args.k,
        gamma_target=args.gamma,
        seeds_per_n=args.seeds_per_n,
        base_seed=args.seed,
        noise=args.noise,
    )
    failed = sum(1 for row in report.rows if row.error is not None)
    if args.output is not None:
        report.write_csv(args.output)
        print(f"{len(report.rows)} rows written to {args.output}")
    else:
        sys.stdout.write(report.to_csv())
    if failed:
        print(f"warning: {failed} rows failed", file=sys.stderr)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    _require_sweep(
        args,
        "gen",
        (args.n >= 2, "gen requires --n >= 2"),
        (args.n > args.k, "gen requires n > k"),
    )
    problem = synthetic_problem(args.n, args.k, args.gamma, args.noise, args.seed)
    matrix_path = f"{args.output}_A.mtx"
    rhs_path = f"{args.output}_b.mtx"
    save_matrix(problem.A, matrix_path)
    save_vector(problem.b, rhs_path)
    print(f"matrix written to {matrix_path}")
    print(f"rhs written to {rhs_path}")
    print(f"n = {args.n}")
    print(f"k = {args.k}")
    print(f"gamma_k = {_fmt(problem.gap_profile.gamma_k)}")
    print(f"seed = {_fmt_seed(args.seed)}")
    return 0


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
    sp.set_defaults(run=_cmd_solve)
    add_solver_args(sp)
    sp.add_argument("--p", type=int, help="power-iteration depth")
    sp.add_argument(
        "--epsilon", type=float,
        help="accuracy target: without --p, iterate to depths 0, 8, 16, 32, ... until x settles to it"
    )
    sp.add_argument(
        "--delta", type=float, help="failure-probability target of the worst-case depth cap"
    )
    sp.add_argument("--seed", help="sketch seed (fallback: env TRUNCLSQ_SEED, then 0)")

    sp = sub.add_parser("exact", help="exact truncated solve")
    sp.set_defaults(run=_cmd_exact)
    add_solver_args(sp)

    sp = sub.add_parser("tikhonov", help="regularized solve with damping factors")
    sp.set_defaults(run=_cmd_tikhonov)
    add_solver_args(sp, with_rank=False)
    sp.add_argument(
        "--lambda",
        dest="lambdas",
        help="damping factors: comma-separated list, or one value broadcast to all",
    )

    sp = sub.add_parser("certify", help="run the deterministic bound certificates")
    sp.set_defaults(run=_cmd_certify)
    sp.add_argument("--trials", type=int, default=100, help="instances per certificate suite")
    sp.add_argument("--seed", help="base seed for instance generation")

    sp = sub.add_parser("bench", help="accuracy/timing sweep to CSV")
    sp.set_defaults(run=_cmd_bench)
    sp.add_argument("--n-values", default="100,200,300,400,500", help="comma-separated sizes")
    sp.add_argument("--k", type=int, required=True, help="truncation level")
    sp.add_argument("--gamma", type=float, default=0.99, help="spectral gap of each instance")
    sp.add_argument("--noise", type=float, default=0.2, help="rhs noise coefficient")
    sp.add_argument("--seeds-per-n", type=int, default=20, help="trials per size")
    sp.add_argument("--seed", help="base seed for the sweep")
    sp.add_argument("--output", help="CSV path (default: standard output)")

    sp = sub.add_parser("gen", help="write a synthetic problem to files")
    sp.set_defaults(run=_cmd_gen)
    sp.add_argument("--n", type=int, required=True, help="problem size")
    sp.add_argument("--k", type=int, required=True, help="truncation level")
    sp.add_argument("--gamma", type=float, default=0.99, help="spectral gap")
    sp.add_argument("--noise", type=float, default=0.2, help="rhs noise coefficient")
    sp.add_argument("--seed", help="generator seed")
    sp.add_argument("--output", required=True, help="file prefix for _A.mtx and _b.mtx")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse an argv list; ``seed``, ``lambdas`` and ``n_values`` come back
    converted, on the subcommands that take them."""
    args = _build_parser().parse_args(argv)
    if hasattr(args, "seed"):
        args.seed = _parse_seed(args.seed)
    if hasattr(args, "lambdas"):
        args.lambdas = _parse_lambdas(args.lambdas)
    if hasattr(args, "n_values"):
        args.n_values = _parse_n_values(args.n_values)
    return args


def main(argv=None) -> int:
    """Console entry point: parse, run the handler, map failures to exit codes."""
    try:
        args = parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncLsqError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
