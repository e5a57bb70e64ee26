#!/usr/bin/env python3
"""Tour of the four solvers on one small ill-conditioned problem.

A 6x5 matrix with a rapidly decaying spectrum makes the point of truncation
visible: the plain least-squares solution is dominated by the tiny trailing
singular values, while truncating at k=2 (or damping with per-component
factors) keeps the solution short and the residual nearly as small.

Run:  python3 demos/solve_basics.py
"""

import numpy as np

from trunclsq import (
    exact_truncated_solve,
    full_ls_solve,
    gap_profile,
    tikhonov_solve,
)


def main() -> None:
    rng = np.random.default_rng(7)
    # Plant a spectrum that collapses after the second direction.
    U = np.linalg.qr(rng.standard_normal((6, 5)))[0]
    V = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    sigma = np.array([3.0, 2.0, 1e-4, 5e-5, 1e-5])
    A = (U * sigma) @ V.T
    # The right-hand side mixes a clean signal with noise.
    b = A @ rng.standard_normal(5) + 0.01 * rng.standard_normal(6)

    print("singular values:", np.array2string(sigma, precision=6))
    profile = gap_profile(A, 2)
    print(f"gap after k=2: sigma_3/sigma_2 = {profile.gamma_k:.2e}\n")

    full = full_ls_solve(A, b)
    truncated = exact_truncated_solve(A, b, 2)
    damped = tikhonov_solve(A, b, 1e-3)

    header = f"{'method':<18} {'residual':>12} {'||x||':>12}"
    print(header)
    print("-" * len(header))
    for outcome in (full, truncated, damped):
        print(
            f"{outcome.method:<18} {outcome.residual_norm:>12.6f} "
            f"{np.linalg.norm(outcome.x):>12.3f}"
        )

    print(
        "\nThe full solution buys a slightly smaller residual at the cost of a"
        "\nnorm thousands of times larger — the classic symptom of inverting"
        "\nnear-zero singular values.  Truncation and damping both avoid it."
    )


if __name__ == "__main__":
    main()
