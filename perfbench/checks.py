"""Correctness checks on the package's outputs.

Each check returns ``None`` when the output is correct and a one-line reason
when it is not.  Accuracy of the randomized solver is measured (see
:func:`accuracy`) but never fails an operation.  The certificate checks also
say whether the reason is a wrong measured side (a wrong output) or an
inequality the package itself reports as not holding (a failed operation).
"""

from __future__ import annotations

import numpy as np

from inputs import CertificateInstance, Problem

# Largest relative distance accepted between the exact solver's x and the
# numpy reference.
EXACT_REL_TOL = 1e-8
# Slack, relative to ||b||, on the lower-bound residuals and on the
# separation it certifies.
LOWER_BOUND_TOL = 1e-8


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def solution_failure(x: np.ndarray, problem: Problem, exact: bool) -> str | None:
    """A solve fails on a non-finite x; an exact solve also fails when x is
    more than ``EXACT_REL_TOL`` away from the reference, relatively."""
    if not np.all(np.isfinite(x)):
        return "x has non-finite entries"
    if exact:
        gap = _rel(x, problem.x_ref)
        if gap > EXACT_REL_TOL:
            return f"exact x is {gap:.3e} away from the numpy reference (limit {EXACT_REL_TOL:g})"
    return None


def accuracy(x: np.ndarray, problem: Problem) -> tuple[float, float]:
    """``(objective_error, solution_error)`` against the reference:
    ``(||A x - b|| - ||A x_k - b||) / ||b||`` and ``||x - x_k|| / ||x_k||``."""
    residual = float(np.linalg.norm(problem.A @ x - problem.b))
    objective = (residual - problem.residual_ref) / float(np.linalg.norm(problem.b))
    return objective, _rel(x, problem.x_ref)


def stdout_failure(stdout: bytes, first_stdout: bytes) -> str | None:
    """A command's stdout must be byte-identical to its first run's."""
    if stdout != first_stdout:
        return "stdout differs from the first run of the same command"
    return None


def _measured_off(label: str, measured: float, reference: float, tol: float) -> str | None:
    if abs(measured - reference) > tol:
        return (f"{label}: measured side {measured!r} differs from the numpy value "
                f"{reference!r} by more than tol {tol:.3e}")
    return None


def capture_failure(report, inst: CertificateInstance, Q: np.ndarray) -> tuple[str | None, bool]:
    """Check a ``subspace_capture_bound`` report.

    ``Q`` is the basis the bound measured, rebuilt from the same sketch; the
    check measures ``sigma_k(V_k^T S) * ||(I - U_k U_k^T) Q||_2`` with
    ``numpy.linalg.norm(., 2)``.  Returns ``(reason, measured_mismatch)``.
    """
    if not report.satisfied:
        return f"capture bound unsatisfied: {report.measured!r} > {report.bound!r}", False
    ref, k = inst.problem.ref, inst.problem.k
    U_k = ref.U[:, :k]
    distance = min(float(np.linalg.norm(Q - U_k @ (U_k.T @ Q), 2)), 1.0)
    head = float(np.linalg.svd(ref.Vt[:k] @ inst.S, compute_uv=False)[-1])
    reason = _measured_off("capture", report.measured, head * distance, report.tol)
    return reason, reason is not None


def error_chain_failure(reports, inst: CertificateInstance, fact) -> tuple[str | None, bool]:
    """Check the three ``error_chain`` reports.

    ``fact`` is the sketched factorization the chain measured, rebuilt from
    the chain's own seed; each measured side is recomputed from it and the
    numpy reference.
    """
    unsatisfied = [r.label for r in reports if not r.satisfied]
    if unsatisfied:
        return f"error chain unsatisfied: {', '.join(unsatisfied)}", False
    problem, k = inst.problem, inst.problem.k
    x_sketch = fact.V @ ((fact.U.T @ problem.b) / fact.sigma)
    references = (
        float(np.linalg.norm(problem.A @ (x_sketch - problem.x_ref))),
        float(problem.ref.s[k - 1] - fact.sigma[-1]),
        float(np.linalg.norm((fact.U * fact.sigma) @ fact.V.T - problem.ref.block(k), 2)),
    )
    for report, reference in zip(reports, references):
        reason = _measured_off(report.label, report.measured, reference, report.tol)
        if reason is not None:
            return reason, True
    return None, False


def lower_bound_failure(result, inst: CertificateInstance) -> tuple[str | None, bool]:
    """Check a ``lower_bound_instance`` result.

    The certificate holds when the exact truncated residual on the returned b
    is zero and the approximation's residual is at least
    ``epsilon_star * ||b||``, both within ``LOWER_BOUND_TOL * ||b||``.  Its
    measured side, ``epsilon_star``, is recomputed as
    ``||(I - A_k A~^+) A_k||_2 / sigma_1``.
    """
    problem, k = inst.problem, inst.problem.k
    b = result.b
    slack = LOWER_BOUND_TOL * float(np.linalg.norm(b))
    exact_residual = float(np.linalg.norm(problem.A @ problem.ref.solve(b, k) - b))
    x_approx = inst.approx_V @ ((inst.approx_U.T @ b) / inst.approx_sigma)
    approx_residual = float(np.linalg.norm(problem.A @ x_approx - b))
    if exact_residual > slack or approx_residual < result.epsilon_star * np.linalg.norm(b) - slack:
        return (f"lower bound unsatisfied: exact residual {exact_residual!r}, approx residual "
                f"{approx_residual!r}, separation {result.epsilon_star!r}"), False
    A_k = problem.ref.block(k)
    pinv = (inst.approx_V / inst.approx_sigma) @ inst.approx_U.T
    separation = float(np.linalg.norm(A_k - A_k @ (pinv @ A_k), 2)) / float(problem.ref.s[0])
    reason = _measured_off("lower bound", result.epsilon_star, separation, LOWER_BOUND_TOL)
    return reason, reason is not None
