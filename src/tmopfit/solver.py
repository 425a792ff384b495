"""Nonlinear minimization of the mesh objective.

Newton directions solve H p = -grad with MINRES and an l1-Jacobi
preconditioner; an L-BFGS two-loop alternative is available.  Every
step passes through a backtracking line search that accepts the largest
step in {1, 1/2, 1/4, ...} keeping det A positive at all quadrature
points and strictly decreasing F.  Convergence is declared on
|grad F(x)| / |grad F(x0)| <= eps.
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (
    InvalidMeshError,
    NonpositiveDeterminantError,
    TransferFailureError,
)
from .mesh import is_valid
from .objective import gradient, hessian, value


@dataclass
class SolverConfig:
    method: str = "newton"  # or "lbfgs"
    eps: float = 1e-6
    eps_abs: float = 1e-12  # numerical-zero floor for |grad F(x0)| = 0
    max_iterations: int = 100
    minres_tol: float = 1e-8
    minres_max_iterations: int = 500
    lbfgs_memory: int = 10
    backtrack_factor: float = 0.5
    max_halvings: int = 20

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack factor must be in (0, 1)")


@dataclass
class SolveReport:
    """Per-iteration history and termination status.

    history rows: (iter, F, F_mu, F_sigma, grad_norm, step, min_det,
    direction, minres_iterations, minres_info, halvings).  direction is
    the kind of the accepted step ("newton", "lbfgs" or "steepest";
    "none" in row 0); the MINRES columns describe that iteration's Newton
    solve (0 when none ran); halvings counts the step halvings of all its
    line searches, so a steepest-descent retry after the first direction
    exhausted its budget shows more than max_halvings.
    """

    iterations: int = 0
    reason: str = ""
    history: list = field(default_factory=list)
    wall_time: float = 0.0

    def history_csv(self):
        lines = [
            "iter,F,Fmu,Fsigma,gradnorm,step,mindet,"
            "direction,minres_iterations,minres_info,halvings"
        ]
        for row in self.history:
            lines.append(
                "{:d},{:.16e},{:.16e},{:.16e},{:.16e},{:.16e},{:.16e},"
                "{:s},{:d},{:d},{:d}".format(*row)
            )
        return "\n".join(lines) + "\n"


class NewtonStep(NamedTuple):
    """A search direction and how it was found.

    kind is "newton" for the MINRES solution and "steepest" for -grad.
    np.asarray(step) is the direction, so code comparing the result of
    newton_step with -grad (perfbench/tracing.py) sees the fallback.
    """

    direction: np.ndarray
    kind: str
    minres_iterations: int
    minres_info: int

    def __array__(self, dtype=None, copy=None):
        return np.array(self.direction, dtype=dtype, copy=copy)


def newton_step(hess, grad, config=SolverConfig()):
    """Approximate solution of H p = -grad, guaranteed descent.

    MINRES with an l1-Jacobi preconditioner (diagonal of row-wise
    absolute sums).  Falls back to steepest descent when MINRES stalls
    or returns a non-descent direction.  Returns a NewtonStep.
    """
    row_l1 = abs(hess) @ np.ones(hess.shape[1])
    row_l1 = np.where(row_l1 > 0.0, row_l1, 1.0)
    precond = spla.LinearOperator(
        hess.shape, matvec=lambda v: v / row_l1, dtype=float
    )
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    p, info = spla.minres(
        hess,
        -grad,
        rtol=config.minres_tol,
        maxiter=config.minres_max_iterations,
        M=precond,
        callback=count,
    )
    if info != 0 or not np.all(np.isfinite(p)) or p @ grad >= 0.0:
        return NewtonStep(-grad, "steepest", iterations, info)
    return NewtonStep(p, "newton", iterations, info)


def line_search(
    objective_fn, validity_fn, node_field, direction, f_current, grad, config
):
    """Largest backtracked step keeping the mesh valid and decreasing F.

    Returns (alpha, f_trial, trial_node_field, halvings), or
    (None, None, None, max_halvings + 1) when every step fails.
    """
    if not np.any(direction):
        raise ValueError("zero direction is not a descent direction")
    if grad is not None and direction @ grad >= 0.0:
        raise ValueError("direction is not a descent direction")
    alpha = 1.0
    for halvings in range(config.max_halvings + 1):
        trial = node_field.copy()
        trial.coords = node_field.coords + alpha * direction
        if validity_fn(trial):
            f_trial = objective_fn(trial)
            if f_trial is not None and f_trial < f_current:
                return alpha, f_trial, trial, halvings
        alpha *= config.backtrack_factor
    return None, None, None, config.max_halvings + 1


def solve(config, objective_config, mesh, node_field):
    """Minimize F starting from node_field; returns (nodes, SolveReport).

    The initial mesh must be valid.  On line-search failure the best
    accepted iterate is returned with the corresponding reason.
    """
    t_start = time.time()
    x = node_field.copy()

    valid, min_det = is_valid(mesh, x)
    if not valid:
        raise InvalidMeshError(f"initial mesh invalid (min det A = {min_det:.3e})")

    # The line search evaluates validity and then F on each trial, so
    # after it returns these hold (F, F_mu, F_sigma) and min det A of the
    # accepted trial.
    last = {}

    def objective_fn(trial):
        # Only a failed evaluation of a valid-looking trial mesh rejects
        # the step; any other exception is a bug and propagates.
        try:
            last["f"] = value(objective_config, mesh, trial)
        except (NonpositiveDeterminantError, TransferFailureError):
            return None
        return last["f"][0]

    def validity_fn(trial):
        ok, last["min_det"] = is_valid(mesh, trial)
        return ok

    report = SolveReport()
    f, f_mu, f_sigma = value(objective_config, mesh, x)
    grad = gradient(objective_config, mesh, x)
    if not (np.isfinite(f) and np.all(np.isfinite(grad))):
        raise ValueError("objective or gradient is not finite at the start")
    grad_norm0 = float(np.linalg.norm(grad))
    report.history.append(
        (0, f, f_mu, f_sigma, grad_norm0, 0.0, min_det, "none", 0, 0, 0)
    )
    if grad_norm0 <= config.eps_abs:
        report.reason = "converged"
        report.wall_time = time.time() - t_start
        return x, report

    lbfgs_s, lbfgs_y = [], []
    prev_x, prev_grad = None, None

    for it in range(1, config.max_iterations + 1):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm / grad_norm0 <= config.eps or grad_norm <= config.eps_abs:
            report.reason = "converged"
            break

        minres_iterations = minres_info = 0
        if config.method == "newton":
            h = hessian(objective_config, mesh, x)
            p, kind, minres_iterations, minres_info = newton_step(h, grad, config)
        elif config.method == "lbfgs":
            if prev_x is not None:
                s = x.coords - prev_x
                yv = grad - prev_grad
                if s @ yv > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
                    lbfgs_s.append(s)
                    lbfgs_y.append(yv)
                    if len(lbfgs_s) > config.lbfgs_memory:
                        lbfgs_s.pop(0)
                        lbfgs_y.pop(0)
            p, kind = _lbfgs_direction(grad, lbfgs_s, lbfgs_y), "lbfgs"
            if p @ grad >= 0.0:
                p, kind = -grad, "steepest"
        else:
            raise ValueError(f"unknown method {config.method!r}")

        f_current = f
        alpha, f_trial, trial, halvings = line_search(
            objective_fn, validity_fn, x, p, f_current, grad, config
        )
        if alpha is None and p @ grad < 0.0 and not np.array_equal(p, -grad):
            # Newton/L-BFGS direction exhausted the backtracking budget;
            # steepest descent still has untried scales.
            kind = "steepest"
            alpha, f_trial, trial, more = line_search(
                objective_fn, validity_fn, x, -grad, f_current, grad, config
            )
            halvings += more
        if alpha is None:
            report.reason = "line-search-failure"
            break

        prev_x, prev_grad = x.coords.copy(), grad
        x = trial
        f, f_mu, f_sigma = last["f"]
        min_det = last["min_det"]
        grad = gradient(objective_config, mesh, x)
        report.iterations = it
        report.history.append(
            (it, f, f_mu, f_sigma, float(np.linalg.norm(grad)), alpha, min_det,
             kind, minres_iterations, minres_info, halvings)
        )
    else:
        report.reason = "max-iter"

    if not report.reason:
        report.reason = "max-iter"
    report.wall_time = time.time() - t_start
    return x, report


def _lbfgs_direction(grad, s_list, y_list):
    """Two-loop recursion; initial scaling from the latest pair."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        rho = 1.0 / (y @ s)
        a = rho * (s @ q)
        alphas.append((a, rho, s, y))
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= (s @ y) / (y @ y)
    for a, rho, s, y in reversed(alphas):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q
