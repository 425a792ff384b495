"""Nonlinear minimization of the mesh objective.

Newton directions solve H p = -grad with MINRES (Paige and Saunders,
"Solution of sparse indefinite systems of linear equations", SIAM J.
Numer. Anal. 12, 1975) and a Jacobi preconditioner on |diag H|.  MINRES
stops where it detects nonpositive curvature and returns its previous
iterate, which descends (Liu and Roosta, "MINRES: from negative
curvature detection to monotonicity properties", SIAM J. Optim. 32,
2022).  Every step passes through a backtracking line search that
accepts the largest step in {1, 1/2, 1/4, ...} keeping det A positive at
all quadrature points and strictly decreasing F.  Convergence is declared on
|grad F(x)| <= eps_abs or |grad F(x)| / |grad F(x0)| <= eps.
"""

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (
    InvalidMeshError,
    NonfiniteObjectiveError,
    NonpositiveDeterminantError,
    TransferFailureError,
)
from .mesh import is_valid
from .objective import gradient, hessian, value

NEGATIVE_CURVATURE = -1  # minres info: stopped at nonpositive curvature


@dataclass
class SolverConfig:
    """Settings of solve: the convergence tolerance eps and the iteration
    cap, at least 1.  The other attributes are class constants, the same
    for every solve.

    minres_tol is the rtol of minres: MINRES stops once |r| / (|A| |x|)
    <= minres_tol (its test1, or |A r| / (|A| |r|) <= minres_tol, test2),
    with the norms estimated from its recurrences.  It does not bound
    |r| / |b|: the history's minres_residual column is |r| / |b|, both in
    the M^-1 norm of the Jacobi preconditioner M = |diag H|, and can
    exceed minres_tol.
    """

    eps: float = 1e-6
    max_iterations: int = 100

    eps_abs: ClassVar[float] = 1e-12  # |grad F| <= eps_abs converges, also at x0
    minres_tol: ClassVar[float] = 1e-8
    minres_max_iterations: ClassVar[int] = 500
    backtrack_factor: ClassVar[float] = 0.5
    max_halvings: ClassVar[int] = 20

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolveReport:
    """Per-iteration history and termination status.

    history rows: (iter, F, F_mu, F_sigma, grad_norm, step, min_det,
    direction, minres_iterations, minres_info, halvings,
    minres_residual).  direction is the kind of the accepted step
    ("newton", "newton-npc" or "steepest", see NewtonStep; "none" in
    row 0); the MINRES columns describe that iteration's Newton solve
    (0 when none ran; minres_info is 0, the iteration cap or
    NEGATIVE_CURVATURE; minres_residual is |r| / |b| in the M^-1 norm,
    see SolverConfig);
    halvings counts the step halvings of all its line searches, so a
    steepest-descent retry after the first direction exhausted its budget
    shows more than max_halvings.
    """

    iterations: int = 0
    reason: str = ""
    history: list = field(default_factory=list)
    wall_time: float = 0.0

    def history_csv(self):
        lines = [
            "iter,F,Fmu,Fsigma,gradnorm,step,mindet,"
            "direction,minres_iterations,minres_info,halvings,minres_residual"
        ]
        for row in self.history:
            lines.append(
                "{:d},{:.16e},{:.16e},{:.16e},{:.16e},{:.16e},{:.16e},"
                "{:s},{:d},{:d},{:d},{:.16e}".format(*row)
            )
        return "\n".join(lines) + "\n"


class NewtonStep(NamedTuple):
    """A search direction and how it was found.

    kind is "newton" for the MINRES solution, "newton-npc" for the
    iterate before MINRES met nonpositive curvature (minres_info
    NEGATIVE_CURVATURE) and "steepest" for -grad; minres_residual is
    MINRES's final estimate of its relative residual in the norm of the
    Jacobi preconditioner on |diag H|.  np.asarray(step) is the
    direction, so code comparing the result of newton_step with -grad
    (perfbench/tracing.py) sees the fallback.
    """

    direction: np.ndarray
    kind: str
    minres_iterations: int
    minres_info: int
    minres_residual: float

    def __array__(self, dtype=None, copy=None):
        return np.array(self.direction, dtype=dtype, copy=copy)


def newton_step(hess, grad, config=SolverConfig()):
    """Approximate solution of H p = -grad, guaranteed descent.

    hess needs only hess @ v and hess.diagonal(): an
    objective.ElementHessian or a dense array.  MINRES with a Jacobi
    preconditioner on |diag H| (1 where the diagonal is 0).  Falls back to
    steepest descent when MINRES hits its iteration cap or returns a
    non-descent direction.  Returns a NewtonStep.
    """
    diag = np.abs(hess.diagonal())
    diag = np.where(diag > 0.0, diag, 1.0)
    p, info, iterations, residual = minres(
        hess, -grad, diag, config.minres_tol, config.minres_max_iterations
    )
    descent = info in (0, NEGATIVE_CURVATURE) and np.all(np.isfinite(p))
    if not (descent and p @ grad < 0.0):
        return NewtonStep(-grad, "steepest", iterations, info, residual)
    kind = "newton-npc" if info == NEGATIVE_CURVATURE else "newton"
    return NewtonStep(p, kind, iterations, info, residual)


class MinresResult(NamedTuple):
    x: np.ndarray
    info: int  # 0, maxiter when the iteration cap stopped, or NEGATIVE_CURVATURE
    iterations: int
    residual: float  # estimate of |b - A x| / |b|, both in the M^-1 norm


def minres(a, b, diag, rtol, maxiter):
    """MINRES for symmetric a x = b from x = 0, preconditioned by the
    positive diagonal M = diag(diag) (each step solves with M).

    A line-by-line port of the SOL MATLAB minres without shift: the same
    Lanczos and QR recurrences, and the same stopping tests on
    |r| / (|A| |x|), |A r| / (|A| |r|), cond(A), |A| |x| eps and the
    iteration cap, with the norms estimated from the recurrences.  a
    needs only a @ v.

    One test is added: iteration k stops with info NEGATIVE_CURVATURE
    when c_(k-1) gamma_k^(1) = cs * gbar >= 0, the nonpositive-curvature
    test of Liu and Roosta (2022), and returns x_(k-1), or M^-1 b at
    k = 1, where x_0 = 0.  The residual then is that of x_(k-1) (1 at
    k = 1).
    """
    eps = np.finfo(float).eps
    x = np.zeros(len(b))
    r1 = b.copy()
    y = r1 / diag
    beta1 = r1 @ y
    if beta1 == 0.0:
        return MinresResult(x, 0, 0, 0.0)
    beta1 = math.sqrt(beta1)

    oldb = dbar = epsln = 0.0
    phibar = beta = beta1
    rhs1, rhs2, tnorm2 = beta1, 0.0, 0.0
    gmax, gmin = 0.0, np.finfo(float).max
    cs, sn = -1.0, 0.0
    w = np.zeros(len(b))
    w2 = np.zeros(len(b))
    r2 = r1
    istop = itn = 0
    while itn < maxiter:
        itn += 1
        v = (1.0 / beta) * y
        y = a @ v
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = v @ y
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = r2 / diag
        oldb, beta = beta, math.sqrt(r2 @ y)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # b is an eigenvector: terminate below

        # Apply the previous rotation, then compute the next one.
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        if cs * gbar >= 0.0:
            x = x if itn > 1 else b / diag
            return MinresResult(x, NEGATIVE_CURVATURE, itn, phibar / beta1)
        epsln = sn * beta
        dbar = -cs * beta
        root = math.hypot(gbar, dbar)
        gamma = max(math.hypot(gbar, beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w

        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        z = rhs1 / gamma
        rhs1, rhs2 = rhs2 - delta * z, -epsln * z

        anorm = math.sqrt(tnorm2)
        ynorm = math.sqrt(x @ x)
        test1 = math.inf if ynorm == 0 or anorm == 0 else phibar / (anorm * ynorm)
        test2 = math.inf if anorm == 0 else root / anorm
        if istop == 0:
            if 1 + test2 <= 1:
                istop = 2
            if 1 + test1 <= 1:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if gmax / gmin >= 0.1 / eps:
                istop = 4
            if anorm * ynorm * eps >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
        if istop != 0:
            break
    return MinresResult(x, maxiter if istop == 6 else 0, itn, phibar / beta1)


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

    One Hessian is alive at a time: each iteration's Hessian lives only
    for its newton_step call and is freed when the step returns, so the
    solve's peak memory holds one set of element blocks, not two.
    """
    t_start = time.perf_counter()
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
        raise NonfiniteObjectiveError("objective or gradient is not finite at the start")
    grad_norm0 = float(np.linalg.norm(grad))
    report.history.append(
        (0, f, f_mu, f_sigma, grad_norm0, 0.0, min_det, "none", 0, 0, 0, 0.0)
    )
    for it in range(1, config.max_iterations + 1):
        grad_norm = float(np.linalg.norm(grad))
        # The absolute test comes first: it also covers grad_norm0 = 0.
        if grad_norm <= config.eps_abs or grad_norm / grad_norm0 <= config.eps:
            report.reason = "converged"
            break

        # No name holds the Hessian: its blocks are freed when newton_step
        # returns, before the next iterate's hessian allocates its own.
        p, kind, minres_iterations, minres_info, minres_residual = newton_step(
            hessian(objective_config, mesh, x), grad, config
        )

        f_current = f
        alpha, f_trial, trial, halvings = line_search(
            objective_fn, validity_fn, x, p, f_current, grad, config
        )
        if alpha is None and p @ grad < 0.0 and not np.array_equal(p, -grad):
            # The Newton direction exhausted the backtracking budget;
            # steepest descent still has untried scales.
            kind = "steepest"
            alpha, f_trial, trial, more = line_search(
                objective_fn, validity_fn, x, -grad, f_current, grad, config
            )
            halvings += more
        if alpha is None:
            report.reason = "line-search-failure"
            break

        x = trial
        f, f_mu, f_sigma = last["f"]
        min_det = last["min_det"]
        grad = gradient(objective_config, mesh, x)
        report.iterations = it
        report.history.append(
            (it, f, f_mu, f_sigma, float(np.linalg.norm(grad)), alpha, min_det,
             kind, minres_iterations, minres_info, halvings, minres_residual)
        )
    else:
        report.reason = "max-iter"

    report.wall_time = time.perf_counter() - t_start
    return x, report

