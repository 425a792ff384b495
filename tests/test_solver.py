"""Newton/MINRES, line search, and the nonlinear solve loop."""

import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tmopfit.errors import NonfiniteObjectiveError, TmopFitError
from tmopfit.fields import AnalyticLevelSet
from tmopfit.fitting import MarkedSet, make_penalty
from tmopfit.mesh import NodeField, make_cartesian
from tmopfit.objective import ObjectiveConfig, boundary_fixed_mask, value
from tmopfit.quality import make_targets
from tmopfit.solver import (
    NEGATIVE_CURVATURE,
    SolverConfig,
    line_search,
    minres,
    newton_step,
    solve,
)


def test_newton_step_identity():
    g = np.array([1.0, -2.0, 3.0, 0.5])
    step = newton_step(np.eye(4), g)
    assert np.allclose(step.direction, -g, atol=1e-10)
    assert step.kind == "newton" and step.minres_info == 0
    assert step.minres_iterations >= 1
    assert 0.0 <= step.minres_residual <= SolverConfig().minres_tol


def test_newton_step_diagonal_system():
    d = np.array([1.0, 2.0, 4.0, 8.0])
    g = np.array([1.0, 2.0, 3.0, 4.0])
    p = newton_step(np.diag(d), g).direction
    assert np.allclose(p, -g / d, atol=1e-8)


def test_newton_step_indefinite_stops_at_negative_curvature():
    h = np.diag([-1.0, -2.0])  # the solution -H^-1 g would ascend
    g = np.array([1.0, 1.0])
    step = newton_step(h, g)
    # The first Lanczos vector has negative curvature: the step is the
    # preconditioned gradient -M^-1 g, M = |diag H|.
    assert np.array_equal(step.direction, [-1.0, -0.5])
    assert step.direction @ g < 0.0
    assert step.kind == "newton-npc"
    assert (step.minres_info, step.minres_iterations) == (NEGATIVE_CURVATURE, 1)
    assert not np.array_equal(step, -g)  # no fallback for perfbench/tracing.py


def test_newton_step_falls_back_to_steepest_descent_at_the_cap():
    class OneMinresIteration(SolverConfig):
        minres_max_iterations = 1

    g = np.array([1.0, 2.0, 3.0])
    step = newton_step(symmetric_system()[:3, :3], g, OneMinresIteration())
    assert step.kind == "steepest"
    assert (step.minres_info, step.minres_iterations) == (1, 1)
    # The step converts to its direction, so comparing it with -grad
    # (as perfbench/tracing.py does) detects the fallback.
    assert np.array_equal(step, -g)


def symmetric_system(seed=1, shift=8.0):
    a = sp.random(6, 6, density=0.5, random_state=seed).toarray() - 2.0 * np.eye(6)
    return a + a.T + shift * np.eye(6)


def test_newton_step_preconditions_with_abs_diagonal(monkeypatch):
    import tmopfit.solver as solver

    rng = np.random.default_rng(0)
    dense = symmetric_system()
    seen = {}

    def spy(hess, rhs, diag, rtol, maxiter):
        seen["diag"] = diag
        return minres(hess, rhs, diag, rtol, maxiter)

    monkeypatch.setattr(solver, "minres", spy)
    dense[0, 0] = -3.0  # the preconditioner takes |diag H|,
    dense[2, 2] = 0.0  # and 1 where the diagonal is 0
    newton_step(dense, rng.standard_normal(6))
    want = np.abs(dense.diagonal())
    want[2] = 1.0
    assert np.array_equal(seen["diag"], want)


# ---------------------------------------------------------------------------
# minres against scipy.sparse.linalg.minres with the same products A v and
# the same diagonal preconditioner (here the l1 row sums)


def scipy_minres(a, b, diag, rtol, maxiter):
    """(x, info, iterations) of scipy's minres on the same system."""
    count = []
    op = spla.LinearOperator(a.shape, matvec=lambda v: a @ v, dtype=float)
    precond = spla.LinearOperator(a.shape, matvec=lambda v: v / diag, dtype=float)
    x, info = spla.minres(
        op, b, rtol=rtol, maxiter=maxiter, M=precond, callback=count.append
    )
    return x, info, len(count)


def spectrum_system(n, seed, indefinite):
    """Symmetric n x n with eigenvalues of modulus 0.5..4, every third one
    negative when indefinite."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(0.5, 4.0, n)
    if indefinite:
        eig[::3] *= -1.0
    dense = (q * eig) @ q.T
    return 0.5 * (dense + dense.T)


def positive_curvature_rhs(dense, diag, coefficients):
    """b whose preconditioned Krylov space spans len(coefficients)
    eigenvectors of positive curvature, so MINRES meets no other."""
    scale = 1.0 / np.sqrt(diag)
    eig, vec = np.linalg.eigh(scale[:, None] * dense * scale[None, :])
    positive = np.flatnonzero(eig > 0.0)[: len(coefficients)]
    return vec[:, positive] @ coefficients / scale


# Inputs on which minres meets no negative curvature: scipy has no such stop.
@pytest.mark.parametrize(
    "name, dense, rtol, maxiter",
    [
        ("spd", spectrum_system(40, 2, indefinite=False), 1e-10, 500),
        ("indefinite", spectrum_system(40, 3, indefinite=True), 1e-8, 500),
        ("capped", spectrum_system(60, 4, indefinite=False), 1e-12, 7),
    ],
)
def test_minres_matches_scipy(name, dense, rtol, maxiter):
    b = np.random.default_rng(5).standard_normal(len(dense))
    diag = np.abs(dense).sum(axis=1)
    if name == "indefinite":
        b = positive_curvature_rhs(dense, diag, b[:6])
    x_want, info_want, its_want = scipy_minres(dense, b, diag, rtol, maxiter)
    got = minres(dense, b, diag, rtol, maxiter)
    assert (got.iterations, got.info) == (its_want, info_want)
    assert np.abs(got.x - x_want).max() <= 1e-12 * max(np.abs(x_want).max(), 1.0)
    if name == "capped":
        assert got.info == maxiter == got.iterations
        assert got.residual > rtol
    else:
        assert got.info == 0
        # The residual estimate is the true preconditioned relative residual.
        r = b - dense @ got.x
        true = np.sqrt(r @ (r / diag) / (b @ (b / diag)))
        assert got.residual == pytest.approx(true, rel=1e-3, abs=1e-14)


@pytest.mark.parametrize(
    "dense, b, diag, x_want, iterations",
    [
        # (M^-1 b)^T A M^-1 b = 1 - 4/3 < 0 at k = 1: M^-1 b is returned.
        (np.diag([1.0, -3.0]), np.array([1.0, 2.0]), np.array([1.0, 3.0]),
         [1.0, 2.0 / 3.0], 1),
        # b^T A b > 0, but T_2 has eigenvalues 2 and -1: the stop at k = 2
        # returns x_1 = (b^T A b / |A b|^2) b.
        (np.diag([2.0, -1.0]), np.array([1.0, 1.0]), np.ones(2), [0.2, 0.2], 2),
    ],
)
def test_minres_stops_at_negative_curvature(dense, b, diag, x_want, iterations):
    got = minres(dense, b, diag, 1e-12, 50)
    assert (got.info, got.iterations) == (NEGATIVE_CURVATURE, iterations)
    assert np.allclose(got.x, x_want, rtol=1e-15, atol=0.0)
    assert got.x @ b > 0.0  # a descent direction for grad = -b


def test_minres_negative_curvature_returns_the_previous_iterate():
    dense = spectrum_system(40, 3, indefinite=True)
    b = np.random.default_rng(5).standard_normal(len(dense))
    diag = np.abs(dense).sum(axis=1)
    got = minres(dense, b, diag, 1e-8, 500)
    assert got.info == NEGATIVE_CURVATURE and got.iterations >= 2
    x_want, info_want, its_want = scipy_minres(dense, b, diag, 1e-8, got.iterations - 1)
    assert its_want == info_want == got.iterations - 1
    assert np.abs(got.x - x_want).max() <= 1e-12 * np.abs(x_want).max()
    assert got.x @ b > 0.0


def test_minres_zero_rhs_matches_scipy():
    dense = symmetric_system()
    diag = np.abs(dense).sum(axis=1)
    x_want, info_want, its_want = scipy_minres(dense, np.zeros(6), diag, 1e-8, 50)
    got = minres(dense, np.zeros(6), diag, 1e-8, 50)
    assert (got.iterations, got.info, got.residual) == (its_want, info_want, 0.0)
    assert np.array_equal(got.x, x_want) and not np.any(got.x)


def quad_problem():
    mesh, nodes = make_cartesian(2, 4, 1, "quad")
    targets = make_targets(mesh, nodes, "ideal-shape-unit-size")
    cfg = ObjectiveConfig("mu2", targets, fixed_mask=boundary_fixed_mask(mesh))
    return mesh, nodes, cfg


def displaced_nodes(mesh, nodes, frac=0.3):
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    mat = nodes.as_matrix().copy()
    h = 0.25
    mat[interior[3], 0] += frac * h
    mat[interior[3], 1] -= 0.8 * frac * h
    return NodeField.from_matrix(mat)


def test_line_search_accepts_descent_step():
    mesh, nodes, cfg = quad_problem()
    start = displaced_nodes(mesh, nodes)
    from tmopfit.objective import gradient

    g = gradient(cfg, mesh, start)
    f0 = value(cfg, mesh, start)[0]
    scfg = SolverConfig()

    def objective_fn(trial):
        return value(cfg, mesh, trial)[0]

    def validity_fn(trial):
        from tmopfit.mesh import is_valid

        return is_valid(mesh, trial)[0]

    alpha, f_trial, trial, halvings = line_search(
        objective_fn, validity_fn, start, -1e-3 * g, f0, g, scfg
    )
    assert alpha is not None and f_trial < f0
    assert alpha == scfg.backtrack_factor**halvings


def test_line_search_halves_on_inverting_step():
    mesh, nodes, cfg = quad_problem()
    start = displaced_nodes(mesh, nodes, frac=0.2)
    from tmopfit.mesh import is_valid
    from tmopfit.objective import gradient

    g = gradient(cfg, mesh, start)
    # A descent direction so large that a full step inverts elements.
    direction = -g * (5.0 / np.abs(g).max())
    f0 = value(cfg, mesh, start)[0]
    scfg = SolverConfig()

    def objective_fn(trial):
        try:
            return value(cfg, mesh, trial)[0]
        except Exception:
            return None

    def validity_fn(trial):
        return is_valid(mesh, trial)[0]

    full = start.copy()
    full.coords = start.coords + direction
    assert not validity_fn(full)
    alpha, f_trial, trial, halvings = line_search(
        objective_fn, validity_fn, start, direction, f0, g, scfg
    )
    assert alpha is not None and alpha < 1.0
    assert halvings > 0 and alpha == scfg.backtrack_factor**halvings
    assert validity_fn(trial) and f_trial < f0


def test_line_search_rejects_zero_direction():
    mesh, nodes, cfg = quad_problem()
    scfg = SolverConfig()
    with pytest.raises(ValueError):
        line_search(lambda t: 0.0, lambda t: True, nodes,
                    np.zeros(2 * mesh.num_nodes), 1.0, None, scfg)


def test_line_search_rejects_ascent_direction():
    mesh, nodes, cfg = quad_problem()
    g = np.ones(2 * mesh.num_nodes)
    with pytest.raises(ValueError):
        line_search(lambda t: 0.0, lambda t: True, nodes, g, 1.0, g,
                    SolverConfig())


def test_solve_recovers_uniform_mesh():
    mesh, nodes, cfg = quad_problem()
    start = displaced_nodes(mesh, nodes)
    final, report = solve(SolverConfig(), cfg, mesh, start)
    assert report.reason == "converged"
    assert report.history[-1][1] < 1e-10  # final F
    f_values = [row[1] for row in report.history]
    assert all(b < a for a, b in zip(f_values, f_values[1:]))
    assert all(row[6] > 0.0 for row in report.history)  # min det


def test_solve_converges_immediately_at_optimum():
    mesh, nodes, cfg = quad_problem()
    final, report = solve(SolverConfig(), cfg, mesh, nodes)
    assert report.reason == "converged"
    assert report.iterations == 0
    assert len(report.history) == 1


def test_solve_rejects_invalid_initial_mesh():
    mesh, nodes, cfg = quad_problem()
    mat = nodes.as_matrix().copy()
    conn = mesh.connectivity[0]
    mat[conn[0]], mat[conn[1]] = mat[conn[1]].copy(), mat[conn[0]].copy()
    from tmopfit.errors import InvalidMeshError

    with pytest.raises(InvalidMeshError):
        solve(SolverConfig(), cfg, mesh, NodeField.from_matrix(mat))


def test_history_csv_schema():
    mesh, nodes, cfg = quad_problem()
    _, report = solve(SolverConfig(), cfg, mesh, displaced_nodes(mesh, nodes))
    csv = report.history_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == (
        "iter,F,Fmu,Fsigma,gradnorm,step,mindet,"
        "direction,minres_iterations,minres_info,halvings,minres_residual"
    )
    assert len(lines) == len(report.history) + 1
    assert all(len(line.split(",")) == 12 for line in lines[1:])
    assert lines[1].split(",")[7:] == ["none", "0", "0", "0", f"{0.0:.16e}"]
    for row in report.history[1:]:
        assert row[7] in ("newton", "steepest")
        assert row[8] > 0 or row[7] == "steepest"
        assert row[5] == SolverConfig().backtrack_factor ** row[10]
        # MINRES's residual estimate never grows from |b|.
        assert 0.0 < row[11] <= 1.0 or row[7] == "steepest"


def test_solve_reports_a_nonfinite_start_as_a_package_error():
    # A level set with no gradient at a marked node makes the start
    # gradient NaN; the CLI reports TmopFitError subclasses in one line.
    mesh, nodes, cfg = quad_problem()
    ls = AnalyticLevelSet(
        2,
        lambda p: p[:, 0] - 0.5,
        lambda p: np.full(p.shape, np.nan),
        lambda p: np.zeros((len(p), 2, 2)),
    )
    cfg.penalty = make_penalty(1.0, ls, mesh, cfg.targets, MarkedSet(np.array([12])))
    with pytest.raises(NonfiniteObjectiveError) as info:
        solve(SolverConfig(), cfg, mesh, nodes)
    assert isinstance(info.value, TmopFitError)


def test_solver_config_validation():
    for eps in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(ValueError):
            SolverConfig(eps=eps)


def test_solver_config_rejects_fewer_than_one_iteration():
    for max_iterations in (0, -1):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=max_iterations)


def test_programming_error_in_value_propagates(monkeypatch):
    # Only evaluation failures of a trial mesh reject a line-search step;
    # a bug inside value() must not pass for a rejected step.
    import tmopfit.solver as solver

    mesh, nodes, cfg = quad_problem()
    calls = []

    def broken_value(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise IndexError("bug in value")
        return value(*args, **kwargs)

    monkeypatch.setattr(solver, "value", broken_value)
    with pytest.raises(IndexError):
        solve(SolverConfig(), cfg, mesh, displaced_nodes(mesh, nodes))


def test_gram_matrix_built_once_per_solve(monkeypatch):
    import tmopfit.fitting as fitting
    import tmopfit.solver as solver

    counts = {"gram": 0, "hessian": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(fitting, "_build_gram", counting("gram", fitting._build_gram))
    monkeypatch.setattr(solver, "hessian", counting("hessian", solver.hessian))
    mesh, nodes = make_cartesian(2, 4, 2, "quad")
    targets = make_targets(mesh, nodes, "ideal-shape-initial-size")
    ls = AnalyticLevelSet(
        2,
        lambda p: p[:, 1] - 0.55 + 0.1 * p[:, 0],
        lambda p: np.tile([0.1, 1.0], (len(p), 1)),
        lambda p: np.zeros((len(p), 2, 2)),
    )
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    band = interior[np.abs(ls.values(nodes.as_matrix()[interior])) < 0.1]
    penalty = make_penalty(50.0, ls, mesh, targets, MarkedSet(band))
    assert counts["gram"] == 1
    cfg = ObjectiveConfig(
        "mu80", targets, penalty=penalty, fixed_mask=boundary_fixed_mask(mesh)
    )
    _, report = solve(SolverConfig(), cfg, mesh, nodes)
    assert report.reason == "converged"
    assert counts["hessian"] == report.iterations > 1
    assert counts["gram"] == 1  # none inside solve
    # A new weight, as a stage of an adaptive w_sigma takes, keeps the form.
    stronger = dataclasses.replace(penalty, weight=10 * penalty.weight)
    assert stronger.gram is penalty.gram
    assert counts["gram"] == 1


def test_each_hessian_is_freed_before_the_next_is_built(monkeypatch):
    # The blocks of iterate k must be gone when iterate k + 1's are
    # allocated, so a solve's peak memory holds one Hessian, not two.
    import tmopfit.solver as solver
    from tmopfit.cases import named_case, run_case

    build = solver.hessian
    blocks = []
    alive_at_call = []

    def tracking(*args, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in blocks))
        h = build(*args, **kwargs)
        blocks.extend([weakref.ref(h.diag), weakref.ref(h.off)])
        return h

    monkeypatch.setattr(solver, "hessian", tracking)
    run = run_case(named_case("fit2d-quad", resolution=3))
    assert len(alive_at_call) == run.solve_report.iterations > 1
    assert alive_at_call == [0] * len(alive_at_call)
