"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Named-case runs are cached across criteria; run with `pytest -v -s
tests/test_acceptance.py` to watch the per-criterion lines as they
complete.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from tmopfit.cases import compute_e_S, named_case, run_case
from tmopfit.checks import check_gradients
from tmopfit.fields import AnalyticLevelSet, project
from tmopfit.fitting import MarkedSet, make_penalty, penalty_value
from tmopfit.mesh import NodeField, make_cartesian
from tmopfit.quality import METRIC_IDS, make_targets, metric
from tmopfit.transfer import transfer_field

NAMED_CASES = (
    "fit2d-quad", "fit2d-tri", "fit3d-hex", "fit3d-tet",
    "tg2d", "tg3d", "rt2d", "rt3d",
)


@lru_cache(maxsize=None)
def cached_run(name, mode=None, w_sigma=None):
    case = named_case(name)
    if mode is not None:
        case = case.copy_with(mode=mode)
    if w_sigma is not None:
        case = case.copy_with(w_sigma=w_sigma)
    return run_case(case)


def report(number, description, ok):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def strictly_decreasing(history):
    f = [row[1] for row in history]
    return all(b < a for a, b in zip(f, f[1:]))


def always_valid(history):
    return all(row[6] > 0.0 for row in history)


def test_criterion_1_derivative_correctness():
    t0 = time.perf_counter()
    results = check_gradients(seed=0, hessian_dof_limit=160)
    elapsed = time.perf_counter() - t0
    n_grad = sum(1 for name, _, _ in results if "gradient" in name)
    n_hess = sum(1 for name, _, _ in results if "Hessian" in name)
    failures = [(n, e) for n, ok, e in results if not ok]
    ok = not failures and n_grad >= 40 and n_hess >= 10 and elapsed < 60.0
    for n, e in failures:
        print(f"    derivative check failed: {n} (rel err {e:.2e})")
    report(
        1,
        f"gradients/Hessians vs finite differences "
        f"({n_grad} gradient + {n_hess} Hessian checks, {elapsed:.0f} s)",
        ok,
    )


def test_criterion_2_metric_identities():
    dims = {"mu2": 2, "mu58": 2, "mu77": 2, "mu80": 2,
            "mu302": 3, "mu316": 3, "mu333": 3}
    ok = True
    for mid in METRIC_IDS:
        ok &= abs(metric(mid, np.eye(dims[mid])).value) <= 1e-13
    rng = np.random.default_rng(2)
    for mid, d in (("mu2", 2), ("mu58", 2), ("mu302", 3)):
        for _ in range(20):
            t = np.eye(d) + 0.5 * rng.standard_normal((d, d))
            if np.linalg.det(t) < 0.25:
                continue
            c = rng.uniform(0.3, 3.0)
            ok &= abs(metric(mid, c * t).value - metric(mid, t).value) <= 1e-12
    for mid, d in (("mu2", 2), ("mu58", 2), ("mu77", 2),
                   ("mu302", 3), ("mu316", 3), ("mu333", 3)):
        for _ in range(20):
            t = np.eye(d) + 0.5 * rng.standard_normal((d, d))
            if np.linalg.det(t) < 0.25:
                continue
            th = rng.uniform(0, 2 * np.pi)
            q = np.eye(d)
            q[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
            ok &= abs(metric(mid, q @ t).value - metric(mid, t).value) <= 1e-12
    report(2, "metric identities, scale and rotation invariance", ok)


@pytest.mark.parametrize("name", ["fit2d-quad", "fit2d-tri"])
def test_criterion_3_circle_fitting(name):
    run = cached_run(name)
    r = run.fit_report
    parts = {
        "e_S<=1e-4": r.e_s <= 1e-4,
        "F decreasing": strictly_decreasing(run.solve_report.history),
        "valid": always_valid(run.solve_report.history),
        "converged": run.solve_report.reason == "converged",
        "runtime<2min": r.wall_time_s < 120.0,
    }
    ok = all(parts.values())
    detail = ", ".join(k for k, v in parts.items() if not v) or "all clauses"
    report(
        3,
        f"{name}: e_S={r.e_s:.2e} iters={r.iterations} "
        f"t={r.wall_time_s:.0f}s ({detail})",
        ok,
    )


@pytest.mark.parametrize("name", ["fit3d-hex", "fit3d-tet"])
def test_criterion_4_sphere_fitting(name):
    run = cached_run(name)
    r = run.fit_report
    parts = {
        "e_S<=1e-3": r.e_s <= 1e-3,
        "F decreasing": strictly_decreasing(run.solve_report.history),
        "valid": always_valid(run.solve_report.history),
        "converged": run.solve_report.reason == "converged",
        "runtime<10min": r.wall_time_s < 600.0,
    }
    ok = all(parts.values())
    detail = ", ".join(k for k, v in parts.items() if not v) or "all clauses"
    report(
        4,
        f"{name}: e_S={r.e_s:.2e} iters={r.iterations} "
        f"t={r.wall_time_s:.0f}s ({detail})",
        ok,
    )


def test_criterion_5_relaxation_beats_fixed_interface():
    fixed = cached_run("tg2d", mode="fixed").fit_report
    relax250 = cached_run("tg2d", mode="relax", w_sigma=250.0).fit_report
    relax1000 = cached_run("tg2d", mode="relax", w_sigma=1000.0).fit_report
    ok = (
        relax250.f_decrease_pct > fixed.f_decrease_pct
        and relax1000.f_decrease_pct > fixed.f_decrease_pct
    )
    report(
        5,
        "tg2d F-decrease: fixed "
        f"{fixed.f_decrease_pct:.1f}% < relax(250) "
        f"{relax250.f_decrease_pct:.1f}% and relax(1000) "
        f"{relax1000.f_decrease_pct:.1f}%",
        ok,
    )


@pytest.mark.parametrize("name", ["tg2d", "tg3d"])
def test_criterion_6_weight_monotonicity(name):
    low = cached_run(name, mode="relax", w_sigma=250.0).fit_report
    high = cached_run(name, mode="relax", w_sigma=1000.0).fit_report
    ok = high.e_max < low.e_max and high.e_avg < low.e_avg
    report(
        6,
        f"{name} fitting errors shrink with weight: "
        f"E_max {low.e_max:.2e} -> {high.e_max:.2e}, "
        f"E_avg {low.e_avg:.2e} -> {high.e_avg:.2e}",
        ok,
    )


def test_criterion_7_normalization_invariance():
    const = AnalyticLevelSet(
        2, lambda p: np.full(len(p), 0.4),
        lambda p: np.zeros_like(p), lambda p: np.zeros((len(p), 2, 2)),
    )
    ok = True
    for kind in ("ideal-shape-unit-size", "ideal-shape-initial-size"):
        values = []
        for n in (5, 10):
            mesh, nodes = make_cartesian(2, n, 2, "quad")
            targets = make_targets(mesh, nodes, kind)
            marked = MarkedSet(np.arange(mesh.num_nodes))
            penalty = make_penalty(13.0, const, mesh, targets, marked)
            values.append(penalty_value(penalty, nodes))
        ok &= abs(values[0] - values[1]) <= 1e-10
    report(7, "F_sigma invariant under mesh refinement for constant sigma", ok)


def test_criterion_8_transfer_exactness():
    rng = np.random.default_rng(8)
    ok = True
    for order in (1, 2, 3):
        mesh, nodes = make_cartesian(2, 4, order, "quad")
        lin = rng.uniform(-1, 1, 2)
        quad_c = rng.uniform(-0.5, 0.5, 2) if order >= 2 else np.zeros(2)

        def fn(p):
            return 0.1 + p @ lin + (p**2) @ quad_c

        ls = AnalyticLevelSet(2, fn, lambda p: None, lambda p: None)
        sigma = project(ls, mesh, nodes)
        identity = transfer_field(sigma, nodes, mesh, nodes)
        ok &= np.abs(identity.coefficients - sigma.coefficients).max() <= 1e-12
        mat = nodes.as_matrix().copy()
        interior = np.setdiff1d(
            np.arange(mesh.num_nodes), mesh.boundary_node_ids()
        )
        bump = 0.02 * np.sin(np.pi * mat[:, 0]) * np.sin(np.pi * mat[:, 1])
        mat[interior, 0] += bump[interior]
        mat[interior, 1] -= bump[interior]
        moved_nodes = NodeField.from_matrix(mat)
        moved = transfer_field(sigma, nodes, mesh, moved_nodes)
        ok &= np.abs(moved.coefficients - fn(moved_nodes.as_matrix())).max() <= 1e-10
    report(8, "polynomial fields transfer exactly; identity motion exact", ok)


def test_criterion_9_solver_contract_on_named_cases():
    failures = []
    for name in NAMED_CASES:
        run = cached_run(name)
        hist = run.solve_report.history
        ratio = hist[-1][4] / hist[0][4] if hist[0][4] > 0 else 0.0
        checks = {
            "valid": always_valid(hist),
            "decreasing": strictly_decreasing(hist),
            "converged": run.solve_report.reason == "converged",
            "ratio<=1e-6": ratio <= 1e-6,
        }
        if not all(checks.values()):
            bad = ", ".join(k for k, v in checks.items() if not v)
            failures.append(f"{name} ({bad})")
    report(
        9,
        "validity, monotone decrease, convergence ratio <= 1e-6 on "
        + (", ".join(failures) if failures else "all 8 named cases"),
        not failures,
    )


def _mode10_amplitude(nodes, marked):
    pts = nodes.as_matrix()[marked.indices]
    x, y = pts[:, 0], pts[:, 1]
    basis = np.stack(
        [np.ones_like(x), np.cos(2 * np.pi * x), np.sin(2 * np.pi * x),
         np.cos(10 * np.pi * x), np.sin(10 * np.pi * x)], axis=1,
    )
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(np.hypot(coef[3], coef[4]))


def test_criterion_10_feature_diffusion_documented():
    run = cached_run("rt2d")
    r = run.fit_report
    amp_initial = _mode10_amplitude(run.initial_nodes, run.marked)
    amp_final = _mode10_amplitude(run.final_nodes, run.marked)
    parts = {
        "amplitude reduced": amp_final < amp_initial,
        "E_max<=5e-2": r.e_max <= 5e-2,
        "converged": run.solve_report.reason == "converged",
    }
    ok = all(parts.values())
    report(
        10,
        f"rt2d fine-mode amplitude {amp_initial:.4f} -> {amp_final:.4f}, "
        f"E_max={r.e_max:.2e}",
        ok,
    )
