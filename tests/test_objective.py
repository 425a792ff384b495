"""Total objective assembly: values, gradients, Hessians, masking."""

import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import tmopfit.cases
import tmopfit.mesh
from tmopfit import quality
from tmopfit.cases import EPS, builtin_levelset, named_case, run_case
from tmopfit.errors import NonpositiveDeterminantError
from tmopfit.fields import AnalyticLevelSet, project
from tmopfit.fitting import (
    MarkedSet, attributes_from_sign, make_penalty, mark_interface_nodes, penalty_hessian,
)
from tmopfit.mesh import (
    Mesh,
    NodeField,
    element_chunks,
    element_volumes,
    is_valid,
    make_cartesian,
    quadrature_jacobians,
)
from tmopfit.objective import (
    ObjectiveConfig,
    boundary_fixed_mask,
    fix_nodes,
    gradient,
    hessian,
    value,
)
from tmopfit.quality import (
    IDEAL_TARGETS,
    METRIC_DIM,
    METRIC_IDS,
    TARGET_KINDS,
    make_targets,
    metric_batch,
    mirror_pairs,
)
from tmopfit.reference import det_inv, quadrature_for, quadrature_tables
from tmopfit.solver import SolverConfig, newton_step, solve
from tmopfit.transfer import transfer_field


def perturbed(mesh, nodes, seed=0, amplitude=0.02):
    rng = np.random.default_rng(seed)
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    mat = nodes.as_matrix().copy()
    mat[interior] += amplitude * rng.uniform(-1, 1, (len(interior), mesh.dim))
    return NodeField.from_matrix(mat)


def test_uniform_mesh_zero_objective():
    mesh, nodes = make_cartesian(2, 4, 2, "quad")
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "ideal-shape-unit-size"))
    f, f_mu, f_sigma = value(cfg, mesh, nodes)
    assert abs(f) < 1e-13 and f_sigma == 0.0


def test_displaced_mesh_positive_objective():
    mesh, nodes = make_cartesian(2, 4, 2, "quad")
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "ideal-shape-unit-size"))
    f, _, _ = value(cfg, mesh, perturbed(mesh, nodes, seed=1))
    assert f > 0.0


def test_report_additivity_and_fields():
    mesh, nodes = make_cartesian(2, 3, 1, "quad")
    targets = make_targets(mesh, nodes, "ideal-shape-initial-size")
    ls = AnalyticLevelSet(
        2,
        lambda p: p[:, 1] - 0.47,
        lambda p: np.tile([0.0, 1.0], (len(p), 1)),
        lambda p: np.zeros((len(p), 2, 2)),
    )
    marked = MarkedSet(np.array([5, 6, 7]))
    penalty = make_penalty(3.0, ls, mesh, targets, marked)
    cfg = ObjectiveConfig("mu80", targets, penalty=penalty)
    current = perturbed(mesh, nodes, seed=2)
    f, f_mu, f_sigma = value(cfg, mesh, current)
    assert f_sigma > 0.0 and f_mu > 0.0
    assert abs(f - (f_mu + f_sigma)) < 1e-14 * max(1.0, abs(f))
    assert np.linalg.norm(gradient(cfg, mesh, current)) > 0.0


def test_gradient_zero_at_uniform_mesh():
    mesh, nodes = make_cartesian(2, 4, 1, "quad")
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "ideal-shape-unit-size"))
    assert np.abs(gradient(cfg, mesh, nodes)).max() < 1e-12


def test_gradient_matches_fd_at_random_meshes():
    rng = np.random.default_rng(3)
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    targets = make_targets(mesh, nodes, "ideal-shape-initial-size")
    cfg = ObjectiveConfig("mu80", targets)
    for seed in range(3):
        current = perturbed(mesh, nodes, seed=seed)
        g = gradient(cfg, mesh, current)
        step = 1e-6
        fd = np.zeros_like(g)
        work = current.copy()
        for dof in range(len(g)):
            work.coords[dof] += step
            fp = value(cfg, mesh, work)[0]
            work.coords[dof] -= 2 * step
            fm = value(cfg, mesh, work)[0]
            work.coords[dof] += step
            fd[dof] = (fp - fm) / (2 * step)
        assert np.abs(g - fd).max() / np.abs(fd).max() < 1e-5


def test_masked_entries_zero():
    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    mask = boundary_fixed_mask(mesh)
    cfg = ObjectiveConfig(
        "mu80", make_targets(mesh, nodes, "ideal-shape-initial-size"), fixed_mask=mask
    )
    g = gradient(cfg, mesh, perturbed(mesh, nodes, seed=4))
    assert np.abs(g[mask]).max() == 0.0


def test_hessian_symmetric_and_matches_fd():
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    targets = make_targets(mesh, nodes, "ideal-shape-initial-size")
    cfg = ObjectiveConfig("mu80", targets)
    current = perturbed(mesh, nodes, seed=5)
    h = hessian(cfg, mesh, current).toarray()
    assert np.abs(h - h.T).max() < 1e-10
    step = 1e-6
    fd = np.zeros_like(h)
    work = current.copy()
    for dof in range(h.shape[0]):
        work.coords[dof] += step
        gp = gradient(cfg, mesh, work)
        work.coords[dof] -= 2 * step
        gm = gradient(cfg, mesh, work)
        work.coords[dof] += step
        fd[:, dof] = (gp - gm) / (2 * step)
    assert np.linalg.norm(h - fd) / np.linalg.norm(fd) < 1e-4


def test_hessian_without_penalty_equals_pure_tmop():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    targets = make_targets(mesh, nodes, "ideal-shape-unit-size")
    ls = AnalyticLevelSet(
        2, lambda p: p[:, 0] - 0.4,
        lambda p: np.tile([1.0, 0.0], (len(p), 1)),
        lambda p: np.zeros((len(p), 2, 2)),
    )
    off = make_penalty(0.0, ls, mesh, targets, MarkedSet(np.array([4])))
    cfg_plain = ObjectiveConfig("mu2", targets)
    cfg_off = ObjectiveConfig("mu2", targets, penalty=off)
    current = perturbed(mesh, nodes, seed=6)
    h1 = hessian(cfg_plain, mesh, current).toarray()
    h2 = hessian(cfg_off, mesh, current).toarray()
    assert np.array_equal(h1, h2)


def test_masked_hessian_rows_are_identity():
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    mask = boundary_fixed_mask(mesh)
    cfg = ObjectiveConfig(
        "mu80", make_targets(mesh, nodes, "ideal-shape-initial-size"), fixed_mask=mask
    )
    h = hessian(cfg, mesh, perturbed(mesh, nodes, seed=7)).toarray()
    fixed = np.flatnonzero(mask)
    free = np.flatnonzero(~mask)
    assert np.abs(h[np.ix_(fixed, free)]).max() == 0.0
    assert np.allclose(h[fixed, fixed], 1.0)


def test_translation_invariance_and_gradient_sum():
    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    targets = make_targets(mesh, nodes, "ideal-shape-initial-size")
    cfg = ObjectiveConfig("mu80", targets)
    current = perturbed(mesh, nodes, seed=8)
    shifted = current.copy()
    shifted.coords[: mesh.num_nodes] += 0.37
    shifted.coords[mesh.num_nodes :] -= 0.11
    f1 = value(cfg, mesh, current)[1]
    f2 = value(cfg, mesh, shifted)[1]
    assert abs(f1 - f2) < 1e-12 * max(1.0, abs(f1))
    g = gradient(cfg, mesh, current)
    assert abs(g[: mesh.num_nodes].sum()) < 1e-10
    assert abs(g[mesh.num_nodes :].sum()) < 1e-10


def test_inverted_mesh_reports_element():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "ideal-shape-unit-size"))
    conn = mesh.connectivity[3]
    # Swapping the top (domain-boundary) edge of element 3 inverts only
    # element 3; swapping its bottom edge, shared with element 2, inverts
    # both, and the first one is reported.
    for (i, j), first in (((2, 3), 3), ((0, 1), 2)):
        mat = nodes.as_matrix().copy()
        mat[[conn[i], conn[j]]] = mat[[conn[j], conn[i]]]
        bad = NodeField.from_matrix(mat)
        for fn in (value, gradient, hessian):
            with pytest.raises(NonpositiveDeterminantError) as err:
                fn(cfg, mesh, bad)
            assert err.value.element_id == first


def test_fix_nodes_extends_mask():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    mask = boundary_fixed_mask(mesh)
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    node = int(interior[0])
    mask2 = fix_nodes(mask, mesh, [node])
    assert mask2[node] and mask2[mesh.num_nodes + node]
    assert mask2.sum() == mask.sum() + 2


# ---------------------------------------------------------------------------
# The chunked element kernel against a per-element reference loop

# geometry -> (dim, cells per axis, order)
KERNEL_MESHES = {
    "quad": (2, 2, 2), "triangle": (2, 2, 3), "hex": (3, 2, 2), "tet": (3, 1, 2),
}


def reference_assembly(cfg, mesh, nodes):
    """F_mu, its gradient and its Hessian one element at a time, with each
    target W_e = size_e^(1/d) W_ideal built and inverted per element."""
    quad = quadrature_for(mesh.geometry, mesh.order)
    _, ref_grads = mesh.basis.eval_with_grad(quad.points)
    nnod, dim = mesh.num_nodes, mesh.dim
    f = 0.0
    grad = np.zeros(dim * nnod)
    hess = np.zeros((dim * nnod, dim * nnod))
    for e in range(mesh.num_elements):
        w = cfg.targets.size[e] ** (1.0 / dim) * IDEAL_TARGETS[mesh.geometry]
        winv = np.linalg.inv(w)
        coords = nodes.as_matrix()[mesh.connectivity[e]]
        a = np.einsum("id,qib->qdb", coords, ref_grads)
        t = a @ winv
        vals, dmu, d2 = metric_batch(cfg.metric_id, t)
        d2mu = mirror_pairs(d2)
        wdet = quad.weights * np.linalg.det(w)
        dhat = np.einsum("qib,be->qie", ref_grads, winv)
        f += wdet @ vals
        local_g = np.einsum("q,qie,qae->ia", wdet, dhat, dmu)
        local_h = np.einsum(
            "q,qie,qaebf,qjf->iajb", wdet, dhat, d2mu, dhat, optimize=True
        )
        dof = (np.arange(dim)[None, :] * nnod + mesh.connectivity[e][:, None]).ravel()
        np.add.at(grad, dof, local_g.ravel())
        n = len(dof)
        hess[np.ix_(dof, dof)] += local_h.reshape(n, n)
    return f, grad, 0.5 * (hess + hess.T)


def kernel_config(metric_id, geometry, kind="ideal-shape-initial-size"):
    dim, n_cells, order = KERNEL_MESHES[geometry]
    mesh, nodes = make_cartesian(dim, n_cells, order, geometry)
    targets = make_targets(mesh, nodes, kind)
    current = perturbed(mesh, nodes, seed=9, amplitude=0.05 / order)
    return ObjectiveConfig(metric_id, targets), mesh, current


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("metric_id,geometry", [
    (m, g) for m in METRIC_IDS for g in KERNEL_MESHES if KERNEL_MESHES[g][0] == METRIC_DIM[m]
])
def test_kernel_matches_per_element_loop(metric_id, geometry):
    for kind in TARGET_KINDS:
        cfg, mesh, current = kernel_config(metric_id, geometry, kind)
        f_ref, g_ref, h_ref = reference_assembly(cfg, mesh, current)
        assert rel_err(value(cfg, mesh, current)[1], f_ref) < 1e-12
        assert rel_err(gradient(cfg, mesh, current), g_ref) < 1e-12
        h = hessian(cfg, mesh, current)
        dense = h.toarray()
        assert rel_err(dense, h_ref) < 1e-12
        assert np.array_equal(h.diag, h.diag.swapaxes(-1, -2))
        assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("geometry", ["triangle", "hex"])
def test_one_element_chunks_match_default(monkeypatch, geometry):
    # Chunk sizes do not depend on the metric.
    cfg, mesh, current = kernel_config({"triangle": "mu80", "hex": "mu333"}[geometry], geometry)
    assert all(len(element_chunks(mesh, order)) < mesh.num_elements for order in (0, 1, 2))
    default = (
        value(cfg, mesh, current),
        gradient(cfg, mesh, current),
        hessian(cfg, mesh, current).toarray(),
        is_valid(mesh, current),
        element_volumes(mesh, current),
    )
    monkeypatch.setattr(tmopfit.mesh, "_CHUNK_MATRICES", 1)
    assert all(len(element_chunks(mesh, order)) == mesh.num_elements for order in (0, 1, 2))
    single = (
        value(cfg, mesh, current),
        gradient(cfg, mesh, current),
        hessian(cfg, mesh, current).toarray(),
        is_valid(mesh, current),
        element_volumes(mesh, current),
    )
    for got, want in zip(single, default):
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_hessian_chunk_sizes_of_the_benchmark_cases():
    # Order-2 hexes of fit3d-hex-r4: at least 4 elements (500 points) per
    # Hessian chunk, where 2 left the metric bound by numpy call overhead.
    # Order-3 triangles of fit2d-tri: at most about 1,200 points, so that
    # the run keeps its peak memory (2,100 points add 0.1 MiB, 4,200 points
    # 1.0 MiB).
    case = named_case("fit3d-hex", resolution=4)
    mesh, _ = make_cartesian(case.dim, case.resolution, case.order, case.geometry)
    chunks = element_chunks(mesh, 2)
    assert len(chunks) > 1 and chunks[0].stop - chunks[0].start >= 4
    case = named_case("fit2d-tri")
    mesh, _ = make_cartesian(case.dim, case.resolution, case.order, case.geometry)
    chunks = element_chunks(mesh, 2)
    num_points = quadrature_for(mesh.geometry, mesh.order).num_points
    assert len(chunks) > 1 and (chunks[0].stop - chunks[0].start) * num_points <= 1200


@pytest.mark.parametrize("metric_id", ["mu80", "mu333"])
def test_blended_metrics_seed_invariants_once(monkeypatch, metric_id):
    calls = []
    seed = quality._seed_invariants

    def counting(*args, **kwargs):
        calls.append(1)
        return seed(*args, **kwargs)

    monkeypatch.setattr(quality, "_seed_invariants", counting)
    dim = 2 if metric_id == "mu80" else 3
    t = np.eye(dim) + 0.1 * np.random.default_rng(0).standard_normal((4, dim, dim))
    for order in (1, 2):
        calls.clear()
        metric_batch(metric_id, t, order=order)
        assert len(calls) == 1
    geometry = "quad" if dim == 2 else "hex"
    cfg, mesh, current = kernel_config(metric_id, geometry)
    calls.clear()
    hessian(cfg, mesh, current)
    assert len(calls) == len(element_chunks(mesh, 2))


# tracemalloc peak of one gradient and one Hessian on the fit3d-hex mesh at
# resolution 4: 10% over the 7,177,281 bytes the same calls take with
# 256-point chunks for every derivative order.  The Hessian by component
# pairs of d2mu, 4 elements a chunk, takes 6.2 MB; twice that chunk budget
# gives 8.3 MB.
PEAK_FIT3D_HEX_R4 = int(1.1 * 7_177_281)


def fit3d_hex_r4_problem():
    """The objective, mesh and start nodes of the fit3d-hex case at
    resolution 4, with its solver settings."""
    return start_problem(named_case("fit3d-hex", resolution=4))


def start_problem(case):
    """The objective, mesh and start nodes of a fit case, with its solver
    settings."""
    level_set = builtin_levelset(case.levelset)
    mesh, nodes = make_cartesian(case.dim, case.resolution, case.order, case.geometry)
    sigma = project(level_set, mesh, nodes)
    marked = mark_interface_nodes(mesh, attributes_from_sign(mesh, sigma))
    targets = make_targets(mesh, nodes, case.target_kind)
    penalty = make_penalty(case.w_sigma, level_set, mesh, targets, marked)
    cfg = ObjectiveConfig(
        case.metric_id, targets, penalty=penalty, fixed_mask=boundary_fixed_mask(mesh)
    )
    scfg = SolverConfig(eps=EPS, max_iterations=case.max_iterations)
    return cfg, mesh, nodes, scfg


def traced_peak(fn):
    """fn() and the tracemalloc peak, in bytes, of the call."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# tracemalloc peak of one penalty_hessian on the fit3d-hex start mesh at
# resolution 4 (98 marked nodes): 10% over the 59,792 bytes of the
# factors at the marked nodes.  The 23,346 COO entries of the Gram
# form's d x d blocks take 457,184 bytes.
PEAK_PENALTY_HESSIAN_FIT3D_HEX_R4 = int(1.1 * 59_792)


def test_penalty_hessian_peak_memory_fit3d_hex_r4():
    cfg, _, nodes, _ = fit3d_hex_r4_problem()
    peak = traced_peak(lambda: penalty_hessian(cfg.penalty, nodes))[1]
    assert peak <= PEAK_PENALTY_HESSIAN_FIT3D_HEX_R4


def test_gradient_and_hessian_peak_memory_fit3d_hex_r4():
    cfg, mesh, nodes, _ = fit3d_hex_r4_problem()

    def gradient_and_hessian():
        gradient(cfg, mesh, nodes)
        hessian(cfg, mesh, nodes)

    assert traced_peak(gradient_and_hessian)[1] <= PEAK_FIT3D_HEX_R4


def test_solve_peak_memory_fit3d_hex_r4_holds_one_hessian():
    # A whole solve stays within the bound of one gradient and one Hessian:
    # the Hessian of an iterate is freed before the next one is built.
    cfg, mesh, nodes, scfg = fit3d_hex_r4_problem()
    (_, report), peak = traced_peak(lambda: solve(scfg, cfg, mesh, nodes))
    assert report.iterations > 1
    assert peak <= PEAK_FIT3D_HEX_R4


# tracemalloc peak of a whole fit3d-hex run at resolution 4, outputs
# included, after a warm-up: at most 3,450,000 bytes.  The bound was 10%
# over the 3,909,576 bytes it took with the fitting penalty's Hessian in
# factored form and one element chunk alive in the Hessian pass, when the
# post-solve transfer set the run's peak.  The penalty's COO entries and chunks that outlive the next metric
# call took 5,045,549 bytes, and full element blocks with 8,192-pair
# point-location batches 6,379,609.  With in-place metric kernels and
# 512-pair batches the run took 3,595,051 bytes, set by the solve's
# Newton Hessian; the transfer peaks at 1,940,558.  With the Hessian pass
# holding only its element blocks and one metric chunk (weights folded
# per chunk, d2mu pairs alone, unscaled invariant derivatives) the run
# takes 3,411,900, still set by the Hessian.
PEAK_RUN_FIT3D_HEX_R4 = 3_450_000


def test_run_peak_memory_fit3d_hex_r4(tmp_path):
    cfg, mesh, nodes, _ = fit3d_hex_r4_problem()
    h = hessian(cfg, mesh, nodes)
    pairs = mesh.dim * (mesh.dim + 1) // 2
    assert h.diag.size + h.off.size == mesh.num_elements * pairs * mesh.basis.num_nodes**2
    del h
    case = named_case("fit3d-hex", resolution=4)
    run_case(case, out_dir=tmp_path / "warm-up")
    run, peak = traced_peak(lambda: run_case(case, out_dir=tmp_path / "run"))
    assert run.solve_report.reason == "converged"
    assert peak <= PEAK_RUN_FIT3D_HEX_R4


# tracemalloc peaks on the first Hessian chunk of fit3d-hex at resolution
# 4: 4 elements, 500 points of T in the memory order of quadrature_jacobians.
# det_inv, which returns 41,136 bytes, at most half of the 254,760 it took
# with gathered cofactor rows (in place: 121,824).  metric_batch at order 2,
# which returns 261,960, at most 700,000: with a scratch twin of d2 and
# take copies of its rows it took 1,088,752, in place 765,344 (bound
# 820,000), and with 2 T and -2 K^t K K^t held unscaled 697,160.  One
# hessian at most 3,120,000: it took 3,607,808 with those kernels, 3,287,680
# in place (bound 3,350,000), and with the weights folded per chunk and
# the d2mu pairs alone (metric_d2) 3,116,864.
PEAK_DET_INV_CHUNK_FIT3D_HEX_R4 = 254_760 // 2
PEAK_METRIC_BATCH_CHUNK_FIT3D_HEX_R4 = 700_000
PEAK_HESSIAN_FIT3D_HEX_R4 = 3_120_000


def test_kernel_peak_memory_fit3d_hex_r4():
    cfg, mesh, nodes, _ = fit3d_hex_r4_problem()
    chunk = element_chunks(mesh, 2)[0]
    grads = quadrature_tables(mesh.geometry, mesh.order)[2]
    scale = cfg.targets.size[chunk, None, None] ** (-1.0 / mesh.dim)
    t = quadrature_jacobians(mesh, nodes, chunk, grads) * scale
    assert t.shape == (125, 4, 3, 3)
    assert traced_peak(lambda: det_inv(t))[1] <= PEAK_DET_INV_CHUNK_FIT3D_HEX_R4
    peak = traced_peak(lambda: metric_batch(cfg.metric_id, t, order=2))[1]
    assert peak <= PEAK_METRIC_BATCH_CHUNK_FIT3D_HEX_R4
    hessian(cfg, mesh, nodes)
    assert traced_peak(lambda: hessian(cfg, mesh, nodes))[1] <= PEAK_HESSIAN_FIT3D_HEX_R4


@pytest.mark.parametrize("name, overrides", [("fit3d-hex", {"resolution": 4}), ("fit2d-tri", {})])
def test_post_solve_transfer_peaks_under_one_hessian(monkeypatch, tmp_path, name, overrides):
    # The transfer runs after the solve's last Hessian is freed, so with
    # its working set under one Hessian's it does not raise the run's peak.
    case = named_case(name, **overrides)
    cfg, mesh, nodes, _ = start_problem(case)
    hessian(cfg, mesh, nodes)
    hessian_peak = traced_peak(lambda: hessian(cfg, mesh, nodes))[1]
    run_case(case, out_dir=tmp_path / "warm-up")
    peaks = []

    def traced_transfer(*args):
        moved, peak = traced_peak(lambda: transfer_field(*args))
        peaks.append(peak)
        return moved

    monkeypatch.setattr(tmopfit.cases, "transfer_field", traced_transfer)
    run_case(case, out_dir=tmp_path / "run")
    assert len(peaks) == 1 and peaks[0] < hessian_peak


def test_fit2d_quad_start_mesh_f_mu_has_no_cancellation():
    # The start mesh is ideal for mu58, and T = A W^-1 carries only the
    # round-off of the node GEMM (about 2e-15).  mu58 through s enters it
    # squared and never below 0, where |T^t T|^2 / tau^2 - 2 |T|^2 / tau + 2
    # leaves round-off of either sign (about 1e-14 here).
    case = named_case("fit2d-quad")
    mesh, nodes = make_cartesian(case.dim, case.resolution, case.order, case.geometry)
    cfg = ObjectiveConfig(case.metric_id, make_targets(mesh, nodes, case.target_kind))
    f_mu = value(cfg, mesh, nodes)[1]
    assert 0.0 <= f_mu < 1e-24


def test_repeated_hessians_keep_memory_flat():
    cfg, mesh, current = kernel_config("mu333", "hex")
    hessian(cfg, mesh, current)
    # With the collector off, a reference cycle would keep each call's
    # metric jets alive.
    gc.disable()
    tracemalloc.start()
    try:
        hessian(cfg, mesh, current)
        first, _ = tracemalloc.get_traced_memory()
        for _ in range(5):
            hessian(cfg, mesh, current)
        last, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert last - first < 64 * 1024


# ---------------------------------------------------------------------------
# The element-by-element Hessian operator against a COO assembly of the
# same terms


def gram_entries(dofs, g, k, gram):
    """g_ia M_ij g_jb + delta_ij k_i,ab for each stored entry (i, j) of the
    Gram form M and components a, b, as unsummed COO (rows, cols, data);
    dofs (d, m), g (m, d) and k (m, d, d) at the marked nodes."""
    row, col, data, on = gram
    blocks = g[row, :, None] * g[col, None, :] * data[:, None, None]
    blocks[on] += k
    rows = np.broadcast_to(dofs.T[row, :, None], blocks.shape)
    cols = np.broadcast_to(dofs.T[col, None, :], blocks.shape)
    return rows.ravel(), cols.ravel(), blocks.ravel()


def coo_reference_hessian(cfg, mesh, nodes):
    """F_mu from the per-element loop plus the penalty Hessian
    2c [g_ia M_ij g_jb + delta_ij (M s)_i H_i,ab] expanded into COO entries
    from the level set's samples at the marked nodes, summed by scipy,
    symmetrized, then masked rows/columns replaced by identity."""
    _, _, h_mu = reference_assembly(cfg, mesh, nodes)
    penalty = cfg.penalty
    ids = penalty.marked.indices
    pts = nodes.as_matrix()[ids]
    moments = penalty.gram @ penalty.source.values(pts)
    dofs = np.arange(mesh.dim)[:, None] * mesh.num_nodes + ids
    rows, cols, data = gram_entries(
        dofs, penalty.source.gradients(pts),
        moments[:, None, None] * penalty.source.hessians(pts), penalty.gram,
    )
    data = 2.0 * penalty.weight / penalty.normalization * data
    h = sp.coo_matrix(h_mu) + sp.csr_matrix((data, (rows, cols)), shape=h_mu.shape)
    h = (0.5 * (h + h.T)).tocoo()
    mask = cfg.fixed_mask
    keep = ~(mask[h.row] | mask[h.col])
    fixed = np.flatnonzero(mask)
    return sp.coo_matrix(
        (
            np.concatenate([h.data[keep], np.ones(len(fixed))]),
            (np.concatenate([h.row[keep], fixed]), np.concatenate([h.col[keep], fixed])),
        ),
        shape=h.shape,
    ).toarray()


def plan_config(geometry):
    dim = KERNEL_MESHES[geometry][0]
    cfg, mesh, current = kernel_config("mu80" if dim == 2 else "mu333", geometry)
    rng = np.random.default_rng(4)
    ls = AnalyticLevelSet(
        dim,
        lambda p: (p**2).sum(axis=1) - 0.3,
        lambda p: 2 * p,
        lambda p: np.tile(2 * np.eye(dim), (len(p), 1, 1)),
    )
    marked = MarkedSet(rng.choice(mesh.num_nodes, mesh.num_nodes // 3, replace=False))
    cfg.penalty = make_penalty(5.0, ls, mesh, cfg.targets, marked)
    # Fix the boundary and a few marked nodes, so that the mask cuts
    # through both the element blocks and the penalty entries.
    cfg.fixed_mask = fix_nodes(boundary_fixed_mask(mesh), mesh, marked.indices[::3])
    return cfg, mesh, current


def random_vector(h, seed):
    return np.random.default_rng(seed).standard_normal(h.shape[0])


@pytest.mark.parametrize("geometry", list(KERNEL_MESHES))
def test_plan_hessian_matches_coo_assembly(geometry):
    cfg, mesh, current = plan_config(geometry)
    h = hessian(cfg, mesh, current)
    want = coo_reference_hessian(cfg, mesh, current)
    dense = h.toarray()
    assert rel_err(dense, want) < 1e-12
    fixed = np.flatnonzero(cfg.fixed_mask)
    assert np.array_equal(dense[fixed], np.eye(len(dense))[fixed])
    assert np.array_equal(dense, dense.T)
    x = random_vector(h, 2)
    assert rel_err(h @ x, want @ x) < 1e-12
    assert rel_err(h.diagonal(), want.diagonal()) < 1e-12


@pytest.mark.parametrize("geometry", ["triangle", "hex"])
def test_plan_hessian_exactly_symmetric_with_one_element_chunks(monkeypatch, geometry):
    cfg, mesh, current = plan_config(geometry)
    default = hessian(cfg, mesh, current)
    monkeypatch.setattr(tmopfit.mesh, "_CHUNK_MATRICES", 1)
    single = hessian(cfg, mesh, current)
    assert np.array_equal(single.toarray(), single.toarray().T)
    assert np.array_equal(single.dofs, default.dofs)
    atol = 1e-13 * max(np.abs(default.diag).max(), np.abs(default.off).max())
    assert np.allclose(single.diag, default.diag, rtol=1e-13, atol=atol)
    assert np.allclose(single.off, default.off, rtol=1e-13, atol=atol)


def scipy_entries(h, magnitude=False):
    """The operator's stored entries (or their moduli) as an unsummed scipy
    COO matrix with the fixed rows and columns replaced by identity ones."""
    # The block at rows c, columns a of each pair a < c is stored once, as
    # the transpose of the one at rows a, columns c.
    ia, ic = np.triu_indices(len(h.dofs), 1)
    blocks = [
        (h.dofs, h.dofs, h.diag),
        (h.dofs[ia], h.dofs[ic], h.off),
        (h.dofs[ic], h.dofs[ia], h.off.swapaxes(-1, -2)),
    ]
    rows = [np.broadcast_to(r[..., None], b.shape).ravel() for r, _, b in blocks]
    cols = [np.broadcast_to(c[..., None, :], b.shape).ravel() for _, c, b in blocks]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    data = [b.ravel() for _, _, b in blocks]
    if h.penalty is not None:
        # The factors K_i = 2c (M s)_i H_i and G_i = sqrt(2c) g_i expanded
        # into the entries G_ia M_ij G_jb + delta_ij K_i,ab.
        p = h.penalty
        p_rows, p_cols, p_data = gram_entries(
            p.dofs, p.factors[-1].T, p.factors[:-1].transpose(2, 0, 1), p.gram
        )
        rows, cols = np.concatenate([rows, p_rows]), np.concatenate([cols, p_cols])
        data.append(p_data)
    data = np.abs(np.concatenate(data)) if magnitude else np.concatenate(data)
    keep = ~(h.fixed[rows] | h.fixed[cols])
    fixed = np.flatnonzero(h.fixed)
    return sp.coo_matrix(
        (
            np.concatenate([data[keep], np.ones(len(fixed))]),
            (np.concatenate([rows[keep], fixed]), np.concatenate([cols[keep], fixed])),
        ),
        shape=h.shape,
    )


@pytest.mark.parametrize("geometry", list(KERNEL_MESHES))
def test_csr_hessian_matches_scipy_conversion(geometry):
    cfg, mesh, current = plan_config(geometry)
    h = hessian(cfg, mesh, current)
    ref = scipy_entries(h).tocsr()
    assert isinstance(h.nnz, int)
    p = h.penalty
    assert h.nnz == h.diag.size + h.off.size + p.gram.data.size + p.factors.size
    assert h.shape == ref.shape == (mesh.dim * mesh.num_nodes,) * 2
    # Sums in another order: rounding bounded by the sums of |entries|.
    # (scipy's abs() would sum the duplicates first.)
    magnitude = scipy_entries(h, magnitude=True)
    bound = 1e-14 * magnitude.toarray()
    assert np.all(np.abs(h.toarray() - ref.toarray()) <= bound)
    assert np.all(np.abs(h.diagonal() - ref.diagonal()) <= bound.diagonal())
    x = random_vector(h, 6)
    assert np.all(np.abs(h @ x - ref @ x) <= 1e-14 * (magnitude @ np.abs(x)))


def test_hessian_stores_the_diagonal_of_a_node_in_no_element():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    mesh = Mesh(
        mesh.dim, mesh.order, mesh.geometry, mesh.connectivity, mesh.attributes,
        mesh.boundary, num_nodes=mesh.num_nodes + 1,
    )
    nodes = NodeField.from_matrix(np.vstack([nodes.as_matrix(), [[0.5, 0.5]]]))
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "ideal-shape-unit-size"))
    current = perturbed(mesh, nodes, seed=3)
    h = hessian(cfg, mesh, current)
    unused = [mesh.num_nodes - 1, 2 * mesh.num_nodes - 1]
    x = random_vector(h, 8)
    # Nothing couples the unused node: zero rows, zero diagonal.
    assert not np.any((h @ x)[unused])
    assert not np.any(h.diagonal()[unused])
    assert np.allclose(h @ x, h.toarray() @ x, rtol=1e-14, atol=1e-14)
    grad = gradient(cfg, mesh, current)
    step = newton_step(h, grad)
    # This free mesh's Hessian has two negative eigenvalues (about
    # -1.4e-3), so MINRES stops at negative curvature.
    assert step.kind == "newton-npc" and np.all(np.isfinite(step.direction))
    assert not np.any(step.direction[unused])


def test_plan_follows_a_new_mask():
    cfg, mesh, current = plan_config("quad")
    hessian(cfg, mesh, current)
    cfg.fixed_mask = boundary_fixed_mask(mesh)
    want = coo_reference_hessian(cfg, mesh, current)
    h = hessian(cfg, mesh, current)
    assert rel_err(h.toarray(), want) < 1e-12
    x = random_vector(h, 9)
    assert rel_err(h @ x, want @ x) < 1e-12
    assert rel_err(h.diagonal(), want.diagonal()) < 1e-12
