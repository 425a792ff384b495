"""Total objective assembly: values, gradients, Hessians, masking."""

import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import tmopfit.mesh
from tmopfit import quality
from tmopfit.errors import NonpositiveDeterminantError
from tmopfit.fields import AnalyticLevelSet
from tmopfit.fitting import MarkedSet, make_penalty, penalty_hessian
from tmopfit.mesh import (
    Mesh,
    NodeField,
    element_chunks,
    element_volumes,
    is_valid,
    make_cartesian,
)
from tmopfit.objective import (
    ObjectiveConfig,
    boundary_fixed_mask,
    fix_nodes,
    gradient,
    hessian,
    value,
)
from tmopfit.quality import METRIC_IDS, make_targets, metric_batch
from tmopfit.reference import quadrature_for
from tmopfit.solver import newton_step


def perturbed(mesh, nodes, seed=0, amplitude=0.02):
    rng = np.random.default_rng(seed)
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    mat = nodes.as_matrix().copy()
    mat[interior] += amplitude * rng.uniform(-1, 1, (len(interior), mesh.dim))
    return NodeField.from_matrix(mat)


def test_uniform_mesh_zero_objective():
    mesh, nodes = make_cartesian(2, 4, 2, "quad")
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "unit"))
    f, f_mu, f_sigma = value(cfg, mesh, nodes)
    assert abs(f) < 1e-13 and f_sigma == 0.0


def test_displaced_mesh_positive_objective():
    mesh, nodes = make_cartesian(2, 4, 2, "quad")
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "unit"))
    f, _, _ = value(cfg, mesh, perturbed(mesh, nodes, seed=1))
    assert f > 0.0


def test_report_additivity_and_fields():
    mesh, nodes = make_cartesian(2, 3, 1, "quad")
    targets = make_targets(mesh, nodes, "initial-size")
    ls = AnalyticLevelSet(
        "composite", 2,
        lambda p: p[:, 1] - 0.47,
        lambda p: np.tile([0.0, 1.0], (len(p), 1)),
        lambda p: np.zeros((len(p), 2, 2)),
    )
    marked = MarkedSet(np.array([5, 6, 7]))
    penalty = make_penalty(3.0, ls, mesh, nodes, targets)
    cfg = ObjectiveConfig("mu80", targets, penalty=penalty, marked=marked)
    current = perturbed(mesh, nodes, seed=2)
    f, f_mu, f_sigma = value(cfg, mesh, current)
    assert f_sigma > 0.0 and f_mu > 0.0
    assert abs(f - (f_mu + f_sigma)) < 1e-14 * max(1.0, abs(f))
    assert np.linalg.norm(gradient(cfg, mesh, current)) > 0.0


def test_gradient_zero_at_uniform_mesh():
    mesh, nodes = make_cartesian(2, 4, 1, "quad")
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "unit"))
    assert np.abs(gradient(cfg, mesh, nodes)).max() < 1e-12


def test_gradient_matches_fd_at_random_meshes():
    rng = np.random.default_rng(3)
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    targets = make_targets(mesh, nodes, "initial-size")
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
        "mu80", make_targets(mesh, nodes, "initial-size"), fixed_mask=mask
    )
    g = gradient(cfg, mesh, perturbed(mesh, nodes, seed=4))
    assert np.abs(g[mask]).max() == 0.0


def test_hessian_symmetric_and_matches_fd():
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    targets = make_targets(mesh, nodes, "initial-size")
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
    targets = make_targets(mesh, nodes, "unit")
    ls = AnalyticLevelSet(
        "composite", 2, lambda p: p[:, 0] - 0.4,
        lambda p: np.tile([1.0, 0.0], (len(p), 1)),
        lambda p: np.zeros((len(p), 2, 2)),
    )
    off = make_penalty(0.0, ls, mesh, nodes, targets)
    marked = MarkedSet(np.array([4]))
    cfg_plain = ObjectiveConfig("mu2", targets)
    cfg_off = ObjectiveConfig("mu2", targets, penalty=off, marked=marked)
    current = perturbed(mesh, nodes, seed=6)
    h1 = hessian(cfg_plain, mesh, current).toarray()
    h2 = hessian(cfg_off, mesh, current).toarray()
    assert np.array_equal(h1, h2)


def test_masked_hessian_rows_are_identity():
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    mask = boundary_fixed_mask(mesh)
    cfg = ObjectiveConfig(
        "mu80", make_targets(mesh, nodes, "initial-size"), fixed_mask=mask
    )
    h = hessian(cfg, mesh, perturbed(mesh, nodes, seed=7)).toarray()
    fixed = np.flatnonzero(mask)
    free = np.flatnonzero(~mask)
    assert np.abs(h[np.ix_(fixed, free)]).max() == 0.0
    assert np.allclose(h[fixed, fixed], 1.0)


def test_translation_invariance_and_gradient_sum():
    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    targets = make_targets(mesh, nodes, "initial-size")
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
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "unit"))
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
    """F_mu, its gradient and its Hessian one element at a time."""
    quad = quadrature_for(mesh.geometry, mesh.order)
    _, ref_grads = mesh.basis.eval_with_grad(quad.points)
    nnod, dim = mesh.num_nodes, mesh.dim
    f = 0.0
    grad = np.zeros(dim * nnod)
    hess = np.zeros((dim * nnod, dim * nnod))
    for e in range(mesh.num_elements):
        coords = nodes.as_matrix()[mesh.connectivity[e]]
        a = np.einsum("id,qib->qdb", coords, ref_grads)
        t = a @ cfg.targets.winv[e]
        vals, dmu, d2mu = metric_batch(cfg.metric_id, t, cfg.gamma)
        wdet = quad.weights * cfg.targets.detw[e]
        dhat = np.einsum("qib,be->qie", ref_grads, cfg.targets.winv[e])
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


def kernel_config(metric_id, geometry):
    dim, n_cells, order = KERNEL_MESHES[geometry]
    mesh, nodes = make_cartesian(dim, n_cells, order, geometry)
    targets = make_targets(mesh, nodes, "initial-size")
    current = perturbed(mesh, nodes, seed=9, amplitude=0.05 / order)
    return ObjectiveConfig(metric_id, targets), mesh, current


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("geometry", list(KERNEL_MESHES))
@pytest.mark.parametrize("metric_id", METRIC_IDS)
def test_kernel_matches_per_element_loop(metric_id, geometry):
    cfg, mesh, current = kernel_config(metric_id, geometry)
    f_ref, g_ref, h_ref = reference_assembly(cfg, mesh, current)
    assert rel_err(value(cfg, mesh, current)[1], f_ref) < 1e-12
    assert rel_err(gradient(cfg, mesh, current), g_ref) < 1e-12
    assert rel_err(hessian(cfg, mesh, current).toarray(), h_ref) < 1e-12


@pytest.mark.parametrize("geometry", ["triangle", "hex"])
def test_one_element_chunks_match_default(monkeypatch, geometry):
    cfg, mesh, current = kernel_config("mu80", geometry)
    assert len(element_chunks(mesh)) < mesh.num_elements
    default = (
        value(cfg, mesh, current),
        gradient(cfg, mesh, current),
        hessian(cfg, mesh, current).toarray(),
        is_valid(mesh, current),
        element_volumes(mesh, current),
    )
    monkeypatch.setattr(tmopfit.mesh, "_CHUNK_POINTS", 1)
    assert len(element_chunks(mesh)) == mesh.num_elements
    single = (
        value(cfg, mesh, current),
        gradient(cfg, mesh, current),
        hessian(cfg, mesh, current).toarray(),
        is_valid(mesh, current),
        element_volumes(mesh, current),
    )
    for got, want in zip(single, default):
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


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
    assert len(calls) == len(element_chunks(mesh))


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


def coo_reference_hessian(cfg, mesh, nodes):
    """F_mu from the per-element loop plus the penalty COO, summed by
    scipy, symmetrized, then masked rows/columns replaced by identity."""
    _, _, h_mu = reference_assembly(cfg, mesh, nodes)
    h_sigma = penalty_hessian(cfg.penalty, cfg.marked, mesh, nodes, cfg.targets)
    h = sp.coo_matrix(h_mu) + sp.csr_matrix(
        (h_sigma.data, (h_sigma.row, h_sigma.col)), shape=h_mu.shape
    )
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
        "composite", dim,
        lambda p: (p**2).sum(axis=1) - 0.3,
        lambda p: 2 * p,
        lambda p: np.tile(2 * np.eye(dim), (len(p), 1, 1)),
    )
    marked = MarkedSet(rng.choice(mesh.num_nodes, mesh.num_nodes // 3, replace=False))
    cfg.penalty = make_penalty(5.0, ls, mesh, current, cfg.targets)
    cfg.marked = marked
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
    monkeypatch.setattr(tmopfit.mesh, "_CHUNK_POINTS", 1)
    single = hessian(cfg, mesh, current)
    assert np.array_equal(single.toarray(), single.toarray().T)
    assert np.array_equal(single.dofs, default.dofs)
    atol = 1e-13 * np.abs(default.blocks).max()
    assert np.allclose(single.blocks, default.blocks, rtol=1e-13, atol=atol)


def scipy_entries(h, magnitude=False):
    """The operator's stored entries (or their moduli) as an unsummed scipy
    COO matrix with the fixed rows and columns replaced by identity ones."""
    rows = np.broadcast_to(h.dofs[:, :, None], h.blocks.shape).ravel()
    cols = np.broadcast_to(h.dofs[:, None, :], h.blocks.shape).ravel()
    data = [h.blocks.ravel()]
    if h.penalty is not None:
        rows, cols = np.concatenate([rows, h.penalty.row]), np.concatenate([cols, h.penalty.col])
        data.append(h.penalty.data)
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
    assert h.nnz == h.blocks.size + len(h.penalty.data)
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
    cfg = ObjectiveConfig("mu2", make_targets(mesh, nodes, "unit"))
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
    assert step.kind == "newton" and np.all(np.isfinite(step.direction))
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
