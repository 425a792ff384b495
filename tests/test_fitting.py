"""Marking and the fitting penalty."""

import numpy as np
import pytest

from tmopfit.errors import EmptyMarkedSetError
from tmopfit.fields import AnalyticLevelSet, project
from tmopfit.fitting import (
    MarkedSet,
    attributes_from_sign,
    make_penalty,
    mark_interface_nodes,
    penalty_gradient,
    penalty_hessian,
    penalty_value,
)
from tmopfit.levelsets import builtin_levelset, sphere
from tmopfit.mesh import NodeField, make_cartesian
from tmopfit.quality import make_targets
from tmopfit.reference import quadrature_for, quadrature_tables
from tmopfit.transfer import DiscreteLevelSet


def linear_ls(coeffs, offset):
    coeffs = np.asarray(coeffs, dtype=float)

    def fn(p):
        return p @ coeffs + offset

    def grad(p):
        return np.tile(coeffs, (len(p), 1))

    def hess(p):
        return np.zeros((len(p), len(coeffs), len(coeffs)))

    return AnalyticLevelSet(len(coeffs), fn, grad, hess)


def test_attribute_marking_two_element_mesh():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    # build a 2x1 strip by hand: two unit quads sharing an edge
    coords = np.array(
        [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]], dtype=float
    )
    from tmopfit.mesh import Mesh

    strip = Mesh(
        dim=2, order=1, geometry="quad",
        connectivity=np.array([[0, 1, 3, 4], [1, 2, 4, 5]]),
        attributes=np.array([1, 2]),
        num_nodes=6,
    )
    marked = mark_interface_nodes(strip, strip.attributes)
    assert list(marked.indices) == [1, 4]  # the shared-edge nodes


def test_attribute_marking_needs_two_attributes():
    mesh, _ = make_cartesian(2, 2, 1, "quad")
    with pytest.raises(EmptyMarkedSetError, match="no interface faces between differing"):
        mark_interface_nodes(mesh, mesh.attributes)


def test_sigma_sign_marking_forms_closed_loop():
    mesh, nodes = make_cartesian(2, 8, 2, "quad")
    sigma = project(builtin_levelset("sphere2d"), mesh, nodes)
    attrs = attributes_from_sign(mesh, sigma)
    marked = mark_interface_nodes(mesh, attrs)
    assert len(marked) > 8
    pts = nodes.as_matrix()[marked.indices]
    dist = np.linalg.norm(pts - 0.5, axis=1)
    # marked nodes hug the circle within one cell size
    assert np.all(np.abs(dist - 0.3) < 0.125 * np.sqrt(2.0))
    # each marked node's adjacent elements straddle the interface
    for node in marked.indices:
        touching = set(attrs[np.nonzero(mesh.connectivity == node)[0]])
        assert len(touching) == 2


def test_marked_set_is_sorted_unique():
    ids = np.random.default_rng(1).integers(0, 50, 80)
    assert np.array_equal(MarkedSet(ids).indices, np.unique(ids))
    assert MarkedSet([[7, 3], [7, 0]]).indices.tolist() == [0, 3, 7]
    with pytest.raises(EmptyMarkedSetError):
        MarkedSet(np.array([], dtype=int))


def unit_square_setup(weight=2.5, c=0.7):
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    targets = make_targets(mesh, nodes, "ideal-shape-unit-size")
    ls = linear_ls([-c, -c], c)  # value c at the origin corner
    marked = MarkedSet(np.array([0]))
    penalty = make_penalty(weight, ls, mesh, targets, marked)
    return mesh, nodes, targets, marked, penalty


def test_penalty_value_hand_integral():
    # sbar = c (1-x)(1-y) on the unit square: integral of sbar^2 is c^2/9.
    weight, c = 2.5, 0.7
    mesh, nodes, targets, marked, penalty = unit_square_setup(weight, c)
    got = penalty_value(penalty, nodes)
    assert abs(got - weight * c**2 / 9.0) < 1e-13


def test_penalty_zero_cases():
    mesh, nodes, targets, marked, _ = unit_square_setup()
    zero_ls = linear_ls([0.0, 0.0], 0.0)
    penalty0 = make_penalty(3.0, zero_ls, mesh, targets, marked)
    assert penalty_value(penalty0, nodes) == 0.0
    assert not penalty_gradient(penalty0, nodes).any()
    off = make_penalty(0.0, zero_ls, mesh, targets, marked)
    assert penalty_value(off, nodes) == 0.0


def fd_penalty_gradient(penalty, nodes, step=1e-7):
    out = np.zeros(len(nodes.coords))
    work = nodes.copy()
    for dof in range(len(out)):
        work.coords[dof] += step
        fp = penalty_value(penalty, work)
        work.coords[dof] -= 2 * step
        fm = penalty_value(penalty, work)
        work.coords[dof] += step
        out[dof] = (fp - fm) / (2 * step)
    return out


def dense(h, mesh):
    """Dense matrix of a PenaltyHessian over all dofs."""
    return h.toarray(mesh.dim * mesh.num_nodes)


def fd_penalty_hessian(penalty, nodes, step=1e-6):
    """Symmetrized columnwise central differences of penalty_gradient."""
    ndof = len(nodes.coords)
    out = np.zeros((ndof, ndof))
    work = nodes.copy()
    for dof in range(ndof):
        work.coords[dof] += step
        gp = penalty_gradient(penalty, work)
        work.coords[dof] -= 2 * step
        gm = penalty_gradient(penalty, work)
        work.coords[dof] += step
        out[:, dof] = (gp - gm) / (2 * step)
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("source_kind", ["analytic", "discrete"])
def test_penalty_gradient_matches_fd_random_configs(source_kind):
    rng = np.random.default_rng(42)
    for trial in range(10):
        geometry = ("quad", "triangle")[trial % 2]
        mesh, nodes = make_cartesian(2, 2, 2, geometry)
        lin = rng.uniform(-1, 1, 2)
        quad_c = rng.uniform(-0.5, 0.5, 2)

        def fn(p):
            return 0.1 + p @ lin + (p**2) @ quad_c

        def grad(p):
            return lin[None, :] + 2 * p * quad_c[None, :]

        analytic = AnalyticLevelSet(2, fn, grad, lambda p: None)
        interior = np.setdiff1d(
            np.arange(mesh.num_nodes), mesh.boundary_node_ids()
        )
        marked = MarkedSet(rng.choice(interior, size=4, replace=False))
        targets = make_targets(mesh, nodes, "ideal-shape-initial-size")
        if source_kind == "discrete":
            source = DiscreteLevelSet(project(analytic, mesh, nodes), nodes)
        else:
            source = analytic
        weight = rng.uniform(0.5, 3.0)
        penalty = make_penalty(weight, source, mesh, targets, marked)
        # perturb the interior a little, keeping the mesh valid
        mat = nodes.as_matrix().copy()
        mat[interior] += 0.02 * rng.uniform(-1, 1, (len(interior), 2))
        current = NodeField.from_matrix(mat)
        g = penalty_gradient(penalty, current)
        fd = fd_penalty_gradient(penalty, current)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(g - fd).max() / scale < 1e-5


def test_gradient_zero_when_marked_nodes_on_level_set():
    mesh, nodes = make_cartesian(2, 4, 1, "quad")
    ls = linear_ls([0.0, 1.0], -0.5)  # zero level set: y = 0.5
    targets = make_targets(mesh, nodes, "ideal-shape-unit-size")
    on_line = np.flatnonzero(np.abs(nodes.as_matrix()[:, 1] - 0.5) < 1e-12)
    marked = MarkedSet(on_line)
    penalty = make_penalty(100.0, ls, mesh, targets, marked)
    assert penalty_value(penalty, nodes) < 1e-28
    g = penalty_gradient(penalty, nodes)
    assert np.abs(g).max() < 1e-13


def test_radial_gradient_sign_outside_sphere():
    # A marked node beyond the radius is pushed inward (positive radial
    # gradient component).
    mesh, nodes = make_cartesian(2, 8, 1, "quad")
    ls = sphere((0.5, 0.5))
    targets = make_targets(mesh, nodes, "ideal-shape-unit-size")
    pts = nodes.as_matrix()
    node = int(np.argmin(np.abs(np.linalg.norm(pts - 0.5, axis=1) - 0.4)))
    marked = MarkedSet(np.array([node]))
    penalty = make_penalty(10.0, ls, mesh, targets, marked)
    g = penalty_gradient(penalty, nodes)
    radial = (pts[node] - 0.5) / np.linalg.norm(pts[node] - 0.5)
    g_node = np.array([g[node], g[mesh.num_nodes + node]])
    assert g_node @ radial > 0.0
    fd = fd_penalty_gradient(penalty, nodes)
    fd_node = np.array([fd[node], fd[mesh.num_nodes + node]])
    assert fd_node @ radial > 0.0


def test_penalty_monotone_as_node_descends_gradient():
    mesh, nodes = make_cartesian(2, 8, 1, "quad")
    ls = sphere((0.5, 0.5))
    targets = make_targets(mesh, nodes, "ideal-shape-unit-size")
    pts = nodes.as_matrix()
    node = int(np.argmin(np.abs(np.linalg.norm(pts - 0.5, axis=1) - 0.4)))
    marked = MarkedSet(np.array([node]))
    penalty = make_penalty(10.0, ls, mesh, targets, marked)
    values = []
    work = nodes.copy()
    for step in range(6):
        values.append(penalty_value(penalty, work))
        grad_dir = ls.gradients(work.as_matrix()[node][None, :])[0]
        mat = work.as_matrix().copy()
        mat[node] -= 0.015 * grad_dir
        work = NodeField.from_matrix(mat)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_penalty_hessian_symmetric_and_matches_fd():
    rng = np.random.default_rng(5)
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    lin = rng.uniform(-1, 1, 2)
    quad_c = rng.uniform(-0.5, 0.5, 2)
    ls = AnalyticLevelSet(
        2,
        lambda p: 0.1 + p @ lin + (p**2) @ quad_c,
        lambda p: lin[None, :] + 2 * p * quad_c[None, :],
        lambda p: np.tile(np.diag(2 * quad_c), (len(p), 1, 1)),
    )
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    marked = MarkedSet(interior[:5])
    targets = make_targets(mesh, nodes, "ideal-shape-unit-size")
    penalty = make_penalty(2.0, ls, mesh, targets, marked)
    h = dense(penalty_hessian(penalty, nodes), mesh)
    assert np.abs(h - h.T).max() < 1e-10
    h_fd = fd_penalty_hessian(penalty, nodes)
    denom = max(np.linalg.norm(h_fd), 1e-12)
    assert np.linalg.norm(h - h_fd) / denom < 1e-4


def test_zero_sigma_gives_zero_hessian():
    mesh, nodes, targets, marked, _ = unit_square_setup()
    zero_ls = linear_ls([0.0, 0.0], 0.0)
    penalty = make_penalty(3.0, zero_ls, mesh, targets, marked)
    h = dense(penalty_hessian(penalty, nodes), mesh)
    # first-derivative products vanish with the gradient, sbar term with sigma
    assert abs(h).max() < 1e-14


def test_normalization_refinement_invariance():
    # Constant sigma with every node marked: F_sigma is identical on the
    # n x n and 2n x 2n meshes.
    const = AnalyticLevelSet(
        2, lambda p: np.full(len(p), 0.3),
        lambda p: np.zeros_like(p),
        lambda p: np.zeros((len(p), 2, 2)),
    )
    values = []
    for n in (4, 8):
        mesh, nodes = make_cartesian(2, n, 2, "quad")
        targets = make_targets(mesh, nodes, "ideal-shape-unit-size")
        marked = MarkedSet(np.arange(mesh.num_nodes))
        penalty = make_penalty(7.0, const, mesh, targets, marked)
        values.append(penalty_value(penalty, nodes))
    assert abs(values[0] - values[1]) < 1e-10


def test_normalization_refinement_invariance_volumetric():
    const = AnalyticLevelSet(
        2, lambda p: np.full(len(p), 0.3),
        lambda p: np.zeros_like(p),
        lambda p: np.zeros((len(p), 2, 2)),
    )
    values = []
    for n in (4, 8):
        mesh, nodes = make_cartesian(2, n, 2, "quad")
        targets = make_targets(mesh, nodes, "ideal-shape-initial-size")
        marked = MarkedSet(np.arange(mesh.num_nodes))
        penalty = make_penalty(7.0, const, mesh, targets, marked)
        values.append(penalty_value(penalty, nodes))
    assert abs(values[0] - values[1]) < 1e-10


@pytest.mark.parametrize("dim, geometry", [(2, "triangle"), (2, "quad"), (3, "tet")])
def test_volumetric_normalization_is_the_domain_volume(dim, geometry):
    mesh, nodes = make_cartesian(dim, 2, 2, geometry)
    nodes = NodeField.from_matrix(1.5 * nodes.as_matrix())
    targets = make_targets(mesh, nodes, "ideal-shape-initial-size")
    ls = linear_ls(np.ones(dim), -0.5)
    penalty = make_penalty(1.0, ls, mesh, targets, MarkedSet(np.array([0])))
    assert abs(penalty.normalization - 1.5**dim) < 1e-12


def test_penalty_value_nonnegative():
    rng = np.random.default_rng(8)
    mesh, nodes = make_cartesian(2, 3, 1, "quad")
    targets = make_targets(mesh, nodes, "ideal-shape-unit-size")
    for _ in range(5):
        lin = rng.uniform(-1, 1, 2)
        ls = linear_ls(lin, rng.uniform(-0.5, 0.5))
        marked = MarkedSet(
            rng.choice(mesh.num_nodes, size=6, replace=False)
        )
        penalty = make_penalty(1.0, ls, mesh, targets, marked)
        assert penalty_value(penalty, nodes) >= 0.0


def test_penalty_config_validation():
    mesh, nodes, targets, marked, _ = unit_square_setup()
    ls = linear_ls([1.0, 0.0], 0.0)
    for weight in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            make_penalty(weight, ls, mesh, targets, marked)


def test_attributes_from_sign_match_per_element_loop():
    from tmopfit.cases import CASE_DEFAULTS

    for case in CASE_DEFAULTS.values():
        mesh, nodes = make_cartesian(
            case.dim, case.resolution, case.order, case.geometry
        )
        sigma = project(builtin_levelset(case.levelset), mesh, nodes)
        center_vals = mesh.basis.eval(mesh.basis.center[None, :])[0]
        loop = [
            1 if center_vals @ sigma.coefficients[conn] < 0.0 else 2
            for conn in mesh.connectivity
        ]
        attrs = attributes_from_sign(mesh, sigma)
        assert attrs.tolist() == loop
        assert 1 in loop and 2 in loop


# ---------------------------------------------------------------------------
# The Gram-matrix penalty against a per-element reference loop


def reference_penalty(penalty, mesh, nodes, targets):
    """F_sigma, its gradient and its dense Hessian one element at a time:
    the element integrals of sbar^2, their node moments and mass blocks."""
    marked = penalty.marked
    nnod, dim = mesh.num_nodes, mesh.dim
    basis_vals = quadrature_tables(mesh.geometry, mesh.order)[0]
    detw = targets.det(mesh.geometry)
    wdet = quadrature_for(mesh.geometry, mesh.order).weights * detw[:, None]
    pts = nodes.as_matrix()[marked.indices]
    sbar, g, h = np.zeros(nnod), np.zeros((nnod, dim)), np.zeros((nnod, dim, dim))
    sbar[marked.indices] = penalty.source.values(pts)
    g[marked.indices] = penalty.source.gradients(pts)
    h[marked.indices] = penalty.source.hessians(pts)
    c = penalty.weight / penalty.normalization
    f, grad, hess = 0.0, np.zeros(dim * nnod), np.zeros((dim * nnod, dim * nnod))
    for e, conn in enumerate(mesh.connectivity):
        local = np.flatnonzero(np.isin(conn, marked.indices))
        if not len(local):
            continue
        ids = conn[local]
        vals_q = basis_vals @ sbar[conn]
        f += c * wdet[e] @ vals_q**2
        phi = basis_vals[:, local]
        mass = (wdet[e][:, None] * phi).T @ phi
        moments = (wdet[e] * vals_q) @ phi
        for a in range(dim):
            grad[a * nnod + ids] += 2 * c * moments * g[ids, a]
            for b in range(dim):
                block = 2 * c * np.outer(g[ids, a], g[ids, b]) * mass
                block[np.diag_indices(len(ids))] += 2 * c * moments * h[ids, a, b]
                hess[np.ix_(a * nnod + ids, b * nnod + ids)] += block
    return f, grad, 0.5 * (hess + hess.T)


# geometry -> (dim, cells per axis, order)
PENALTY_MESHES = {
    "quad": (2, 2, 2), "triangle": (2, 2, 3), "hex": (3, 2, 2), "tet": (3, 1, 2),
}


def penalty_setup(geometry, source_kind, seed=0):
    """A perturbed mesh, a quadratic level set (analytic or discrete on the
    unperturbed mesh) and a random third of the nodes marked."""
    rng = np.random.default_rng(seed)
    dim, n_cells, order = PENALTY_MESHES[geometry]
    mesh, nodes = make_cartesian(dim, n_cells, order, geometry)
    lin, quad_c = rng.uniform(-1, 1, dim), rng.uniform(-0.5, 0.5, dim)
    analytic = AnalyticLevelSet(
        dim,
        lambda p: 0.1 + p @ lin + (p**2) @ quad_c,
        lambda p: lin + 2 * p * quad_c,
        lambda p: np.tile(np.diag(2 * quad_c), (len(p), 1, 1)),
    )
    source = analytic
    if source_kind == "discrete":
        source = DiscreteLevelSet(project(analytic, mesh, nodes), nodes)
    targets = make_targets(mesh, nodes, "ideal-shape-initial-size")
    weight = rng.uniform(0.5, 3.0)
    marked = MarkedSet(rng.choice(mesh.num_nodes, mesh.num_nodes // 3, replace=False))
    penalty = make_penalty(weight, source, mesh, targets, marked)
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    mat = nodes.as_matrix().copy()
    mat[interior] += 0.03 / order * rng.uniform(-1, 1, (len(interior), dim))
    return penalty, mesh, NodeField.from_matrix(mat), targets


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("source_kind", ["analytic", "discrete"])
@pytest.mark.parametrize("geometry", list(PENALTY_MESHES))
def test_penalty_matches_per_element_loop(geometry, source_kind):
    penalty, mesh, nodes, targets = penalty_setup(geometry, source_kind)
    f_ref, g_ref, h_ref = reference_penalty(penalty, mesh, nodes, targets)
    assert rel_err(penalty_value(penalty, nodes), f_ref) < 1e-12
    assert rel_err(penalty_gradient(penalty, nodes), g_ref) < 1e-12
    h = penalty_hessian(penalty, nodes)
    assert h._fields == ("dofs", "factors", "gram")
    m, dim = len(penalty.marked), mesh.dim
    assert h.dofs.shape == (dim, m) and h.factors.shape == (dim + 1, dim, m)
    assert h.gram is penalty.gram
    assert rel_err(dense(h, mesh), h_ref) < 1e-12
    # The factored product and diagonal at the marked dofs, which are the
    # only nonzero rows and columns.
    outside = np.setdiff1d(np.arange(len(h_ref)), h.dofs)
    assert not np.any(h_ref[outside])
    x = np.random.default_rng(1).standard_normal(len(h_ref))
    assert rel_err(h.apply(x[h.dofs]), (h_ref @ x)[h.dofs]) < 1e-12
    assert rel_err(h.diagonal(), h_ref.diagonal()[h.dofs]) < 1e-12


def test_penalty_hessian_factors_follow_the_nodes_on_a_shared_gram():
    penalty, _, nodes, _ = penalty_setup("quad", "analytic")
    first = penalty_hessian(penalty, nodes)
    moved = nodes.copy()
    moved.coords = nodes.coords * 0.99 + 0.005
    second = penalty_hessian(penalty, moved)
    assert np.array_equal(first.dofs, second.dofs)
    assert first.gram is second.gram is penalty.gram
    # Both factors move: sqrt(2c) g_i and 2c (M s)_i H_i.
    assert not np.any(np.all(first.factors == second.factors, axis=(1, 2)))
