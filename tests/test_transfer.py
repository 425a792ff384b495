"""Point location and field transfer between meshes."""

import dataclasses
import re

import numpy as np
import pytest

from tmopfit import transfer
from tmopfit.errors import TransferFailureError
from tmopfit.fields import AnalyticLevelSet, project
from tmopfit.mesh import Mesh, NodeField, make_cartesian
from tmopfit.reference import GEOMETRY_DIM, NodalBasis
from tmopfit.transfer import (
    build_index,
    candidate_elements,
    interpolate,
    locate,
    locate_many,
    locate_points,
    transfer_field,
)

# (cells per axis, order) of the meshes used per geometry.
GEOMETRY_MESHES = {"quad": (4, 3), "triangle": (4, 3), "hex": (3, 2), "tet": (2, 2)}


def poly_ls(dim, order, seed=0):
    rng = np.random.default_rng(seed)
    lin = rng.uniform(-1, 1, dim)
    quad_c = rng.uniform(-0.5, 0.5, dim) if order >= 2 else np.zeros(dim)

    def fn(p):
        return 0.2 + p @ lin + (p**2) @ quad_c

    return AnalyticLevelSet("composite", dim, fn, lambda p: None), fn


def smooth_motion(mesh, nodes, amplitude=0.02):
    mat = nodes.as_matrix().copy()
    bump = amplitude * np.prod(np.sin(np.pi * mat), axis=1)
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    mat[interior, 0] += bump[interior]
    mat[interior, 1] -= bump[interior]
    return NodeField.from_matrix(mat)


def test_single_element_box_covers_element():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    index = build_index(mesh, nodes)
    assert np.all(index.boxes[0, 0] <= 0.0)
    assert np.all(index.boxes[0, 1] >= 1.0)


def test_candidate_list_small_at_domain_center():
    mesh, nodes = make_cartesian(2, 8, 1, "quad")
    index = build_index(mesh, nodes)
    cands = candidate_elements(index, np.array([0.5, 0.5]))
    assert 1 <= len(cands) <= 4


def test_curved_element_box_contains_nodes():
    mesh, nodes = make_cartesian(2, 2, 3, "quad")
    curved = smooth_motion(mesh, nodes, amplitude=0.05)
    index = build_index(mesh, curved)
    pts = curved.as_matrix()
    for e in range(mesh.num_elements):
        coord = pts[mesh.connectivity[e]]
        assert np.all(coord >= index.boxes[e, 0] - 1e-12)
        assert np.all(coord <= index.boxes[e, 1] + 1e-12)


def test_locate_identity_element():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    index = build_index(mesh, nodes)
    loc = locate(index, mesh, nodes, np.array([0.25, 0.75]))
    assert loc.status == "interior" and loc.element == 0
    assert np.allclose(loc.ref, [0.25, 0.75], atol=1e-12)


def test_locate_shared_vertex():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    index = build_index(mesh, nodes)
    loc = locate(index, mesh, nodes, np.array([0.5, 0.5]))
    assert loc.status == "interior"
    pos = mesh.basis.eval(loc.ref) @ nodes.as_matrix()[mesh.connectivity[loc.element]]
    assert np.allclose(pos, [[0.5, 0.5]], atol=1e-12)
    # the reference coordinates land on a corner of that element
    assert np.all((np.abs(loc.ref) < 1e-9) | (np.abs(loc.ref - 1) < 1e-9))


def test_locate_outside_domain():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    index = build_index(mesh, nodes)
    loc = locate(index, mesh, nodes, np.array([1.1, 0.5]))
    assert loc.status == "not-found"
    assert loc.distance > 0.05


def random_ref(rng, geometry):
    ref = rng.random(GEOMETRY_DIM[geometry])
    if geometry in ("triangle", "tet"):
        ref /= max(1.0, ref.sum())
    return ref


@pytest.mark.parametrize("geometry", list(GEOMETRY_MESHES))
def test_locate_roundtrip_200_random_points(geometry):
    n_cells, order = GEOMETRY_MESHES[geometry]
    mesh, nodes = make_cartesian(GEOMETRY_DIM[geometry], n_cells, order, geometry)
    moved = smooth_motion(mesh, nodes)
    index = build_index(mesh, moved)
    rng = np.random.default_rng(17)
    pairs = [(rng.integers(mesh.num_elements), random_ref(rng, geometry)) for _ in range(200)]
    elements, refs = map(np.array, zip(*pairs))
    coords = moved.as_matrix()[mesh.connectivity]
    points = np.einsum("pk,pkd->pd", mesh.basis.eval(refs), coords[elements])
    batch = locate_points(index, mesh, moved, points)
    assert np.all(batch.status == "interior")
    for i, p in enumerate(points):
        loc = locate(index, mesh, moved, p)
        assert loc.status == "interior"
        assert loc.element == batch.element[i]
        assert np.allclose(loc.ref, batch.ref[i], atol=1e-12)
    back = np.einsum("pk,pkd->pd", mesh.basis.eval(batch.ref), coords[batch.element])
    assert np.linalg.norm(back - points, axis=1).max() < 1e-10


@pytest.mark.parametrize("geometry", list(GEOMETRY_MESHES))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_interpolation_reproduces_polynomials(order, geometry):
    dim = GEOMETRY_DIM[geometry]
    mesh, nodes = make_cartesian(dim, 3 if dim == 2 else 2, order, geometry)
    ls, fn = poly_ls(dim, order, seed=order)
    sigma = project(ls, mesh, nodes)
    index = build_index(mesh, nodes)
    rng = np.random.default_rng(23)
    queries = rng.random((60, dim))
    got = interpolate(sigma, nodes, index, queries)
    assert np.abs(got - fn(queries)).max() < 1e-10


def test_interpolation_at_nodes_returns_coefficients():
    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    rng = np.random.default_rng(29)
    from tmopfit.fields import ScalarField

    sigma = ScalarField(mesh, rng.standard_normal(mesh.num_nodes))
    index = build_index(mesh, nodes)
    got = interpolate(sigma, nodes, index, nodes.as_matrix())
    assert np.abs(got - sigma.coefficients).max() < 1e-12


def test_identity_transfer_preserves_coefficients():
    mesh, nodes = make_cartesian(2, 4, 3, "quad")
    ls, _ = poly_ls(2, 3, seed=2)
    sigma = project(ls, mesh, nodes)
    moved = transfer_field(sigma, nodes, mesh, nodes)
    assert np.abs(moved.coefficients - sigma.coefficients).max() < 1e-12


def test_transfer_polynomial_exact_under_motion():
    mesh, nodes = make_cartesian(2, 4, 2, "quad")
    ls, fn = poly_ls(2, 2, seed=3)
    sigma = project(ls, mesh, nodes)
    moved_nodes = smooth_motion(mesh, nodes)
    moved = transfer_field(sigma, nodes, mesh, moved_nodes)
    exact = fn(moved_nodes.as_matrix())
    assert np.abs(moved.coefficients - exact).max() < 1e-10


def test_transfer_error_decreases_under_refinement():
    # Non-polynomial field: nodal transfer error behaves like the
    # interpolation error and shrinks with h.
    from tmopfit.levelsets import sphere

    ls = sphere((0.5, 0.5))
    errors = []
    for n in (4, 8, 16):
        mesh, nodes = make_cartesian(2, n, 3, "quad")
        sigma = project(ls, mesh, nodes)
        moved_nodes = smooth_motion(mesh, nodes, amplitude=0.01)
        moved = transfer_field(sigma, nodes, mesh, moved_nodes)
        exact = ls.values(moved_nodes.as_matrix())
        errors.append(np.abs(moved.coefficients - exact).max())
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]


def test_locate_many_raises_on_missing_points():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    index = build_index(mesh, nodes)
    with pytest.raises(TransferFailureError) as err:
        locate_many(index, mesh, nodes, np.array([[0.5, 0.5], [3.0, 3.0]]))
    assert len(err.value.points) == 1


def test_marginally_outside_point_is_projected():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    index = build_index(mesh, nodes)
    loc = locate(index, mesh, nodes, np.array([1.0 + 5e-9, 0.5]))
    assert loc.status in ("interior", "boundary-projected")
    pos = mesh.basis.eval(loc.ref) @ nodes.as_matrix()[mesh.connectivity[loc.element]]
    assert np.linalg.norm(pos - [1.0, 0.5]) < 1e-8


def test_locate_points_counts():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    index = build_index(mesh, nodes)
    points = np.array([[0.25, 0.25], [0.5, 0.5], [1.0 + 5e-9, 0.5], [3.0, 3.0]])
    loc = locate_points(index, mesh, nodes, points)
    # Candidates per point: 1, 4 (shared vertex), 2, 0 (outside every box).
    # The projected and the outside point both miss the grid candidates.
    assert loc.counts == {"points": 4, "pairs": 7, "fallback": 2, "projected": 1}
    assert list(loc.status) == [
        "interior", "interior", "boundary-projected", "not-found"
    ]
    assert loc.distance[0] == 0.0 and 0.0 < loc.distance[2] < 1e-8


def emptied_grid(index):
    return dataclasses.replace(
        index,
        cell_start=np.zeros_like(index.cell_start),
        cell_elems=np.empty(0, dtype=int),
    )


@pytest.mark.parametrize("geometry", ["quad", "triangle"])
def test_fallback_sweep_matches_grid_pass(geometry):
    mesh, nodes = make_cartesian(2, 4, 2, geometry)
    moved = smooth_motion(mesh, nodes)
    index = build_index(mesh, moved)
    rng = np.random.default_rng(31)
    pairs = [(rng.integers(mesh.num_elements), random_ref(rng, geometry)) for _ in range(40)]
    elements, refs = map(np.array, zip(*pairs))
    coords = moved.as_matrix()[mesh.connectivity[elements]]
    random_points = np.einsum("pk,pkd->pd", mesh.basis.eval(refs), coords)
    points = np.vstack([[[0.5, 0.5], [0.25, 0.75]], random_points])  # shared vertices first
    grid = locate_points(index, mesh, moved, points)
    sweep = locate_points(emptied_grid(index), mesh, moved, points)
    assert grid.counts["fallback"] == 0
    assert sweep.counts["pairs"] == 0 and sweep.counts["fallback"] == len(points)
    assert np.array_equal(sweep.element, grid.element)
    assert np.abs(sweep.ref - grid.ref).max() < 1e-12
    assert np.all(sweep.status == "interior")


def count_basis_calls(monkeypatch, calls):
    """Append (method, number of points) to calls for every basis evaluation."""
    for name in ("eval", "eval_with_grad"):
        original = getattr(NodalBasis, name)

        def counting(self, points, name=name, original=original):
            calls.append((name, len(points)))
            return original(self, points)

        monkeypatch.setattr(NodalBasis, name, counting)


def newton_by_halving(basis, coords, points, owner=None, accept=0.0):
    """transfer._newton with gradients carried from each accepted trial
    point and one basis evaluation per step halving (reference loop)."""
    n = len(points)
    ref = np.tile(basis.center, (n, 1))
    vals, grads = basis.eval_with_grad(ref)
    res = np.einsum("pk,pkd->pd", vals, coords) - points
    res_norm = np.linalg.norm(res, axis=1)
    stop = 1e-14 * np.maximum(1.0, np.abs(coords).max(axis=(1, 2)))
    active = np.ones(n, dtype=bool)
    if owner is not None:
        owner = np.unique(owner, return_inverse=True)[1]
        rows, last_row = np.arange(n), np.full(owner[-1] + 1, n)
    for _ in range(transfer._MAX_ITER):
        active &= res_norm != 0.0
        if owner is not None:
            hit = np.flatnonzero(res_norm <= accept)
            hit_owner, first = np.unique(owner[hit], return_index=True)
            last_row[hit_owner] = hit[first]
            active &= rows <= last_row[owner]
        jac = np.einsum("pkd,pkb->pdb", coords[active], grads[active])
        solvable = np.abs(np.linalg.det(jac)) > 0.0
        active[np.flatnonzero(active)[~solvable]] = False
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        step = np.linalg.solve(jac[solvable], -res[idx][..., None])[..., 0]
        for _ in range(transfer._MAX_HALVINGS):
            trial = basis.clamp(ref[idx] + step)
            tvals, tgrads = basis.eval_with_grad(trial)
            tres = np.einsum("pk,pkd->pd", tvals, coords[idx]) - points[idx]
            tnorm = np.linalg.norm(tres, axis=1)
            better = tnorm < res_norm[idx]
            done = idx[better]
            ref[done], res[done] = trial[better], tres[better]
            res_norm[done], grads[done] = tnorm[better], tgrads[better]
            idx, step = idx[~better], 0.5 * step[~better]
            if not len(idx):
                break
        active[idx] = False
        active &= res_norm > stop
    return ref, res_norm


@pytest.mark.parametrize("geometry", list(GEOMETRY_MESHES))
def test_batched_halvings_match_halving_one_step_at_a_time(geometry):
    # Every point against every element: most pairs lie outside their
    # element, so many steps are clamped and halved.
    n_cells, order = GEOMETRY_MESHES[geometry]
    mesh, nodes = make_cartesian(GEOMETRY_DIM[geometry], n_cells, order, geometry)
    moved = smooth_motion(mesh, nodes)
    points = moved.as_matrix()[::7]
    owner = np.repeat(np.arange(len(points)), mesh.num_elements)
    elements = np.tile(np.arange(mesh.num_elements), len(points))
    coords = moved.as_matrix()[mesh.connectivity[elements]]
    for args in ((), (owner, 1e-10)):
        expected = newton_by_halving(mesh.basis, coords, points[owner], *args)
        got = transfer._newton(mesh.basis, coords, points[owner], *args)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


def test_small_newton_chunks_give_the_same_locations(monkeypatch):
    mesh, nodes = make_cartesian(2, 4, 2, "triangle")
    moved = smooth_motion(mesh, nodes)
    index = build_index(mesh, moved)
    points = np.vstack([moved.as_matrix()[::3], [[1.0 + 5e-9, 0.5], [3.0, 3.0]]])
    calls, default_chunk = [], transfer._CHUNK
    count_basis_calls(monkeypatch, calls)
    # Chunks that split the candidates, the sweep of single points and every
    # batch of halved steps: 13 // (_MAX_HALVINGS - 1) = 1 row per batch.
    for idx in (index, emptied_grid(index)):
        monkeypatch.setattr(transfer, "_CHUNK", default_chunk)
        whole = locate_points(idx, mesh, moved, points)
        monkeypatch.setattr(transfer, "_CHUNK", 13)
        calls.clear()
        chunked = locate_points(idx, mesh, moved, points)
        assert max(n for _, n in calls) <= 13
        for key in ("element", "status", "distance"):
            assert np.array_equal(getattr(chunked, key), getattr(whole, key))
        assert np.array_equal(chunked.ref, whole.ref, equal_nan=True)


@pytest.mark.parametrize("geometry", ["quad", "triangle"])
def test_shared_vertex_resolves_to_first_accepted_candidate(geometry):
    mesh, nodes = make_cartesian(2, 2, 1, geometry)
    index = build_index(mesh, nodes)
    vertex = np.array([0.5, 0.5])
    cands = candidate_elements(index, vertex)
    assert len(cands) > 1 and cands == sorted(cands)
    # Element 0 has the vertex as a corner, so it is the first candidate
    # in cell order that accepts the point.
    loc = locate(index, mesh, nodes, vertex)
    assert loc.status == "interior" and loc.element == cands[0] == 0


def tiled_mesh(mesh, nodes, copies):
    """copies overlapping copies of a mesh, as one mesh."""
    conn = np.vstack([mesh.connectivity + c * mesh.num_nodes for c in range(copies)])
    tiled = Mesh(
        mesh.dim, mesh.order, mesh.geometry, conn,
        np.ones(len(conn), dtype=int), num_nodes=copies * mesh.num_nodes,
    )
    return tiled, NodeField.from_matrix(np.tile(nodes.as_matrix(), (copies, 1)))


def test_transfer_eval_calls_do_not_grow_with_points(monkeypatch):
    mesh, nodes = make_cartesian(2, 4, 2, "quad")
    ls, _ = poly_ls(2, 2, seed=5)
    sigma = project(ls, mesh, nodes)
    moved_nodes = smooth_motion(mesh, nodes)
    calls = []
    count_basis_calls(monkeypatch, calls)
    counts = []
    for copies in (1, 4):
        tiled, tiled_nodes = tiled_mesh(mesh, moved_nodes, copies)
        calls.clear()
        moved = transfer_field(sigma, nodes, tiled, tiled_nodes)
        assert len(moved.coefficients) == copies * mesh.num_nodes
        counts.append(len(calls))
    # Same points four times over: the same Newton batches, four times
    # taller, and no call per point.
    assert counts[0] == counts[1] < mesh.num_nodes


def check_newton_calls(calls):
    """Each _newton call evaluates values once.  Each of its iterations
    evaluates gradients once and values once for the full step, then the
    halved steps in batches of whole rows, every batch but the last full:
    three calls when the rows to halve fit in one batch of _CHUNK points."""
    scales = transfer._MAX_HALVINGS - 1
    full = transfer._CHUNK // scales * scales
    names = {"newton": "N", "eval": "v", "eval_with_grad": "G"}
    sequence = "".join(names[name] for name, _ in calls)
    assert re.fullmatch(r"(Nv(Gv*)*)+", sequence)
    for iteration in re.finditer(r"Gv(v*)", sequence):
        halved = [n for _, n in calls[iteration.start(1) : iteration.end(1)]]
        assert all(n == full for n in halved[:-1])
        assert all(0 < n <= full and n % scales == 0 for n in halved[-1:])


def test_newton_stops_pairs_that_cannot_be_chosen(monkeypatch):
    # The same locations as running every pair to its own stop, for fewer
    # evaluated basis points.
    full_newton = transfer._newton
    calls = []

    def located(idx, mesh, moved, points, newton):
        def marked(*args):
            calls.append(("newton", 0))
            return newton(*args)

        monkeypatch.setattr(transfer, "_newton", marked)
        calls.clear()
        loc = locate_points(idx, mesh, moved, points)
        check_newton_calls(calls)
        basis_calls = [n for name, n in calls if name != "newton"]
        return loc, len(basis_calls), sum(basis_calls)

    count_basis_calls(monkeypatch, calls)
    for geometry, sweep in (("quad", True), ("triangle", False), ("hex", False)):
        n_cells, order = GEOMETRY_MESHES[geometry]
        mesh, nodes = make_cartesian(GEOMETRY_DIM[geometry], n_cells, order, geometry)
        moved = smooth_motion(mesh, nodes)
        index = build_index(mesh, moved)
        if sweep:
            index = emptied_grid(index)
        rng = np.random.default_rng(17)
        # The points of test_locate_roundtrip_200_random_points.
        pairs = [(rng.integers(mesh.num_elements), random_ref(rng, geometry)) for _ in range(200)]
        elements, refs = map(np.array, zip(*pairs))
        coords = moved.as_matrix()[mesh.connectivity[elements]]
        points = np.einsum("pk,pkd->pd", mesh.basis.eval(refs), coords)
        every_pair = located(
            index, mesh, moved, points, lambda b, c, p, *_: full_newton(b, c, p)
        )
        pruned = located(index, mesh, moved, points, full_newton)
        for key in ("element", "ref", "status", "distance"):
            assert np.array_equal(getattr(pruned[0], key), getattr(every_pair[0], key))
        assert pruned[1] <= every_pair[1] and pruned[2] < every_pair[2]
