"""Point location and field transfer between meshes."""

import dataclasses
import re

import numpy as np
import pytest

from tmopfit import transfer
from tmopfit.errors import TransferFailureError
from tmopfit.fields import AnalyticLevelSet, ScalarField, project
from tmopfit.mesh import Mesh, NodeField, make_cartesian
from tmopfit.reference import GEOMETRY_DIM, NodalBasis, det_inv, quadrature_tables
from tmopfit.transfer import (
    DiscreteLevelSet,
    build_index,
    candidate_elements,
    locate,
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

    return AnalyticLevelSet(dim, fn, lambda p: None, lambda p: None), fn


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
    rng = np.random.default_rng(23)
    queries = rng.random((60, dim))
    got = DiscreteLevelSet(sigma, nodes).values(queries)
    assert np.abs(got - fn(queries)).max() < 1e-10


def test_interpolation_at_nodes_returns_coefficients():
    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    rng = np.random.default_rng(29)
    sigma = ScalarField(mesh, rng.standard_normal(mesh.num_nodes))
    got = DiscreteLevelSet(sigma, nodes).values(nodes.as_matrix())
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


def test_discrete_level_set_raises_on_missing_points():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    sigma = ScalarField(mesh, np.zeros(mesh.num_nodes))
    with pytest.raises(TransferFailureError) as err:
        DiscreteLevelSet(sigma, nodes).values(np.array([[0.5, 0.5], [3.0, 3.0]]))
    assert len(err.value.points) == 1
    assert np.array_equal(err.value.points[0], [3.0, 3.0])


def test_one_location_per_point_set(monkeypatch):
    # Value, gradient and Hessian queries at one point set share one
    # location; new points are located again.
    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    ls, _ = poly_ls(2, 2, seed=5)
    source = DiscreteLevelSet(project(ls, mesh, nodes), nodes)
    calls = []

    def counted(*args):
        calls.append(args[3])
        return locate_points(*args)

    monkeypatch.setattr(transfer, "locate_points", counted)
    points = np.random.default_rng(37).random((20, 2))
    source.values(points)
    source.gradients(points)
    source.hessians(points)
    source.values(points.copy())
    assert len(calls) == 1
    source.gradients(points[:10])
    assert len(calls) == 2


def test_transfer_evaluates_basis_gradients_only_in_newton(monkeypatch):
    # The transfer reads values only: every basis-gradient evaluation
    # during transfer_field comes from point location's Newton iteration.
    mesh, nodes = make_cartesian(2, 4, 3, "triangle")
    ls, fn = poly_ls(2, 3, seed=6)
    sigma = project(ls, mesh, nodes)
    moved_nodes = smooth_motion(mesh, nodes)
    depth, outside, inside = [0], [], []

    def in_newton(*args):
        depth[0] += 1
        try:
            return newton(*args)
        finally:
            depth[0] -= 1

    def eval_with_grad(self, ref):
        (inside if depth[0] else outside).append(len(ref))
        return basis_eval_with_grad(self, ref)

    newton, basis_eval_with_grad = transfer._newton, NodalBasis.eval_with_grad
    monkeypatch.setattr(transfer, "_newton", in_newton)
    monkeypatch.setattr(NodalBasis, "eval_with_grad", eval_with_grad)
    moved = transfer_field(sigma, nodes, mesh, moved_nodes)
    assert inside and not outside
    assert np.abs(moved.coefficients - fn(moved_nodes.as_matrix())).max() < 1e-10


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
    # Each of the two passes takes two Newton iterations: the elements are
    # affine, so one step lands on every point an element holds, and the
    # rows clamped at the boundary find no decrease in the second.
    assert loc.counts == {
        "points": 4, "pairs": 7, "fallback": 2, "projected": 1, "iterations": 4
    }
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


def newton_by_halving(basis, coords, points, owner, accept):
    """transfer._newton with gradients carried from each accepted trial
    point and one basis evaluation per step halving (reference loop).  Its
    Newton step is _newton's, through the same det_inv kernel: the test
    checks the batching, not the linear solver."""
    n = len(points)
    ref = np.tile(basis.center, (n, 1))
    vals, grads = basis.eval_with_grad(ref)
    res = np.einsum("pk,pkd->pd", vals, coords) - points
    res_norm = np.linalg.norm(res, axis=1)
    stop = 1e-14 * np.maximum(1.0, np.abs(coords).max(axis=(1, 2)))
    active = np.ones(n, dtype=bool)
    chosen, iterations = {}, 0
    for _ in range(transfer._MAX_ITER):
        active &= res_norm != 0.0
        # A point's first row to reach accept (first in row order on
        # ties) is chosen, and every other row of the point stops.
        for row in np.flatnonzero(res_norm <= accept):
            chosen.setdefault(owner[row], row)
        for row in range(n):
            if chosen.get(owner[row], row) != row:
                active[row] = False
        jac = np.einsum("pkd,pkb->pdb", coords[active], grads[active])
        det, inv = det_inv(jac)
        solvable = np.abs(det) > 0.0
        active[np.flatnonzero(active)[~solvable]] = False
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        iterations += 1
        step = -np.einsum("pab,pb->pa", inv[solvable], res[idx])
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
    return ref, res_norm, iterations


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
    # One owner per row runs every row to its own stop.
    for args in ((np.arange(len(owner)), 1e-10), (owner, 1e-10)):
        expected = newton_by_halving(mesh.basis, coords, points[owner], *args)
        got = transfer._newton(mesh.basis, coords, points[owner], *args)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        assert got[2] == expected[2]


def rows_per_point(owners):
    """Sorted (point, rows) of every _newton call, from each call's owner."""
    return sorted(
        (int(o), int(c)) for own in owners for o, c in zip(*np.unique(own, return_counts=True))
    )


def test_small_newton_chunks_give_the_same_locations(monkeypatch):
    # _CHUNK = 13 is below the candidate count of many tet points and the
    # 32 or 48 elements of the sweep, and gives 13 // (_MAX_HALVINGS - 1)
    # = 1 row per batch of halved steps.  The reference run takes each
    # pass in one Newton batch, whatever the default _CHUNK.
    full_newton, owners = transfer._newton, []

    def recording(basis, coords, points, owner, accept):
        owners.append(owner)
        return full_newton(basis, coords, points, owner, accept)

    monkeypatch.setattr(transfer, "_newton", recording)
    calls, whole_chunk = [], 1 << 20
    count_basis_calls(monkeypatch, calls)
    for geometry, n_cells in (("triangle", 4), ("tet", 2)):
        mesh, nodes = make_cartesian(GEOMETRY_DIM[geometry], n_cells, 2, geometry)
        moved = smooth_motion(mesh, nodes)
        index = build_index(mesh, moved)
        outside = np.array([[1.0 + 5e-9] + [0.5] * (mesh.dim - 1), [3.0] * mesh.dim])
        points = np.vstack([moved.as_matrix()[::3], outside])
        candidates = np.bincount(transfer._candidate_pairs(index, points)[0])
        assert geometry == "triangle" or candidates.max() > 13
        for idx in (index, emptied_grid(index)):
            monkeypatch.setattr(transfer, "_CHUNK", whole_chunk)
            owners.clear()
            whole = locate_points(idx, mesh, moved, points)
            whole_rows = rows_per_point(owners)
            assert len(owners) <= 2  # one Newton batch per pass
            monkeypatch.setattr(transfer, "_CHUNK", 13)
            owners.clear()
            calls.clear()
            chunked = locate_points(idx, mesh, moved, points)
            # Each point's rows of a pass stay in one Newton batch, which
            # holds more than _CHUNK rows only for a point with that many.
            assert rows_per_point(owners) == whole_rows
            widest = max(13, max(rows for _, rows in whole_rows))
            assert max(n for _, n in calls) <= widest
            for key in ("element", "status", "distance"):
                assert np.array_equal(getattr(chunked, key), getattr(whole, key))
            assert np.array_equal(chunked.ref, whole.ref, equal_nan=True)
            # "iterations" sums over the Newton batches, so it alone grows.
            del chunked.counts["iterations"], whole.counts["iterations"]
            assert chunked.counts == whole.counts


@pytest.mark.parametrize("geometry", ["quad", "triangle"])
def test_shared_vertex_tie_goes_to_first_candidate_in_cell_order(geometry):
    mesh, nodes = make_cartesian(2, 2, 1, geometry)
    index = build_index(mesh, nodes)
    vertex = np.array([0.5, 0.5])
    cands = candidate_elements(index, vertex)
    assert len(cands) > 1 and cands == sorted(cands)
    # The elements are affine, so every element with the vertex as a
    # corner accepts it after the same first Newton step; of these,
    # element 0 is the first candidate in cell order.
    loc = locate(index, mesh, nodes, vertex)
    assert loc.status == "interior" and loc.element == cands[0] == 0


@pytest.mark.parametrize("geometry", list(GEOMETRY_MESHES))
def test_affine_source_mesh_locates_in_few_newton_iterations(geometry, monkeypatch):
    # Every fit case starts from an affine mesh.  Its smoothly moved nodes
    # are each accepted by their element after the first Newton step,
    # which stops every other candidate of the point, including those
    # clamped on the reference boundary.  Stopping only the candidates
    # after the accepted one leaves those creeping on for 3 (hex) to all
    # 50 (tet) iterations on these meshes.  "iterations" sums over the
    # Newton batches, so the pairs are located in one batch.
    monkeypatch.setattr(transfer, "_CHUNK", 1 << 20)
    n_cells, order = GEOMETRY_MESHES[geometry]
    mesh, nodes = make_cartesian(GEOMETRY_DIM[geometry], n_cells, order, geometry)
    index = build_index(mesh, nodes)
    loc = locate_points(index, mesh, nodes, smooth_motion(mesh, nodes).as_matrix())
    assert np.all(loc.status == "interior") and loc.counts["fallback"] == 0
    assert loc.counts["pairs"] > loc.counts["points"]
    assert loc.counts["iterations"] <= 2 < transfer._MAX_ITER


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
    quadrature_tables(mesh.geometry, mesh.order)  # cached: its basis calls are not counted
    calls = []
    count_basis_calls(monkeypatch, calls)
    # Each pass in one Newton batch, so that the batches of the two meshes
    # match whatever the default _CHUNK.
    monkeypatch.setattr(transfer, "_CHUNK", 1 << 20)
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
    # Against running every pair to its own stop: the same location where
    # one candidate accepts the point; where several do (shared faces),
    # an interior location in one of them and the same field value; and
    # fewer evaluated basis points.
    from tmopfit.levelsets import sphere

    full_newton = transfer._newton
    calls, accepted_rows = [], []

    def every_pair(basis, coords, points, owner, accept):
        ref, res, iterations = full_newton(
            basis, coords, points, np.arange(len(points)), accept
        )
        accepted_rows.append(owner[res <= accept])
        return ref, res, iterations

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
        accepted_rows.clear()
        every = located(index, mesh, moved, points, every_pair)
        accepted = np.bincount(np.concatenate(accepted_rows), minlength=len(points))
        pruned = located(index, mesh, moved, points, full_newton)
        assert np.all(accepted >= 1)
        one = accepted == 1
        for key in ("element", "ref", "status", "distance"):
            assert np.array_equal(getattr(pruned[0], key)[one], getattr(every[0], key)[one])
        several = ~one
        assert np.all(pruned[0].status[several] == "interior")
        assert np.all(every[0].status[several] == "interior")
        element, ref = pruned[0].element[several], pruned[0].ref[several]
        image = np.einsum(
            "pk,pkd->pd", mesh.basis.eval(ref), moved.as_matrix()[mesh.connectivity[element]]
        )
        miss = np.linalg.norm(image - points[several], axis=1)
        assert np.all(miss <= transfer.ACCEPT_TOL * index.scale)
        field = project(sphere((0.4,) * mesh.dim), mesh, moved)

        def value(loc):
            coeff = field.coefficients[mesh.connectivity[loc.element[several]]]
            return np.einsum("pk,pk->p", mesh.basis.eval(loc.ref[several]), coeff)

        assert np.abs(value(pruned[0]) - value(every[0])).max(initial=0.0) <= 1e-13
        assert pruned[1] <= every[1] and pruned[2] < every[2]
