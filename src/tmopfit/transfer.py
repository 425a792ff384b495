"""Point location, and FE fields on a frozen source mesh evaluated at
physical points.

Queries in physical space are mapped back to (element, reference
coordinate) pairs on the source mesh.  DiscreteLevelSet is the one
evaluator of a located field: the fitting penalty reads the discrete
level set through it while the mesh evolves, and transfer_field reads
it at the final nodes.  As in GSLIB findpts, all queries are
located together: a background grid (CSR arrays) gives each point its
candidate elements, one damped Newton iteration inverts the element map
on every (point, candidate) pair at once, and points no candidate
accepts go through a chunked sweep over all elements.  Each Newton
iteration evaluates basis gradients once; its trial points need values
only, with all step halvings of a row in one batch.  Each point gets
the first of its candidates to be accepted, ties broken in cell order,
else the smallest residual.
"""

from dataclasses import dataclass

import numpy as np

from .errors import TransferFailureError
from .fields import ScalarField, element_gradients, nodal_physical_gradients
from .reference import det_inv, quadrature_tables

ACCEPT_TOL = 1e-10  # residual / domain size for an interior point
PROJECT_TOL = 1e-8  # residual / domain size for a boundary projection
_INFLATE = 0.1  # element bounding boxes grow by this fraction of their size
_MAX_ITER = 50
_MAX_HALVINGS = 12
# (point, element) pairs per Newton batch, and trial points per batch of
# halved steps.  A batch holds coordinates, basis gradients and trial
# values for each of its pairs, so this bounds the memory of a location.
# At 512, the post-solve transfer of a warm run peaks at 1.94 MB on
# fit3d-hex at resolution 4 and 0.67 MB on fit2d-tri (tracemalloc), about
# half of what 1,024 took and under one Newton Hessian (3.29 MB and
# 1.02 MB), so the solve sets the run's high-water mark.  Locations do not
# depend on it; the Newton iterations summed over batches do.
_CHUNK = 512


@dataclass
class PointLocation:
    """Result of locating one physical point."""

    element: int
    ref: np.ndarray
    status: str  # "interior" | "boundary-projected" | "not-found"
    distance: float = 0.0


@dataclass
class PointLocations:
    """Result of locating a batch of points; row i describes point i.

    counts: "points", first-pass (point, candidate) "pairs", points sent
    to the "fallback" sweep over all elements, "projected" points, and
    Newton "iterations" summed over the Newton batches.
    """

    element: np.ndarray  # (n,) int; -1 when no element was tried
    ref: np.ndarray  # (n, dim); NaN where element is -1
    status: np.ndarray  # (n,) str, as PointLocation.status
    distance: np.ndarray  # (n,) residual; 0 for interior points
    counts: dict

    def __getitem__(self, i):
        e = int(self.element[i])
        ref = None if e < 0 else self.ref[i]
        return PointLocation(e, ref, str(self.status[i]), float(self.distance[i]))


@dataclass
class LocatorIndex:
    """Inflated per-element bounding boxes on a uniform background grid;
    grid cell c (C-order flat index) holds the element ids
    cell_elems[cell_start[c]:cell_start[c + 1]], in ascending order."""

    boxes: np.ndarray  # (num_elements, 2, dim): lo, hi
    grid_lo: np.ndarray
    grid_hi: np.ndarray
    grid_shape: tuple
    cell_start: np.ndarray  # (num_cells + 1,)
    cell_elems: np.ndarray
    scale: float  # characteristic domain size


def _grid_cells(x, grid_lo, grid_hi, n):
    """Per-axis background-grid cell of each row of x, clipped to the grid."""
    span = np.maximum(grid_hi - grid_lo, 1e-12)
    return np.clip(np.floor((x - grid_lo) / span * n).astype(int), 0, n - 1)


def _ragged_arange(counts):
    """Concatenation of arange(c) for each c in counts."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def build_index(mesh, node_field):
    """Bounding boxes from node and quadrature-point images, inflated."""
    vals = quadrature_tables(mesh.geometry, mesh.order)[0]
    coords = node_field.as_matrix()[mesh.connectivity]  # (E, K, dim)
    images = np.einsum("qk,ekd->eqd", vals, coords)
    samples = np.concatenate([coords, images], axis=1)
    lo, hi = samples.min(axis=1), samples.max(axis=1)
    pad = _INFLATE * np.maximum(hi - lo, 1e-12)
    boxes = np.stack([lo - pad, hi + pad], axis=1)
    grid_lo = boxes[:, 0, :].min(axis=0)
    grid_hi = boxes[:, 1, :].max(axis=0)
    n = max(1, int(round(mesh.num_elements ** (1.0 / mesh.dim))))
    lo_cell = _grid_cells(boxes[:, 0], grid_lo, grid_hi, n)
    extent = _grid_cells(boxes[:, 1], grid_lo, grid_hi, n) - lo_cell + 1
    # Expand axis by axis into (element, covered cell) pairs.
    elems, cell = np.arange(mesh.num_elements), np.zeros(mesh.num_elements, int)
    for a in range(mesh.dim):
        count = extent[elems, a]
        elems, cell = np.repeat(elems, count), np.repeat(cell * n, count)
        cell += lo_cell[elems, a] + _ragged_arange(count)
    order = np.argsort(cell, kind="stable")
    cell_start = np.zeros(n**mesh.dim + 1, dtype=int)
    cell_start[1:] = np.cumsum(np.bincount(cell, minlength=n**mesh.dim))
    scale = float(np.maximum(grid_hi - grid_lo, 1e-12).max())
    shape = (n,) * mesh.dim
    return LocatorIndex(boxes, grid_lo, grid_hi, shape, cell_start, elems[order], scale)


def _candidate_pairs(index, points):
    """(point, element) pairs from each point's grid cell whose inflated
    box holds the point, ordered by point and then by cell order."""
    cells = _grid_cells(points, index.grid_lo, index.grid_hi, index.grid_shape[0])
    cell = np.ravel_multi_index(tuple(cells.T), index.grid_shape)
    start = index.cell_start[cell]
    count = index.cell_start[cell + 1] - start
    pt = np.repeat(np.arange(len(points)), count)
    elem = index.cell_elems[np.repeat(start, count) + _ragged_arange(count)]
    box = index.boxes[elem]
    inside = np.all((points[pt] >= box[:, 0]) & (points[pt] <= box[:, 1]), axis=1)
    return pt[inside], elem[inside]


def candidate_elements(index, point):
    """Element ids whose inflated boxes may contain the point."""
    return _candidate_pairs(index, np.atleast_2d(point))[1].tolist()


def _residual(basis, trial, coords, points):
    """Residuals x(trial) - points, shape (R, S, dim), of the element maps
    at the S points trial[r] of each row r, and their norms (R, S)."""
    vals = basis.eval(trial.reshape(-1, basis.dim)).reshape(trial.shape[:2] + (-1,))
    res = np.einsum("rsk,rkd->rsd", vals, coords) - points[:, None]
    return res, np.linalg.norm(res, axis=2)


def _newton(basis, coords, points, owner, accept):
    """Damped Newton for the reference coordinates of each points[i] in
    the element with node coordinates coords[i], all rows at once.

    Returns (ref, residual_norm, iterations).  Iterates are clamped to
    the reference element.  An iteration evaluates basis gradients once,
    at the active rows' iterates, and trial points by values only: the
    full step, then, for rows it does not improve, all _MAX_HALVINGS - 1
    halved steps in batches of at most _CHUNK points; each row takes the
    first that reduces its residual, as halving one step at a time would.
    owner names the point of each row, with the rows of a point
    consecutive and in priority order.  Once a row has a residual
    <= accept, every other row of its point stops (residuals only
    decrease, so that row will be chosen) and it iterates on to its own
    stop; of rows accepted in the same iteration, the first is kept.
    """
    n = len(points)
    ref = np.tile(basis.center, (n, 1))
    res, res_norm = (r[:, 0] for r in _residual(basis, ref[:, None], coords, points))
    stop = 1e-14 * np.maximum(1.0, np.abs(coords).max(axis=(1, 2)))
    active = np.ones(n, dtype=bool)
    owner = np.unique(owner, return_inverse=True)[1]  # 0, 1, ... per point
    rows, chosen = np.arange(n), np.full(n, -1)  # chosen row per point
    halvings = 0.5 ** np.arange(1, _MAX_HALVINGS)  # exact: repeated halving
    per_batch = max(1, _CHUNK // len(halvings))

    def first_decrease(idx, step, scales):
        # Move each row to its first ref + scale * step that reduces the
        # residual; return the mask of rows that found none.
        trial = basis.clamp(ref[idx, None] + step[:, None] * scales[:, None])
        tres, tnorm = _residual(basis, trial, coords[idx], points[idx])
        better = tnorm < res_norm[idx, None]
        found = better.any(axis=1)
        pick = np.flatnonzero(found), better.argmax(axis=1)[found]
        done = idx[found]
        ref[done], res[done], res_norm[done] = trial[pick], tres[pick], tnorm[pick]
        return ~found

    iterations = 0
    for _ in range(_MAX_ITER):
        active &= res_norm != 0.0
        # The other rows of a point are stopped, so its first accepted
        # row stays the first in row order: assigning again keeps it.
        hit = np.flatnonzero(res_norm <= accept)
        hit_owner, first = np.unique(owner[hit], return_index=True)
        chosen[hit_owner] = hit[first]
        active &= (chosen[owner] < 0) | (chosen[owner] == rows)
        idx = np.flatnonzero(active)
        if not len(idx):
            break
        grads = basis.eval_with_grad(ref[idx])[1]
        jac = np.einsum("pkd,pkb->pdb", coords[idx], grads)
        det, inv = det_inv(jac)
        solvable = np.abs(det) > 0.0
        active[idx[~solvable]] = False
        idx = idx[solvable]
        if not len(idx):
            break
        iterations += 1
        step = -np.einsum("pab,pb->pa", inv[solvable], res[idx])
        missed = first_decrease(idx, step, np.ones(1))
        idx, step = idx[missed], step[missed]
        for s in range(0, len(idx), per_batch):
            part = slice(s, s + per_batch)
            active[idx[part][first_decrease(idx[part], step[part], halvings)]] = False
        active &= res_norm > stop
    return ref, res_norm, iterations


def _point_chunks(pt):
    """Slices of the point-sorted rows pt into runs of whole points of at
    most _CHUNK rows; a point with more rows forms its own run."""
    bounds = np.append(np.flatnonzero(np.diff(pt, prepend=-1)), len(pt))
    s = 0
    while s < len(pt):
        e = bounds[np.searchsorted(bounds, s + _CHUNK, side="right") - 1]
        e = e if e > s else bounds[np.searchsorted(bounds, s, side="right")]
        yield slice(s, e)
        s = e


def locate_points(index, mesh, node_field, points):
    """Find the element and reference coordinates of every point.

    Points within ACCEPT_TOL * scale of an element image are
    "interior"; slightly exterior points within PROJECT_TOL * scale of
    the domain are "boundary-projected" onto the nearest element point;
    the rest are "not-found".  Returns a PointLocations.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, num_elements = len(points), mesh.num_elements
    accept = ACCEPT_TOL * index.scale
    element, ref = np.full(n, -1), np.full((n, mesh.dim), np.nan)
    dist = np.full(n, np.inf)
    iterations = 0

    def search(pt, elem):
        # Per point, the first of its pairs to be accepted (first in pair
        # order on ties), else the smallest residual (first on ties) if it
        # beats the current one.  A Newton batch holds every pair of its
        # points, so _newton sees the point's whole candidate list and the
        # result does not depend on _CHUNK.
        nonlocal iterations
        for chunk in _point_chunks(pt):
            p, e = pt[chunk], elem[chunk]
            coords = node_field.as_matrix()[mesh.connectivity[e]]
            pair_ref, res, its = _newton(mesh.basis, coords, points[p], p, accept)
            iterations += its
            key = np.where(res <= accept, 0.0, res)
            order = np.lexsort((np.arange(len(p)), key, p))
            best = order[np.unique(p[order], return_index=True)[1]]
            best = best[(res[best] < dist[p[best]]) & (dist[p[best]] > accept)]
            q = p[best]
            element[q], ref[q], dist[q] = e[best], pair_ref[best], res[best]

    pt, elem = _candidate_pairs(index, points)
    search(pt, elem)
    fallback = np.flatnonzero(dist > accept)
    per_chunk = max(1, _CHUNK // num_elements)
    for s in range(0, len(fallback), per_chunk):
        f = fallback[s : s + per_chunk]
        search(np.repeat(f, num_elements), np.tile(np.arange(num_elements), len(f)))

    interior = dist <= accept
    projected = ~interior & (dist <= PROJECT_TOL * index.scale)
    status = np.select(
        [interior, projected], ["interior", "boundary-projected"], "not-found"
    )
    counts = {"points": n, "pairs": len(pt), "fallback": len(fallback),
              "projected": int(projected.sum()), "iterations": iterations}
    return PointLocations(element, ref, status, np.where(interior, 0.0, dist), counts)


def locate(index, mesh, node_field, point):
    """Find the element and reference coordinates containing a point."""
    return locate_points(index, mesh, node_field, point)[0]


class DiscreteLevelSet:
    """An FE field on a frozen source mesh, evaluated at physical points.

    This is the paper's discrete sigma: the fitting penalty reads it at
    the moved marked nodes, and transfer_field at every moved node.  All
    queries are located in the source mesh in one batched pass; a point
    no element holds raises TransferFailureError.  The value and the
    gradient both come from the containing element's polynomial, so the
    gradient is the exact derivative of the value away from element faces
    (required for consistent line searches).  Second derivatives are the
    element-wise derivatives of the averaged nodal gradients
    (fields.nodal_physical_gradients).  Both go through
    fields.element_gradients, which names a singular source element.
    """

    def __init__(self, field, node_field):
        self.field = field
        self.node_field = node_field
        self.mesh = field.mesh
        self.dim = field.mesh.dim
        self.index = build_index(field.mesh, node_field)
        self._nodal_grads = None
        self._at = {}

    def _located(self, points):
        # Per point set: "element" ids, their node ids "conn", reference
        # points "ref", then basis values "vals" and gradients "grads" as
        # queries first need them.  One-slot memo: value/gradient/Hessian
        # queries within a solver iterate repeat the same points.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        key = points.tobytes()
        if self._at.get("key") != key:
            loc = locate_points(self.index, self.mesh, self.node_field, points)
            missing = loc.status == "not-found"
            if missing.any():
                raise TransferFailureError(points[missing])
            conn = self.mesh.connectivity[loc.element]
            self._at = {"key": key, "element": loc.element, "conn": conn, "ref": loc.ref}
        return self._at

    def values(self, points):
        at = self._located(points)
        if "vals" not in at:
            at["vals"] = self.mesh.basis.eval(at["ref"])
        return np.einsum("pk,pk->p", at["vals"], self.field.coefficients[at["conn"]])

    def gradients(self, points):
        return self._gradients(points, self.field.coefficients[:, None])[..., 0]

    def hessians(self, points):
        if self._nodal_grads is None:
            self._nodal_grads = nodal_physical_gradients(self.field, self.node_field)
        hess = self._gradients(points, self._nodal_grads)  # (n, dim, dim)
        return 0.5 * (hess + hess.transpose(0, 2, 1))

    def _gradients(self, points, coeffs):
        """Physical gradients (n, dim, m) of the nodal coefficient columns
        coeffs (num_nodes, m) at the located points."""
        at = self._located(points)
        if "grads" not in at:
            at["grads"] = self.mesh.basis.eval_with_grad(at["ref"])[1]
        coords = self.node_field.as_matrix()[at["conn"]]
        return element_gradients(at["grads"], coords, coeffs[at["conn"]], at["element"])


def transfer_field(sigma0, nodes0, current_mesh, current_nodes):
    """Interpolate a field from its source mesh onto a current mesh.

    Coefficient i of the result is sigma0 evaluated at the position of
    current node i (nodal interpolation; the bases are interpolatory).
    """
    values = DiscreteLevelSet(sigma0, nodes0).values(current_nodes.as_matrix())
    return ScalarField(current_mesh, values)
