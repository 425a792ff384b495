"""High-order mesh representation, Cartesian generation, and file I/O.

A mesh stores connectivity only; node coordinates live in a separate
NodeField (the optimization unknowns).  Coordinates are kept in a flat
component-major vector: the x-block of all nodes, then the y-block, etc.
Degree of freedom (a, i) maps to flat index a * num_nodes + i.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidMeshError, MeshParseError
from .reference import (
    GEOMETRY_DIM,
    REFERENCE_FACES,
    REFERENCE_MEASURE,
    corner_local_indices,
    face_node_indices,
    gauss_lobatto_nodes,
    quadrature_for,
    quadrature_tables,
    reference_element,
)

_CHUNK_POINTS = 256  # quadrature points per element chunk of batched kernels


@dataclass
class Mesh:
    """Element connectivity, attributes, and boundary faces.

    Attributes
    ----------
    dim : int
    order : int
    geometry : str
        Single element type per mesh.
    connectivity : ndarray, shape (num_elements, nodes_per_element)
    attributes : ndarray, shape (num_elements,)
    boundary : list of (attribute, ndarray of node ids)
    num_nodes : int
    """

    dim: int
    order: int
    geometry: str
    connectivity: np.ndarray
    attributes: np.ndarray
    boundary: list = field(default_factory=list)
    num_nodes: int = 0

    def __post_init__(self):
        self.connectivity = np.asarray(self.connectivity, dtype=int)
        self.attributes = np.asarray(self.attributes, dtype=int)
        if self.num_nodes == 0 and self.connectivity.size:
            self.num_nodes = int(self.connectivity.max()) + 1
        ref = reference_element(self.geometry, self.order)
        if self.connectivity.shape[1] != ref.num_nodes:
            raise InvalidMeshError(
                f"{self.geometry} order {self.order} needs "
                f"{ref.num_nodes} nodes per element, got "
                f"{self.connectivity.shape[1]}"
            )
        if self.connectivity.size and (
            self.connectivity.min() < 0 or self.connectivity.max() >= self.num_nodes
        ):
            raise InvalidMeshError("node index out of range")

    @property
    def num_elements(self):
        return len(self.connectivity)

    @property
    def reference(self):
        return reference_element(self.geometry, self.order)

    @property
    def basis(self):
        return self.reference.basis

    def node_elements(self):
        """For each node, list of (element id, local node id) pairs."""
        adj = [[] for _ in range(self.num_nodes)]
        for e, conn in enumerate(self.connectivity):
            for loc, n in enumerate(conn):
                adj[n].append((e, loc))
        return adj

    def face_map(self):
        """Map from face key (sorted corner node ids) to incident elements.

        Returns dict: key -> list of (element id, local face id).
        """
        corners = corner_local_indices(self.geometry, self.order)
        faces = {}
        for e, conn in enumerate(self.connectivity):
            for f, fverts in enumerate(REFERENCE_FACES[self.geometry]):
                key = tuple(sorted(conn[corners[v]] for v in fverts))
                faces.setdefault(key, []).append((e, f))
        return faces

    def boundary_node_ids(self):
        """Ids of all nodes lying on faces shared by a single element."""
        fni = face_node_indices(self.geometry, self.order)
        ids = set()
        for key, incident in self.face_map().items():
            if len(incident) == 1:
                e, f = incident[0]
                ids.update(self.connectivity[e][fni[f]])
        return np.array(sorted(ids), dtype=int)


@dataclass
class NodeField:
    """Flat component-major coordinate vector of all mesh nodes."""

    dim: int
    num_nodes: int
    coords: np.ndarray

    @classmethod
    def from_matrix(cls, mat):
        mat = np.asarray(mat, dtype=float)
        n, dim = mat.shape
        return cls(dim, n, mat.T.reshape(-1).copy())

    def as_matrix(self):
        """Coordinates as an (num_nodes, dim) array (view when possible)."""
        return self.coords.reshape(self.dim, self.num_nodes).T

    def copy(self):
        return NodeField(self.dim, self.num_nodes, self.coords.copy())


@dataclass
class ElementJacobian:
    """Jacobian matrix A of the reference-to-physical map at one point."""

    matrix: np.ndarray
    det: float


def element_node_coords(mesh, node_field, element_id):
    """Coordinates of one element's nodes, shape (nodes_per_element, dim)."""
    if element_id < 0 or element_id >= mesh.num_elements:
        raise ValueError(f"invalid element id {element_id}")
    return node_field.as_matrix()[mesh.connectivity[element_id]]


def element_position(mesh, node_field, element_id, ref_point):
    """Physical image of a reference point under the element map."""
    coords = element_node_coords(mesh, node_field, element_id)
    vals = mesh.basis.eval(np.atleast_2d(ref_point))[0]
    return vals @ coords


def element_jacobian(mesh, node_field, element_id, ref_point):
    """Jacobian of the element map at a reference point."""
    coords = element_node_coords(mesh, node_field, element_id)
    _, grads = mesh.basis.eval_with_grad(np.atleast_2d(ref_point))
    a = coords.T @ grads[0]
    return ElementJacobian(a, float(np.linalg.det(a)))


def element_jacobians(mesh, node_field, element_id, ref_grads):
    """Jacobians at many reference points from precomputed basis gradients.

    Parameters
    ----------
    ref_grads : ndarray, shape (n_points, nodes_per_element, dim)

    Returns
    -------
    mats : ndarray, shape (n_points, dim, dim)
    dets : ndarray, shape (n_points,)
    """
    coords = element_node_coords(mesh, node_field, element_id)
    mats = np.einsum("id,qib->qdb", coords, ref_grads)
    return mats, np.linalg.det(mats)


def element_chunks(mesh):
    """Slices of consecutive elements holding about _CHUNK_POINTS
    quadrature points each (at least one element)."""
    num_points = quadrature_for(mesh.geometry, mesh.order).num_points
    size = max(1, _CHUNK_POINTS // num_points)
    return [slice(s, s + size) for s in range(0, mesh.num_elements, size)]


def quadrature_jacobians(mesh, node_field, elements):
    """Jacobians A of the element maps at the quadrature points.

    Returns shape (Q, E_c, dim, dim) for the elements selected by
    `elements` (a slice or index array), points first.
    """
    _, ref_grads = quadrature_tables(mesh.geometry, mesh.order)
    coords = node_field.as_matrix()[mesh.connectivity[elements]]  # (E_c, N, dim)
    # (Q, N, b) x (E_c, N, a) -> (Q, b, E_c, a): one GEMM over the nodes.
    return np.tensordot(ref_grads, coords, axes=(1, 1)).transpose(0, 2, 3, 1)


def det_inv(t):
    """Determinants and inverses of the d x d matrices t, shape (..., d, d)
    with d <= 3, in closed form: the adjugate over the determinant.

    Returns det (...,) and inv (..., d, d), inf or nan where det is 0.
    inv is a view of an array stored as (d, d, ...), so each inv[..., a, b]
    is contiguous.
    """
    t = np.asarray(t, dtype=float)
    batch, d = t.shape[:-2], t.shape[-1]
    x = np.ascontiguousarray(t.reshape(-1, d, d).T)  # x[a, b, p] = t[p, b, a]
    # The cofactors of x = t^T are the adjugate of t.
    if d == 1:
        cof = np.ones_like(x)
    elif d == 2:
        cof = x[::-1, ::-1] * np.array([[[1.0], [-1.0]], [[-1.0], [1.0]]])
    else:
        # cof[a, b] = x[a+1, b+1] x[a+2, b+2] - x[a+1, b+2] x[a+2, b+1],
        # indices mod 3, read from x extended cyclically by two rows and
        # columns.
        e = np.concatenate([x, x[:2]])
        e = np.concatenate([e, e[:, :2]], axis=1)
        cof = e[1:4, 1:4] * e[2:5, 2:5] - e[1:4, 2:5] * e[2:5, 1:4]
    det = np.einsum("bp,bp->p", x[0], cof[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = cof / det
    return det.reshape(batch), inv.transpose(2, 0, 1).reshape(batch + (d, d))


def is_valid(mesh, node_field):
    """Check det A > 0 at every quadrature point of every element.

    Returns
    -------
    valid : bool
    min_det : float
        Minimum Jacobian determinant over all sampled points.
    """
    min_det = min(
        det_inv(quadrature_jacobians(mesh, node_field, chunk))[0].min()
        for chunk in element_chunks(mesh)
    )
    return bool(min_det > 0.0), float(min_det)


def domain_volume(mesh, node_field):
    """Total volume: sum over elements of the Jacobian-weighted quadrature."""
    return float(element_volumes(mesh, node_field).sum())


def element_volumes(mesh, node_field):
    """Per-element volumes via quadrature; shape (num_elements,)."""
    weights = quadrature_for(mesh.geometry, mesh.order).weights
    return np.concatenate(
        [
            weights @ np.linalg.det(quadrature_jacobians(mesh, node_field, chunk))
            for chunk in element_chunks(mesh)
        ]
    )


# ---------------------------------------------------------------------------
# Cartesian mesh generation


def _kuhn_tets():
    """Split the unit cube into 6 positively oriented tets (Kuhn split).

    Every tet contains the main diagonal (0,0,0)-(1,1,1), so adjacent
    cubes produce matching faces.
    """
    from itertools import permutations

    axes = np.eye(3)
    tets = []
    for perm in permutations(range(3)):
        p0 = np.zeros(3)
        p1 = p0 + axes[perm[0]]
        p2 = p1 + axes[perm[1]]
        p3 = p2 + axes[perm[2]]
        verts = [p0, p1, p2, p3]
        mat = np.array([verts[1] - verts[0], verts[2] - verts[0], verts[3] - verts[0]])
        if np.linalg.det(mat) < 0:
            verts = [p0, p2, p1, p3]
        tets.append(np.array(verts))
    return tets


def make_cartesian(dim, n_cells, order, geometry):
    """Uniform mesh of the unit square/cube.

    Quads/hexes subdivide directly into n_cells**dim cells; for
    triangle/tet meshes each quad splits into 2 triangles and each hex
    into 6 tets with a fixed diagonal pattern.  Nodes sit at tensor
    Gauss-Lobatto positions (affine images for simplices) and are shared
    between elements.

    Returns
    -------
    (Mesh, NodeField)
    """
    if n_cells < 1 or order < 1:
        raise ValueError("n_cells and order must be >= 1")
    if GEOMETRY_DIM[geometry] != dim:
        raise ValueError(f"geometry {geometry!r} is not {dim}-dimensional")
    ref = reference_element(geometry, order)
    h = 1.0 / n_cells
    cells = np.stack(
        np.meshgrid(*([np.arange(n_cells)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)

    node_ids = {}
    coords = []
    connectivity = []

    def global_id(point):
        key = tuple(np.round(point, 10))
        nid = node_ids.get(key)
        if nid is None:
            nid = len(coords)
            node_ids[key] = nid
            coords.append(point)
        return nid

    if geometry in ("segment", "quad", "hex"):
        for cell in cells:
            origin = cell * h
            elem_nodes = origin[None, :] + h * ref.basis.nodes
            connectivity.append([global_id(p) for p in elem_nodes])
    elif geometry == "triangle":
        for cell in cells:
            o = cell * h
            v = [o, o + (h, 0.0), o + (h, h), o + (0.0, h)]
            for tri in ((v[0], v[1], v[2]), (v[0], v[2], v[3])):
                v0 = np.asarray(tri[0])
                edges = np.stack([tri[1] - v0, tri[2] - v0])
                elem_nodes = v0[None, :] + ref.basis.nodes @ edges
                connectivity.append([global_id(p) for p in elem_nodes])
    elif geometry == "tet":
        kuhn = _kuhn_tets()
        for cell in cells:
            o = cell * h
            for tet in kuhn:
                verts = o[None, :] + h * tet
                v0 = verts[0]
                edges = verts[1:] - v0
                elem_nodes = v0[None, :] + ref.basis.nodes @ edges
                connectivity.append([global_id(p) for p in elem_nodes])
    else:
        raise ValueError(f"unsupported geometry {geometry!r}")

    coords = np.asarray(coords)
    mesh = Mesh(
        dim=dim,
        order=order,
        geometry=geometry,
        connectivity=np.asarray(connectivity, dtype=int),
        attributes=np.ones(len(connectivity), dtype=int),
        num_nodes=len(coords),
    )
    node_field = NodeField.from_matrix(coords)
    mesh.boundary = _domain_boundary_faces(mesh, node_field)
    return mesh, node_field


def _domain_boundary_faces(mesh, node_field, tol=1e-12):
    """Boundary faces with attributes 1..2*dim by unit-domain side."""
    fni = face_node_indices(mesh.geometry, mesh.order)
    pts = node_field.as_matrix()
    out = []
    for key, incident in sorted(mesh.face_map().items()):
        if len(incident) != 1:
            continue
        e, f = incident[0]
        nodes = mesh.connectivity[e][fni[f]]
        attr = 0
        for a in range(mesh.dim):
            if np.all(np.abs(pts[nodes, a]) <= tol):
                attr = 2 * a + 1
            elif np.all(np.abs(pts[nodes, a] - 1.0) <= tol):
                attr = 2 * a + 2
        out.append((attr, np.asarray(nodes, dtype=int)))
    return out


# ---------------------------------------------------------------------------
# Text format I/O

_FORMAT_HEADER = "tmopfit-mesh v1"


def write_mesh(path, mesh, node_field):
    """Write the line-oriented text format (17 significant digits)."""
    lines = [_FORMAT_HEADER]
    lines.append(f"dim {mesh.dim}")
    lines.append(f"order {mesh.order}")
    lines.append(f"geom {mesh.geometry}")
    lines.append(f"elements {mesh.num_elements}")
    for attr, conn in zip(mesh.attributes, mesh.connectivity):
        lines.append(" ".join([str(int(attr))] + [str(int(c)) for c in conn]))
    lines.append(f"boundary {len(mesh.boundary)}")
    for attr, nodes in mesh.boundary:
        lines.append(" ".join([str(int(attr))] + [str(int(c)) for c in nodes]))
    lines.append(f"nodes {mesh.num_nodes}")
    for row in node_field.as_matrix():
        lines.append(" ".join(f"{x:.17g}" for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _nodes_per_element(geometry, order):
    """Basis size of (geometry, order), without building the basis: a
    corrupt order then fails on the first element line instead of
    allocating a basis of that order."""
    dim = GEOMETRY_DIM[geometry]
    if geometry in ("triangle", "tet"):
        return math.comb(order + dim, dim)
    return (order + 1) ** dim


def read_mesh(path):
    """Read the text format written by write_mesh.

    Raises
    ------
    MeshParseError
        On malformed or truncated input, with the offending line number.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()

    pos = 0

    def take(expect=None):
        nonlocal pos
        if pos >= len(lines):
            what = expect or "content"
            raise MeshParseError(f"unexpected end of file, expected {what}", pos + 1)
        line = lines[pos]
        pos += 1
        return line

    def take_keyword(keyword):
        line = take(keyword)
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise MeshParseError(f"expected '{keyword} <value>', got {line!r}", pos)
        return parts[1]

    def take_count(keyword, minimum=0):
        value = take_keyword(keyword)
        try:
            count = int(value)
        except ValueError:
            count = None
        if count is None or count < minimum:
            raise MeshParseError(
                f"'{keyword}' needs an integer >= {minimum}, got {value!r}", pos
            )
        return count

    def take_ints(what, length=None):
        parts = take(what).split()
        try:
            row = np.array([int(p) for p in parts], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise MeshParseError(f"bad {what}: {exc}", pos) from exc
        if len(row) < 2 or length not in (None, len(row)):
            want = "attribute and nodes" if length is None else f"{length} integers"
            raise MeshParseError(f"{what} needs {want}, got {len(row)}", pos)
        return row

    def check_node_ids(rows, first_line, what, num_nodes):
        for r, row in enumerate(rows):
            if np.any((row[1:] < 0) | (row[1:] >= num_nodes)):
                raise MeshParseError(f"{what} node id out of range", first_line + r)

    header = take("header")
    if header.strip() != _FORMAT_HEADER:
        raise MeshParseError(
            f"unsupported format/version {header!r}, expected {_FORMAT_HEADER!r}", 1
        )
    dim = take_count("dim", 1)
    order = take_count("order", 1)
    geometry = take_keyword("geom")
    if geometry not in GEOMETRY_DIM:
        raise MeshParseError(f"unknown geometry {geometry!r}", pos)
    if GEOMETRY_DIM[geometry] != dim:
        raise MeshParseError(f"geometry {geometry!r} is not {dim}-dimensional", pos)

    num_elements = take_count("elements", 1)
    element_line = pos + 1
    per_row = _nodes_per_element(geometry, order) + 1
    elements = [take_ints("element line", per_row) for _ in range(num_elements)]

    num_boundary = take_count("boundary")
    boundary_line = pos + 1
    boundary = [take_ints("boundary line") for _ in range(num_boundary)]

    num_nodes = take_count("nodes")
    coords = []
    for _ in range(num_nodes):
        parts = take("node line").split()
        if len(parts) != dim:
            raise MeshParseError(
                f"expected {dim} coordinates, got {len(parts)}", pos
            )
        try:
            coords.append([float(p) for p in parts])
        except ValueError as exc:
            raise MeshParseError(f"bad coordinate: {exc}", pos) from exc
        if not np.all(np.isfinite(coords[-1])):
            raise MeshParseError("non-finite node coordinate", pos)
    check_node_ids(elements, element_line, "element", num_nodes)
    check_node_ids(boundary, boundary_line, "boundary", num_nodes)

    elements = np.array(elements)
    mesh = Mesh(
        dim=dim,
        order=order,
        geometry=geometry,
        connectivity=elements[:, 1:],
        attributes=elements[:, 0],
        boundary=[(int(row[0]), row[1:].astype(int)) for row in boundary],
        num_nodes=num_nodes,
    )
    return mesh, NodeField.from_matrix(np.reshape(coords, (num_nodes, dim)))
