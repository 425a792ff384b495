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
    corner_local_indices,
    det,
    face_node_indices,
    nodal_basis,
    quadrature_for,
    quadrature_tables,
)

# d x d matrices per element chunk of the batched kernels, as counted per
# point: 4 up to order 1 (T, T^{-1}, dmu, their points-last copies) and,
# for the Hessian, the d (d + 1) / 2 component pairs of d2mu and one pair's
# x (d N values, N nodes per element): 15 matrices for an order-2 hex, 8
# for an order-3 triangle.  So value and gradient chunks have 2304 points,
# a Hessian chunk of order-2 hexes 4 elements (500 points) and one of
# order-3 triangles 46 (1150 points).  The counts are not what the kernels
# hold: on fit3d-hex chunks at resolution 4 (mu333, tracemalloc), the
# metric call peaks at 4.3 matrices a point at order 0, 7.6 at order 1
# and 21.3 at order 2, to which the contraction's x adds 9.
_CHUNK_MATRICES = 256 * 36


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
        per_element = nodal_basis(self.geometry, self.order).num_nodes
        if self.connectivity.shape[1] != per_element:
            raise InvalidMeshError(
                f"{self.geometry} order {self.order} needs "
                f"{per_element} nodes per element, got "
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
    def basis(self):
        return nodal_basis(self.geometry, self.order)

    def face_nodes(self):
        """Node ids of every element face, shape (E F, n): row e F + f holds
        local face f of element e, F faces per element."""
        fni = np.array(face_node_indices(self.geometry, self.order))
        return self.connectivity[:, fni].reshape(-1, fni.shape[1])

    def face_incidence(self):
        """Element faces matched by their sorted corner node ids, in one sort.

        Returns (single, shared), rows of face_nodes(): single (n,) the
        faces of exactly one element, ascending in their sorted corner ids;
        shared (m, 2) the two incidences of each face of exactly two
        elements, the lower element first.  Faces of three or more elements
        are in neither.
        """
        corners = np.array(corner_local_indices(self.geometry, self.order))
        local = corners[np.array(REFERENCE_FACES[self.geometry])]  # (F, corners)
        keys = np.sort(self.connectivity[:, local], axis=2).reshape(-1, local.shape[1])
        # A stable sort with the first corner id as the primary key keeps the
        # incidences of one face in element order.
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)])
        sizes = np.diff(np.r_[starts, len(keys)])
        pairs = starts[sizes == 2]
        return order[starts[sizes == 1]], np.stack([order[pairs], order[pairs + 1]], axis=1)

    def boundary_node_ids(self):
        """Sorted ids of all nodes lying on faces of a single element."""
        on = np.zeros(self.num_nodes, bool)
        on[self.face_nodes()[self.face_incidence()[0]]] = True
        return np.flatnonzero(on)


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


def element_chunks(mesh, order):
    """Slices of consecutive elements whose quadrature points hold about
    _CHUNK_MATRICES d x d matrices each (at least one element) for
    derivatives of the given order: 4 per point up to order 1, and at
    order 2 the d (d + 1) / 2 pairs of d2mu plus d N values of x."""
    num_points = quadrature_for(mesh.geometry, mesh.order).num_points
    d = mesh.dim
    per_point = d * (d + 1) / 2 + mesh.basis.num_nodes / d if order >= 2 else 4
    size = max(1, int(_CHUNK_MATRICES // (num_points * per_point)))
    return [slice(s, s + size) for s in range(0, mesh.num_elements, size)]


def quadrature_jacobians(mesh, node_field, elements, grads=None):
    """Jacobians A of the element maps at the quadrature points.

    Returns shape (Q, E_c, dim, dim) for the elements selected by
    `elements` (a slice or index array), points first.  grads (Q, N, dim)
    replaces the reference gradients; the target-frame table gives A W_ideal^{-1}.
    """
    if grads is None:
        grads = quadrature_tables(mesh.geometry, mesh.order)[1]
    coords = node_field.as_matrix()[mesh.connectivity[elements]]  # (E_c, N, dim)
    # (Q, N, b) x (E_c, N, a) -> (Q, b, E_c, a): one GEMM over the nodes.
    return np.tensordot(grads, coords, axes=(1, 1)).transpose(0, 2, 3, 1)


def is_valid(mesh, node_field):
    """Check det A > 0 at every quadrature point of every element.

    Returns
    -------
    valid : bool
    min_det : float
        Minimum Jacobian determinant over all sampled points.
    """
    min_det = min(
        det(quadrature_jacobians(mesh, node_field, chunk)).min()
        for chunk in element_chunks(mesh, 0)
    )
    return bool(min_det > 0.0), float(min_det)


def element_volumes(mesh, node_field):
    """Per-element volumes via quadrature; shape (num_elements,)."""
    weights = quadrature_for(mesh.geometry, mesh.order).weights
    return np.concatenate(
        [
            weights @ det(quadrature_jacobians(mesh, node_field, chunk))
            for chunk in element_chunks(mesh, 0)
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
        if det(mat) < 0:
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
    nodes = nodal_basis(geometry, order).nodes
    h = 1.0 / n_cells
    cells = np.stack(
        np.meshgrid(*([np.arange(n_cells)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    origin = cells[:, None, :] * h  # (cells, 1, dim)
    if geometry in ("segment", "quad", "hex"):
        points = origin + h * nodes
    else:
        if geometry == "triangle":
            square = np.array([[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]])
            verts = origin[:, None] + square[[[0, 1, 2], [0, 2, 3]]]
        else:
            verts = origin[:, None] + h * np.array(_kuhn_tets())
        verts = verts.reshape(-1, dim + 1, dim)  # (elements, vertices, dim)
        v0 = verts[:, :1]
        points = v0 + nodes @ (verts[:, 1:] - v0)
    points = points.reshape(-1, dim)
    # Nodes at equal rounded coordinates are shared, numbered by first
    # appearance; each keeps the coordinates first seen.  Adding 0.0 maps a
    # -0.0 key to 0.0, so the numbering holds even where rows compare bytewise.
    _, first, inverse = np.unique(
        np.round(points, 10) + 0.0, axis=0, return_index=True, return_inverse=True
    )
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    coords = points[np.sort(first)]
    connectivity = rank[inverse].reshape(-1, len(nodes))

    mesh = Mesh(
        dim=dim,
        order=order,
        geometry=geometry,
        connectivity=connectivity,
        attributes=np.ones(len(connectivity), dtype=int),
        num_nodes=len(coords),
    )
    node_field = NodeField.from_matrix(coords)
    mesh.boundary = _domain_boundary_faces(mesh, node_field)
    return mesh, node_field


def _domain_boundary_faces(mesh, node_field, tol=1e-12):
    """Boundary faces with attributes 1..2*dim by unit-domain side, in
    ascending order of their sorted corner ids; 0 where a face lies on no
    side, the last axis winning where it lies on several."""
    nodes = mesh.face_nodes()[mesh.face_incidence()[0]]
    pts = node_field.as_matrix()[nodes]  # (faces, face nodes, dim)
    attrs = np.zeros(len(nodes), dtype=int)
    for a in range(mesh.dim):
        attrs[np.all(np.abs(pts[..., a]) <= tol, axis=1)] = 2 * a + 1
        attrs[np.all(np.abs(pts[..., a] - 1.0) <= tol, axis=1)] = 2 * a + 2
    return list(zip(attrs.tolist(), nodes))


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
    rows = np.column_stack([mesh.attributes, mesh.connectivity])
    lines.extend(map(" ".join(["{}"] * rows.shape[1]).format, *rows.T.tolist()))
    lines.append(f"boundary {len(mesh.boundary)}")
    for attr, nodes in mesh.boundary:
        lines.append(" ".join(map(str, [int(attr)] + np.asarray(nodes).tolist())))
    lines.append(f"nodes {mesh.num_nodes}")
    row_format = " ".join(["{:.17g}"] * mesh.dim)
    lines.extend(map(row_format.format, *node_field.as_matrix().T.tolist()))
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
        On malformed or truncated input (an element or boundary line with
        other than an attribute and the element's or a face's node count),
        or on content after the last node line other than blank lines, with
        the offending line number.
    """
    with open(path) as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise MeshParseError(f"not a text file: {exc}") from exc

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

    def take_ints(what, length):
        """An attribute and length - 1 node ids."""
        parts = take(what).split()
        try:
            row = np.array([int(p) for p in parts], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise MeshParseError(f"bad {what}: {exc}", pos) from exc
        if len(row) != length:
            raise MeshParseError(f"{what} needs {length} integers, got {len(row)}", pos)
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
    per_face = len(face_node_indices(geometry, order)[0]) + 1
    boundary = [take_ints("boundary line", per_face) for _ in range(num_boundary)]

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
    for extra, line in enumerate(lines[pos:], pos + 1):
        if line.strip():
            raise MeshParseError(
                f"unexpected content after the last node line: {line!r}", extra
            )
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
