"""VTK XML unstructured-grid writer with high-order Lagrange cells.

Each element is resampled on the uniform parametric lattice that VTK
Lagrange cells expect (the mesh nodes themselves sit at Gauss-Lobatto
positions), so curved geometry is represented exactly.  Points are
written per element; sigma goes out as point data, the element
attribute as cell data.

VTK orders a cell's lattice points by entity: vertices, edges, faces,
interior.  Tensor cells (segment, quad, hex) take each entity's points
from the (n+1)^dim lattice in tensor_axes order, the entity given by its
side along each axis: 0 or 1 on that face of the reference cell, 2 where
the axis is free.  Simplex cells (triangle, tet) list barycentric
multi-indices summing to n: each edge from its first vertex to its
second, each tet face the triangle order of n - 3 plus 1 in every
entry, the interior the same order at n - dim - 1 plus 1.
"""

from functools import lru_cache

import numpy as np

from .reference import GEOMETRY_DIM, REFERENCE_VERTICES, tensor_axes

VTK_LAGRANGE_CELL = {
    "segment": 68,
    "triangle": 69,
    "quad": 70,
    "tet": 71,
    "hex": 72,
}


# Tensor-cell entities after the vertices, in VTK order, as sides along
# each axis: a hex's edges at m = 0, at m = 1, then the vertical ones in
# vertex order, its faces -x, +x, -y, +y, -z, +z, and the interior.
_QUAD_EDGES = ((2, 0), (1, 2), (2, 1), (0, 2))
_TENSOR_ENTITIES = {
    "segment": ((2,),),
    "quad": _QUAD_EDGES + ((2, 2),),
    "hex": tuple(e + (m,) for m in (0, 1) for e in _QUAD_EDGES)
    + ((0, 0, 2), (1, 0, 2), (1, 1, 2), (0, 1, 2))
    + ((0, 2, 2), (1, 2, 2), (2, 0, 2), (2, 1, 2), (2, 2, 0), (2, 2, 1), (2, 2, 2)),
}

# Simplex edges and tet faces as barycentric vertex ids, in VTK order.
_SIMPLEX_EDGES = ((0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3))
_TET_FACES = ((0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 2, 1))


def _simplex_order(n, dim):
    """Barycentric multi-indices (dim + 1 entries summing to n) in VTK
    order; none for n < 0."""
    if n <= 0:
        return np.zeros((int(n == 0), dim + 1), dtype=int)
    eye = np.eye(dim + 1, dtype=int)
    s = np.arange(1, n)[:, None]
    parts = [n * eye]
    parts += [(n - s) * eye[a] + s * eye[b] for a, b in _SIMPLEX_EDGES[: 3 * dim - 3]]
    if dim == 3:
        face = _simplex_order(n - 3, 2) + 1
        parts += [face @ eye[list(f)] for f in _TET_FACES]
    parts.append(_simplex_order(n - dim - 1, dim) + 1)
    return np.concatenate(parts)


@lru_cache(maxsize=None)
def vtk_lattice(geometry, order):
    """Uniform reference lattice in VTK Lagrange point order."""
    if geometry in _TENSOR_ENTITIES:
        axes = tensor_axes(order + 1, GEOMETRY_DIM[geometry])
        sides = np.where(axes == 0, 0, np.where(axes == order, 1, 2))
        entities = [*REFERENCE_VERTICES[geometry], *_TENSOR_ENTITIES[geometry]]
        idx = np.concatenate([axes[(sides == e).all(axis=1)] for e in entities])
    elif geometry in ("triangle", "tet"):
        idx = _simplex_order(order, GEOMETRY_DIM[geometry])[:, 1:]
    else:
        raise ValueError(f"unsupported geometry {geometry!r}")
    return idx / order


def write_vtk(path, mesh, node_field, sigma=None):
    """Write a .vtu file with one Lagrange cell per mesh element."""
    lattice = vtk_lattice(mesh.geometry, mesh.order)
    basis_vals = mesh.basis.eval(lattice)
    conn = mesh.connectivity
    n_cells, n_lat = conn.shape[0], len(lattice)
    n_points = n_lat * n_cells

    coords = np.zeros((n_points, 3))
    images = basis_vals @ node_field.as_matrix()[conn]  # (cells, lattice, dim)
    coords[:, : mesh.dim] = images.reshape(n_points, mesh.dim)

    cell_type = VTK_LAGRANGE_CELL[mesh.geometry]
    lines = []
    lines.append('<?xml version="1.0"?>')
    lines.append(
        '<VTKFile type="UnstructuredGrid" version="2.2" '
        'byte_order="LittleEndian">'
    )
    lines.append("<UnstructuredGrid>")
    lines.append(
        f'<Piece NumberOfPoints="{n_points}" NumberOfCells="{n_cells}">'
    )
    lines.append("<Points>")
    lines.append(
        '<DataArray type="Float64" NumberOfComponents="3" format="ascii">'
    )
    lines.extend(map("{:.16g} {:.16g} {:.16g}".format, *coords.T.tolist()))
    lines.append("</DataArray>")
    lines.append("</Points>")
    lines.append("<Cells>")
    lines.append('<DataArray type="Int64" Name="connectivity" format="ascii">')
    cell_points = np.arange(n_points).reshape(n_cells, n_lat)
    lines.extend(map(" ".join(["{}"] * n_lat).format, *cell_points.T.tolist()))
    lines.append("</DataArray>")
    lines.append('<DataArray type="Int64" Name="offsets" format="ascii">')
    lines.append(" ".join(str((e + 1) * n_lat) for e in range(n_cells)))
    lines.append("</DataArray>")
    lines.append('<DataArray type="UInt8" Name="types" format="ascii">')
    lines.append(" ".join(str(cell_type) for _ in range(n_cells)))
    lines.append("</DataArray>")
    lines.append("</Cells>")
    if sigma is not None:
        # Per cell (lattice x nodes) @ (nodes x 1): this rounds as one
        # cell's matrix-vector product does; coeff[conn] @ basis_vals.T
        # can differ in the last digit.
        values = basis_vals @ sigma.coefficients[conn][:, :, None]
        lines.append('<PointData Scalars="sigma">')
        lines.append('<DataArray type="Float64" Name="sigma" format="ascii">')
        lines.extend(map("{:.16g}".format, values.ravel().tolist()))
        lines.append("</DataArray>")
        lines.append("</PointData>")
    lines.append('<CellData Scalars="attribute">')
    lines.append('<DataArray type="Int32" Name="attribute" format="ascii">')
    lines.append(" ".join(str(int(a)) for a in mesh.attributes))
    lines.append("</DataArray>")
    lines.append("</CellData>")
    lines.append("</Piece>")
    lines.append("</UnstructuredGrid>")
    lines.append("</VTKFile>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
