"""VTK XML unstructured-grid writer with high-order Lagrange cells.

Each element is resampled on the uniform parametric lattice that VTK
Lagrange cells expect (the mesh nodes themselves sit at Gauss-Lobatto
positions), so curved geometry is represented exactly.  Points are
written per element; sigma goes out as point data, the element
attribute as cell data.
"""

from functools import lru_cache

import numpy as np

VTK_LAGRANGE_CELL = {
    "segment": 68,
    "triangle": 69,
    "quad": 70,
    "tet": 71,
    "hex": 72,
}


def _vtk_quad_index(i, j, n):
    ibdy = i in (0, n)
    jbdy = j in (0, n)
    if ibdy and jbdy:
        return (2 if j else 1) if i else (3 if j else 0)
    offset = 4
    if jbdy:  # interior i on a j = const edge
        return offset + (i - 1) + (2 * (n - 1) if j else 0)
    if ibdy:  # interior j on an i = const edge
        return offset + (j - 1) + ((n - 1) if i else 3 * (n - 1))
    return 4 + 4 * (n - 1) + (i - 1) + (n - 1) * (j - 1)


def _vtk_hex_index(i, j, m, n):
    ibdy = i in (0, n)
    jbdy = j in (0, n)
    mbdy = m in (0, n)
    nbdy = ibdy + jbdy + mbdy
    if nbdy == 3:
        return ((2 if j else 1) if i else (3 if j else 0)) + (4 if m else 0)
    offset = 8
    if nbdy == 2:  # edge
        if not ibdy:
            return (
                offset
                + (i - 1)
                + (2 * (n - 1) if j else 0)
                + (4 * (n - 1) if m else 0)
            )
        if not jbdy:
            return (
                offset
                + (j - 1)
                + ((n - 1) if i else 3 * (n - 1))
                + (4 * (n - 1) if m else 0)
            )
        offset += 8 * (n - 1)
        return offset + (m - 1) + (n - 1) * ((2 if j else 1) if i else (3 if j else 0))
    offset = 8 + 12 * (n - 1)
    if nbdy == 1:  # face
        if ibdy:
            return (
                offset
                + (j - 1)
                + (n - 1) * (m - 1)
                + (i and (n - 1) * (n - 1) or 0)
            )
        offset += 2 * (n - 1) * (n - 1)
        if jbdy:
            return (
                offset
                + (i - 1)
                + (n - 1) * (m - 1)
                + (j and (n - 1) * (n - 1) or 0)
            )
        offset += 2 * (n - 1) * (n - 1)
        return (
            offset + (i - 1) + (n - 1) * (j - 1) + (m and (n - 1) * (n - 1) or 0)
        )
    offset = 8 + 12 * (n - 1) + 6 * (n - 1) * (n - 1)
    return offset + (i - 1) + (n - 1) * ((j - 1) + (n - 1) * (m - 1))


def _vtk_triangle_indices(n):
    """Barycentric lattice multi-indices (i, j) in VTK Lagrange order."""
    if n == 0:
        return [(0, 0)]
    out = [(0, 0), (n, 0), (0, n)]
    out += [(a, 0) for a in range(1, n)]
    out += [(n - a, a) for a in range(1, n)]
    out += [(0, n - a) for a in range(1, n)]
    if n >= 3:
        out += [(i + 1, j + 1) for i, j in _vtk_triangle_indices(n - 3)]
    return out


def _vtk_tet_indices(n):
    """Lattice multi-indices (i, j, m) in VTK Lagrange order."""
    verts = [(0, 0, 0), (n, 0, 0), (0, n, 0), (0, 0, n)]
    if n == 0:
        return [verts[0]]
    out = list(verts)
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
    va = np.asarray(verts)
    for a, b in edges:
        step = (va[b] - va[a]) // n
        for s in range(1, n):
            out.append(tuple(va[a] + s * step))
    faces = [(0, 1, 3), (1, 2, 3), (2, 0, 3), (0, 2, 1)]
    if n >= 3:
        for f in faces:
            for p, q in _vtk_triangle_indices(n - 3):
                b1, b2 = p + 1, q + 1
                b0 = n - b1 - b2
                pt = (b0 * va[f[0]] + b1 * va[f[1]] + b2 * va[f[2]]) // n
                out.append(tuple(pt))
    if n >= 4:
        out += [
            (i + 1, j + 1, m + 1) for i, j, m in _vtk_tet_indices(n - 4)
        ]
    return out


@lru_cache(maxsize=None)
def vtk_lattice(geometry, order):
    """Uniform reference lattice in VTK Lagrange point order."""
    n = order
    if geometry == "segment":
        idx = [(0,), (n,)] + [(a,) for a in range(1, n)]
    elif geometry == "quad":
        idx = [None] * (n + 1) ** 2
        for j in range(n + 1):
            for i in range(n + 1):
                idx[_vtk_quad_index(i, j, n)] = (i, j)
    elif geometry == "hex":
        idx = [None] * (n + 1) ** 3
        for m in range(n + 1):
            for j in range(n + 1):
                for i in range(n + 1):
                    idx[_vtk_hex_index(i, j, m, n)] = (i, j, m)
    elif geometry == "triangle":
        idx = _vtk_triangle_indices(n)
    elif geometry == "tet":
        idx = _vtk_tet_indices(n)
    else:
        raise ValueError(f"unsupported geometry {geometry!r}")
    return np.asarray(idx, dtype=float) / n


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
