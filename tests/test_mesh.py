"""Mesh representation, Jacobians, Cartesian generation, file I/O."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmopfit.errors import InvalidMeshError, MeshParseError
from tmopfit.mesh import (
    Mesh,
    NodeField,
    _domain_boundary_faces,
    _kuhn_tets,
    element_volumes,
    is_valid,
    make_cartesian,
    quadrature_jacobians,
    read_mesh,
    write_mesh,
)
from tmopfit.reference import GEOMETRY_DIM, det, det_inv, nodal_basis


@pytest.mark.parametrize("row", [[0, 1, 2, -1], [0, 1, 2, 4]])
def test_mesh_rejects_node_ids_out_of_range(row):
    with pytest.raises(InvalidMeshError):
        Mesh(2, 1, "quad", [row], [1], num_nodes=4)


def test_identity_map_position():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    vals = mesh.basis.eval([[0.3, 0.7]])
    assert np.allclose(vals @ nodes.as_matrix()[mesh.connectivity[0]], [[0.3, 0.7]])


def test_position_at_reference_nodes_returns_stored_coordinates():
    mesh, nodes = make_cartesian(2, 2, 3, "quad")
    pts = nodes.as_matrix()
    vals = mesh.basis.eval(mesh.basis.nodes)
    for e in (0, 3):
        got = vals @ pts[mesh.connectivity[e]]
        assert np.allclose(got, pts[mesh.connectivity[e]], atol=1e-13)


def test_bilinear_stretched_quad_midpoint():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    # Lexicographic corners: (0,0), (1,0), (0,1), (1,1) -> stretch x by 2.
    stretched = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    assert np.allclose(mesh.basis.eval([[0.5, 0.5]]) @ stretched, [[1.0, 0.5]])


def test_identity_jacobian():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    jac = quadrature_jacobians(mesh, nodes, [0])[:, 0]
    assert np.allclose(jac, np.eye(2), atol=1e-14)
    assert np.abs(np.linalg.det(jac) - 1.0).max() < 1e-14


def test_scaled_jacobian():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    scaled = NodeField.from_matrix(2.0 * nodes.as_matrix())
    jac = quadrature_jacobians(mesh, scaled, [0])[:, 0]
    assert np.allclose(jac, 2.0 * np.eye(2), atol=1e-14)
    assert np.abs(np.linalg.det(jac) - 4.0).max() < 1e-13


def test_inverted_element_detected():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    mat = nodes.as_matrix().copy()
    mat[[0, 1]] = mat[[1, 0]]  # swap two adjacent corners
    bad = NodeField.from_matrix(mat)
    dets = np.linalg.det(quadrature_jacobians(mesh, bad, [0]))
    assert dets.min() < 0.0
    ok, min_det = is_valid(mesh, bad)
    assert not ok and min_det < 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_det_inv_matches_linalg(dim):
    rng = np.random.default_rng(60 + dim)
    random = rng.standard_normal((4, 5, dim, dim))
    # The last row is the sum of the others up to 1e-9: det ~ 1e-9.
    near = rng.standard_normal((20, dim, dim))
    near[:, -1] = near[:, :-1].sum(axis=1) + 1e-9 * rng.standard_normal((20, dim))
    # Every other matrix of a batch, transposed, rows reversed.
    strided = np.swapaxes(rng.standard_normal((6, 3, dim, dim)), -1, -2)[::2, :, ::-1]
    for t in (random, near, strided, random[0, 0]):
        det, inv = det_inv(t)
        assert det.shape == t.shape[:-2] and inv.shape == t.shape
        # Errors relative to the Hadamard bound on |det|, and to the
        # condition number for the inverse.
        hadamard = np.prod(np.linalg.norm(t, axis=-1), axis=-1)
        assert np.all(np.abs(det - np.linalg.det(t)) <= 1e-14 * hadamard)
        want = np.linalg.inv(t)
        err = np.abs(inv - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))
        assert np.all(err <= 1e-14 * np.linalg.cond(t))
    # Each entry of the inverses is contiguous over the batch.
    assert det_inv(random)[1][..., -1, 0].flags.c_contiguous


@pytest.mark.parametrize("dim", [2, 3])
def test_det_is_det_inv_bit_for_bit(dim):
    # is_valid's min det, and so the history's mindet column, must not move.
    rng = np.random.default_rng(70 + dim)
    random = rng.standard_normal((125, 18, dim, dim))
    strided = np.swapaxes(rng.standard_normal((6, 3, dim, dim)), -1, -2)[::2, :, ::-1]
    for t in (random, strided, random[0, 0], np.zeros((2, dim, dim))):
        got = det(t)
        assert got.shape == t.shape[:-2]
        assert np.array_equal(got, det_inv(t)[0])


def test_det_inv_of_singular_matrices_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det, inv = det_inv(np.zeros((2, 3, 3)))
    assert np.array_equal(det, [0.0, 0.0]) and not np.isfinite(inv).any()


def test_small_perturbation_remains_valid():
    mesh, nodes = make_cartesian(2, 4, 1, "quad")
    rng = np.random.default_rng(3)
    mat = nodes.as_matrix().copy()
    h = 0.25
    mat += 0.01 * h * rng.uniform(-1, 1, mat.shape)
    ok, min_det = is_valid(mesh, NodeField.from_matrix(mat))
    assert ok and min_det > 0.0


def test_uniform_mesh_valid_with_cell_volume_determinant():
    mesh, nodes = make_cartesian(2, 4, 1, "quad")
    ok, min_det = is_valid(mesh, nodes)
    assert ok
    assert abs(min_det - 1.0 / 16.0) < 1e-14  # det A = cell volume ratio


def test_make_cartesian_single_quad():
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    assert mesh.num_elements == 1 and mesh.num_nodes == 4
    assert is_valid(mesh, nodes)[0]


def test_make_cartesian_8x8_order3():
    mesh, nodes = make_cartesian(2, 8, 3, "quad")
    assert mesh.num_elements == 64
    assert is_valid(mesh, nodes)[0]


def test_make_cartesian_hex_volume():
    mesh, nodes = make_cartesian(3, 4, 2, "hex")
    assert mesh.num_elements == 64
    assert abs(element_volumes(mesh, nodes).sum() - 1.0) < 1e-12


def cartesian_by_dict(dim, n_cells, order, geometry):
    """make_cartesian element by element, numbering each node at its first
    appearance through a dict keyed by rounded coordinates (reference loop)."""
    nodes = nodal_basis(geometry, order).nodes
    h = 1.0 / n_cells
    cells = np.stack(
        np.meshgrid(*([np.arange(n_cells)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    node_ids, coords, connectivity = {}, [], []

    def global_id(point):
        key = tuple(np.round(point, 10))
        if key not in node_ids:
            node_ids[key] = len(coords)
            coords.append(point)
        return node_ids[key]

    for cell in cells:
        o = cell * h
        if geometry in ("quad", "hex"):
            elements = [o[None, :] + h * nodes]
        else:
            if geometry == "triangle":
                v = [o, o + (h, 0.0), o + (h, h), o + (0.0, h)]
                simplices = [(v[0], v[1], v[2]), (v[0], v[2], v[3])]
            else:
                simplices = [o[None, :] + h * tet for tet in _kuhn_tets()]
            elements = []
            for verts in simplices:
                v0 = np.asarray(verts[0])
                edges = np.stack([v - v0 for v in verts[1:]])
                elements.append(v0[None, :] + nodes @ edges)
        for element in elements:
            connectivity.append([global_id(p) for p in element])
    mesh = Mesh(
        dim, order, geometry, np.asarray(connectivity),
        np.ones(len(connectivity), dtype=int), num_nodes=len(coords),
    )
    node_field = NodeField.from_matrix(np.asarray(coords))
    mesh.boundary = _domain_boundary_faces(mesh, node_field)
    return mesh, node_field


@pytest.mark.parametrize("geometry", list(GEOMETRY_DIM))
@pytest.mark.parametrize("n_cells", [2, 3])
@pytest.mark.parametrize("order", [1, 3])
def test_make_cartesian_matches_per_element_numbering_exactly(geometry, n_cells, order):
    dim = GEOMETRY_DIM[geometry]
    mesh, nodes = make_cartesian(dim, n_cells, order, geometry)
    expected, expected_nodes = cartesian_by_dict(dim, n_cells, order, geometry)
    assert mesh.num_nodes == expected.num_nodes
    assert np.array_equal(mesh.connectivity, expected.connectivity)
    assert np.array_equal(nodes.coords, expected_nodes.coords)
    assert len(mesh.boundary) == len(expected.boundary)
    for (attr, ids), (expected_attr, expected_ids) in zip(mesh.boundary, expected.boundary):
        assert attr == expected_attr and np.array_equal(ids, expected_ids)


@pytest.mark.parametrize("geometry", ["pentagon", "segment"])
def test_make_cartesian_rejects_an_unknown_geometry(geometry):
    with pytest.raises(ValueError, match=f"unknown geometry '{geometry}'"):
        make_cartesian(2, 2, 1, geometry)


@pytest.mark.parametrize("geometry,dim", [("triangle", 2), ("tet", 3)])
def test_simplex_split_counts_and_volume(geometry, dim):
    mesh, nodes = make_cartesian(dim, 2, 2, geometry)
    per_cell = 2 if geometry == "triangle" else 6
    assert mesh.num_elements == per_cell * 2**dim
    assert is_valid(mesh, nodes)[0]
    assert abs(element_volumes(mesh, nodes).sum() - 1.0) < 1e-12


def test_affine_jacobian_constant_across_quadrature():
    mesh, nodes = make_cartesian(2, 2, 3, "triangle")
    mats = quadrature_jacobians(mesh, nodes, slice(None))  # (Q, E, 2, 2)
    assert np.abs(mats - mats[0]).max() < 1e-13


def test_jacobian_linear_in_nodes():
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    rng = np.random.default_rng(11)
    other = NodeField.from_matrix(rng.standard_normal(nodes.as_matrix().shape))
    both = NodeField.from_matrix(nodes.as_matrix() + other.as_matrix())
    j1, j2, j12 = (quadrature_jacobians(mesh, x, [1]) for x in (nodes, other, both))
    assert np.abs(j12 - (j1 + j2)).max() < 1e-13


def test_roundtrip(tmp_path):
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    mesh.attributes[:] = [1, 2, 3, 4]
    path = tmp_path / "mesh.mesh"
    write_mesh(path, mesh, nodes)
    mesh2, nodes2 = read_mesh(path)
    assert np.array_equal(mesh2.connectivity, mesh.connectivity)
    assert np.array_equal(mesh2.attributes, mesh.attributes)
    assert np.abs(nodes2.coords - nodes.coords).max() < 1e-15
    assert len(mesh2.boundary) == len(mesh.boundary)
    for (a1, n1), (a2, n2) in zip(mesh.boundary, mesh2.boundary):
        assert a1 == a2 and np.array_equal(n1, n2)


def test_roundtrip_skewed_coordinates(tmp_path):
    mesh, nodes = make_cartesian(2, 3, 3, "quad")
    rng = np.random.default_rng(5)
    mat = nodes.as_matrix() + 1e-3 * rng.standard_normal((mesh.num_nodes, 2))
    skewed = NodeField.from_matrix(mat)
    path = tmp_path / "m.mesh"
    write_mesh(path, mesh, skewed)
    _, nodes2 = read_mesh(path)
    assert np.abs(nodes2.coords - skewed.coords).max() < 1e-15


def test_truncated_file_reports_section_and_line(tmp_path):
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    path = tmp_path / "mesh.mesh"
    write_mesh(path, mesh, nodes)
    lines = path.read_text().splitlines()
    truncated = tmp_path / "broken.mesh"
    truncated.write_text("\n".join(lines[:6]) + "\n")
    with pytest.raises(MeshParseError) as err:
        read_mesh(truncated)
    assert "element" in str(err.value)
    assert err.value.line is not None


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("something-else v9\n")
    with pytest.raises(MeshParseError):
        read_mesh(path)


def test_content_after_the_last_node_is_rejected(tmp_path):
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    path = tmp_path / "mesh.mesh"
    write_mesh(path, mesh, nodes)
    text = path.read_text()
    num_lines = len(text.splitlines())
    path.write_text(text + "\n  \n")  # trailing blank lines are fine
    _, read_nodes = read_mesh(path)
    assert np.array_equal(read_nodes.coords, nodes.coords)
    path.write_text(text + "\nnodes 3\n0 0\n")
    with pytest.raises(MeshParseError, match="after the last node") as err:
        read_mesh(path)
    assert err.value.line == num_lines + 2


def test_binary_file_raises_parse_error(tmp_path):
    path = tmp_path / "mesh.mesh"
    path.write_bytes(b"\xff\xfe\x00binary")
    with pytest.raises(MeshParseError, match="not a text file"):
        read_mesh(path)


def test_boundary_node_ids_on_unit_square():
    mesh, nodes = make_cartesian(2, 4, 2, "quad")
    ids = mesh.boundary_node_ids()
    pts = nodes.as_matrix()[ids]
    on_edge = (
        (np.abs(pts) < 1e-12) | (np.abs(pts - 1.0) < 1e-12)
    ).any(axis=1)
    assert on_edge.all()
    # every domain-edge node is found: 4 sides x (4*2+1) minus corners
    expected = 4 * (4 * 2 + 1) - 4
    assert len(ids) == expected


def _written_lines(tmp_path):
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    path = tmp_path / "mesh.mesh"
    write_mesh(path, mesh, nodes)
    return path.read_text().splitlines()


def _line_of(lines, keyword):
    return next(i for i, line in enumerate(lines) if line.startswith(keyword))


@pytest.mark.parametrize(
    "case", ["elements x", "boundary x", "nodes x", "extra node", "empty boundary"]
)
def test_malformed_input_reports_line(tmp_path, case):
    lines = _written_lines(tmp_path)
    if case.endswith(" x"):
        bad = _line_of(lines, case.split()[0])
        lines[bad] = case
    elif case == "extra node":
        bad = _line_of(lines, "elements") + 2  # the second of 4 elements
        lines[bad] += " 0"
    else:
        bad = _line_of(lines, "boundary") + 1
        lines[bad] = ""
    path = tmp_path / "broken.mesh"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshParseError) as err:
        read_mesh(path)
    assert err.value.line == bad + 1


@st.composite
def small_meshes(draw):
    geometry = draw(st.sampled_from(["quad", "triangle", "hex", "tet"]))
    dim = GEOMETRY_DIM[geometry]
    order = draw(st.integers(1, 3 if dim == 2 else 2))
    mesh, nodes = make_cartesian(dim, draw(st.integers(1, 2)), order, geometry)
    mesh.attributes = np.array(
        draw(st.lists(st.integers(-5, 99), min_size=mesh.num_elements,
                      max_size=mesh.num_elements))
    )
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    mat = draw(
        st.lists(st.lists(finite, min_size=dim, max_size=dim),
                 min_size=mesh.num_nodes, max_size=mesh.num_nodes)
    )
    return mesh, NodeField.from_matrix(np.array(mat))


_FUZZ_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_FUZZ_SETTINGS
@given(small_meshes())
def test_write_read_roundtrip_is_exact(tmp_path_factory, mesh_and_nodes):
    mesh, nodes = mesh_and_nodes
    path = tmp_path_factory.mktemp("fuzz") / "m.mesh"
    write_mesh(path, mesh, nodes)
    mesh2, nodes2 = read_mesh(path)
    assert (mesh2.dim, mesh2.order, mesh2.geometry) == (
        mesh.dim, mesh.order, mesh.geometry,
    )
    assert np.array_equal(mesh2.connectivity, mesh.connectivity)
    assert np.array_equal(mesh2.attributes, mesh.attributes)
    assert np.array_equal(nodes2.coords, nodes.coords)
    assert len(mesh2.boundary) == len(mesh.boundary)
    for (a1, n1), (a2, n2) in zip(mesh.boundary, mesh2.boundary):
        assert a1 == a2 and np.array_equal(n1, n2)


_TOKENS = st.sampled_from(
    ["x", "", "-1", "0", "1", "2", "3", "7", "0.5", "nan", "inf", "1e400",
     "99999999999999999999999", "dim", "order", "geom", "quad", "tet",
     "elements", "boundary", "nodes"]
)


@_FUZZ_SETTINGS
@given(small_meshes(), st.data())
def test_single_line_corruption_raises_parse_error(
    tmp_path_factory, mesh_and_nodes, data
):
    mesh, nodes = mesh_and_nodes
    path = tmp_path_factory.mktemp("fuzz") / "m.mesh"
    write_mesh(path, mesh, nodes)
    lines = path.read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    action = data.draw(st.sampled_from(["replace", "delete", "duplicate", "append"]))
    if action == "delete":
        del lines[i]
    elif action == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = " ".join(data.draw(st.lists(_TOKENS, max_size=5), label="tokens"))
        lines[i] = tokens if action == "replace" else f"{lines[i]} {tokens}"
    path.write_text("\n".join(lines) + "\n")
    try:
        read_mesh(path)
    except MeshParseError as err:
        assert err.line is not None and 1 <= err.line <= len(lines) + 1


@pytest.mark.parametrize("geometry", ["quad", "triangle", "hex", "tet"])
@pytest.mark.parametrize("change", ["drop", "add"])
def test_boundary_line_with_the_wrong_node_count_is_rejected(tmp_path, geometry, change):
    # An order-2 face has 3 (edge), 9 (quad face) or 6 (triangle face)
    # nodes; a line with one node fewer, such as "3 0 1" for an edge, or
    # one more is not a face.
    mesh, nodes = make_cartesian(GEOMETRY_DIM[geometry], 1, 2, geometry)
    path = tmp_path / "mesh.mesh"
    write_mesh(path, mesh, nodes)
    lines = path.read_text().splitlines()
    bad = _line_of(lines, "boundary") + 2  # the second boundary line
    parts = lines[bad].split()
    lines[bad] = " ".join(parts[:-1] if change == "drop" else parts + ["0"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshParseError, match="boundary line needs") as err:
        read_mesh(path)
    assert err.value.line == bad + 1

