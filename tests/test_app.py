"""Level sets, error measures, VTK output, reports, and the CLI."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import tmopfit
from tmopfit.cases import (
    CASE_DEFAULTS,
    FitReport,
    compute_E,
    compute_e_S,
    named_case,
    run_case,
)
from tmopfit.cli import main
from tmopfit.errors import CaseConfigError, EmptyMarkedSetError
from tmopfit.fields import ScalarField
from tmopfit.fitting import MarkedSet
from tmopfit.levelsets import builtin_levelset, sphere
from tmopfit.mesh import NodeField, make_cartesian, write_mesh
from tmopfit.reference import GEOMETRIES, REFERENCE_VERTICES
from tmopfit.vtk import VTK_LAGRANGE_CELL, vtk_lattice, write_vtk


def test_package_imports_no_scipy():
    # scipy is a test-only dependency; importing it would add about a
    # third of a second to every run.
    code = (
        "import sys, tmopfit.cases, tmopfit.cli, tmopfit.checks; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    src = str(Path(tmopfit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_fit_run_does_not_import_numpy_ma(tmp_path):
    # A plain np.unique imports numpy.ma on its first call (numpy 2.4),
    # about 15 ms of every run.
    code = (
        "import sys, tmopfit.cases as c; "
        f"c.run_case(c.named_case('fit2d-tri'), out_dir={str(tmp_path)!r}); "
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(tmopfit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "False"


def unused_imports(tree):
    """Names a module imports at top level and never reads.  A read inside
    a function whose parameter has the same name does not count."""
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = set()

    def visit(node, shadowed):
        if isinstance(node, ast.Name) and node.id not in shadowed:
            used.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            for child in args.defaults + args.kw_defaults + getattr(node, "decorator_list", []):
                if child is not None:
                    visit(child, shadowed)
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            shadowed = shadowed | {p.arg for p in params if p is not None}
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, shadowed)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed)

    visit(tree, frozenset())
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_has_no_unused_imports():
    # Neither pyflakes nor ruff is a dependency; this covers their F401.
    package = Path(tmopfit.__file__).resolve().parent
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in unused_imports(ast.parse(path.read_text()))
    ]
    assert unused == []


def test_traced_functions_exist():
    # The benchmark's traced runs wrap the functions named in TARGETS of
    # perfbench/tracing.py and leave out the per-layer metrics of any
    # that no longer exists.  Read, not imported: it is the benchmark's.
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    assert targets
    missing = []
    for name, (module, qualname) in targets.items():
        owner = importlib.import_module(f"tmopfit.{module}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(name)
    assert missing == []


def test_traced_results_expose_what_the_hooks_read(monkeypatch):
    # The trace hooks add hessian(...).nnz to a count, compare
    # np.asarray(newton_step(...)) with -grad, turn line_search's step into
    # halvings with its seventh positional argument's backtrack_factor, and
    # count transfer_field(...).coefficients.
    import tmopfit.solver as solver
    from tmopfit.objective import ObjectiveConfig, boundary_fixed_mask, gradient, hessian
    from tmopfit.quality import make_targets
    from tmopfit.transfer import transfer_field

    mesh, nodes = make_cartesian(2, 3, 2, "quad")
    cfg = ObjectiveConfig(
        "mu2",
        make_targets(mesh, nodes, "ideal-shape-unit-size"),
        fixed_mask=boundary_fixed_mask(mesh),
    )
    moved = nodes.copy()
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_node_ids())
    moved.coords[interior] += 0.02
    h = hessian(cfg, mesh, moved)
    assert isinstance(h.nnz, int) and h.nnz > 0
    grad = gradient(cfg, mesh, moved)
    step = solver.newton_step(h, grad)
    assert step.kind == "newton"
    assert np.array_equal(np.asarray(step), step.direction)
    assert not np.array_equal(np.asarray(step), -grad)

    searches = []
    original = solver.line_search

    def recorded(*args):
        searches.append((args, original(*args)))
        return searches[-1][1]

    monkeypatch.setattr(solver, "line_search", recorded)
    solver.solve(solver.SolverConfig(), cfg, mesh, moved)
    assert searches
    for args, (alpha, _, _, halvings) in searches:
        factor = args[6].backtrack_factor
        assert round(math.log(alpha) / math.log(factor)) == halvings

    sigma = ScalarField(mesh, np.arange(mesh.num_nodes, dtype=float))
    assert len(transfer_field(sigma, nodes, mesh, moved).coefficients) == mesh.num_nodes


@pytest.mark.parametrize(
    "flag", [["--metric", "mu999"], ["--wsigma", "-1"], ["--res", "0"],
             ["--order", "0"], ["--max-iter", "-3"]],
)
def test_cli_run_rejects_bad_arguments(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "fit2d-quad", *flag])
    assert exit_info.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_cli_run_exit_codes_tell_non_convergence_from_usage_errors(capsys):
    # A run cut at one Newton step stops at max-iter and exits with its own
    # code, not argparse's usage code 2.
    assert main(["run", "fit2d-quad", "--max-iter", "1"]) == 3
    assert "max-iter" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "fit2d-quad", "--res", "0"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "3 when it stops otherwise" in " ".join(capsys.readouterr().out.split())


def test_cli_run_reports_a_package_error_in_one_line(capsys):
    # One cell per axis leaves no interface between differing attributes,
    # so marking raises EmptyMarkedSetError; the run reports it as a usage
    # error instead of a traceback.
    assert main(["run", "fit2d-tri", "--res", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "tmopfit: error: no interface faces between differing attributes\n"


@pytest.mark.parametrize(
    "case,dim,metric", [("fit3d-hex", 3, "mu58"), ("fit2d-quad", 2, "mu302")]
)
def test_cli_run_rejects_a_metric_of_the_other_dimension(case, dim, metric, capsys):
    # mu58 is a shape metric only in 2D: on a 3D mesh its values go
    # negative and the run still "converges".
    assert main(["run", case, "--res", "3", "--metric", metric]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"tmopfit: error: metric {metric} is not a {dim}D metric (case {case})\n"
    )
    with pytest.raises(CaseConfigError):
        named_case(case, metric_id=metric)


@pytest.mark.parametrize("name", sorted(CASE_DEFAULTS))
def test_cli_run_of_every_case_at_resolution_2_ends_with_an_exit_code(name, capsys):
    # Coarse meshes put a mesh node at a level set's center or leave no
    # interface to mark; either way the run ends with an exit code and at
    # most one error line, never a traceback.
    assert main(["run", name, "--res", "2"]) in (0, 2, 3)
    err = capsys.readouterr().err
    assert err == "" or (err.startswith("tmopfit: error: ") and err.count("\n") == 1)


def test_sphere_levelset_values():
    ls = builtin_levelset("sphere2d")
    assert abs(ls.values(np.array([[0.5, 0.9]]))[0] - 0.1) < 1e-14
    assert abs(ls.values(np.array([[0.2, 0.5]]))[0]) < 1e-14
    ls3 = builtin_levelset("sphere3d")
    assert abs(ls3.values(np.array([[0.5, 0.5, 0.8]]))[0]) < 1e-14


def test_rt_levelset_crosses_at_known_point():
    ls = builtin_levelset("rt2d")
    assert abs(ls.values(np.array([[0.0, 0.62]]))[0]) < 1e-14


def test_tg_levelset_radius():
    ls = builtin_levelset("tg2d")
    # along theta = 0 the radius is 0.3 + 0.08
    assert abs(ls.values(np.array([[0.88, 0.5]]))[0]) < 1e-14


@pytest.mark.parametrize("name", ["tg2d", "tg3d"])
def test_tg_levelset_center_is_finite(name):
    # The center is a mesh node, where the wave has no limit.
    ls = builtin_levelset(name)
    center = np.full((1, ls.dim), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ls.values(center)[0] == -0.3
        assert not np.any(ls.gradients(center)) and not np.any(ls.hessians(center))


@pytest.mark.parametrize("name", ["sphere2d", "sphere3d"])
def test_sphere_levelset_center_is_finite(name):
    # The distance has no derivative at the center, a mesh node of the
    # fit cases; its derivatives there are 0, as for the wave.
    ls = builtin_levelset(name)
    center = np.full((1, ls.dim), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ls.values(center)[0] == -0.3
        assert not np.any(ls.gradients(center)) and not np.any(ls.hessians(center))


def test_unknown_levelset_rejected():
    with pytest.raises(ValueError):
        builtin_levelset("nope")


def test_e_s_zero_on_circle():
    mesh, nodes = make_cartesian(2, 4, 1, "quad")
    pts = nodes.as_matrix().copy()
    pts[:3] = [[0.8, 0.5], [0.5, 0.8], [0.2, 0.5]]
    marked = MarkedSet(np.array([0, 1, 2]))
    assert compute_e_S(NodeField.from_matrix(pts), marked, sphere((0.5, 0.5))) < 1e-28


def test_e_s_single_node():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    pts = nodes.as_matrix().copy()
    pts[0] = [0.81, 0.5]  # distance 0.31
    marked = MarkedSet(np.array([0]))
    got = compute_e_S(NodeField.from_matrix(pts), marked, sphere((0.5, 0.5)))
    assert abs(got - 1e-4) < 1e-12


def test_e_s_two_nodes_average():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    pts = nodes.as_matrix().copy()
    pts[0] = [0.81, 0.5]
    pts[1] = [0.5, 0.79]
    marked = MarkedSet(np.array([0, 1]))
    got = compute_e_S(NodeField.from_matrix(pts), marked, sphere((0.5, 0.5)))
    assert abs(got - 1e-4) < 1e-12


def test_compute_E_examples():
    mesh, _ = make_cartesian(2, 2, 1, "quad")
    coeff = np.zeros(mesh.num_nodes)
    sbar = ScalarField(mesh, coeff)
    marked = MarkedSet(np.array([0, 1]))
    assert compute_E(sbar, marked) == (0.0, 0.0)
    coeff2 = coeff.copy()
    coeff2[0], coeff2[1] = 0.02, -0.04
    avg, mx = compute_E(ScalarField(mesh, coeff2), marked)
    assert abs(avg - 0.03) < 1e-15 and abs(mx - 0.04) < 1e-15
    single = MarkedSet(np.array([1]))
    avg1, max1 = compute_E(ScalarField(mesh, coeff2), single)
    assert avg1 == max1


def _read_vtu(path):
    root = ET.parse(path).getroot()
    piece = root.find(".//Piece")
    n_points = int(piece.get("NumberOfPoints"))
    n_cells = int(piece.get("NumberOfCells"))
    types = piece.find(".//Cells/DataArray[@Name='types']").text.split()
    sigma = piece.find(".//PointData/DataArray[@Name='sigma']")
    sigma_vals = [] if sigma is None else sigma.text.split()
    attrs = piece.find(".//CellData/DataArray[@Name='attribute']").text.split()
    return n_points, n_cells, [int(t) for t in types], sigma_vals, attrs


def test_vtk_single_linear_quad(tmp_path):
    mesh, nodes = make_cartesian(2, 1, 1, "quad")
    sigma = ScalarField(mesh, np.arange(4, dtype=float))
    path = tmp_path / "one.vtu"
    write_vtk(path, mesh, nodes, sigma)
    n_points, n_cells, types, sigma_vals, attrs = _read_vtu(path)
    assert n_points == 4 and n_cells == 1
    assert types == [70]
    assert len(sigma_vals) == n_points
    assert len(attrs) == n_cells


def test_vtk_order3_quad_has_16_point_cells(tmp_path):
    mesh, nodes = make_cartesian(2, 2, 3, "quad")
    sigma = ScalarField(mesh, np.zeros(mesh.num_nodes))
    path = tmp_path / "ho.vtu"
    write_vtk(path, mesh, nodes, sigma)
    n_points, n_cells, types, sigma_vals, _ = _read_vtu(path)
    assert n_cells == 4
    assert n_points == 16 * n_cells
    assert set(types) == {70}
    assert len(sigma_vals) == n_points


@pytest.mark.parametrize(
    "geometry,dim,cell_type,n_lattice",
    [("triangle", 2, 69, 10), ("hex", 3, 72, 27), ("tet", 3, 71, 10)],
)
def test_vtk_cell_types_and_counts(tmp_path, geometry, dim, cell_type, n_lattice):
    order = 3 if geometry == "triangle" else 2
    mesh, nodes = make_cartesian(dim, 1, order, geometry)
    path = tmp_path / f"{geometry}.vtu"
    write_vtk(path, mesh, nodes)
    n_points, n_cells, types, _, _ = _read_vtu(path)
    assert set(types) == {cell_type}
    assert n_points == n_lattice * n_cells


# VTK Lagrange point order as integer lattice points (lattice * order),
# written out from VTK's cell definitions: vertices, edges, faces,
# interior.
VTK_ORDER = {
    ("quad", 2): [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (2, 1), (1, 2), (0, 1), (1, 1)],
    ("quad", 3): [
        (0, 0), (3, 0), (3, 3), (0, 3), (1, 0), (2, 0), (3, 1), (3, 2), (1, 3), (2, 3),
        (0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2),
    ],
    ("hex", 2): [
        (0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (0, 0, 2), (2, 0, 2), (2, 2, 2),
        (0, 2, 2), (1, 0, 0), (2, 1, 0), (1, 2, 0), (0, 1, 0), (1, 0, 2), (2, 1, 2),
        (1, 2, 2), (0, 1, 2), (0, 0, 1), (2, 0, 1), (2, 2, 1), (0, 2, 1), (0, 1, 1),
        (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, 2), (1, 1, 1),
    ],
    ("hex", 3): [
        (0, 0, 0), (3, 0, 0), (3, 3, 0), (0, 3, 0), (0, 0, 3), (3, 0, 3), (3, 3, 3),
        (0, 3, 3), (1, 0, 0), (2, 0, 0), (3, 1, 0), (3, 2, 0), (1, 3, 0), (2, 3, 0),
        (0, 1, 0), (0, 2, 0), (1, 0, 3), (2, 0, 3), (3, 1, 3), (3, 2, 3), (1, 3, 3),
        (2, 3, 3), (0, 1, 3), (0, 2, 3), (0, 0, 1), (0, 0, 2), (3, 0, 1), (3, 0, 2),
        (3, 3, 1), (3, 3, 2), (0, 3, 1), (0, 3, 2), (0, 1, 1), (0, 2, 1), (0, 1, 2),
        (0, 2, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (1, 0, 1), (2, 0, 1),
        (1, 0, 2), (2, 0, 2), (1, 3, 1), (2, 3, 1), (1, 3, 2), (2, 3, 2), (1, 1, 0),
        (2, 1, 0), (1, 2, 0), (2, 2, 0), (1, 1, 3), (2, 1, 3), (1, 2, 3), (2, 2, 3),
        (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2),
        (2, 2, 2),
    ],
    ("triangle", 3): [
        (0, 0), (3, 0), (0, 3), (1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1), (1, 1),
    ],
    ("triangle", 4): [
        (0, 0), (4, 0), (0, 4), (1, 0), (2, 0), (3, 0), (3, 1), (2, 2), (1, 3), (0, 3),
        (0, 2), (0, 1), (1, 1), (2, 1), (1, 2),
    ],
    ("tet", 3): [
        (0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 0, 0), (2, 0, 0), (2, 1, 0),
        (1, 2, 0), (0, 2, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2), (2, 0, 1), (1, 0, 2),
        (0, 2, 1), (0, 1, 2), (1, 0, 1), (1, 1, 1), (0, 1, 1), (1, 1, 0),
    ],
    ("tet", 4): [
        (0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 0, 0), (2, 0, 0), (3, 0, 0),
        (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 3, 0), (0, 2, 0), (0, 1, 0), (0, 0, 1),
        (0, 0, 2), (0, 0, 3), (3, 0, 1), (2, 0, 2), (1, 0, 3), (0, 3, 1), (0, 2, 2),
        (0, 1, 3), (1, 0, 1), (2, 0, 1), (1, 0, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2),
        (0, 2, 1), (0, 1, 1), (0, 1, 2), (1, 1, 0), (1, 2, 0), (2, 1, 0), (1, 1, 1),
    ],
}


@pytest.mark.parametrize("geometry,order", sorted(VTK_ORDER))
def test_vtk_lattice_follows_vtk_point_order(geometry, order):
    lattice = vtk_lattice(geometry, order)
    assert lattice.dtype == float
    assert np.array_equal(lattice, np.array(VTK_ORDER[geometry, order]) / order)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("order", range(1, 7))
def test_vtk_lattice_is_the_full_lattice_vertices_first(geometry, order):
    points = np.rint(vtk_lattice(geometry, order) * order).astype(int)
    dim = points.shape[1]
    grid = np.stack(np.meshgrid(*[range(order + 1)] * dim), -1).reshape(-1, dim)
    if geometry in ("triangle", "tet"):
        grid = grid[grid.sum(axis=1) <= order]
    assert len(points) == len(grid)
    assert sorted(map(tuple, points)) == sorted(map(tuple, grid))
    vertices = REFERENCE_VERTICES[geometry]
    assert np.array_equal(points[: len(vertices)], order * vertices)


def mesh_text_per_row(mesh, node_field):
    """write_mesh's text, one row at a time (reference loop)."""
    lines = ["tmopfit-mesh v1", f"dim {mesh.dim}", f"order {mesh.order}",
             f"geom {mesh.geometry}", f"elements {mesh.num_elements}"]
    for attr, conn in zip(mesh.attributes, mesh.connectivity):
        lines.append(" ".join([str(int(attr))] + [str(int(c)) for c in conn]))
    lines.append(f"boundary {len(mesh.boundary)}")
    for attr, nodes in mesh.boundary:
        lines.append(" ".join([str(int(attr))] + [str(int(c)) for c in nodes]))
    lines.append(f"nodes {mesh.num_nodes}")
    for row in node_field.as_matrix():
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def vtk_text_per_element(mesh, node_field, sigma):
    """write_vtk's text with sigma, element by element and row by row
    (reference loop)."""
    lattice = vtk_lattice(mesh.geometry, mesh.order)
    basis_vals = mesh.basis.eval(lattice)
    pts = node_field.as_matrix()
    n_lat, n_cells = len(lattice), mesh.num_elements
    coords = np.zeros((n_lat * n_cells, 3))
    sigma_vals = np.zeros(n_lat * n_cells)
    for e, conn in enumerate(mesh.connectivity):
        block = slice(e * n_lat, (e + 1) * n_lat)
        coords[block, : mesh.dim] = basis_vals @ pts[conn]
        sigma_vals[block] = basis_vals @ sigma.coefficients[conn]
    lines = [
        '<?xml version="1.0"?>',
        '<VTKFile type="UnstructuredGrid" version="2.2" byte_order="LittleEndian">',
        "<UnstructuredGrid>",
        f'<Piece NumberOfPoints="{len(coords)}" NumberOfCells="{n_cells}">',
        "<Points>",
        '<DataArray type="Float64" NumberOfComponents="3" format="ascii">',
    ]
    lines += [f"{row[0]:.16g} {row[1]:.16g} {row[2]:.16g}" for row in coords]
    lines += ["</DataArray>", "</Points>", "<Cells>",
              '<DataArray type="Int64" Name="connectivity" format="ascii">']
    lines += [" ".join(str(e * n_lat + i) for i in range(n_lat)) for e in range(n_cells)]
    lines += [
        "</DataArray>",
        '<DataArray type="Int64" Name="offsets" format="ascii">',
        " ".join(str((e + 1) * n_lat) for e in range(n_cells)),
        "</DataArray>",
        '<DataArray type="UInt8" Name="types" format="ascii">',
        " ".join(str(VTK_LAGRANGE_CELL[mesh.geometry]) for _ in range(n_cells)),
        "</DataArray>", "</Cells>",
        '<PointData Scalars="sigma">',
        '<DataArray type="Float64" Name="sigma" format="ascii">',
    ]
    lines += [f"{v:.16g}" for v in sigma_vals]
    lines += [
        "</DataArray>", "</PointData>",
        '<CellData Scalars="attribute">',
        '<DataArray type="Int32" Name="attribute" format="ascii">',
        " ".join(str(int(a)) for a in mesh.attributes),
        "</DataArray>", "</CellData>", "</Piece>", "</UnstructuredGrid>", "</VTKFile>",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("geometry,dim,order", [("triangle", 2, 3), ("hex", 3, 2)])
def test_writers_match_per_element_writers_byte_for_byte(tmp_path, geometry, dim, order):
    mesh, nodes = make_cartesian(dim, 3, order, geometry)
    x = nodes.as_matrix()
    moved = NodeField.from_matrix(x + 0.02 * np.sin(2.0 * np.pi * x[:, ::-1]))
    mesh.attributes[::2] = 2
    sigma = ScalarField(mesh, np.linalg.norm(x - 0.5, axis=1) - 0.3)
    write_mesh(tmp_path / "m.mesh", mesh, moved)
    write_vtk(tmp_path / "m.vtu", mesh, moved, sigma)
    assert (tmp_path / "m.mesh").read_bytes() == mesh_text_per_row(mesh, moved).encode()
    expected = vtk_text_per_element(mesh, moved, sigma).encode()
    assert (tmp_path / "m.vtu").read_bytes() == expected


def test_fit_report_json_roundtrip():
    report = FitReport(
        case="fit2d-quad", f0=1.25, f_final=0.5, f_decrease_pct=60.0,
        e_s=1.5e-5, e_avg=1e-3, e_max=4e-3, iterations=7, wall_time_s=12.5,
        converged=True, reason="converged",
    )
    back = FitReport.from_json(report.to_json())
    assert back == report
    data = json.loads(report.to_json())
    assert set(data) >= {
        "case", "F0", "F_final", "F_decrease_pct", "e_S", "E_avg", "E_max",
        "iterations", "wall_time_s",
    }


def test_run_case_writes_outputs(tmp_path):
    case = named_case("fit2d-quad", resolution=4, order=2)
    case.max_iterations = 60
    run = run_case(case, out_dir=tmp_path)
    for name in (
        "mesh_initial.mesh", "mesh_final.mesh", "mesh_initial.vtu",
        "mesh_final.vtu", "history.csv", "report.json",
    ):
        assert (tmp_path / name).exists(), name
    header = (tmp_path / "history.csv").read_text().splitlines()[0]
    assert header.startswith("iter,F,Fmu,Fsigma,gradnorm,step,mindet,")
    report = FitReport.from_json((tmp_path / "report.json").read_text())
    assert report.case == "fit2d-quad"
    assert report.e_s is not None and report.e_s >= 0.0
    assert report.e_max >= report.e_avg >= 0.0
    assert report.f_decrease_pct > 0.0


@pytest.mark.parametrize("name, aligns, solves", [("tg2d", 1, 2), ("fit2d-quad", 0, 1)])
def test_run_case_solves_through_module_globals(monkeypatch, name, aligns, solves):
    # The benchmark times every solve by replacing cases.solve, and traces
    # the alignment as cases._align_mesh_to_levelset; run_case must reach
    # both through the module's globals.
    import tmopfit.cases as cases

    counts = {"align": 0, "solve": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    align = counting("align", cases._align_mesh_to_levelset)
    monkeypatch.setattr(cases, "_align_mesh_to_levelset", align)
    monkeypatch.setattr(cases, "solve", counting("solve", cases.solve))
    run_case(name)
    assert counts == {"align": aligns, "solve": solves}


def test_run_case_keeps_the_alignment_report():
    run = run_case("tg2d")
    assert run.align_report is not None and run.align_report is not run.solve_report
    assert run.align_report.reason == "converged" and run.align_report.history
    assert run_case("fit2d-quad").align_report is None


def test_rt2d_solves_converge_without_steepest_descent():
    run = run_case("rt2d")
    for report in (run.align_report, run.solve_report):
        assert report.reason == "converged"
        assert "steepest" not in [row[7] for row in report.history]


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        named_case("fit9d-dodeca")


def test_cli_info(tmp_path, capsys):
    mesh, nodes = make_cartesian(2, 2, 2, "quad")
    path = tmp_path / "m.mesh"
    write_mesh(path, mesh, nodes)
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "elements      4" in out
    assert "valid         True" in out


@pytest.mark.parametrize(
    "content, message",
    [("tmopfit-mesh v1\ndim 2\norder x\n", "line 3: 'order' needs"),
     (None, "No such file or directory")],
    ids=["malformed", "missing"],
)
def test_cli_info_reports_unreadable_file_in_one_line(tmp_path, capsys, content, message):
    path = tmp_path / "m.mesh"
    if content is not None:
        path.write_text(content)
    assert main(["info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tmopfit: error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_cli_run_tiny_case(tmp_path, capsys):
    code = main([
        "run", "fit2d-quad", "--res", "4", "--order", "2",
        "--out", str(tmp_path / "out"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "termination   converged" in out
    assert (tmp_path / "out" / "report.json").exists()
