"""Level sets, error measures, VTK output, reports, and the CLI."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import tmopfit
from tmopfit.cases import (
    FitReport,
    compute_E,
    compute_e_S,
    named_case,
    run_case,
)
from tmopfit.cli import main
from tmopfit.errors import EmptyMarkedSetError
from tmopfit.fields import ScalarField
from tmopfit.fitting import MarkedSet
from tmopfit.levelsets import builtin_levelset
from tmopfit.mesh import NodeField, make_cartesian, write_mesh
from tmopfit.vtk import write_vtk


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
        "mu2", make_targets(mesh, nodes, "unit"), fixed_mask=boundary_fixed_mask(mesh)
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


def test_unknown_levelset_rejected():
    with pytest.raises(ValueError):
        builtin_levelset("nope")


def test_e_s_zero_on_circle():
    mesh, nodes = make_cartesian(2, 4, 1, "quad")
    pts = nodes.as_matrix().copy()
    pts[:3] = [[0.8, 0.5], [0.5, 0.8], [0.2, 0.5]]
    marked = MarkedSet(np.array([0, 1, 2]))
    assert compute_e_S(NodeField.from_matrix(pts), marked, (0.5, 0.5)) < 1e-28


def test_e_s_single_node():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    pts = nodes.as_matrix().copy()
    pts[0] = [0.81, 0.5]  # distance 0.31
    marked = MarkedSet(np.array([0]))
    got = compute_e_S(NodeField.from_matrix(pts), marked, (0.5, 0.5))
    assert abs(got - 1e-4) < 1e-12


def test_e_s_two_nodes_average():
    mesh, nodes = make_cartesian(2, 2, 1, "quad")
    pts = nodes.as_matrix().copy()
    pts[0] = [0.81, 0.5]
    pts[1] = [0.5, 0.79]
    marked = MarkedSet(np.array([0, 1]))
    got = compute_e_S(NodeField.from_matrix(pts), marked, (0.5, 0.5))
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


def test_cli_run_tiny_case(tmp_path, capsys):
    code = main([
        "run", "fit2d-quad", "--res", "4", "--order", "2",
        "--out", str(tmp_path / "out"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "termination   converged" in out
    assert (tmp_path / "out" / "report.json").exists()
