"""Bundled test cases: surface fitting and tangential relaxation runs.

Fitting cases start from a Cartesian mesh that is not aligned with the
implicit surface and pull the marked nodes onto the zero level set.
Relaxation cases first manufacture an aligned initial mesh (a strong
preliminary fitting run followed by sign-based attribute assignment),
then optimize with the interface either fixed or weakly relaxed.
"""

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import CaseConfigError
from .fields import project
from .fitting import attributes_from_sign, make_penalty, mark_interface_nodes
from .levelsets import builtin_levelset
from .mesh import make_cartesian, write_mesh
from .objective import ObjectiveConfig, boundary_fixed_mask, fix_nodes
from .quality import METRIC_DIM, make_targets
from .solver import SolverConfig, solve
from .transfer import transfer_field
from .vtk import write_vtk


@dataclass
class TestCase:
    """Fully resolved configuration of one named (or custom) run."""

    name: str
    dim: int
    geometry: str
    resolution: int
    order: int
    levelset: str
    metric_id: str
    target_kind: str
    w_sigma: float
    mode: str  # "fit" | "relax" | "fixed"
    gamma: float = 0.5
    max_iterations: int = 200
    eps: float = 1e-6
    align_w_sigma: float = 1e4
    align_max_iterations: int = 60

    def __post_init__(self):
        if METRIC_DIM.get(self.metric_id) != self.dim:
            raise CaseConfigError(
                f"metric {self.metric_id} is not a {self.dim}D metric (case {self.name})"
            )

    def copy_with(self, **overrides):
        data = asdict(self)
        data.update({k: v for k, v in overrides.items() if v is not None})
        return TestCase(**data)


CASE_DEFAULTS = {
    "fit2d-quad": TestCase(
        "fit2d-quad", 2, "quad", 8, 3, "sphere2d", "mu58",
        "ideal-shape-unit-size", 1000.0, "fit",
    ),
    "fit2d-tri": TestCase(
        "fit2d-tri", 2, "triangle", 8, 3, "sphere2d", "mu58",
        "ideal-shape-unit-size", 1000.0, "fit",
    ),
    "fit3d-hex": TestCase(
        "fit3d-hex", 3, "hex", 8, 2, "sphere3d", "mu333",
        "ideal-shape-initial-size", 1000.0, "fit",
    ),
    "fit3d-tet": TestCase(
        "fit3d-tet", 3, "tet", 8, 2, "sphere3d", "mu333",
        "ideal-shape-initial-size", 1000.0, "fit",
    ),
    "tg2d": TestCase(
        "tg2d", 2, "quad", 8, 3, "tg2d", "mu80",
        "ideal-shape-initial-size", 1000.0, "relax",
    ),
    "tg3d": TestCase(
        "tg3d", 3, "hex", 6, 2, "tg3d", "mu333",
        "ideal-shape-initial-size", 1000.0, "relax",
    ),
    "rt2d": TestCase(
        "rt2d", 2, "quad", 8, 2, "rt2d", "mu80",
        "ideal-shape-initial-size", 1e4, "relax", align_w_sigma=1e5,
    ),
    "rt3d": TestCase(
        "rt3d", 3, "hex", 8, 2, "rt3d", "mu333",
        "ideal-shape-initial-size", 1e4, "relax",
    ),
}


def named_case(name, **overrides):
    if name not in CASE_DEFAULTS:
        raise ValueError(
            f"unknown case {name!r}; available: {sorted(CASE_DEFAULTS)}"
        )
    return CASE_DEFAULTS[name].copy_with(**overrides)


@dataclass
class FitReport:
    """Summary of one optimization run."""

    case: str
    f0: float
    f_final: float
    f_decrease_pct: float
    e_s: float  # None when no analytic sphere is available
    e_avg: float
    e_max: float
    iterations: int
    wall_time_s: float
    converged: bool = True
    reason: str = "converged"

    def to_json(self):
        return json.dumps(
            {
                "case": self.case,
                "F0": self.f0,
                "F_final": self.f_final,
                "F_decrease_pct": self.f_decrease_pct,
                "e_S": self.e_s,
                "E_avg": self.e_avg,
                "E_max": self.e_max,
                "iterations": self.iterations,
                "wall_time_s": self.wall_time_s,
                "converged": self.converged,
                "reason": self.reason,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(
            d["case"], d["F0"], d["F_final"], d["F_decrease_pct"], d["e_S"],
            d["E_avg"], d["E_max"], d["iterations"], d["wall_time_s"],
            d.get("converged", True), d.get("reason", "converged"),
        )


def compute_e_S(node_field, marked, level_set):
    """Mean squared level-set value at the marked nodes: their mean
    squared distance from the surface when level_set is a signed
    distance, as levelsets.sphere is."""
    pts = node_field.as_matrix()[marked.indices]
    return float(np.mean(level_set.values(pts) ** 2))


def compute_E(sigma, marked):
    """Average and maximum level-set violation magnitude at marked nodes."""
    vals = np.abs(sigma.coefficients[marked.indices])
    return float(vals.mean()), float(vals.max())


@dataclass
class CaseRun:
    """Everything run_case produced, for tests and file output."""

    case: TestCase
    mesh: object
    initial_nodes: object
    final_nodes: object
    sigma0: object
    sigma_final: object
    marked: object
    solve_report: object
    align_report: object  # SolveReport of the alignment; None for fit cases
    fit_report: FitReport


def _solve_case(case, mesh, nodes, level_set, marked, w_sigma, scfg):
    """One solve of the case's objective with the domain boundary fixed.

    w_sigma weights the fitting penalty on the marked nodes; None fixes
    the marked nodes instead, with no penalty.  The named cases' surfaces
    are analytic; sampling them directly keeps the objective smooth so
    the gradient-ratio criterion is certifiable.  The discrete pathway
    (projected sigma plus transfer) still provides marking, reporting,
    and E measures.
    """
    targets = make_targets(mesh, nodes, case.target_kind)
    mask = boundary_fixed_mask(mesh)
    penalty = None
    if w_sigma is None:
        mask = fix_nodes(mask, mesh, marked.indices)
    else:
        penalty = make_penalty(w_sigma, level_set, mesh, targets, marked)
    config = ObjectiveConfig(
        case.metric_id, targets, gamma=case.gamma, penalty=penalty, fixed_mask=mask
    )
    return solve(scfg, config, mesh, nodes)


def _align_mesh_to_levelset(case, mesh, nodes, level_set):
    """Preliminary strong fitting run used to manufacture an initially
    aligned configuration for the relaxation cases.  Returns the aligned
    nodes and the SolveReport."""
    sigma = project(level_set, mesh, nodes)
    marked = mark_interface_nodes(mesh, attributes_from_sign(mesh, sigma))
    scfg = SolverConfig(eps=1e-4, max_iterations=case.align_max_iterations)
    return _solve_case(case, mesh, nodes, level_set, marked, case.align_w_sigma, scfg)


def run_case(case, out_dir=None):
    """Build the mesh, mark, solve, and report one case.

    Writes mesh_initial/final (text + VTU), history.csv, and report.json
    into out_dir when given.  Returns a CaseRun.
    """
    if isinstance(case, str):
        case = named_case(case)
    level_set = builtin_levelset(case.levelset)
    mesh, nodes = make_cartesian(case.dim, case.resolution, case.order, case.geometry)

    align_report = None
    if case.mode in ("relax", "fixed"):
        nodes, align_report = _align_mesh_to_levelset(case, mesh, nodes, level_set)
    sigma0 = project(level_set, mesh, nodes)
    mesh.attributes = attributes_from_sign(mesh, sigma0)
    marked = mark_interface_nodes(mesh, mesh.attributes)

    initial_nodes = nodes.copy()
    w_sigma = None if case.mode == "fixed" else case.w_sigma
    scfg = SolverConfig(eps=case.eps, max_iterations=case.max_iterations)
    final_nodes, report = _solve_case(
        case, mesh, nodes, level_set, marked, w_sigma, scfg
    )

    sigma_final = transfer_field(sigma0, initial_nodes, mesh, final_nodes)
    e_avg, e_max = compute_E(sigma_final, marked)
    e_s = None
    if case.levelset.startswith("sphere"):
        e_s = compute_e_S(final_nodes, marked, level_set)

    f0 = report.history[0][1]
    f_final = report.history[-1][1]
    decrease = 100.0 * (f0 - f_final) / f0 if f0 != 0.0 else 0.0
    fit_report = FitReport(
        case=case.name,
        f0=f0,
        f_final=f_final,
        f_decrease_pct=decrease,
        e_s=e_s,
        e_avg=e_avg,
        e_max=e_max,
        iterations=report.iterations,
        wall_time_s=report.wall_time,
        converged=report.reason == "converged",
        reason=report.reason,
    )

    run = CaseRun(
        case, mesh, initial_nodes, final_nodes, sigma0, sigma_final, marked,
        report, align_report, fit_report,
    )
    if out_dir is not None:
        _write_outputs(run, Path(out_dir))
    return run


def _write_outputs(run, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_mesh(out_dir / "mesh_initial.mesh", run.mesh, run.initial_nodes)
    write_mesh(out_dir / "mesh_final.mesh", run.mesh, run.final_nodes)
    write_vtk(out_dir / "mesh_initial.vtu", run.mesh, run.initial_nodes, run.sigma0)
    write_vtk(out_dir / "mesh_final.vtu", run.mesh, run.final_nodes, run.sigma_final)
    (out_dir / "history.csv").write_text(run.solve_report.history_csv())
    (out_dir / "report.json").write_text(run.fit_report.to_json() + "\n")
