"""One benchmark run of a tmopfit case, in a fresh interpreter.

    python3 perfbench/worker.py '<job json>'

The job names the checkout root, the case, the run mode and where to
write the result.  Modes:

- "full": run the case through tmopfit.cases.run_case with an output
  directory, then check the outputs;
- "setup": stop at the first entry into solve, which ends set-up;
- "traced": like "full", with the layers wrapped by tracing.install.

Times are time.monotonic() readings, which on Linux share one clock
across processes, so run_s counts from the parent's spawn of this
interpreter (job["t_spawn"]).
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import tmopfit
import tmopfit.cases as cases
from tmopfit.errors import MeshParseError
from tmopfit.levelsets import builtin_levelset
from tmopfit.mesh import read_mesh

import tracing


class SetupDone(Exception):
    """Raised at the first entry into solve in a set-up-only run."""


def check_outputs(run, out_dir, solve_reports):
    """Reasons why a finished run's outputs are wrong; empty when correct."""
    errors = []
    if run.solve_report.reason != "converged":
        errors.append(f"solve ended with {run.solve_report.reason!r}")
    for k, report in enumerate(solve_reports):
        f_values = [row[1] for row in report.history]
        if any(row[6] <= 0.0 for row in report.history):
            errors.append(f"solve {k}: min_det <= 0 in the history")
        if any(b > a for a, b in zip(f_values, f_values[1:])):
            errors.append(f"solve {k}: F increases within the history")
    try:
        written = cases.FitReport.from_json((out_dir / "report.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        errors.append(f"report.json unreadable: {exc}")
    else:
        if written != run.fit_report:
            errors.append("report.json differs from the returned FitReport")
    try:
        _, nodes = read_mesh(out_dir / "mesh_final.mesh")
    except (OSError, ValueError, IndexError, MeshParseError) as exc:
        errors.append(f"mesh_final.mesh unreadable: {exc!r}")
    else:
        if not np.array_equal(nodes.coords, run.final_nodes.coords):
            errors.append("mesh_final.mesh does not round-trip to the final nodes")
    return errors


def surface_error(run):
    """Mean squared distance of the marked final nodes from the analytic
    zero level set, to first order: (phi / |grad phi|)^2.  Exact for the
    sphere level sets, which are signed distances."""
    level_set = builtin_levelset(run.case.levelset)
    pts = run.final_nodes.as_matrix()[run.marked.indices]
    dist = level_set.values(pts) / np.linalg.norm(level_set.gradients(pts), axis=1)
    return float(np.mean(dist**2))


def _run(job, result):
    src = Path(job["root"], "src").resolve()
    if Path(tmopfit.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"tmopfit imported from {tmopfit.__file__}, not {src}")
    result["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}

    tracer = None
    if job["mode"] == "traced":
        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer)

    # Installed after the tracer, so it wraps the traced solve.
    solve, reports = cases.solve, []

    def timed_solve(*args, **kwargs):
        result.setdefault("t_setup_end", time.monotonic())
        if job["mode"] == "setup":
            raise SetupDone
        out = solve(*args, **kwargs)
        reports.append(out[1])
        return out

    cases.solve = timed_solve

    case = cases.named_case(job["case"], **job["overrides"])
    out_dir = Path(job["out_dir"])
    try:
        run = cases.run_case(case, out_dir=out_dir)
    except SetupDone:
        result["ok"] = True
        return
    t_end = time.monotonic()
    result["run_s"] = t_end - job["t_spawn"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["reason"] = run.solve_report.reason
    result["e_S"] = surface_error(run)
    result["E_max"] = run.fit_report.e_max
    errors = check_outputs(run, out_dir, reports)
    e_s = run.fit_report.e_s
    if e_s is not None and abs(result["e_S"] - e_s) > 1e-9 * e_s:
        errors.append(f"e_S {result['e_S']} disagrees with the report's {e_s}")
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer.spans, tracer.counts, tracer.absent, result["run_s"]
        )
        result["absent"] = tracer.absent
        Path(job["trace_path"]).write_text(json.dumps(tracer.to_json()))
    result["errors"] = errors
    result["ok"] = not errors


def main(argv):
    job = json.loads(argv[1])
    result = {"ok": False, "mode": job["mode"]}
    try:
        _run(job, result)
    except Exception:  # the run's failure is the result being reported
        result["errors"] = [traceback.format_exc()]
    if "t_setup_end" in result:
        result["setup_s"] = result.pop("t_setup_end") - job["t_spawn"]
    Path(job["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
