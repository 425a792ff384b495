"""In-memory span tracing of tmopfit's layers, installed from outside the package.

A traced run wraps the public functions listed in TARGETS.  Each call
records a span (name, start, end, parent span) in memory; hooks add the
layer counts (points located, matrices evaluated, halvings, ...) at the
same boundaries.  Functions are wrapped at every module attribute bound
to them, because callers look them up through `from .x import f`
bindings (for example `tmopfit.solver.hessian`, `tmopfit.cases.solve`).
"""

import math
import os
import sys
import time
from functools import wraps

import numpy as np

# span name -> (tmopfit module defining it, qualified name there).  The
# span name is "<layer>.<function>", with the layer named after a module.
TARGETS = {
    "transfer.transfer_field": ("transfer", "transfer_field"),
    "transfer.locate": ("transfer", "locate"),
    "transfer.candidate_elements": ("transfer", "candidate_elements"),
    "transfer.build_index": ("transfer", "build_index"),
    "objective.value": ("objective", "value"),
    "objective.gradient": ("objective", "gradient"),
    "objective.hessian": ("objective", "hessian"),
    "quality.metric_batch": ("quality", "metric_batch"),
    "quality.metric_values": ("quality", "metric_values"),
    "quality.make_targets": ("quality", "make_targets"),
    "reference.eval_with_grad": ("reference", "NodalBasis.eval_with_grad"),
    "mesh.is_valid": ("mesh", "is_valid"),
    "mesh.element_volumes": ("mesh", "element_volumes"),
    "mesh.make_cartesian": ("mesh", "make_cartesian"),
    "mesh.write_mesh": ("mesh", "write_mesh"),
    # The preliminary alignment solve of the relaxation cases.
    "solver.align": ("cases", "_align_mesh_to_levelset"),
    "solver.solve": ("solver", "solve"),
    "solver.newton_step": ("solver", "newton_step"),
    "solver.line_search": ("solver", "line_search"),
    "fitting.penalty_value": ("fitting", "penalty_value"),
    "fitting.penalty_gradient": ("fitting", "penalty_gradient"),
    "fitting.penalty_hessian": ("fitting", "penalty_hessian"),
    "fitting.mark_interface_nodes": ("fitting", "mark_interface_nodes"),
    "fields.project": ("fields", "project"),
    "vtk.write_vtk": ("vtk", "write_vtk"),
}

# Per-layer metrics of a traced run: (name, unit).  "<span>.calls" counts
# spans, "<span>.s" is their summed self time; the rest come from hooks
# or from the spans as described in layer_metrics.
METRICS = [
    ("transfer.transfer_field.s", "s"),
    ("transfer.transfer_field.points", "count"),
    ("transfer.locate.calls", "count"),
    ("transfer.locate.s", "s"),
    ("transfer.locate.grid_misses", "count"),
    ("transfer.locate.projected", "count"),
    ("transfer.candidate_elements.mean", "count"),
    ("transfer.build_index.s", "s"),
    ("transfer.run_share", "ratio"),
    ("objective.value.calls", "count"),
    ("objective.value.s", "s"),
    ("objective.gradient.calls", "count"),
    ("objective.gradient.s", "s"),
    ("objective.hessian.calls", "count"),
    ("objective.hessian.s", "s"),
    ("objective.hessian.nnz", "count"),
    ("objective.hessian.solve_share", "ratio"),
    ("quality.metric_batch.calls", "count"),
    ("quality.metric_batch.matrices", "count"),
    ("quality.metric_batch.s", "s"),
    ("quality.metric_values.calls", "count"),
    ("quality.metric_values.s", "s"),
    ("quality.make_targets.s", "s"),
    ("reference.eval_with_grad.calls", "count"),
    ("reference.eval_with_grad.points", "count"),
    ("reference.eval_with_grad.s", "s"),
    ("mesh.is_valid.calls", "count"),
    ("mesh.is_valid.s", "s"),
    ("mesh.element_volumes.calls", "count"),
    ("mesh.element_volumes.s", "s"),
    ("mesh.make_cartesian.s", "s"),
    ("mesh.write_mesh.s", "s"),
    ("mesh.write_mesh.bytes", "bytes"),
    ("solver.align.s", "s"),
    ("solver.solve.s", "s"),
    ("solver.iterations", "count"),
    ("solver.run_share", "ratio"),
    ("solver.newton_step.calls", "count"),
    ("solver.newton_step.s", "s"),
    ("solver.newton_step.fallbacks", "count"),
    ("solver.line_search.calls", "count"),
    ("solver.line_search.s", "s"),
    ("solver.line_search.halvings", "count"),
    ("solver.line_search.failures", "count"),
    ("solver.line_search.value_calls", "count"),
    ("fitting.penalty_value.calls", "count"),
    ("fitting.penalty_value.s", "s"),
    ("fitting.penalty_gradient.calls", "count"),
    ("fitting.penalty_gradient.s", "s"),
    ("fitting.penalty_hessian.calls", "count"),
    ("fitting.penalty_hessian.s", "s"),
    ("fitting.mark_interface_nodes.s", "s"),
    ("fitting.marked_nodes", "count"),
    ("fields.project.s", "s"),
    ("vtk.write_vtk.s", "s"),
    ("vtk.write_vtk.bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

# Metrics that do not start with the span they are measured at.
_METRIC_SPAN = {
    "transfer.run_share": "transfer.transfer_field",
    "objective.hessian.solve_share": "solver.solve",
    "solver.iterations": "solver.solve",
    "solver.run_share": "solver.solve",
    "fitting.marked_nodes": "fitting.mark_interface_nodes",
}

# Counts that must repeat exactly between two traced runs of the same code.
DETERMINISTIC = (
    "reference.eval_with_grad.calls",
    "objective.value.calls",
    "transfer.locate.calls",
    "solver.iterations",
)


class Tracer:
    """Spans and counts of one traced run, kept in memory.

    spans[i] = [name, start, end, parent index or -1]; times are
    time.perf_counter() seconds.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self.absent = []
        self._stack = []
        self.last_candidates = ()

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def to_json(self):
        return {"run_id": self.run_id, "spans": self.spans, "counts": self.counts}


def _file_bytes(tracer, name, path):
    tracer.add(name, os.path.getsize(path))


def _hook_transfer_field(tracer, args, result):
    tracer.add("transfer.transfer_field.points", len(result.coefficients))


def _hook_candidates(tracer, args, result):
    tracer.last_candidates = result
    tracer.add("transfer.candidate_elements.total", len(result))


def _hook_locate(tracer, args, result):
    # locate() asks candidate_elements() once; a located element outside
    # that list was found by the full sweep over all elements.
    if result.element not in tracer.last_candidates:
        tracer.add("transfer.locate.grid_misses")
    if result.status == "boundary-projected":
        tracer.add("transfer.locate.projected")


def _hook_hessian(tracer, args, result):
    tracer.add("objective.hessian.nnz_total", result.nnz)


def _hook_metric_batch(tracer, args, result):
    tracer.add("quality.metric_batch.matrices", np.size(result[0]))


def _hook_eval_with_grad(tracer, args, result):
    tracer.add("reference.eval_with_grad.points", len(result[0]))


def _hook_solve(tracer, args, result):
    tracer.add("solver.iterations", result[1].iterations)


def _hook_newton_step(tracer, args, result):
    if np.array_equal(result, -args[1]):
        tracer.add("solver.newton_step.fallbacks")


def _hook_line_search(tracer, args, result):
    alpha = result[0]
    if alpha is None:
        tracer.add("solver.line_search.failures")
        return
    factor = args[6].backtrack_factor
    tracer.add("solver.line_search.halvings", round(math.log(alpha) / math.log(factor)))


def _hook_mark(tracer, args, result):
    tracer.counts["fitting.marked_nodes"] = len(result)


HOOKS = {
    "transfer.transfer_field": _hook_transfer_field,
    "transfer.candidate_elements": _hook_candidates,
    "transfer.locate": _hook_locate,
    "objective.hessian": _hook_hessian,
    "quality.metric_batch": _hook_metric_batch,
    "reference.eval_with_grad": _hook_eval_with_grad,
    "mesh.write_mesh": lambda t, a, r: _file_bytes(t, "mesh.write_mesh.bytes", a[0]),
    "vtk.write_vtk": lambda t, a, r: _file_bytes(t, "vtk.write_vtk.bytes", a[0]),
    "solver.solve": _hook_solve,
    "solver.newton_step": _hook_newton_step,
    "solver.line_search": _hook_line_search,
    "fitting.mark_interface_nodes": _hook_mark,
}


def install(tracer, package="tmopfit"):
    """Wrap every TARGETS function at each loaded module attribute bound to it.

    A target that no longer exists is recorded in tracer.absent.
    """
    modules = [
        m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")
    ]
    for name, (module_name, qualname) in TARGETS.items():
        owner = sys.modules.get(f"{package}.{module_name}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, fn, HOOKS.get(name))
        if outer:
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, val in list(vars(module).items()):
                if val is fn:
                    setattr(module, key, wrapped)


def _covered(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Per span name: summed duration minus the time its child spans cover."""
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for index, (name, start, end, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(index, []))
        out[name] = out.get(name, 0.0) + own
    return out


def inclusive_times(spans):
    """Per span name: summed duration of spans with no same-named ancestor."""
    out = {}
    for name, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def calls_within(spans, name, ancestor):
    """Number of `name` spans that run inside an `ancestor` span."""
    count = 0
    for span_name, _, _, parent in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def metric_span(metric):
    """The span a per-layer metric is measured at, or None."""
    if metric in _METRIC_SPAN:
        return _METRIC_SPAN[metric]
    prefix = metric.rsplit(".", 1)[0]
    return prefix if prefix in TARGETS else None


def layer_metrics(spans, counts, absent, run_s):
    """Per-layer metric values of one traced run, except trace.overhead_s.

    Metrics measured at an absent span are left out, not reported as 0.
    """
    calls = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    own = self_times(spans)
    incl = inclusive_times(spans)
    derived = {
        "transfer.candidate_elements.mean": counts.get("transfer.candidate_elements.total", 0)
        / max(calls.get("transfer.candidate_elements", 0), 1),
        "objective.hessian.nnz": counts.get("objective.hessian.nnz_total", 0)
        / max(calls.get("objective.hessian", 0), 1),
        "solver.line_search.value_calls": calls_within(
            spans, "objective.value", "solver.line_search"
        ),
        "transfer.run_share": incl.get("transfer.transfer_field", 0.0) / run_s,
        "solver.run_share": incl.get("solver.solve", 0.0) / run_s,
        "objective.hessian.solve_share": incl.get("objective.hessian", 0.0)
        / max(incl.get("solver.solve", 0.0), 1e-300),
    }
    out = {}
    for metric, _ in METRICS:
        span = metric_span(metric)
        if span is None or span in absent:
            continue
        if metric in derived:
            out[metric] = derived[metric]
        elif metric == span + ".calls":
            out[metric] = calls.get(span, 0)
        elif metric == span + ".s":
            out[metric] = own.get(span, 0.0)
        else:
            out[metric] = counts.get(metric, 0)
    return out
