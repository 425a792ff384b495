"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# --- self time -------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"a": 5.0, "b": 4.0, "c": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0]]
    assert tracing.self_times(spans)["a"] == pytest.approx(5.0)


def test_inclusive_time_skips_nested_calls_of_the_same_span():
    spans = [["m", 0.0, 4.0, -1], ["m", 1.0, 2.0, 0], ["m", 5.0, 6.0, -1]]
    assert tracing.inclusive_times(spans) == pytest.approx({"m": 5.0})


def test_calls_within_follows_ancestors():
    spans = [
        ["solver.line_search", 0.0, 5.0, -1],
        ["mesh.is_valid", 1.0, 2.0, 0],
        ["objective.value", 2.0, 3.0, 0],
        ["objective.value", 6.0, 7.0, -1],
    ]
    assert tracing.calls_within(spans, "objective.value", "solver.line_search") == 1


# --- tracing installation and absent spans ---------------------------------


def _fake_package(monkeypatch):
    """fake.transfer defines locate; fake.cases binds it by `from import`."""

    def locate(index, mesh, node_field, point):
        return types.SimpleNamespace(element=1, status="interior")

    def candidate_elements(index, point):
        return [0]

    modules = {
        "fake": types.ModuleType("fake"),
        "fake.transfer": types.ModuleType("fake.transfer"),
        "fake.cases": types.ModuleType("fake.cases"),
    }
    modules["fake.transfer"].locate = locate
    modules["fake.transfer"].candidate_elements = candidate_elements
    modules["fake.cases"].locate = locate
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    return modules


def test_install_wraps_every_binding_and_records_absent(monkeypatch):
    modules = _fake_package(monkeypatch)
    tracer = tracing.Tracer("t")
    tracing.install(tracer, package="fake")
    assert modules["fake.cases"].locate is modules["fake.transfer"].locate
    modules["fake.transfer"].candidate_elements(None, (0.5,))
    modules["fake.cases"].locate(None, None, None, (0.5,))
    assert [s[0] for s in tracer.spans] == ["transfer.candidate_elements", "transfer.locate"]
    assert tracer.counts["transfer.locate.grid_misses"] == 1
    assert "objective.hessian" in tracer.absent
    assert "transfer.locate" not in tracer.absent


def test_metrics_of_absent_spans_are_left_out_not_zero():
    spans = [["solver.solve", 0.0, 2.0, -1], ["objective.value", 0.5, 1.0, 0]]
    metrics = tracing.layer_metrics(spans, {}, ["quality.metric_values"], run_s=4.0)
    assert not any(name.startswith("quality.metric_values") for name in metrics)
    assert metrics["objective.value.calls"] == 1
    assert metrics["solver.solve.s"] == pytest.approx(1.5)
    assert metrics["solver.run_share"] == pytest.approx(0.5)
    expected = {n for n, _ in tracing.METRICS} - {
        "trace.overhead_s", "quality.metric_values.calls", "quality.metric_values.s",
    }
    assert set(metrics) == expected


# --- metric definitions and BENCHMARK.json ---------------------------------


def test_metric_names_units_and_limits():
    spec = run.benchmark_json()
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    assert 2 <= len(spec["workloads"]) <= 8
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in e2e + layers:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())
    assert 1 <= spec["run_seconds"] <= 60


def test_benchmark_json_matches_definitions():
    committed = BENCH.parent / "BENCHMARK.json"
    assert json.loads(committed.read_text()) == run.benchmark_json()


# --- failure accounting and output checks ----------------------------------


def _ok(mode, **values):
    return {"ok": True, "mode": mode, **values}


def test_failed_runs_count_against_attempts():
    full = dict(run_s=2.0, setup_s=0.5, peak_rss_mb=70.0, e_S=1e-3, E_max=0.07)
    results = [
        _ok("setup", setup_s=0.4),
        _ok("full", **full),
        _ok("full", **dict(full, run_s=3.0, setup_s=0.6, peak_rss_mb=74.0)),
        {"ok": False, "mode": "full", "errors": ["Traceback ... raised"]},
        {"ok": False, "mode": "full", "reason": "line-search-failure", **full},
    ]
    metrics, attempted, failed = run.summarize(results)
    assert (attempted, failed) == (5, 2)
    assert metrics["run_s"] == pytest.approx(2.5)
    assert metrics["setup_s"] == 0.5
    assert metrics["peak_rss_mb"] == pytest.approx(72.0)


def test_no_successful_full_run_gives_no_metrics():
    results = [_ok("setup", setup_s=0.4), {"ok": False, "mode": "full"}]
    assert run.summarize(results) == (None, 2, 1)


def test_traced_counts_must_repeat():
    layers = {"reference.eval_with_grad.calls": 10, "objective.value.calls": 3}
    other = dict(layers, **{"objective.value.calls": 4})
    results = [
        _ok("full", run_s=1.0),
        _ok("traced", run_s=1.5, layers=layers),
        _ok("traced", run_s=1.7, layers=other),
    ]
    metrics, attempted, failed, errors = run.summarize_traced(results)
    assert (attempted, failed) == (3, 0)
    assert len(errors) == 1 and "objective.value.calls" in errors[0]
    assert metrics["trace.overhead_s"] == pytest.approx(0.6)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    from tmopfit.cases import named_case, run_case

    out_dir = tmp_path_factory.mktemp("run")
    run_ = run_case(named_case("fit2d-quad", resolution=4, order=1), out_dir=out_dir)
    return run_, out_dir


def test_check_outputs_accepts_a_converged_run(small_run):
    run_, out_dir = small_run
    assert run_.solve_report.reason == "converged"
    assert worker.check_outputs(run_, out_dir, [run_.solve_report]) == []


def test_check_outputs_rejects_line_search_failure(small_run, monkeypatch):
    run_, out_dir = small_run
    monkeypatch.setattr(run_.solve_report, "reason", "line-search-failure")
    errors = worker.check_outputs(run_, out_dir, [run_.solve_report])
    assert any("line-search-failure" in e for e in errors)


def test_check_outputs_rejects_a_report_that_differs(small_run, monkeypatch):
    run_, out_dir = small_run
    monkeypatch.setattr(run_.fit_report, "iterations", run_.fit_report.iterations + 1)
    errors = worker.check_outputs(run_, out_dir, [run_.solve_report])
    assert errors == ["report.json differs from the returned FitReport"]


def test_a_run_that_raises_is_a_failed_attempt(tmp_path):
    workload = {"case": "no-such-case", "overrides": {}}
    env = dict(run.os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    runner = run.Runner("bad", workload, 0, tmp_path, env, time.monotonic() + 60)
    result = runner.run("full")
    assert not result["ok"] and "no-such-case" in result["errors"][0]
    assert run.summarize([result]) == (None, 1, 1)
