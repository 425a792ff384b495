"""tmopfit benchmark: time to a fitted mesh, set-up, memory and fitting error.

    python3 perfbench/run.py --workload fit2d-tri --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py                  # both workloads in turn
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

Run from the root of a checkout.  Each workload is a named tmopfit case
run through the public tmopfit.cases.run_case(case, out_dir=...), as
`tmopfit run --out` does.  The loop is closed, with one client: one run
at a time, each in a fresh interpreter (perfbench/worker.py), with BLAS
held to one thread: on a few shared cores, more threads measure the
scheduler, and the cases run faster and steadier on one.

--trace 0 starts with SETUP_RUNS runs that stop at the first entry into
solve, then makes full runs while the next one should fit in --seconds
(at least one).  It reports the medians of the end-to-end metrics over
these runs; setup_s counts every run, set-up-only or full.
--trace 1 makes one untraced and two traced full runs, in an order drawn
from --seed, and reports the per-layer metrics (tracing.py), whose
counts must repeat exactly between the two traced runs.

The named cases take no random input; the seed only orders the runs.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Runs and their outputs go to
.bench_build/perfbench/ in the checkout.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 60
SETUP_RUNS = 2
BLAS_THREADS = 1
DEADLINE_S = 170.0

# Many runs of a case must fit in RUN_SECONDS, so that their median is
# steady, and comparing two commits, tens of runs per workload, takes
# under an hour.  On 2 cores fit3d-hex takes 60-80 s a run at its default
# 8 cells per axis and 20-30 s at 6; at 4 it takes 5-6 s, and transfer and
# the Newton Hessian assembly still carry the run.  The relaxation case
# rt2d is left out: it takes 10-15 s a run at its default size, too few
# runs for a steady median, and at 7 cells per axis (2.4 s) transfer takes
# a quarter of it and the solver only half, so it no longer isolates the
# solver.
WORKLOADS = {
    "fit3d-hex-r4": {
        "case": "fit3d-hex",
        "overrides": {"resolution": 4},
        "why": "3D hex sphere fit (64 order-2 elements, mu333): bulk point location in "
        "transfer and Newton Hessian assembly with metric jets carry the run",
    },
    "fit2d-tri": {
        "case": "fit2d-tri",
        "overrides": {},
        "why": "2D order-3 triangle circle fit (mu58): simplex basis bypasses tensor-product "
        "kernels, transfer dominates, and e_S shows changes to the fitting weight",
    },
}

# (name, unit, better, bound): bound is the share of the parent's median
# by which a metric may get worse.
END_TO_END = [
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("e_S", "length2", "lower", 0.05),
    ("E_max", "length", "lower", 0.05),
]


def benchmark_json():
    """The contents of BENCHMARK.json, built from the definitions above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"}
            for n, u in tracing.METRICS
        ],
    }


def environment():
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "clients": 1,
        "loop": "closed",
    }


class Runner:
    """Spawns worker runs of one workload, one at a time, before a deadline."""

    def __init__(self, name, workload, seed, work_dir, env, deadline):
        self.name, self.workload, self.seed = name, workload, seed
        self.work_dir, self.env, self.deadline = work_dir, env, deadline
        self.count = 0

    def run(self, mode):
        self.count += 1
        tag = f"{mode}-{self.count}"
        result_path = self.work_dir / f"{tag}.json"
        out_dir = self.work_dir / tag
        job = {
            "root": str(ROOT),
            "case": self.workload["case"],
            "overrides": self.workload["overrides"],
            "mode": mode,
            "run_id": f"{self.name}-seed{self.seed}-{tag}",
            "out_dir": str(out_dir),
            "result_path": str(result_path),
            "trace_path": str(self.work_dir / f"{tag}.trace.json"),
        }
        started = job["t_spawn"] = time.monotonic()
        argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(job)]
        try:
            proc = subprocess.run(
                argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(self.deadline - started, 1.0),
            )
            if proc.returncode != 0:
                result = {"ok": False, "errors": [proc.stderr[-2000:]]}
            else:
                result = json.loads(result_path.read_text())
        except subprocess.TimeoutExpired:
            result = {"ok": False, "errors": [f"{mode} run passed the deadline"]}
        except (OSError, ValueError) as exc:
            result = {"ok": False, "errors": [f"no result from the {mode} run: {exc}"]}
        result.update(mode=mode, wall_s=time.monotonic() - started)
        shutil.rmtree(out_dir, ignore_errors=True)
        for error in result.get("errors", []):
            print(f"[{tag}] {error}", file=sys.stderr)
        return result


def measure(runner, seconds):
    """Set-up-only runs, then full runs while the next one, as long as the
    median full run so far, fits in `seconds`."""
    start = time.monotonic()
    results = [runner.run("setup") for _ in range(SETUP_RUNS)]
    walls = []
    while True:
        results.append(runner.run("full"))
        walls.append(results[-1]["wall_s"])
        if time.monotonic() - start + statistics.median(walls) > seconds:
            return results


def samples(results):
    """End-to-end metric -> its values in the successful untraced runs."""
    ok = [r for r in results if r["ok"]]
    full = [r for r in ok if r["mode"] == "full"]
    values = {name: [r[name] for r in full] for name in ("run_s", "peak_rss_mb", "e_S", "E_max")}
    values["setup_s"] = [r["setup_s"] for r in ok if "setup_s" in r]
    return values


def summarize(results):
    """(metrics, attempted, failed) of untraced runs; metrics is None when
    no full run succeeded."""
    attempted = len(results)
    failed = attempted - sum(r["ok"] for r in results)
    values = samples(results)
    if not values["run_s"]:
        return None, attempted, failed
    metrics = {name: statistics.median(values[name]) for name, *_ in END_TO_END}
    return metrics, attempted, failed


def measure_traced(runner, seed):
    """One untraced and two traced full runs, in an order drawn from the seed."""
    order = ["full", "traced", "traced"]
    random.Random(seed).shuffle(order)
    return [runner.run(mode) for mode in order]


def summarize_traced(results):
    """(metrics, attempted, failed, errors) of a traced measurement."""
    errors = []
    ok = [r for r in results if r["ok"]]
    attempted, failed = len(results), len(results) - len(ok)
    plain = [r for r in ok if r["mode"] == "full"]
    traced = [r for r in ok if r["mode"] == "traced"]
    if not plain or len(traced) < 2:
        return None, attempted, failed, ["a traced measurement needs all three runs"]
    first, second = (r["layers"] for r in traced)
    for name in tracing.DETERMINISTIC:
        if first.get(name) != second.get(name):
            errors.append(f"{name} differs between traced runs: {first.get(name)} != {second.get(name)}")
    units = dict(tracing.METRICS)
    metrics = {}
    for name, value in first.items():
        timed = units[name] in ("s", "ratio")
        metrics[name] = (value + second[name]) / 2.0 if timed else value
    traced_s = statistics.median(r["run_s"] for r in traced)
    metrics["trace.overhead_s"] = traced_s - plain[0]["run_s"]
    return metrics, attempted, failed, errors


def bench(name, seed, seconds, trace):
    """Measure one workload and print its metrics; returns the exit code."""
    deadline = time.monotonic() + DEADLINE_S
    env_info = environment()
    work_dir = ROOT / ".bench_build" / "perfbench" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    threads = str(BLAS_THREADS)
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
    )
    runner = Runner(name, WORKLOADS[name], seed, work_dir, env, deadline)

    errors = []
    if trace:
        results = measure_traced(runner, seed)
        metrics, attempted, failed, errors = summarize_traced(results)
        units, notes = dict(tracing.METRICS), {}
    else:
        results = measure(runner, seconds)
        metrics, attempted, failed = summarize(results)
        units = {metric: unit for metric, unit, *_ in END_TO_END}
        notes = {
            metric: f"median of {len(v)}, range {min(v):.6g}-{max(v):.6g}"
            for metric, v in samples(results).items() if v
        }
    for r in results:
        env_info.update(r.get("versions", {}))
    record = {
        "workload": name, **WORKLOADS[name], "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env_info, "runs": results, "metrics": metrics,
        "errors": errors, "absent": sorted({a for r in results for a in r.get("absent", [])}),
    }
    (work_dir / "result.json").write_text(json.dumps(record, indent=1))
    print(f"workload {name} (seed {seed}, trace {trace})")
    print("environment " + json.dumps(env_info, sort_keys=True))
    if metrics is None:
        print("perfbench: no run succeeded", file=sys.stderr)
        return 1
    for metric in record["absent"]:
        print(f"{metric:40s} absent")
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    for metric, value in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric:40s} {value:14.6g} {units[metric]}{note}")
    print(f"{'failed / attempted':40s} {failed} / {attempted}")
    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
    }}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "tmopfit" / "__init__.py").is_file():
        print(f"perfbench: no tmopfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    codes = [bench(name, args.seed, args.seconds, args.trace) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
