"""One run of one workload, in the process that `run.py` starts for it.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Runs whole passes over the workload's jobs, closed loop with one caller,
until ``--seconds`` have elapsed and, untraced, at least 100 point samples
are pooled.  Every job's output goes through the correctness gate.
Untraced runs report the end-to-end metrics; traced runs wrap the library's
public functions and report the per-layer metrics.  The last line of
standard output is the JSON result; a report with quartiles, sample counts,
the environment and the per-job breakdown goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gzip
import inspect
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import gate
import tracer as tracing
from jobs import ROOT, WORKLOADS, import_scenario_module, make_jobs, parse_job

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"

# Fresh interpreters timed for setup_s; one more runs first, untimed, so
# that byte-code compilation of a new checkout is not counted.
SETUP_PROBES = 9
# Untraced runs pool at least this many point_s samples, so that p90 has
# at least 10 beyond it: 3 passes of the 48-point sweep.
MIN_POINT_SAMPLES = 100
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 60


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args()


# -- environment ---------------------------------------------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=TIMEOUT_S, check=True,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown: {exc}"
    return out.stdout.strip()


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "platform": platform.platform(),
        "commit": _git_commit(),
        "seed": seed,
    }


# -- set-up --------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[float]:
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(command, capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# -- jobs ----------------------------------------------------------------------


class PointClock:
    """Marks the end of each sweep point by wrapping ``scenario.run_scenario``.

    `run_sweep` calls `run_scenario` once per point, after copying the base,
    applying the axis values and parsing, so the time between consecutive
    returns is the whole per-point cost.  The wrapper also keeps each
    point's `ScenarioResult` (None when it raised) for the gate.
    """

    def __init__(self, scenario) -> None:
        self._scenario = scenario
        self.marks: list[float] = []
        self.results: list = []

    def __enter__(self) -> "PointClock":
        self._original = original = self._scenario.run_scenario

        def timed(*args, **kwargs):
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.results.append(result)
                self.marks.append(perf_counter())

        self._scenario.run_scenario = timed
        self.marks = [perf_counter()]
        return self

    def __exit__(self, *exc) -> None:
        self._scenario.run_scenario = self._original

    def point_times(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


class RowClock:
    """Marks each output row of a scenario run.

    Wraps ``scenario.evolve`` so that the observer `run_scenario` hands it
    records when it is called.  `evolve` calls the observer once per grid
    point, after stepping there and checking the state, so the time between
    consecutive calls is the whole cost of one output row.
    """

    def __init__(self, scenario) -> None:
        self._scenario = scenario
        self.trajectories: list[list[float]] = []

    def __enter__(self) -> "RowClock":
        self._original = original = self._scenario.evolve
        signature = inspect.signature(original)

        def timed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            observer = bound.arguments.get("observer")
            marks: list[float] = []
            self.trajectories.append(marks)

            def marked(t, rho):
                marks.append(perf_counter())
                return observer(t, rho)

            if observer is not None:
                bound.arguments["observer"] = marked
            return original(*bound.args, **bound.kwargs)

        self._scenario.evolve = timed
        return self

    def __exit__(self, *exc) -> None:
        self._scenario.evolve = self._original

    def point_times(self) -> list[float]:
        return [b - a for marks in self.trajectories for a, b in zip(marks, marks[1:])]


def _counters() -> dict[str, float]:
    return dict.fromkeys(
        ("steps_accepted", "steps_rejected", "probes", "sweep_points", "sweep_failed", "csv_bytes"), 0.0
    )


def _count_steps(counters: dict, result) -> None:
    integrator = result.scenario.integrator
    probe = integrator.initial_step is None and integrator.fixed_step is None
    for trajectory in result.trajectories.values():
        counters["steps_accepted"] += trajectory.meta["steps"]
        counters["steps_rejected"] += trajectory.meta["rejected"]
        counters["probes"] += 1.0 if probe and len(trajectory.times) > 1 else 0.0


def _grid_size(job: dict) -> int:
    size = 1
    for values in job["sweep"]["axes"].values():
        size *= len(values)
    return size


def _dim(result) -> int:
    return int(next(iter(result.trajectories.values())).final_state.shape[0])


def run_job(job: dict, pass_index: int, scenario, checker: gate.Gate, tracer) -> dict:
    """Run one job, timed, then gate its output outside the timed region."""
    record = {"pass": pass_index, "id": job["id"], "counters": _counters(), "problems": []}
    sweep = "sweep" in job
    if tracer is not None:
        tracer.begin_job(pass_index, job["id"])
    start = perf_counter()
    try:
        parsed = parse_job(job, scenario)
        if sweep:
            with PointClock(scenario) as clock:
                result = scenario.run_sweep(parsed)
            text = scenario.format_sweep_csv(result)
        else:
            with RowClock(scenario) as clock:
                result = scenario.run_scenario(parsed)
            text = scenario.format_csv(result.header, result.rows)
        record["wall_s"] = perf_counter() - start
    except Exception:  # a failing job is counted and reported, and the run goes on
        record["wall_s"] = perf_counter() - start
        record["problems"].append(traceback.format_exc())
        record["attempted"] = record["failed"] = _grid_size(job) if sweep else 1
        record["point_s"] = []
        return record
    finally:
        if tracer is not None:
            tracer.end_job()
    counters = record["counters"]
    counters["csv_bytes"] = float(len(text.encode("utf-8")))
    record["point_s"] = clock.point_times()
    if not sweep:
        _count_steps(counters, result)
        record["dim"] = _dim(result)
        record["problems"] = checker.check_scenario(job, result)
        if not record["point_s"]:
            record["problems"].append("no output rows were timed: run_scenario no longer calls evolve's observer")
        record["attempted"] = 1
        record["failed"] = 1 if record["problems"] else 0
        return record
    counters["sweep_points"] = float(len(result.rows))
    counters["sweep_failed"] = float(sum(1 for row in result.rows if row[-1] != "ok"))
    record["attempted"] = _grid_size(job)
    if len(clock.results) != len(result.rows) or len(result.rows) != record["attempted"]:
        record["problems"].append(
            f"{len(clock.results)} run_scenario calls and {len(result.rows)} rows "
            f"for {record['attempted']} sweep points"
        )
        record["failed"] = record["attempted"]
        return record
    record["failed"] = 0
    for row, point in zip(result.rows, clock.results):
        if point is not None:
            _count_steps(counters, point)
            record.setdefault("dim", _dim(point))
        problems = checker.check_sweep_point(row, result.header, point)
        if problems:
            record["failed"] += 1
            record["problems"].append(f"point {row[:3]}: {'; '.join(problems)}")
    return record


def run_passes(args, jobs: list[dict], scenario, checker: gate.Gate, tracer) -> list[list[dict]]:
    order = random.Random(args.seed)
    passes: list[list[dict]] = []
    samples = 0
    start = perf_counter()
    while (
        not passes
        or perf_counter() - start < args.seconds
        or (tracer is None and 0 < samples < MIN_POINT_SAMPLES)
    ):
        shuffled = list(jobs)
        order.shuffle(shuffled)
        passes.append([run_job(job, len(passes), scenario, checker, tracer) for job in shuffled])
        samples += sum(len(record["point_s"]) for record in passes[-1])
    return passes


# -- metrics -------------------------------------------------------------------


def _stats(values: list[float]) -> dict:
    """Median with quartiles and sample count (quartiles need two samples)."""
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes, setup: list[float]) -> dict[str, dict]:
    walls = [sum(r["wall_s"] for r in records) for records in passes]
    points = sorted(t for records in passes for r in records for t in r["point_s"])
    percentiles = statistics.quantiles(points, n=100, method="inclusive")
    p50, p90 = percentiles[49], percentiles[89]
    return {
        "setup_s": {"value": statistics.median(setup), **_stats(setup)},
        "wall_s": {"value": statistics.median(walls), **_stats(walls)},
        "point_s.p50": {"value": p50, "n": len(points)},
        "point_s.p90": {"value": p90, "n": len(points), "beyond": sum(1 for t in points if t > p90)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
    }


def per_layer(records: list[dict], layers_by_job: list[dict], tracer) -> dict[str, dict]:
    """Median over passes of each per-layer metric's per-pass total."""
    by_pass: dict[int, list[int]] = defaultdict(list)
    for j, record in enumerate(records):
        by_pass[record["pass"]].append(j)
    per_pass = []
    for indices in by_pass.values():
        layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        counters = _counters()
        keys: set = set()
        for j in indices:
            for name, entry in layers_by_job[j].items():
                for k in range(3):
                    layers[name][k] += entry[k]
            for name, value in records[j]["counters"].items():
                counters[name] += value
            keys |= tracer.dark_keys(j)
        metrics = tracing.layer_metrics(layers, counters, len(keys))
        metrics["trace.wall_s"] = sum(records[j]["wall_s"] for j in indices)
        metrics["trace.spans"] = float(sum(entry[0] for entry in layers.values()))
        per_pass.append(metrics)
    return {name: {"value": statistics.median(m[name] for m in per_pass), "n": len(per_pass)}
            for name in per_pass[0]}


def job_breakdown(records: list[dict], layers_by_job: list[dict] | None) -> dict[str, dict]:
    """Per job id: median wall time, dimension, step counts and (traced) layer split."""
    runs: dict[str, list[int]] = defaultdict(list)
    for j, record in enumerate(records):
        runs[record["id"]].append(j)
    out = {}
    for job_id, indices in sorted(runs.items()):
        first = records[indices[0]]
        row = {
            "wall_s": statistics.median(records[j]["wall_s"] for j in indices),
            "dim": first.get("dim"),
            "steps_accepted": first["counters"]["steps_accepted"],
            "steps_rejected": first["counters"]["steps_rejected"],
            "rhs_evals": tracing.rhs_evals(first["counters"]),
        }
        if layers_by_job is not None:
            names = sorted({name for j in indices for name in layers_by_job[j]})
            row["layers"] = {
                name: {
                    field: statistics.median(layers_by_job[j][name][i] for j in indices)
                    for i, field in enumerate(("calls", "s", "self_s"))
                }
                for name in names
            }
        out[job_id] = row
    return out


# -- output --------------------------------------------------------------------


def _summary(breakdown: dict) -> str:
    lines = [f"{'job':<18}{'dim':>5}{'wall_s':>10}{'steps':>9}{'rejected':>9}{'rhs_evals':>11}  top self time"]
    for job_id, row in breakdown.items():
        top = ""
        if "layers" in row:
            ranked = sorted(row["layers"].items(), key=lambda kv: -kv[1]["self_s"])[:3]
            top = ", ".join(f"{name} {100 * v['self_s'] / row['wall_s']:.0f}%" for name, v in ranked)
        lines.append(
            f"{job_id:<18}{row['dim'] or 0:>5}{row['wall_s']:>10.3f}{row['steps_accepted']:>9.0f}"
            f"{row['steps_rejected']:>9.0f}{row['rhs_evals']:>11.0f}  {top}"
        )
    return "\n".join(lines)


def main() -> int:
    args = _parse_args()
    spec = json.loads(SPEC.read_text("utf-8"))
    scenario = import_scenario_module()
    jobs = make_jobs(args.workload, args.seed)
    env = environment(args.seed)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    checker = gate.Gate()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        passes = run_passes(args, jobs, scenario, checker, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    records = [record for records in passes for record in records]
    layers_by_job = tracer.job_layers() if tracer is not None else None
    if tracer is not None:
        stats = per_layer(records, layers_by_job, tracer)
    else:
        stats = end_to_end(passes, setup)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(stats):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(stats))}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    breakdown = job_breakdown(records, layers_by_job)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": env,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {name: {**stats[name], "unit": units[name]} for name in units},
        "jobs": breakdown,
        "problems": [p for r in records for p in r["problems"]][:20],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", "utf-8")
    if tracer is not None:
        with gzip.open(RESULTS / f"{stem}-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump(tracer.span_records(), fh)

    print(_summary(breakdown), file=sys.stderr)
    for problem in report["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["value"], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
