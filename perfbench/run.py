"""subrad benchmark: end-to-end and per-layer timing of the library, from outside it.

Usage, from the root of a checkout:

  python3 perfbench/run.py
      Every workload, each in a fresh process, untraced and then traced.
      Prints every end-to-end metric by name and unit, failed_frac, the
      tracing overhead and each job's breakdown.  Exit code 1 if any run
      fails or any output is wrong.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload.  The last line of standard output is the
      JSON result: end-to-end metrics with --trace 0, per-layer with 1.

Each workload runs in a child process with one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# A run must end within 180 s; the worker measures whole passes, the
# longest of which (nqubit) takes about 35 s on a 2-core x86-64 machine.
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, str]:
    """Run one workload in a fresh process; returns (exit code, its stdout)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.Popen(
        command, env={**os.environ, **PINNED_ENV}, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def _result_line(out: str) -> dict | None:
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced; prints the summary table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            code, out = run_worker(workload, seed, seconds, trace)
            result = _result_line(out)
            if code != 0 or result is None:
                print(f"{workload} trace={trace}: failed with exit code {code}", file=sys.stderr)
                status = 1
                continue
            if not result["correct"]:
                status = 1
            report = json.loads(
                (HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text("utf-8")
            )
            results[trace] = (result, report)
        if 0 in results:
            result, report = results[0]
            for name, metric in report["metrics"].items():
                spread = f"q1 {metric['q1']:.4g} q3 {metric['q3']:.4g}" if "q1" in metric else ""
                rows.append((workload, name, metric["value"], metric["unit"], spread, metric.get("n", 1)))
            rows.append((workload, "failed_frac", report["failed_frac"], "ratio",
                         f"{report['failed']} of {report['attempted']}", report["attempted"]))
        if 0 in results and 1 in results:
            traced = results[1][1]["metrics"]["trace.wall_s"]["value"]
            untraced = results[0][1]["metrics"]["wall_s"]["value"]
            rows.append((workload, "trace.overhead_s", traced - untraced, "s",
                         "traced minus untraced wall_s", 1))
    print(f"{'workload':<9} {'metric':<18} {'value':>12} {'unit':<6} {'n':>5}  spread")
    for workload, name, value, unit, spread, n in rows:
        print(f"{workload:<9} {name:<18} {value:>12.6g} {unit:<6} {n:>5}  {spread}")
    print(f"reports: {HERE / 'results'}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    code, out = run_worker(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
