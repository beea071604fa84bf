"""Mutation audit: put one small fault into a temporary copy of the tree and check that its tests fail.

Usage, from the repository root:

    python tests/mutants.py            # every entry
    python tests/mutants.py plan nes   # the entries whose name holds "plan" or "nes"

Each entry of `MUTANTS` names a file, an exact old text, the new text and the
test files to run.  The old text must occur in the file exactly once: a
refactor that moves or rewrites the mutated code makes the tool refuse the
entry, and the entry is updated in the same change.  Each mutant runs on its
own copy of ``src``, ``tests`` and ``perfbench`` in a temporary directory, with
``pytest -x``, so it stops at the first failing test.  The tool prints
``killed`` (a test failed) or ``survived`` (all passed) and the time for each
mutant.  An entry may carry ``equivalent``, the reason its fault changes
nothing a test can bound; it may survive.  The exit status is 1 when a mutant
not marked equivalent survives, when pytest stops for another reason than a
failing test (exit codes other than 0 and 1, such as a collection error), or
when an entry is refused.  Mutation analysis measures how many such faults the
tests catch (DeMillo, Lipton & Sayward, IEEE Computer 11(4), 34 (1978)).

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
DYNAMICS, OBSERVABLES, SCENARIO = "src/subrad/dynamics.py", "src/subrad/observables.py", "src/subrad/scenario.py"
MODEL, LINALG = "src/subrad/model.py", "src/subrad/linalg.py"
TEST_DYNAMICS, TEST_OBSERVABLES = "tests/test_dynamics.py", "tests/test_observables.py"
TEST_SCENARIO, TEST_PINS, TEST_LINALG = "tests/test_scenario.py", "tests/test_output_pins.py", "tests/test_linalg.py"

MUTANTS = [
    # The trial mutants of the ROADMAP's item 21.
    {"name": "within_tolerance fails a trace error at its threshold", "file": DYNAMICS,
     "old": "(trace_error <= TRACE_TOL)", "new": "(trace_error < TRACE_TOL)", "tests": [TEST_DYNAMICS]},
    {"name": "dark projector skips sector 1", "file": OBSERVABLES,
     "old": "for k in range(1, kmax + 1):", "new": "for k in range(2, kmax + 1):", "tests": [TEST_OBSERVABLES]},
    {"name": "a block below dim keeps a positive lowest eigenvalue", "file": DYNAMICS,
     "old": "min(w, 0.0) if rho.shape[-1] < dim else w", "new": "w", "tests": [TEST_DYNAMICS]},
    {"name": "Taylor degree 12", "file": DYNAMICS,
     "old": "_TAYLOR_DEGREE = 18", "new": "_TAYLOR_DEGREE = 12", "tests": [TEST_DYNAMICS]},
    {"name": "CSV cells with 16 significant digits", "file": SCENARIO,
     "old": 'line = ",".join(["%.16e"]', "new": 'line = ",".join(["%.15e"]', "tests": [TEST_SCENARIO]},
    {"name": "Dormand-Prince safety factor 0.8", "file": DYNAMICS, "old": "safety = 0.9", "new": "safety = 0.8",
     "tests": [TEST_DYNAMICS, TEST_PINS],
     "equivalent": "it changes the step sequence, not an accuracy any test bounds"},
    {"name": "nes flag on at its threshold", "file": OBSERVABLES,
     "old": "max(state) - min(state) > NES_EQUAL_TOL", "new": "max(state) - min(state) >= NES_EQUAL_TOL",
     "tests": [TEST_OBSERVABLES]},
    {"name": "reachable block without the L-dagger-L pattern", "file": DYNAMICS,
     "old": "grown |= image | pattern[image].any(axis=0)", "new": "grown |= image", "tests": [TEST_DYNAMICS]},
    {"name": "abort at the eigenvalue floor itself", "file": DYNAMICS,
     "old": "(worst := min(lowest)) < MIN_EIGENVALUE_FLOOR:", "new": "(worst := min(lowest)) <= MIN_EIGENVALUE_FLOOR:",
     "tests": [TEST_DYNAMICS]},
    {"name": "step controller error memory exponent 0.8", "file": DYNAMICS,
     "old": "err_prev ** 0.08", "new": "err_prev ** 0.8", "tests": [TEST_DYNAMICS]},
    # The plan: which states share a block, and how it is stepped.
    {"name": "plan groups propagator states on the union of their blocks", "file": DYNAMICS,
     "old": "groups.setdefault(block.tobytes() if len(block) <= PROPAGATOR_MAX_DIM else i, []).append(i)\n"
            "    return [_plan(model, rho[members], members, blocks[members[0]]) for members in groups.values()]",
     "new": 'groups.setdefault(b"" if len(block) <= PROPAGATOR_MAX_DIM else i, []).append(i)\n'
            "    return [_plan(model, rho[members], members, np.unique(np.concatenate([blocks[j] for j in members])))\n"
            "            for members in groups.values()]",
     "tests": [TEST_DYNAMICS]},
    {"name": "plan groups a Dormand-Prince state with its block's others", "file": DYNAMICS,
     "old": "block.tobytes() if len(block) <= PROPAGATOR_MAX_DIM else i", "new": "block.tobytes()",
     "tests": [TEST_DYNAMICS]},
    # Faults that earlier changes report their tests caught (CHANGES.md), and the validity policy's thresholds
    # and refusals.
    {"name": "build_model conjugates the collective weights", "file": MODEL,
     "old": "op[_transition_entries(layout, level_at, j, transition)] += w",
     "new": "op[_transition_entries(layout, level_at, j, transition)] += np.conj(w)", "tests": [TEST_DYNAMICS]},
    {"name": "jump factor sqrt(1.99 rate)", "file": DYNAMICS,
     "old": "np.sqrt(2.0 * rate) * op", "new": "np.sqrt(1.99 * rate) * op", "tests": [TEST_DYNAMICS]},
    {"name": "reachable block without the jump images", "file": DYNAMICS,
     "old": "grown |= image | pattern[image].any(axis=0)", "new": "grown |= pattern[image].any(axis=0)",
     "tests": [TEST_DYNAMICS]},
    {"name": "initial block checked without a C-order copy", "file": DYNAMICS,
     "old": "np.ascontiguousarray(rho[(..., *index)])", "new": "rho[(..., *index)]",
     "tests": [TEST_SCENARIO, TEST_DYNAMICS]},
    {"name": "Dormand-Prince stack error norm the mean of the members'", "file": DYNAMICS,
     "old": "axis=(-2, -1)) / norm_count).max())", "new": "axis=(-2, -1)) / norm_count).mean())",
     "tests": [TEST_DYNAMICS]},
    {"name": "records without the per-point length check", "file": DYNAMICS,
     "old": "if len(column) != (i + 1) * k:", "new": "if False:", "tests": [TEST_DYNAMICS]},
    {"name": "stacked energy as one matrix product", "file": OBSERVABLES,
     "old": "np.vecdot(free_energies, rho.diagonal(axis1=-2, axis2=-1).real)",
     "new": "rho.diagonal(axis1=-2, axis2=-1).real @ free_energies", "tests": [TEST_SCENARIO, TEST_OBSERVABLES]},
    {"name": "trace tolerance 1e-8", "file": DYNAMICS, "old": "TRACE_TOL = 1e-9", "new": "TRACE_TOL = 1e-8",
     "tests": [TEST_DYNAMICS]},
    {"name": "eigenvalue tolerance -1e-7", "file": DYNAMICS, "old": "MIN_EIGENVALUE_TOL = -1e-8",
     "new": "MIN_EIGENVALUE_TOL = -1e-7", "tests": [TEST_DYNAMICS]},
    {"name": "eigenvalue floor -1e-5", "file": DYNAMICS, "old": "MIN_EIGENVALUE_FLOOR = -1e-6",
     "new": "MIN_EIGENVALUE_FLOOR = -1e-5", "tests": [TEST_DYNAMICS]},
    {"name": "Hermiticity tolerance 1e-8", "file": LINALG, "old": "HERMITICITY_TOL = 1e-9",
     "new": "HERMITICITY_TOL = 1e-8", "tests": [TEST_DYNAMICS, TEST_LINALG]},
    {"name": "nes tolerance 1e-8", "file": OBSERVABLES, "old": "NES_EQUAL_TOL = 1e-9", "new": "NES_EQUAL_TOL = 1e-8",
     "tests": [TEST_DYNAMICS]},
    {"name": "non-finite state not refused", "file": DYNAMICS, "old": "    if not np.isfinite(rho).all():\n",
     "new": "    if False:\n", "tests": [TEST_DYNAMICS]},
    {"name": "initial state outside the thresholds not refused", "file": DYNAMICS,
     "old": "    if not within_tolerance(*worst):\n", "new": "    if False:\n", "tests": [TEST_DYNAMICS]},
]


def refusal(entry: dict) -> str | None:
    """Why ``entry`` cannot run, or None."""
    path = ROOT / entry["file"]
    count = path.read_text("utf-8").count(entry["old"]) if path.is_file() else 0
    return None if count == 1 else f"its old text occurs {count} times in {entry['file']}, not once"


def run(entry: dict) -> str:
    """``killed``, ``survived`` or ``error: ...``: the outcome of the entry's tests on a mutated copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="subrad-mutant-") as tmp:
        for part in COPIED:
            source, copy = ROOT / part, Path(tmp) / part
            if source.is_dir():
                shutil.copytree(source, copy, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(source, copy)
        path = Path(tmp) / entry["file"]
        path.write_text(path.read_text("utf-8").replace(entry["old"], entry["new"]), "utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *entry["tests"]]
        code = subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT).returncode
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exit code {code}")


def main(names: list[str]) -> int:
    entries = [entry for entry in MUTANTS if not names or any(name in entry["name"] for name in names)]
    refused = [(entry["name"], reason) for entry in entries if (reason := refusal(entry))]
    for name, reason in refused:
        print(f"refused   {name}: {reason}")
    if refused or not entries:
        return 1
    killed, failed = 0, 0
    for entry in entries:
        start = time.perf_counter()
        outcome = run(entry)
        note = f" (equivalent: {entry['equivalent']})" if "equivalent" in entry else ""
        print(f"{outcome:<9} {time.perf_counter() - start:6.1f} s  {entry['name']}{note}", flush=True)
        killed += outcome == "killed"
        failed += outcome.startswith("error") or outcome == "survived" and "equivalent" not in entry
    print(f"{killed} of {len(entries)} killed; {failed} not killed and not marked equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
