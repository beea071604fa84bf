"""Correctness gate: a job or sweep point counts as failed unless its output passes.

Three parts, as the benchmark's README describes:

* invariants: the run reports no breach and every value is finite;
* closed forms: ``nqubit:N`` ends at energy (N-1)/N, the resonant sweep
  point without local decay ends at energy 0.5 with zero fitted decay;
* references: preset columns against values recorded at the commit that
  introduced the benchmark (`reference.json`), sweep points against the
  independent propagator in `oracle.py`.

Tolerances are no looser than the tier-1 tests use for the same quantity.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle
from jobs import DETUNING_AXIS, LOCAL_AXIS, COLLECTIVE_AXIS, SWEEP_HORIZON, SWEEP_POINTS

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Oracle agreement of evolved states in tier-1 (acceptance criterion 09).
VALUE_TOL = 1e-7
# Energy plateaus in tier-1 (criteria 01 and 06, TestSweeps).
CLOSED_FORM_TOL = 1e-3
# Fitted rate with no local decay in tier-1 TestSweeps.
ZERO_RATE_TOL = 1e-8
# Tier-1 accepts 5 % on a fitted rate; the oracle allows this much less.
RATE_REL_TOL = 1e-2

# Roundoff-level invariant columns: checked as invariants, not against references.
_INVARIANT_COLUMNS = ("trace_error", "herm_error", "min_eigenvalue")
REFERENCE_SAMPLES = 21


def compared_columns(header) -> list[int]:
    return [
        i for i, name in enumerate(header)
        if name != "t" and name.split(":")[0] not in _INVARIANT_COLUMNS
    ]


def reference_entry(result) -> dict:
    """What `reference.json` stores for one job: sampled rows of every compared column."""
    n = len(result.rows)
    rows = sorted({round(k * (n - 1) / (REFERENCE_SAMPLES - 1)) for k in range(REFERENCE_SAMPLES)})
    return {
        "header": list(result.header),
        "rows": rows,
        "columns": {
            result.header[c]: [float(result.rows[r, c]) for r in rows]
            for c in compared_columns(result.header)
        },
    }


def _invariants(result) -> list[str]:
    problems = []
    if result.breached:
        problems.append("invariant breach flagged by run_scenario")
    if not np.all(np.isfinite(result.rows)):
        problems.append("non-finite values in the output table")
    return problems


class Gate:
    def __init__(self) -> None:
        self.reference = json.loads(REFERENCE_FILE.read_text("utf-8"))
        self._oracle: dict[tuple[float, float, float], tuple[float, float]] = {}

    def check_scenario(self, job: dict, result) -> list[str]:
        """Problems with one preset job's `ScenarioResult` (empty when it passes)."""
        problems = _invariants(result)
        preset = job["preset"]
        if preset.startswith("nqubit:"):
            n = int(preset.split(":")[1])
            final = result.rows[-1, result.header.index("energy")]
            if not abs(final - (n - 1) / n) <= CLOSED_FORM_TOL:
                problems.append(f"final energy {final!r} is not (N-1)/N = {(n - 1) / n!r}")
        ref = self.reference[job["id"]]
        if list(result.header) != ref["header"]:
            return problems + [f"header {list(result.header)} differs from the reference"]
        for name, expected in ref["columns"].items():
            got = result.rows[ref["rows"], result.header.index(name)]
            worst = float(np.max(np.abs(got - np.asarray(expected))))
            if not worst <= VALUE_TOL:
                problems.append(f"column {name} differs from the reference by {worst:.3e}")
        return problems

    def check_sweep_point(self, row: tuple, header: tuple, result) -> list[str]:
        """Problems with one sweep row and the `ScenarioResult` behind it."""
        if row[-1] != "ok":
            return [f"status {row[-1]}"]
        if result is None:
            return ["run_scenario raised"]
        problems = _invariants(result)
        cell = dict(zip(header, row))
        detuning, local, collective = cell[DETUNING_AXIS], cell[LOCAL_AXIS], cell[COLLECTIVE_AXIS]
        energy, rate = cell["final_energy"], cell["fidelity_rate"]
        if not (math.isfinite(energy) and math.isfinite(rate)):
            return problems + ["non-finite reduction"]
        key = (detuning, local, collective)
        if key not in self._oracle:
            self._oracle[key] = oracle.two_qubit_point(*key, SWEEP_HORIZON, SWEEP_POINTS)
        want_energy, want_rate = self._oracle[key]
        if not abs(energy - want_energy) <= VALUE_TOL:
            problems.append(f"final energy {energy!r} vs oracle {want_energy!r}")
        if not abs(rate - want_rate) <= ZERO_RATE_TOL + RATE_REL_TOL * abs(want_rate):
            problems.append(f"fitted rate {rate!r} vs oracle {want_rate!r}")
        if detuning == 1.0 and local == 0.0:
            if not abs(energy - 0.5) <= CLOSED_FORM_TOL:
                problems.append(f"resonant final energy {energy!r} is not 0.5")
            if not abs(rate) < ZERO_RATE_TOL:
                problems.append(f"resonant fitted rate {rate!r} is not 0")
        return problems
