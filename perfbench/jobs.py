"""Workload definitions: the jobs each workload runs, built from a seed.

Stdlib only, so that the set-up probe can import it in a fresh interpreter
without importing numpy before it starts its clock.

A job is a plain JSON-able dict with an ``id`` and either a ``preset``
name (plus an optional ``observables`` override) or a ``sweep`` document.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("figures", "nqubit", "sweep")

FIGURE_PRESETS = ("fig2", "fig3a", "fig3c", "fig3e-clockwork", "fig4")

# Paths of the sweep axes, in grid order.
DETUNING_AXIS = "system.emitters[1].frequencies[1]"
LOCAL_AXIS = "system.local[0].rate|system.local[1].rate"
COLLECTIVE_AXIS = "system.collective[0].rate"

SWEEP_HORIZON = 5000.0
SWEEP_POINTS = 51

# Each drawn axis value sits in the middle tenth of its own third of the
# axis range.  Per-point cost grows steeply with detuning and falls with the
# collective rate, so fully random draws changed the integrator steps in a
# pass by up to 35 % from seed to seed; this keeps that near 3 % while every
# seed still runs different models.
_STRATUM_WIDTH = 0.1


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    return [
        lo + (hi - lo) * (k + 0.5 + _STRATUM_WIDTH * (rng.random() - 0.5)) / count
        for k in range(count)
    ]


def sweep_document(seed: int) -> dict:
    """The 4x4x3 sweep of the ``sweep`` workload for one seed.

    Detuning 1.0 and local rate 0 are always on the grid, so the closed-form
    resonant point is always run.  The order of values within each axis is
    shuffled, which changes the order in which points run.
    """
    rng = random.Random(seed)
    detunings = [1.0] + _stratified(rng, 1.0, 1.1, 3)
    local_rates = [0.0] + _stratified(rng, 0.0, 1e-4, 3)
    collective_rates = _stratified(rng, 5e-4, 2e-3, 3)
    for values in (detunings, local_rates, collective_rates):
        rng.shuffle(values)
    base = {
        "name": "sweep-base",
        "system": {
            "emitters": ["qubit", {"levels": 2, "frequencies": [0.0, 1.0]}],
            "collective": [{"rate": 0.001, "weights": [1.0, 1.0]}],
            "local": [{"rate": 0.0, "emitter": 0}, {"rate": 0.0, "emitter": 1}],
            "frame": {"rotating": 1.0},
        },
        "initial": ["10"],
        "time": {"unit": "omega", "horizon": SWEEP_HORIZON, "points": SWEEP_POINTS},
        "observables": ["energy", {"fidelity": {"target": "psi_minus"}}, "checks"],
    }
    return {
        "base": base,
        "axes": {
            DETUNING_AXIS: detunings,
            LOCAL_AXIS: local_rates,
            COLLECTIVE_AXIS: collective_rates,
        },
        "reductions": [
            {"name": "final_energy", "kind": "final", "column": "energy"},
            {"name": "fidelity_rate", "kind": "fit_exp_rate", "column": "fidelity"},
        ],
    }


def import_scenario_module():
    """Import ``subrad.scenario`` from this checkout's ``src`` directory.

    Raises ``ImportError`` when the checkout has no library, or when the
    ``subrad`` that got imported lives somewhere else (an installed copy).
    """
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("subrad.scenario")
    location = Path(module.__file__).resolve()
    if SRC not in location.parents:
        raise ImportError(f"subrad was imported from {location}, not from {SRC}")
    return module


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one pass of ``workload``.

    Only the sweep grid depends on the seed; the worker also uses the seed
    to shuffle the job order of each pass.
    """
    if workload == "figures":
        return [{"id": name, "preset": name} for name in FIGURE_PRESETS]
    if workload == "nqubit":
        # nqubit:7 drops "nes": at dim 128 the dark-subspace columns take minutes.
        return [
            {"id": "nqubit-4", "preset": "nqubit:4"},
            {"id": "nqubit-5", "preset": "nqubit:5"},
            {"id": "nqubit-7", "preset": "nqubit:7", "observables": ["energy", "checks"]},
        ]
    if workload == "sweep":
        return [{"id": "sweep", "sweep": sweep_document(seed)}]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def parse_job(job: dict, scenario):
    """Parse and validate one job's input with the library's ``scenario`` module.

    Returns a ``Scenario`` for preset jobs and a ``SweepSpec`` for sweeps.
    Names are looked up on the module at call time, so traced runs see them.
    """
    if "sweep" in job:
        return scenario.parse_sweep(json.dumps(job["sweep"]))
    data = scenario.load_preset(job["preset"])
    if "observables" in job:
        data["observables"] = list(job["observables"])
    return scenario.scenario_from_dict(data)
