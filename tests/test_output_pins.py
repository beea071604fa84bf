"""Every preset's output, two Dormand-Prince runs and a sweep, against the rows pinned in `output_pins.json`.

`record_output_pins.py` writes the file; this test only reads it.  The
propagator runs and the sweep rows must match within 1e-12 absolute, the
Dormand-Prince runs, whose step choices may differ between BLAS builds,
within 1e-8, and the sweep statuses exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import subrad as sr

PINS = json.loads(Path(__file__).with_name("output_pins.json").read_text("utf-8"))
BOUNDS = {"propagator": 1e-12, "dp45": 1e-8}
SWEEP_BOUND = 1e-12


def cells(lines):
    return [line.split(",") for line in lines]


@pytest.mark.parametrize("solver, key", [(solver, key) for solver in BOUNDS for key in PINS[solver]])
def test_run_matches_its_pins(solver, key):
    pin = PINS[solver][key]
    data = sr.load_preset(pin["preset"])
    if pin["initial"] is not None:
        data["initial"] = [pin["initial"]]
    result = sr.run_scenario(sr.scenario_from_dict(data))
    assert list(result.header) == pin["header"]
    assert result.breached == pin["breached"]
    assert len(result.rows) == pin["index"][-1] + 1
    expected = np.array(cells(pin["rows"]), dtype=float)
    np.testing.assert_allclose(result.rows[pin["index"]], expected, rtol=0, atol=BOUNDS[solver])


def test_sweep_matches_its_pins():
    pin = PINS["sweep"]
    result = sr.run_sweep(sr.parse_sweep(json.dumps(pin["document"])))
    assert list(result.header) == pin["header"]
    expected = cells(pin["rows"])
    assert [row[-1] for row in result.rows] == [row[-1] for row in expected]
    actual = np.array([row[:-1] for row in result.rows], dtype=float)
    np.testing.assert_allclose(actual, np.array([row[:-1] for row in expected], dtype=float),
                               rtol=0, atol=SWEEP_BOUND)
