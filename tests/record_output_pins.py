"""Record `output_pins.json`: sampled output of every preset, two DP45 runs and the benchmark's seed-0 sweep.

Usage, from the repository root: PYTHONPATH=src python tests/record_output_pins.py

Each run keeps its header, whether it breached, the indices of about 21
evenly spaced rows plus the last, and those rows as 17-digit CSV lines
(`format_csv`).  The sweep keeps its document (`perfbench/jobs.py`'s
``sweep_document(0)``), so the test reads it from the file alone, and every
row of `format_sweep_csv`.  `test_output_pins.py` compares against the file
and never runs this script.  Re-record only with a `CHANGES.md` line giving
the largest difference per preset and the reason.
"""

import json
import sys
from pathlib import Path

import subrad as sr
from subrad.scenario import format_sweep_csv

TESTS = Path(__file__).resolve().parent
PINS_FILE = TESTS / "output_pins.json"
sys.path.insert(0, str(TESTS.parent / "perfbench"))
from jobs import sweep_document  # noqa: E402

PRESETS = ("fig2", "fig3a", "fig3c", "fig3e-clockwork", "fig4", *(f"nqubit:{n}" for n in range(3, 9)))
# Blocks of 26 and 37 states, above the propagator's 16: both step by Dormand-Prince.
DP45_RUNS = (("nqubit:5", "11100"), ("nqubit:8", "11000000"))


def pinned_run(preset: str, initial: str | None = None) -> dict:
    data = sr.load_preset(preset)
    if initial is not None:
        data["initial"] = [initial]
    result = sr.run_scenario(sr.scenario_from_dict(data))
    n = len(result.rows)
    index = sorted(set(range(0, n, max(1, n // 20))) | {n - 1})
    lines = sr.format_csv(result.header, result.rows[index]).splitlines()[1:]
    return {"preset": preset, "initial": initial, "header": list(result.header),
            "breached": result.breached, "index": index, "rows": lines}


def main() -> None:
    document = sweep_document(0)
    sweep = sr.run_sweep(sr.parse_sweep(json.dumps(document)))
    header, *rows = format_sweep_csv(sweep).splitlines()
    pins = {
        "propagator": {preset: pinned_run(preset) for preset in PRESETS},
        "dp45": {f"{preset} from {initial}": pinned_run(preset, initial) for preset, initial in DP45_RUNS},
        "sweep": {"document": document, "header": list(sweep.header), "rows": rows},
    }
    PINS_FILE.write_text(json.dumps(pins, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()
