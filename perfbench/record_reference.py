"""Record `reference.json`: sampled output columns of every preset job.

Usage: python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known good: the gate compares
later commits against what it writes.  The committed file was recorded at
the commit that introduced the benchmark, with OPENBLAS_NUM_THREADS=1.
"""

import json

from gate import REFERENCE_FILE, reference_entry
from jobs import WORKLOADS, import_scenario_module, make_jobs, parse_job


def main() -> None:
    scenario = import_scenario_module()
    reference = {}
    for workload in WORKLOADS:
        for job in make_jobs(workload, seed=0):
            if "preset" in job:
                result = scenario.run_scenario(parse_job(job, scenario))
                reference[job["id"]] = reference_entry(result)
                print(job["id"], "breached" if result.breached else "ok", flush=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()
