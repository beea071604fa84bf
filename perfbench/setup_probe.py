"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Times ``import subrad`` plus parsing and validating every input of the
workload, and prints the elapsed seconds.  The interpreter's own start-up
is not counted; the job list is built before the clock starts and needs
only the standard library.
"""

import sys
import time

from jobs import import_scenario_module, make_jobs, parse_job


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    jobs = make_jobs(workload, seed)
    start = time.perf_counter()
    scenario = import_scenario_module()
    for job in jobs:
        parse_job(job, scenario)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
