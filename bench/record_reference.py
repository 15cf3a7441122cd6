"""Record the structural reference outputs of every benchmark job.

Usage: ``python3 bench/record_reference.py``.  Runs each job of every
workload once under each seed in ``SEEDS``, requires exit code 0, residuals
below the tolerance and identical structural fields for all seeds, and writes
them to ``reference.json``.  Run it only on a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys

import check
import run
from workloads import WORKLOADS, job_argv, job_key

SEEDS = (0, 1)


def main() -> int:
    reference = {}
    for workload, jobs in WORKLOADS.items():
        for job in jobs:
            seen = []
            for seed in SEEDS:
                record, _, err = run.spawn({"argv": job_argv(job, seed)},
                                           timeout=run.RUN_LIMIT_S)
                if record is None or record["code"] != 0:
                    print(f"{workload}: {job_key(job)} failed: {err}")
                    return 1
                payload = json.loads(record["stdout"])
                bad = [f"{where} = {value:g}" for where, value
                       in check.residuals(payload)
                       if not value < check.job_tol(job)]
                if bad:
                    print(f"{job_key(job)}: residuals too large: {bad}")
                    return 1
                seen.append(check.structure_of(payload))
                print(f"{workload}: {job_key(job)} seed {seed}: "
                      f"{record['main_s']:.2f} s")
            if any(s != seen[0] for s in seen):
                print(f"{job_key(job)}: structure depends on the seed: {seen}")
                return 1
            reference[job_key(job)] = seen[0]
    with open(check.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
