"""Record the reference outputs of one or all workloads.

    python3 bench/record_reference.py [workload ...]

Runs every job once with every pool point (so any seed's subset is
covered) and writes bench/reference/<workload>.json.gz.  Run this only on the
commit whose numbers are the reference; the benchmark's correctness gate
compares later commits against it.
"""

from __future__ import annotations

import shutil
import sys
import time

import reference
import run


def main(argv) -> int:
    run.import_zpgd()
    from workloads import WORKLOADS, JobContext

    names = argv or list(WORKLOADS)
    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    run.RESULTS.mkdir(exist_ok=True)
    for workload in names:
        work = run.RESULTS / f"record-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        ctx = JobContext(work, seed=0, full_pools=True)
        jobs = {}
        try:
            for name, fn in WORKLOADS[workload]:
                t0 = time.perf_counter()
                res = fn(ctx)
                bad = [c.name for c in res.checks if not c.ok]
                if bad:
                    print(f"{workload}/{name}: failed checks {bad}", file=sys.stderr)
                    return 1
                jobs[name] = reference.record(res)
                print(f"{workload}/{name}: {time.perf_counter() - t0:.1f} s", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        reference.save(workload, jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
