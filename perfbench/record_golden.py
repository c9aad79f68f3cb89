"""Record golden.json: the SHA-256 of each job's stdout for the default seed.

    python3 perfbench/record_golden.py [--seconds 90]

Run it on the commit whose outputs are the reference.  For each workload it
runs whole rounds of the default-seed stream in this process until
`--seconds` of job time have passed (more rounds than a benchmark run of
the same commit reaches), checks every output with the oracles, and stores
{input digest: stdout digest}.  A job whose output fails its oracle is not
recorded, and the script exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import oracles
import run
import workloads
from worker import JobClock, materialize, run_job


def record(cli, clock, workload, seconds, workdir):
    digests = {}
    spent = 0.0
    bad = 0
    for batch in workloads.stream(workload, run.DEFAULT_SEED):
        if spent >= seconds:
            break
        outputs = {}
        for job in batch:
            status, wall, _, stdout = run_job(
                cli, materialize(job, workdir), clock)
            spent += wall
            reason = oracles.check(job, stdout) if status == 0 else status
            if reason:
                print(f"{workload} {job['id']}: {reason}", file=sys.stderr)
                bad += 1
                continue
            outputs[job["id"]] = (job, stdout)
        for job_id, reason in oracles.check_pairs(outputs).items():
            print(f"{workload} {job_id}: {reason}", file=sys.stderr)
            bad += 1
            del outputs[job_id]
        for job, stdout in outputs.values():
            digests[run.input_key(job)] = run.stdout_digest(stdout)
    return digests, bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=90)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import singlab.cli as cli

    clock = JobClock()

    golden = {"seed": run.DEFAULT_SEED, "workloads": {}}
    failed = 0
    workdir = tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_golden")
    try:
        for workload in workloads.WORKLOADS:
            digests, bad = record(cli, clock, workload, args.seconds,
                                  workdir)
            golden["workloads"][workload] = digests
            failed += bad
            print(f"{workload}: {len(digests)} jobs recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "golden.json"), "w",
              encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
