"""singlab benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload drinfeld --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
`src/` next to this directory, nothing is installed.  The benchmark

1. generates the workload's warm-up inputs,
2. launches SETUP_LAUNCHES fresh worker processes one after another, each
   timed from launch until it has imported `singlab.cli` and run its
   warm-up jobs (`setup_s` is their median); all but the last exit,
3. lets the last worker drive the seeded job stream closed-loop with one
   client for `--seconds` of wall time (see worker.py),
4. checks every job's output: exit status 0, the closed-form oracles of
   oracles.py, the SHA-256 of stdout that record_golden.py stored in
   golden.json (default seed only), tau <= mu across paired jobs, and
   identical stdout on a repeat for jobs without a closed form,
5. prints one JSON line: with `--trace 0` the end-to-end metrics, with
   `--trace 1` the per-layer metrics of the traced rounds.

Times are reported in reference seconds, which cancel the host's changing
speed (see refclock.py); peak_rss_mb is reported as measured.

Every job that exits non-zero, raises, times out, runs out of memory or
fails a check counts in `failed`; `correct` is true only when none does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import oracles
import refclock
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0
SETUP_LAUNCHES = 5
READY_TIMEOUT_S = 60
RUN_LIMIT_S = 170
# job_tail_s is this percentile of job times.  Every workload runs at least
# 110 jobs in a 30-second run of the commit that defined it, so at least 10
# jobs lie beyond it.
TAIL_PERCENTILE = 90
# Largest |sum of self times - sum of job times| the trace may show.
ACCOUNTING_TOLERANCE_S = 1e-6


def input_key(job):
    """Digest of what a job reads: its argv and its input document."""
    text = json.dumps([job["argv"], job.get("file")], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def stdout_digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_golden(workload, seed):
    if seed != DEFAULT_SEED:
        return {}
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


class WorkerError(RuntimeError):
    pass


def _launch(workdir):
    """Start a worker; return (process, reference seconds until it reported
    ready).  The reference loop is timed here just before the launch and
    just after the worker is ready (see refclock.py)."""
    ref = refclock.pass_seconds()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workdir],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise WorkerError("worker did not become ready")
    ref = (ref + refclock.pass_seconds()) / 2
    return proc, elapsed * refclock.NOMINAL_S / ref


def _finish(proc, text, timeout):
    """Send `text` to a worker and wait for it to end; kill it at timeout."""
    try:
        out, _ = proc.communicate(text, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return out


def run_worker(workload, seed, seconds, trace, workdir, spans_path):
    """Setup times of the launches and the last worker's result record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    with open(os.path.join(workdir, "warmup.json"), "w",
              encoding="utf-8") as fh:
        json.dump(workloads.warmup(workload), fh)
    setups = []
    for k in range(SETUP_LAUNCHES):
        proc, elapsed = _launch(workdir)
        setups.append(elapsed)
        if k < SETUP_LAUNCHES - 1:
            _finish(proc, "exit\n", READY_TIMEOUT_S)
    settings = {"workload": workload, "seed": seed, "seconds": seconds,
                "trace": trace, "spans_path": spans_path}
    out = _finish(proc, "run\n" + json.dumps(settings) + "\n",
                  deadline - time.perf_counter())
    if not out.strip():
        raise WorkerError("worker printed no result")
    return setups, json.loads(out.strip().splitlines()[-1])


def failures(workload, seed, result):
    """{job id: reason} for every job of the timed phase that failed."""
    rounds = max(r["index"] for r in result["rounds"]) + 1
    specs = {}
    for batch, _ in zip(workloads.stream(workload, seed), range(rounds)):
        specs.update((job["id"], job) for job in batch)
    golden = load_golden(workload, seed)
    repeats = result["repeats"]
    bad = {}
    outputs = {}
    for rec in result["jobs"]:
        job = specs[rec["id"]]
        if rec["status"] != 0:
            bad[rec["id"]] = f"status {rec['status']}"
            continue
        outputs[rec["id"]] = (job, rec["stdout"])
        reason = oracles.check(job, rec["stdout"])
        want = golden.get(input_key(job))
        if reason is None and want and want != stdout_digest(rec["stdout"]):
            reason = "stdout differs from the recorded digest"
        if reason is None and oracles.needs_repeat(job):
            again = repeats.get(rec["id"])
            if again is None and rec["id"].startswith("r0."):
                reason = "repeat did not run"
            elif again is not None and again != [0, rec["stdout"]]:
                reason = "repeat printed different stdout"
        if reason:
            bad[rec["id"]] = reason
    for job_id, reason in oracles.check_pairs(outputs).items():
        bad.setdefault(job_id, reason)
    return bad


def round_of(job_id):
    return int(job_id[1:job_id.index(".")])


def end_to_end(result, setups, bad):
    """End-to-end metrics.  Throughput is the median over rounds of each
    round's correct jobs per second of summed job time: every round runs
    the same mix, and the median keeps one disturbed round from moving the
    run's figure."""
    jobs = result["jobs"]
    times = sorted(rec["seconds"] for rec in jobs)
    tail = statistics.quantiles(times, n=100, method="inclusive")[
        TAIL_PERCENTILE - 1] if len(times) > 1 else times[0]
    failed_in = Counter(round_of(job_id) for job_id in bad)
    rates = [(r["jobs"] - failed_in[r["index"]]) / r["job_seconds"]
             for r in result["rounds"]]
    ok = len(jobs) - len(bad)
    return {
        "jobs_per_s": (statistics.median(rates), "jobs/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "ok_frac": (ok / len(jobs), "ratio"),
    }


def per_layer(result):
    layers = dict(result["layers"])
    rate = {}
    for traced in (False, True):
        rounds = [r for r in result["rounds"] if r["traced"] == traced]
        spent = sum(r["job_seconds"] for r in rounds)
        rate[traced] = sum(r["jobs"] for r in rounds) / spent if spent else 0
    overhead = 1 - rate[True] / rate[False] if rate[False] else 0.0
    layers["trace.overhead_frac"] = (overhead, "ratio")
    return layers


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "singlab", "cli.py")):
        print(f"no singlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    spans_path = os.path.join(outdir, f"spans-{args.workload}.jsonl")
    try:
        setups, result = run_worker(args.workload, args.seed, args.seconds,
                                    bool(args.trace), workdir, spans_path)
    except WorkerError as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    bad = failures(args.workload, args.seed, result)
    for job_id, reason in sorted(bad.items())[:20]:
        print(f"failed {job_id}: {reason}", file=sys.stderr)
    correct = not bad
    if args.trace:
        metrics = per_layer(result)
        gap = result["accounting_gap_s"]
        if gap > ACCOUNTING_TOLERANCE_S:
            print(f"trace self times miss the job time by {gap} s",
                  file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(result, setups, bad)
    print(json.dumps({
        "correct": correct,
        "attempted": len(result["jobs"]),
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
