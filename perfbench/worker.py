"""Benchmark worker: one fresh process that runs one workload in-process.

Started by `run.py` as

    python3 perfbench/worker.py ROOT WORKDIR

The worker limits its own address space, imports `singlab.cli` from
ROOT/src, runs the warm-up jobs of WORKDIR/warmup.json and prints `ready`.
It then reads one command from stdin: `exit`, or `run` followed by a JSON
line with the workload, seed, seconds and trace flag.  On `run` it drives
the workload's job stream closed-loop, one job at a time, each job a call
of `singlab.cli.main(argv)` with stdout captured, and prints one JSON line
with every job's exit status, wall time and stdout.

Rounds of the stream run whole until their wall time reaches the
requested seconds.  Writing a round's input files happens between rounds
and is not measured.  With tracing on, rounds alternate between untraced
and traced, so both rates come from the same process and the same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

import oracles
import refclock
import tracing
import workloads

# Guards on this process only: a job that runs longer than JOB_TIMEOUT_S or
# allocates past ADDRESS_SPACE_BYTES fails instead of stalling the run or
# exhausting the machine's memory.
JOB_TIMEOUT_S = 30
ADDRESS_SPACE_BYTES = 1 << 30
# No job starts later than this after the timed phase began, so the whole
# run ends well within its time limit even when a round is slow.
START_DEADLINE_S = 100


# While a job runs, SIGALRM fires every SAMPLE_S: past the job's deadline the
# handler raises JobTimeout, otherwise it times one pass of the reference
# loop, so a change of the host's speed inside a long job is tracked.
SAMPLE_S = 0.1


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job that ran past JOB_TIMEOUT_S."""


class JobClock:
    """Per-job deadline and reference-loop samples (see refclock.py)."""

    def __init__(self):
        self.deadline = 0.0
        self.samples = []  # (when, seconds in the handler, reference pass)
        self.ref = refclock.pass_seconds()
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        now = time.perf_counter()
        if now > self.deadline:
            raise JobTimeout()
        ref = refclock.pass_seconds(1)
        self.samples.append((now, time.perf_counter() - now, ref))

    def start(self):
        self.samples = []
        self.deadline = time.perf_counter() + JOB_TIMEOUT_S
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return time.perf_counter()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter()

    def measure(self, start, end):
        """(wall seconds, reference seconds) of a job from start to end.

        Time spent in the alarm handler is left out.  Each stretch between
        two reference samples is scaled by the mean of its two samples."""
        ref_after = refclock.pass_seconds()
        points = [(start, 0.0, self.ref)] + self.samples
        ends = self.samples + [(end, 0.0, ref_after)]
        wall = scaled = 0.0
        for (t0, spent, r0), (t1, _, r1) in zip(points, ends):
            own = t1 - t0 - spent
            wall += own
            scaled += own * refclock.NOMINAL_S * 2 / (r0 + r1)
        self.ref = ref_after
        return wall, scaled


def _limit_address_space():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def materialize(job, workdir):
    """The job's argv, with its input document written to WORKDIR."""
    argv = list(job["argv"])
    if "file" in job:
        path = os.path.join(workdir, f"{job['id']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job["file"], fh)
        argv = [path if a == "{file}" else a for a in argv]
    return argv


def run_job(cli, argv, clock, tracer=None, job_id=None):
    """(status, wall seconds, reference seconds, stdout) of one
    `main(argv)` call, traced as job `job_id` when a tracer is given.

    status is the exit code, or a string naming why the job did not return
    one (timeout, memory, an uncaught exception)."""
    out = io.StringIO()
    start = end = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            start = clock.start()
            try:
                if tracer is None:
                    status = cli.main(argv)
                else:
                    status = tracer.run_job(job_id, lambda: cli.main(argv))
            except SystemExit as ex:
                status = ex.code if isinstance(ex.code, int) else 1
            finally:
                end = clock.stop()
    except JobTimeout:
        status = "timeout"
    except MemoryError:
        status = "memory"
    except Exception as ex:  # a job must not end the run; record why
        status = f"raised {type(ex).__name__}: {ex}"
    wall, scaled = clock.measure(start, end)
    return status, wall, scaled, out.getvalue()


def timed_phase(cli, clock, settings, workdir, tracer, began):
    """Run whole rounds until `seconds` of wall time have passed."""
    seconds = settings["seconds"]
    min_rounds = 2 if tracer else 1
    jobs = []
    rounds = []
    measured = 0.0
    for index, batch in enumerate(workloads.stream(settings["workload"],
                                                   settings["seed"])):
        if len(rounds) >= min_rounds and measured >= seconds:
            break
        if time.perf_counter() - began > START_DEADLINE_S:
            break
        argvs = [materialize(job, workdir) for job in batch]
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        done = 0
        clock.ref = refclock.pass_seconds()
        round_start = time.perf_counter()
        for job, argv in zip(batch, argvs):
            if time.perf_counter() - began > START_DEADLINE_S:
                break
            status, wall_s, ref_s, stdout = run_job(
                cli, argv, clock, tracer if traced else None, job["id"])
            jobs.append({"id": job["id"], "status": status, "wall_s": wall_s,
                         "seconds": ref_s, "stdout": stdout})
            done += 1
        wall = time.perf_counter() - round_start
        if traced:
            tracer.uninstall()
        measured += wall
        rounds.append({"index": index, "jobs": done, "wall": wall,
                       "traced": traced,
                       "job_seconds": sum(j["seconds"] for j in jobs[-done:])
                       if done else 0.0})
        if done < len(batch):
            break
    return jobs, rounds


def repeat_phase(cli, clock, settings, workdir, began):
    """Stdout of a second run of each first-round job without a closed form.

    Repeats stop at the start deadline; run.py fails the jobs left out."""
    first = next(workloads.stream(settings["workload"], settings["seed"]))
    repeats = {}
    for job in first:
        if time.perf_counter() - began > START_DEADLINE_S:
            break
        if oracles.needs_repeat(job):
            job = dict(job, id=job["id"] + ".repeat")
            status, _, _, stdout = run_job(cli, materialize(job, workdir),
                                           clock)
            repeats[job["id"][:-len(".repeat")]] = [status, stdout]
    return repeats


def main():
    root, workdir = sys.argv[1], sys.argv[2]
    _limit_address_space()
    clock = JobClock()
    sys.path.insert(0, os.path.join(root, "src"))
    import singlab.cli as cli

    with open(os.path.join(workdir, "warmup.json"), encoding="utf-8") as fh:
        warmup = json.load(fh)
    for job in warmup:
        status, _, _, stdout = run_job(cli, materialize(job, workdir), clock)
        reason = oracles.check(job, stdout) if status == 0 else status
        if reason:
            print(f"warm-up job {job['family']} failed: {reason}",
                  file=sys.stderr)
            return 1
    print("ready", flush=True)

    if sys.stdin.readline().strip() != "run":
        return 0
    settings = json.loads(sys.stdin.readline())
    tracer = tracing.Tracer() if settings["trace"] else None
    began = time.perf_counter()
    jobs, rounds = timed_phase(cli, clock, settings, workdir, tracer, began)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "jobs": jobs,
        "rounds": rounds,
        "peak_rss_kb": peak_rss_kb,
        "repeats": repeat_phase(cli, clock, settings, workdir, began),
    }
    if tracer is not None:
        traced_rounds = max(1, sum(1 for r in rounds if r["traced"]))
        scales = {j["id"]: j["seconds"] / j["wall_s"] for j in jobs}
        result["layers"] = tracer.summarize(traced_rounds, scales)
        result["accounting_gap_s"] = tracer.accounting_gap()
        tracer.write(settings["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
