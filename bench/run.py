"""Benchmark of the cstarpow CLI.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload sympow-spectral --seed 1 --seconds 30 --trace 0

Each job of the workload runs as a fresh child process that imports
``cstarpow`` from ``src/`` and calls ``cstarpow.cli.main([...job...,
"--seed", seed, "--json"])``, exactly one user invocation with cold caches.
Every payload is checked against ``reference.json``.  The run first spawns a
few import-only probes (set-up time, and the numeric environment), then runs
every job once, in order, and then, for the rest of ``--seconds``, more
samples: three quarters of that time on the jobs at the median cost, a
quarter on the others, always the job with the fewest samples whose median
cost still fits.  Each job's time is adjusted to a fixed host speed (see
``adjusted_time``); the unadjusted figures stay in the record.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` every job runs untraced and then traced, and the
last line holds the per-layer metrics.  The full record of the run (the
environment, every job, the metrics) is written to ``bench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import check
import spans
from workloads import WORKLOADS, job_argv, job_key

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")
CHILD = os.path.join(BENCH, "child.py")

# One BLAS thread per child: the steadiest setting on a 2-core machine, and
# it leaves the second core to a change that adds its own parallelism.
BLAS_THREADS = 1
SETUP_PROBES = 5
# Shares of the time after the first pass: the jobs at the median cost
# (``job_p50_s``) and the others (``wall_s``).  See run_untraced.
POOL_SHARE = {"middle": 0.75, "rest": 0.25}
SWAP_MARGIN = 0.25
# The host kernel time (``kernel_s``: child.host_kernel_s before plus after
# the job) that every job time is adjusted to.  About its mean on the 2-core
# test machine, where it reads about 12 ms when the host is idle and 21 ms
# when it is loaded.
HOST_REFERENCE_S = 0.018
# Fewest samples of a job from which its power on the host kernel is fitted.
MIN_FIT_SAMPLES = 4
# Every run must end within 180 s, whatever --seconds says.
RUN_LIMIT_S = 160.0

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # Users keep compiled byte code, so set-up should not include compiling.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(spec: dict, timeout: float) -> tuple[dict | None, float, str]:
    """Run one child; return its record, its spawn time and its stderr."""
    spec = {"src": SRC, **spec}
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, spawned, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, spawned, proc.stderr or f"child exited {proc.returncode}"
    return json.loads(lines[-1]), spawned, proc.stderr


def probe() -> dict:
    record, spawned, err = spawn({"probe": True}, timeout=60)
    if record is None:
        raise BenchError(f"cannot import cstarpow from {SRC}: {err.strip()}")
    record["setup_s"] = record["imported"] - spawned
    return record


def run_job(job: list[str], seed: int, reference: dict, timeout: float,
            spans_path: str | None = None) -> dict:
    """Run and check one job; return what the metrics need."""
    spec = {"argv": job_argv(job, seed), "spans": spans_path}
    record, spawned, err = spawn(spec, timeout)
    result = {"job": job_key(job), "traced": spans_path is not None}
    if record is None:
        result["problems"] = [err.strip().splitlines()[-1] if err.strip()
                              else "child failed"]
        return result
    result.update(setup_s=record["imported"] - spawned,
                  kernel_s=record["kernel_s"],
                  main_s=record["main_s"], cpu_s=record["cpu_s"],
                  code=record["code"],
                  maxrss_mb=record["maxrss_kb"] / 1024.0,
                  problems=check.check_job(job, record["code"],
                                           record["stdout"], reference))
    if result["problems"] and err.strip():
        result["stderr_tail"] = err.strip().splitlines()[-5:]
    return result


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cstarpow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(first_probe: dict) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": first_probe["numpy"],
        "scipy": first_probe["scipy"],
        "openblas": first_probe["openblas"],
        "blas_threads": first_probe["blas_threads"],
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


class Runner:
    """Runs jobs and keeps their results until the deadline."""

    def __init__(self, jobs, seed: int, started: float, seconds: float,
                 reference: dict):
        self.jobs, self.seed, self.reference = jobs, seed, reference
        self.start = started
        self.deadline = started + seconds
        self.results: list[dict] = []

    def run(self, job, spans_path=None) -> dict:
        began = time.monotonic()
        timeout = RUN_LIMIT_S - (began - self.start)
        if timeout <= 1:
            result = {"job": job_key(job), "traced": spans_path is not None,
                      "problems": ["not started: run time limit reached"]}
        else:
            result = run_job(job, self.seed, self.reference, timeout,
                             spans_path)
        result["cost_s"] = time.monotonic() - began
        self.results.append(result)
        return result

    def fits(self, predicted_s: float) -> bool:
        return time.monotonic() + predicted_s <= self.deadline


def _by_job(results, field: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for r in results:
        if field in r:
            values.setdefault(r["job"], []).append(r[field])
    return values


def trimmed_mean(values: list[float]) -> float:
    """Mean of the middle half of the samples; of all when fewer than four."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def adjusted_time(samples: list[tuple[float, float]]) -> float:
    """A job's time at the reference host speed, from its samples.

    Each sample is ``(kernel_s, main_s)``.  The least-squares slope of
    ``log(main_s)`` on ``log(kernel_s)`` over the run's samples of this job
    is the share by which the job slows for each share by which the host
    kernel slows.  It is taken as 0 when there are fewer than
    ``MIN_FIT_SAMPLES``, and kept between 0 and 1: a job slows no more than
    the kernel.  Each sample is scaled by ``(HOST_REFERENCE_S / kernel_s)``
    to that power, and the result is the trimmed mean.  A job that runs
    mostly in large BLAS calls, which the host's load hardly slows, gets a
    power near 0 and keeps its measured time.
    """
    kernel = [math.log(k) for k, _ in samples]
    main = [math.log(m) for _, m in samples]
    power = 0.0
    if len(samples) >= MIN_FIT_SAMPLES and statistics.pvariance(kernel) > 0:
        power = min(1.0, max(0.0, statistics.covariance(kernel, main)
                             / statistics.variance(kernel)))
    return trimmed_mean([m * (HOST_REFERENCE_S / k) ** power
                         for k, m in samples])


def median_ranks(costs: list[float]) -> range:
    """Ranks of the one or two jobs at the median of ``costs`` (sorted),
    and of each neighbour within ``SWAP_MARGIN`` of their cost, which may
    swap places with them."""
    lo, hi = (len(costs) - 1) // 2, len(costs) // 2
    if lo > 0 and costs[lo - 1] * (1 + SWAP_MARGIN) >= costs[lo]:
        lo -= 1
    if hi + 1 < len(costs) and costs[hi + 1] <= costs[hi] * (1 + SWAP_MARGIN):
        hi += 1
    return range(lo, hi + 1)


def run_untraced(runner: Runner) -> dict[str, float]:
    """Every job once, in order; then, while time is left, more samples.

    ``job_p50_s`` rests on the one or two jobs at the median, so most of the
    extra time (``POOL_SHARE``) goes to them and to close neighbours.  The
    rest goes to the other jobs, so ``wall_s`` gets second samples of its
    long jobs.  Within each pool, the job with the fewest samples that
    still fits runs.
    """
    for job in runner.jobs:
        runner.run(job)
    spent = {"middle": 0.0, "rest": 0.0}
    while True:
        costs = _by_job(runner.results, "cost_s")
        cost = {job_key(j): statistics.median(costs[job_key(j)])
                for j in runner.jobs}
        ranked = sorted(runner.jobs, key=lambda j: cost[job_key(j)])
        middle = [ranked[k] for k in
                  median_ranks([cost[job_key(j)] for j in ranked])]
        rest = [j for j in runner.jobs if j not in middle]
        for pool in sorted(spent, key=lambda p: spent[p] / POOL_SHARE[p]):
            fitting = [j for j in (middle if pool == "middle" else rest)
                       if runner.fits(cost[job_key(j)])]
            if fitting:
                job = min(fitting, key=lambda j: len(costs[job_key(j)]))
                spent[pool] += runner.run(job)["cost_s"]
                break
        else:
            break
    # Other load on the shared host slows interpreter-heavy jobs by up to
    # half, in spells that come and go over seconds, and a 30 s run catches
    # anything from a quarter to nearly all of its samples in them.  Each
    # job's time is therefore adjusted to a fixed host speed, with the
    # kernel the child runs around the job as a control variate.
    samples: dict[str, list[tuple[float, float]]] = {}
    for r in runner.results:
        if "main_s" in r:
            samples.setdefault(r["job"], []).append((r["kernel_s"],
                                                     r["main_s"]))
    per_job = {job: adjusted_time(s) for job, s in samples.items()}
    measured = {job: trimmed_mean([m for _, m in s])
                for job, s in samples.items()}
    values = {"ok_ratio": sum(not r["problems"] for r in runner.results)
              / len(runner.results)}
    if len(per_job) == len(runner.jobs):
        values.update(
            wall_s=sum(per_job.values()),
            job_p50_s=statistics.median(per_job.values()),
            measured_wall_s=sum(measured.values()),
            measured_job_p50_s=statistics.median(measured.values()),
            peak_rss_mb=max(r["maxrss_mb"] for r in runner.results
                            if "maxrss_mb" in r))
    return values


def traced_stats(result: dict, path: str) -> dict:
    """Per-layer totals of a traced job from its span file.

    A function of ``spans.FUNCTIONS`` that the recorder did not find in its
    layer would read 0 time and 0 calls, so it fails the job.
    """
    with open(path) as fh:
        dumped = json.load(fh)
    missing = sorted(set(spans.FUNCTIONS) - set(dumped["installed"]))
    if missing:
        result["problems"].append(
            f"not found in the layers: {', '.join(missing)}")
    stats = spans.job_stats(dumped["spans"])
    stats["main_s"] = dumped["main_s"]
    return stats


def run_traced(runner: Runner, workload: str) -> dict[str, float]:
    """Passes of (untraced job, traced job) pairs; per-layer metrics."""
    passes = []
    pass_s = 0.0
    while not passes or runner.fits(pass_s):
        began = time.monotonic()
        untraced_s, traced = 0.0, []
        for k, job in enumerate(runner.jobs):
            plain = runner.run(job)
            path = os.path.join(OUT, f"spans-{workload}-{k}.json")
            result = runner.run(job, spans_path=path)
            if "main_s" not in plain or "main_s" not in result:
                continue
            untraced_s += plain["main_s"]
            stats = traced_stats(result, path)
            stats["rss_overhead_mb"] = result["maxrss_mb"] - plain["maxrss_mb"]
            traced.append(stats)
        if len(traced) == len(runner.jobs):
            passes.append(spans.pass_metrics(traced, untraced_s))
        pass_s = time.monotonic() - began
        if any(r["problems"] for r in runner.results):
            break
    return spans.median_metrics(passes) if passes else {}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    jobs = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "cstarpow", "cli.py")):
        raise BenchError(f"no cstarpow sources under {SRC}")
    reference = check.load_reference()
    os.makedirs(OUT, exist_ok=True)

    probes = [probe() for _ in range(SETUP_PROBES)]
    env = environment(probes[0])
    print(f"environment: {json.dumps(env)}")
    if env["blas_threads"] not in (None, BLAS_THREADS):
        raise BenchError(f"children run {env['blas_threads']} BLAS threads, "
                         f"not {BLAS_THREADS}")

    runner = Runner(jobs, args.seed, started, args.seconds, reference)
    if args.trace:
        values = run_traced(runner, args.workload)
        units = spans.metric_units()
    else:
        values = run_untraced(runner)
        values["setup_s"] = statistics.median(
            [p["setup_s"] for p in probes]
            + [r["setup_s"] for r in runner.results if "setup_s" in r])
        units = END_TO_END_UNITS
    env["loadavg_end"] = os.getloadavg()

    failed = sum(bool(r["problems"]) for r in runner.results)
    for r in runner.results:
        if r["problems"]:
            print(f"FAILED {r['job']}: {'; '.join(r['problems'])}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    result = {"correct": failed == 0 and len(metrics) == len(units),
              "attempted": len(runner.results), "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "jobs": runner.results, "result": result,
              "unadjusted": {name.removeprefix("measured_"): value
                             for name, value in values.items()
                             if name.startswith("measured_")}}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
