"""dmckit benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's input files from the seed, then calls
`dmckit.cli.main(argv)` in this process once per job, one job at a time,
in whole rounds over the workload's fixed corpus until about S seconds have
passed (and at least 40 jobs).  Afterwards every report is checked against
an independent recomputation (`oracles.py`).  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics, the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
See README.md for the workloads, the metrics and their bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_JOBS = 40
SETUP_PROBES = 7
WARMUP_JOBS = 2


def measure_setup(jobs, workdir: Path) -> float:
    """Median wall time of fresh interpreters that import dmckit.cli and
    load every input of the corpus (setup_probe.py)."""
    manifest = workdir / "setup_manifest.json"
    manifest.write_text(json.dumps([list(load) for job in jobs for load in job.loads]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(manifest)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_jobs(cli, jobs, seconds: float, tracer: Tracer | None):
    """Whole rounds over the corpus; returns (rounds, per-job wall times,
    wall time of the timed phase, nonzero exits by job index)."""
    for job in jobs[:WARMUP_JOBS]:
        cli.main(job.argv)
    if tracer is not None:
        tracer.install()
    min_rounds = math.ceil(MIN_JOBS / len(jobs))
    times: list[float] = []
    bad_exits = [0] * len(jobs)
    rounds = 0
    phase_start = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_id = len(times)
            t0 = time.perf_counter()
            try:
                rc = cli.main(job.argv)
            except Exception:  # a traceback fails this job, not the run
                traceback.print_exc()
                rc = 1
            times.append(time.perf_counter() - t0)
            bad_exits[i] += rc != 0
        rounds += 1
        elapsed = time.perf_counter() - phase_start
        # stop where the next round would end nearer S than this one does
        if rounds >= min_rounds and elapsed + 0.5 * elapsed / rounds >= seconds:
            return rounds, times, elapsed, bad_exits


def check_outputs(jobs, bad_exits):
    """(problems, jobs that fell short) over the reports of the last round."""
    problems: list[str] = []
    short = 0
    for job, bad in zip(jobs, bad_exits):
        if bad:
            problems.append(f"{job.name}: nonzero exit in {bad} rounds")
            continue
        try:
            with open(job.out, encoding="utf-8") as fh:
                report = json.load(fh)
            # a shortfall is a failed operation, not a wrong one: once the
            # optimizer reaches the maximum, `failed` drops and `correct` holds
            found, fell_short = job.check(report)
        except Exception as exc:  # an unreadable report fails this job
            problems.append(f"{job.name}: report not checkable: {exc!r}")
            continue
        problems += [f"{job.name}: {p}" for p in found]
        short += fell_short
    return problems, short


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the program under test is the checkout's own source tree, never an
    # installed copy
    if not (ROOT / "src" / "dmckit" / "cli.py").is_file():
        print(f"bench: no dmckit source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from dmckit import cli

    work = HERE / "_work"
    run_dir = work / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    index = sorted(workloads.WORKLOADS).index(args.workload)
    rng = np.random.Generator(np.random.PCG64([args.seed, index]))
    jobs = workloads.WORKLOADS[args.workload](rng, str(run_dir))
    t_built = time.perf_counter()

    setup_s = None if args.trace else measure_setup(jobs, run_dir)
    tracer = Tracer() if args.trace else None
    rounds, times, elapsed, bad_exits = run_jobs(cli, jobs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_checks = time.perf_counter()
    problems, short = check_outputs(jobs, bad_exits)
    print(f"bench: {len(jobs)} jobs x {rounds} rounds in {elapsed:.1f} s, "
          f"longest job {max(times):.3f} s; "
          f"set-up probes and timed phase {t_checks - t_built:.1f} s, "
          f"checks {time.perf_counter() - t_checks:.1f} s", file=sys.stderr)
    for p in problems[:20]:
        print(f"bench: {p}", file=sys.stderr)
    if tracer is not None:
        metrics = tracer.metrics()
        (work / "traces").mkdir(exist_ok=True)
        tracer.save(str(work / "traces" / f"{args.workload}-{args.seed}.npz"))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": len(times) / elapsed, "unit": "1/s"},
            "job_p50_ms": {"value": 1000.0 * statistics.median(times), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": len(times),
              "failed": rounds * short + sum(bad_exits), "metrics": metrics}
    shutil.rmtree(run_dir, ignore_errors=True)
    (work / "results").mkdir(exist_ok=True)
    (work / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
