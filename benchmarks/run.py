"""Layered benchmark of tiltfan: one workload per process, one closed-loop client.

    python3 benchmarks/run.py --workload cluster --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its src/.
The process writes its seeded inputs, then runs passes over the workload's
job list (one job after another) until --seconds have gone by.  The first
pass warms up and is not timed into the medians.  Every job's output is
checked against a closed form outside the timed region.  End-to-end times
are reported in reference seconds (see refclock.py): wall seconds corrected
by calibration slices taken while the jobs run.  Per-layer times are plain
wall seconds.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes (the wrappers are installed only for the traced ones) and
prints the per-layer metrics.  Lines before the last one are a readable
summary; the last line is one JSON object.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from inputs import HERE, ROOT, setup
from jobs import WORKLOADS, Mismatch, build
from refclock import Sampler, Speed
from tracer import Tracer

SETUP_FIRST = 5  # set-up samples before the first pass; one more after each pass
SETUP_SLICES = 10  # calibration slices on either side of a set-up sample
WORK = ROOT / ".bench_work"


def time_setup(workload, seed, dest):
    """Time of a fresh process that imports tiltfan and writes the inputs, in
    reference seconds, with calibration slices on either side."""
    speed = Speed()
    for _ in range(SETUP_SLICES):
        speed.sample()
    start = time.perf_counter()
    # no timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms, which
    # would quantize the measurement
    subprocess.run([sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(dest)],
                   cwd=ROOT, check=True)
    seconds = time.perf_counter() - start
    for _ in range(SETUP_SLICES):
        speed.sample()
    shutil.rmtree(dest)
    return seconds * speed.factor


class Clock:
    """Context manager whose `seconds` is the wall time of its block, less the
    time of the sampler's calibration slices taken within it."""

    def __init__(self, sampler):
        self.sampler = sampler

    def __enter__(self):
        self.sampled = self.sampler.seconds
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self.start
        self.seconds = wall - (self.sampler.seconds - self.sampled)
        return False


class Pass:
    """One pass over the job list: per-job wall times and failures.  An
    untraced pass runs under a Sampler: its job times exclude the slices, and
    `scale` is the reference seconds per wall second while it ran.  A traced
    pass takes no slices, so the tracer's spans hold only the work."""

    def __init__(self, jobs, tracer=None):
        self.times = {}
        self.failures = []
        sampler = Sampler()
        with sampler if tracer is None else contextlib.nullcontext():
            for job in jobs:
                gc.collect()
                clock = Clock(sampler) if tracer is None else tracer.region()
                try:
                    with clock:
                        output = job.run()
                    job.check(output)
                except (Exception, SystemExit) as exc:  # a failing job is counted, not fatal
                    kind = "mismatch" if isinstance(exc, Mismatch) else type(exc).__name__
                    self.failures.append(f"{job.name}: {kind}: {exc}")
                self.times[job.name] = clock.seconds
        self.scale = sampler.factor if tracer is None else None

    @property
    def seconds(self):
        """Wall time of the pass's jobs."""
        return sum(self.times.values())


def traced_pass(jobs, tracer):
    """One pass with the wrappers installed, and only that pass, so that the
    untraced passes around it run the bare library.  Returns the pass, its
    layer metrics and its counts."""
    tracer.reset()
    tracer.install()
    try:
        traced = Pass(jobs, tracer)
    finally:
        tracer.uninstall()
    return traced, tracer.layer_metrics(), dict(tracer.counts)


def run_passes(jobs, seconds, time_setup, tracer=None):
    """A warm-up pass, then passes while the next one is expected to end within
    `seconds` (at least two).  With a tracer, untraced and traced passes
    alternate.  A set-up sample follows every pass, so that set-up samples
    spread over the run like the passes do.

    Returns (untraced passes, warm-up first; traced passes with their layer
    metrics and counts; set-up samples)."""
    start = time.perf_counter()
    setups = [time_setup() for _ in range(SETUP_FIRST)]
    passes = [Pass(jobs)]
    traced = []
    while True:
        lap = time.perf_counter()
        passes.append(Pass(jobs))
        if tracer is not None:
            traced.append(traced_pass(jobs, tracer))
        setups.append(time_setup())
        now = time.perf_counter()
        if len(passes) > 2 and now + (now - lap) - start > seconds:
            return passes, traced, setups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup(args.workload, args.seed, work / "in")
        jobs, top = build(args.workload, work)
        tracer = Tracer() if args.trace else None
        passes, traced, setups = run_passes(
            jobs, args.seconds, lambda: time_setup(args.workload, args.seed, work / "setup"),
            tracer)
        if tracer is not None:
            tracer.write_spans(WORK / f"trace-{args.workload}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_passes = passes + [p for p, _m, _c in traced]
    failures = [f for p in all_passes for f in p.failures]
    attempted = len(jobs) * len(all_passes)
    timed = passes[1:]
    sweep = [p.seconds * p.scale for p in timed]
    summary = [f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs/pass, "
               f"{len(timed)} timed passes (+1 warm-up), {len(failures)} failed of {attempted}"]
    summary += failures[:20]

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "sweep_s": (statistics.median(sweep), "s"),
            "top_s": (statistics.median([p.times[top] * p.scale for p in timed]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": ((attempted - len(failures)) / attempted, "frac"),
        }
        summary.append(f"sweep_s and top_s: medians of {len(timed)} passes; "
                       f"setup_s: median of {len(setups)} processes; all in reference seconds")
        summary.append(f"wall sweep {statistics.median(p.seconds for p in timed):.6g} s, "
                       f"wall top {statistics.median(p.times[top] for p in timed):.6g} s; "
                       f"reference s per wall s: median {statistics.median(p.scale for p in timed):.4g}, "
                       f"range {min(p.scale for p in timed):.4g}..{max(p.scale for p in timed):.4g}")
    else:
        calls, counts = traced[-1][1], traced[-1][2]
        metrics = {}
        for key, value in calls.items():
            if key.endswith(".calls"):
                metrics[key] = (value, "count")
            else:
                metrics[key] = (statistics.median([m[key] for _p, m, _c in traced]), "s")
        metrics["fan.walls"] = (counts["fan.walls"], "count")
        mutations = calls["cluster.mutate.calls"]
        metrics["cluster.new_chamber_ratio"] = (
            counts["cluster.chambers"] / mutations if mutations else 0.0, "ratio")
        tested = calls["brauer.pair_admissible.calls"]
        metrics["brauer.admissible_ratio"] = (
            counts["brauer.admitted"] / tested if tested else 0.0, "ratio")
        traced_sweep = statistics.median([p.seconds for p, _m, _c in traced])
        metrics["trace.pass_s"] = (traced_sweep, "s")
        untraced_sweep = statistics.median([p.seconds for p in timed])
        metrics["trace.overhead_frac"] = (traced_sweep / untraced_sweep - 1, "frac")
        summary.append(f"per-layer self_s: medians of {len(traced)} traced passes; "
                       f"spans of the last one in {WORK.name}/trace-{args.workload}.json")

    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        summary.append(f"  {name:<{width}}  {value:.6g} {unit}")
    print("\n".join(summary))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
