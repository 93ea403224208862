"""Run the benchmark's workloads, each in its own process, and summarise them.

    python3 benchmarks/report.py                       # one run per workload
    python3 benchmarks/report.py --runs 10 --trace --out benchmarks/BENCH_baseline.json

For every workload and end-to-end metric it prints the median over the runs
(one seed per run), the quartiles and their distance as a share of the
median, plus failed_frac = failed jobs / attempted jobs.  With --trace it
adds one traced run per workload and lists the layers by self time.  With
--out it also writes everything, with the machine, nproc, Python version
and commit, as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from inputs import HERE, ROOT
from jobs import WORKLOADS


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the benchmark's acceptance uses them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "platform": platform.platform(),
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = range(1, args.runs + 1)
    record = {"machine": machine(), "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"seeds": list(seeds), "attempted": attempted, "failed": failed,
                 "failed_frac": failed / attempted, "metrics": {}}
        print(f"{workload}: {args.runs} runs")
        print(f"  {'failed_frac':<12} {failed / attempted:10.6g} frac  "
              f"({failed} failed of {attempted} jobs attempted)")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, share = spread(values)
            entry["metrics"][name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                                      "iqr_over_median": share, "values": values}
            print(f"  {name:<12} {med:10.6g} {first['unit']:<5} "
                  f"quartiles {q1:.6g}..{q3:.6g}  spread {share:.1%}")
        if args.trace:
            traced = run_once(workload, 1, seconds, 1)["metrics"]
            entry["trace"] = {k: v["value"] for k, v in traced.items()}
            layers = sorted((k for k in traced if k.endswith(".self_s")),
                            key=lambda k: -traced[k]["value"])
            print(f"  traced pass {traced['trace.pass_s']['value']:.4g} s, "
                  f"overhead {traced['trace.overhead_frac']['value']:+.1%}; top self times:")
            for key in layers[:6]:
                layer = key[: -len(".self_s")]
                calls = traced.get(f"{layer}.calls", {}).get("value", "-")
                print(f"    {layer:<36} {traced[key]['value']:9.4f} s  calls {calls}")
        record["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
