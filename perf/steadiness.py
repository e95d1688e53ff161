"""How steady is the benchmark on this machine?

    python3 perf/steadiness.py [--runs 10] [--first-seed 100] [--out FILE]

Runs the driver command of BENCHMARK.json ``--runs`` times per workload,
each time with another seed, and prints for every end-to-end metric the
median of the runs and the distance between their first and third
quartile as a share of that median, next to the metric's bound — the
acceptance test a later change's numbers are read against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    values = {}  # workload -> metric -> [value per run]
    status = 0
    for i in range(args.runs):
        for workload in (w["name"] for w in spec["workloads"]):
            done = subprocess.run(
                spec["command"] + [
                    "--workload", workload, "--seed", str(args.first_seed + i),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ],
                cwd=ROOT, stdout=subprocess.PIPE,
            )
            result = json.loads(done.stdout.decode().strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                status = 1
                print(f"{workload} seed {args.first_seed + i}: NOT CORRECT", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
        print(f"run {i + 1} of {args.runs} done", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':13s} {'metric':13s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for workload, metrics in values.items():
        for name, runs in metrics.items():
            q1, _, q3 = statistics.quantiles(runs, n=4)
            centre = statistics.median(runs)
            spread = (q3 - q1) / centre
            flag = "" if spread <= bounds[name] / 3 else (" > bound/3" if spread <= bounds[name] else " > BOUND")
            print(f"{workload:13s} {name:13s} {centre:12.4f} {spread:10.3f} {bounds[name]:6.2f}{flag}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(values, handle, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
