"""Compare two reports written by ``run.py --out``.

    python3 perf/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, both quartile
pairs over repetitions, the ratio B/A with its base, and a verdict from
the bounds BENCHMARK.json fixes:

    same        B's median is within the bound of A's
    worse       B is worse than A by more than the bound
    better      B is better than A by more than the bound
    unresolved  either side's quartile spread is wider than the bound,
                so the difference (or its absence) cannot be claimed

Exit code 1 when any row is ``worse`` or B failed a larger share of its
operations than A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys


def spread(entry):
    """(q1, q3, interquartile range as a share of the median)."""
    reps = entry["reps"]
    if len(reps) < 2:
        return reps[0], reps[0], 0.0
    q1, _, q3 = statistics.quantiles(reps, n=4)
    centre = statistics.median(reps)
    return q1, q3, (q3 - q1) / centre if centre else 0.0


def verdict(a, b, bound, better):
    _, _, spread_a = spread(a)
    _, _, spread_b = spread(b)
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    ratio = b["value"] / a["value"]
    if better == "higher":
        ratio = 1.0 / ratio
    if ratio > 1.0 + bound:
        return "worse"
    if ratio < 1.0 - bound:
        return "better"
    return "same"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    status = 0
    print(
        f"{'workload':13s} {'metric':13s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'B/A':>7s}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            ea = side_a["end_to_end"][metric["name"]]
            eb = side_b["end_to_end"][metric["name"]]
            qa, qb = spread(ea), spread(eb)
            outcome = verdict(ea, eb, metric["bound"], metric["better"])
            if outcome == "worse":
                status = 1
            print(
                f"{workload:13s} {metric['name']:13s} "
                f"{ea['value']:12.4f} [{qa[0]:8.4f},{qa[1]:8.4f}] "
                f"{eb['value']:12.4f} [{qb[0]:8.4f},{qb[1]:8.4f}] "
                f"{eb['value'] / ea['value']:7.3f}  {outcome} "
                f"(bound {metric['bound']:.0%} of A's {ea['value']:.4f} {metric['unit']})"
            )
        if side_b["fail_share"] > side_a["fail_share"]:
            status = 1
            print(
                f"{workload:13s} fail_share    {side_a['fail_share']:.6f} -> "
                f"{side_b['fail_share']:.6f}  worse"
            )
        if side_a["counts"] != side_b["counts"]:
            print(f"{workload:13s} counts differ between A and B (same seed and size?)")
    return status


if __name__ == "__main__":
    sys.exit(main())
