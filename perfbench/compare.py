#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

Usage:
    python3 perfbench/compare.py BASE CHANGE [--bench BENCHMARK.json]

BASE and CHANGE are each a directory of result files (perfbench writes
one per run under .bench_build/results/) or a single result file. Copy
the parent's and the change's result files into two directories first.

For every workload x metric the tool prints each side's median and
quartiles and a verdict:

  regression  the change's median is worse than the base's by more
              than the metric's bound
  improved    the change's median is better by more than the base's
              own quartile spread, and every change run beats every
              base run
  unchanged   neither of the above, with both spreads within the bound
  unresolved  a side's run-to-run spread (quartile distance over
              median) exceeds the bound, and the change's runs do not
              all read better than every base run

Per-layer metrics have no bound; they are listed with their medians
and quartiles only.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    runs = {}
    for f in files:
        with open(f) as fh:
            d = json.load(fh)
        key = (d["workload"], d["trace"])
        runs.setdefault(key, []).append(d)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(base, change, better, bound):
    """Classify one metric; worse is measured as a share of the base median."""
    b_med, c_med = statistics.median(base), statistics.median(change)
    sign = 1 if better == "lower" else -1
    worse = sign * (c_med - b_med) / b_med if b_med else 0.0
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if max(spread(base), spread(change)) > bound:
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regression"
    if -worse > spread(base) and all_better:
        return "improved"
    return "unchanged"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:12.5g} [{q1:.4g}, {q3:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()
    with open(args.bench) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, change = load(args.base), load(args.change)
    worst = 0
    print(f"{'workload':12s} {'metric':28s} {'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        names = [m["name"] for m in (bench["end_to_end"] if trace == 0 else bench["per_layer"])]
        for name in names:
            b = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[key] if name in r["metrics"]]
            if not b or not c:
                continue
            spec = specs[name]
            v = verdict(b, c, spec["better"], spec["bound"]) if "bound" in spec else "-"
            if v == "regression":
                worst = 1
            print(f"{workload:12s} {name:28s} {fmt(b):>34s} {fmt(c):>34s}  {v}")
        fails_b = sum(r["failed"] for r in base[key])
        fails_c = sum(r["failed"] for r in change[key])
        att_b = sum(r["attempted"] for r in base[key])
        att_c = sum(r["attempted"] for r in change[key])
        print(f"{workload:12s} {'failed/attempted':28s} {fails_b:>16d}/{att_b:<17d} {fails_c:>16d}/{att_c:<17d}")
        if not all(r["correct"] for r in change[key]):
            print(f"{workload:12s} change has incorrect runs")
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
