#!/usr/bin/env python3
"""A/B comparison of two sets of perfbench results.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--trace]

Each directory holds result files written by run.py (by default under
.bench_build/results/), made with identical benchmark code and settings
on the parent commit and on the change, at least ten runs a side,
alternating which side runs first.  Runs pair by seed (by order where
the seeds differ).  For each (workload, metric) the rule in stats.verdict
applies: improved needs >= 9 wins in 10 pairs and a median difference
larger than the parent's interquartile range; worse is a median beyond
the metric's bound from BENCHMARK.json; unresolved is a parent spread
wider than that bound.

One row per workload: its mark (the worst verdict among its metrics),
then every metric as  name verdict parent-median -> change-median.
--trace compares the traced per-layer metrics instead (they have no
bound, so only the pair rule applies).  Exits 1 when any workload is
worse.
"""

import argparse
import json
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def load(directory, trace):
    """{workload: {seed: metrics}} from one result directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        with open(path) as f:
            result = json.load(f)
        if result.get("trace") != trace:
            continue
        if not result["correct"]:
            print("note: %s is marked incorrect; a gain does not count "
                  "when more operations fail" % path.name, file=sys.stderr)
        runs.setdefault(result["workload"], []).append(
            (result["seed"], result["metrics"]))
    return runs


def paired(parent, change):
    """Two equally long value lists, paired by seed where possible."""
    pseeds = [s for s, _ in parent]
    cseeds = [s for s, _ in change]
    if sorted(pseeds) == sorted(cseeds) and len(set(pseeds)) == len(pseeds):
        by_seed = dict(change)
        return [m for _, m in sorted(parent, key=lambda r: r[0])], \
               [by_seed[s] for s in sorted(pseeds)]
    n = min(len(parent), len(change))
    return [m for _, m in parent[:n]], [m for _, m in change[:n]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--trace", action="store_true",
                    help="compare the traced per-layer metrics")
    args = ap.parse_args()

    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    defs = spec["per_layer"] if args.trace else spec["end_to_end"]
    trace = 1 if args.trace else 0
    parent, change = load(args.parent, trace), load(args.change, trace)

    any_worse = False
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print("%-16s unresolved  (runs on one side only)" % workload)
            continue
        pruns, cruns = paired(parent[workload], change[workload])
        cells, verdicts = [], []
        for d in defs:
            p = [m[d["name"]]["value"] for m in pruns]
            c = [m[d["name"]]["value"] for m in cruns]
            v = stats.verdict(p, c, d["better"], d.get("bound"))
            verdicts.append(v)
            cells.append("%s %s %.4g -> %.4g" % (
                d["name"], v, stats.median(p), stats.median(c)))
        mark = stats.worst(verdicts)
        any_worse = any_worse or mark == "worse"
        print("%-16s %-10s (%d pairs) | %s" % (
            workload, mark, len(pruns), " | ".join(cells)))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
