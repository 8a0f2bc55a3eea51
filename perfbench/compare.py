#!/usr/bin/env python3
"""A/B compare two sets of benchmark results.

    python3 perfbench/compare.py A.jsonl B.jsonl

A and B are files written by `run.py --out` (one JSON line per run; a
directory stands for every *.jsonl file in it). For each workload and metric
it prints each side's median and quartiles and a verdict for B against A:

  improved    better than A by more than the metric's bound and by more than
              A's own quartile spread
  regressed   worse than A by more than the metric's bound
  unchanged   within the bound either way
  unresolved  a side's quartile spread (as a share of its median) is wider
              than the bound, and the runs of the two sides overlap

Bounds and directions come from BENCHMARK.json. Per-layer metrics, which
have no bound, and the figures a row keeps under "extra" (scan latency,
error rate, sample counts) are listed with their change only ("info").
Exits 1 if any end-to-end metric regressed or is unresolved, if any run
failed, or if the two sides' inputs differ for a seed.
"""

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) \
        if os.path.isdir(path) else [path]
    rows = []
    for f in files:
        with open(f) as fh:
            rows += [json.loads(line) for line in fh if line.strip()]
    return rows


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def rel(x, base):
    return x / abs(base) if base else float("inf") if x else 0.0


def verdict(a, b, bound, better):
    """Verdict for B against A on one metric."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1 if better == "lower" else -1
    worse = sign * rel(bm - am, am)  # > 0: B is worse
    spread = max(rel(a3 - a1, am), rel(b3 - b1, bm))
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    b_loses_all = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound:
        if b_beats_all:
            return "improved"
        if b_loses_all:
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > max(bound, rel(a3 - a1, am)):
        return "improved"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", help="results of the base (file or directory)")
    ap.add_argument("b", help="results of the change (file or directory)")
    ap.add_argument("--bench", default=os.path.join(HERE, "..",
                                                    "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}

    sides = {}
    bad = 0
    for label, path in (("A", args.a), ("B", args.b)):
        values = defaultdict(list)  # (workload, metric) -> values
        digests = defaultdict(set)  # (workload, seed) -> input digests
        for row in load(path):
            if not row.get("correct", False):
                print(f"{label}: failed run {row.get('workload')} "
                      f"seed {row.get('seed')}: {row.get('failed')} of "
                      f"{row.get('attempted')} calls failed")
                bad += 1
                continue
            for name, m in row["metrics"].items():
                values[(row["workload"], name)].append(m["value"])
            for name, v in row.get("extra", {}).items():
                values[(row["workload"], "extra." + name)].append(v)
            if "inputs" in row:
                digests[(row["workload"], row["seed"])].add(row["inputs"])
        sides[label] = (values, digests)

    (va, da), (vb, db) = sides["A"], sides["B"]
    for key in sorted(set(da) & set(db)):
        if da[key] != db[key]:
            print(f"inputs differ for {key[0]} seed {key[1]}: "
                  f"{sorted(da[key])} vs {sorted(db[key])}")
            bad += 1

    print(f"{'workload':<13} {'metric':<27} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8}  verdict")
    failing = 0
    for workload, name in sorted(set(va) & set(vb)):
        a, b = va[(workload, name)], vb[(workload, name)]
        if name in spec:
            v = verdict(a, b, spec[name]["bound"], spec[name]["better"])
            failing += v in ("regressed", "unresolved")
        elif name in layer or name.startswith("extra."):
            v = "info"
        else:
            continue
        cols = []
        for vals in (a, b):
            q1, med, q3 = quartiles(vals)
            cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
        change = rel(quartiles(b)[1] - quartiles(a)[1], quartiles(a)[1]) * 100
        print(f"{workload:<13} {name:<27} {cols[0]:>30} {cols[1]:>30} "
              f"{change:>+7.1f}%  {v} (n={len(a)}/{len(b)})")
    sys.exit(1 if failing or bad else 0)


if __name__ == "__main__":
    main()
