#!/usr/bin/env python3
"""Compare two sets of benchmark results under the benchmark's bounds.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are directories (or single files) of result-*.json records
written by perfbench/run.py into .bench_out/; run the parent commit and
the change with the same seeds and --seconds, then copy each side's
.bench_out/ away. Only untraced runs (--trace 0) are compared.

For every end-to-end metric and workload the verdict is one of:
  better      the change's median beats the parent's by more than the
              parent's own spread (distance between its quartiles), and
              the change wins at least 9 in 10 seed-matched pairs;
  worse       the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unchanged   neither, and the parent's spread is within the bound;
  unresolved  neither, but the parent's spread is wider than the bound
              (and not every change run beats every parent run).

Results from different hosts (core count, AVX2 build and dispatch,
compiler, build type, address-space randomization) are refused: exit status 2. The exit status is 1
when any pair is worse, else 0.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ["nproc", "avx2_compiled", "avx2_active", "compiler",
             "build_type", "aslr"]


def load(path):
    files = ([path] if os.path.isfile(path)
             else sorted(glob.glob(os.path.join(path, "result-*.json"))))
    runs = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            runs.append(r)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound):
    """base/head: {seed: value}. Returns (verdict, change, spread)."""
    bq1, bmed, bq3 = quartiles(list(base.values()))
    hmed = statistics.median(head.values())
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (hmed - bmed) / bmed if bmed else 0.0
    spread = (bq3 - bq1) / bmed if bmed else 0.0
    pairs = [s for s in base if s in head]
    wins = sum(1 for s in pairs if sign * (head[s] - base[s]) > 0)
    if change > spread and pairs and wins >= 0.9 * len(pairs):
        return "better", change, spread
    if change < -bound:
        return "worse", change, spread
    if spread > bound:
        everyone = all(sign * (h - b) > 0 for h in head.values()
                       for b in base.values())
        return ("better" if everyone else "unresolved"), change, spread
    return "unchanged", change, spread


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, head = load(argv[1]), load(argv[2])
    if not base or not head:
        print("compare: no untraced result-*.json records found",
              file=sys.stderr)
        return 2
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS},
                        sort_keys=True) for r in base + head}
    if len(hosts) != 1:
        print("compare: refusing to compare results from different "
              "hosts:\n  " + "\n  ".join(sorted(hosts)), file=sys.stderr)
        return 2
    worst = 0
    print("%-16s %-20s %-11s %9s %9s %9s" %
          ("workload", "metric", "verdict", "change", "spread", "bound"))
    for w in [x["name"] for x in bench["workloads"]]:
        for m in bench["end_to_end"]:
            b = {r["seed"]: r["end_to_end"][m["name"]]["value"]
                 for r in base if r["workload"] == w}
            h = {r["seed"]: r["end_to_end"][m["name"]]["value"]
                 for r in head if r["workload"] == w}
            if not b or not h:
                continue
            v, change, spread = verdict(b, h, m["better"], m["bound"])
            if v == "worse":
                worst = 1
            print("%-16s %-20s %-11s %+8.2f%% %8.2f%% %8.2f%%" %
                  (w, m["name"], v, 100 * change, 100 * spread,
                   100 * m["bound"]))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
