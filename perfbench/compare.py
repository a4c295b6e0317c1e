#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON files ``e2e.py --out`` writes, one or more
runs each.  Runs are paired in file-name order.  For every workload and
end-to-end metric of the untraced runs, one row gives each side's median
and quartiles, the share of pairs the change wins (ties count for
neither), and a verdict, judged in this order:

``unresolved``
    the parent's own spread (quartile distance over median) is wider than
    the metric's bound, and not every change run beats every parent run;
``improved``
    the change wins at least 9 of 10 pairs and its median is better than
    the parent's by more than the parent's quartile distance;
``regressed``
    the change's median is worse than the parent's by more than the bound
    ``BENCHMARK.json`` fixes for the metric;
``within-bound``
    anything else.

A ``failed_frac`` row per workload compares failed over attempted points:
any increase regresses.  Store digests of runs with the same seed and
size must be equal on both sides.  Exit 1 when any row regressed, is
unresolved, or a digest differs.  Standard library only.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

WIN_SHARE = 0.9


def load(directory: str) -> List[dict]:
    """Every workload result in ``directory``, in file-name order."""
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            results += json.load(fh)["results"]
    if not results:
        raise SystemExit(f"error: no result files in {directory}")
    return results


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            higher_better: bool) -> Tuple[str, float]:
    """The row's verdict and the change's share of pair wins."""
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    p1, pm, p3 = quartiles(parent)
    _c1, cm, _c3 = quartiles(change)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", wins
    if wins >= WIN_SHARE and sign * (cm - pm) > (p3 - p1):
        return "improved", wins
    if -sign * (cm - pm) > bound * abs(pm):
        return "regressed", wins
    return "within-bound", wins


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sides = [load(d) for d in argv]
    untraced = [defaultdict(list), defaultdict(list)]
    digests: Dict[tuple, set] = defaultdict(set)
    for side, results in zip(untraced, sides):
        for r in results:
            digests[(r["workload"], r["seed"], r["instructions"])].add(
                r["digest"])
            if not r["trace"]:
                side[r["workload"]].append(r)

    bad = 0
    print(f"{'workload':18s} {'metric':18s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'wins':>5s}  verdict")
    for workload in sorted(set(untraced[0]) & set(untraced[1])):
        parent, change = untraced[0][workload], untraced[1][workload]
        for name, spec in declared.items():
            pv = [r["metrics"][name]["value"] for r in parent]
            cv = [r["metrics"][name]["value"] for r in change]
            row, wins = verdict(pv, cv, spec["bound"],
                                spec["better"] == "higher")
            bad += row in ("regressed", "unresolved")
            fmt = "/".join(f"{v:.4g}" for v in quartiles(pv))
            cfmt = "/".join(f"{v:.4g}" for v in quartiles(cv))
            print(f"{workload:18s} {name:18s} {fmt:>30s} {cfmt:>30s} "
                  f"{wins:5.2f}  {row}")
        pf, cf = (sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in (parent, change))
        row = ("regressed" if cf > pf else
               "improved" if cf < pf else "within-bound")
        bad += row == "regressed"
        print(f"{workload:18s} {'failed_frac':18s} {pf:>30.4g} {cf:>30.4g} "
              f"{'':5s}  {row}")
    for (workload, seed, n), found in sorted(digests.items()):
        if len(found) > 1:
            bad += 1
            print(f"{workload}: seed {seed}, {n} instr/point: store digests "
                  f"differ: {sorted(found)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
