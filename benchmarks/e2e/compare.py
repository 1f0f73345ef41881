#!/usr/bin/env python3
"""Compare two sets of benchmark runs: parent (A) against change (B).

    python3 benchmarks/e2e/compare.py parent.jsonl change.jsonl

Each file holds the lines ``run.py --out`` appends, at least ten runs
per workload on each side; README.md shows the loop that interleaves
the two commits, alternating which runs first.  Runs are paired in file
order per workload.  Every (workload, metric) row prints both sides'
median and quartiles, the pairs the change won, and one verdict:

* ``improved`` -- the change wins at least 9/10 of the pairs (ties
  count for neither side), its median is better by more than the
  parent's interquartile range, and it failed no more runs;
* ``unresolved`` -- either side's spread (IQR over median) is wider
  than the metric's bound, and not every change run beats every parent
  run;
* ``no worse`` / ``regressed`` -- the change's median against the
  parent's, within or beyond the bound from ``BENCHMARK.json``.

Per-layer metrics have no bound, so they are only ever ``improved`` or
``-``.  Each workload also gets a ``failed`` row, the summed ``failed``
counts of its runs, with a bound of zero: it reads ``regressed`` when
the change failed more runs than the parent.  The exit code is 1 when
any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_runs(path: str) -> dict:
    """``{workload: [result, ...]}`` in file order."""
    runs: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                entry = json.loads(line)
                runs.setdefault(entry["workload"], []).append(
                    entry["result"])
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cell(values: list) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(parent: list, change: list, better: str,
            bound: float | None, failed_more: bool) -> tuple[int, str]:
    """``(pairs the change won, verdict)`` for one metric's runs."""
    def beats(a, b):
        return a > b if better == "higher" else a < b

    wins = sum(1 for a, b in zip(parent, change) if beats(b, a))
    pairs = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if (not failed_more and pairs and wins >= WIN_SHARE * pairs
            and beats(cm, pm) and abs(cm - pm) > p3 - p1):
        return wins, "improved"
    if bound is None or pm == 0:
        return wins, "-"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        dominates = all(beats(b, a) for a in parent for b in change)
        return wins, "no worse" if dominates else "unresolved"
    worse = (pm - cm) / abs(pm) if better == "higher" else (cm - pm) / abs(pm)
    return wins, "regressed" if worse > bound else "no worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="runs of the parent commit (A)")
    parser.add_argument("change", help="runs of the change (B)")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = {metric["name"]: metric
                for metric in spec["end_to_end"] + spec["per_layer"]}
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)

    regressed = False
    print(f"{'workload':15s} {'metric':30s} {'unit':6s} "
          f"{'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
          f" {'wins':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            continue
        parent_failed = sum(run["failed"] for run in parent)
        change_failed = sum(run["failed"] for run in change)
        failed_more = change_failed > parent_failed
        names = [name for name in declared
                 if name in parent[0]["metrics"]
                 and name in change[0]["metrics"]]
        for name in names:
            metric = declared[name]
            a = [run["metrics"][name]["value"] for run in parent]
            b = [run["metrics"][name]["value"] for run in change]
            wins, result = verdict(a, b, metric["better"],
                                   metric.get("bound"), failed_more)
            regressed = regressed or result == "regressed"
            print(f"{workload:15s} {name:30s} {metric['unit']:6s} "
                  f"{_cell(a):>32s} {_cell(b):>32s} "
                  f"{wins:>3d}/{min(len(a), len(b)):<2d}  {result}")
        regressed = regressed or failed_more
        print(f"{workload:15s} {'failed':30s} {'count':6s} "
              f"{parent_failed:>32d} {change_failed:>32d} {'':>6s}  "
              f"{'regressed' if failed_more else 'no worse'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
