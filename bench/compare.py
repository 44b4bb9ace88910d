#!/usr/bin/env python3
"""Compare two result files written by ``collect.py``.

    python3 bench/compare.py OLD.json NEW.json
    python3 bench/compare.py bench/results/baseline.json \\
        bench/results/baseline.json --old-set 1 --new-set 2     # A/A

One row per (workload, end-to-end metric): both medians with their
quartiles and spread (quartile distance as a share of the median), the
ratio NEW/OLD with its base, and a verdict against the bound
(``workloads.py``, mirrored in ``BENCHMARK.json``):

``ok``          NEW's median is not worse than OLD's by more than the bound
``worse``       it is
``unresolved``  the quartile distance of either side is wider than the
                bound, so the runs cannot tell — unless every NEW run beats
                every OLD run, which is ``ok`` however wide the spread

A larger share of failed tuples in NEW is flagged too.  Exit code 1 when
any row is ``worse`` or NEW fails more; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import List, NamedTuple, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import END_TO_END, WORKLOADS  # noqa: E402


class Side(NamedTuple):
    median: float
    q1: float
    q3: float
    values: List[float]

    @property
    def spread(self) -> float:
        return (self.q3 - self.q1) / self.median if self.median else 0.0


def side(values: Sequence[float]) -> Side:
    values = list(values)
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return Side(statistics.median(values), q1, q3, values)


def worse_by(old: float, new: float, better: str) -> float:
    """Share of OLD's median by which NEW is worse (negative: better)."""
    change = (new - old) / old
    return change if better == "lower" else -change


def verdict(old: Side, new: Side, better: str, bound: float) -> str:
    if better == "lower":
        dominates = max(new.values) < min(old.values)
    else:
        dominates = min(new.values) > max(old.values)
    if dominates:
        return "ok"
    if old.spread > bound or new.spread > bound:
        return "unresolved"
    return "worse" if worse_by(old.median, new.median, better) > bound \
        else "ok"


def select(results: dict, chosen: Optional[int]) -> List[dict]:
    return [run for run in results["runs"]
            if not run.get("trace")
            and (chosen is None or run.get("set") == chosen)]


def compare(old_runs: List[dict], new_runs: List[dict]) -> List[dict]:
    limit = {metric.name: metric.bound for metric in END_TO_END}
    rows = []
    for workload in WORKLOADS:
        old_w = [r for r in old_runs if r["workload"] == workload]
        new_w = [r for r in new_runs if r["workload"] == workload]
        if not old_w or not new_w:
            continue
        for metric in END_TO_END:
            old = side(r["metrics"][metric.name] for r in old_w)
            new = side(r["metrics"][metric.name] for r in new_w)
            rows.append({
                "workload": workload, "metric": metric.name,
                "unit": metric.unit, "old": old, "new": new,
                "ratio": new.median / old.median,
                "worse_by": worse_by(old.median, new.median, metric.better),
                "bound": limit[metric.name],
                "verdict": verdict(old, new, metric.better,
                                   limit[metric.name]),
            })
        old_failed = sum(r["failed"] for r in old_w) \
            / max(1, sum(r["attempted"] for r in old_w))
        new_failed = sum(r["failed"] for r in new_w) \
            / max(1, sum(r["attempted"] for r in new_w))
        if new_failed > old_failed:
            rows.append({"workload": workload, "metric": "failed_share",
                         "old_failed": old_failed, "new_failed": new_failed,
                         "verdict": "worse"})
    return rows


def render(rows: List[dict]) -> str:
    lines = ["%-13s %-15s %32s %32s %17s %6s  %s"
             % ("workload", "metric", "OLD median [q1, q3] spread",
                "NEW median [q1, q3] spread", "NEW/OLD (base)", "bound",
                "verdict")]
    for row in rows:
        if row["metric"] == "failed_share":
            lines.append("%-13s %-15s %32.2e %32.2e %17s %6s  %s"
                         % (row["workload"], "failed_share",
                            row["old_failed"], row["new_failed"], "", "",
                            "worse: more tuples failed"))
            continue
        old, new = row["old"], row["new"]
        lines.append(
            "%-13s %-15s %10.5g [%6.5g, %6.5g] %4.1f%% "
            "%10.5g [%6.5g, %6.5g] %4.1f%% %6.3f (%8.5g) %5.0f%%  %s"
            % (row["workload"], row["metric"], old.median, old.q1, old.q3,
               100 * old.spread, new.median, new.q1, new.q3,
               100 * new.spread, row["ratio"], old.median,
               100 * row["bound"], row["verdict"]))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--old-set", type=int, default=None)
    parser.add_argument("--new-set", type=int, default=None)
    args = parser.parse_args(argv)
    with open(args.old) as handle:
        old = select(json.load(handle), args.old_set)
    with open(args.new) as handle:
        new = select(json.load(handle), args.new_set)
    rows = compare(old, new)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(row["verdict"].startswith("worse") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
