#!/usr/bin/env python3
"""Compare benchmark results against an earlier set, metric by metric.

Run from the repository root::

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the records that ``run.py --out FILE`` appends, normally
several untraced runs per workload, each with another seed.  For every
workload found in both files and every end-to-end metric of
``BENCHMARK.json`` it prints both medians, the change, the benchmark's
bound for that metric, each side's run-to-run spread (interquartile
range over median) and a verdict:

- ``unresolved``: a side has fewer than two runs, or either side's
  spread exceeds the bound and not every AFTER run is better than every
  BEFORE run (if every one is, ``better``);
- ``worse``: AFTER's median is worse than BEFORE's by more than the bound;
- ``better``: AFTER's median is better by more than the bound;
- ``within bound``: otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: str) -> dict:
    """Untraced records of a results file, grouped by workload."""
    groups = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    groups.setdefault(record["workload"], []).append(record)
    return groups


def spread(values: list) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(before: list, after: list, bound: float, lower_is_better: bool) -> str:
    if len(before) < 2 or len(after) < 2:
        return "unresolved"
    sign = 1.0 if lower_is_better else -1.0
    if any(spread(side) > bound for side in (before, after)):
        all_better = all(sign * a < sign * b for a in after for b in before)
        return "better" if all_better else "unresolved"
    change = sign * (statistics.median(after) / statistics.median(before) - 1.0)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = load(args.before), load(args.after)

    print(f"{'workload':14s} {'metric':12s} {'before':>10s} {'after':>10s} {'change':>8s} "
          f"{'bound':>6s} {'spread b/a':>13s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in before or workload not in after:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["end_to_end"].get(name) for r in before[workload]]
            a = [r["end_to_end"].get(name) for r in after[workload]]
            if None in b or None in a:
                print(f"{workload:14s} {name:12s} missing from some records")
                continue
            b_med, a_med = statistics.median(b), statistics.median(a)
            spreads = "/".join("-" if s is None else f"{s:.3f}" for s in (spread(b), spread(a)))
            print(f"{workload:14s} {name:12s} {b_med:10.4g} {a_med:10.4g} "
                  f"{a_med / b_med - 1.0:+8.1%} {metric['bound']:6.2f} {spreads:>13s}  "
                  f"{verdict(b, a, metric['bound'], metric['better'] == 'lower')} "
                  f"({len(b)}/{len(a)} runs, {metric['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
