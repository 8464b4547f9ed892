"""Compare two suite files, one row per workload and end-to-end metric.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Runs are paired by seed.  Each row gives both sides' median and quartiles
of the per-run medians, the ratio change/parent, the paired wins of the
change and a verdict:

- ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  quartile distance;
- ``unresolved``: the parent's quartile distance is wider than the metric's
  bound, and not every run of the change reads better than every parent run;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json``;
- ``same``: none of the above, so no gain is claimed and no regression found;
- ``failing``: the change fails more units than the parent, whatever its
  timings; failed units are listed per side.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT
from suite import spread_row


def verdict(
    parent: list[float],
    change: list[float],
    pairs: list[tuple[float, float]],
    bound: float,
    lower: bool,
    failed: tuple[int, int] = (0, 0),
) -> str:
    if failed[1] > failed[0]:
        return "failing"
    sign = 1.0 if lower else -1.0  # gain > 0 when the change is better
    p_med, p_q1, p_q3, p_spread = spread_row(parent)
    c_med = spread_row(change)[0]
    gain = sign * (p_med - c_med)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        return "better"
    if p_spread > bound and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    if -gain > bound * p_med:
        return "worse"
    return "same"


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    for metric_spec in spec["end_to_end"]:
        metric = metric_spec["name"]
        lower = metric_spec["better"] == "lower"
        for name in parent["runs"]:
            if name not in change["runs"]:
                continue
            p_runs = {r["seed"]: r for r in parent["runs"][name]}
            c_runs = {r["seed"]: r for r in change["runs"][name]}
            p_vals = [r["end_to_end"][metric]["median"] for r in p_runs.values()]
            c_vals = [r["end_to_end"][metric]["median"] for r in c_runs.values()]
            pairs = [
                (p_runs[s]["end_to_end"][metric]["median"], c_runs[s]["end_to_end"][metric]["median"])
                for s in p_runs
                if s in c_runs
            ]
            sign = 1.0 if lower else -1.0
            p_med, p_q1, p_q3, _ = spread_row(p_vals)
            c_med, c_q1, c_q3, _ = spread_row(c_vals)
            failed = (sum(r["failed"] for r in p_runs.values()), sum(r["failed"] for r in c_runs.values()))
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "unit": metric_spec["unit"],
                    "parent": (p_med, p_q1, p_q3),
                    "change": (c_med, c_q1, c_q3),
                    "ratio": c_med / p_med if p_med else float("nan"),
                    "wins": sum(1 for p, c in pairs if sign * (p - c) > 0),
                    "pairs": len(pairs),
                    "verdict": verdict(p_vals, c_vals, pairs, metric_spec["bound"], lower, failed),
                    "failed": failed,
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.parent.read_text()), json.loads(args.change.read_text()), spec)
    print("ratio = change median / parent median; quartiles are over per-run medians")
    print(
        f"{'workload':<14}{'metric':<13}{'unit':<5}{'parent med [q1, q3]':>30}{'change med [q1, q3]':>30}"
        f"{'ratio':>8}{'wins':>7}  {'verdict':<11}failed p/c"
    )
    for r in rows:
        p = "{:.4f} [{:.4f}, {:.4f}]".format(*r["parent"])
        c = "{:.4f} [{:.4f}, {:.4f}]".format(*r["change"])
        print(
            f"{r['workload']:<14}{r['metric']:<13}{r['unit']:<5}{p:>30}{c:>30}"
            f"{r['ratio']:>8.3f}{r['wins']:>4}/{r['pairs']:<2}  {r['verdict']:<11}{r['failed'][0]}/{r['failed'][1]}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
