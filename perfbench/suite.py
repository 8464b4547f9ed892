"""Run every workload on seeds 1..10, check outputs and print each end-to-end metric.

    python3 perfbench/suite.py [--out FILE]

Runs are sequential: workload by workload, seed by seed, each a full
``run.py`` run of ``run_seconds`` (from ``BENCHMARK.json``) with tracing
off, so exactly one CLI process is alive at any time.  The table gives, per
workload and metric, the median of the per-run medians with its quartiles,
the spread (quartile distance over median) and the failed share of units.
The suite file (default ``.perfbench/suite.json``) holds every run's full
result and is the input of ``compare.py``; both sides of a comparison use
the same seeds and run length.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import ROOT, quartiles, run, write_result
from workloads import WORKLOADS

SEEDS = range(1, 11)


def spread_row(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of a list of run medians."""
    q1, med, q3 = quartiles(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def print_table(suite: dict, out=sys.stdout) -> None:
    print(f"{'workload':<14}{'metric':<13}{'unit':<6}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>8}{'runs':>6}{'fail':>8}", file=out)
    for name, results in suite["runs"].items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        for metric in results[0]["end_to_end"]:
            values = [r["end_to_end"][metric]["median"] for r in results]
            med, q1, q3, spread = spread_row(values)
            unit = results[0]["end_to_end"][metric]["unit"]
            print(
                f"{name:<14}{metric:<13}{unit:<6}{med:>11.4f}{q1:>11.4f}{q3:>11.4f}{spread:>8.3f}"
                f"{len(values):>6}{failed:>4}/{attempted:<3}",
                file=out,
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "suite.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jacktorus" / "cli.py").is_file():
        print(f"no jacktorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    suite = {"seconds": seconds, "runs": {}}
    for name in WORKLOADS:
        suite["runs"][name] = []
        for seed in SEEDS:
            result = run(name, seed, seconds, False)
            write_result(result)
            suite["runs"][name].append(result)
            for problem in result["failures"]:
                print(f"FAILED {name} seed {seed}: {problem}", file=sys.stderr)
    suite["environment"] = suite["runs"][next(iter(WORKLOADS))][0]["environment"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(suite, indent=1) + "\n")
    print_table(suite)
    print(f"suite file: {args.out}")
    return 0 if all(r["failed"] == 0 for rs in suite["runs"].values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
