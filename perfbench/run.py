"""Run one benchmark workload of the jacktorus CLI and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its ``src/``.  Every CLI invocation is a fresh
interpreter started through ``child.py``, so imports and the package's
``lru_cache``s start cold, as they do for a user.  One child runs at a time.

A run first starts a few interpreters that only import ``jacktorus.cli``
(set-up probes), then repeats the workload's unit while the median unit
time still fits in ``--seconds``.  With ``--trace 1`` it first runs one
traced unit, whose outputs must pass the same checks, and reports the
per-layer metrics; otherwise the end-to-end ones.  Each unit's outputs are
checked (see ``workloads.py``); a unit failing a check counts as failed.

The full result, with samples, quartiles and an environment block, goes to
``.perfbench/results/``; the last stdout line is the summary JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import accounted_s, layer_metrics, merge
from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    Output,
    Workload,
    absent_references,
    check_unit,
    load_references,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PROBES = 3  # set-up probes per run; setup_s is the median over these and every invocation


class Launcher:
    """Starts child interpreters strictly one after another and reaps each with its rusage."""

    def __init__(self, root: Path):
        src = str(root / "src")
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, args: list[str], cwd: Path, stdout: Path) -> tuple[int, int, float, float]:
        """(exit code, spawn stamp in monotonic ns, CPU seconds, peak RSS in MB)."""
        with open(stdout, "wb") as out:
            spawned_ns = time.monotonic_ns()
            proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=cwd, stdout=out, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, spawned_ns, cpu, usage.ru_maxrss / 1024


@dataclass
class Unit:
    """One repetition of a workload: its invocations, timings and check result."""

    outputs: list[Output] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    wall_ns: int = 0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    elapsed_s: float = 0.0
    complete: bool = True  # every invocation left a timing record
    traces: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def report_bytes(self) -> int:
        return sum(len(o.stdout) for o in self.outputs)


def _read_record(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def probe(launcher: Launcher, work: Path) -> tuple[float, dict | None]:
    """Set-up time of one interpreter that only imports jacktorus.cli."""
    work.mkdir(parents=True, exist_ok=True)
    record_path = work / "probe-record.json"
    record_path.unlink(missing_ok=True)
    rc, spawned_ns, _, _ = launcher.run([str(record_path), "--probe", "--"], work, work / "probe-stdout")
    record = _read_record(record_path)
    if rc != 0 or record is None:
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return (record["imported_ns"] - spawned_ns) / 1e9, record.get("environment")


def run_unit(
    launcher: Launcher, workload: Workload, seed: int, trace: bool, work: Path, refs: dict | None
) -> Unit:
    """Run the workload's invocations in a fresh working directory; check them against refs."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    unit = Unit()
    t0 = time.monotonic()
    for k, argv in enumerate(workload.invocations):
        record_path = work / f"record-{k}.json"
        stdout_path = work / f"stdout-{k}.json"
        flags = ["--trace"] if trace else []
        rc, spawned_ns, cpu, rss = launcher.run(
            [str(record_path), *flags, "--", "--seed", str(seed), *argv], work, stdout_path
        )
        store = work / workload.store if workload.store else None
        unit.outputs.append(
            Output(
                rc=rc,
                stdout=stdout_path.read_bytes(),
                store=store.read_bytes() if store is not None and store.exists() else None,
            )
        )
        unit.cpu_s += cpu
        unit.peak_rss_mb = max(unit.peak_rss_mb, rss)
        record = _read_record(record_path)
        if record is None or "wall_ns" not in record:
            unit.complete = False
            continue
        unit.setup_s.append((record["imported_ns"] - spawned_ns) / 1e9)
        unit.wall_ns += record["wall_ns"]
        if trace and "trace" in record:
            unit.traces.append(record["trace"])
    unit.elapsed_s = time.monotonic() - t0
    if refs is not None:
        unit.problems = check_unit(workload, unit.outputs, seed, refs)
    if not unit.complete:
        unit.problems.append("an invocation left no timing record")
    if trace and len(unit.traces) != len(workload.invocations):
        unit.problems.append("an invocation left no trace")
    return unit


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; all equal for one value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(values: list[float], unit: str) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit, "samples": values}


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int, probed: dict | None) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": (probed or {}).get("numpy"),
        "blas": (probed or {}).get("blas"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": affinity or os.cpu_count(),
        "cpu_model": _cpu_model(),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def load_metric_units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full result (see the module docstring)."""
    workload = WORKLOADS[name]
    refs = load_references()
    e2e_units, layer_units = load_metric_units(ROOT)
    launcher = Launcher(ROOT)
    work = ROOT / ".perfbench" / "work"
    start = time.monotonic()

    setups = []
    probed = None
    for _ in range(PROBES):
        setup, env = probe(launcher, work)
        setups.append(setup)
        probed = probed or env

    traced = run_unit(launcher, workload, seed, True, work, refs) if trace else None
    units: list[Unit] = []
    while True:
        units.append(run_unit(launcher, workload, seed, False, work, refs))
        estimate = statistics.median(u.elapsed_s for u in units)
        if time.monotonic() - start + estimate > seconds:
            break

    # Only units that pass their checks are timed; if none does, the run is
    # reported incorrect and its complete units are timed to describe it.
    timed = [u for u in units if not u.problems] or [u for u in units if u.complete]
    if not timed:
        raise RuntimeError("no unit completed: " + "; ".join(units[0].problems))
    attempted = units + ([traced] if traced else [])
    failed = [u for u in attempted if u.problems]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(ROOT, seed, probed),
        "attempted": len(attempted),
        "failed": len(failed),
        "fail_rate": len(failed) / len(attempted),
        "failures": [p for u in failed for p in u.problems],
        "references_absent": absent_references(seed),
        "end_to_end": {
            "wall_s": summarize([u.wall_ns / 1e9 for u in timed], e2e_units["wall_s"]),
            "setup_s": summarize(setups + [s for u in attempted for s in u.setup_s], e2e_units["setup_s"]),
            "cpu_s": summarize([u.cpu_s for u in timed], e2e_units["cpu_s"]),
            "peak_rss_mb": summarize([u.peak_rss_mb for u in timed], e2e_units["peak_rss_mb"]),
        },
    }
    if traced is not None:
        untraced_wall = result["end_to_end"]["wall_s"]["median"]
        if traced.traces:
            values = layer_metrics(merge(traced.traces), traced.wall_ns, traced.report_bytes, untraced_wall)
        else:
            values = {}
        result["per_layer"] = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in layer_units.items()}
        result["layer_extra"] = {k: v for k, v in values.items() if k not in layer_units}
        result["accounted_s"] = accounted_s(values) if values else None
    return result


def summary_line(result: dict) -> dict:
    if result["trace"]:
        metrics = result["per_layer"]
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]} for k, v in result["end_to_end"].items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def write_result(result: dict) -> Path:
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jacktorus" / "cli.py").is_file():
        print(f"no jacktorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    result = run(args.workload, args.seed, seconds, bool(args.trace))
    path = write_result(result)
    for problem in result["failures"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"result file: {path}", file=sys.stderr)
    print(json.dumps(summary_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
