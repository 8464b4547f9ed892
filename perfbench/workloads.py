"""The four benchmark workloads and the output checks that decide a failed unit.

Every workload is a closed loop: one client, one CLI process at a time.  A
unit is the list of invocations one measurement repeats; only
``coeffs-store`` has two (solve and save, then reload, extend and save).

Exact outputs are compared through sha256 digests committed in
``references.json``.  The report echoes ``--seed`` in its config (and the
kernel report once more), so the digest covers an exact view of the report
with the seed echo and the float fields removed; the echo is compared with
the seed directly.  That view is seed-independent and checked on every
seed, as are the store bytes.  The whole stdout digest and the kernel's
float references hold only at the default seed; on another seed they are
listed as absent.  Float fields pass the CLI's own gates on every seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 7
PSD_GATE = -1e-9  # smallest admissible kernel eigenvalue
RESIDUAL_GATE = 1e-10  # Hermiticity and covariance residuals
LOOP_GATE = 1e-6  # loop defect of the transported frame
FLOAT_TOL = 1e-9  # absolute agreement with the committed float references

REFERENCES = Path(__file__).with_name("references.json")

KERNEL_FLOATS = ("min_eigenvalues", "hermiticity_residual", "covariance_residual", "worst")
DIFFSYS_FLOATS = ("loop_defect", "transported")


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[tuple[str, ...], ...]
    store: str | None = None  # relative store path written by every invocation


WORKLOADS = {
    w.name: w
    for w in (
        # torusform.pair dominates; nothing of kernels, _accel or diffsystem runs
        Workload("gram-exact", (("--shape", "3,1", "--kappa", "1/4", "gram", "--max-degree", "3"),)),
        # float materialization plus the _accel phase-sum / eigenvalue scan
        Workload(
            "kernel-scan",
            (("--shape", "3,2", "--kappa", "1/5", "kernel", "--max-order", "5", "--samples", "200"),),
        ),
        # RK4 transport plus the exact connection residuals; no coefficient store
        Workload(
            "transport",
            (("--shape", "3,1", "--kappa", "1/4", "diffsys", "--points", "40", "--loop-steps", "20000"),),
        ),
        # write side of the store: solve, save, reload, extend, save again
        Workload(
            "coeffs-store",
            (
                ("--shape", "3,1,1", "--kappa", "1/6", "coeffs", "--grade", "6", "--store", "store.json"),
                ("--shape", "3,1,1", "--kappa", "1/6", "coeffs", "--grade", "7", "--store", "store.json"),
            ),
            store="store.json",
        ),
    )
}


@dataclass
class Output:
    """What one invocation left behind."""

    rc: int
    stdout: bytes
    store: bytes | None = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(doc) -> bytes:
    return json.dumps(doc, indent=1, sort_keys=True).encode()


def exact_view(report: dict) -> dict:
    """The report without its seed echo and without float fields."""
    view = copy.deepcopy(report)
    del view["config"]["seed"]
    results = view["results"]
    if report["command"] == "kernel":
        del results["report"]["seed"]
        for key in KERNEL_FLOATS:
            del results["report"][key]
    elif report["command"] == "diffsys":
        for key in DIFFSYS_FLOATS:
            results.pop(key, None)
    return view


def float_fields(report: dict) -> dict:
    results = report["results"]
    if report["command"] == "kernel":
        return {key: results["report"][key] for key in KERNEL_FLOATS}
    if report["command"] == "diffsys":
        return {key: results[key] for key in DIFFSYS_FLOATS}
    return {}


def seed_echoes(report: dict) -> list:
    echoes = [report["config"]["seed"]]
    if report["command"] == "kernel":
        echoes.append(report["results"]["report"]["seed"])
    return echoes


def gate_problems(report: dict) -> list[str]:
    """The CLI's own acceptance gates on float fields; NaN fails every gate."""
    problems = []
    if report["command"] == "kernel":
        rep = report["results"]["report"]
        eigs = [*rep["min_eigenvalues"].values(), rep["worst"]["min_eigenvalue"]]
        if not all(e >= PSD_GATE for e in eigs):
            problems.append(f"kernel eigenvalue {min(eigs)!r} below the PSD gate {PSD_GATE}")
        for key in ("hermiticity_residual", "covariance_residual"):
            if not rep[key] < RESIDUAL_GATE:
                problems.append(f"{key} {rep[key]!r} not below {RESIDUAL_GATE}")
    elif report["command"] == "diffsys":
        if not report["results"]["loop_defect"] < LOOP_GATE:
            problems.append(f"loop_defect {report['results']['loop_defect']!r} not below {LOOP_GATE}")
    return problems


def max_abs_diff(a, b) -> float:
    """Largest entrywise distance of two nested float structures; inf if shapes differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((max_abs_diff(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        d = abs(a - b)
        return d if d == d else math.inf
    return math.inf


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def absent_references(seed: int) -> list[str]:
    """Seed-dependent references that cannot be applied at this seed."""
    return [] if seed == DEFAULT_SEED else ["stdout_sha256", "floats (seed-dependent)"]


def check_unit(workload: Workload, outputs: list[Output], seed: int, refs: dict) -> list[str]:
    """Every reason the unit's outputs are wrong; empty when they are correct."""
    expected = refs["workloads"][workload.name]
    if len(outputs) != len(expected):
        return [f"{len(outputs)} invocations, expected {len(expected)}"]
    problems = []
    for k, (out, ref) in enumerate(zip(outputs, expected), start=1):
        tag = f"invocation {k}"
        if out.rc != 0:
            problems.append(f"{tag}: exit code {out.rc}")
            continue
        try:
            report = json.loads(out.stdout)
            view = exact_view(report)
            floats = float_fields(report)
            echoes = seed_echoes(report)
            gates = gate_problems(report)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"{tag}: malformed report ({type(exc).__name__}: {exc})")
            continue
        problems += [f"{tag}: {p}" for p in gates]
        if any(e != seed for e in echoes):
            problems.append(f"{tag}: seed echo {echoes} differs from {seed}")
        if sha256(_canonical(view)) != ref["view_sha256"]:
            problems.append(f"{tag}: exact report fields differ from the reference")
        if "store_sha256" in ref and (out.store is None or sha256(out.store) != ref["store_sha256"]):
            problems.append(f"{tag}: store bytes differ from the reference")
        if seed == DEFAULT_SEED and "stdout_sha256" in ref and sha256(out.stdout) != ref["stdout_sha256"]:
            problems.append(f"{tag}: stdout bytes differ from the reference")
        if "floats" in ref and (ref["floats_seed_independent"] or seed == DEFAULT_SEED):
            diff = max_abs_diff(floats, ref["floats"])
            if not diff <= FLOAT_TOL:
                problems.append(f"{tag}: float fields off the reference by {diff!r} > {FLOAT_TOL}")
    return problems


def make_reference(workload: Workload, outputs: list[Output]) -> list[dict]:
    """References of one unit run at the default seed (see make_references.py)."""
    refs = []
    for out in outputs:
        report = json.loads(out.stdout)
        ref = {"view_sha256": sha256(_canonical(exact_view(report)))}
        if report["command"] in ("gram", "coeffs"):
            ref["stdout_sha256"] = sha256(out.stdout)
        if out.store is not None:
            ref["store_sha256"] = sha256(out.store)
        floats = float_fields(report)
        if floats:
            ref["floats"] = floats
            # the loop of diffsys uses fixed waypoints; kernel samples come from the seed
            ref["floats_seed_independent"] = report["command"] == "diffsys"
        refs.append(ref)
    return refs
