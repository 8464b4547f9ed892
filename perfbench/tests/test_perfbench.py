"""Tests of the benchmark itself: output checks, metric names, tracing, process discipline.

    python3 -m pytest -q perfbench/tests

They start real CLI processes for three workloads (about 25 s in all).
"""

import copy
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, check_unit, gate_problems, load_references  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _unit(name, tmp_path, seed=DEFAULT_SEED):
    launcher = runner.Launcher(ROOT)
    return runner.run_unit(launcher, WORKLOADS[name], seed, False, tmp_path / name, None)


@pytest.fixture(scope="module")
def refs():
    return load_references()


@pytest.fixture(scope="module")
def store_unit(tmp_path_factory):
    return _unit("coeffs-store", tmp_path_factory.mktemp("store"))


@pytest.fixture(scope="module")
def transport_unit(tmp_path_factory):
    return _unit("transport", tmp_path_factory.mktemp("transport"))


# -- metric names ------------------------------------------------------------


def test_every_name_and_unit_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tracer_names_are_declared_and_well_formed():
    raw = {
        "self_ns": {"torusform.pair": 5, "coeffs.solve_grade.g3": 7, "trace.hooks": 1},
        "total_ns": {"torusform.gram": 9},
        "counts": {"torusform.pair.calls": 2, "torusform.term_pairs": 4},
        "covered_ns": 13,
    }
    values = tracer.layer_metrics(raw, 20, 100, 1e-8)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert all(NAME.fullmatch(n) for n in values)
    assert set(values) <= declared | {"torusform.pair.calls"}
    assert tracer.accounted_s(values) == pytest.approx(values["trace.wall_s"], abs=1e-12)


# -- output checks -----------------------------------------------------------


def test_reference_outputs_pass(store_unit, transport_unit, refs):
    assert check_unit(WORKLOADS["coeffs-store"], store_unit.outputs, DEFAULT_SEED, refs) == []
    assert check_unit(WORKLOADS["transport"], transport_unit.outputs, DEFAULT_SEED, refs) == []


def test_tampered_store_bytes_fail(store_unit, refs):
    outputs = copy.deepcopy(store_unit.outputs)
    store = bytearray(outputs[1].store)
    digit = re.compile(rb"[0-9]").search(store, store.index(b'"matrix"')).start()
    store[digit] = ord("1") if store[digit] != ord("1") else ord("2")
    outputs[1].store = bytes(store)
    problems = check_unit(WORKLOADS["coeffs-store"], outputs, DEFAULT_SEED, refs)
    assert problems == ["invocation 2: store bytes differ from the reference"]


def test_tampered_report_fails_on_every_seed(store_unit, refs):
    outputs = copy.deepcopy(store_unit.outputs)
    report = json.loads(outputs[0].stdout)
    report["results"]["canonical_per_grade"]["6"] += 1
    for seed in (DEFAULT_SEED, 3):
        report["config"]["seed"] = seed
        outputs[0].stdout = json.dumps(report, indent=1, sort_keys=True).encode()
        problems = check_unit(WORKLOADS["coeffs-store"], outputs, seed, refs)
        assert "invocation 1: exact report fields differ from the reference" in problems


def test_nonzero_exit_and_garbage_fail(store_unit, refs):
    outputs = copy.deepcopy(store_unit.outputs)
    outputs[0].rc = 1
    outputs[1].stdout = b"not json"
    problems = check_unit(WORKLOADS["coeffs-store"], outputs, DEFAULT_SEED, refs)
    assert problems[0] == "invocation 1: exit code 1"
    assert problems[1].startswith("invocation 2: malformed report")


def _with_transport(unit, seed, **fields):
    out = copy.deepcopy(unit.outputs[0])
    report = json.loads(out.stdout)
    report["config"]["seed"] = seed
    report["results"].update(fields)
    out.stdout = json.dumps(report, indent=1, sort_keys=True).encode()
    return [out]


def test_loop_defect_just_outside_gate_fails(transport_unit, refs):
    for seed in (DEFAULT_SEED, 11):
        outputs = _with_transport(transport_unit, seed, loop_defect=workloads.LOOP_GATE)
        problems = check_unit(WORKLOADS["transport"], outputs, seed, refs)
        assert any("not below" in p for p in problems), problems


def test_transported_off_reference_fails(transport_unit, refs):
    report = json.loads(transport_unit.outputs[0].stdout)
    frame = report["results"]["transported"]
    frame[0][0][0] += 2 * workloads.FLOAT_TOL
    problems = check_unit(WORKLOADS["transport"], _with_transport(transport_unit, 5, transported=frame), 5, refs)
    assert len(problems) == 1 and "float fields off the reference" in problems[0]


def _kernel_report(min_eig=0.2, herm=1e-16, cov=1e-15):
    rep = {
        "min_eigenvalues": {"1": 0.5, "2": min_eig},
        "hermiticity_residual": herm,
        "covariance_residual": cov,
        "worst": {"min_eigenvalue": min_eig, "hermiticity": herm, "covariance": cov},
    }
    return {"command": "kernel", "config": {"seed": 1}, "results": {"report": rep}}


@pytest.mark.parametrize(
    "fields",
    [
        {"min_eig": -1e-9 * (1 + 1e-6)},
        {"min_eig": float("nan")},
        {"herm": 1e-10},
        {"cov": 1.0000001e-10},
    ],
)
def test_kernel_gates_just_outside_fail(fields):
    assert len(gate_problems(_kernel_report(**fields))) == 1


def test_kernel_gates_at_edge_pass():
    assert gate_problems(_kernel_report(min_eig=-1e-9, herm=0.99e-10, cov=0.99e-10)) == []


# -- processes and tracing -------------------------------------------------------


def test_traced_run_one_child_at_a_time(monkeypatch):
    spawned = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        for pid in spawned:  # every earlier child must be gone before the next starts
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        proc = real_popen(*args, **kwargs)
        spawned.append(proc.pid)
        return proc

    monkeypatch.setattr(runner.subprocess, "Popen", popen)
    result = runner.run("coeffs-store", DEFAULT_SEED, 0.1, True)
    assert len(spawned) == runner.PROBES + 2 + 2
    assert result["failed"] == 0, result["failures"]
    layers = result["per_layer"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["coeffs.solve_grade.g7.s"]["value"] > 0
    assert layers["coeffs.store_bytes"]["value"] > 0
    assert layers["coeffs.load.s"]["value"] > 0
    assert result["accounted_s"] == pytest.approx(layers["trace.wall_s"]["value"], rel=1e-9)
    line = runner.summary_line(result)
    assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0


def test_failed_units_are_not_timed(monkeypatch):
    fast_wrong = runner.Unit(wall_ns=10**6, cpu_s=0.001, elapsed_s=0.0, problems=["tampered"])
    units = iter([fast_wrong] + [runner.Unit(wall_ns=10**9, cpu_s=1.0, elapsed_s=0.0) for _ in range(3)])
    clock = iter(range(100))
    monkeypatch.setattr(runner, "probe", lambda launcher, work: (0.1, None))
    monkeypatch.setattr(runner, "run_unit", lambda *args: next(units))
    monkeypatch.setattr(runner.time, "monotonic", lambda: next(clock))
    result = runner.run("gram-exact", DEFAULT_SEED, 3.5, False)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["end_to_end"]["wall_s"]["samples"] == [1.0, 1.0, 1.0]
    assert result["end_to_end"]["cpu_s"]["samples"] == [1.0, 1.0, 1.0]


def _module_state():
    import jacktorus

    mods = {n: m for n, m in sys.modules.items() if n == "jacktorus" or n.startswith("jacktorus.")}
    state = {}
    for name, mod in mods.items():
        for attr, val in vars(mod).items():
            state[(name, attr)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    state[(name, attr, cattr)] = cval
    assert jacktorus
    return state


def test_tracer_restores_every_attribute_and_keeps_output():
    from jacktorus import cli

    argv = ["--shape", "2,1", "--kappa", "1/4", "gram", "--max-degree", "2"]
    plain = io.StringIO()
    with redirect_stdout(plain):
        assert cli.main(argv) == 0
    before = _module_state()
    t = tracer.Tracer().install()
    during = _module_state()
    assert len(t.patched) >= 25
    assert len([k for k in before if during[k] is not before[k]]) == len(t.patched)
    traced = io.StringIO()
    try:
        with redirect_stdout(traced):
            assert cli.main(argv) == 0
    finally:
        t.uninstall()
    after = _module_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced.getvalue() == plain.getvalue()
    assert t.counts["torusform.pair.calls"] > 0


# -- the checkout contract -------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    dest = tmp_path / "perfbench"
    dest.mkdir()
    for f in BENCH.glob("*.py"):
        (dest / f.name).write_text(f.read_text())
    (dest / "references.json").write_text((BENCH / "references.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram-exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == b""


# -- compare verdicts -------------------------------------------------------------


@pytest.mark.parametrize(
    "parent, change, failed, expected",
    [
        ([10.0 + 0.1 * k for k in range(10)], [9.0 + 0.1 * k for k in range(10)], (0, 0), "better"),
        ([10.0 + 0.1 * k for k in range(10)], [9.0 + 0.1 * k for k in range(10)], (0, 1), "failing"),
        ([10.0 + 0.1 * k for k in range(10)], [12.0 + 0.1 * k for k in range(10)], (0, 0), "worse"),
        ([10.0 + 0.1 * k for k in range(10)], [10.05 + 0.1 * k for k in range(10)], (0, 0), "same"),
        ([10.0 + (3.0 if k % 2 else 0.0) for k in range(10)], [9.5 + (3.0 if k % 2 else 0.0) for k in range(10)], (0, 0), "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, failed, expected):
    import compare

    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, 0.1, lower=True, failed=failed) == expected
