import ast
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import jacktorus
from jacktorus.cli import build_parser, main
from jacktorus.coeffs import CoeffStore
from jacktorus.scalars import default_kappa, make_kappa
from jacktorus.tableaux import Scaled
from jacktorus.torusform import FormContext, gram, nsjp_norm
from jacktorus.ybgraph import NsjpGraph
from support import dense_gram, valid_shapes

RUN = [sys.executable, "-m", "jacktorus.cli"]


def run_cli(*args):
    return subprocess.run([*RUN, *args], capture_output=True, text=True)


def test_count_matches_closed_form(capsys):
    code = main(["count", "--N", "4", "--n", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"]["count"] == 92
    assert doc["command"] == "count"
    assert set(doc) == {"command", "config", "version", "results"}


def test_tableaux_report(capsys):
    code = main(["--shape", "3,1", "tableaux"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"]["count"] == 3
    contents = {tuple(t["content"]) for t in doc["results"]["tableaux"]}
    assert contents == {(2, 1, -1, 0), (2, -1, 1, 0), (-1, 2, 1, 0)}


def test_rep_subcommand(capsys):
    code = main(["--shape", "2,1", "rep", "--word", "2,1,3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"]["matrix"] == [["1/2", "3/4"], ["1", "-1/2"]]


def test_nsjp_dump(capsys):
    code = main(["--shape", "2,1", "--kappa", "1/4", "nsjp", "--alpha", "1,0,0", "--tableau", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"]["jumps"] == 1
    assert doc["results"]["steps"] == 2
    assert len(doc["results"]["spectral"]) == 3


def test_nsjp_laurent_dump(capsys):
    code = main(["--shape", "2,1", "--kappa", "1/4", "nsjp", "--alpha=-1,0,1", "--tableau", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    exps = [tuple(rec["exponent"]) for rec in doc["results"]["poly"]]
    assert all(sum(e) == 0 for e in exps)
    assert min(min(e) for e in exps) < 0


def test_gram_subcommand(capsys):
    code = main(["--shape", "2,1", "--kappa", "1/4", "gram", "--max-degree", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"]["offdiagonal_nonzero"] == 0
    assert doc["results"]["norms_match"] is True


def test_gram_reports_a_block_product_wrong_off_the_diagonal(perturb_gram_product, capsys):
    def bump_corner(out):
        out[0, 1] += 1

    perturb_gram_product(bump_corner)
    code = main(["--shape", "2,1", "--kappa", "1/4", "gram", "--max-degree", "2"])
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert code == 1
    assert doc["results"]["offdiagonal_nonzero"] > 0 and doc["results"]["norms_match"] is True
    assert text == _dense_gram_report((2, 1), Fraction(1, 4), 2)


SEED_CASES = [
    ("--shape", "3,1", "--kappa", "1/4", "gram", "--max-degree", "3"),
    ("--shape", "2,2,1", "gram", "--max-degree", "2"),
    ("--shape", "3,1", "--kappa", "1/4", "verify", "--max-degree", "3"),
    ("--shape", "3,2", "--kappa", "1/5", "verify", "--max-degree", "2"),
]


def _reports_at_seeds(capsys, args):
    """stdout at --seed 0, 7 and 12345 with the seed echo taken out, and the exit codes."""
    texts, codes = [], []
    for seed in (0, 7, 12345):
        codes.append(main(["--seed", str(seed), *args]))
        text = capsys.readouterr().out
        assert text.count(f'"seed": {seed},') == 1
        texts.append(text.replace(f'"seed": {seed},', '"seed": null,'))
    return texts, codes


@pytest.mark.parametrize("args", SEED_CASES, ids=" ".join)
def test_gram_and_verify_do_not_depend_on_the_seed(capsys, args):
    """The certificates draw their random vectors from --seed; the reports must not show which were drawn.

    verify's kernel_psd check samples its points by the seed as well, so its detail is left out there."""
    texts, codes = _reports_at_seeds(capsys, args)
    assert codes == [0, 0, 0]
    if "verify" in args:
        docs = [json.loads(text) for text in texts]
        for doc in docs:
            kernel = [c for c in doc["results"]["checks"] if c["name"] == "kernel_psd"]
            assert len(kernel) == 1 and kernel[0]["passed"] is True
            kernel[0]["detail"] = None
        assert docs[0] == docs[1] == docs[2]
    else:
        assert texts[0] == texts[1] == texts[2]


# the faults (row, column, delta) in the degree-1 block (6 columns, column 4 spot-checked by pair), the
# verdicts, and the report's sha256, recorded before the Gram verdicts moved into torusform.gram
FAILING_GRAM_CASES = {
    # columns 1 and 2 fail their certificates with nonzero off-diagonal entries
    "off-diagonal": ([(0, 1, 1), (5, 2, -3)], 2, True, "9561704087aea5f67c342e61c3597d3174a498e02c32e27193f55a1c3f44db47"),
    # column 1's diagonal entry is wrong, off the spot check, so only the norm comparison can see it
    "diagonal": ([(1, 1, 1)], 0, False, "1f9fe686be3bcc3f493aeca0874913d98339b9f8ffe252f2ea412c8968aeefed"),
}


@pytest.mark.parametrize("case", list(FAILING_GRAM_CASES))
def test_a_failing_gram_report_does_not_depend_on_the_seed(perturb_gram_product, capsys, case):
    # each seed must find and compute the same failing columns
    faults, off, norms_match, digest = FAILING_GRAM_CASES[case]

    def bump(out):
        if len(out) == 6:
            for i, j, delta in faults:
                out[i, j] += delta

    perturb_gram_product(bump)
    texts, codes = _reports_at_seeds(capsys, ("--shape", "2,1", "--kappa", "1/4", "gram", "--max-degree", "2"))
    assert codes == [1, 1, 1]
    assert texts[0] == texts[1] == texts[2]
    doc = json.loads(texts[0])
    assert doc["results"]["offdiagonal_nonzero"] == off and doc["results"]["norms_match"] is norms_match
    assert hashlib.sha256(texts[0].encode()).hexdigest() == digest


def _dense_gram_report(parts, kappa, degree, out=None) -> str:
    """The gram report as the stdlib encoder writes the whole document, its matrix built dense."""
    kap = make_kappa(kappa.numerator, kappa.denominator, parts) if kappa is not None else default_kappa(parts)
    graph = NsjpGraph(kap)
    nodes = [(node.alpha, node.t_index) for d in range(degree + 1) for node in graph.build_degree(d)]
    mat = dense_gram(gram(graph, degree, FormContext(CoeffStore(kap)))[1])
    results = {
        "basis": [{"alpha": list(a), "tableau_index": ti} for a, ti in nodes],
        "matrix": [[str(x) for x in row] for row in mat],
        "offdiagonal_nonzero": int(np.count_nonzero(mat) - np.count_nonzero(mat.diagonal())),
        "norms_match": all(mat[i, i] == nsjp_norm(a, graph.basis[ti], kap) for i, (a, ti) in enumerate(nodes)),
    }
    kappa_text = None if kappa is None else str(kappa)
    config = {"shape": list(parts), "kappa": kappa_text, "max_grade": 4, "seed": 7, "out": out}
    doc = {"command": "gram", "config": config, "version": jacktorus.__version__, "results": results}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


GRAM_SHAPES = [s.parts for n in (3, 4) for s in valid_shapes(n)]


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("parts", GRAM_SHAPES, ids=[",".join(map(str, p)) for p in GRAM_SHAPES])
def test_gram_report_is_the_stdlib_dump_of_the_dense_document(tmp_path, capsys, parts, degree):
    out = tmp_path / "report.json"
    code = main(["--shape", ",".join(map(str, parts)), "--out", str(out), "gram", "--max-degree", str(degree)])
    text = capsys.readouterr().out
    assert code == 0
    assert text == _dense_gram_report(parts, None, degree, str(out))
    assert out.read_text() == text


def test_nsjp_below_the_edge_limit_runs(capsys):
    # 101,598 edge-exponent pairs: under the limit
    code = main(["--shape", "2,1", "nsjp", "--alpha", "0,0,40"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["results"]["jumps"] == 40


def test_coeffs_persists_store(tmp_path, capsys):
    store = tmp_path / "s.json"
    code = main(["--shape", "2,1", "--kappa", "1/4", "coeffs", "--grade", "2", "--store", str(store)])
    capsys.readouterr()
    assert code == 0 and store.exists()
    code = main(["--shape", "2,1", "--kappa", "1/4", "coeffs", "--grade", "3", "--store", str(store)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"]["sealed_grade"] == 3


@pytest.mark.parametrize("limit, code", [(19, 0), (18, 2)])
def test_coeffs_solves_a_grade_up_to_the_index_limit(monkeypatch, capsys, limit, code):
    # (2,1) to grade 2 spans count_Z(3, n) = 1, 6, 12 indices: 19 in all
    from jacktorus import cli

    monkeypatch.setattr(cli, "_COUNT_LIMIT", limit)
    argv = ["--shape", "2,1", "coeffs", "--grade", "2"]
    if code:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code and "would solve 19 indices, more than 18" in capsys.readouterr().err
    else:
        assert main(argv) == 0


def test_pole_excluded_exit_code():
    out = run_cli("--shape", "3,1", "--kappa=-1/2", "coeffs", "--grade", "1")
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    assert doc["error"]["type"] == "PoleExcluded"


def test_usage_error_exit_code():
    out = run_cli("frobnicate")
    assert out.returncode == 2


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--shape", "2,x", "tableaux"], None, "shape: expected comma-separated integers, got '2,x'"),
        (["--shape", "2,1", "--kappa", "1/x", "tableaux"], None, "kappa: expected a rational"),
        (["--shape", "2,1", "--kappa", "1/0", "tableaux"], None, "kappa: expected a rational"),
        (["--shape", "2,1", "rep", "--word", "2,x"], None, "argument --word: expected comma-separated"),
        (["tableaux"], '{"shape": "2,1",', "--config"),
        (["tableaux"], '["2,1"]', "expected a JSON object"),
        (["tableaux"], '{"shape": "2,1", "seed": 1.5}', "seed: expected an integer"),
        (["tableaux"], '{"shape": "2,1", "kappa": 0.2}', "kappa: expected a rational"),
        (["tableaux"], '{"shape": [2, "1"]}', "shape: expected a partition"),
        (["tableaux"], None, "a shape is required"),
        (["--shape", "2,1", "rep", "--word", "2,2,1"], None, "--word must be a permutation of 1..3"),
        (["--shape", "2,1", "rep", "--word", "1,2"], None, "--word must be a permutation of 1..3"),
        (["--shape", "2,1", "nsjp", "--alpha", "1,0"], None, "--alpha needs 3 entries, got 2"),
        (["--shape", "2,1", "nsjp", "--alpha", "1,0,0", "--tableau", "5"], None, "--tableau must lie in 0..1"),
        (["--shape", "2,1", "nsjp", "--alpha", "1,0,0", "--tableau", "-1"], None, "--tableau must lie in 0..1"),
        (["--shape", "2,1", "kernel", "--samples", "0"], None, "argument --samples: expected an integer >= 1"),
        (["--shape", "2,1", "kernel", "--max-order", "0"], None, "argument --max-order: expected an integer >= 1"),
        (["identity", "--samples", "0"], None, "argument --samples: expected an integer >= 1"),
        (["--shape", "2,1", "diffsys", "--loop-steps", "-5"], None, "argument --loop-steps: expected an integer >= 0"),
        (["--shape", "2,1", "diffsys", "--points", "-1"], None, "argument --points: expected an integer >= 0"),
        (["--shape", "2,1", "gram", "--max-degree", "-1"], None, "argument --max-degree: expected an integer >= 0"),
        (["--shape", "2,1", "coeffs", "--grade", "x"], None, "argument --grade: expected an integer >= 0, got 'x'"),
        (["count", "--N", "-1", "--n", "2"], None, "argument --N: expected an integer >= 0, got '-1'"),
        (["count", "--N", "3", "--n", "-2"], None, "argument --n: expected an integer >= 0, got '-2'"),
        (["identity", "--N", "0"], None, "argument --N: expected an integer >= 2, got '0'"),
        (["identity", "--N", "1"], None, "argument --N: expected an integer >= 2, got '1'"),
        (["--shape", "2,1", "--max-grade", "-3", "coeffs"], None, "argument --max-grade: expected an integer >= 0"),
        (["coeffs"], '{"shape": "2,1", "max_grade": -3}', "max_grade: expected an integer >= 0, got -3"),
        (["--seed", "-1", "--shape", "2,1", "kernel", "--max-order", "1", "--samples", "2"], None, "argument --seed: expected an integer >= 0, got '-1'"),
        (["kernel", "--max-order", "1", "--samples", "2"], '{"shape": "2,1", "seed": -1}', "seed: expected an integer >= 0, got -1"),
        (["tableaux"], '{"shape": "2,1", "kapa": "1/5"}', "unknown key 'kapa'; accepted keys: shape, kappa, max_grade, seed, out"),
        (["coeffs"], '{"shape": "2,1", "grade": 3}', "unknown key 'grade'; accepted keys: shape, kappa, max_grade, seed, out"),
        (["count", "--N", "30", "--n", "3"], None, "count_Z(30, 3) = 18502290 is more than the 1000000 vectors count will list"),
        (
            ["identity", "--N", "14", "--max-order", "4", "--samples", "1"],
            None,
            "identity --N 14 --max-order 4 would list 2395269 vectors, more than 1000000",
        ),
        (
            ["--shape", "2,1", "nsjp", "--alpha", "0,0,330"],
            None,
            "--alpha 0,0,330 needs 54286648 edge-exponent pairs, more than 1000000",
        ),
        (
            ["--shape", "3,2,1", "kernel", "--max-order", "20"],
            None,
            "kernel --max-order 20 on N = 6 would list 7638259 indices, more than 1000000",
        ),
        (
            ["--shape", "2,1", "coeffs", "--grade", "1000"],
            None,
            "coeffs to grade 1000 on N = 3 would solve 3003001 indices, more than 1000000",
        ),
        (["coeffs"], '{"shape": "2,1", "max_grade": 1000}', "coeffs to grade 1000 on N = 3 would solve 3003001"),
        (
            ["--shape", "2,1", "kernel", "--max-order", "1000000000"],
            None,
            "kernel --max-order 1000000000 on N = 3 would list 3000000003000000001 indices, more than 1000000",
        ),
        (
            ["identity", "--N", "3", "--max-order", "1000000000"],
            None,
            "identity --N 3 --max-order 1000000000 would list 166666670666666671500000002 vectors, more than 1000000",
        ),
        (["count", "--N", "2", "--n", "1"], '{"out": "report\\u0000.json"}', "out: expected a path"),
    ],
    ids=[
        "shape-flag",
        "kappa-flag",
        "kappa-zero-denominator",
        "word-flag",
        "config-invalid-json",
        "config-not-object",
        "config-seed",
        "config-kappa-float",
        "config-shape",
        "missing-shape",
        "word-repeats-a-letter",
        "word-too-short",
        "alpha-wrong-length",
        "tableau-too-large",
        "tableau-negative",
        "kernel-no-samples",
        "kernel-no-orders",
        "identity-no-samples",
        "loop-steps-negative",
        "points-negative",
        "max-degree-negative",
        "grade-not-an-integer",
        "count-N-negative",
        "count-n-negative",
        "identity-N-zero",
        "identity-N-one",
        "max-grade-negative",
        "config-max-grade-negative",
        "seed-negative",
        "config-seed-negative",
        "config-unknown-key",
        "config-subcommand-flag-as-key",
        "count-too-many-vectors",
        "identity-too-many-vectors",
        "nsjp-too-many-edges",
        "kernel-too-many-indices",
        "coeffs-too-many-indices",
        "coeffs-max-grade-too-many-indices",
        "kernel-at-a-huge-order",
        "identity-at-a-huge-order",
        "config-out-with-a-nul",
    ],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv, config, message):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv = ["--config", str(path), *argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--store", "--out"])
def test_write_into_a_missing_directory_is_an_error_record(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "x.json"
    store = [flag, str(target)] if flag == "--store" else []
    out = [flag, str(target)] if flag == "--out" else []
    code = main([*out, "--shape", "2,1", "coeffs", "--grade", "1", *store])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    assert doc["error"]["type"] == "WriteFailed"
    assert str(target) in doc["error"]["message"] and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_kernel_and_identity(capsys):
    code = main(["--shape", "2,1", "--kappa", "1/5", "kernel", "--max-order", "2", "--samples", "6"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["results"]["passed"]
    code = main(["identity", "--N", "3", "--max-order", "4", "--samples", "5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["results"]["passed"]


def test_identity_below_the_vector_limit_runs(monkeypatch, capsys):
    from jacktorus import cli

    # 718,779 vectors: under the limit; the residual itself is not computed here
    monkeypatch.setattr(cli, "sigma_identity_residual", lambda n, thetas: 0.0)
    code = main(["identity", "--N", "12", "--max-order", "4", "--samples", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["results"]["passed"]


def test_kernel_below_the_index_limit_runs(monkeypatch, capsys):
    from jacktorus import cli
    from jacktorus.kernels import KernelReport

    def report(store, orders, samples, seed):
        # 951,705 indices to order 13: under the limit; the scan itself is not run here
        return KernelReport(
            shape=store.shape.parts,
            kappa=str(store.kappa.value),
            orders=list(orders),
            samples=samples,
            seed=seed,
            min_eigenvalues={n: 0.5 for n in orders},
            worst={"min_eigenvalue": 0.5, "hermiticity": 0.0, "covariance": 0.0},
        )

    monkeypatch.setattr(cli, "psd_report", report)
    code = main(["--shape", "3,2,1", "kernel", "--max-order", "13", "--samples", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["results"]["report"]["orders"] == list(range(1, 14))


def test_diffsys_subcommand(capsys):
    code = main(["--shape", "2,1", "--kappa", "1/4", "diffsys", "--points", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"]["euler_and_integrability_exact"] is True
    assert doc["results"]["gamma"] == "0"


def test_diffsys_loop_stays_clear_for_four_variables(capsys):
    # regression: the loop base point must keep pairwise separation for any N
    code = main(["--shape", "3,1", "--kappa", "1/4", "diffsys", "--points", "2", "--loop-steps", "2000"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"]["loop_defect"] < 1e-6


def test_diffsys_on_more_variables_than_sample_values_is_a_usage_error():
    # a point needs N distinct coordinates out of 92 values, so N = 93 cannot be sampled
    out = subprocess.run(
        [*RUN, "--shape", "92,1", "diffsys", "--points", "1"], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.endswith(
        "jacktorus: error: the exact connection check draws N = 93 distinct coordinates from only "
        "92 values a/b, 0 < |a| <= 12, 1 <= b <= 6\n"
    )
    # without a point to draw, the check and the report go ahead
    out = subprocess.run(
        [*RUN, "--shape", "92,1", "diffsys", "--points", "0"], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0 and json.loads(out.stdout)["results"]["points"] == 0


def test_an_index_gate_rejects_a_huge_grade_at_once():
    # the count is a closed form, so the rejection takes no time linear in the grade; the kernel and
    # identity gates are cases of test_bad_input_is_a_usage_error
    out = subprocess.run(
        [*RUN, "--shape", "2,1", "coeffs", "--grade", "1000000000"], capture_output=True, text=True, timeout=30
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.endswith(
        "jacktorus: error: coeffs to grade 1000000000 on N = 3 would solve 3000000003000000001 indices, "
        "more than 1000000\n"
    )


def test_kappa_zero_fails_only_the_eigen_check_and_passes_gram(capsys):
    # at kappa = 0 the spectral vector alpha + 1 forgets the tableau, a degenerate parameter that make_kappa admits
    code = main(["--shape", "2,1", "--kappa", "0", "verify", "--max-degree", "1"])
    failed = {c["name"]: c["detail"] for c in json.loads(capsys.readouterr().out)["results"]["checks"] if not c["passed"]}
    assert code == 1
    assert failed == {"nsjp_eigen": "SpectralCollision: nodes ((0, 0, 0), 0) and ((0, 0, 0), 1) share a spectral vector"}
    code = main(["--shape", "2,1", "--kappa", "0", "gram", "--max-degree", "1"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert code == 0 and results["offdiagonal_nonzero"] == 0 and results["norms_match"]


def test_verify_reports_too_few_sample_values_as_the_diffsys_failure(monkeypatch, capsys):
    from jacktorus import cli

    monkeypatch.setattr(cli, "_REGULAR_VALUES", cli._REGULAR_VALUES[:2])
    with pytest.raises(SystemExit) as exit_info:
        main(["--shape", "2,1", "--kappa", "1/4", "diffsys", "--points", "1"])
    assert exit_info.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1].removeprefix("jacktorus: error: ")
    assert message.startswith("the exact connection check draws N = 3 distinct coordinates from only 2 values")
    code = main(["--shape", "2,1", "--kappa", "1/4", "verify", "--max-degree", "1"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["results"]["checks"]}
    assert code == 1
    assert [name for name, c in checks.items() if not c["passed"]] == ["diffsys"]
    assert checks["diffsys"]["detail"] == f"ArgumentTypeError: {message}"


@pytest.mark.parametrize(
    "argv",
    [
        ["--shape", "2,1", "--kappa", "1/5", "kernel", "--max-order", "2", "--samples", "5"],
        ["identity", "--N", "3", "--max-order", "2", "--samples", "5"],
        ["--shape", "2,1", "--kappa", "1/4", "verify", "--max-degree", "1"],
        ["--shape", "3,1", "--kappa", "1/4", "diffsys", "--points", "5", "--loop-steps", "300"],
    ],
    ids=["kernel", "identity", "verify", "diffsys"],
)
def test_sampling_command_does_not_import_numpy_random(argv):
    # every draw comes from the stdlib; numpy.random costs import time and memory
    probe = (
        "import contextlib, io, sys\n"
        "from jacktorus.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0 False"


def test_verify_green(capsys):
    code = main(["--shape", "2,1", "--kappa", "1/4", "verify", "--max-degree", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(c["passed"] for c in doc["results"]["checks"])


def test_reports_are_byte_identical():
    args = ("--shape", "2,1", "--kappa", "1/5", "kernel", "--max-order", "2", "--samples", "5")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout


# sha256 of the stdout of each run, recorded before the Jack polynomials, the pairing and the
# representation checks moved from Fraction arrays to Scaled carriers (the diffsys run: when
# the RK4 connection field became one real product per block, which moved its loop_defect by
# 2.0e-22, its transported entries by at most 7.2e-18 and nothing else; the kernel run and the
# two verify runs: when the phase sums became fixed-shape GEMMs, which moved their kernel
# floats by at most 4e-16 and nothing else); the golden store digests are STORE_DIGESTS in
# test_coeffs.py
CLI_DIGESTS = {
    ("--shape", "3,2", "rep", "--word", "5,4,3,2,1"):
        "c8f9f666d5740f41338f21fed7eb30b02b39eac6a4b69bf552fe310990ec19a1",
    ("--shape", "3,1", "nsjp", "--alpha=2,-1,0,1"):
        "637ad1b5b4b6f9faeb87884beb017bec2d354962e8bf9c5df6fb29d770bd2095",
    ("--shape", "2,1", "--kappa", "1/4", "gram", "--max-degree", "3"):
        "a77212562821b39c2667b829de3b019f5d846ae85acbf0b349c511814c113bd1",
    ("--shape", "2,2", "--kappa=-1/5", "gram", "--max-degree", "3"):
        "b4fabed3923434947f6a05e4ceca49101d04f17d4f4c9629f61c16cdb749bea0",
    ("--shape", "2,1", "verify", "--max-degree", "2"):
        "26bc9fc74135b8effe21311fbedfad8075090d68b0c4c8337f6d822978442536",
    ("--shape", "3,1", "--kappa", "1/4", "verify", "--max-degree", "3"):
        "0004b41543d5873abdc99b06a0eeb7bfee5e858a01d90f9080f47b955a0cb6a2",
    ("identity", "--N", "4", "--max-order", "6", "--samples", "30"):
        "daded975134d1176d7561cee48beb81459a58b7466a5ecacab33361b873e8d2f",
    ("--shape", "2,1", "--kappa", "1/5", "kernel", "--max-order", "4", "--samples", "40"):
        "75a94cc32b8ddfb184905e6cefd54db9b54318d684130c94580faa44fd0be191",
    ("--shape", "3,1", "--kappa", "1/4", "diffsys", "--points", "10", "--loop-steps", "2000"):
        "b356f3d94821f7ce9653a4b1fb307ab102d0bc84efd03866f21713f1f2cb4de0",
    ("--shape", "2,2,1", "--kappa=-1/5", "nsjp", "--alpha", "1,0,2,0,1", "--tableau", "4"):
        "4ff6520d3ecf44c20f9a0e4d5527c5d4b4bfef5b049b19d41bb38c377dfa8186",
    # 175-row degree-3 blocks: the exact products take more than one int64 limb
    ("--shape", "3,2", "--kappa", "1/5", "gram", "--max-degree", "3"):
        "f42c9d5bee3345afd49cbd585b402d848086276ecc9b5e973336d6f31da75a03",
    # the first verify with d = 5 blocks, on 175-row eigen checks at degree 3
    ("--shape", "3,2", "--kappa", "1/5", "verify", "--max-degree", "3"):
        "24bca3254b6de0428e810490a5aed42a61200d38fc015d792b113a4762700ecc",
    # a degree-0 node six tableau steps from the root
    ("--shape", "3,2,1", "--kappa", "1/7", "nsjp", "--alpha", "0,0,0,0,0,0", "--tableau", "15"):
        "560d9aada040e419571b07cad9e579775ae625beb20acd4b822768ea9c9c1c14",
}


@pytest.mark.parametrize("args", list(CLI_DIGESTS), ids=" ".join)
def test_stdout_matches_the_golden_digest(args):
    out = run_cli(*args)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == CLI_DIGESTS[args]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shape": "3,1", "kappa": "1/4", "seed": 11}))
    code = main(["--config", str(cfg), "tableaux"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["results"]["count"] == 3
    # flag overrides the config shape
    code = main(["--config", str(cfg), "--shape", "2,1", "tableaux"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["count"] == 2


def test_a_deeply_nested_config_is_a_usage_error(tmp_path):
    # json's decoder recurses once per nesting level, so this file raises RecursionError
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100000 + "]" * 100000)
    out = run_cli("--config", str(cfg), "count", "--N", "3", "--n", "1")
    assert out.returncode == 2 and out.stdout == ""
    usage = build_parser().format_usage()
    assert out.stderr.startswith(usage)
    error = out.stderr[len(usage) :]
    assert error.startswith(f"jacktorus: error: --config {cfg}: maximum recursion depth exceeded")
    assert error.count("\n") == 1 and error.endswith("\n")


# Each command's floats pass through numpy products; the (3,2) Gram's 175-row blocks take two
# limbs, so its float64 limb product is a GEMM that OpenBLAS splits across threads.
THREAD_CASES = [
    ("--shape", "3,2", "--kappa", "1/5", "gram", "--max-degree", "3"),
    ("--shape", "3,2", "--kappa", "1/5", "kernel", "--max-order", "3", "--samples", "20"),
    ("--shape", "3,1", "--kappa", "1/4", "diffsys", "--points", "10", "--loop-steps", "2000"),
    ("--shape", "2,1", "verify", "--max-degree", "2"),
    # d = 16, and grades 2 to 4 take more than one 128-term GEMM per group of points
    ("--shape", "3,2,1", "--kappa", "1/6", "kernel", "--max-order", "4", "--samples", "40"),
    # d = 16: each RK4 block's (513, 15) by (15, 512) field product is one OpenBLAS may thread
    ("--shape", "3,2,1", "--kappa", "1/6", "diffsys", "--points", "2", "--loop-steps", "4000"),
]


def _run_with_blas_threads(args, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    return subprocess.run([*RUN, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("args", THREAD_CASES, ids=" ".join)
def test_stdout_does_not_depend_on_the_blas_thread_count(args):
    one, two = (_run_with_blas_threads(args, n) for n in ("1", "2"))
    assert one.returncode == 0 and two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout


def test_importing_the_cli_defaults_blas_to_one_thread():
    probe = (
        "import os, sys, jacktorus; numpy_first = 'numpy' in sys.modules; import jacktorus.cli; "
        "print(numpy_first, os.environ['OPENBLAS_NUM_THREADS'])"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    for preset, expect in ((None, "False 1"), ("2", "False 2")):
        run_env = env if preset is None else dict(env, OPENBLAS_NUM_THREADS=preset)
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=run_env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == expect


def test_tableaux_of_a_shape_past_the_int64_hook_product(capsys):
    code = main(["--shape", "21,1", "tableaux"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["results"]["count"] == 21


def test_out_file_written(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "count", "--N", "2", "--n", "5"])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["results"]["count"] == 2


def test_kernel_fails_on_covariance_residual(monkeypatch, capsys):
    from jacktorus import cli
    from jacktorus.kernels import KernelReport

    def bad_report(store, orders, samples, seed):
        return KernelReport(
            shape=store.shape.parts,
            kappa=str(store.kappa.value),
            orders=list(orders),
            samples=samples,
            seed=seed,
            min_eigenvalues={1: 0.5},
            covariance_residual=1e-8,
            worst={"min_eigenvalue": 0.5, "hermiticity": 0.0, "covariance": 1e-8},
        )

    monkeypatch.setattr(cli, "psd_report", bad_report)
    code = main(["--shape", "2,1", "--kappa", "1/5", "kernel", "--max-order", "1", "--samples", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["results"]["passed"] is False


def test_the_package_has_no_assert_statement():
    # python -O strips asserts, so a check written as one would pass vacuously
    paths = sorted(Path(jacktorus.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert len(paths) > 10 and found == []


def test_the_package_does_not_use_numpy_random():
    # the samplers reproduce numpy's default_rng stream in _rng, so no module needs numpy.random
    paths = sorted(Path(jacktorus.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{lineno}"
        for path in paths
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "np.random" in line or "numpy.random" in line
    ]
    assert len(paths) > 10 and found == []


def test_verify_fails_under_optimize():
    # the checks must not be asserts, which python -O strips
    script = (
        "import sys\n"
        "from jacktorus import cli, torusform\n"
        "torusform.nsjp_norm = lambda *args: 12345\n"
        "sys.exit(cli.main(['--shape', '2,1', '--kappa', '1/4', 'verify', '--max-degree', '1']))\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    checks = {c["name"]: c for c in json.loads(out.stdout)["results"]["checks"]}
    assert checks["gram"]["passed"] is False
    assert checks["gram"]["detail"].startswith("VerificationFailed")


def test_verify_checks_every_pair_of_connection_matrices(monkeypatch, capsys):
    from jacktorus import cli
    from jacktorus.tableaux import Scaled

    exact = cli.integrability_residual

    def residual(m, kappa):
        # the stack lists the pairs (1, 2), (1, 3), (2, 3): only the last one fails
        out = exact(m, kappa)
        num = out.num.copy()
        num[2, 0, 0] += 1
        return Scaled(num, out.den)

    monkeypatch.setattr(cli, "integrability_residual", residual)
    code = main(["--shape", "2,1", "--kappa", "1/4", "verify", "--max-degree", "1"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["results"]["checks"]}
    assert code == 1
    assert [name for name, c in checks.items() if not c["passed"]] == ["diffsys"]
    assert "(2, 3)" in checks["diffsys"]["detail"]


def test_connection_check_reports_euler_first_then_the_first_pair(monkeypatch):
    from jacktorus import cli
    from jacktorus.scalars import make_kappa
    from jacktorus.tableaux import Scaled

    kap = make_kappa(1, 4, (2, 1))
    exact_euler, exact_pairs = cli.euler_residual, cli.integrability_residual

    def bump(out, index):
        num = out.num.copy()
        num[index] += 1
        return Scaled(num, out.den)

    def two_pairs_fail(m, kappa):
        # the stack lists the pairs (1, 2), (1, 3), (2, 3): the first failing one is named
        return bump(bump(exact_pairs(m, kappa), (1, 0, 0)), (2, 1, 1))

    def check():
        return cli._connection_exact(random.Random(3), 2, kap)

    monkeypatch.setattr(cli, "integrability_residual", two_pairs_fail)
    assert check().startswith("integrability residual of (1, 3) at")
    monkeypatch.setattr(cli, "euler_residual", lambda x, m: bump(exact_euler(x, m), (0, 1)))
    assert check().startswith("Euler residual at")


def test_verify_names_the_first_node_that_is_not_an_eigenvector(monkeypatch, capsys):
    from jacktorus import cli

    real = cli.NsjpGraph.build_degree

    def swapped(self, d):
        # degree 2: node 3 is ((1, 0, 1), 1) and gets the polynomial of node 4, ((1, 1, 0), 0)
        nodes = real(self, d)
        if d == 2:
            nodes[3] = dataclasses.replace(nodes[3], num=nodes[4].num, den=nodes[4].den)
        return nodes

    monkeypatch.setattr(cli.NsjpGraph, "build_degree", swapped)
    code = main(["--shape", "2,1", "--kappa", "1/4", "verify", "--max-degree", "2"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["results"]["checks"]}
    assert code == 1
    # gram reads the same columns, so it sees the repeated polynomial too
    assert [name for name, c in checks.items() if not c["passed"]] == ["nsjp_eigen", "gram"]
    assert checks["nsjp_eigen"]["detail"] == "VerificationFailed: (1, 0, 1), tableau 1 is not an eigenvector of xi_1"


def test_verify_builds_one_store_and_one_graph(monkeypatch, capsys):
    from jacktorus import cli

    built = {"store": 0, "graph": 0}

    class CountedStore(cli.CoeffStore):
        def __init__(self, *args):
            built["store"] += 1
            super().__init__(*args)

    class CountedGraph(cli.NsjpGraph):
        def __init__(self, *args):
            built["graph"] += 1
            super().__init__(*args)

    monkeypatch.setattr(cli, "CoeffStore", CountedStore)
    monkeypatch.setattr(cli, "NsjpGraph", CountedGraph)
    code = main(["--shape", "2,1", "--kappa", "1/4", "verify", "--max-degree", "2"])
    assert json.loads(capsys.readouterr().out)["results"]["passed"] is True
    assert code == 0
    assert built == {"store": 1, "graph": 1}


def _reversed_basis_order(doc):
    doc["header"]["basis_order"].reverse()


def _grades_missing(doc):
    doc["header"]["sealed_grade"] = 4


def _matrix_not_square(doc):
    doc["grades"][1]["entries"][0]["matrix"][0].append("0")


def _empty_document(doc):
    return "{}"


def _invalid_json(doc):
    return json.dumps(doc)[:-1]


def _deeply_nested(doc):
    return "[" * 100000 + "]" * 100000


def _float_entry(doc):
    doc["grades"][1]["entries"][0]["matrix"][0][0] = 0.5


def _sealed_grade_text(doc):
    doc["header"]["sealed_grade"] = "2"


def _index_missing(doc):
    doc["grades"][2]["entries"].pop()


def _box_count(doc):
    doc["header"]["N"] = 4


def _sealed_grade_negative(doc):
    doc["header"]["sealed_grade"] = -1


def _no_grades(doc):
    doc["header"]["sealed_grade"] = -1
    doc["grades"] = []


def _extra_grade(doc):
    matrix = doc["grades"][0]["entries"][0]["matrix"]
    doc["grades"].append({"n": 5, "entries": [{"gamma": [9, 9, 9], "matrix": matrix}]})


def _index_twice(doc):
    entries = doc["grades"][2]["entries"]
    (entry,) = [e for e in entries if e["gamma"] == [1, 1, -2]]
    changed = json.loads(json.dumps(entry))
    changed["matrix"][0][0] = "7/3"
    entries.append(changed)


def _grade_twice(doc):
    doc["grades"].append(json.loads(json.dumps(doc["grades"][2])))


@pytest.mark.parametrize(
    "overrides, corrupt",
    [
        ({"--kappa": "1/5"}, None),
        ({"--shape": "3,1"}, None),
        ({}, _reversed_basis_order),
        ({}, _grades_missing),
        ({}, _matrix_not_square),
        ({}, _empty_document),
        ({}, _invalid_json),
        ({}, _deeply_nested),
        ({}, _float_entry),
        ({}, _sealed_grade_text),
        ({}, _index_missing),
        ({}, _box_count),
        ({}, _sealed_grade_negative),
        ({}, _no_grades),
        ({}, _extra_grade),
        ({}, _index_twice),
        ({}, _grade_twice),
    ],
    ids=[
        "other-kappa",
        "other-shape",
        "basis-order",
        "grades-missing",
        "matrix-size",
        "empty-document",
        "invalid-json",
        "deeply-nested",
        "float-entry",
        "sealed-grade-text",
        "index-missing",
        "box-count",
        "sealed-grade-negative",
        "no-grades",
        "extra-grade",
        "index-twice",
        "grade-twice",
    ],
)
def test_coeffs_rejects_bad_store(tmp_path, capsys, overrides, corrupt):
    store = tmp_path / "s.json"
    assert main(["--shape", "2,1", "--kappa", "1/4", "coeffs", "--grade", "2", "--store", str(store)]) == 0
    capsys.readouterr()
    if corrupt is not None:
        doc = json.loads(store.read_text())
        text = corrupt(doc)  # replacement text, or None after editing doc in place
        store.write_text(json.dumps(doc) if text is None else text)
    flags = {"--shape": "2,1", "--kappa": "1/4", **overrides}
    code = main([*(x for kv in flags.items() for x in kv), "coeffs", "--grade", "2", "--store", str(store)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"]["type"] == "StoreCorrupt"
    if overrides == {"--shape": "3,1"}:
        # the shape check names both shapes by their parts, before the basis order could differ
        assert doc["error"]["message"] == "store file was built for shape (2, 1), not (3, 1)"


def _assert_a_closed_stdout_ends_quietly(tmp_path, args):
    """The report is larger than a pipe buffer, so a write after the reader closes meets the closed
    pipe; the run exits 1 with nothing on stderr, and the --out file, written first, is complete."""
    out = tmp_path / "report.json"
    args = ["--out", str(out), *args]
    proc = subprocess.Popen([*RUN, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert head.startswith(b"{")
    assert err == b""
    full = run_cli(*args).stdout
    assert len(full) > 1 << 16
    assert out.read_text() == full


def test_a_closed_stdout_ends_quietly(tmp_path):
    # about 150 kB, written as one text
    _assert_a_closed_stdout_ends_quietly(tmp_path, ["--shape", "2,1", "nsjp", "--alpha", "0,0,40"])


def test_a_closed_stdout_ends_a_streamed_gram_report_quietly(tmp_path):
    # about 98 kB, nearly all of it the matrix rows, written one at a time
    _assert_a_closed_stdout_ends_quietly(tmp_path, ["--shape", "3,1", "--kappa", "1/4", "gram", "--max-degree", "3"])


@pytest.mark.parametrize(
    "entry, value",
    [
        ("-3/7", Fraction(-3, 7)),
        ("2/4", Fraction(1, 2)),
        ("-6/4", Fraction(-3, 2)),
        ("+5", Fraction(5)),
        ("0/9", Fraction(0)),
        ("-0", Fraction(0)),
        ("1/0", None),
        ("1/-2", None),
        ("1.5", None),
        ("", None),
        ("a", None),
        ("1//2", None),
        ("1e3", None),
        (" 1", None),
        ("1_000", None),
    ],
    ids=repr,
)
def test_store_entry_grammar(tmp_path, capsys, entry, value):
    """An entry is [+-]digits, optionally "/" and a positive integer; it loads as its value, reduced."""
    store = tmp_path / "s.json"
    args = ["--shape", "2,1", "--kappa", "1/4", "coeffs", "--grade", "2", "--store", str(store)]
    assert main(args) == 0
    capsys.readouterr()
    doc = json.loads(store.read_text())
    entry_doc = doc["grades"][1]["entries"][0]
    entry_doc["matrix"][1][0] = entry
    store.write_text(json.dumps(doc))
    code = main(args)
    out = json.loads(capsys.readouterr().out)
    if value is None:
        assert code == 1
        assert out["error"]["type"] == "StoreCorrupt"
        return
    assert code == 0
    rows = [[Fraction(x) for x in row] for row in entry_doc["matrix"]]
    expected = Scaled.of(rows)
    loaded = CoeffStore.load(store, make_kappa(1, 4, (2, 1))).grades[1][tuple(entry_doc["gamma"])]
    assert loaded.den == expected.den
    assert loaded.num.tolist() == expected.num.tolist()
    assert Fraction(loaded.num[1, 0], loaded.den) == value
