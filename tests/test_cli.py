import json
import subprocess
import sys

import pytest

from jacktorus.cli import main

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


def test_coeffs_persists_store(tmp_path, capsys):
    store = tmp_path / "s.json"
    code = main(["--shape", "2,1", "--kappa", "1/4", "coeffs", "--grade", "2", "--store", str(store)])
    capsys.readouterr()
    assert code == 0 and store.exists()
    code = main(["--shape", "2,1", "--kappa", "1/4", "coeffs", "--grade", "3", "--store", str(store)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["results"]["sealed_grade"] == 3


def test_pole_excluded_exit_code():
    out = run_cli("--shape", "3,1", "--kappa=-1/2", "coeffs", "--grade", "1")
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    assert doc["error"]["type"] == "PoleExcluded"


def test_usage_error_exit_code():
    out = run_cli("frobnicate")
    assert out.returncode == 2


def test_kernel_and_identity(capsys):
    code = main(["--shape", "2,1", "--kappa", "1/5", "kernel", "--max-order", "2", "--samples", "6"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["results"]["passed"]
    code = main(["identity", "--N", "3", "--max-order", "4", "--samples", "5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["results"]["passed"]


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


def test_verify_fails_under_optimize():
    # the checks must not be asserts, which python -O strips
    script = (
        "import sys\n"
        "from jacktorus import cli\n"
        "cli.nsjp_norm = lambda *args: 12345\n"
        "sys.exit(cli.main(['--shape', '2,1', '--kappa', '1/4', 'verify', '--max-degree', '1']))\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert out.returncode == 1, out.stderr
    checks = {c["name"]: c for c in json.loads(out.stdout)["results"]["checks"]}
    assert checks["gram"]["passed"] is False
    assert checks["gram"]["detail"].startswith("VerificationFailed")


def _reversed_basis_order(doc):
    doc["header"]["basis_order"].reverse()


def _grades_missing(doc):
    doc["header"]["sealed_grade"] = 4


def _matrix_not_square(doc):
    doc["grades"][1]["entries"][0]["matrix"][0].append("0")


@pytest.mark.parametrize(
    "overrides, corrupt",
    [
        ({"--kappa": "1/5"}, None),
        ({"--shape": "3,1"}, None),
        ({}, _reversed_basis_order),
        ({}, _grades_missing),
        ({}, _matrix_not_square),
    ],
    ids=["other-kappa", "other-shape", "basis-order", "grades-missing", "matrix-size"],
)
def test_coeffs_rejects_bad_store(tmp_path, capsys, overrides, corrupt):
    store = tmp_path / "s.json"
    assert main(["--shape", "2,1", "--kappa", "1/4", "coeffs", "--grade", "2", "--store", str(store)]) == 0
    capsys.readouterr()
    if corrupt is not None:
        doc = json.loads(store.read_text())
        corrupt(doc)
        store.write_text(json.dumps(doc))
    flags = {"--shape": "2,1", "--kappa": "1/4", **overrides}
    code = main([*(x for kv in flags.items() for x in kv), "coeffs", "--grade", "2", "--store", str(store)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"]["type"] == "StoreCorrupt"
