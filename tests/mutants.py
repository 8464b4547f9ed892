"""Seeded faults in the package's checks, each of which named tests must see fail.

A mutant is a file under ``src/jacktorus``, a snippet that occurs there
exactly once, its replacement and the tests that must fail once it is
applied.  ``run`` copies ``src/`` to a temporary directory, applies one
mutant to the copy and runs its tests in a child process whose
``PYTHONPATH`` points at the copy; the checkout is never written.  A mutant
is killed when every one of its tests reports a failure.  Stdlib only.

    python tests/mutants.py    # every mutant; exit 1 naming each survivor
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the perturbation tests on shape (3,2): N = 5, every kind of perturbation, degrees 0 to 2
GRAM_CERTIFICATE = "tests/test_certificates.py::test_the_gram_certificate_fails_exactly_the_columns_the_full_product_fails[3,2]"
EIGEN_CERTIFICATE = "tests/test_certificates.py::test_the_eigen_certificate_names_the_node_the_full_product_names[3,2]"
# the oracles of the kernel scan: 257 terms end one past a chunk boundary, and the grades of (3,2) to 3
# hold up to 340 indices of N = 5
ONE_SHOT_PHASE_SUM = "tests/test_accel.py::test_phase_matrix_sum_is_the_one_shot_sum_bit_for_bit[257]"
GRADE_STACK = "tests/test_kernels.py::test_grade_arrays_are_the_stack_built_one_index_at_a_time[3,2]"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/jacktorus
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # test ids, from the repository root, that must each fail


MUTANTS = (
    Mutant(
        "certificate vector r set to zero",
        "tableaux.py",
        "r = [rng.getrandbits(64) for _ in range(n)]",
        "r = [0 for _ in range(n)]",
        (GRAM_CERTIFICATE, EIGEN_CERTIFICATE),
    ),
    Mutant(
        "gram certificate skips the mat-vec with P",
        "torusform.py",
        "return cmat.T @ (pmat @ (cmat @ x))",
        "return cmat.T @ (cmat @ x)",
        (GRAM_CERTIFICATE,),
    ),
    Mutant(
        "gram certificate compares the diagonal with itself",
        "torusform.py",
        "failing_columns(lambda x: _gram_times(cmat, pmat, x), lambda x: w * x,",
        "failing_columns(lambda x: w * x, lambda x: w * x,",
        (GRAM_CERTIFICATE,),
    ),
    Mutant(
        "phase sum leaves the mirrored sine rows unnegated",
        "_accel.py",
        "mirror.real, -mirror.imag",
        "mirror.real, mirror.imag",
        (ONE_SHOT_PHASE_SUM,),
    ),
    Mutant(
        "phase sum skips the last partial chunk",
        "_accel.py",
        "for t in range(0, k, _TERMS):",
        "for t in range(0, k - k % _TERMS or k, _TERMS):",
        (ONE_SHOT_PHASE_SUM,),
    ),
    Mutant(
        "grade stack takes the tau row from the canonical-matrix row",
        "kernels.py",
        "tw = taus[w_rows[chunk]]",
        "tw = taus[c_rows[chunk]]",
        (GRADE_STACK,),
    ),
)


def occurrences(mutant: Mutant, src: Path = ROOT / "src") -> int:
    return (src / "jacktorus" / mutant.path).read_text().count(mutant.snippet)


def start(mutant: Mutant, workdir: Path) -> subprocess.Popen:
    """Copy src/ into workdir, apply the mutant there and start its tests in a child process."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "jacktorus" / mutant.path
    text = target.read_text()
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet occurs {text.count(mutant.snippet)} times in {mutant.path}")
    target.write_text(text.replace(mutant.snippet, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-profile=mutants"]
    argv += [str(ROOT / test) for test in mutant.tests]
    return subprocess.Popen(argv, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def survivors_of(mutant: Mutant, child: subprocess.Popen) -> list[str]:
    """The mutant's tests that did not fail in the finished child."""
    out, _ = child.communicate()
    failed = set(re.findall(r"^FAILED \S*?::(\S+)", out, flags=re.M))
    return [test for test in mutant.tests if test.split("::")[1] not in failed]


def run(mutants=MUTANTS) -> dict[str, list[str]]:
    """Each mutant's surviving tests, the mutants run side by side; an empty list means the mutant was killed."""
    with tempfile.TemporaryDirectory() as tmp:
        children = []
        for k, mutant in enumerate(mutants):
            workdir = Path(tmp) / str(k)
            workdir.mkdir()
            children.append(start(mutant, workdir))
        return {mutant.name: survivors_of(mutant, child) for mutant, child in zip(mutants, children)}


def main() -> int:
    survived = {name: tests for name, tests in run().items() if tests}
    for name, tests in survived.items():
        print(f"survived: {name} ({', '.join(tests)} did not fail)")
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
