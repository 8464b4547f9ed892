"""Command-line surface: every stage of the pipeline behind one dispatcher.

Each run emits a single JSON document {command, config, version, results};
identical inputs (including the seed) produce byte-identical reports.
Computation failures (excluded parameter, singular point, failed check,
unwritable file) exit 1 with a structured error record; usage errors exit 2.
A reader that closes stdout early ends the run quietly with exit 1, after
any ``--out`` file has been written in full.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# One BLAS thread unless the environment already names a count.  It must be
# set before numpy is first imported: OpenBLAS starts its workers then, and
# on the small products of a CLI run they cost CPU time and gain no speed.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, compositions, tableaux
from .coeffs import CoeffStore
from .diffsystem import (
    connections,
    euler_residual,
    gamma_const,
    integrability_residual,
    integrate_loop,
)
from .errors import JackTorusError, VerificationFailed, WriteFailed
from .kernels import _sample_angles, psd_report, sigma_identity_residual
from .scalars import default_kappa, make_kappa
from .tableaux import Partition, Scaled
from .torusform import FormContext, gram, gram_rows, nsjp_norm
from .ybgraph import NsjpGraph


# The session settings, each a config-file key and a top-level flag.
_SESSION_KEYS = ("shape", "kappa", "max_grade", "seed", "out")

# the most vectors `count` or `identity` lists, and the most edge-exponent
# pairs (path length times the exponents of the built degree) `nsjp` builds
_COUNT_LIMIT = 10**6

# the coordinates of the exact connection checks' sample points, sorted: the
# distinct nonzero a/b with |a| <= 12, 1 <= b <= 6 (92 of them)
_REGULAR_VALUES = tuple(sorted({Fraction(a, b) for a in range(-12, 13) if a for b in range(1, 7)}))


@dataclass
class SessionConfig:
    shape: tuple[int, ...] | None
    kappa: Fraction | None
    max_grade: int
    seed: int
    out: str | None

    def to_dict(self) -> dict:
        return {
            "shape": list(self.shape) if self.shape else None,
            "kappa": str(self.kappa) if self.kappa is not None else None,
            "max_grade": self.max_grade,
            "seed": self.seed,
            "out": self.out,
        }


def _ints(text: str) -> tuple[int, ...]:
    """Parse "2,1,0" into (2, 1, 0); the argparse type of the vector flags."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _int_at_least(minimum: int):
    """argparse type of an integer flag (or config value) that must be at least minimum."""

    def parse(val) -> int:
        try:
            if type(val) in (str, int) and int(val) >= minimum:
                return int(val)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {val!r}")

    return parse


def _shape_value(val) -> tuple[int, ...]:
    if isinstance(val, str):
        return _ints(val)
    if isinstance(val, list) and all(type(p) is int for p in val):
        return tuple(val)
    raise ValueError(f"expected a partition such as 2,1 or [2, 1], got {val!r}")


def _rational_value(val) -> Fraction:
    if type(val) in (str, int):
        try:
            return Fraction(val)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"expected a rational such as 1/4, got {val!r}")


def _str_value(val) -> str:
    if not isinstance(val, str) or "\0" in val:  # no file name holds a NUL
        raise ValueError(f"expected a path, got {val!r}")
    return val


def _setting(merged: dict, key: str, parse, default=None):
    """merged[key] through parse; a bad value is a usage error that names the key."""
    val = merged.get(key, default)
    if val is None:
        return None
    try:
        return parse(val)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"{key}: {exc}") from None


def _session(args) -> SessionConfig:
    """Config-file defaults overridden by flags; raises ArgumentTypeError on a bad value."""
    merged: dict = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise argparse.ArgumentTypeError(f"--config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise argparse.ArgumentTypeError(f"--config {args.config}: expected a JSON object")
        unknown = [key for key in loaded if key not in _SESSION_KEYS]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"--config {args.config}: unknown key {unknown[0]!r}; accepted keys: {', '.join(_SESSION_KEYS)}"
            )
        merged.update(loaded)
    for key in _SESSION_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return SessionConfig(
        shape=_setting(merged, "shape", _shape_value),
        kappa=_setting(merged, "kappa", _rational_value),
        max_grade=_setting(merged, "max_grade", _int_at_least(0), 4),
        seed=_setting(merged, "seed", _int_at_least(0), 7),
        out=_setting(merged, "out", _str_value),
    )


def _validated(cfg: SessionConfig):
    if cfg.shape is None:
        raise argparse.ArgumentTypeError("a shape is required (--shape P1,P2,...)")
    shape = Partition(cfg.shape)
    value = cfg.kappa
    if value is None:
        kap = default_kappa(shape.parts)
    else:
        kap = make_kappa(value.numerator, value.denominator, shape.parts)
    return shape, kap


def _emit(command: str, cfg: SessionConfig, results, code: int = 0) -> int:
    """Write the report to the --out file in full, then to stdout; code, or 1 if the reader closed stdout.

    A results value may be a function returning a square matrix's rows as {column: entry} of the nonzero
    entries; each writer puts them row by row, as str(entry) and "0", where json.dumps put "\\u0000rows"."""
    doc = {"command": command, "config": cfg.to_dict(), "version": __version__, "results": results}
    streams: list = []
    dumped = json.dumps(doc, indent=1, sort_keys=True, default=lambda f: streams.append(f()) or "\0rows")
    parts = dumped.split('"\\u0000rows"')

    def chunks():
        for head, rows in zip(parts, streams):
            yield head + "["
            for k, row in enumerate(rows):
                texts = map({b: str(v) for b, v in row.items()}.get, range(len(rows)), itertools.repeat("0"))
                yield ("," if k else "") + '\n   [\n    "' + '",\n    "'.join(texts) + '"\n   ]'
            yield "\n  ]"
        yield parts[-1]
        yield "\n"  # its own write: on an unbuffered stdout a short write to a closed pipe raises nothing

    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.writelines(chunks())
        except OSError as exc:
            raise WriteFailed(f"cannot write report file {cfg.out}: {exc.strerror or exc}") from None
    return code if _print(chunks()) else 1


def _print(chunks) -> bool:
    """Write text chunks to stdout; False when the reader has closed it."""
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at /dev/null so that the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


# -- subcommand bodies -------------------------------------------------------


def cmd_tableaux(cfg, args) -> int:
    shape, _ = _validated(cfg)
    rows = [
        {
            "index": k,
            "rows": t.to_lists(),
            "content": list(t.content),
            "inv": t.inv,
            "norm": str(tableaux.norm0(t)),
        }
        for k, t in enumerate(tableaux.enumerate_rsyt(shape))
    ]
    return _emit("tableaux", cfg, {"count": len(rows), "tableaux": rows})


def cmd_rep(cfg, args) -> int:
    shape, _ = _validated(cfg)
    if sorted(args.word) != list(range(1, shape.N + 1)):
        raise argparse.ArgumentTypeError(f"--word must be a permutation of 1..{shape.N}, got {args.word}")
    mat = tableaux.rep_matrix(shape, args.word)
    return _emit("rep", cfg, {"word": list(args.word), "matrix": mat.texts()})


def cmd_nsjp(cfg, args) -> int:
    shape, kap = _validated(cfg)
    alpha = args.alpha
    if len(alpha) != shape.N:
        raise argparse.ArgumentTypeError(f"--alpha needs {shape.N} entries, got {len(alpha)}")
    if not 0 <= args.tableau < shape.dim:
        raise argparse.ArgumentTypeError(f"--tableau must lie in 0..{shape.dim - 1}, got {args.tableau}")
    # every node on the path to the shifted label is built: bound its edges times its exponents
    built = [a - min(min(alpha), 0) for a in alpha]
    d = sum(built)
    work = (d + compositions.steps_count(built)) * math.comb(d + shape.N - 1, shape.N - 1)
    if work > _COUNT_LIMIT:
        raise argparse.ArgumentTypeError(
            f"--alpha {','.join(map(str, alpha))} needs {work} edge-exponent pairs, more than {_COUNT_LIMIT}"
        )
    graph = NsjpGraph(shape, kap)
    node = graph.node(alpha, args.tableau) if min(alpha) >= 0 else None
    results = {
        "alpha": list(alpha),
        "tableau": graph.basis[args.tableau].to_lists(),
        "spectral": [str(s) for s in (node.spectral if node else ())],
        "poly": graph.nsjp_laurent(alpha, args.tableau).to_records(),
    }
    if node:
        results["jumps"] = node.jumps
        results["steps"] = node.steps
    return _emit("nsjp", cfg, results)


def cmd_count(cfg, args) -> int:
    value = compositions.count_Z(args.N, args.n)
    if value > _COUNT_LIMIT:
        raise argparse.ArgumentTypeError(
            f"count_Z({args.N}, {args.n}) = {value} is more than the {_COUNT_LIMIT} vectors count will list"
        )
    listed = len(compositions.enumerate_Z(args.N, args.n))
    return _emit("count", cfg, {"N": args.N, "n": args.n, "count": value, "enumerated": listed})


def cmd_coeffs(cfg, args) -> int:
    shape, kap = _validated(cfg)
    if args.store and Path(args.store).exists():
        store = CoeffStore.load(args.store, kap)
    else:
        store = CoeffStore(shape, kap)
    store.ensure_grade(args.grade if args.grade is not None else cfg.max_grade)
    if args.store:
        store.save(args.store)
    sizes = {str(n): len(store.grades[n]) for n in sorted(store.grades)}
    return _emit(
        "coeffs",
        cfg,
        {"sealed_grade": store.sealed_grade, "canonical_per_grade": sizes, "store": args.store},
    )


def _gram_check(graph: NsjpGraph, store: CoeffStore, degree: int):
    """Degree-ordered (alpha, tableau index) labels to a degree, the nonzero entries of each row of their
    Gram matrix, its number of nonzero off-diagonal entries and whether its diagonal is the closed-form norms."""
    nodes = [(node.alpha, node.t_index) for d in range(degree + 1) for node in graph.build_degree(d)]
    rows = gram_rows(gram(graph, degree, FormContext(store.ensure_grade(degree))))
    off = sum(len(row) - (i in row) for i, row in enumerate(rows))
    norm_ok = all(rows[i].get(i, 0) == nsjp_norm(a, graph.basis[ti], graph.kappa) for i, (a, ti) in enumerate(nodes))
    return nodes, rows, off, norm_ok


def cmd_gram(cfg, args) -> int:
    shape, kap = _validated(cfg)
    nodes, rows, off, norm_ok = _gram_check(NsjpGraph(shape, kap), CoeffStore(shape, kap), args.max_degree)
    basis = [{"alpha": list(a), "tableau_index": ti} for a, ti in nodes]
    results = {"basis": basis, "matrix": lambda: rows, "offdiagonal_nonzero": off, "norms_match": norm_ok}
    return _emit("gram", cfg, results, code=0 if off == 0 and norm_ok else 1)


def _kernel_failures(rep) -> list[str]:
    """The gates a positivity report fails: PSD, Hermiticity, covariance."""
    gates = {
        "min_eigenvalue >= -1e-9": rep.worst["min_eigenvalue"] >= -1e-9,
        "hermiticity_residual < 1e-10": rep.hermiticity_residual < 1e-10,
        "covariance_residual < 1e-10": rep.covariance_residual < 1e-10,
    }
    return [gate for gate, ok in gates.items() if not ok]


def cmd_kernel(cfg, args) -> int:
    shape, kap = _validated(cfg)
    listed = sum(compositions.count_Z(shape.N, n) for n in range(args.max_order + 1))
    if listed > _COUNT_LIMIT:
        raise argparse.ArgumentTypeError(
            f"kernel --max-order {args.max_order} on N = {shape.N} would list {listed} indices, more than {_COUNT_LIMIT}"
        )
    store = CoeffStore(shape, kap)
    rep = psd_report(store, range(1, args.max_order + 1), args.samples, cfg.seed)
    ok = not _kernel_failures(rep)
    return _emit("kernel", cfg, {"report": rep.to_dict(), "passed": ok}, code=0 if ok else 1)


def cmd_identity(cfg, args) -> int:
    # each order n lists (and caches) its zero-sum indices and its degree-n monomials
    listed = sum(compositions.count_Z(args.N, n) + math.comb(args.N + n - 1, n) for n in range(args.max_order + 1))
    if listed > _COUNT_LIMIT:
        raise argparse.ArgumentTypeError(
            f"identity --N {args.N} --max-order {args.max_order} would list {listed} vectors, "
            f"more than {_COUNT_LIMIT}"
        )
    worst = 0.0
    for thetas in _sample_angles(args.N, args.samples, cfg.seed):
        for n in range(args.max_order + 1):
            worst = max(worst, sigma_identity_residual(n, thetas))
    ok = worst < 1e-10
    return _emit(
        "identity",
        cfg,
        {"N": args.N, "max_order": args.max_order, "samples": args.samples, "worst_residual": worst, "passed": ok},
        code=0 if ok else 1,
    )


def cmd_diffsys(cfg, args) -> int:
    shape, kap = _validated(cfg)
    exact_zero = _connection_exact(random.Random(cfg.seed), args.points, shape, kap) is None
    results = {
        "gamma": str(gamma_const(shape)),
        "points": args.points,
        "euler_and_integrability_exact": exact_zero,
    }
    if args.loop_steps:
        # evenly spaced angles maximize pairwise separation for any N
        base = np.array([2 * np.pi * k / shape.N for k in range(shape.N)])
        e1, e2 = 0.2 * np.eye(shape.N)[:2]
        loop = [base, base + e1, base + e1 + e2, base + e2, base]
        transported = integrate_loop(loop, args.loop_steps, shape, kap)
        results["loop_defect"] = float(np.max(np.abs(transported - np.eye(shape.dim))))
        results["transported"] = [[[float(z.real), float(z.imag)] for z in row] for row in transported]
        exact_zero &= results["loop_defect"] < 1e-6
    return _emit("diffsys", cfg, results, code=0 if exact_zero else 1)


def _connection_exact(rng: random.Random, points: int, shape, kap) -> str | None:
    """The first nonzero exact residual at random regular rational points, or None.

    A point is N distinct values of _REGULAR_VALUES drawn by rng, so it has no
    zero and no repeated coordinate, and N above len(_REGULAR_VALUES) is a usage
    error when there is a point to draw.  At each point: the Euler identity,
    then the integrability of every pair i < j.
    """
    if points and shape.N > len(_REGULAR_VALUES):
        raise argparse.ArgumentTypeError(
            f"the exact connection check draws N = {shape.N} distinct coordinates from only "
            f"{len(_REGULAR_VALUES)} values a/b, 0 < |a| <= 12, 1 <= b <= 6"
        )
    pairs = list(itertools.combinations(range(1, shape.N + 1), 2))
    for _ in range(points):
        x = tuple(rng.sample(_REGULAR_VALUES, shape.N))
        m = connections(x, shape)
        if euler_residual(x, m).num.any():
            return f"Euler residual at {x}"
        for (i, j), residual in zip(pairs, integrability_residual(m, kap).num):
            if residual.any():
                return f"integrability residual of ({i}, {j}) at {x}"
    return None


def _require(ok, what: str) -> None:
    """A verification check that also holds under ``python -O``, unlike assert."""
    if not ok:
        raise VerificationFailed(what)


def cmd_verify(cfg, args) -> int:
    shape, kap = _validated(cfg)
    degree = args.max_degree
    graph = NsjpGraph(shape, kap)
    store = CoeffStore(shape, kap)
    checks: list[dict] = []

    def check(name: str, fn) -> None:
        try:
            detail = fn()
            checks.append({"name": name, "passed": True, "detail": detail})
        except Exception as exc:  # noqa: BLE001 - verification harness reports failures
            checks.append({"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"})

    def rep_suite():
        basis = tableaux.enumerate_rsyt(shape)
        ident = Scaled(np.eye(shape.dim, dtype=object), 1)
        dmat = tableaux.norm_matrix(shape)
        for i in range(1, shape.N):
            s = tableaux.simple_reflection(shape, i)
            _require(s @ s == ident, f"s_{i} is not an involution")
            _require(s.T @ dmat @ s == dmat, f"s_{i} is not D-orthogonal")
        for i in range(1, shape.N - 1):
            a = tableaux.simple_reflection(shape, i)
            b = tableaux.simple_reflection(shape, i + 1)
            _require(a @ b @ a == b @ a @ b, f"braid relation fails at {i}")
        for i in range(1, shape.N + 1):
            contents = Scaled(np.diag(np.array([t.content[i - 1] for t in basis], dtype=object)), 1)
            _require(tableaux.jucys_murphy(shape, i) == contents, f"Jucys-Murphy {i} is not diag(c({i}, T))")
        return f"dim {shape.dim}, generators {shape.N - 1}"

    def count_suite():
        for n in range(0, 5):
            _require(
                compositions.count_Z(shape.N, n) == len(compositions.enumerate_Z(shape.N, n)),
                f"count differs from enumeration at n={n}",
            )
        return "counts match enumeration for n <= 4"

    def eigen_suite():
        total = graph.check_eigen(degree)
        graph.check_genericity(degree)
        return f"{total} nodes eigen-checked to degree {degree}"

    def gram_suite():
        nodes, _, off, norm_ok = _gram_check(graph, store, degree)
        _require(off == 0 and norm_ok, f"{off} nonzero off-diagonal entries, norms match: {norm_ok}")
        return f"gram of {len(nodes)} polynomials exactly diagonal"

    def selfadjoint_suite():
        rng = random.Random(cfg.seed)
        for _ in range(10):
            d = rng.randint(1, 2)
            alpha = _random_composition(rng, shape.N, d)
            beta = _random_composition(rng, shape.N, d)
            i = rng.randint(1, shape.N)
            res = store.verify_selfadjoint(alpha, beta, i)
            _require(not res.num.any(), f"residual at {alpha}, {beta}, i={i}")
        return "10 random identities with zero residual"

    def kernel_suite():
        rep = psd_report(store, range(1, 4), 20, cfg.seed)
        failures = _kernel_failures(rep)
        _require(not failures, f"gates failed: {', '.join(failures)}")
        return rep.worst

    def diffsys_suite():
        failure = _connection_exact(random.Random(cfg.seed), 5, shape, kap)
        _require(failure is None, failure)
        return "exact at 5 random rational points"

    check("representation", rep_suite)
    check("counting", count_suite)
    check("nsjp_eigen", eigen_suite)
    check("gram", gram_suite)
    check("selfadjoint", selfadjoint_suite)
    check("kernel_psd", kernel_suite)
    check("diffsys", diffsys_suite)
    passed = all(c["passed"] for c in checks)
    return _emit("verify", cfg, {"checks": checks, "passed": passed}, code=0 if passed else 1)


def _random_composition(rng: random.Random, n: int, total: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return tuple([cuts[0]] + [cuts[k] - cuts[k - 1] for k in range(1, n - 1)] + [total - cuts[-1]])


# -- dispatcher --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacktorus",
        description="Vector-valued Jack polynomials and their torus orthogonality measure",
    )
    parser.add_argument("--config", help="JSON file with default flags (flags override)")
    parser.add_argument("--shape", help="partition, e.g. 2,1")
    parser.add_argument("--kappa", help='parameter as "p/q"')
    parser.add_argument("--max-grade", dest="max_grade", type=_int_at_least(0), help="default coefficient grade cap")
    parser.add_argument("--seed", type=_int_at_least(0), help="RNG seed for sampling subcommands")
    parser.add_argument("--out", help="write the JSON report here as well as stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    command("tableaux", cmd_tableaux, "enumerate tableaux, contents, norms")

    p = command("rep", cmd_rep, "matrix of a permutation")
    p.add_argument("--word", required=True, type=_ints, help="one-line permutation, e.g. 2,1,3")

    p = command("nsjp", cmd_nsjp, "dump one Jack polynomial node")
    p.add_argument("--alpha", required=True, type=_ints, help="exponent vector, e.g. 1,0,2")
    p.add_argument("--tableau", type=int, default=0, help="tableau index in canonical order")

    p = command("gram", cmd_gram, "orthogonality report to a degree")
    p.add_argument("--max-degree", dest="max_degree", type=_int_at_least(0), default=2)

    p = command("coeffs", cmd_coeffs, "build/extend the coefficient store")
    p.add_argument("--grade", type=_int_at_least(0), help="target grade (default: --max-grade)")
    p.add_argument("--store", help="persist/reload path")

    p = command("kernel", cmd_kernel, "kernel positivity report")
    p.add_argument("--max-order", dest="max_order", type=_int_at_least(1), default=4)
    p.add_argument("--samples", type=_int_at_least(1), default=50)

    p = command("identity", cmd_identity, "scalar Cesaro / complete-symmetric residuals")
    p.add_argument("--N", type=_int_at_least(2), default=3)
    p.add_argument("--max-order", dest="max_order", type=_int_at_least(1), default=6)
    p.add_argument("--samples", type=_int_at_least(1), default=50)

    p = command("diffsys", cmd_diffsys, "connection identity checks")
    p.add_argument("--points", type=_int_at_least(0), default=10)
    p.add_argument("--loop-steps", dest="loop_steps", type=_int_at_least(0), default=0)

    p = command("count", cmd_count, "graded index-set count")
    p.add_argument("--N", type=_int_at_least(0), required=True)
    p.add_argument("--n", type=_int_at_least(0), required=True)

    p = command("verify", cmd_verify, "run the invariant suite; nonzero exit on failure")
    p.add_argument("--max-degree", dest="max_degree", type=_int_at_least(0), default=2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _session(args)
        return args.handler(cfg, args)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except JackTorusError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        doc = {"command": args.command, "config": cfg.to_dict(), "version": __version__, "error": error}
        _print([json.dumps(doc, indent=1, sort_keys=True), "\n"])
        return 1


if __name__ == "__main__":
    sys.exit(main())
