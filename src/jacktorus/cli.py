"""Command-line surface: every stage of the pipeline behind one dispatcher.

Each run emits a single JSON document {command, config, version, results};
identical inputs (including the seed) produce byte-identical reports.
Computation failures (excluded parameter, insufficient grade, singular
point) exit 1 with a structured error record; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, compositions, tableaux
from .coeffs import CoeffStore
from .diffsystem import (
    euler_residual,
    gamma_const,
    integrability_residual,
    integrate_loop,
)
from .errors import JackTorusError, VerificationFailed
from .kernels import TorusPoint, psd_report, sigma_identity_residual
from .scalars import complex_pair, make_kappa, rational
from .tableaux import Partition
from .torusform import FormContext, gram, nsjp_norm
from .ybgraph import NsjpGraph


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


def _parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _parse_vec(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _session(args) -> SessionConfig:
    merged: dict = {}
    if args.config:
        merged.update(json.loads(Path(args.config).read_text()))
    for key in ("shape", "kappa", "max_grade", "seed", "out"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    shape = merged.get("shape")
    if isinstance(shape, str):
        shape = _parse_shape(shape)
    elif isinstance(shape, list):
        shape = tuple(shape)
    kappa = merged.get("kappa")
    if kappa is not None:
        kappa = rational(kappa)
    return SessionConfig(
        shape=shape,
        kappa=kappa,
        max_grade=int(merged.get("max_grade", 4)),
        seed=int(merged.get("seed", 7)),
        out=merged.get("out"),
    )


def _validated(cfg: SessionConfig):
    if cfg.shape is None:
        raise SystemExit("a shape is required (--shape P1,P2,...)")
    shape = Partition(cfg.shape)
    value = cfg.kappa
    if value is None:
        from .scalars import default_kappa

        kap = default_kappa(shape.parts)
    else:
        kap = make_kappa(value.numerator, value.denominator, shape.parts)
    return shape, kap


def _emit(command: str, cfg: SessionConfig, results, code: int = 0) -> int:
    doc = {
        "command": command,
        "config": cfg.to_dict(),
        "version": __version__,
        "results": results,
    }
    text = json.dumps(doc, indent=1, sort_keys=True)
    if cfg.out:
        Path(cfg.out).write_text(text + "\n")
    print(text)
    return code


def _matrix_records(mat) -> list[list[str]]:
    return [[str(x) for x in row] for row in mat]


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
    w = _parse_vec(args.word)
    mat = tableaux.rep_matrix(shape, w)
    return _emit("rep", cfg, {"word": list(w), "matrix": _matrix_records(mat)})


def cmd_nsjp(cfg, args) -> int:
    shape, kap = _validated(cfg)
    graph = NsjpGraph(shape, kap)
    alpha = _parse_vec(args.alpha)
    node = graph.build_nsjp(tuple(max(a, 0) for a in alpha), args.tableau) if min(alpha) >= 0 else None
    poly = graph.nsjp_laurent(alpha, args.tableau)
    results = {
        "alpha": list(alpha),
        "tableau": graph.basis[args.tableau].to_lists(),
        "spectral": [str(s) for s in (node.spectral if node else ())],
        "poly": poly.to_records(),
    }
    if node:
        results["jumps"] = node.jumps
        results["steps"] = node.steps
    return _emit("nsjp", cfg, results)


def cmd_count(cfg, args) -> int:
    value = compositions.count_Z(args.N, args.n)
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


def cmd_gram(cfg, args) -> int:
    shape, kap = _validated(cfg)
    degree = args.max_degree
    graph = NsjpGraph(shape, kap)
    store = CoeffStore(shape, kap)
    store.ensure_grade(degree)
    ctx = FormContext(store)
    nodes = [
        (node.alpha, node.t_index)
        for d in range(degree + 1)
        for node in graph.build_degree(d)
    ]
    mat = gram(graph, nodes, ctx)
    off = sum(
        1 for i in range(len(nodes)) for j in range(len(nodes)) if i != j and mat[i, j] != 0
    )
    norm_ok = all(
        mat[i, i] == nsjp_norm(a, graph.basis[ti], kap) for i, (a, ti) in enumerate(nodes)
    )
    return _emit(
        "gram",
        cfg,
        {
            "basis": [{"alpha": list(a), "tableau_index": ti} for a, ti in nodes],
            "matrix": _matrix_records(mat),
            "offdiagonal_nonzero": off,
            "norms_match": norm_ok,
        },
        code=0 if off == 0 and norm_ok else 1,
    )


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
    store = CoeffStore(shape, kap)
    rep = psd_report(store, range(1, args.max_order + 1), args.samples, cfg.seed)
    ok = not _kernel_failures(rep)
    return _emit("kernel", cfg, {"report": rep.to_dict(), "passed": ok}, code=0 if ok else 1)


def cmd_identity(cfg, args) -> int:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(args.samples):
        x = TorusPoint.from_angles(rng.uniform(-np.pi, np.pi, args.N))
        for n in range(args.max_order + 1):
            worst = max(worst, sigma_identity_residual(n, x))
    ok = worst < 1e-10
    return _emit(
        "identity",
        cfg,
        {"N": args.N, "max_order": args.max_order, "samples": args.samples, "worst_residual": worst, "passed": ok},
        code=0 if ok else 1,
    )


def cmd_diffsys(cfg, args) -> int:
    shape, kap = _validated(cfg)
    rng = np.random.default_rng(cfg.seed)
    exact_zero = True
    for _ in range(args.points):
        x = _random_regular(rng, shape.N)
        e = euler_residual(x, shape)
        exact_zero &= bool(np.all(e == Fraction(0)))
        for i in range(1, shape.N + 1):
            for j in range(i + 1, shape.N + 1):
                r = integrability_residual(i, j, x, shape, kap)
                exact_zero &= bool(np.all(r == Fraction(0)))
    results = {
        "gamma": str(gamma_const(shape)),
        "points": args.points,
        "euler_and_integrability_exact": exact_zero,
    }
    if args.loop_steps:
        # evenly spaced angles maximize pairwise separation for any N
        base = np.array([2 * np.pi * k / shape.N for k in range(shape.N)])
        sq = 0.2
        e1 = np.zeros(shape.N)
        e1[0] = sq
        e2 = np.zeros(shape.N)
        e2[1] = sq
        loop = [base, base + e1, base + e1 + e2, base + e2, base]
        transported = integrate_loop(loop, args.loop_steps, shape, kap)
        results["loop_defect"] = float(np.max(np.abs(transported - np.eye(shape.dim))))
        results["transported"] = [[complex_pair(z) for z in row] for row in transported]
        exact_zero &= results["loop_defect"] < 1e-6
    return _emit("diffsys", cfg, results, code=0 if exact_zero else 1)


def _random_regular(rng, n: int):
    while True:
        vals = [Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 7))) for _ in range(n)]
        if 0 not in vals and len(set(vals)) == n:
            return tuple(vals)


def _require(ok, what: str) -> None:
    """A verification check that also holds under ``python -O``, unlike assert."""
    if not ok:
        raise VerificationFailed(what)


def cmd_verify(cfg, args) -> int:
    shape, kap = _validated(cfg)
    degree = args.max_degree
    checks: list[dict] = []

    def check(name: str, fn) -> None:
        try:
            detail = fn()
            checks.append({"name": name, "passed": True, "detail": detail})
        except Exception as exc:  # noqa: BLE001 - verification harness reports failures
            checks.append({"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"})

    def rep_suite():
        basis = tableaux.enumerate_rsyt(shape)
        ident = tableaux.identity_matrix(shape.dim)
        dmat = np.diag(np.array(tableaux.norm0_diag(shape), dtype=object))
        for i in range(1, shape.N):
            s = tableaux.simple_reflection(shape, i)
            _require(np.all(s @ s == ident), f"s_{i} is not an involution")
            _require(np.all(s.T @ dmat @ s == dmat), f"s_{i} is not D-orthogonal")
        for i in range(1, shape.N - 1):
            a = tableaux.simple_reflection(shape, i)
            b = tableaux.simple_reflection(shape, i + 1)
            _require(np.all(a @ b @ a == b @ a @ b), f"braid relation fails at {i}")
        for i in range(1, shape.N + 1):
            jm = tableaux.jucys_murphy(shape, i)
            for k, t in enumerate(basis):
                _require(jm[k, k] == t.content[i - 1], f"Jucys-Murphy {i} diagonal at tableau {k}")
            _require(np.all(jm * (1 - np.eye(shape.dim, dtype=object)) == 0), f"Jucys-Murphy {i} not diagonal")
        return f"dim {shape.dim}, generators {shape.N - 1}"

    def count_suite():
        for n in range(0, 5):
            _require(
                compositions.count_Z(shape.N, n) == len(compositions.enumerate_Z(shape.N, n)),
                f"count differs from enumeration at n={n}",
            )
        return "counts match enumeration for n <= 4"

    def eigen_suite():
        from .laurent import cherednik

        graph = NsjpGraph(shape, kap)
        total = 0
        for dd in range(degree + 1):
            for node in graph.build_degree(dd):
                for i in range(1, shape.N + 1):
                    _require(
                        cherednik(i, node.poly) == node.poly.scale(node.spectral[i - 1]),
                        f"{node.alpha}, tableau {node.t_index} is not an eigenvector of xi_{i}",
                    )
                total += 1
        graph.check_genericity(degree)
        return f"{total} nodes eigen-checked to degree {degree}"

    def gram_suite():
        graph = NsjpGraph(shape, kap)
        store = CoeffStore(shape, kap).ensure_grade(degree)
        ctx = FormContext(store)
        nodes = [
            (node.alpha, node.t_index)
            for dd in range(degree + 1)
            for node in graph.build_degree(dd)
        ]
        mat = gram(graph, nodes, ctx)
        for i, (a, ti) in enumerate(nodes):
            _require(mat[i, i] == nsjp_norm(a, graph.basis[ti], kap), f"norm of {a}, tableau {ti}")
            for j in range(len(nodes)):
                _require(i == j or mat[i, j] == 0, f"gram entry ({i}, {j}) is nonzero")
        return f"gram of {len(nodes)} polynomials exactly diagonal"

    def selfadjoint_suite():
        store = CoeffStore(shape, kap)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            alpha = _random_composition(rng, shape.N, d)
            beta = _random_composition(rng, shape.N, d)
            i = int(rng.integers(1, shape.N + 1))
            res = store.verify_selfadjoint(alpha, beta, i)
            _require(np.all(res == Fraction(0)), f"residual at {alpha}, {beta}, i={i}")
        return "10 random identities with zero residual"

    def kernel_suite():
        store = CoeffStore(shape, kap)
        rep = psd_report(store, range(1, 4), 20, cfg.seed)
        failures = _kernel_failures(rep)
        _require(not failures, f"gates failed: {', '.join(failures)}")
        return rep.worst

    def diffsys_suite():
        rng = np.random.default_rng(cfg.seed)
        for _ in range(5):
            x = _random_regular(rng, shape.N)
            _require(np.all(euler_residual(x, shape) == Fraction(0)), f"Euler residual at {x}")
            _require(
                np.all(integrability_residual(1, 2, x, shape, kap) == Fraction(0)),
                f"integrability residual at {x}",
            )
        gamma_const(shape)
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


def _random_composition(rng, n: int, total: int) -> tuple[int, ...]:
    cuts = sorted(rng.integers(0, total + 1, n - 1))
    parts = [cuts[0]] + [cuts[k] - cuts[k - 1] for k in range(1, n - 1)] + [total - cuts[-1]]
    return tuple(int(p) for p in parts)


# -- dispatcher --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacktorus",
        description="Vector-valued Jack polynomials and their torus orthogonality measure",
    )
    parser.add_argument("--config", help="JSON file with default flags (flags override)")
    parser.add_argument("--shape", help="partition, e.g. 2,1")
    parser.add_argument("--kappa", help='parameter as "p/q"')
    parser.add_argument("--max-grade", dest="max_grade", type=int, help="default coefficient grade cap")
    parser.add_argument("--seed", type=int, help="RNG seed for sampling subcommands")
    parser.add_argument("--out", help="write the JSON report here as well as stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tableaux", help="enumerate tableaux, contents, norms")

    p = sub.add_parser("rep", help="matrix of a permutation")
    p.add_argument("--word", required=True, help="one-line permutation, e.g. 2,1,3")

    p = sub.add_parser("nsjp", help="dump one Jack polynomial node")
    p.add_argument("--alpha", required=True, help="exponent vector, e.g. 1,0,2")
    p.add_argument("--tableau", type=int, default=0, help="tableau index in canonical order")

    p = sub.add_parser("gram", help="orthogonality report to a degree")
    p.add_argument("--max-degree", dest="max_degree", type=int, default=2)

    p = sub.add_parser("coeffs", help="build/extend the coefficient store")
    p.add_argument("--grade", type=int, help="target grade (default: --max-grade)")
    p.add_argument("--store", help="persist/reload path")

    p = sub.add_parser("kernel", help="kernel positivity report")
    p.add_argument("--max-order", dest="max_order", type=int, default=4)
    p.add_argument("--samples", type=int, default=50)

    p = sub.add_parser("identity", help="scalar Cesaro / complete-symmetric residuals")
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--max-order", dest="max_order", type=int, default=6)
    p.add_argument("--samples", type=int, default=50)

    p = sub.add_parser("diffsys", help="connection identity checks")
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--loop-steps", dest="loop_steps", type=int, default=0)

    p = sub.add_parser("count", help="graded index-set count")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="run the invariant suite; nonzero exit on failure")
    p.add_argument("--max-degree", dest="max_degree", type=int, default=2)

    return parser


_HANDLERS = {
    "tableaux": cmd_tableaux,
    "rep": cmd_rep,
    "nsjp": cmd_nsjp,
    "gram": cmd_gram,
    "coeffs": cmd_coeffs,
    "kernel": cmd_kernel,
    "identity": cmd_identity,
    "diffsys": cmd_diffsys,
    "count": cmd_count,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _session(args)
    try:
        return _HANDLERS[args.command](cfg, args)
    except JackTorusError as exc:
        doc = {
            "command": args.command,
            "config": cfg.to_dict(),
            "version": __version__,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
