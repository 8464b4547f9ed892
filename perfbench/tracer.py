"""Per-layer spans and counters for one jacktorus CLI process, recorded from outside.

``Tracer.install()`` replaces the public functions of each jacktorus module
with timing wrappers.  A function is patched at every module attribute bound
to it (``cli`` imports ``gram``, ``psd_report``, ``integrate_loop`` and others
by name, ``ybgraph`` imports ``group_action``), and a method on its class.
``Tracer.uninstall()`` puts every original object back.

A span's self time is its duration minus the time covered by wrapped calls
made inside it.  Counters are taken in hooks that run outside the timed span;
their cost goes to the ``trace.hooks_s`` bucket, so that the self times plus
``cli.self_s`` add up to the traced wall time exactly.

The package is imported lazily, inside ``install()``, so that importing this
module costs nothing when tracing is off.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# self time of these spans is also reported inclusive, as <name>.total_s
STAGES = (
    "torusform.gram",
    "coeffs.solve_grade",
    "kernels.grade_arrays",
    "diffsystem.integrate_loop",
)

# gauges keep their last value when invocations are merged; other counts add
GAUGES = ("coeffs.store_bytes",)


class Tracer:
    """Spans and counters kept in memory for one process; see ``raw()``."""

    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.covered_ns = 0  # time inside outermost spans, hooks included
        self._stack: list[int] = []  # time covered by children, per open span
        self._patches: list[tuple[object, str, object]] = []
        self._degree_hist: dict[int, tuple[object, dict[int, int]]] = {}
        self._rep_matrix = None
        self._rep_info0 = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, bucket=None, before=None, after=None):
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        total_ns = self.total_ns if name in STAGES else None
        counts = self.counts
        calls_key = name + ".calls"

        def close(elapsed):
            if stack:
                stack[-1] += elapsed
            else:
                self.covered_ns += elapsed

        def wrapper(*args, **kwargs):
            h0 = clock()
            state = before(args) if before is not None else None
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                self_ns[bucket(args) if bucket is not None else name] += dur - stack.pop()
                if total_ns is not None:
                    total_ns[name] += dur
                counts[calls_key] += 1
                close(dur)
            if after is not None:
                after(args, result, state)
            hooks = (t0 - h0) + (clock() - t1)
            self_ns["trace.hooks"] += hooks
            close(hooks)
            return result

        return wrapper

    def _patch_function(self, name, fn, **hooks) -> None:
        """Rebind fn, wrapped, at every jacktorus module attribute that holds it."""
        wrapper = self._wrap(name, fn, **hooks)
        for modname, mod in list(sys.modules.items()):
            if modname != "jacktorus" and not modname.startswith("jacktorus."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name, **hooks) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__, **hooks))
        else:
            replacement = self._wrap(name, original, **hooks)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def install(self) -> "Tracer":
        from jacktorus import (  # noqa: F401 - every module must be loaded to be patched
            _accel,
            cli,
            coeffs,
            compositions,
            diffsystem,
            kernels,
            laurent,
            tableaux,
            torusform,
            ybgraph,
        )

        if self._patches:
            raise RuntimeError("tracer already installed")
        fn = self._patch_function
        meth = self._patch_method

        fn("torusform.gram", torusform.gram)
        fn("torusform.pair", torusform.pair, after=self._after_pair)
        fn("torusform.nsjp_norm", torusform.nsjp_norm)
        meth(torusform.FormContext, "pairing", "torusform.pairing")

        meth(
            coeffs.CoeffStore,
            "solve_grade",
            "coeffs.solve_grade",
            bucket=lambda args: f"coeffs.solve_grade.g{args[1]}",
            before=lambda args: args[1] > args[0].sealed_grade,
            after=self._after_solve_grade,
        )
        meth(coeffs.CoeffStore, "ortho_coeff_float", "coeffs.ortho_coeff_float")
        meth(coeffs.CoeffStore, "pairing_matrix", "coeffs.pairing_matrix")
        meth(coeffs.CoeffStore, "save", "coeffs.save", after=self._after_save)
        meth(coeffs.CoeffStore, "load", "coeffs.load")

        meth(
            kernels.FloatCoeffs,
            "grade_arrays",
            "kernels.grade_arrays",
            before=lambda args: args[1] in args[0]._grades,
            after=self._after_grade_arrays,
        )
        meth(kernels.FloatCoeffs, "rep_float", "kernels.rep_float")
        fn("kernels.kernel_eval", kernels.kernel_eval)
        fn("kernels.min_eigenvalue", kernels.min_eigenvalue)
        fn("kernels.psd_report", kernels.psd_report)

        fn("accel.phase_matrix_sum", _accel.phase_matrix_sum, after=self._after_phase_sum)
        fn("accel.jacobi_eigvals", _accel.jacobi_eigvals)
        fn("accel.rk4_transport", _accel.rk4_transport, after=self._after_rk4)

        fn("diffsystem.integrate_loop", diffsystem.integrate_loop)
        fn("diffsystem.integrability_residual", diffsystem.integrability_residual)
        fn("diffsystem.euler_residual", diffsystem.euler_residual)

        self._rep_matrix = tableaux.rep_matrix
        self._rep_info0 = tableaux.rep_matrix.cache_info()
        fn("tableaux.rep_matrix", tableaux.rep_matrix)

        fn("compositions.canonicalize", compositions.canonicalize)
        fn("compositions.enumerate_Z", compositions.enumerate_Z)

        meth(ybgraph.NsjpGraph, "build_degree", "ybgraph.build_degree", after=self._after_build_degree)
        fn("laurent.group_action", laurent.group_action)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first; safe to call twice."""
        if self._rep_info0 is not None:
            info = self._rep_matrix.cache_info()
            self.counts["tableaux.rep_matrix.hits"] += info.hits - self._rep_info0.hits
            self.counts["tableaux.rep_matrix.misses"] += info.misses - self._rep_info0.misses
            self._rep_info0 = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._degree_hist.clear()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- counters --------------------------------------------------------------

    def _hist(self, poly) -> dict[int, int]:
        # keyed by id with a strong reference, so an id is never reused meanwhile
        hit = self._degree_hist.get(id(poly))
        if hit is None:
            hist: dict[int, int] = {}
            for alpha in poly.terms:
                d = sum(alpha)
                hist[d] = hist.get(d, 0) + 1
            hit = (poly, hist)
            self._degree_hist[id(poly)] = hit
        return hit[1]

    def _after_pair(self, args, result, _state) -> None:
        hf = self._hist(args[0])
        hg = self._hist(args[1])
        self.counts["torusform.term_pairs"] += len(args[0].terms) * len(args[1].terms)
        self.counts["torusform.same_degree_pairs"] += sum(n * hg.get(d, 0) for d, n in hf.items())
        if result != 0:
            self.counts["torusform.gram.nonzero"] += 1

    def _after_solve_grade(self, args, _result, was_open) -> None:
        if was_open:
            store, n = args[0], args[1]
            self.counts["coeffs.canonical_indices"] += len(store.grades[n])

    def _after_save(self, args, _result, _state) -> None:
        self.counts["coeffs.store_bytes"] = os.path.getsize(args[1])

    def _after_grade_arrays(self, _args, _result, was_cached) -> None:
        if was_cached:
            self.counts["kernels.grade_arrays.hits"] += 1

    def _after_phase_sum(self, args, _result, _state) -> None:
        mats = args[1]
        self.counts["accel.phase_matrix_sum.terms"] += mats.shape[0]
        self.counts["accel.phase_matrix_sum.bytes_computed"] += mats.shape[0] * mats.shape[1] * mats.shape[2] * 16

    def _after_rk4(self, args, _result, _state) -> None:
        self.counts["accel.rk4_transport.steps"] += int(args[2])

    def _after_build_degree(self, _args, result, _state) -> None:
        self.counts["ybgraph.nodes"] += len(result)

    # -- export ----------------------------------------------------------------

    def raw(self) -> dict:
        """JSON-ready nanosecond buckets and counts of this process."""
        return {
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "counts": dict(self.counts),
            "covered_ns": self.covered_ns,
        }


def merge(raws: list[dict]) -> dict:
    """Add the records of several processes (the invocations of one unit)."""
    out = {"self_ns": defaultdict(int), "total_ns": defaultdict(int), "counts": defaultdict(int), "covered_ns": 0}
    for raw in raws:
        for key in ("self_ns", "total_ns"):
            for name, ns in raw[key].items():
                out[key][name] += ns
        for name, n in raw["counts"].items():
            if name in GAUGES:
                out["counts"][name] = n
            else:
                out["counts"][name] += n
        out["covered_ns"] += raw["covered_ns"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, wall_ns: int, report_bytes: int, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metric values from one (merged) traced unit.

    ``wall_ns`` is the traced handler wall time; ``untraced_wall_s`` the median
    handler wall time of the untraced units of the same run.
    """
    s = {name: ns / 1e9 for name, ns in raw["self_ns"].items()}
    total = {name: ns / 1e9 for name, ns in raw["total_ns"].items()}
    c = raw["counts"]
    out: dict[str, float] = {}
    for name, value in s.items():
        out[name + ".s"] = value
        if name.startswith("coeffs.solve_grade.g"):
            out["coeffs.solve_grade.s"] = out.get("coeffs.solve_grade.s", 0.0) + value
    out["trace.hooks_s"] = out.pop("trace.hooks.s", 0.0)
    for name, value in total.items():
        out[name + ".total_s"] = value
    for name, n in c.items():
        out[name] = float(n)
    out["accel.rk4_transport.field_evals"] = 4.0 * c.get("accel.rk4_transport.steps", 0)
    out["torusform.same_degree_ratio"] = _ratio(
        c.get("torusform.same_degree_pairs", 0), c.get("torusform.term_pairs", 0)
    )
    out["torusform.gram.nonzero_ratio"] = _ratio(
        c.get("torusform.gram.nonzero", 0), c.get("torusform.pair.calls", 0)
    )
    out["torusform.pairing.hit_ratio"] = _ratio(
        c.get("torusform.pairing.calls", 0) - c.get("coeffs.pairing_matrix.calls", 0),
        c.get("torusform.pairing.calls", 0),
    )
    out["kernels.grade_arrays.hit_ratio"] = _ratio(
        c.get("kernels.grade_arrays.hits", 0), c.get("kernels.grade_arrays.calls", 0)
    )
    hits = c.get("tableaux.rep_matrix.hits", 0)
    out["tableaux.rep_matrix.hit_ratio"] = _ratio(hits, hits + c.get("tableaux.rep_matrix.misses", 0))
    out["cli.self_s"] = (wall_ns - raw["covered_ns"]) / 1e9
    out["cli.report_bytes"] = float(report_bytes)
    out["trace.wall_s"] = wall_ns / 1e9
    out["trace_overhead"] = wall_ns / 1e9 / untraced_wall_s - 1.0
    return out


def accounted_s(metrics: dict[str, float]) -> float:
    """Self times (one bucket each) plus hooks and cli.self_s; equals trace.wall_s."""
    return sum(
        v
        for k, v in metrics.items()
        if k.endswith(".s") and not k.startswith("coeffs.solve_grade.g")
    ) + metrics["trace.hooks_s"] + metrics["cli.self_s"]
