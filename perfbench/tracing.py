"""Spans and counts recorded around calls into the package's public names.

Nothing in the package changes.  ``Tracer.install`` wraps each traced
function once and rebinds every ``threespheres.*`` module attribute that
holds it, because ``sweep``, ``verify`` and ``cli`` bind imported names at
import time (``threespheres.sweep.inversion_map`` is the same object as
``threespheres.geometry.inversion_map``).  Methods and classmethods are
wrapped on their class.

A span is ``[name, start, end, thread id, parent span, covered]``: the parent
is the innermost open span of the same thread, and ``covered`` is the time
its direct children took, so self time is the duration minus ``covered``.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# group -> (owner, attribute) pairs; owner is a module or class path
GROUPS = {
    "harmonic.eval": [("threespheres.harmonic.PolynomialEvaluator", "values"),
                      ("threespheres.harmonic.PolynomialEvaluator",
                       "squared_values")],
    "harmonic.synth": [("threespheres.harmonic", "random_harmonic_polynomial")],
    "quadrature.rule": [("threespheres.quadrature.SphereRule", "product"),
                        ("threespheres.quadrature.SphereRule", "monte_carlo")],
    "quadrature.integral": [
        ("threespheres.quadrature", "surface_integral"),
        ("threespheres.quadrature", "weighted_surface_integral_sa"),
        ("threespheres.quadrature", "ball_integral"),
        ("threespheres.quadrature", "weighted_ball_integral_mua")],
    "geometry.inversion": [("threespheres.geometry", "inversion_map")],
    "geometry.family": [("threespheres.geometry.CorrelatedFamily", name)
                        for name in ("create", "exponents", "radius",
                                     "image_radius")],
    "verify.check": [("threespheres.verify", name) for name in (
        "gradient_identity_check", "derivative_identity_check",
        "transfer_identity_check", "log_convexity_check",
        "three_spheres_check", "holomorphic_variant_check",
        "three_balls_check", "embedded_bound_check",
        "embedding_identity_check")],
    "verify.report": [("threespheres.verify", "upper_report"),
                      ("threespheres.verify", "identity_report")],
    "sweep.run": [("threespheres.sweep", "run_sweep")],
    "cli.write": [("threespheres.sweep", "write_csv"),
                  ("threespheres.sweep", "write_json")],
    "uniqueness.trace": [("threespheres.uniqueness", "criterion_trace")],
}


def _resolve(path: str):
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:i]))
        if mod is not None:
            obj = mod
            for p in parts[i:]:
                obj = getattr(obj, p)
            return obj
    raise LookupError(path)


class Tracer:
    """Records spans and exact counts for one pass of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = {}
        self.rule_keys: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, group: str, fn):
        spans = self.spans
        local = self._local
        count = getattr(self, "_count_" + group.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            rec = [group, 0.0, 0.0, threading.get_ident(), parent, 0.0]
            spans.append(rec)
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[5] += rec[2] - rec[1]
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "threespheres" or name.startswith("threespheres.")]
        for group, targets in GROUPS.items():
            for owner_path, attr in targets:
                owner = _resolve(owner_path)
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(owner, attr,
                                classmethod(self._wrap(group, raw.__func__)))
                    else:
                        setattr(owner, attr, self._wrap(group, raw))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(group, orig)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapped)

    # exact counts, taken where the work happens ---------------------------

    def _count_harmonic_eval(self, args, kwargs, result):
        evaluator, points = args[0], args[1]
        n_pts = len(points)
        monomials = evaluator.exponents.shape[0]
        polys = evaluator.coeffs.shape[1]
        self.add("harmonic.points", n_pts)
        self.add("harmonic.point_monomials", n_pts * monomials)
        # two real dgemms (N x M) @ (M x P), 2 flops per multiply-add
        self.add("harmonic.flop_computed", 4 * n_pts * monomials * polys)

    def _count_quadrature_rule(self, args, kwargs, result):
        key = (result.kind, result.n, result.degree, result.samples,
               result.seed)
        with self._lock:
            new = key not in self.rule_keys
            self.rule_keys.add(key)
        if new:
            self.add("quadrature.rule_nodes", len(result.weights))
        else:
            self.add("quadrature.rule_reused", 1)

    def _count_geometry_inversion(self, args, kwargs, result):
        pts = args[1] if len(args) > 1 else kwargs["y"]
        self.add("geometry.inversion_points",
                 1 if getattr(pts, "ndim", 2) == 1 else len(pts))

    def _count_uniqueness_trace(self, args, kwargs, result):
        self.add("uniqueness.trace_terms",
                 result.terms_a.size + result.terms_b.size)

    # aggregation -----------------------------------------------------------

    def layer_metrics(self, threads: int) -> dict:
        """Busy time per group (outermost spans of that group, summed over
        threads), self time, call counts, and the derived ratios."""
        busy: dict = {}
        self_s: dict = {}
        calls: dict = {}
        for rec in self.spans:
            group, start, end, _tid, parent, covered = rec
            dur = end - start
            calls[group] = calls.get(group, 0) + 1
            self_s[group] = self_s.get(group, 0.0) + dur - covered
            anc = parent
            while anc is not None and anc[0] != group:
                anc = anc[4]
            if anc is None:
                busy[group] = busy.get(group, 0.0) + dur
        c = self.counts
        m = {
            "harmonic.eval_s": busy.get("harmonic.eval", 0.0),
            "harmonic.eval_calls": calls.get("harmonic.eval", 0),
            "harmonic.points": c.get("harmonic.points", 0),
            "harmonic.point_monomials": c.get("harmonic.point_monomials", 0),
            "harmonic.gflop_computed": c.get("harmonic.flop_computed", 0) / 1e9,
            "harmonic.synth_s": busy.get("harmonic.synth", 0.0),
            "quadrature.rule_s": busy.get("quadrature.rule", 0.0),
            "quadrature.rule_calls": calls.get("quadrature.rule", 0),
            "quadrature.rule_nodes": c.get("quadrature.rule_nodes", 0),
            "quadrature.integral_s": busy.get("quadrature.integral", 0.0),
            "quadrature.integral_self_s": self_s.get("quadrature.integral", 0.0),
            "quadrature.integral_calls": calls.get("quadrature.integral", 0),
            "geometry.inversion_s": busy.get("geometry.inversion", 0.0),
            "geometry.inversion_points": c.get("geometry.inversion_points", 0),
            "geometry.family_s": busy.get("geometry.family", 0.0),
            "verify.check_s": busy.get("verify.check", 0.0),
            "verify.check_self_s": self_s.get("verify.check", 0.0),
            "verify.check_calls": calls.get("verify.check", 0),
            "verify.report_s": busy.get("verify.report", 0.0),
            "verify.reports": calls.get("verify.report", 0),
            "sweep.run_s": busy.get("sweep.run", 0.0),
            "cli.write_s": busy.get("cli.write", 0.0),
            "uniqueness.trace_s": busy.get("uniqueness.trace", 0.0),
            "uniqueness.trace_terms": c.get("uniqueness.trace_terms", 0),
        }
        m["harmonic.ns_per_point_monomial"] = _ratio(
            m["harmonic.eval_s"] * 1e9, m["harmonic.point_monomials"])
        m["quadrature.rule_reuse_ratio"] = _ratio(
            c.get("quadrature.rule_reused", 0), m["quadrature.rule_calls"])
        m["quadrature.nodes_per_eval"] = _ratio(m["harmonic.points"],
                                                m["harmonic.eval_calls"])
        covered, capacity = self._sweep_cover(threads)
        m["sweep.uncovered_s"] = capacity - covered if capacity else 0.0
        m["sweep.parallel_eff"] = _ratio(covered, capacity)
        m["bases"] = {
            "harmonic.ns_per_point_monomial": [m["harmonic.eval_s"] * 1e9,
                                               m["harmonic.point_monomials"]],
            "quadrature.rule_reuse_ratio": [c.get("quadrature.rule_reused", 0),
                                            m["quadrature.rule_calls"]],
            "quadrature.nodes_per_eval": [m["harmonic.points"],
                                          m["harmonic.eval_calls"]],
            "sweep.parallel_eff": [covered, capacity],
        }
        return m

    def _sweep_cover(self, threads: int):
        """Child busy time inside ``run_sweep`` spans and their capacity,
        run time x threads.  A child is a span that opens inside the run
        window and has no open parent other than the run span: in pool
        threads that is every outermost span."""
        covered = capacity = 0.0
        for run in (r for r in self.spans if r[0] == "sweep.run"):
            capacity += (run[2] - run[1]) * threads
            for rec in self.spans:
                if (rec is not run and run[1] <= rec[1] <= run[2]
                        and (rec[4] is None or rec[4] is run)):
                    covered += rec[2] - rec[1]
        return covered, capacity

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines; parents by index."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        t0 = min((rec[1] for rec in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, tid, parent, _c) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "run": self.run_id, "name": name,
                    "start": start - t0, "end": end - t0, "thread": tid,
                    "parent": None if parent is None else index[id(parent)],
                }) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
