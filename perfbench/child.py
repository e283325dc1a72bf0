"""One pass of a workload, or the sampled oracle check, in a fresh process.

``run.py`` starts this script once per pass, so peak RSS and the package's
rule caches belong to that pass as they do for a command-line user.  A
``sweeps`` pass calls ``cli.main`` once per sweep part, in one process, as
a script that verifies the three configs would:

    python3 perfbench/child.py pass --workload W --seed S --dir D --spawn T [--trace]
    python3 perfbench/child.py oracle --workload W --seed S --dir D --spawn T

``--spawn`` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process; ``setup_s`` is measured from it.  The package is
imported from ``PYTHONPATH``.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

import threespheres
import tracing
import workloads as wl
from threespheres import (cli, geometry, harmonic, quadrature, sweep,
                          uniqueness, verify)

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")
OPENBLAS_THREAD_FNS = ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")
# sweep rows recomputed per check name by the oracle
ORACLE_SAMPLES = 2


class _Norm2:
    """|y|^2: not harmonic, so the identities are tested off the corpus."""

    degree = 2

    def __call__(self, pts):
        pts = np.asarray(pts)
        return np.einsum("ij,ij->i", pts, pts)


def _extra_norm2(pts):
    """|y''|^2 over the five embedding coordinates of a point of R^{2+5}."""
    tail = np.asarray(pts)[:, 2:]
    return np.einsum("ij,ij->i", tail, tail)


def _rotation(n: int, seed: int):
    """Seeded orthogonal matrix; the identity at the default seed."""
    if seed == wl.DEFAULT_SEED:
        return np.eye(n)
    q, r = np.linalg.qr(np.random.default_rng([seed, n]).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def api_inputs(seed: int) -> dict:
    """Functions, geometries and the smallness sequence of ``api_scalar``.

    At the default seed these are the inputs of acceptance criteria 5 and 6
    (geometry seeds 505 and 606, polynomial seeds 1, 2 and 0..9).  Other
    seeds shift the polynomial seeds and rotate every geometry, which keeps
    the rule sizes, so the work, unchanged.
    """

    rhp = harmonic.random_harmonic_polynomial
    shift = 1000 * seed
    c5, c6, balls = [], [], []
    for n in (2, 3):
        rot = _rotation(n, seed)
        fns = [harmonic.HarmonicPolynomial(n, {(0,) * n: 1.0}),
               harmonic.HarmonicPolynomial(n, {(1,) + (0,) * (n - 1): 1.0}),
               _Norm2(), rhp(n, 4, seed=1 + shift), rhp(n, 8, seed=2 + shift)]
        for x, r in sweep.sample_geometries(n, wl.API["c5_geometries"],
                                            wl.C5_GEOMETRY_SEED):
            c5.append((fns, rot @ x, r))
        polys = [rhp(n, 8, seed=i + shift) for i in range(wl.API["c6_polys"])]
        geoms = sweep.sample_geometries(n, wl.API["c6_geometries"],
                                        wl.C6_GEOMETRY_SEED)
        for ci, (x, r) in enumerate(geoms):
            c6.append((polys, rot @ x, r, (0.1, 0.6, 1.0)[ci % 3]))
        # |x| >= 1/2 is the embedded bound's precondition; the margin keeps
        # the balls away from touching, where rule sizes explode
        for x, r in sweep.sample_geometries(n, wl.API["ball_geometries"],
                                            wl.BALL_GEOMETRY_SEED,
                                            x_range=(0.5, 0.6), margin=0.25):
            balls.append((polys[:wl.API["ball_polys"]], rot @ x, r))

    rng = np.random.default_rng([seed, 77])
    m = np.arange(1, wl.API["trace_entries"] + 1)
    dirs = rng.standard_normal((m.size, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    x_norms = 1.0 + m / 100.0
    entries = tuple((x_norms[i] * dirs[i], x_norms[i] / 4, None)
                    for i in range(m.size))
    log_eps = tuple(float(v) for v in -(m / 10.0) ** 1.5)
    seq = uniqueness.SmallnessSequence(entries, log_eps)
    return {"c5": c5, "c6": c6, "balls": balls, "sequence": seq}


def api_pass(inputs: dict) -> tuple:
    """The scripted single-threaded call loop over the public API."""

    reports = []
    for fns, x, r in inputs["c5"]:
        fam = geometry.CorrelatedFamily.create(x, r)
        for f in fns:
            reports.extend(verify.gradient_identity_check(f, x, r))
            reports.extend(verify.derivative_identity_check(
                f, fam, 0.5 * fam.x_norm))
    for polys, x, r, tfrac in inputs["c6"]:
        fam = geometry.CorrelatedFamily.create(x, r)
        t = tfrac * fam.x_norm
        for f in polys:
            reports.append(verify.transfer_identity_check(f, fam, t))
            reports.append(verify.three_spheres_check(f, x, r, t))
    for polys, x, r in inputs["balls"]:
        xbar = 0.5 * float(np.linalg.norm(x))
        for f in polys:
            reports.append(verify.three_balls_check(f, x, r, xbar))
            reports.extend(verify.embedded_bound_check(f, x, r, xbar, 0.6))
    reports.append(verify.embedding_identity_check(
        _extra_norm2, np.array([0.2, 0.0]), 0.8, g_degree=2))
    trace = uniqueness.criterion_trace(inputs["sequence"],
                                       uniqueness.GrowthEnvelope.power(2.0))
    return reports, trace


def _api_rows(reports, trace) -> list:
    rows = [rep.to_dict() for rep in reports]
    rows.append({"name": "criterion_trace", "lhs": float(trace.terms_a.sum()),
                 "rhs": float(trace.terms_b.sum()), "stderr_budget": 0.0,
                 "pass": True, "verdicts": [trace.verdict_a, trace.verdict_b]})
    return rows


def blas_record() -> dict:
    """OpenBLAS libraries mapped into this process and their thread counts."""
    libs = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path not in libs:
                lib = ctypes.CDLL(path)
                threads = None
                for fn in OPENBLAS_THREAD_FNS:
                    if hasattr(lib, fn):
                        getattr(lib, fn).restype = ctypes.c_int
                        threads = getattr(lib, fn)()
                        break
                libs[path] = threads
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy_blas": f"{blas.get('name')} {blas.get('version')}",
            "effective_threads": sorted(set(libs.values()), key=str),
            "env": {k: os.environ.get(k) for k in BLAS_ENV},
            "pinned": any(k in os.environ for k in BLAS_ENV)}


def run_pass(args) -> dict:

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-s{args.seed}-{args.dir}")
        tracer.install()
    part_wall: dict = {}
    if args.workload == "sweeps":
        # the CLI parses the config and synthesises the corpus itself, so on
        # sweeps set-up ends at the first call and synthesis falls in wall_s
        argvs = [["verify", "--config", config_path(args.dir, part),
                  "--out-csv", os.path.join(args.dir, part + ".csv"),
                  "--out-json", os.path.join(args.dir, part + ".json")]
                 for part in wl.SWEEP_PARTS]

        def work():
            codes = []
            for part, argv in zip(wl.SWEEP_PARTS, argvs):
                t0 = time.perf_counter()
                codes.append(cli.main(argv))
                part_wall[part] = time.perf_counter() - t0
            return codes
    else:
        inputs = api_inputs(args.seed)

        def work():
            return api_pass(inputs)
    setup_end = time.monotonic()

    console = io.StringIO()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    with contextlib.redirect_stdout(console):
        outcome = work()
    wall = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_end - args.spawn,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "part_wall_s": part_wall,
    }
    if args.workload == "sweeps":
        result["exit_code"] = next((c for c in outcome if c != 0), 0)
        with open(os.path.join(args.dir, "console.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(console.getvalue())
    else:
        result["exit_code"] = 0
        with open(os.path.join(args.dir, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(_api_rows(*outcome), fh, indent=1, sort_keys=True)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(
            int(os.environ.get("THREESPHERES_THREADS", "1")))
        tracer.dump(os.path.join(args.dir, "spans.jsonl"))
    result["machine"] = {"python": platform.python_version(),
                         "threespheres": threespheres.__version__,
                         "numpy": np.__version__, "scipy": scipy.__version__,
                         "blas": blas_record()}
    return result


def config_path(pass_dir: str, part: str) -> str:
    """The config of a sweep part, written once per run beside the passes."""
    return os.path.join(os.path.dirname(pass_dir), f"config-{part}.json")


def run_oracle(args) -> dict:
    """Recompute sampled deterministic rows of the ``ORACLE_PARTS``."""
    checked, mismatches = 0, []
    for part in wl.ORACLE_PARTS:
        res = _oracle_part(args, part)
        checked += res["checked"]
        mismatches.extend(dict(m, part=part) for m in res["mismatches"])
    return {"checked": checked, "mismatches": mismatches}


def _oracle_part(args, part: str) -> dict:
    """Recompute sampled deterministic rows of one part through the scalar
    API.

    Rows are identified by (name, n, x_norm, r, t) and their rank in that
    group, which is the corpus index.  Three-spheres, transfer and
    three-balls rows are recomputed with the matching ``verify`` check (its
    own rules: 12 digits and 32 radial points, against 10 and 16 in the
    sweep); embedded-bound rows by ``_embedded_sides``.
    """

    cfg = sweep.SweepConfig.from_file(config_path(args.dir, part))
    with open(os.path.join(args.dir, part + ".json"), encoding="utf-8") as fh:
        rows = json.load(fh)
    groups: dict = {}
    candidates: dict = {}
    for i, row in enumerate(rows):
        key = (row["name"], row["n"], row["x_norm"], row["r"], row["t"])
        rank = groups[key] = groups.get(key, -1) + 1
        if row["n"] <= 3:
            candidates.setdefault(row["name"], []).append((i, rank))
    rng = np.random.default_rng([args.seed, 3])
    deg = cfg.corpus_max_degree
    corpora, geoms = {}, {}
    checked, mismatches = 0, []
    for name in sorted(candidates):
        pool = candidates[name]
        for k in rng.choice(len(pool), size=min(ORACLE_SAMPLES, len(pool)),
                            replace=False):
            i, rank = pool[int(k)]
            row = rows[i]
            n = row["n"]
            if n not in corpora:
                corpora[n] = sweep.sample_corpus(n, cfg.corpus_count, deg,
                                                 cfg.corpus_seed)
                geoms[n] = sweep.sample_geometries(
                    n, cfg.geometry_count, cfg.geometry_seed,
                    cfg.x_norm_range, cfg.touch_margin)
            f = corpora[n][rank]
            x_vec = next(x for x, r in geoms[n] if r == row["r"])
            r, t = row["r"], row["t"]
            if name == "three_spheres_eq24":
                rep = verify.three_spheres_check(f, x_vec, r, t, degree=deg)
                want = (rep.lhs, rep.rhs)
            elif name == "transfer_identity_eq22":
                fam = geometry.CorrelatedFamily.create(x_vec, r)
                rep = verify.transfer_identity_check(f, fam, t, degree=deg)
                want = (rep.lhs, rep.rhs)
            elif name == "three_balls_eq27":
                rep = verify.three_balls_check(f, x_vec, r, t, degree=deg)
                want = (rep.lhs, rep.rhs)
            elif name.startswith("embedded_bound_eq"):
                want = _embedded_sides(name, f, x_vec, row,
                                       cfg.xbar_fraction, deg)
            else:
                continue
            checked += 1
            tol = wl.tolerance(name)
            for got, ref in zip((row["lhs"], row["rhs"]), want):
                if abs(got - ref) > tol * max(abs(got), abs(ref)):
                    mismatches.append({"row": i, "name": name, "got": got,
                                       "oracle": ref})
    return {"checked": checked, "mismatches": mismatches}


def _embedded_sides(name, f, x_vec, row, xbar_fraction, deg) -> tuple:
    """Both sides of an embedded-bound row from plain ball integrals of
    |f|^2 over the lambda, inner and outer balls.  A product rule of the
    integrand's degree with 32 radial points integrates them exactly, and
    the sides are formed as the paper states them (R = 1), so a sweep that
    shares or reuses ball evaluations is checked against independent ones.
    """
    n, x_norm, r, lam = row["n"], row["x_norm"], row["r"], row["t"]
    xbar = xbar_fraction * x_norm
    rbar = geometry.correlated_radius_general(x_norm, r, xbar, 1.0)
    d0 = geometry.delta0(x_norm, r, xbar, 1.0)
    rule = quadrature.BallRule(quadrature.SphereRule.product(n, 2 * deg + 2),
                               radial_points=32)
    balls = {"lam": geometry.Ball(xbar * x_vec / x_norm, lam * rbar),
             "in": geometry.Ball(x_vec, r),
             "out": geometry.Ball(np.zeros(n), 1.0)}
    ints = {k: quadrature.ball_integral(lambda p: np.abs(f(p)) ** 2, b,
                                        rule).real for k, b in balls.items()}
    c = verify.EMBED_CONSTANT / (1 - lam * lam) ** 2.5
    core = ints["in"] ** d0 * ints["out"] ** (1 - d0)
    if name == "embedded_bound_eq29":
        return ints["lam"], c / rbar * core
    if name == "embedded_bound_eq36":
        return ints["lam"], c / rbar ** 5 * core
    a2 = {k: math.sqrt(ints[k] / (quadrature.ball_volume(n) * b.radius ** n))
          for k, b in balls.items()}
    return a2["lam"], (math.sqrt(c) / rbar ** ((n + 5) / 2)
                       * a2["in"] ** d0 * a2["out"] ** (1 - d0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pass", "oracle"))
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args) if args.mode == "pass" else run_oracle(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
