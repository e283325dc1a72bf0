"""Batch verification sweeps: corpus x geometry grid -> report rows.

A sweep draws a corpus of random harmonic polynomials and a grid of random
inner-ball configurations per dimension, then runs the selected checks on
every combination, one configuration after another.  The row order is
(dimension, config index, check, polynomial index, t index), and every
integral is deterministic and summed in node order, so identical configs
produce byte-identical CSV output at a fixed BLAS thread count.
``mc_samples`` is accepted in configs (and validated) but ignored: no check
uses Monte Carlo.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ThreeSpheresError
from .geometry import CorrelatedFamily
from .harmonic import PolynomialEvaluator, random_harmonic_polynomial
from .quadrature import SphereRule, integrals
from .uniqueness import delta_lower_bound_check
from .verify import (
    CONVEXITY_SLACK,
    IDENTITY_FD_TOL,
    ball_rows,
    convexity_margins,
    derivative_identity_check,
    embedding_identity_check,
    error_row,
    gradient_identity_check,
    holomorphic_variant_check,
    sphere_rows,
    upper_report,
)

__all__ = [
    "ALL_CHECKS",
    "SweepConfig",
    "run_sweep",
    "write_csv",
    "write_json",
]

ALL_CHECKS = (
    "gradient_identity",
    "derivative_identity",
    "transfer_identity",
    "log_convexity",
    "three_spheres",
    "holomorphic_variant",
    "three_balls",
    "embedded_bound",
    "embedding_identity",
)
OPTIONAL_CHECKS = ("delta_lower_bound",)


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep definition (see ``from_file`` for the JSON schema)."""

    dimensions: tuple = (2, 3)
    corpus_count: int = 100
    corpus_max_degree: int = 8
    corpus_seed: int = 7
    geometry_count: int = 20
    geometry_seed: int = 11
    x_norm_range: tuple = (0.1, 0.7)
    touch_margin: float = 0.05
    t_count: int = 10
    lambdas: tuple = (0.3, 0.6, 0.9)
    xbar_fraction: float = 0.5
    checks: tuple = ALL_CHECKS
    beta: object = "omega"
    out_csv: str | None = None
    out_json: str | None = None

    @classmethod
    def from_file(cls, path: str) -> "SweepConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: malformed JSON at line {exc.lineno} column "
                f"{exc.colno}: {exc.msg}")
        return cls.from_dict(raw, where=path)

    @classmethod
    def from_dict(cls, raw: dict, where: str = "<config>") -> "SweepConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"{where}: top level must be a JSON object")

        def fail(fieldname, msg):
            raise ConfigError(f"{where}: field '{fieldname}': {msg}")

        def real(v):
            return isinstance(v, (int, float)) and not isinstance(v, bool)

        def get_int(d, key, default, fieldname, minimum=1):
            v = d.get(key, default)
            if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
                fail(fieldname, f"must be an integer >= {minimum}, got {v!r}")
            return v

        def section(d, name, keys):
            if not isinstance(d, dict):
                fail(name, "must be an object")
            for key in d:
                if key not in keys:
                    fail(f"{name}.{key}" if name else key,
                         f"unknown key; known: {', '.join(keys)}")
            return d

        section(raw, "", ("dimensions", "corpus", "geometry", "checks", "beta",
                          "mc_samples", "output"))
        dims = raw.get("dimensions", [2, 3])
        if (not isinstance(dims, list) or not dims
                or any(not isinstance(d, int) or d < 2 for d in dims)):
            fail("dimensions", f"must be a nonempty list of integers >= 2, got {dims!r}")

        corpus = section(raw.get("corpus", {}), "corpus",
                         ("count", "max_degree", "seed"))
        count = get_int(corpus, "count", 100, "corpus.count")
        max_degree = get_int(corpus, "max_degree", 8, "corpus.max_degree", minimum=0)
        corpus_seed = get_int(corpus, "seed", 7, "corpus.seed", minimum=0)

        geom = section(raw.get("geometry", {}), "geometry", (
            "count", "seed", "x_norm_range", "touch_margin", "t_count",
            "lambdas", "xbar_fraction"))
        gcount = get_int(geom, "count", 20, "geometry.count")
        gseed = get_int(geom, "seed", 11, "geometry.seed", minimum=0)
        xr = geom.get("x_norm_range", [0.1, 0.7])
        if (not isinstance(xr, list) or len(xr) != 2
                or not all(real(v) for v in xr) or not 0 < xr[0] <= xr[1] < 1):
            fail("geometry.x_norm_range", f"must be [lo, hi] with 0 < lo <= hi < 1, got {xr!r}")
        margin = geom.get("touch_margin", 0.05)
        if not real(margin) or not 0 < margin < 1:
            fail("geometry.touch_margin", f"must be in (0, 1), got {margin!r}")
        # sample_geometries draws r from [0.02, 1 - |x| - touch_margin]
        if 1.0 - xr[1] - margin < 0.02:
            fail("geometry.x_norm_range", "hi + touch_margin must not exceed 0.98")
        t_count = get_int(geom, "t_count", 10, "geometry.t_count")
        lambdas = geom.get("lambdas", [0.3, 0.6, 0.9])
        if (not isinstance(lambdas, list) or not lambdas
                or any(not real(v) or not 0 < v < 1 for v in lambdas)):
            fail("geometry.lambdas", f"must be a nonempty list inside (0, 1), got {lambdas!r}")
        xbar_fraction = geom.get("xbar_fraction", 0.5)
        if not real(xbar_fraction) or not 0 < xbar_fraction <= 1:
            fail("geometry.xbar_fraction", f"must be in (0, 1], got {xbar_fraction!r}")

        checks = raw.get("checks", list(ALL_CHECKS))
        if not isinstance(checks, list) or not checks:
            fail("checks", "must be a nonempty list (the corpus would be unused)")
        known = set(ALL_CHECKS) | set(OPTIONAL_CHECKS)
        for c in checks:
            if not isinstance(c, str) or c not in known:
                fail("checks", f"unknown check {c!r}; known: {sorted(known)}")

        beta = raw.get("beta", "omega")
        if beta not in ("omega", "alpha") and not real(beta):
            fail("beta", f"must be 'omega', 'alpha', or a number, got {beta!r}")

        get_int(raw, "mc_samples", 20_000, "mc_samples", minimum=100)

        output = section(raw.get("output", {}), "output", ("csv", "json"))
        for key in ("csv", "json"):
            if output.get(key) is not None and not isinstance(output[key], str):
                fail(f"output.{key}", f"must be a path string, got {output[key]!r}")

        return cls(dimensions=tuple(dims), corpus_count=count,
                   corpus_max_degree=max_degree, corpus_seed=corpus_seed,
                   geometry_count=gcount, geometry_seed=gseed,
                   x_norm_range=(float(xr[0]), float(xr[1])),
                   touch_margin=float(margin), t_count=t_count,
                   lambdas=tuple(float(v) for v in lambdas),
                   xbar_fraction=float(xbar_fraction), checks=tuple(checks),
                   beta=beta,
                   out_csv=output.get("csv"), out_json=output.get("json"))


def sample_corpus(n: int, count: int, max_degree: int, seed: int) -> list:
    return [
        random_harmonic_polynomial(n, max_degree,
                                   seed=seed * 1_000_003 + n * 10_007 + i)
        for i in range(count)
    ]


def sample_geometries(n: int, count: int, seed: int, x_range=(0.1, 0.7),
                      margin: float = 0.05) -> list:
    rng = np.random.default_rng([seed, n])
    configs = []
    for _ in range(count):
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        x_norm = rng.uniform(*x_range)
        r = rng.uniform(0.02, 1.0 - x_norm - margin)
        configs.append((x_norm * e, float(r)))
    return configs


# ---------------------------------------------------------------------------
# per-config batched checks


def _config_rows(n, cfg: SweepConfig, ci, x_vec, r, polys, evaluator):
    rows = []
    fam = CorrelatedFamily.create(x_vec, r, R=1.0)
    x_norm = fam.x_norm
    deg2 = 2 * cfg.corpus_max_degree
    meta = {"n": n, "x_norm": x_norm, "r": r}
    if "three_spheres" in cfg.checks or "transfer_identity" in cfg.checks:
        ts = [(j + 1) / cfg.t_count * x_norm for j in range(cfg.t_count)]
        rows.extend(sphere_rows(evaluator, fam, ts, cfg.checks, cfg.beta,
                                deg2))
    if "three_balls" in cfg.checks or "embedded_bound" in cfg.checks:
        rows.extend(ball_rows(evaluator, fam, cfg.xbar_fraction * x_norm,
                              cfg.checks, cfg.lambdas, deg2))

    if "gradient_identity" in cfg.checks or "derivative_identity" in cfg.checks:
        # row order identifies the test function: a constant, a coordinate,
        # the non-harmonic |y|^2 and two corpus polynomials (the identities
        # hold for any continuous f), each with its degree
        fns = [(lambda pts: np.ones(len(pts)), 0),
               (lambda pts: np.asarray(pts)[:, 0], 1),
               (lambda pts: np.einsum("ij,ij->i", pts, pts), 2)]
        fns += [(poly, poly.degree) for poly in polys[:2]]
        for p, (f, deg) in enumerate(fns):
            try:
                if "gradient_identity" in cfg.checks:
                    rows.extend(gradient_identity_check(f, x_vec, r,
                                                        degree=deg))
                if "derivative_identity" in cfg.checks:
                    rows.extend(derivative_identity_check(
                        f, fam, 0.5 * x_norm, degree=deg))
            except ThreeSpheresError as exc:
                rows.append(error_row("identity", exc, IDENTITY_FD_TOL,
                                      mode="identity", t=float(p), **meta))

    if "holomorphic_variant" in cfg.checks and n == 2:
        rng = np.random.default_rng([cfg.corpus_seed, ci, 77])
        coeff_sets = [[1.0], [0.0, 0.0, 0.0, 1.0],
                      list(rng.standard_normal(7) + 1j * rng.standard_normal(7))]
        for coeffs in coeff_sets:
            rows.append(holomorphic_variant_check(coeffs, x_vec, r,
                                                  0.5 * x_norm, beta="omega"))
    return rows


def _dimension_rows(n, cfg: SweepConfig, polys, evaluator):
    """Checks that do not depend on the geometry grid (origin-centered);
    assumes ``cfg.checks`` was already filtered for this dimension."""
    rows = []
    if "log_convexity" in cfg.checks:
        grid = np.linspace(0.05, 0.95, 20)
        rule = SphereRule.product(n, 2 * cfg.corpus_max_degree)
        logs = np.log(np.maximum([
            integrals(evaluator.squared_values, rule, np.zeros(n), rad)[0][0]
            for rad in grid], 1e-300))
        margin, _ = convexity_margins(np.log(grid), logs)
        for p in range(len(polys)):
            rows.append(upper_report("log_convexity_eq18", -margin[p], 0.0,
                                     0.0, budget=CONVEXITY_SLACK,
                                     n=n, x_norm=0.0, r=0.0, t=float(p)))
    if "embedding_identity" in cfg.checks:
        b = np.zeros(n)
        b[0] = 0.2
        cases = [
            ("one", lambda p: np.ones(len(p)), 2),
            ("extra_norm2", lambda p: np.einsum(
                "ij,ij->i", np.asarray(p)[:, n:], np.asarray(p)[:, n:]), 2),
            ("mixed", lambda p: np.asarray(p)[:, 0] ** 2 * np.einsum(
                "ij,ij->i", np.asarray(p)[:, n:], np.asarray(p)[:, n:]), 4),
        ]
        for idx, (label, g, gdeg) in enumerate(cases):
            rep = embedding_identity_check(g, b, 0.8, g_degree=gdeg)
            rows.append(replace(rep, name=f"embedding_identity_eq30[{label}]",
                                t=float(idx)))
    return rows


def _delta_lower_bound_rows():
    rows = []
    for xn in np.geomspace(16.0, 1024.0, 7):
        for variant in ("scaled", "printed"):
            try:
                rows.append(delta_lower_bound_check(float(xn), float(xn) / 4,
                                                    variant=variant))
            except ThreeSpheresError as exc:
                rows.append(error_row(f"delta_lower_bound_{variant}", exc,
                                      0.0, n=None, x_norm=float(xn),
                                      r=float(xn) / 4, t=None))
    return rows


def run_sweep(cfg: SweepConfig):
    """Execute the sweep; returns (reports, skipped_messages)."""
    reports: list = []
    skipped: list = []
    for n in cfg.dimensions:
        polys = sample_corpus(n, cfg.corpus_count, cfg.corpus_max_degree,
                              cfg.corpus_seed)
        evaluator = PolynomialEvaluator(polys)
        geoms = sample_geometries(n, cfg.geometry_count, cfg.geometry_seed,
                                  cfg.x_norm_range, cfg.touch_margin)
        if n >= 4:
            untested = "not yet validated for n >= 4"
            reasons = {
                "gradient_identity": untested,
                "derivative_identity": untested,
                "log_convexity": untested,
                "embedding_identity": "deterministic (n+5)-dimensional rule "
                                      "too large",
            }
            for name, why in reasons.items():
                if name in cfg.checks:
                    skipped.append(f"{name} skipped for n={n}: {why}")
            per_cfg_checks = tuple(c for c in cfg.checks if c not in reasons)
        else:
            per_cfg_checks = cfg.checks
        if "holomorphic_variant" in cfg.checks and n != 2:
            skipped.append(f"holomorphic_variant skipped for n={n}: planar "
                           "check")
        cfg_n = replace(cfg, checks=per_cfg_checks)
        for ci, (x_vec, r) in enumerate(geoms):
            reports.extend(_config_rows(n, cfg_n, ci, x_vec, r, polys,
                                        evaluator))
        reports.extend(_dimension_rows(n, cfg_n, polys, evaluator))
    if "delta_lower_bound" in cfg.checks:
        reports.extend(_delta_lower_bound_rows())
    return reports, skipped


# ---------------------------------------------------------------------------
# report serialization


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return format(v, ".17g")
    return str(v)


def write_csv(reports, path: str) -> None:
    """CSV summary, one row per report: full 17-significant-digit floats,
    '.' decimal separator, LF line endings (byte-stable for golden files)."""
    lines = ["name,n,x_norm,r,t_or_xbar,exponent,lhs,rhs,ratio,pass"]
    for rep in reports:
        lines.append(",".join([
            rep.name, _fmt(rep.n), _fmt(rep.x_norm), _fmt(rep.r), _fmt(rep.t),
            _fmt(rep.exponent_used), _fmt(rep.lhs), _fmt(rep.rhs),
            _fmt(rep.ratio), "true" if rep.passed else "false",
        ]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(reports, path: str) -> None:
    """One JSON object per report, serialized as a JSON array.

    The bytes are those of ``json.dump(..., indent=1, sort_keys=True)``, but
    each flat row goes through the C encoder, which ``indent`` would bypass.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n  ", ": ")).encode
    with open(path, "w", encoding="utf-8", newline="") as fh:
        sep = "[\n"
        for rep in reports:
            fh.write(sep + " {\n  " + encode(rep.to_dict())[1:-1] + "\n }")
            sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")
