"""Batch verification sweeps: corpus x geometry grid -> report row groups.

A sweep draws a corpus of random harmonic polynomials and a grid of random
inner-ball configurations per dimension, then runs the selected checks on
every combination, one configuration after another, and returns the
``verify`` builders' row groups, which the writers format.  The row order is
(dimension, config index, check, polynomial index, t index), and every
integral is deterministic and summed in node order, so identical configs
produce byte-identical CSV output.  The package runs OpenBLAS on one thread,
so the bytes do not depend on ``OPENBLAS_NUM_THREADS`` either.
``mc_samples`` is accepted in configs (and validated) but ignored: no check
uses Monte Carlo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ThreeSpheresError, UnderResolved
from .geometry import CorrelatedFamily
from .harmonic import PolynomialEvaluator, random_harmonic_polynomials
from .quadrature import Column
from .uniqueness import delta_lower_bound_check
from .verify import (
    INEQUALITY_TOL,
    RowGroup,
    ball_rows,
    convexity_rows,
    derivative_rows,
    embedding_identity_check,
    error_row,
    gradient_rows,
    holomorphic_variant_check,
    sphere_rows,
)

__all__ = [
    "ALL_CHECKS",
    "SweepConfig",
    "read_json",
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


def read_json(path: str, parse=json.loads):
    """``parse`` applied to the text of the file at ``path``; malformed JSON
    is a :class:`ConfigError` naming the file, line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from None


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
            raw = read_json(path)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
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

        base = cls()  # the defaults, declared once in the fields
        section(raw, "", ("dimensions", "corpus", "geometry", "checks", "beta",
                          "mc_samples", "output"))
        dims = raw.get("dimensions", list(base.dimensions))
        if (not isinstance(dims, list) or not dims
                or any(not isinstance(d, int) or d < 2 for d in dims)):
            fail("dimensions", f"must be a nonempty list of integers >= 2, got {dims!r}")

        corpus = section(raw.get("corpus", {}), "corpus",
                         ("count", "max_degree", "seed"))
        count = get_int(corpus, "count", base.corpus_count, "corpus.count")
        max_degree = get_int(corpus, "max_degree", base.corpus_max_degree, "corpus.max_degree", 0)
        corpus_seed = get_int(corpus, "seed", base.corpus_seed, "corpus.seed", 0)

        geom = section(raw.get("geometry", {}), "geometry", (
            "count", "seed", "x_norm_range", "touch_margin", "t_count",
            "lambdas", "xbar_fraction"))
        gcount = get_int(geom, "count", base.geometry_count, "geometry.count")
        gseed = get_int(geom, "seed", base.geometry_seed, "geometry.seed", 0)
        xr = geom.get("x_norm_range", list(base.x_norm_range))
        if (not isinstance(xr, list) or len(xr) != 2
                or not all(real(v) for v in xr) or not 0 < xr[0] <= xr[1] < 1):
            fail("geometry.x_norm_range", f"must be [lo, hi] with 0 < lo <= hi < 1, got {xr!r}")
        margin = geom.get("touch_margin", base.touch_margin)
        if not real(margin) or not 0 < margin < 1:
            fail("geometry.touch_margin", f"must be in (0, 1), got {margin!r}")
        # sample_geometries draws r from [0.02, 1 - |x| - touch_margin]
        if 1.0 - xr[1] - margin < 0.02:
            fail("geometry.x_norm_range", "hi + touch_margin must not exceed 0.98")
        t_count = get_int(geom, "t_count", base.t_count, "geometry.t_count")
        lambdas = geom.get("lambdas", list(base.lambdas))
        if (not isinstance(lambdas, list) or not lambdas
                or any(not real(v) or not 0 < v < 1 for v in lambdas)):
            fail("geometry.lambdas", f"must be a nonempty list inside (0, 1), got {lambdas!r}")
        xbar_fraction = geom.get("xbar_fraction", base.xbar_fraction)
        if not real(xbar_fraction) or not 0 < xbar_fraction <= 1:
            fail("geometry.xbar_fraction", f"must be in (0, 1], got {xbar_fraction!r}")

        checks = raw.get("checks", list(base.checks))
        if not isinstance(checks, list) or not checks:
            fail("checks", "must be a nonempty list (the corpus would be unused)")
        known = set(ALL_CHECKS) | set(OPTIONAL_CHECKS)
        for c in checks:
            if not isinstance(c, str) or c not in known:
                fail("checks", f"unknown check {c!r}; known: {sorted(known)}")

        beta = raw.get("beta", base.beta)
        if beta not in ("omega", "alpha") and not real(beta):
            fail("beta", f"must be 'omega', 'alpha', or a number, got {beta!r}")

        get_int(raw, "mc_samples", 20_000, "mc_samples", 100)

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
    seeds = [seed * 1_000_003 + n * 10_007 + i for i in range(count)]
    return random_harmonic_polynomials(n, max_degree, seeds)


def sample_geometries(n: int, count: int, seed: int,
                      x_range=SweepConfig.x_norm_range,
                      margin: float = SweepConfig.touch_margin) -> list:
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


def _one_row(rep) -> RowGroup:
    """A public check's report as a group of one row."""
    return RowGroup((rep,), *(np.array([[v]]) for v in (
        rep.lhs, rep.rhs, rep.ratio, rep.passed)))


def _config_rows(n, cfg: SweepConfig, ci, x_vec, r, polys, evaluator):
    groups = []
    fam = CorrelatedFamily.create(x_vec, r, R=1.0)
    x_norm = fam.x_norm
    if "three_spheres" in cfg.checks or "transfer_identity" in cfg.checks:
        ts = [(j + 1) / cfg.t_count * x_norm for j in range(cfg.t_count)]
        groups += sphere_rows(evaluator, fam, ts, cfg.checks, cfg.beta)
    if "three_balls" in cfg.checks or "embedded_bound" in cfg.checks:
        xbar = cfg.xbar_fraction * x_norm
        try:
            groups += ball_rows(evaluator, fam, xbar, cfg.checks, cfg.lambdas)
        except UnderResolved as exc:
            # no dmu_a rule resolves these balls: (27) gets error rows, and
            # the plain embedded bounds still run
            groups.append(error_row("three_balls_eq27", exc, INEQUALITY_TOL,
                                    len(polys), n=n, x_norm=x_norm, r=r,
                                    t=xbar))
            groups += ball_rows(evaluator, fam, xbar,
                                set(cfg.checks) - {"three_balls"},
                                cfg.lambdas)

    if "gradient_identity" in cfg.checks or "derivative_identity" in cfg.checks:
        # t = p names the test function: 1, y_1, |y|^2 (the identities hold
        # for any continuous f) and two corpus polynomials, at a degree exact
        # for all five; gradient along e_1, derivative identity at t = |x|/2
        fns = [lambda pts: np.ones(len(pts)), lambda pts: pts[:, 0],
               lambda pts: np.einsum("ij,ij->i", pts, pts), *polys[:2]]
        col, fd = Column(fns, max(2, evaluator.degree)), []
        if "gradient_identity" in cfg.checks:
            fd += gradient_rows(col, x_vec, r, np.eye(n)[0])
        if "derivative_identity" in cfg.checks:
            fd += derivative_rows(col, fam, 0.5 * x_norm)
        groups += [group.indexed() for group in fd]

    if "holomorphic_variant" in cfg.checks and n == 2:
        rng = np.random.default_rng([cfg.corpus_seed, ci, 77])
        coeff_sets = [[1.0], [0.0, 0.0, 0.0, 1.0],
                      list(rng.standard_normal(7) + 1j * rng.standard_normal(7))]
        for coeffs in coeff_sets:
            groups.append(_one_row(holomorphic_variant_check(
                coeffs, x_vec, r, 0.5 * x_norm, beta="omega")))
    return groups


def _dimension_rows(n, cfg: SweepConfig, evaluator):
    """Checks that do not depend on the geometry grid (origin-centered)."""
    groups = []
    if "log_convexity" in cfg.checks:
        groups += convexity_rows(evaluator, n, np.linspace(0.05, 0.95, 20))
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
            groups.append(_one_row(replace(
                rep, name=f"embedding_identity_eq30[{label}]", t=float(idx))))
    return groups


def _delta_lower_bound_rows():
    groups = []
    for xn in np.geomspace(16.0, 1024.0, 7):
        for variant in ("scaled", "printed"):
            try:
                groups.append(_one_row(delta_lower_bound_check(
                    float(xn), float(xn) / 4, variant=variant)))
            except ThreeSpheresError as exc:
                groups.append(error_row(f"delta_lower_bound_{variant}", exc,
                                        0.0, n=None, x_norm=float(xn),
                                        r=float(xn) / 4, t=None))
    return groups


def run_sweep(cfg: SweepConfig):
    """Execute the sweep; returns (row groups, skipped_messages)."""
    groups, skipped = [], []
    for n in cfg.dimensions:
        polys = sample_corpus(n, cfg.corpus_count, cfg.corpus_max_degree,
                              cfg.corpus_seed)
        evaluator = PolynomialEvaluator(polys)
        geoms = sample_geometries(n, cfg.geometry_count, cfg.geometry_seed,
                                  cfg.x_norm_range, cfg.touch_margin)
        if "holomorphic_variant" in cfg.checks and n != 2:
            skipped.append(f"holomorphic_variant skipped for n={n}: planar "
                           "check")
        for ci, (x_vec, r) in enumerate(geoms):
            groups += _config_rows(n, cfg, ci, x_vec, r, polys, evaluator)
        groups += _dimension_rows(n, cfg, evaluator)
    if "delta_lower_bound" in cfg.checks:
        groups += _delta_lower_bound_rows()
    return groups, skipped


# ---------------------------------------------------------------------------
# report serialization


def write_csv(groups, path: str) -> None:
    """CSV summary, one line per row: full 17-significant-digit floats,
    '.' decimal separator, LF line endings (byte-stable for golden files).
    lhs, rhs and ratio are floats, as every report builder makes them."""

    def head(rep):
        shared = ["" if v is None else format(v, ".17g")
                  if isinstance(v, float) else str(v)
                  for v in (rep.n, rep.x_norm, rep.r, rep.t, rep.exponent_used)]
        return (",".join([rep.name, *shared, ""]).replace("%", "%%")
                + "%.17g,%.17g,%.17g,%s")

    lines = ["name,n,x_norm,r,t_or_xbar,exponent,lhs,rhs,ratio,pass"]
    lines += [tpl % (lhs, rhs, ratio, "true" if ok else "false")
              for group in groups for tpl, lhs, rhs, ratio, ok
              in group.cells(list(map(head, group.heads)))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(groups, path: str) -> None:
    """One JSON object per row, serialized as a JSON array.

    The bytes are those of ``json.dump(..., indent=1, sort_keys=True)`` of
    the rows' ``to_dict()``: each group's shared fields go through the C
    encoder once per name, and each row spells its three floats from the
    group's arrays as the encoder does.
    """
    special = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

    def body(rep):
        return " {\n  " + ",\n  ".join(
            f'"{key}": ' + ("%s" if key in ("lhs", "pass", "ratio", "rhs")
                            else json.dumps(value).replace("%", "%%"))
            for key, value in sorted(rep.to_dict().items())) + "\n }"

    def num(v):
        text = float.__repr__(v)
        return special.get(text, text)

    rows = [tpl % (num(lhs), "true" if ok else "false", num(ratio), num(rhs))
            for group in groups for tpl, lhs, rhs, ratio, ok
            in group.cells(list(map(body, group.heads)))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n")
