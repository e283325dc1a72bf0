"""Numerical checks for the derivative identities, the transfer identity,
log-convexity, and the three-spheres / three-balls inequalities.

Every check emits :class:`InequalityReport` rows.  Upper-bound checks pass iff

    lhs <= rhs * (1 + tolerance) + stderr_budget,

identity checks iff |lhs - rhs| <= tolerance * max(|lhs|, |rhs|).  Every
integral is deterministic in every dimension, so no row carries a Monte
Carlo budget: ``stderr_budget`` is zero but for the log-convexity rows,
which carry their slack there.

Every rule is sized from the degree its evaluator carries: a
``PolynomialEvaluator``'s largest degree, or a public check's ``degree=``,
else ``f.degree``; a callable with neither raises :class:`OutOfRange`.  The
plain rules are exact at the integrand's degree (twice it for |f|^2) and no
higher, and the weighted rules are the Gauss rules of their weight, exact
for a polynomial of that degree times the weight (see ``quadrature``).

The inequalities and the identities are written once, over columns: an
evaluator maps (N, n) points to the (N, P) values or squared moduli of P
functions, which the row builders (``gradient_rows``, ``derivative_rows``,
``convexity_rows``, ``sphere_rows``, ``ball_rows``) integrate into row
groups (:class:`RowGroup`; :func:`upper_rows`, :func:`identity_rows`,
:func:`error_row`): shared fields once per name, sides and pass as arrays.
The sweep passes a ``PolynomialEvaluator`` over its corpus, or a
:class:`Column` of its test functions; each public ``*_check`` passes a
one-column :class:`Column` and returns its groups' rows (:func:`flat`), so
both use the same rules and arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    BetaOutOfRange,
    DeltaOutOfRange,
    NonpositiveL,
    OutOfRange,
    PreconditionViolated,
)
from .geometry import (
    CorrelatedFamily,
    correlated_radius_general,
    delta0,
    inversion_map,
)
from .harmonic import holomorphic_polynomial
from .quadrature import (
    BallRule,
    Column,
    SphereRule,
    _gauss_jacobi,
    ball_volume,
    integrals,
    weighted_rules,
)

__all__ = [
    "ConvexityGridReport",
    "InequalityReport",
    "derivative_identity_check",
    "embedded_bound_check",
    "embedding_identity_check",
    "gradient_identity_check",
    "holomorphic_variant_check",
    "log_convexity_check",
    "three_balls_check",
    "three_spheres_check",
    "transfer_identity_check",
]

IDENTITY_FD_TOL = 1e-5
FD_STEP = 1e-5
TRANSFER_TOL = 1e-8
INEQUALITY_TOL = 1e-9
EMBEDDING_TOL = 1e-6
CONVEXITY_SLACK = 1e-10

EMBED_CONSTANT = 405.0


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one verification: sides, ratio, exponent, pass decision.

    ``mode`` records which pass rule produced ``passed``: "upper" for the
    one-sided inequality form, "identity" for two-sided equality checks.
    """

    name: str
    lhs: float
    rhs: float
    ratio: float
    exponent_used: float
    tolerance: float
    stderr_budget: float
    passed: bool
    mode: str = "upper"
    n: int | None = None
    x_norm: float | None = None
    r: float | None = None
    t: float | None = None

    def to_dict(self) -> dict:
        """The fields by name, ``passed`` under the key "pass"."""
        return {("pass" if f.name == "passed" else f.name):
                getattr(self, f.name) for f in fields(self)}


class RowGroup(NamedTuple):
    """P rows of each of k names, interleaved per column: row p k + j is
    ``heads[j]``, an :class:`InequalityReport` of its shared fields (sides
    unread; NaN from the builders), with entry (p, j) of the arrays below."""

    heads: tuple
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    passed: np.ndarray

    def cells(self, heads=None):
        """(head, lhs, rhs, ratio, pass) per row, with ``heads`` if given."""
        return zip(list(heads or self.heads) * len(self.lhs),
                   *(a.ravel().tolist() for a in self[1:]))

    def rows(self) -> list:
        return [InequalityReport(h.name, a, b, q, h.exponent_used,
                                 h.tolerance, h.stderr_budget, ok, h.mode,
                                 h.n, h.x_norm, h.r, h.t)
                for h, a, b, q, ok in self.cells()]

    def indexed(self) -> "RowGroup":
        """The (P, 1) group as (1, P), column p's head with t = p."""
        return RowGroup(tuple(replace(self.heads[0], t=float(p)) for p in
                              range(len(self.lhs))), *(a.T for a in self[1:]))


def flat(groups) -> list:
    """The rows of ``groups`` as :class:`InequalityReport`s, in order."""
    return [rep for group in groups for rep in group.rows()]


def _group(names, lhs, rhs, passed, mode, exponent, tolerance, budget,
           meta) -> RowGroup:
    """Rows of ``names``; ratio lhs / rhs, at rhs = 0 inf if lhs > 0 else 1."""
    heads = tuple([InequalityReport(name, math.nan, math.nan, math.nan,
                                    exponent, tolerance, budget, False, mode,
                                    **meta) for name in names])
    zero = rhs == 0.0
    with np.errstate(all="ignore"):  # Python's float division does not warn
        ratio = lhs / rhs
    if np.count_nonzero(zero):
        ratio[zero] = np.where(lhs[zero] > 0, math.inf, 1.0)
    return RowGroup(heads, lhs, rhs, ratio, passed)


def upper_rows(name, lhs, rhs, tolerance, budget=0.0, exponent=math.nan,
               **meta) -> RowGroup:
    """The "upper" rows of (P,) sides, or of (P, k) for a tuple of k names."""
    names = (name,) if isinstance(name, str) else name
    lhs = np.asarray(lhs, dtype=float).reshape(-1, len(names))
    rhs = np.asarray(rhs, dtype=float).reshape(-1, len(names))
    return _group(names, lhs, rhs, lhs <= rhs * (1 + tolerance) + budget,
                  "upper", float(exponent), tolerance, float(budget), meta)


def upper_report(name, lhs, rhs, *args, **meta) -> InequalityReport:
    return upper_rows(name, [lhs], [rhs], *args, **meta).rows()[0]


def identity_rows(name, lhs, rhs, tolerance, scale_floor=0.0,
                  **meta) -> RowGroup:
    """The "identity" rows of the ``lhs`` and ``rhs`` columns; complex sides
    are recorded by magnitude but the pass decision uses the full complex
    gap.  ``scale_floor``, one value for every row or one per row, keeps the
    relative test meaningful when both sides nearly vanish."""
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    z = np.array([lhs - rhs, lhs, rhs]).reshape(3, -1, 1)
    gap, a, b = np.hypot(z.real, z.imag)  # Python's abs; numpy's differs
    floor = np.maximum(scale_floor, 1e-300).reshape(-1, 1)
    return _group((name,), a, b, gap <= tolerance * np.maximum(
        np.maximum(a, b), floor), "identity", math.nan, tolerance, 0.0, meta)


def identity_report(name, lhs, rhs, *args, **meta) -> InequalityReport:
    return identity_rows(name, [lhs], [rhs], *args, **meta).rows()[0]


@dataclass(frozen=True)
class ConvexityGridReport:
    """Triple-wise log-convexity scan over a radius grid."""

    radii: np.ndarray
    values: np.ndarray
    worst_triple: tuple
    margin: float
    tolerance: float
    passed: bool


def error_row(name, exc, tolerance, count=1, exponent=math.nan,
              **meta) -> RowGroup:
    """``count`` failed rows, NaN sides, for a check that raised ``exc``."""
    nan = np.full(count, math.nan)
    return upper_rows(f"{name}:error:{type(exc).__name__}", nan, nan,
                      tolerance, exponent=exponent, **meta)


def _column(f, degree: int | None = None) -> Column:
    """``f`` as a one-column evaluator of degree ``degree``, else
    ``f.degree``; a callable with neither has no rule to size."""
    degree = getattr(f, "degree", None) if degree is None else degree
    if degree is None:
        raise OutOfRange(f"{f!r} has no degree: pass degree= to size rules")
    return Column([f], int(degree))


# ---------------------------------------------------------------------------
# ball integrals


def _ball_integrals(fn, center: np.ndarray, radius: float, degree: int,
                   inv=None, plain: bool = True):
    """(dmu_a-weighted, plain) column integrals of ``fn`` over
    B_{center, radius}, the first only when ``inv`` is given and the second
    only when ``plain``, from one evaluation of every node: of
    ``BallRule.exact``, or with ``inv`` of ``BallRule.weighted``, two axial
    degrees up when the plain integral is wanted too."""
    n = center.size
    if inv is None:
        rule = BallRule.exact(n, degree)
    else:
        dist = float(np.linalg.norm(inv.a - center))
        rule = BallRule.weighted(n, degree + 2 * plain, dist, radius, degree)
    weights = (("mu_a",) if inv is not None else ()) + ((None,) if plain else ())
    cols = integrals(fn, rule, center, radius, inv, weights)
    return (cols[0] if inv is not None else None), (cols[-1] if plain else None)


# ---------------------------------------------------------------------------
# the three-spheres exponent


def _resolve_beta(rec, beta, unchecked: bool = False) -> float:
    """The three-spheres exponent: omega (default), alpha, or a number in
    (0, alpha] (any number when ``unchecked``)."""
    if beta == "omega" or beta is None:
        return rec.omega
    if beta == "alpha":
        return rec.alpha
    beta = float(beta)
    if not unchecked and not 0 < beta <= rec.alpha * (1 + 1e-12):
        raise BetaOutOfRange(
            f"beta = {beta} outside (0, alpha] with alpha = {rec.alpha}")
    return beta


# ---------------------------------------------------------------------------
# derivative identities


def _fd_rows(groups, plain, **meta) -> list:
    """A group of identity rows per (name, difference quotients, surface
    forms) of ``groups``, on the scale floor 1e-3 max(1, |int f ds|) of each
    column (``plain``), which keeps the relative test sane when a derivative
    vanishes by symmetry."""
    floors = 1e-3 * np.fmax(1.0, np.hypot(plain.real, plain.imag))
    return [identity_rows(name, fd, quad, IDENTITY_FD_TOL, floors, **meta)
            for name, fd, quad in groups]


def gradient_rows(ev, x: np.ndarray, r: float, e: np.ndarray) -> list:
    """The rows of :func:`gradient_identity_check` for each column of
    ``ev``, ``e`` a unit vector: a group of (2) rows, then one of (3)."""
    n, h = x.size, FD_STEP

    def vol(center, radius):
        return _ball_integrals(ev.values, center, radius, ev.degree)[1]

    # times 1 / (2 h), as numpy divides complex columns: real ones round alike
    fd_dir = (vol(x + h * e, r) - vol(x - h * e, r)) * (1 / (2 * h))
    fd_rad = (vol(x, r + h) - vol(x, r - h)) * (1 / (2 * h))

    def surface_forms(pts):  # f (e . n) and f on S_{x,r}
        v = ev.values(pts)
        return np.concatenate([v * ((pts - x) / r @ e)[:, None], v], axis=1)

    quad, = integrals(surface_forms, SphereRule.product(n, ev.degree + 1),
                      x, r)
    quad_dir, quad_rad = quad.reshape(2, -1)
    return _fd_rows([("gradient_identity_eq2", fd_dir, quad_dir),
                     ("gradient_identity_eq3", fd_rad, quad_rad)], quad_rad,
                    n=n, x_norm=float(np.linalg.norm(x)), r=float(r))


def gradient_identity_check(f, x, r: float, e=None,
                            degree: int | None = None) -> list[InequalityReport]:
    """Check the two ball-average derivative identities.

    The directional derivative of a(x, r, f) = int_{B_{x,r}} f equals
    int_{S_{x,r}} f (e . n) ds, and its radial derivative equals
    int_{S_{x,r}} f ds; both finite-difference derivatives (step
    ``FD_STEP``) must match quadrature to relative 1e-5.  ``e`` (default the
    first axis) must be a nonzero vector of length n.  The rows are those
    of :func:`gradient_rows` for the one column f.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    col = _column(f, degree)
    if e is None:
        e = np.eye(n)[0]
    else:
        e = np.asarray(e, dtype=float)
        norm = float(np.linalg.norm(e))
        if e.shape != (n,) or not 0 < norm < math.inf:
            raise OutOfRange(f"direction e must be a nonzero finite vector "
                             f"of length {n}, got {e.tolist()!r}")
        e = e / norm
    return flat(gradient_rows(col, x, r, e))


def derivative_rows(ev, fam: CorrelatedFamily, t: float) -> list:
    """The rows of :func:`derivative_identity_check` at ``t`` for each
    column of ``ev``: a group of (5) rows, then one of (13)."""
    n, inv, h = fam.dimension, fam.inversion, FD_STEP

    def vol(s):
        ball = fam.ball(s)
        return _ball_integrals(ev.values, ball.center, ball.radius,
                               ev.degree)[1]

    fd = (vol(t + h) - vol(t - h)) * (1 / (2 * h))  # as in gradient_rows
    rt, rpt = float(fam.radius(t)), float(fam.radius_derivative(t))
    center = fam.center(t)

    def surface_forms(pts):  # the curve form, the weighted form and f
        v = ev.values(pts)
        d = pts - inv.a
        bracket = (np.einsum("ij,ij->i", d, d) + inv.R ** 2
                   - np.einsum("ij,ij->i", pts, pts))
        return np.concatenate([v * ((pts - center) / rt @ fam.e + rpt)[:, None],
                               v * bracket[:, None], v], axis=1)

    quad, = integrals(surface_forms, SphereRule.product(n, ev.degree + 2),
                      center, rt)
    rhs5, weighted, plain = quad.reshape(3, -1)
    return _fd_rows([("derivative_identity_eq5", fd, rhs5),
                     ("derivative_identity_eq13", fd,
                      weighted * (-1.0 / (2 * inv.a_norm * rt)))], plain,
                    n=n, x_norm=fam.x_norm, r=fam.r, t=float(t))


def derivative_identity_check(f, fam: CorrelatedFamily, t: float,
                              degree: int | None = None) -> list[InequalityReport]:
    """Check d/dt int_{B_{x_t,r_t}} f dy against the two surface forms.

    The curve form integrates f (e . n + r_t'); substituting the closed-form
    r_t' turns it into -(2|a| r_t)^{-1} int f [|y-a|^2 + R^2 - |y|^2] ds.
    Both must match the central finite difference (step ``FD_STEP``) of the
    family volume integral to relative 1e-5; ``t`` must be interior to
    (0, |x|).  The rows are those of :func:`derivative_rows` for the one
    column f.
    """
    if not 0 < t < fam.x_norm:
        raise OutOfRange("t must be interior to (0, |x|) for the central "
                         "difference")
    return flat(derivative_rows(_column(f, degree), fam, t))


# ---------------------------------------------------------------------------
# log-convexity


def log_convexity_check(L, grid) -> ConvexityGridReport:
    """Scan all triples r1 < r < r2 of the grid for log-log convexity of L.

    Passes iff L(r) <= L(r1)^alpha L(r2)^(1-alpha) (alpha from the log ratio)
    up to the relative slack ``CONVEXITY_SLACK`` for every triple; the worst
    triple and its signed log-margin are reported.
    """
    radii = np.asarray(grid, dtype=float)
    if radii.ndim != 1 or radii.size < 3:
        raise OutOfRange("grid needs at least three radii")
    if np.any(np.diff(radii) <= 0) or radii[0] <= 0:
        raise OutOfRange("grid must be positive and strictly increasing")
    values = np.asarray([float(L(r)) for r in radii])
    margin, worst = convexity_margins(np.log(radii), _logs(values)[:, None])
    return ConvexityGridReport(radii=radii, values=values,
                               worst_triple=tuple(radii[worst[0]]),
                               margin=float(margin[0]),
                               tolerance=CONVEXITY_SLACK,
                               passed=bool(margin[0] >= -CONVEXITY_SLACK))


def convexity_rows(ev, n: int, grid) -> list:
    """Log-convexity (18) rows of L(r) = int_{S_{0,r}} |f|^2 ds over the
    radii of ``grid``, per column of ``ev``, each with the column's index in
    ``t``: lhs is minus the column's worst margin (:func:`convexity_margins`)
    and passes within the budget ``CONVEXITY_SLACK``."""
    rule = SphereRule.product(n, 2 * ev.degree)
    logs = _logs([integrals(ev.squared_values, rule, np.zeros(n), rad)[0]
                  for rad in grid])
    margin, _ = convexity_margins(np.log(grid), logs)
    return [upper_rows("log_convexity_eq18", -margin, np.zeros(margin.size),
                       0.0, budget=CONVEXITY_SLACK, n=n, x_norm=0.0,
                       r=0.0).indexed()]


def _logs(values) -> np.ndarray:
    """log L of the values of L, which must be positive."""
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise NonpositiveL("log-convexity requires L > 0 on the grid")
    return np.log(values)


def convexity_margins(logr: np.ndarray, logs: np.ndarray):
    """Smallest signed gap of log L(r_j) below the chord through
    (log r_i, log L(r_i)) and (log r_k, log L(r_k)) over all triples
    i < j < k, per column of ``logs`` (m, P), and the first triple (i, j, k)
    attaining it."""
    i, j, k = np.array(list(itertools.combinations(range(logr.size), 3))).T
    alpha = ((logr[k] - logr[j]) / (logr[k] - logr[i]))[:, None]
    gaps = alpha * logs[i] + (1 - alpha) * logs[k] - logs[j]
    worst = np.argmin(gaps, axis=0)
    return (gaps[worst, np.arange(logs.shape[1])],
            np.stack([i[worst], j[worst], k[worst]], axis=1))


# ---------------------------------------------------------------------------
# the three-spheres inequality and the transfer identity


def sphere_rows(ev, fam: CorrelatedFamily, ts, checks, beta="omega",
                unchecked_beta: bool = False) -> list:
    """Three-spheres (24) and transfer (22) row groups at each t of ``ts``,
    over the columns of ``ev``, for the names in ``checks``.

    (24) is rbar M <= (r I)^beta O^(1-beta) for the ds_a integrals of |f|^2
    over the inner sphere (I), the unit sphere (O) and the family sphere at
    t (M, radius rbar); a beta outside (0, alpha_t] gives failed error rows.
    (22) compares the integral of |f*|^2 over S_{0, r_t*} with
    rho^2 (r_t/r_t*) M.  The rules are exact at the degree of |f|^2.
    """
    n, r, x_norm, inv = fam.dimension, fam.r, fam.x_norm, fam.inversion
    three, transfer = "three_spheres" in checks, "transfer_identity" in checks
    rt = [float(fam.radius(t)) for t in ts]
    rts = [float(fam.image_radius(t)) for t in ts] if transfer else []
    # the ds_a spheres (one per t, then the inner and the unit sphere) and
    # the Kelvin spheres S_{0, r_t*}: every weighted rule in one pass
    sa = list(zip(ts, rt)) + ([(x_norm, r), (0.0, 1.0)] if three else [])
    rules = weighted_rules(
        n, 2 * ev.degree, [("s_a", inv.a_norm, c, s, inv.R) for c, s in sa]
        + [("kelvin", inv.a_norm, 0.0, s, inv.R) for s in rts])

    def sa_sphere(rule, center_norm, radius):  # a is on the +e ray
        return integrals(ev.squared_values, rule, center_norm * fam.e, radius,
                         inv, ("s_a",))[0]

    def kelvin_squared(pts):
        # |f*|^2 = |f(phi(y))|^2 (rho^2/|y-a|^2)^(n-2): a polynomial of the
        # degree of |f|^2 times the "kelvin" weight, which carries the factor
        return ev.squared_values(inversion_map(inv, pts))

    if three:
        iv = sa_sphere(rules[len(ts)], x_norm, r)
        ov = sa_sphere(rules[len(ts) + 1], 0.0, 1.0)
    groups = []
    for j, t in enumerate(ts):
        meta = {"n": n, "x_norm": x_norm, "r": r, "t": t}
        mv = sa_sphere(rules[j], t, rt[j])
        if three:
            try:
                b = _resolve_beta(fam.exponents(t), beta, unchecked_beta)
            except BetaOutOfRange as exc:
                groups.append(error_row("three_spheres_eq24", exc,
                                        INEQUALITY_TOL, mv.size, beta, **meta))
            else:
                # Python-float powers: numpy's array power moves last bits
                groups.append(upper_rows(
                    "three_spheres_eq24", rt[j] * mv,
                    [(r * i) ** b * o ** (1 - b)
                     for i, o in zip(iv.tolist(), ov.tolist())],
                    INEQUALITY_TOL, exponent=b, **meta))
        if transfer:
            kv, = integrals(kelvin_squared, rules[len(sa) + j], np.zeros(n),
                            rts[j], inv, ("kelvin",))
            factor = inv.rho2 * rt[j] / rts[j]
            groups.append(identity_rows("transfer_identity_eq22", kv,
                                        factor * mv, TRANSFER_TOL, **meta))
    return groups


def three_spheres_check(f, x, r: float, t: float, beta="omega",
                        unchecked_beta: bool = False,
                        degree: int | None = None) -> InequalityReport:
    """Check the weighted three-spheres inequality on the correlated family.

        rbar * int_{S_{xbar,rbar}} |f|^2 ds_a
            <= (r * int_{S_{x,r}} |f|^2 ds_a)^beta (int_S |f|^2 ds_a)^(1-beta)

    with (xbar, rbar) the family ball at arclength t, beta in (0, alpha]
    (default the explicit bound omega).  ``unchecked_beta`` admits beta >
    alpha for negative controls, where the inequality may genuinely fail.
    ``degree`` (default ``f.degree``) must bound the degree of f.
    """
    col = _column(f, degree)
    fam = CorrelatedFamily.create(x, r, R=1.0)
    if not 0 < t <= fam.x_norm * (1 + 1e-12):
        raise OutOfRange("t must lie in (0, |x|]")
    _resolve_beta(fam.exponents(t), beta, unchecked_beta)
    return sphere_rows(col, fam, [float(t)], ("three_spheres",), beta,
                       unchecked_beta)[0].rows()[0]


def transfer_identity_check(f, fam: CorrelatedFamily, t: float,
                            degree: int | None = None) -> InequalityReport:
    """Check L_2^2(r_t*, f*) = rho^2 (r_t/r_t*) int_{S_{x_t,r_t}} |f|^2 ds_a."""
    col = _column(f, degree)
    if not 0 < t <= fam.x_norm * (1 + 1e-12):
        raise OutOfRange("t must lie in (0, |x|]")
    return flat(sphere_rows(col, fam, [float(t)], ("transfer_identity",)))[0]


def holomorphic_variant_check(coeffs, x, r: float, t: float, beta="omega",
                              unchecked_beta: bool = False) -> InequalityReport:
    """Planar holomorphic variant: ds_a replaced by (|y-a|^2+1-|y|^2) ds.

    Implemented by applying the three-spheres check to (z - z_a)^2 f(z),
    which multiplies the |f|^2 integrand by |y-a|^4 and cancels the
    denominator of the s_a density.
    """
    x = np.asarray(x, dtype=float)
    if x.size != 2:
        raise OutOfRange("holomorphic variant is planar (n = 2)")
    fam = CorrelatedFamily.create(x, r, R=1.0)
    za = complex(fam.inversion.a[0], fam.inversion.a[1])
    coeffs = [complex(c) for c in coeffs]
    shifted = [0.0j] * (len(coeffs) + 2)
    for k, c in enumerate(coeffs):
        shifted[k] += c * za * za
        shifted[k + 1] += -2 * za * c
        shifted[k + 2] += c
    g = holomorphic_polynomial(shifted)
    report = three_spheres_check(g, x, r, t, beta=beta,
                                 unchecked_beta=unchecked_beta)
    return replace(report, name="holomorphic_variant_remark3")


# ---------------------------------------------------------------------------
# three balls and the embedded bounds


def ball_rows(ev, fam: CorrelatedFamily, xbar_norm: float, checks,
              lambdas=(), delta=None) -> list:
    """A three-balls (27) row group and, for each lambda, one of
    embedded-bound rows (29) (at R = 1), (36) and (37), interleaved per
    column of ``ev``, for the names in ``checks``.

    (27) is M <= I^delta O^(1-delta) for the dmu_a integrals of |u|^2 over
    B_{x0,r0} (I), the correlated ball B_{xbar,rbar} (M) and B_R (O).  The
    embedded bounds set the plain integral over B_{xbar, lambda rbar}
    against the plain I and O.  The inner and outer balls are evaluated once
    for both measures, by rules exact at the degree of |u|^2.  The
    embedded bounds' hypothesis |x0| >= R/2 is not checked here.
    """
    n, r0, R, x0n = fam.dimension, fam.r, fam.R, fam.x_norm
    if not 0 < xbar_norm <= x0n * (1 + 1e-12):
        raise OutOfRange("need 0 < |xbar| <= |x0|")
    rbar = correlated_radius_general(x0n, r0, xbar_norm, R)
    d0 = delta0(x0n, r0, xbar_norm, R)
    delta = d0 if delta is None else float(delta)
    if not 0 < delta <= d0 * (1 + 1e-12):
        raise DeltaOutOfRange(f"delta = {delta} outside (0, {d0}]")
    inv = fam.inversion if "three_balls" in checks else None
    embedded = "embedded_bound" in checks
    sq, degree = ev.squared_values, 2 * ev.degree
    in_mu, iv = _ball_integrals(sq, x0n * fam.e, r0, degree, inv, embedded)
    out_mu, ov = _ball_integrals(sq, np.zeros(n), R, degree, inv, embedded)
    meta = {"n": n, "x_norm": x0n, "r": r0}
    groups, vol = [], ball_volume(n)

    def blend(inner, outer):  # Python-float powers, as in sphere_rows
        return np.array([i ** delta * o ** (1 - delta)
                         for i, o in zip(inner.tolist(), outer.tolist())])

    def average(vals, radius):  # A_2 = sqrt(int |u|^2 / |B|)
        return [math.sqrt(max(v, 0.0) / (vol * radius ** n))
                for v in vals.tolist()]

    if inv is not None:
        mv, _ = _ball_integrals(sq, xbar_norm * fam.e, rbar, degree, inv, False)
        groups.append(upper_rows("three_balls_eq27", mv,
                                 blend(in_mu, out_mu), INEQUALITY_TOL,
                                 exponent=delta, t=xbar_norm, **meta))
    if embedded:
        core, a2_in, a2_out = blend(iv, ov), average(iv, r0), average(ov, R)
    for lam in lambdas if embedded else ():
        _, lv = _ball_integrals(sq, xbar_norm * fam.e, lam * rbar, degree)
        c36 = EMBED_CONSTANT / (1 - lam * lam) ** 2.5 * (R / rbar) ** 5
        sides = [("embedded_bound_eq36", lv, c36 * core),
                 ("embedded_bound_eq37", average(lv, lam * rbar),
                  [certificate37(n, lam, R, rbar, i, o, delta)
                   for i, o in zip(a2_in, a2_out)])]
        if abs(R - 1.0) < 1e-14:
            sides.insert(0, ("embedded_bound_eq29", lv, EMBED_CONSTANT
                             / (rbar * (1 - lam * lam) ** 2.5) * core))
        # each polynomial's rows together: eq29, eq36, eq37
        names, lhs, rhs = zip(*sides)
        groups.append(upper_rows(names, np.stack(lhs, 1), np.stack(rhs, 1),
                                 INEQUALITY_TOL, exponent=delta, t=lam, **meta))
    return groups


def certificate37(n: int, lam: float, R: float, rbar: float, inner: float,
                  outer: float, delta: float) -> float:
    """The (37) bound sqrt(405)/(1-lam^2)^{5/4} (R/rbar)^{(n+5)/2}
    inner^delta outer^{1-delta} on A_2(xbar, lam rbar)."""
    return (math.sqrt(EMBED_CONSTANT) / (1 - lam * lam) ** 1.25
            * (R / rbar) ** ((n + 5) / 2) * inner ** delta
            * outer ** (1 - delta))


def three_balls_check(u, x0, r0: float, xbar_norm: float, delta=None,
                      degree: int | None = None) -> InequalityReport:
    """Check the weighted three-balls inequality

        int_{B_{xbar,rbar}} |u|^2 dmu_a
            <= (int_{B_{x0,r0}} |u|^2 dmu_a)^delta (int_B |u|^2 dmu_a)^(1-delta)

    for delta in (0, delta_0] (default delta_0 itself).
    """
    col = _column(u, degree)
    fam = CorrelatedFamily.create(x0, r0, R=1.0)
    return ball_rows(col, fam, float(xbar_norm), ("three_balls",), (),
                     delta)[0].rows()[0]


def embedded_bound_check(u, x0, r0: float, xbar_norm: float, lam: float,
                         R: float = 1.0, degree: int | None = None
                         ) -> list[InequalityReport]:
    """Check the unweighted (plain dx) propagation bounds.

    Emits, at R = 1, the bound with constant 405/(rbar (1-lam^2)^{5/2});
    for any R the (R/rbar)^5 form; and the normalized-average form with
    prefactor sqrt(405)/(1-lam^2)^{5/4} (R/rbar)^{(n+5)/2}.
    """
    col = _column(u, degree)
    x0 = np.asarray(x0, dtype=float)
    x0n = float(np.linalg.norm(x0))
    if x0n < R / 2 - 1e-12:
        raise PreconditionViolated(f"|x0| = {x0n} < R/2 = {R / 2}")
    if not 0 < lam < 1:
        raise OutOfRange("lambda must lie in (0, 1)")
    fam = CorrelatedFamily.create(x0, r0, R=R)
    group, = ball_rows(col, fam, float(xbar_norm), ("embedded_bound",), (lam,))
    return [replace(rep, t=float(xbar_norm)) for rep in group.rows()]


def embedding_identity_check(g, b, l: float, g_degree: int | None = None,
                             convention: str = "squared"
                             ) -> InequalityReport:
    """Check the slice identity behind the R^{n+5} embedding.

    lhs integrates g over the (n+5)-ball centered ((b, 0_5), radius l);
    rhs iterates: outer over B^n_{b,l}, inner over the 5-ball of radius
    sqrt(l^2 - |x-b|^2) written in polar form with density t^4.

    ``convention="squared"`` uses the slice radius sqrt(l^2 - |x-b|^2) (the
    reading that reproduces the (n+5)-volume); ``"printed"`` keeps
    sqrt(l - |x-b|^2) as displayed in the source.  ``g_degree`` (default
    ``g.degree``) must bound the degree of g.
    """
    g_degree = _column(g, g_degree).degree
    b = np.asarray(b, dtype=float)
    n = b.size
    if not 0 < l <= 1:
        raise OutOfRange("l must lie in (0, 1]")
    if convention not in ("squared", "printed"):
        raise OutOfRange(f'convention must be "squared" or "printed", got '
                         f'{convention!r}')
    m = n + 5
    center = np.concatenate([b, np.zeros(5)])

    def g_and_abs(p):  # |g| scales odd integrands, whose sides are ~ 0
        v = np.asarray(g(p))
        return np.stack([v, np.abs(v)], axis=1)

    # an even degree: the odd-degree product rule puts its nodes on one axis,
    # where |g| can vanish and leave no scale
    vals, = integrals(g_and_abs, BallRule.exact(m, g_degree + g_degree % 2),
                      center, l)
    lhs, abs_scale = map(float, vals.real)

    def slices(z):  # g at (outer node, z), a column per outer node of xs
        pts = np.concatenate([np.repeat(xs, len(z), axis=0),
                              np.tile(z, (len(xs), 1))], axis=1)
        return np.asarray(g(pts), dtype=float).reshape(len(xs), -1).T

    # outer ball in u = rho^2 / l^2: rho^(n-1) d rho (l^2 - rho^2)^(5/2) is
    # (l^(n+5) / 2) u^((n-2)/2) (1 - u)^(5/2) du, and the slice integral a
    # polynomial in u of degree <= g_degree / 2, so Gauss-Jacobi is exact
    u, wu = _gauss_jacobi(g_degree // 2 + 2, 2.5, (n - 2) / 2)
    u = (u + 1) / 2
    # l^n / 2 times 2^-(alpha + beta + 1) from [-1, 1] to u in [0, 1]
    wu = wu * (l ** n / 2 ** (n / 2 + 3.5))
    dirs, inner = SphereRule.product(n, g_degree), BallRule.exact(5, g_degree)
    rhs = 0.0
    for ui, wi in zip(u.tolist(), wu.tolist()):  # one outer shell at a time
        xs = b + l * math.sqrt(ui) * dirs.nodes
        s = math.sqrt(l * l - l * l * ui if convention == "squared"
                      else l - l * l * ui)
        # g over the 5-ball of radius s at each outer node, over the
        # (l^2 - rho^2)^(5/2) the Gauss-Jacobi weight carries
        cols, = integrals(slices, inner, np.zeros(5), s)
        rhs += wi / (1 - ui) ** 2.5 * float(dirs.weights @ cols)

    return identity_report(f"embedding_identity_eq30_{convention}", lhs, rhs,
                           EMBEDDING_TOL, scale_floor=1e-3 * abs_scale, n=n,
                           r=float(l))
