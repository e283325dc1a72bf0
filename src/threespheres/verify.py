"""Numerical checks for the derivative identities, the transfer identity,
log-convexity, and the three-spheres / three-balls inequalities.

Every check emits an :class:`InequalityReport`.  Upper-bound checks pass iff

    lhs <= rhs * (1 + tolerance) + stderr_budget,

identity checks iff |lhs - rhs| <= tolerance * max(|lhs|, |rhs|).  Every
integral is deterministic in every dimension, so no row carries a Monte
Carlo budget: ``stderr_budget`` is zero but for the log-convexity rows,
which carry their slack there.

A check's ``degree`` must bound the polynomial degree of its function: the
weighted rules integrate exactly only up to it across the axis toward the
inversion center a (see ``quadrature``), and gain their extra accuracy along
that axis alone.

The inequalities and the transfer identity are written once, over columns:
an evaluator maps (N, n) points to the (N, P) values or squared moduli of P
functions, and :func:`sphere_rows` / :func:`ball_rows` integrate them and
emit one report per column.  The sweep passes a ``PolynomialEvaluator`` over
its corpus; each public ``*_check`` passes a one-column :class:`Column`
around its callable, so both use the same rules and arithmetic.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

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
    abs2,
    ball_volume,
    integrals,
    surface_integral,
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

log = logging.getLogger(__name__)

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
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "exponent_used": self.exponent_used,
            "tolerance": self.tolerance,
            "stderr_budget": self.stderr_budget,
            "pass": self.passed,
            "mode": self.mode,
            "n": self.n,
            "x_norm": self.x_norm,
            "r": self.r,
            "t": self.t,
        }


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return math.inf if lhs > 0 else 1.0
    return lhs / rhs


def upper_report(name, lhs, rhs, tolerance, budget=0.0, exponent=math.nan,
                 **meta) -> InequalityReport:
    lhs, rhs = float(lhs), float(rhs)
    passed = lhs <= rhs * (1 + tolerance) + budget
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, ratio=_ratio(lhs, rhs),
                            exponent_used=float(exponent), tolerance=tolerance,
                            stderr_budget=float(budget), passed=bool(passed),
                            mode="upper", **meta)


def identity_report(name, lhs, rhs, tolerance, scale_floor=0.0,
                    **meta) -> InequalityReport:
    """Two-sided comparison; complex sides are recorded by magnitude but the
    pass decision uses the full complex gap.  ``scale_floor`` keeps the
    relative test meaningful when both sides nearly vanish."""
    gap = abs(complex(lhs) - complex(rhs))
    lhs, rhs = abs(complex(lhs)), abs(complex(rhs))
    scale = max(lhs, rhs, scale_floor, 1e-300)
    passed = gap <= tolerance * scale
    return InequalityReport(name=name, lhs=lhs, rhs=rhs, ratio=_ratio(lhs, rhs),
                            exponent_used=math.nan, tolerance=tolerance,
                            stderr_budget=0.0, passed=bool(passed),
                            mode="identity", **meta)


@dataclass(frozen=True)
class ConvexityGridReport:
    """Triple-wise log-convexity scan over a radius grid."""

    radii: np.ndarray
    values: np.ndarray
    worst_triple: tuple
    margin: float
    tolerance: float
    passed: bool


def error_row(name, exc, tolerance, mode="upper", exponent=math.nan,
              **meta) -> InequalityReport:
    """Failed placeholder row for a check that raised ``exc``."""
    return InequalityReport(
        name=f"{name}:error:{type(exc).__name__}", lhs=math.nan, rhs=math.nan,
        ratio=math.nan, exponent_used=exponent, tolerance=tolerance,
        stderr_budget=0.0, passed=False, mode=mode, **meta)


def _degree_of(f, degree: int | None = None) -> int:
    """The degree a check assumes for ``f``: ``degree`` if given, else
    ``f.degree``, else 8."""
    return int(degree if degree is not None else getattr(f, "degree", 8))


# ---------------------------------------------------------------------------
# ball integrals


def _ball_integrals(fn, center: np.ndarray, radius: float, degree: int,
                   inv=None, plain: bool = True):
    """(dmu_a-weighted, plain) column integrals of ``fn`` over
    B_{center, radius}, the first only when ``inv`` is given and the second
    only when ``plain``; both come from one evaluation, shell by shell.

    The ball-rule policy: the angular rule is sized to ten digits for the
    annulus ratio |a - center|/radius and turned toward a when the ball is
    weighted (the inequality margins are far above the 1e-9 tolerance, so
    ten digits suffice), and is exact across that axis for degree-``degree``
    polynomials; an unweighted ball takes the isotropic rule exact for them.
    16 radial points, more when a degree-``degree`` polynomial needs them to
    stay exact.
    """
    n = center.size
    kappa = axis = None
    if inv is not None:
        axis = inv.a - center
        kappa = float(np.linalg.norm(axis)) / radius
        axis = axis / (kappa * radius)
    rule = BallRule(SphereRule.default(n, degree, kappa, digits=10),
                    radial_points=max(16, (degree + n + 1) // 2))
    weights = (("mu_a",) if inv is not None else ()) + ((None,) if plain else ())
    cols = [vals for vals, _ in integrals(fn, rule, center, radius, axis, inv,
                                          weights)]
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


def gradient_identity_check(f, x, r: float, e=None,
                            degree: int | None = None) -> list[InequalityReport]:
    """Check the two ball-average derivative identities.

    The directional derivative of a(x, r, f) = int_{B_{x,r}} f equals
    int_{S_{x,r}} f (e . n) ds, and its radial derivative equals
    int_{S_{x,r}} f ds; both finite-difference derivatives (step
    ``FD_STEP``) must match quadrature to relative 1e-5.  ``e`` (default the
    first axis) must be a nonzero vector of length n.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    deg = _degree_of(f, degree)
    if e is None:
        e = np.zeros(n)
        e[0] = 1.0
    else:
        e = np.asarray(e, dtype=float)
        norm = float(np.linalg.norm(e))
        if e.shape != (n,) or not 0 < norm < math.inf:
            raise OutOfRange(f"direction e must be a nonzero finite vector "
                             f"of length {n}, got {e.tolist()!r}")
        e = e / norm
    srule = SphereRule.default(n, deg + 1)
    col = Column(f)

    def vol(center, radius):
        _, vals = _ball_integrals(col.values, center, radius, deg)
        return complex(vals[0])

    h = FD_STEP
    fd_dir = (vol(x + h * e, r) - vol(x - h * e, r)) / (2 * h)
    fd_rad = (vol(x, r + h) - vol(x, r - h)) / (2 * h)

    def f_en(pts):
        normal = (pts - x) / r
        return np.asarray(f(pts)) * (normal @ e)

    quad_dir = complex(surface_integral(f_en, x, r, srule).value)
    quad_rad = complex(surface_integral(f, x, r, srule).value)
    # derivative-magnitude floor keeps the relative test sane when the
    # directional derivative vanishes by symmetry
    floor = 1e-3 * max(1.0, abs(quad_rad))
    meta = {"n": n, "x_norm": float(np.linalg.norm(x)), "r": float(r)}
    return [
        identity_report("gradient_identity_eq2", fd_dir, quad_dir,
                        IDENTITY_FD_TOL, scale_floor=floor, **meta),
        identity_report("gradient_identity_eq3", fd_rad, quad_rad,
                        IDENTITY_FD_TOL, scale_floor=floor, **meta),
    ]


def derivative_identity_check(f, fam: CorrelatedFamily, t: float,
                              degree: int | None = None) -> list[InequalityReport]:
    """Check d/dt int_{B_{x_t,r_t}} f dy against the two surface forms.

    The curve form integrates f (e . n + r_t'); substituting the closed-form
    r_t' turns it into -(2|a| r_t)^{-1} int f [|y-a|^2 + R^2 - |y|^2] ds.
    Both must match the central finite difference (step ``FD_STEP``) of the
    family volume integral to relative 1e-5.
    """
    x_norm = fam.x_norm
    if not 0 < t < x_norm:
        raise OutOfRange("t must be interior to (0, |x|) for the central "
                         "difference")
    n = fam.dimension
    deg = _degree_of(f, degree)
    srule = SphereRule.default(n, deg + 2)
    inv = fam.inversion
    col = Column(f)

    def vol(s):
        ball = fam.ball(s)
        _, vals = _ball_integrals(col.values, ball.center, ball.radius, deg)
        return complex(vals[0])

    fd = (vol(t + FD_STEP) - vol(t - FD_STEP)) / (2 * FD_STEP)

    rt = float(fam.radius(t))
    rpt = float(fam.radius_derivative(t))
    center = fam.center(t)

    def f_curve(pts):
        normal = (pts - center) / rt
        return np.asarray(f(pts)) * (normal @ fam.e + rpt)

    def f_weighted(pts):
        d = pts - inv.a
        bracket = (np.einsum("ij,ij->i", d, d) + inv.R ** 2
                   - np.einsum("ij,ij->i", pts, pts))
        return np.asarray(f(pts)) * bracket

    rhs5 = complex(surface_integral(f_curve, center, rt, srule).value)
    rhs13 = complex(surface_integral(f_weighted, center, rt, srule).value)
    rhs13 *= -1.0 / (2 * inv.a_norm * rt)
    floor = 1e-3 * max(1.0, abs(complex(surface_integral(f, center, rt,
                                                         srule).value)))
    meta = {"n": n, "x_norm": x_norm, "r": fam.r, "t": float(t)}
    return [
        identity_report("derivative_identity_eq5", fd, rhs5, IDENTITY_FD_TOL,
                        scale_floor=floor, **meta),
        identity_report("derivative_identity_eq13", fd, rhs13,
                        IDENTITY_FD_TOL, scale_floor=floor, **meta),
    ]


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
    if np.any(values <= 0):
        raise NonpositiveL("log-convexity requires L > 0 on the grid")
    margin, worst = convexity_margins(np.log(radii), np.log(values)[:, None])
    return ConvexityGridReport(radii=radii, values=values,
                               worst_triple=tuple(radii[worst[0]]),
                               margin=float(margin[0]),
                               tolerance=CONVEXITY_SLACK,
                               passed=bool(margin[0] >= -CONVEXITY_SLACK))


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
                degree: int = 16, unchecked_beta: bool = False) -> list:
    """Three-spheres (24) and transfer (22) rows at each t of ``ts``, per
    column of ``ev``, for the names in ``checks``.

    (24) is rbar M <= (r I)^beta O^(1-beta) for the ds_a integrals of |f|^2
    over the inner sphere (I), the unit sphere (O) and the family sphere at
    t (M, radius rbar); a beta outside (0, alpha_t] gives failed error rows.
    (22) compares the integral of |f*|^2 over S_{0, r_t*} with
    rho^2 (r_t/r_t*) M.  ``degree`` bounds the degree of |f|^2.
    """
    n, r, x_norm, inv = fam.dimension, fam.r, fam.x_norm, fam.inversion

    def sa_sphere(center_norm, radius):
        # polar axis on e, toward a: a and the centers lie on the +e ray
        rule = SphereRule.default(n, degree, (inv.a_norm - center_norm) / radius)
        return integrals(ev.squared_values, rule, center_norm * fam.e, radius,
                         fam.e, inv, ("s_a",))[0][0]

    def kelvin_squared(pts):
        # |f*|^2 = |f(phi(y))|^2 (rho^2/|y-a|^2)^(n-2): on a slice across e,
        # phi is affine and the factor constant, so degree <= ``degree`` there
        sq = abs2(ev.values(inversion_map(inv, pts)))
        if n == 2:
            return sq
        d = pts - inv.a
        return sq * ((inv.rho2 / np.einsum("ij,ij->i", d, d)) ** (n - 2))[:, None]

    if "three_spheres" in checks:
        iv = sa_sphere(x_norm, r)
        ov = sa_sphere(0.0, 1.0)
    rows = []
    for t in ts:
        meta = {"n": n, "x_norm": x_norm, "r": r, "t": t}
        rt = float(fam.radius(t))
        mv = sa_sphere(t, rt)
        if "three_spheres" in checks:
            try:
                b = _resolve_beta(fam.exponents(t), beta, unchecked_beta)
            except BetaOutOfRange as exc:
                rows.extend(error_row("three_spheres_eq24", exc,
                                      INEQUALITY_TOL, exponent=float(beta),
                                      **meta)
                            for _ in mv)
            else:
                rows.extend(upper_report(
                    "three_spheres_eq24", rt * mv[p],
                    (r * iv[p]) ** b * ov[p] ** (1 - b), INEQUALITY_TOL,
                    exponent=b, **meta) for p in range(mv.size))
        if "transfer_identity" in checks:
            rts = float(fam.image_radius(t))
            # the Kelvin side has a high-order pole at a: generous allowance
            rule = SphereRule.default(n, degree, inv.a_norm / rts,
                                      pole_order=12)
            (kv, _), = integrals(kelvin_squared, rule, np.zeros(n), rts, fam.e)
            factor = inv.rho2 * rt / rts
            rows.extend(identity_report(
                "transfer_identity_eq22", kv[p], factor * mv[p], TRANSFER_TOL,
                **meta) for p in range(kv.size))
    return rows


def three_spheres_check(f, x, r: float, t: float, beta="omega",
                        unchecked_beta: bool = False,
                        degree: int | None = None) -> InequalityReport:
    """Check the weighted three-spheres inequality on the correlated family.

        rbar * int_{S_{xbar,rbar}} |f|^2 ds_a
            <= (r * int_{S_{x,r}} |f|^2 ds_a)^beta (int_S |f|^2 ds_a)^(1-beta)

    with (xbar, rbar) the family ball at arclength t, beta in (0, alpha]
    (default the explicit bound omega).  ``unchecked_beta`` admits beta >
    alpha for negative controls, where the inequality may genuinely fail.
    ``degree`` (default ``f.degree``, else 8) must bound the degree of f.
    """
    fam = CorrelatedFamily.create(x, r, R=1.0)
    if not 0 < t <= fam.x_norm * (1 + 1e-12):
        raise OutOfRange("t must lie in (0, |x|]")
    _resolve_beta(fam.exponents(t), beta, unchecked_beta)
    return sphere_rows(Column(f), fam, [float(t)], ("three_spheres",), beta,
                       2 * _degree_of(f, degree), unchecked_beta)[0]


def transfer_identity_check(f, fam: CorrelatedFamily, t: float,
                            degree: int | None = None) -> InequalityReport:
    """Check L_2^2(r_t*, f*) = rho^2 (r_t/r_t*) int_{S_{x_t,r_t}} |f|^2 ds_a."""
    if not 0 < t <= fam.x_norm * (1 + 1e-12):
        raise OutOfRange("t must lie in (0, |x|]")
    return sphere_rows(Column(f), fam, [float(t)], ("transfer_identity",),
                       degree=2 * _degree_of(f, degree))[0]


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
                                 unchecked_beta=unchecked_beta,
                                 degree=g.degree)
    return replace(report, name="holomorphic_variant_remark3")


# ---------------------------------------------------------------------------
# three balls and the embedded bounds


def ball_rows(ev, fam: CorrelatedFamily, xbar_norm: float, checks,
              lambdas=(), degree: int = 16, delta=None) -> list:
    """Three-balls (27) rows and, for each lambda, embedded-bound rows (29)
    (at R = 1), (36) and (37), per column of ``ev``, for the names in
    ``checks``.

    (27) is M <= I^delta O^(1-delta) for the dmu_a integrals of |u|^2 over
    B_{x0,r0} (I), the correlated ball B_{xbar,rbar} (M) and B_R (O).  The
    embedded bounds set the plain integral over B_{xbar, lambda rbar}
    against the plain I and O.  The inner and outer balls are evaluated once
    for both measures.  ``degree`` bounds the degree of |u|^2.
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
    sq = ev.squared_values
    in_mu, iv = _ball_integrals(sq, x0n * fam.e, r0, degree, inv, embedded)
    out_mu, ov = _ball_integrals(sq, np.zeros(n), R, degree, inv, embedded)
    meta = {"n": n, "x_norm": x0n, "r": r0}
    rows = []
    if inv is not None:
        mv, _ = _ball_integrals(sq, xbar_norm * fam.e, rbar, degree, inv, False)
        rows.extend(upper_report(
            "three_balls_eq27", mv[p],
            in_mu[p] ** delta * out_mu[p] ** (1 - delta), INEQUALITY_TOL,
            exponent=delta, t=xbar_norm, **meta) for p in range(mv.size))
    vol = ball_volume(n)
    for lam in lambdas if embedded else ():
        _, lv = _ball_integrals(sq, xbar_norm * fam.e, lam * rbar, degree)
        for p in range(lv.size):
            core = iv[p] ** delta * ov[p] ** (1 - delta)
            rhs_by_name = {}
            if abs(R - 1.0) < 1e-14:
                rhs_by_name["embedded_bound_eq29"] = (
                    EMBED_CONSTANT / (rbar * (1 - lam * lam) ** 2.5) * core)
            rhs_by_name["embedded_bound_eq36"] = (
                EMBED_CONSTANT / (1 - lam * lam) ** 2.5 * (R / rbar) ** 5
                * core)
            for name, rhs in rhs_by_name.items():
                rows.append(upper_report(name, lv[p], rhs, INEQUALITY_TOL,
                                         exponent=delta, t=lam, **meta))
            a2_lam, a2_in, a2_out = (
                math.sqrt(max(v, 0.0) / (vol * radius ** n))
                for v, radius in ((lv[p], lam * rbar), (iv[p], r0), (ov[p], R)))
            rhs37 = (math.sqrt(EMBED_CONSTANT) / (1 - lam * lam) ** 1.25
                     * (R / rbar) ** ((n + 5) / 2)
                     * a2_in ** delta * a2_out ** (1 - delta))
            rows.append(upper_report("embedded_bound_eq37", a2_lam, rhs37,
                                     INEQUALITY_TOL, exponent=delta, t=lam,
                                     **meta))
    return rows


def three_balls_check(u, x0, r0: float, xbar_norm: float, delta=None,
                      degree: int | None = None) -> InequalityReport:
    """Check the weighted three-balls inequality

        int_{B_{xbar,rbar}} |u|^2 dmu_a
            <= (int_{B_{x0,r0}} |u|^2 dmu_a)^delta (int_B |u|^2 dmu_a)^(1-delta)

    for delta in (0, delta_0] (default delta_0 itself).
    """
    fam = CorrelatedFamily.create(x0, r0, R=1.0)
    return ball_rows(Column(u), fam, float(xbar_norm), ("three_balls",), (),
                     2 * _degree_of(u, degree), delta)[0]


def embedded_bound_check(u, x0, r0: float, xbar_norm: float, lam: float,
                         R: float = 1.0, degree: int | None = None
                         ) -> list[InequalityReport]:
    """Check the unweighted (plain dx) propagation bounds.

    Emits, at R = 1, the bound with constant 405/(rbar (1-lam^2)^{5/2});
    for any R the (R/rbar)^5 form; and the normalized-average form with
    prefactor sqrt(405)/(1-lam^2)^{5/4} (R/rbar)^{(n+5)/2}.
    """
    x0 = np.asarray(x0, dtype=float)
    x0n = float(np.linalg.norm(x0))
    if x0n < R / 2 - 1e-12:
        raise PreconditionViolated(f"|x0| = {x0n} < R/2 = {R / 2}")
    if not 0 < lam < 1:
        raise OutOfRange("lambda must lie in (0, 1)")
    fam = CorrelatedFamily.create(x0, r0, R=R)
    rows = ball_rows(Column(u), fam, float(xbar_norm), ("embedded_bound",),
                     (lam,), 2 * _degree_of(u, degree))
    return [replace(rep, t=float(xbar_norm)) for rep in rows]


def embedding_identity_check(g, b, l: float, g_degree: int = 6,
                             convention: str = "squared"
                             ) -> InequalityReport:
    """Check the slice identity behind the R^{n+5} embedding.

    lhs integrates g over the (n+5)-ball centered ((b, 0_5), radius l);
    rhs iterates: outer over B^n_{b,l}, inner over the 5-ball of radius
    sqrt(l^2 - |x-b|^2) written in polar form with density t^4.

    ``convention="squared"`` uses the slice radius sqrt(l^2 - |x-b|^2) (the
    reading that reproduces the (n+5)-volume); ``"printed"`` keeps
    sqrt(l - |x-b|^2) as displayed in the source.
    """
    b = np.asarray(b, dtype=float)
    n = b.size
    if not 0 < l <= 1:
        raise OutOfRange("l must lie in (0, 1]")
    m = n + 5
    lhs_rule = BallRule(SphereRule.product(m, g_degree + 2), radial_points=32)
    center = np.concatenate([b, np.zeros(5)])

    def g_and_abs(p):  # |g| scales odd integrands, whose sides are ~ 0
        v = np.asarray(g(p))
        return np.stack([v, np.abs(v)], axis=1)

    (vals, _), = integrals(g_and_abs, lhs_rule, center, l)
    lhs, abs_scale = map(float, vals.real)

    # inner 5-ball template: displacements and weights for unit radius
    s4 = SphereRule.product(5, g_degree + 2)
    tref, wref = np.polynomial.legendre.leggauss(24)
    tref = (tref + 1) / 2
    wref = wref / 2
    disp = (tref[:, None, None] * s4.nodes[None, :, :]).reshape(-1, 5)
    wq = (wref * tref ** 4)[:, None] * s4.weights[None, :]
    wq = wq.reshape(-1)

    out_sphere = SphereRule.product(n, g_degree + 2)
    rout, wout = np.polynomial.legendre.leggauss(48)
    rout = (rout + 1) / 2 * l
    wout = wout / 2 * l

    rhs = 0.0
    for j in range(rout.size):
        radius = rout[j]
        xs = b + radius * out_sphere.nodes
        s2 = l * l - radius * radius if convention == "squared" else l - radius * radius
        if s2 <= 0:
            continue
        s = math.sqrt(s2)
        # block-evaluate g on (outer node, inner node) pairs
        pts = np.concatenate([
            np.repeat(xs, disp.shape[0], axis=0),
            np.tile(s * disp, (xs.shape[0], 1)),
        ], axis=1)
        vals = np.asarray(g(pts), dtype=float).reshape(xs.shape[0], disp.shape[0])
        inner_vals = s ** 5 * (vals @ wq)
        rhs += wout[j] * radius ** (n - 1) * float(out_sphere.weights @ inner_vals)

    report = identity_report(f"embedding_identity_eq30_{convention}", lhs, rhs,
                             EMBEDDING_TOL, scale_floor=1e-3 * abs_scale, n=n,
                             r=float(l))
    log.debug("embedding identity (%s): lhs=%.12g rhs=%.12g", convention, lhs,
              rhs)
    return report
