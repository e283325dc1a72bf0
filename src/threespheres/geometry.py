"""Correlated balls over B_R, the orthogonal inversion, family and image radii.

The construction: fix an inner ball B_{x,r} inside B_R with x != 0 and
0 < r < R - |x| (non-concentric, non-touching).  A one-parameter family of
balls B_{x_t, r_t}, x_t = t * x/|x|, t in [0, |x|], interpolates between B_R
(t = 0) and B_{x,r} (t = |x|) while keeping the correlation constant

    (R^2 + t^2 - r_t^2) / t

invariant.  An inversion sphere S_{a,rho} orthogonal to S_R, with center a on
the ray through x, maps every family sphere onto a sphere centered at the
origin with radius r_t*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConcentricInput,
    DegenerateLog,
    NoRealRoot,
    OutOfRange,
    SingularPoint,
    TouchingBalls,
    as_integer,
)

__all__ = [
    "Ball",
    "CorrelatedFamily",
    "ExponentRecord",
    "InversionData",
    "correlated_radius_general",
    "correlation_check",
    "correlation_constant",
    "delta0",
    "half_plane_inversion",
    "inversion_map",
    "solve_inversion_center",
    "sphere_image_check",
]

_REL_TOL = 1e-9


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise OutOfRange("points must be vectors of dimension >= 2")
    if not np.all(np.isfinite(arr)):
        raise OutOfRange("point coordinates must be finite")
    return arr


@dataclass(frozen=True)
class Ball:
    """Open ball with center vector and positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center))
        if not 0 < self.radius < math.inf:
            raise OutOfRange(f"radius must be finite and positive, got "
                             f"{self.radius}")

    @property
    def dimension(self) -> int:
        return self.center.size

    def contains(self, other: "Ball") -> bool:
        gap = float(np.linalg.norm(self.center - other.center))
        return gap <= self.radius - other.radius + 1e-12


@dataclass(frozen=True)
class InversionData:
    """Center a and radius rho of the inversion sphere orthogonal to S_R.

    Orthogonality means rho^2 = |a|^2 - R^2, which forces |a| > R and makes
    the induced inversion map B_R onto itself.
    """

    a: np.ndarray
    rho: float
    R: float = 1.0
    a_norm: float = field(init=False, repr=False)
    rho2: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _as_vector(self.a))
        a_norm = float(np.linalg.norm(self.a))
        if not 0 < self.R < a_norm:
            raise OutOfRange(f"R = {self.R} must be positive and below "
                             f"|a| = {a_norm}")
        expected = math.sqrt(a_norm * a_norm - self.R * self.R)
        if abs(self.rho - expected) > _REL_TOL * max(1.0, expected):
            raise OutOfRange("rho^2 = |a|^2 - R^2 violated (inversion sphere "
                             "not orthogonal to S_R)")
        object.__setattr__(self, "a_norm", a_norm)
        object.__setattr__(self, "rho2", self.rho * self.rho)

    @property
    def dimension(self) -> int:
        return self.a.size


def correlation_constant(x_norm: float, r: float, R: float = 1.0) -> float:
    """(R^2 + |x|^2 - r^2)/|x|, the quantity shared by correlated balls."""
    if x_norm == 0:
        raise ConcentricInput("correlation constant undefined for x = 0")
    return (R * R + x_norm * x_norm - r * r) / x_norm


def _require_finite(*named) -> None:
    """:class:`OutOfRange` naming the first non-finite (name, value) pair."""
    for name, value in named:
        if not math.isfinite(value):
            raise OutOfRange(f"{name} must be finite, got {value}")


def solve_inversion_center(x_norm: float, r: float, R: float = 1.0,
                           direction=None, dimension: int = 2) -> InversionData:
    """Solve for the inversion center that makes the family images concentric.

    |a| is the larger root of ``|a|^2 x - (R^2 + x^2 - r^2) |a| + R^2 x = 0``;
    the reciprocal root R^2/|a| < R corresponds to the reflected center and is
    rejected.

    Parameters
    ----------
    x_norm, r : float
        Center distance and radius of the generating inner ball.
    R : float
        Ambient ball radius.
    direction : array_like, optional
        Unit direction of the generating center.  Defaults to the first
        coordinate axis in ``dimension`` coordinates.
    """
    if x_norm == 0:
        raise ConcentricInput("x = 0: concentric case has no inversion; use "
                              "plain log-convexity of L2")
    _require_finite(("|x|", x_norm), ("R", R))
    if x_norm < 0:
        raise OutOfRange(f"|x| must be positive, got {x_norm}")
    if not 0 < r < R - x_norm:
        if r >= R - x_norm and math.isclose(r, R - x_norm, rel_tol=1e-12):
            raise TouchingBalls(f"r = R - |x| = {r}: touching case excluded")
        if r >= R - x_norm:
            raise OutOfRange(f"need 0 < r < R - |x|, got r={r}, R-|x|={R - x_norm}")
        raise OutOfRange(f"radius r must be positive, got {r}")
    c = correlation_constant(x_norm, r, R)
    disc = c * c - 4 * R * R
    if disc <= 0:
        # c = 2R happens exactly at the touching configuration
        raise TouchingBalls("correlation constant reached 2R: balls touch S_R")
    a_norm = 0.5 * (c + math.sqrt(disc))
    rho = math.sqrt(a_norm * a_norm - R * R)
    if direction is None:
        e = np.zeros(dimension)
        e[0] = 1.0
    else:
        e = _as_vector(direction)
        e = e / np.linalg.norm(e)
    inv = InversionData(a=a_norm * e, rho=rho, R=R)
    object.__setattr__(inv, "a_norm", a_norm)  # the solved |a|, not |a_norm e|
    return inv


@dataclass(frozen=True)
class ExponentRecord:
    """Exponents attached to one family position: sharp alpha, usable omega."""

    alpha: float
    omega: float


@dataclass(frozen=True)
class CorrelatedFamily:
    """The family of balls correlated with B_{x,r} over B_R.

    ``radius`` and ``image_radius`` evaluate r_t and r_t*, the derivative
    methods give their closed-form t-derivatives, and ``exponents`` returns
    the interpolation exponents alpha_t (sharp) and omega_t (explicit bound).
    """

    x: np.ndarray
    r: float
    R: float
    inversion: InversionData
    e: np.ndarray
    x_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x_norm", float(np.linalg.norm(self.x)))

    @classmethod
    def create(cls, x, r: float, R: float = 1.0) -> "CorrelatedFamily":
        x = _as_vector(x)
        x_norm = float(np.linalg.norm(x))
        if x_norm == 0:
            raise ConcentricInput("family requires x != 0")
        e = x / x_norm
        inv = solve_inversion_center(x_norm, r, R, direction=e)
        return cls(x=x, r=float(r), R=float(R), inversion=inv, e=e)

    @property
    def dimension(self) -> int:
        return self.x.size

    def _check_t(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all((t >= -1e-15) & (t <= self.x_norm * (1 + 1e-12) + 1e-15)):
            raise OutOfRange(f"t must lie in [0, |x|] = [0, {self.x_norm}]")
        return t

    def center(self, t: float) -> np.ndarray:
        self._check_t(t)
        return t * self.e

    def ball(self, t: float) -> Ball:
        return Ball(center=self.center(t), radius=float(self.radius(t)))

    def radius(self, t):
        """Family radius r_t; r_0 = R and r_{|x|} = r."""
        return self._radius(self._check_t(t))

    def _radius(self, t):  # r_t of a checked t
        return np.sqrt(_radius_squared(t, self.inversion.a_norm, self.R))

    def radius_derivative(self, t):
        """dr_t/dt from 2 r_t r_t' = 2t - (|a|^2 + R^2)/|a|."""
        t = self._check_t(t)
        a = self.inversion.a_norm
        return (2 * t - (a * a + self.R * self.R) / a) / (2 * self._radius(t))

    def image_radius(self, t):
        """Image radius r_t* under the inversion; both closed forms must agree."""
        t = self._check_t(t)
        a = self.inversion.a_norm
        R = self.R
        rt = self._radius(t)
        v1 = rt * a / (a - t)
        v2 = (R * R - a * t) / rt
        agreement = np.max(np.abs(v1 - v2) / np.maximum(np.abs(v1), 1e-300))
        if agreement > 1e-12:
            raise NoRealRoot(f"image-radius forms disagree by {agreement}")
        return v1

    def image_radius_derivative(self, t):
        """d r_t*/dt from 2 r_t (r_t*)' |a| = -rho^2 (r_t*/r_t)."""
        image = self.image_radius(t)  # the one check of t
        inv, rt = self.inversion, self._radius(np.asarray(t, dtype=float))
        return -inv.rho2 * image / (2 * inv.a_norm * rt * rt)

    def exponents(self, t: float) -> ExponentRecord:
        """Sharp exponent alpha_t = log r_t*/log r_{|x|}* and the explicit
        lower bound omega_t; alpha_t > omega_t for t in (0, |x|]."""
        if not 0 < t <= self.x_norm * (1 + 1e-12):
            raise OutOfRange(f"t must lie in (0, |x|], got {t}")
        R = self.R
        s_end = float(self.image_radius(self.x_norm)) / R
        if s_end >= 1.0:
            raise DegenerateLog("r_{|x|}* = R: degenerate family")
        s_t = float(self.image_radius(t)) / R
        alpha = math.log(s_t) / math.log(s_end)
        xs, rs, ts = self.x_norm / R, self.r / R, t / R
        omega = ts * ts * (1 - xs - rs) / math.log((1 - xs * xs) / rs)
        return ExponentRecord(alpha=alpha, omega=omega)


def inversion_map(inv: InversionData, y):
    """Inversion phi(y) = a + rho^2 (y - a)/|y - a|^2 with respect to S_{a,rho}.

    Accepts a single point or an (N, n) array of points; phi is an involution
    and maps B_R onto itself.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = y[None, :] if single else y
    if pts.shape[1] != inv.dimension:
        raise OutOfRange("point dimension does not match inversion center")
    d = pts - inv.a
    dist2 = np.einsum("ij,ij->i", d, d)
    if np.any(dist2 == 0.0):
        raise SingularPoint("inversion undefined at y = a")
    out = inv.a + (inv.rho2 / dist2)[:, None] * d
    return out[0] if single else out


def half_plane_inversion(inv: InversionData, alpha: float, x, rho):
    """The inversion on the half-planes bounded by a line through a, at
    coordinate ``alpha`` along it: the point at coordinate x along the line
    and distance rho from it goes to (alpha + k (x - alpha), k rho),
    k = rho_a^2 / ((x - alpha)^2 + rho^2), in the same half-plane."""
    dx = np.asarray(x, dtype=float) - alpha
    dist2 = dx * dx + rho * rho
    if np.any(dist2 == 0.0):
        raise SingularPoint("inversion undefined at y = a")
    k = inv.rho2 / dist2
    return alpha + k * dx, k * rho


def _reflection(axis: np.ndarray) -> np.ndarray | None:
    """The Householder reflection taking e_1 to the unit vector ``axis``,
    None when ``axis`` is e_1."""
    e1 = np.zeros(axis.size)
    e1[0] = 1.0
    w = e1 - axis
    nw2 = float(w @ w)
    if nw2 < 1e-30:
        return None
    return np.eye(axis.size) - 2.0 * np.outer(w, w) / nw2


# relative distance from a line below which a point counts as on it: a few
# rounding errors of the unit vectors that span it
LINE_TOL = 4e-15


def _on_line(p: np.ndarray, axis: np.ndarray) -> bool:
    """Whether ``p`` lies on the line spanned by the unit vector ``axis``."""
    off = p - float(p @ axis) * axis
    return bool(np.linalg.norm(off) <= LINE_TOL * np.linalg.norm(p))


def sphere_image_check(fam: CorrelatedFamily, t: float, samples: int,
                       seed: int = 0, tol: float = 1e-10) -> bool:
    """Sample S_{x_t, r_t}, map through the inversion, and confirm the image
    lies on the origin-centered sphere of radius r_t*."""
    fam._check_t(t)
    samples = as_integer(samples, "samples", 1)
    rng = np.random.default_rng(seed)
    n = fam.dimension
    u = rng.standard_normal((samples, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    pts = fam.center(t) + float(fam.radius(t)) * u
    image = inversion_map(fam.inversion, pts)
    radii = np.linalg.norm(image, axis=1)
    return bool(np.max(np.abs(radii - float(fam.image_radius(t)))) < tol)


def _codirected(c1: np.ndarray, c2: np.ndarray) -> bool:
    n1 = float(np.linalg.norm(c1))
    n2 = float(np.linalg.norm(c2))
    if n1 * n2 == 0.0:
        return True
    cos = float(np.dot(c1, c2)) / (n1 * n2)
    return cos >= 1 - 1e-12


def correlation_check(b1: Ball, b2: Ball, R: float = 1.0) -> bool:
    """Are the two balls correlated over B_R (Definition of correlation)?

    Centers must be codirected and the correlation constant shared; a ball
    centered at the origin is correlated with any other ball only when its
    radius equals R (and concentric pairs are correlated unconditionally).
    """
    n1 = float(np.linalg.norm(b1.center))
    n2 = float(np.linalg.norm(b2.center))
    if not _codirected(b1.center, b2.center):
        return False
    if n1 == 0.0 and n2 == 0.0:
        return True
    if n1 == 0.0 or n2 == 0.0:
        # (R^2 + |x|^2 - r^2)|xbar| = |x|(R^2 + |xbar|^2 - rbar^2) with one
        # side at the origin forces the off-origin radius... the origin ball
        # must be B_R itself.
        origin_radius = b1.radius if n1 == 0.0 else b2.radius
        return abs(origin_radius - R) <= _REL_TOL * R
    c1 = correlation_constant(n1, b1.radius, R)
    c2 = correlation_constant(n2, b2.radius, R)
    return abs(c1 - c2) <= _REL_TOL * max(abs(c1), abs(c2))


def _radius_squared(t, a_norm: float, R: float):
    """r_t^2 = (R - tR/|a|)(R - |a|t/R): every correlated radius is r_t."""
    return (R - t * R / a_norm) * (R - a_norm * t / R)


def correlated_radius_general(x0_norm: float, r0: float, xbar_norm: float,
                              R: float = 1.0) -> float:
    """Radius rbar of the ball at |xbar| correlated with B_{x0,r0} over B_R.

    This is the family radius r_t of :class:`CorrelatedFamily` at t = |xbar|,
    with |a| from :func:`solve_inversion_center`, and exact at the ends:
    rbar = r0 at |xbar| = |x0| and R at |xbar| = 0.  It satisfies
    B_{x0,r0} subset B_{xbar,rbar} subset B_R and rbar >= r0.
    """
    if x0_norm < 0 or not 0 < r0 < R - x0_norm:
        raise OutOfRange("need |x0| >= 0 and 0 < r0 < R - |x0|")
    if not 0 <= xbar_norm <= x0_norm * (1 + 1e-12):
        raise OutOfRange("need 0 <= |xbar| <= |x0|")
    if x0_norm == 0.0 or xbar_norm == x0_norm:
        return float(r0)
    a_norm = solve_inversion_center(x0_norm, r0, R).a_norm
    sq = _radius_squared(xbar_norm, a_norm, R)
    if sq <= 0:
        raise NoRealRoot("no real correlated radius (violated preconditions)")
    return math.sqrt(sq)


def delta0(x0_norm: float, r0: float, xbar_norm: float, R: float = 1.0,
           variant: str = "scaled") -> float:
    """Admissible three-balls exponent delta_0 for the correlated pair.

    ``variant="scaled"`` (default) evaluates the unit-ball formula

        |xbar|^2 / (2 (1-|xbar|)) * (1-|x0|-r0) / log((1-|x0|^2)/(r0/2))

    on inputs divided by R.  ``variant="printed"`` keeps the log argument
    ``(R - |x0|^2)/(r0/2)`` of the source display, which is dimensionally
    inconsistent and collapses for R != 1; it is retained for side-by-side
    comparison only.
    """
    _require_finite(("|x0|", x0_norm), ("R", R))
    if not xbar_norm > 0:
        raise OutOfRange(f"delta0 requires |xbar| > 0, got {xbar_norm}")
    if not 0 < r0 < R - x0_norm:
        raise OutOfRange(f"need 0 < r0 < R - |x0|, got r0 = {r0}, |x0| = "
                         f"{x0_norm}, R = {R}")
    if not xbar_norm <= x0_norm:
        raise OutOfRange(f"need |xbar| <= |x0|, got |xbar| = {xbar_norm}")
    if variant == "scaled":
        xs, rs, bs = x0_norm / R, r0 / R, xbar_norm / R
        arg = (1 - xs * xs) / (rs / 2)
        if arg <= 1:
            raise DegenerateLog(f"log argument {arg} <= 1")
        return bs * bs / (2 * (1 - bs)) * (1 - xs - rs) / math.log(arg)
    if variant == "printed":
        arg = (R - x0_norm * x0_norm) / (r0 / 2)
        if arg <= 1:
            raise DegenerateLog(f"log argument {arg} <= 1 (printed variant)")
        pref = xbar_norm ** 2 / (2 * R * R * (R - xbar_norm))
        return pref * (R - x0_norm - r0) / math.log(arg)
    raise OutOfRange(f"unknown delta0 variant {variant!r}")
