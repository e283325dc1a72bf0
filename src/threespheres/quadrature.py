"""Surface and volume quadrature on spheres and balls in R^n.

Deterministic rules: equispaced trapezoid on the circle (n = 2), Gauss-
Legendre x trapezoid on S^2, and Gauss-Gegenbauer products for higher
dimensions; all are exact for polynomials up to their declared degree.
Every Gauss factor comes from :func:`_gauss_jacobi`, the eigen-decomposition
of the Jacobi matrix in numpy (Golub & Welsch, 1969).  Its cost is O(q^3) in
the node count q: about 15 ms at q = 300, but about 1 s at q = 1 513, the
largest axial factor an annulus ratio of 1.02 allows; each rule is built
once per process and cached.
A seeded Monte Carlo rule (normalized-Gaussian directions, equal weights)
serves the tests as an independent oracle; no check uses it.

Weighted integrals carry the densities induced by the inversion:

    ds_a = (|y-a|^2 + R^2 - |y|^2)/|y-a|^4 ds,     dmu_a = |y-a|^(-4) dy.

Both densities are analytic near the closed ball (a lies strictly outside),
so deterministic rules converge geometrically.  The centres and a lie on one
ray, so the densities (and the Kelvin factor) depend on a node only through
its coordinate along that ray: the weighted rules are anisotropic, with the
first polar axis turned toward a and sized from the annulus ratio
distance(center, a)/radius, and the S^{n-2} across it sized only for the
polynomial degree of the integrand (Stroud, 1971).

Integration works on columns: :func:`integrals` places a rule on a sphere or
ball, calls a function mapping (N, n) points to (N, P) values once on all
its nodes, and contracts the values with plain, ds_a or dmu_a weights,
returning one array of column integrals per weight.  The batched checks call
it with P corpus functions; the public integrals below are its one-column
case and return one number: a numpy scalar for the raw integrals (real for
real integrands, complex otherwise) and a float for the norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRange, RuleDimensionMismatch, UnderResolved
from .geometry import Ball, InversionData

__all__ = [
    "BallRule",
    "SphereRule",
    "ball_integral",
    "ball_volume",
    "l2_ball_norm",
    "l2_sphere_norm",
    "normalized_average_A2",
    "sphere_area",
    "surface_integral",
    "weighted_ball_integral_mua",
    "weighted_surface_integral_sa",
]


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1}."""
    return 2 * math.pi ** (n / 2) / math.gamma(n / 2)


def ball_volume(n: int) -> float:
    """Volume nu_n of the unit ball B^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes (unit vectors) and weights on S^{n-1}.

    ``kind`` is "exact" for deterministic rules (with ``degree`` the largest
    polynomial degree integrated exactly, and ``transverse`` the largest
    degree across the first axis, see :meth:`product`) or "monte-carlo"
    (with ``samples`` and ``seed`` recorded).  Weights always sum to the
    surface area.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    kind: str
    degree: int | None = None
    samples: int | None = None
    seed: int | None = None
    transverse: int | None = None

    def __len__(self):
        return self.weights.size

    @classmethod
    def product(cls, n: int, degree: int,
                transverse: int | None = None) -> "SphereRule":
        """Deterministic product rule exact for the polynomials of degree up
        to ``degree`` whose degree in the coordinates across the first axis
        is at most ``transverse`` (default ``degree``, the isotropic rule).

        n = 2: equispaced trapezoid (no transverse direction).  n = 3:
        Gauss-Legendre in the polar cosine times trapezoid in the azimuth.
        n >= 4: Gauss-Gegenbauer in each polar cosine times trapezoid
        (Stroud's S_n product form).  The first polar cosine takes
        degree // 2 + 1 nodes; the S^{n-2} across it is the isotropic rule of
        degree ``transverse``.
        """
        if n < 2:
            raise OutOfRange("sphere rules need n >= 2")
        degree = int(degree)
        transverse = degree if transverse is None else int(transverse)
        if degree < 0 or transverse < 0:
            raise OutOfRange(f"rule degrees must be >= 0, got degree {degree} "
                             f"and transverse {transverse}")
        transverse = degree if n == 2 else min(transverse, degree)
        nodes, weights = _product_rule_cached(n, degree, transverse)
        return cls(n=n, nodes=nodes, weights=weights, kind="exact",
                   degree=degree, transverse=transverse)

    @classmethod
    def monte_carlo(cls, n: int, samples: int = 200_000, seed: int = 0) -> "SphereRule":
        """Seeded Monte Carlo rule: normalized Gaussian directions, equal weights."""
        if samples < 1:
            raise OutOfRange(f"Monte Carlo rules need samples >= 1, got "
                             f"{samples}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        g = rng.standard_normal((samples, n))
        g /= np.linalg.norm(g, axis=1)[:, None]
        w = np.full(samples, sphere_area(n) / samples)
        return cls(n=n, nodes=g, weights=w, kind="monte-carlo", samples=samples,
                   seed=seed)

    @classmethod
    def default(cls, n: int, degree: int, kappa: float, digits: int = 12,
                pole_order: int = 4) -> "SphereRule":
        """Policy rule for a degree-``degree`` polynomial integrand times a
        density that depends on the point only through the first axis (as
        ds_a, dmu_a and the Kelvin factor do once the axis is turned toward
        a), with ``kappa`` > 1 the annulus ratio distance/radius of its
        singularity on that axis.  The first axis takes the degree of
        :func:`analytic_degree`, whose node count grows like
        digits/log(kappa), and the S^{n-2} across it only ``degree``.  A
        polynomial integrand alone takes ``product(n, degree)``.
        """
        return cls.product(n, analytic_degree(degree, kappa, digits,
                                              pole_order), degree)


def analytic_degree(degree: int, kappa: float, digits: int = 12,
                    pole_order: int = 4) -> int:
    """Effective rule degree covering both polynomial exactness and the
    geometric convergence of an analytic density with annulus ratio kappa.

    A pole of order p at the annulus boundary costs an N^p prefactor on the
    kappa^-N trapezoid/Gauss rate, so the node count solves
    N log(kappa) >= digits log(10) + p log(N) (fixed-point, three rounds).
    Densities |y-a|^{-4} carry p = 4; metric-composed integrands such as the
    squared Kelvin transform need a larger allowance.
    """
    if kappa <= 1.0:
        raise OutOfRange("annulus ratio must exceed 1 (singularity inside "
                         "the integration sphere)")
    if kappa < 1.02:
        raise UnderResolved(
            f"annulus ratio {kappa:.6g} is below 1.02: the singularity is "
            "too close to the integration sphere for the rules")
    target = digits * math.log(10)
    lk = math.log(kappa)
    extra = target / lk
    for _ in range(3):
        extra = (target + pole_order * math.log(extra + degree + 8)) / lk
    extra = int(math.ceil(extra)) + 8
    # round up for rule-cache reuse
    return degree + ((extra + 3) // 4) * 4


def _gauss_jacobi(q: int, gamma: float):
    """Nodes (ascending) and weights of the q-point Gauss rule for the weight
    (1 - u^2)^gamma on [-1, 1]; gamma = 0 is Gauss-Legendre.

    Golub & Welsch, "Calculation of Gauss quadrature rules", Math. Comp. 23
    (1969): the nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the orthonormal polynomials, the weights mu_0 v_0^2 from the
    first components of its eigenvectors, with mu_0 the weight's total mass.
    """
    k = np.arange(1.0, q)
    s = 2 * k + 2 * gamma
    b = np.sqrt(4 * k * (k + gamma) ** 2 * (k + 2 * gamma)
                / (s * s * (s + 1) * (s - 1)))
    u, v = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    mu0 = (2 ** (2 * gamma + 1) * math.gamma(gamma + 1) ** 2
           / math.gamma(2 * gamma + 2))
    return u, mu0 * v[0] ** 2


@lru_cache(maxsize=256)
def _product_rule_cached(n: int, degree: int, transverse: int):
    N = transverse + 1
    theta = 2 * math.pi * np.arange(N) / N
    if n == 2:
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(N, 2 * math.pi / N)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return nodes, weights
    axes = []
    for k in range(1, n - 1):
        # the first polar axis carries the full degree, the S^{n-2} across
        # it (the other polar axes and the azimuth) the transverse degree
        q = (degree if k == 1 else transverse) // 2 + 1
        gamma = (n - 2 - k) / 2.0
        axes.append(_gauss_jacobi(q, gamma))
    # accumulate polar coordinates left to right
    coords = np.ones((1, 0))
    sin_accum = np.ones(1)
    weights = np.ones(1)
    for (u, w) in axes:
        m = coords.shape[0]
        coords = np.repeat(coords, len(u), axis=0)
        new_col = np.tile(u, m) * np.repeat(sin_accum, len(u))
        coords = np.column_stack([coords, new_col])
        weights = np.repeat(weights, len(u)) * np.tile(w, m)
        sin_accum = np.repeat(sin_accum, len(u)) * np.sqrt(
            np.maximum(0.0, 1.0 - np.tile(u, m) ** 2))
    m = coords.shape[0]
    coords = np.repeat(coords, N, axis=0)
    weights = np.repeat(weights, N) * (2 * math.pi / N)
    sin_accum = np.repeat(sin_accum, N)
    ct = np.tile(np.cos(theta), m)
    st = np.tile(np.sin(theta), m)
    nodes = np.column_stack([coords, sin_accum * ct, sin_accum * st])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=64)
def _radial_rule_cached(m: int):
    t, w = _gauss_jacobi(m, 0.0)
    t = (t + 1) / 2
    w = w / 2
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@dataclass(frozen=True)
class BallRule:
    """Product rule for ball integrals: Gauss-Legendre radial shells (density
    t^{n-1}) times a :class:`SphereRule` for the angular directions."""

    angular: SphereRule
    radial_points: int

    def __post_init__(self):
        if self.radial_points < 1:
            raise OutOfRange(f"ball rules need radial_points >= 1, got "
                             f"{self.radial_points}")

    @property
    def n(self) -> int:
        return self.angular.n


class Column:
    """A callable f of (N, n) points as a one-column evaluator, the P = 1
    case of the (N, P) ``values`` / ``squared_values`` of a batch."""

    def __init__(self, f):
        self.f = f

    def values(self, pts):
        return np.asarray(self.f(pts))[:, None]

    def squared_values(self, pts):
        v = self.values(pts)
        return v.real ** 2 + v.imag ** 2 if np.iscomplexobj(v) else v * v


def _unit(v: np.ndarray) -> np.ndarray | None:
    """v / |v|, or None for a zero vector."""
    norm = float(np.linalg.norm(v))
    return None if norm == 0.0 else v / norm


def _orient(nodes: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Nodes under the Householder reflection taking e_1 to the unit
    vector ``axis``."""
    e1 = np.zeros(axis.size)
    e1[0] = 1.0
    w = e1 - axis
    nw2 = float(w @ w)
    if nw2 < 1e-30:
        return nodes
    H = np.eye(axis.size) - 2.0 * np.outer(w, w) / nw2
    return nodes @ H.T


def _density(pts: np.ndarray, inv: InversionData, weight: str) -> np.ndarray:
    """The ds_a ("s_a") or dmu_a ("mu_a") density at each of (N, n) points."""
    d = pts - inv.a
    d2 = np.einsum("ij,ij->i", d, d)
    if weight == "mu_a":
        return 1.0 / d2 ** 2
    dens = (d2 + inv.R ** 2 - np.einsum("ij,ij->i", pts, pts)) / d2 ** 2
    if np.any(dens <= 0.0):
        raise OutOfRange("s_a density must be positive on the closed ball; "
                         "got a nonpositive node value (sphere outside B_R?)")
    return dens


def _points(rule, center: np.ndarray, radius: float, axis=None):
    """Points and plain weights of a rule on S_{center,radius} (SphereRule:
    (N, n) and (N,)) or B_{center,radius} (BallRule: (S, N, n) and (S, N),
    radial shells first).  ``axis``, a unit vector, turns a deterministic
    rule's polar axis toward an off-domain singularity of the integrand."""
    angular = getattr(rule, "angular", rule)
    n = angular.n
    if center.size != n:
        raise RuleDimensionMismatch(
            f"rule dimension {n} != center dimension {center.size}")
    if radius <= 0:
        raise OutOfRange("radius must be positive")
    nodes = angular.nodes
    if axis is not None:
        nodes = _orient(nodes, axis)
    if angular is rule:
        return center + radius * nodes, angular.weights * radius ** (n - 1)
    tref, wref = _radial_rule_cached(rule.radial_points)
    radii = tref * radius
    pts = center[None, None, :] + radii[:, None, None] * nodes[None, :, :]
    shell_w = (wref * radius) * radii ** (n - 1)
    return pts, shell_w[:, None] * angular.weights[None, :]


def integrals(fn, rule, center, radius: float, axis=None, inv=None,
              weights=(None,)) -> list:
    """Column integrals of ``fn`` over the sphere (SphereRule) or ball
    (BallRule) of ``radius`` at ``center``.

    ``fn`` maps (N, n) points to (N, P) values and is called once, on every
    node of the sphere or ball.  One length-P array of integrals is returned
    per entry of ``weights``: None for the plain measure, "s_a" or "mu_a"
    for the densities of ``inv``, all from the same values.  Nodes are summed
    in node order, without BLAS (whose threads would split the sum and
    change its bits).
    """
    pts, w = _points(rule, np.asarray(center, dtype=float), radius, axis)
    pts, w = pts.reshape(-1, pts.shape[-1]), w.reshape(-1)
    values = fn(pts).reshape(w.size, -1)
    return [np.einsum("i,ij->j", w if kind is None
                      else w * _density(pts, inv, kind), values)
            for kind in weights]


def _integral(fn, rule, center, radius: float, axis=None, inv=None,
              weight=None):
    """The one integral of :func:`integrals` of a one-column function."""
    return integrals(fn, rule, center, radius, axis, inv, (weight,))[0][0]


def surface_integral(f, center, radius: float, rule: SphereRule):
    """Integral of f over the sphere S_{center, radius}: a numpy scalar, real
    for a real f and complex otherwise.

    Parameters
    ----------
    f : callable
        Maps an (N, n) array of points to N (possibly complex) values.
    center : array_like
    radius : float
    rule : SphereRule
    """
    return _integral(Column(f).values, rule, center, radius)


def weighted_surface_integral_sa(f, center, radius: float, inv: InversionData,
                                 rule: SphereRule):
    """Integral of f against ds_a = (|y-a|^2 + R^2 - |y|^2)/|y-a|^4 ds, a
    numpy scalar as for :func:`surface_integral`."""
    center = np.asarray(center, dtype=float)
    return _integral(Column(f).values, rule, center, radius,
                     _unit(inv.a - center), inv, "s_a")


def ball_integral(f, ball: Ball, rule: BallRule):
    """Integral of f over the open ball (plain Lebesgue measure), a numpy
    scalar as for :func:`surface_integral`."""
    return _integral(Column(f).values, rule, ball.center, ball.radius)


def weighted_ball_integral_mua(f, ball: Ball, rule: BallRule,
                               inv: InversionData):
    """Integral of f against dmu_a = |y - a|^{-4} dy, a numpy scalar as for
    :func:`surface_integral`."""
    if inv.a_norm <= inv.R - 1e-12:
        raise OutOfRange("inversion center must lie outside the closed ball")
    return _integral(Column(f).values, rule, ball.center, ball.radius,
                     _unit(inv.a - ball.center), inv, "mu_a")


def _root(sq, vol: float = 1.0) -> float:
    """Square root of an integral of |f|^2 divided by ``vol``."""
    return math.sqrt(max(sq.real, 0.0) / vol)


def l2_sphere_norm(f, center, radius: float, rule: SphereRule) -> float:
    """L_2(x, r, f) = (int_{S_{x,r}} |f|^2 ds)^{1/2} (unnormalized)."""
    return _root(_integral(Column(f).squared_values, rule, center, radius))


def l2_ball_norm(f, ball: Ball, rule: BallRule) -> float:
    """A_2(x, r, f) = (int_{B_{x,r}} |f|^2 dy)^{1/2} (unnormalized form)."""
    return _root(_integral(Column(f).squared_values, rule, ball.center,
                           ball.radius))


def normalized_average_A2(f, ball: Ball, rule: BallRule) -> float:
    """Volume-normalized root mean square of |f| over the ball."""
    vol = ball_volume(ball.dimension) * ball.radius ** ball.dimension
    return _root(_integral(Column(f).squared_values, rule, ball.center,
                           ball.radius), vol)
