"""Surface and volume quadrature on spheres and balls in R^n.

Deterministic rules: equispaced trapezoid on the circle (n = 2), Gauss-
Legendre x trapezoid on S^2, Gauss-Gegenbauer products for higher
dimensions, and on balls Gauss-Jacobi shells in u = sigma^2 times these,
exact for polynomials up to their declared degree (Golub & Welsch).  A
seeded Monte Carlo rule serves the tests as an independent oracle.

Weighted integrals carry the densities induced by the inversion:

    ds_a = (|y-a|^2 + R^2 - |y|^2)/|y-a|^4 ds,     dmu_a = |y-a|^(-4) dy.

The centres and a lie on one ray, so on a sphere these densities and the
Kelvin factor depend on a node only through its coordinate t along it.
:func:`weighted_rules` takes the Gauss rule of that weight in t, by the
discretised Stieltjes procedure, times the S^{n-2} rule of the integrand's
degree across it (Stroud, 1971); a dmu_a ball takes one per radial shell.

Integration works on columns: :func:`integrals` places a rule on a sphere or
ball, first axis toward a given the inversion data, and sums an integrand's
P columns block by block with plain, ds_a, dmu_a or Kelvin weights: one
array of column integrals per weight.  The public integrals below are its
one-column case: a numpy scalar for raw integrals (real for real
integrands, complex otherwise), a float for norms.

It is one loop with two forms.  Every rule built here for n >= 3, and
every weighted rule, is its factors (:class:`Slices`), cached once per
process: K axial nodes, each a slice of nodes at one axial coordinate x and
distance rho from the axis, times T directions across it.  The
:class:`Squares` of a ``harmonic.PolynomialEvaluator`` get the values of
blocks of slices when the centre, and a with the inversion data, lie on the
axis: no node is made.  Every other integrand gets the rule's points, one
node per slice, made on first read and kept with the rule.  Either way the
weights and densities are taken once per slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import (OutOfRange, RuleDimensionMismatch, UnderResolved,
                     as_integer)
from .geometry import (Ball, InversionData, _on_line, _reflection,
                       half_plane_inversion, inversion_map)

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
    "weighted_rules",
    "weighted_surface_integral_sa",
]


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1}."""
    return 2 * math.pi ** (n / 2) / math.gamma(n / 2)


def ball_volume(n: int) -> float:
    """Volume nu_n of the unit ball B^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


class Slices(NamedTuple):
    """The factors of a product rule on S^{n-1}, n >= 2: axial nodes ``t``
    and weights ``w``, (K,) or one row per shell (S, K), times the rule
    (``omega`` (T, n - 1), ``v`` (T,)) on S^{n-2}; its nodes are
    (t_k, sqrt(1 - t_k^2) omega_j), in (k, j) order, with weights w_k v_j."""

    t: np.ndarray
    w: np.ndarray
    omega: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes (unit vectors) and weights on S^{n-1}.

    ``kind`` is "exact" for the isotropic product rules (``degree`` the
    largest polynomial degree integrated exactly, see :meth:`product`),
    "s_a", "kelvin" or "mu_a" for :func:`weighted_rules` (stacked per radial
    shell on a ball: nodes (S, N, n)), placed only given the inversion data,
    or "monte-carlo" (with ``samples`` and ``seed`` recorded).  ``transverse``
    is the degree across the first axis.  Product and Monte Carlo weights sum
    to the area.  A rule is its factors (``slices``, :class:`Slices`), as
    every rule built here for n >= 3 is, its nodes and weights made on first
    read and kept; or it holds the nodes and weights it is ``given``.
    """

    n: int
    kind: str
    degree: int | None = None
    samples: int | None = None
    seed: int | None = None
    transverse: int | None = None
    slices: Slices | None = None
    given: tuple | None = None

    def __len__(self):
        return self.weights.size

    @cached_property
    def nodes(self) -> np.ndarray:
        if self.slices is None:
            return self.given[0]
        t, _, omega, _ = self.slices
        nodes = np.empty(t.shape + omega.shape[:1] + (self.n,))
        nodes[..., 0] = t[..., None]
        nodes[..., 1:] = np.sqrt((1 - t) * (1 + t))[..., None, None] * omega
        return _frozen(nodes.reshape(t.shape[:-1] + (-1, self.n)))[0]

    @cached_property
    def weights(self) -> np.ndarray:
        if self.slices is None:
            return self.given[1]
        t, w, _, v = self.slices
        return _frozen((w[..., None] * v).reshape(t.shape[:-1] + (-1,)))[0]

    @classmethod
    def product(cls, n: int, degree: int) -> "SphereRule":
        """Deterministic isotropic rule exact to ``degree``: n = 2, the
        equispaced trapezoid; n = 3, Gauss-Legendre in the polar cosine times
        trapezoid in the azimuth; n >= 4, Gauss-Gegenbauer in each polar
        cosine times trapezoid (Stroud's S_n product form).  The first polar
        cosine takes degree // 2 + 1 nodes, the S^{n-2} across it the rule of
        ``degree``."""
        return _product_rule_cached(as_integer(n, "n", 2),
                                    as_integer(degree, "degree"))

    @classmethod
    def monte_carlo(cls, n: int, samples: int = 200_000, seed: int = 0) -> "SphereRule":
        """Seeded Monte Carlo rule: normalized Gaussian directions, equal weights."""
        samples = as_integer(samples, "samples", 1)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        g = rng.standard_normal((samples, n))
        g /= np.linalg.norm(g, axis=1)[:, None]
        return cls(n, "monte-carlo", samples=samples, seed=seed,
                   given=(g, np.full(samples, sphere_area(n) / samples)))


def weighted_rules(n: int, degree: int, spheres) -> list:
    """Gauss rules of the weights w the integrands carry, one per (kind,
    a_norm, center_norm, radius, R) of ``spheres``: the sphere of ``radius``
    centred at ``center_norm`` toward a, |a| = ``a_norm``, first axis turned
    toward a; w is the ds_a density ("s_a"), |y-a|^-4 ("mu_a") or
    |y-a|^(-2 (degree + n - 2)) ("kelvin": |y-a|^2 is linear in the axial
    coordinate t, so |f(phi(y))|^2 (rho^2/|y-a|^2)^(n-2) of a degree-
    ``degree`` |f|^2 is w times a polynomial of degree <= ``degree``).  With
    plain-measure weights, a rule integrates P w exactly for P of degree <=
    ``degree``: degree // 2 + 1 axial nodes times the S^{n-2} rule of that
    degree (+-1 at n = 2).  Built in one batched pass and cached by the
    list."""
    degree = as_integer(degree, "degree")
    spheres = tuple((kind, *map(float, rest)) for kind, *rest in spheres)
    return list(_weighted_cached(n, degree, degree, spheres) if spheres else ())


def _gauss_jacobi(q: int, alpha: float, beta: float | None = None):
    """Nodes (ascending) and weights of the q-point Gauss rule for the weight
    (1 - u)^alpha (1 + u)^beta on [-1, 1], beta defaulting to alpha: the
    eigenvalues of the Jacobi matrix, whose diagonal (beta^2 - alpha^2) /
    (s (s + 2)), s = 2k + alpha + beta, vanishes for alpha = beta, and the
    weights mu_0 v_0^2 from the first components of its eigenvectors, mu_0
    the total mass (Golub & Welsch, Math. Comp. 23, 1969)."""
    beta = alpha if beta is None else beta
    k = np.arange(1.0, q)
    s = 2 * k + alpha + beta
    diag = np.concatenate([[(beta - alpha) / (alpha + beta + 2)],
                           (beta * beta - alpha * alpha) / (s * (s + 2))])[:q]
    b = np.sqrt(4 * k * ((k + alpha) * (k + beta)) * (k + alpha + beta)
                / (s * s * (s + 1) * (s - 1)))
    u, v = np.linalg.eigh(np.diag(diag) + np.diag(b, 1) + np.diag(b, -1))
    return u, v[0] ** 2 * (2 ** (alpha + beta + 1) * (
        math.gamma(alpha + 1) * math.gamma(beta + 1))
        / math.gamma(alpha + beta + 2))


def _frozen(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=256)
def _product_rule_cached(n: int, degree: int) -> SphereRule:
    """:meth:`SphereRule.product`, and the pair +-1 on S^0 (n = 1)."""
    if n > 2:
        across = _product_rule_cached(n - 1, degree)
        return SphereRule(n, "exact", degree, transverse=degree, slices=Slices(
            *_frozen(*_gauss_jacobi(degree // 2 + 1, (n - 3) / 2)),
            across.nodes, across.weights))
    theta = 2 * math.pi * np.arange(degree + 1) / (degree + 1)
    given = ((np.array([[1.0], [-1.0]]), np.ones(2)) if n == 1 else
             (np.stack([np.cos(theta), np.sin(theta)], axis=1),
              np.full(degree + 1, 2 * math.pi / (degree + 1))))
    return SphereRule(n, "exact", degree, transverse=degree,
                      given=_frozen(*given))


@lru_cache(maxsize=64)
def _radial_rule_cached(m: int, n: int, alpha: float = 0.0):
    """Nodes u in (0, 1) and weights of the m-point Gauss rule of
    int_0^1 u^((n-2)/2) (1-u)^alpha g du / 2, the radial rule of every n-ball
    (see :class:`BallRule`; alpha = 5/2 for the embedding identity's)."""
    u, w = _gauss_jacobi(m, alpha, (n - 2) / 2)
    return _frozen((u + 1) / 2, w / 2 ** (alpha + n / 2 + 1))


WEIGHTED = ("s_a", "kelvin", "mu_a")  # the kinds of the weighted rules
# the fine rules of the weighted rules: panels of k Gauss nodes, k in
# FINE_NODES, shrinking by GRADING toward the pole; moments to MOMENT_TOL
GRADING = 0.25
FINE_NODES = (32, 64)
MOMENT_TOL = 1e-13


@lru_cache(maxsize=32)
def _fine_rule(k: int, n: int, panels: int):
    """u = 1 - cos(theta) = 2 sin^2(theta / 2) and the weights of
    sin^(n-2)(theta) dtheta, the measure (1 - t^2)^((n-3)/2) dt, on the
    panels (0, pi GRADING^(panels-1), ..., pi GRADING, pi)."""
    x, w = _gauss_jacobi(k, 0.0)
    edges = math.pi * GRADING ** np.arange(panels, -1.0, -1)
    edges[0] = 0.0
    h = np.diff(edges)[:, None] / 2
    theta = (edges[:-1, None] + h * (x + 1)).ravel()
    return (2 * np.sin(theta / 2) ** 2,
            (h * w).ravel() * np.sin(theta) ** (n - 2))


def _gauss_rules(x: np.ndarray, lam: np.ndarray, m: int):
    """m-node Gauss rules (S, m) of the discrete measures with nodes x (K,)
    and weights lam (S, K): the discretised Stieltjes procedure (Gautschi,
    *Orthogonal Polynomials*, OUP 2004, sec. 2.2), nodes from the Jacobi
    matrices, weights from the Christoffel function 1 / sum p_j^2, which
    stays accurate over many decades (mu_0 v_0^2 lost up to 1e-7)."""
    J = np.zeros((lam.shape[0], m, m))
    p0 = 1 / np.sqrt(lam.sum(axis=1, keepdims=True))
    p_prev, p, b = 0.0, p0 * np.ones_like(lam), 0.0
    for j in range(m):
        J[:, j, j] = np.einsum("sk,sk->s", lam * p, x * p)
        if j + 1 < m:
            r = (x - J[:, j, j, None]) * p - b * p_prev
            b = np.sqrt(np.einsum("sk,sk->s", lam * r, r))[:, None]
            J[:, j, j + 1] = J[:, j + 1, j] = b[:, 0]
            p_prev, p = p, r / b
    nodes = np.linalg.eigvalsh(J)
    p_prev, p = 0.0, p0 * np.ones_like(nodes)
    total = p * p
    for j in range(m - 1):
        p_prev, p = p, (((nodes - J[:, j, j, None]) * p
                         - (J[:, j - 1, j, None] if j else 0.0) * p_prev)
                        / J[:, j, j + 1, None])
        total += p * p
    return nodes, 1.0 / total


@lru_cache(maxsize=64)
def _weighted_cached(n: int, degree: int, transverse: int, spheres: tuple):
    """The rules of :func:`weighted_rules`, which :meth:`BallRule.weighted`
    stacks, one per sphere, exact across the axis to ``transverse``: their
    :class:`Slices` share the S^{n-2} rule, and nodes are made on first read.

    In u = 1 - t a sphere of radius s at D = a_norm - center_norm from a has
    |y-a|^2 = 2 s D (eps + u), eps = (D - s)^2 / (2 s D), and the ds_a
    numerator nu0 + nu1 u (constant factors cancel).  The fine panels reach
    the pole's distance arccosh(1 + eps) in theta; the axial rule's moments
    of T_j(t) = cos(j theta), j < 2m, must match the coarser fine rule's.
    """
    kinds = np.array([sphere[0] for sphere in spheres])
    a, c, s, R = np.array([sphere[1:] for sphere in spheres]).T[:, :, None]
    if not np.isfinite([a, c, s, R]).all():
        raise OutOfRange(f"weighted rules need finite spheres, got {spheres}")
    nu0 = np.where(kinds[:, None] == "s_a", a * a + R * R - 2 * a * (c + s), 1.0)
    if (n < 2 or min(degree, transverse) < 0 or np.any((s <= 0) | (s >= a - c))
            or np.any(nu0 <= 0) or not set(kinds) <= set(WEIGHTED)):
        raise OutOfRange(f"no weighted rule for n = {n}, degree {degree} and "
                         f"{spheres}: annulus ratio <= 1 or sphere outside B_R")
    eps = (a - c - s) ** 2 / (2 * s * (a - c))
    nu1 = np.where(kinds[:, None] == "s_a", 2 * s * a, 0.0)
    order = np.where(kinds[:, None] == "kelvin", degree + n - 2, 2)

    def factor(u):
        return (nu0 + nu1 * u) * (eps / (eps + u)) ** order

    def moments(u, w):
        return np.einsum("...k,...kj->...j", w, np.cos(
            2 * np.arcsin(np.sqrt(u / 2))[..., None] * np.arange(2 * m)))

    m = degree // 2 + 1
    near = float(np.log1p(eps + np.sqrt(eps * (2 + eps))).min())  # arccosh
    panels = 1 + max(1, math.ceil(math.log(near / math.pi) / math.log(GRADING)))
    (uc, wc), (uf, wf) = (_fine_rule(k, n, panels) for k in FINE_NODES)
    u, w = _gauss_rules(uf, wf * factor(uf), m)
    coarse = wc * factor(uc)
    worst = float(np.max(np.abs(moments(u, w) - moments(uc, coarse))
                         / coarse.sum(axis=1, keepdims=True)))
    if not worst <= MOMENT_TOL:
        raise UnderResolved(f"weighted Gauss rule: moments differ by "
                            f"{worst:.3g} of the mass between fine rules of "
                            f"{FINE_NODES} nodes per panel")
    t, w = _frozen(1 - u, w / factor(u))
    across = _product_rule_cached(n - 1, transverse)
    return tuple(SphereRule(n, sphere[0], degree, transverse=transverse,
                            slices=Slices(*axial, across.nodes, across.weights))
                 for sphere, *axial in zip(spheres, t, w))


SHELL_TARGET = 1e-12  # error model target of a dmu_a ball's radial count
SHELL_CAP = 128
BLOCK = 512  # nodes per integrand call and partial sum of :func:`integrals`
SLICES = 16  # least slices per block of a factored rule (:func:`integrals`)


def _shell_count(n: int, degree: int, kappa: float) -> int:
    """Shells in u (:class:`BallRule`) of a dmu_a ball of annulus ratio
    kappa = distance(centre, a) / radius, for a polynomial of ``degree``.

    The shell integral of |y-a|^-4 has a pole of order 5 - n at u = kappa^2
    (n <= 4), so the rule errs like N^q rho^(-2N), q = max(0, 4 - n),
    rho = xi + sqrt(xi^2 - 1), xi = 2 kappa^2 - 1.  The count is the least
    N >= max(10, BallRule.exact's) with N^q rho^(-2N) <= SHELL_TARGET, two
    decades below 1e-10 for the constant the model leaves out (no a-posteriori
    estimate; against 4 times the shells the counts erred by at most 3.9e-12
    at n = 2 to 4, kappa 1.02 to 3); past SHELL_CAP, :class:`UnderResolved`.
    """
    if not kappa > 1.0:
        raise OutOfRange("annulus ratio must exceed 1 (singularity inside "
                         "the integration ball)")
    xi = 2 * kappa * kappa - 1
    rate = 2 * math.log(xi + math.sqrt((xi - 1) * (xi + 1)))
    floor = max(10, BallRule.exact(n, degree).radial_points)
    for count in range(floor, max(floor, SHELL_CAP) + 1):
        if max(0, 4 - n) * math.log(count) - count * rate <= math.log(SHELL_TARGET):
            return count
    raise UnderResolved(f"annulus ratio {kappa:.6g}: {SHELL_CAP} radial "
                        f"shells do not reach {SHELL_TARGET:g} on a dmu_a ball")


@dataclass(frozen=True)
class BallRule:
    """Product rule for ball integrals: radial shells times a
    :class:`SphereRule` for the directions, shared by every shell or one per
    shell (stacked).  A sphere integral M(sigma) is even in sigma, so
    int_{B_s} f = s^n int_0^1 u^((n-2)/2) M(s sqrt u) du / 2: m Gauss-Jacobi
    shells in u (:func:`_radial_rule_cached`) are exact to degree 4 m - 1."""

    angular: SphereRule
    radial_points: int

    def __post_init__(self):
        object.__setattr__(self, "radial_points",
                           as_integer(self.radial_points, "radial_points", 1))

    @classmethod
    def exact(cls, n: int, degree: int) -> "BallRule":
        """Exact at ``degree``: that sphere rule and degree // 4 + 1 shells."""
        return cls(SphereRule.product(n, degree), degree // 4 + 1)

    @classmethod
    def weighted(cls, n: int, degree: int, distance: float, radius: float,
                 transverse: int) -> "BallRule":
        """dmu_a rule of a ball at ``distance`` from a: :func:`_shell_count`
        shells in u, each with its "mu_a" rule; exact for the polynomial alone
        too at ``degree`` = ``transverse`` + 2 (|y-a|^4 is quadratic in t)."""
        shells = _shell_count(n, transverse, distance / radius)
        radii = radius * np.sqrt(_radial_rule_cached(shells, n)[0])
        rules = _weighted_cached(n, degree, transverse, tuple(
            ("mu_a", float(distance), 0.0, s, 1.0) for s in radii.tolist()))
        t, w = (np.stack(a) for a in zip(*(rule.slices[:2] for rule in rules)))
        return cls(replace(rules[0], slices=rules[0].slices._replace(t=t, w=w)),
                   shells)


class Column:
    """Callables f_1 .. f_P of (N, n) points, and their common ``degree``,
    as an evaluator of P columns, like a batch's ``values`` /
    ``squared_values``; ``Column([f], degree)`` is the one-column case."""

    def __init__(self, fns, degree: int | None = None):
        self.fns, self.degree = fns, degree

    def values(self, pts):
        return np.stack([np.asarray(f(pts)) for f in self.fns], axis=1)

    def squared_values(self, pts):
        v = self.values(pts)
        return v.real ** 2 + v.imag ** 2 if np.iscomplexobj(v) else v * v


class Squares:
    """|f|^2 of each column of an evaluator (:class:`Column` or
    ``harmonic.PolynomialEvaluator``), or |f o phi|^2 given ``inv``: a point
    integrand, with a slice form (``on_slices``) when the evaluator keeps
    frames (``PolynomialEvaluator.frame``)."""

    def __init__(self, ev, inv: InversionData | None = None):
        self.ev, self.inv = ev, inv
        if hasattr(ev, "frame"):  # not bound to self: no reference cycle
            self.on_slices = partial(self._sliced, ev, inv)

    def __call__(self, pts):
        return self.ev.squared_values(
            pts if self.inv is None else inversion_map(self.inv, pts))

    @staticmethod
    def _sliced(ev, inv, axis: np.ndarray):
        """``form(x, rho, omega, lo, hi)`` of the frame of ``axis``
        (``Frame.squares``), or None when a is off the axis: the inversion
        keeps each half-plane through the axis only when a lies on it."""
        if inv is not None and not _on_line(inv.a, axis):
            return None
        frame = ev.frame(axis)
        if inv is None:
            return frame.squares
        alpha = float(inv.a @ axis)
        return lambda x, rho, omega, lo, hi: frame.squares(
            *half_plane_inversion(inv, alpha, x, rho), omega, lo, hi)


def _unit(v: np.ndarray) -> np.ndarray | None:
    """v / |v|, or None for a zero vector (|v| as ``np.linalg.norm`` takes
    it, without its dispatch)."""
    norm = math.sqrt(v.dot(v))
    return None if norm == 0.0 else v / norm


def _density(d2: np.ndarray, y2: np.ndarray, inv: InversionData,
             weight: str, n: int) -> np.ndarray:
    """The ds_a ("s_a") or dmu_a ("mu_a") density or the Kelvin factor
    (rho^2/|y-a|^2)^(n-2) ("kelvin") at nodes y of R^n with |y-a|^2 = ``d2``
    and |y|^2 = ``y2`` (read by ds_a only)."""
    if weight == "mu_a":
        return 1.0 / d2 ** 2
    if weight == "kelvin":
        return (inv.rho2 / d2) ** (n - 2)
    dens = (d2 + inv.R ** 2 - y2) / d2 ** 2
    if np.any(dens <= 0.0):
        raise OutOfRange("s_a density must be positive on the closed ball; "
                         "got a nonpositive node value (sphere outside B_R?)")
    return dens


def _placed(rule, center: np.ndarray, radius: float, inv, weights):
    """The angular rule of ``rule``, checked against its placement: a finite
    centre of the rule's dimension, a finite radius > 0, and ``inv`` for a
    named weight or a weighted rule, which must not be centred at a."""
    angular = getattr(rule, "angular", rule)
    if center.size != angular.n:
        raise RuleDimensionMismatch(
            f"rule dimension {angular.n} != center dimension {center.size}")
    if not 0 < radius < math.inf:
        raise OutOfRange(f"radius must be finite and positive, got {radius}")
    coords = center.tolist()
    if not all(map(math.isfinite, coords)):
        raise OutOfRange(f"center must be finite, got {coords}")
    if inv is None and angular.kind in WEIGHTED:
        raise OutOfRange(f"a {angular.kind!r} rule needs inv to point it at a")
    if inv is None and any(weights):
        raise OutOfRange(f"the weights {weights} need inv")
    if angular.kind in WEIGHTED and inv.a.tolist() == coords:
        raise OutOfRange(f"a {angular.kind!r} rule centred at a has no "
                         "direction to point at a")
    return angular


def _slice_form(fn, angular: SphereRule, center: np.ndarray, inv):
    """The slice form ``fn.on_slices(axis)`` of an integrand on ``angular``
    and the centre's and a's coordinates along the axis, or None for the
    point form: an integrand or a rule without one, a centre off the axis
    or not short of a, or a form refused there.

    The axis is a's direction given ``inv``, else the centre's (e_1 for the
    origin): every integral of a correlated family shares one frame, and an
    unweighted rule is exact however it is turned."""
    on_slices = getattr(fn, "on_slices", None)
    if on_slices is None or angular.slices is None:
        return None
    axis = _unit(center if inv is None else inv.a)
    if axis is None:
        axis = np.eye(center.size)[0]
    along = float(center @ axis)
    alpha = None if inv is None else float(inv.a @ axis)
    if not _on_line(center, axis) or (inv is not None and not along < alpha):
        return None
    form = on_slices(axis)
    return None if form is None else (form, along, alpha)


def integrals(fn, rule, center, radius: float, inv=None,
              weights=(None,)) -> list:
    """Column integrals of ``fn`` over the sphere (SphereRule) or ball
    (BallRule) of ``radius`` at ``center``.

    ``fn`` maps (N, n) points to (N, P) values; it is called on one block of
    at most ``BLOCK`` nodes at a time, summed before the next.  One length-P
    array of integrals is returned per entry of ``weights``: None for the
    plain measure, "s_a", "mu_a" or "kelvin" for the weights of ``inv``
    (which turns the rule toward a; see :func:`_density`), all from the same
    values.  Nodes are summed without BLAS (whose threads would split the
    sum and change its bits), in node order per block, and the blocks depend
    on N alone: a point-form integral depends on the other columns only
    through ``fn``'s values (a :class:`Column`'s not at all).  The slice
    form's values are real BLAS products over all 2P columns: a polynomial's
    integrals alone and in a batch of 8 agree to 9e-16 relative at n = 2-5
    (tested to 2e-15), not bit for bit.

    The nodes are placed as slices: K (per shell,) axial coordinates x and
    distances rho from the axis, each with the weight and densities of its
    slice, times T directions across the axis.  An integrand with a slice
    form (``fn.on_slices``, as the :class:`Squares` of a
    ``PolynomialEvaluator`` have) on a rule with :class:`Slices` whose
    centre lies on their axis (:func:`_slice_form`) gets the (K, T, P)
    values of at most ``BLOCK`` nodes at a time and no point is made; every
    other integrand gets the rule's points, one node per slice (T = 1).
    """
    center = np.asarray(center, dtype=float)
    angular = _placed(rule, center, radius, inv, weights)
    n = angular.n
    if angular is rule:
        radii, scale = radius, radius ** (n - 1)
    else:  # radial shells first: one angular rule for every shell, or one each
        u, wu = _radial_rule_cached(rule.radial_points, n)
        radii, scale = radius * np.sqrt(u)[:, None], radius ** n * wu[:, None]
    sliced = _slice_form(fn, angular, center, inv)
    if sliced is None:  # one node per slice: blocks of BLOCK in node order
        axis = None if inv is None else _unit(inv.a - center)
        H = None if axis is None else _reflection(axis)
        nodes = angular.nodes if H is None else angular.nodes @ H.T
        y = (center + (radii if angular is rule else radii[..., None])
             * nodes).reshape(-1, n)
        ws, across, dirs, per = (scale * angular.weights).ravel(), 1, 1, BLOCK
        if any(weights):
            # |y - a|^2, without keeping the (N, n) array y - a
            d2 = np.einsum("ij,ij->i", *[y - inv.a] * 2)
            y2 = np.einsum("ij,ij->i", y, y) if "s_a" in weights else None
    else:
        (form, along, alpha), (t, w, omega, v) = sliced, angular.slices
        sin = np.sqrt((1 - t) * (1 + t))
        x, rho = (along + radii * t).ravel(), (radii * sin).ravel()
        ws, across = (scale * w).ravel(), len(v)
        # blocks of at most BLOCK nodes: the directions in parts of at most
        # BLOCK / min(K, SLICES), each part with BLOCK // part slices, so a
        # part's coefficients are read once per SLICES slices at least
        dirs = min(across, max(1, BLOCK // min(ws.size, SLICES)))
        per = max(1, BLOCK // dirs)
        if any(weights):
            d2, y2 = (x - alpha) ** 2 + rho * rho, x * x + rho * rho
    dens = np.array([ws * _density(d2, y2, inv, kind, n) if kind else ws
                     for kind in weights])
    sums, lone = None, False
    for j in range(0, across, dirs):
        for lo in range(0, ws.size, per):
            part = slice(lo, lo + per)
            if sliced is None:
                block = y[part]
                cols = fn(block).reshape(len(block), -1)
                # einsum unrolls a lone real column's sum; a complex one is
                # in order
                lone = cols.shape[1] == 1 and cols.dtype.kind != "c"
                cols = cols.astype(complex) if lone else cols
            else:
                cols = np.einsum("kjp,j->kp", form(x[part], rho[part], omega,
                                                   j, j + dirs), v[j:j + dirs])
            block_sums = np.einsum("wk,kp->wp", dens[:, part], cols)
            sums = block_sums if sums is None else sums + block_sums
    return list(sums.real if lone else sums)


def _integral(fn, rule, center, radius: float, inv=None, weight=None):
    """The one integral of :func:`integrals` of a one-column function."""
    return integrals(fn, rule, center, radius, inv, (weight,))[0][0]


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
    return _integral(Column([f]).values, rule, center, radius)


def weighted_surface_integral_sa(f, center, radius: float, inv: InversionData,
                                 rule: SphereRule):
    """Integral of f against ds_a = (|y-a|^2 + R^2 - |y|^2)/|y-a|^4 ds, a
    numpy scalar as for :func:`surface_integral`."""
    return _integral(Column([f]).values, rule, center, radius, inv, "s_a")


def ball_integral(f, ball: Ball, rule: BallRule):
    """Integral of f over the open ball (plain Lebesgue measure), a numpy
    scalar as for :func:`surface_integral`."""
    return _integral(Column([f]).values, rule, ball.center, ball.radius)


def weighted_ball_integral_mua(f, ball: Ball, rule: BallRule,
                               inv: InversionData):
    """Integral of f against dmu_a = |y - a|^{-4} dy, a numpy scalar as for
    :func:`surface_integral`."""
    if not np.linalg.norm(inv.a - ball.center) > ball.radius:
        raise OutOfRange("inversion center must lie outside the closed ball")
    return _integral(Column([f]).values, rule, ball.center, ball.radius, inv,
                     "mu_a")


def _root(sq, vol: float = 1.0) -> float:
    """Square root of an integral of |f|^2 divided by ``vol``."""
    if not sq.real >= 0:  # a rule with negative weights, or a non-finite f
        raise OutOfRange(f"integral of |f|^2 is {sq.real}, not >= 0")
    return math.sqrt(sq.real / vol)


def l2_sphere_norm(f, center, radius: float, rule: SphereRule) -> float:
    """L_2(x, r, f) = (int_{S_{x,r}} |f|^2 ds)^{1/2} (unnormalized)."""
    return _root(_integral(Column([f]).squared_values, rule, center, radius))


def l2_ball_norm(f, ball: Ball, rule: BallRule) -> float:
    """A_2(x, r, f) = (int_{B_{x,r}} |f|^2 dy)^{1/2} (unnormalized form)."""
    return _root(_integral(Column([f]).squared_values, rule, ball.center,
                           ball.radius))


def normalized_average_A2(f, ball: Ball, rule: BallRule) -> float:
    """Volume-normalized root mean square of |f| over the ball."""
    vol = ball_volume(ball.dimension) * ball.radius ** ball.dimension
    return _root(_integral(Column([f]).squared_values, rule, ball.center,
                           ball.radius), vol)
