import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, roots_jacobi, roots_legendre

from conftest import (
    analytic_degree,
    anisotropic_rule,
    exact_ball_monomial,
    exact_sphere_monomial,
    weighted_rule,
)
from threespheres.errors import OutOfRange, RuleDimensionMismatch, UnderResolved
from threespheres.geometry import (
    Ball,
    CorrelatedFamily,
    inversion_map,
    solve_inversion_center,
)
from threespheres.harmonic import (
    PolynomialEvaluator,
    random_harmonic_polynomial,
    random_harmonic_polynomials,
)
from threespheres.quadrature import (
    BLOCK,
    BallRule,
    SphereRule,
    _gauss_jacobi,
    _shell_count,
    ball_integral,
    ball_volume,
    integrals,
    l2_sphere_norm,
    normalized_average_A2,
    sphere_area,
    surface_integral,
    weighted_ball_integral_mua,
    weighted_rules,
    weighted_surface_integral_sa,
)


def monomial_fn(exps):
    exps = np.asarray(exps)

    def f(pts):
        return np.prod(np.asarray(pts) ** exps, axis=1)

    return f


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_weights_sum_to_surface_area(n):
    rule = SphereRule.product(n, 8)
    assert abs(rule.weights.sum() - sphere_area(n)) < 1e-12 * sphere_area(n)
    assert np.max(np.abs(np.linalg.norm(rule.nodes, axis=1) - 1)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 5])
def test_monomial_exactness_vs_gamma_oracle(n, rng):
    degree = 8
    rule = SphereRule.product(n, degree)
    for _ in range(40):
        exps = rng.integers(0, degree + 1, size=n)
        if exps.sum() > degree:
            continue
        val = surface_integral(monomial_fn(exps), np.zeros(n), 1.0, rule)
        exact = exact_sphere_monomial(n, exps)
        assert abs(val - exact) < 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_anisotropic_product_exactness(n):
    # the test oracle's rule is exact for every monomial of degree <=
    # ``degree`` whose exponents across the first axis total <=
    # ``transverse``: on the first axis the monomial u1^a times the
    # transverse part has degree a + |b|
    degree, transverse = 14, 6
    rule = anisotropic_rule(n, degree, transverse)
    assert (rule.degree, rule.transverse) == (degree, transverse)
    assert len(rule) == ((degree // 2 + 1) * (transverse // 2 + 1) ** (n - 3)
                         * (transverse + 1))
    exps = np.array([(a,) + rest
                     for rest in itertools.product(range(transverse + 1),
                                                   repeat=n - 1)
                     if sum(rest) <= transverse
                     for a in range(degree - sum(rest) + 1)])
    assert exps[:, 0].max() == degree and exps[:, 1:].sum(axis=1).max() == transverse

    def monomials(pts):
        return np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)

    vals, = integrals(monomials, rule, np.zeros(n), 1.0)
    exact = np.array([exact_sphere_monomial(n, e) for e in exps])
    np.testing.assert_allclose(vals, exact, rtol=0, atol=1e-12)
    # the package's product rules are isotropic
    assert SphereRule.product(n, degree).transverse == degree


# every node count up to 50, then the larger factors of wide rules
GAUSS_SIZES = list(range(1, 51)) + [64, 100, 128, 200, 255, 300]
# gamma = (n - 2 - k)/2 for the polar axes of S^{n-1}; 3 is the first axis
# of the 9-dimensional sphere in the n = 4 embedding identity
GAUSS_GAMMAS = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


@pytest.mark.parametrize("gamma", GAUSS_GAMMAS)
def test_gauss_jacobi_matches_scipy(gamma):
    # above q = 50 scipy's own Gauss-Legendre weights drift from 40-digit
    # reference weights by up to 3.0e-12 of the largest weight (at q = 299;
    # these rules stay within 4.5e-14 at q = 53, 100, 150 and 299), so there
    # the weights are held to that drift only; the moment test below holds
    # every q to 1e-12 against the Beta function
    for q in GAUSS_SIZES:
        u, w = _gauss_jacobi(q, gamma)
        su, sw = (roots_legendre(q) if gamma == 0.0
                  else roots_jacobi(q, gamma, gamma))
        assert np.max(np.abs(u - su)) <= 1e-14, q
        wtol = 1e-13 if q <= 50 else 5e-12
        assert np.max(np.abs(w - sw)) <= wtol * sw.max(), q


@pytest.mark.parametrize("gamma", GAUSS_GAMMAS)
def test_gauss_jacobi_mass_and_moments(gamma):
    # int_{-1}^{1} u^(2j) (1 - u^2)^gamma du = B(j + 1/2, gamma + 1), exact
    # for j < q; odd moments vanish by the symmetry of the nodes
    for q in GAUSS_SIZES:
        u, w = _gauss_jacobi(q, gamma)
        assert np.all(np.diff(u) > 0) and np.all(w > 0)
        mu0 = beta(0.5, gamma + 1)
        assert abs(w.sum() - mu0) <= 1e-14 * mu0
        j = np.arange(q)
        exact = beta(j + 0.5, gamma + 1)
        moments = (u[None, :] ** (2 * j[:, None])) @ w
        np.testing.assert_allclose(moments, exact, rtol=1e-12, atol=0)
        assert abs(np.sum(w * u ** (2 * q - 1))) <= 1e-14 * mu0


@pytest.mark.parametrize("alpha,beta_", [(2.5, 0.0), (2.5, 0.5), (2.5, 1.5),
                                         (0.0, -0.5), (-0.5, 0.0), (0.5, 1.0)])
def test_gauss_jacobi_unequal_exponents(alpha, beta_):
    # (1 - u)^alpha (1 + u)^beta: the diagonal (beta^2 - alpha^2)/(s(s+2));
    # scipy's weights drift at q = 40 (6e-13 relative in the 10th moment
    # against 8e-16 here), so there only the moments are compared, with
    # int (1 - u)^alpha (1 + u)^beta ((1 + u)/2)^j du
    # = 2^(alpha + beta + 1) B(alpha + 1, beta + j + 1)
    for q in (1, 2, 5, 12, 40):
        u, w = _gauss_jacobi(q, alpha, beta_)
        su, sw = roots_jacobi(q, alpha, beta_)
        assert np.max(np.abs(u - su)) <= 1e-14, q
        if q <= 12:
            assert np.max(np.abs(w - sw)) <= 1e-13 * sw.max(), q
        j = np.arange(2 * q)
        exact = 2 ** (alpha + beta_ + 1) * beta(alpha + 1, beta_ + j + 1)
        moments = (((1 + u[None, :]) / 2) ** j[:, None]) @ w
        np.testing.assert_allclose(moments, exact, rtol=1e-13, atol=0)


def _axial_moment(k, weight, n):
    """int_{-1}^{1} t^k (1 - t^2)^((n-3)/2) w dt with w = weight(1 - t), as
    int_0^pi cos^k sin^(n-2) w dtheta (smooth in theta) by adaptive
    quadrature (QUADPACK) on panels graded toward theta = 0, where the pole
    lies; 1 - cos theta is taken as 2 sin^2(theta/2)."""
    edges = [0.0] + [math.pi * 0.25 ** j for j in range(20, 0, -1)] + [math.pi]
    return sum(quad(lambda th: math.cos(th) ** k * math.sin(th) ** (n - 2)
                    * weight(2 * math.sin(th / 2) ** 2), lo, hi, epsabs=1e-13,
                    epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["s_a", "kelvin", "mu_a"])
def test_weighted_axis_moments_exact(n, kind):
    # the m = degree // 2 + 1 axial nodes, with the sum of the weights over
    # the transverse nodes of each, integrate t^k against the weight for
    # every k <= 2m - 1
    degree, a_norm, c, s = 8, 1.25, 0.3, 0.6
    dist = a_norm - c

    def weight(u):  # u = 1 - t; |y - a|^2 = (dist - s)^2 + 2 s dist u
        d2 = (dist - s) ** 2 + 2 * s * dist * u
        if kind == "s_a":  # |y|^2 = (c + s)^2 - 2 c s u
            return (d2 + 1 - (c + s) ** 2 + 2 * c * s * u) / d2 ** 2
        return d2 ** -(degree + n - 2 if kind == "kelvin" else 2.0)

    rule = weighted_rule(n, degree, kind, a_norm, c, s)
    t = rule.nodes[:, 0]
    m = degree // 2 + 1
    assert np.unique(np.round(t, 13)).size == m
    assert len(rule) == m * (2 if n == 2 else len(SphereRule.product(n - 1,
                                                                     degree)))
    weighted = rule.weights * weight(1 - t)
    transverse_area = 2.0 if n == 2 else sphere_area(n - 1)
    scale = transverse_area * _axial_moment(0, weight, n)
    for k in range(2 * m):
        want = transverse_area * _axial_moment(k, weight, n)
        assert abs(float(np.sum(weighted * t ** k)) - want) <= 1e-13 * scale, k


@pytest.mark.parametrize("kappa", [3.0, 1.3, 1.0201, 1.002, 1.0002])
def test_kelvin_closed_form_at_n3(kappa):
    # f = 1: int_{|y|=s} rho^2 / |y - a|^2 dS = rho^2 (2 pi s/|a|)
    # log((|a| + s)/(|a| - s)), integrated by a single node (degree 0)
    inv = solve_inversion_center(0.5, 0.2, dimension=3)
    s = inv.a_norm / kappa
    rule = weighted_rule(3, 0, "kelvin", inv.a_norm, 0.0, s)
    assert len(rule) == 1
    vals, = integrals(lambda p: (inv.rho2 / np.einsum(
        "ij,ij->i", p - inv.a, p - inv.a))[:, None], rule, np.zeros(3), s,
        inv)
    exact = (inv.rho2 * 2 * math.pi * s / inv.a_norm
             * math.log((inv.a_norm + s) / (inv.a_norm - s)))
    assert abs(vals[0] - exact) <= 1e-12 * exact


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kelvin_weight_is_the_kelvin_factor(n):
    # the "kelvin" weight of integrals carries (rho^2/|y-a|^2)^(n-2), 1 at
    # n = 2, like the other weights of the inversion
    inv = solve_inversion_center(0.5, 0.2, dimension=n)
    rule = weighted_rule(n, 4, "kelvin", inv.a_norm, 0.0, 0.6)

    def cube(p):
        return p[:, :1] ** 3 + 1.0

    weighted, = integrals(cube, rule, np.zeros(n), 0.6, inv, ("kelvin",))
    by_hand, = integrals(lambda p: cube(p) * ((inv.rho2 / np.einsum(
        "ij,ij->i", p - inv.a, p - inv.a)) ** (n - 2))[:, None], rule,
        np.zeros(n), 0.6, inv)
    assert abs(weighted[0] - by_hand[0]) <= 1e-15 * abs(by_hand[0])


@pytest.mark.parametrize("kappa,tol", [(1.0201, 1e-12), (1.002, 1e-11)])
def test_widest_annulus_rule_is_exact(kappa, tol):
    # near touching, where the Gauss-Legendre axis of the analytic rule
    # needed 1 513 nodes at kappa = 1.0201 and nothing resolved kappa = 1.002,
    # the weighted rule keeps its 9 x 17 nodes and its exactness: monomials
    # times |y - a|^-4 against one-dimensional quadrature.  |y - a|^2 is
    # taken as (kappa - 1)^2 + 2 kappa (1 - t), exact for the stored t; what
    # is left is the rounding of t itself, 1e-16 against a weight that
    # varies on the scale (kappa - 1)^2 / (2 kappa) (1.1e-12 relative at
    # kappa = 1.002)
    dist = kappa
    rule = weighted_rule(3, 16, "mu_a", dist, 0.0, 1.0)
    assert len(rule) == 9 * 17

    def weight(u):
        return ((dist - 1) ** 2 + 2 * dist * u) ** -2.0

    density = weight(1 - rule.nodes[:, 0])
    for exps in [(16, 0, 0), (0, 16, 0), (0, 8, 8), (6, 4, 6), (2, 14, 0),
                 (7, 2, 0)]:
        got = float(np.sum(rule.weights * density
                           * np.prod(rule.nodes ** np.array(exps), axis=1)))
        e1, rest = exps[0], exps[1:]
        want = exact_sphere_monomial(2, rest) * _axial_moment(
            e1, lambda u: (u * (2 - u)) ** (sum(rest) / 2) * weight(u), 3)
        assert abs(got - want) <= tol * abs(want), exps


def test_weighted_rule_domain():
    with pytest.raises(OutOfRange):  # a inside the sphere
        weighted_rule(3, 8, "mu_a", 1.0, 0.5, 0.6)
    with pytest.raises(OutOfRange):
        weighted_rule(3, 8, "mu", 2.0, 0.5, 0.6)
    with pytest.raises(OutOfRange):  # the sphere leaves B_R
        weighted_rule(3, 8, "s_a", 1.2, 0.5, 0.6)
    # NaN passed the domain guard to a ValueError of math.ceil
    for sphere in [("s_a", 1.2, 0.3, math.nan, 1.0),
                   ("mu_a", math.inf, 0.3, 0.2, 1.0)]:
        with pytest.raises(OutOfRange, match="finite spheres"):
            weighted_rules(3, 8, [sphere])


def _one(pts):
    return np.ones(len(pts))


def test_weighted_rules_are_placed_only_toward_a():
    # a weighted rule is exact only with its first axis toward a: placed
    # without the inversion data it is refused (unturned, this s_a rule
    # read 3.0179 against 3.0415, 0.78 % off); placed with it, it agrees
    # with a degree-400 product rule
    fam = CorrelatedFamily.create([0.3, 0.4, 0.2], 0.2)
    inv, t = fam.inversion, 0.3
    center, radius = t * fam.e, float(fam.radius(t))
    rule = weighted_rule(3, 4, "s_a", inv.a_norm, t, radius)
    kelvin = weighted_rule(3, 4, "kelvin", inv.a_norm, 0.0, 0.5)
    ball = BallRule.weighted(3, 4, inv.a_norm, 0.5, 4)
    with pytest.raises(OutOfRange, match="'s_a' rule needs"):
        surface_integral(_one, center, radius, rule)
    with pytest.raises(OutOfRange, match="'kelvin' rule needs"):
        integrals(lambda p: p[:, :1], kelvin, np.zeros(3), 0.5)
    with pytest.raises(OutOfRange, match="'mu_a' rule needs"):
        ball_integral(_one, Ball(np.zeros(3), 0.5), ball)
    got = weighted_surface_integral_sa(_one, center, radius, inv, rule)
    want = weighted_surface_integral_sa(_one, center, radius, inv,
                                        SphereRule.product(3, 400))
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("call, message", [
    (lambda f, rule: surface_integral(f, np.zeros(3), math.nan, rule),
     "radius must be finite"),
    (lambda f, rule: l2_sphere_norm(f, [0, 0, 0], math.inf, rule),
     "radius must be finite"),
    (lambda f, rule: surface_integral(f, [math.inf, 0, 0], 0.5, rule),
     "center must be finite"),
], ids=["nan-radius", "inf-radius", "inf-center"])
def test_placement_refuses_non_finite_spheres(call, message):
    # a NaN radius or an infinite centre read as nan, an infinite radius
    # as inf
    with pytest.raises(OutOfRange, match=message):
        call(_one, SphereRule.product(3, 8))


def test_named_weights_and_weighted_rules_need_their_placement():
    # a named weight without inv died on an AttributeError, in the point
    # form and the slice form alike; a weighted rule centred at a has no
    # direction to turn toward a
    ev = PolynomialEvaluator(random_harmonic_polynomials(3, 2, range(2)))
    rule = SphereRule.product(3, 8)
    for fn in (ev.squared_values, ev.squares()):
        with pytest.raises(OutOfRange, match="need inv"):
            integrals(fn, rule, np.zeros(3), 0.5, None, ("s_a",))
    inv = solve_inversion_center(0.5, 0.2, dimension=3)
    kelvin = weighted_rule(3, 4, "kelvin", inv.a_norm, 0.0, 0.5)
    for fn in (ev.squared_values, ev.squares()):
        with pytest.raises(OutOfRange, match="centred at a"):
            integrals(fn, kelvin, inv.a, 0.1, inv, ("kelvin",))


def test_ball_centred_at_a_is_not_turned():
    # no direction from a ball's centre to a: the rule is placed as built,
    # so an integrand no rotation leaves alone sums to the same bits
    inv = solve_inversion_center(0.5, 0.2, dimension=3)
    rule = BallRule.exact(3, 4)

    def f(p):
        return np.exp(p @ [1.0, 2.0, 3.0])[:, None]

    got, = integrals(f, rule, inv.a, 0.1, inv, (None,))
    want, = integrals(f, rule, inv.a, 0.1)
    assert np.isfinite(got[0]) and got[0] == want[0]


def test_mua_refuses_a_ball_that_holds_or_touches_a():
    # dmu_a = |y - a|^-4 dy is not integrable over a ball holding or
    # touching a
    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    rule = BallRule.exact(2, 4)
    touching = np.array([1.0, 0.0])
    for ball in (Ball([1.79, 0.0], 0.5), Ball(inv.a, 0.1),
                 Ball(touching, float(np.linalg.norm(inv.a - touching)))):
        with pytest.raises(OutOfRange, match="outside the closed ball"):
            weighted_ball_integral_mua(_one, ball, rule, inv)
    assert np.isfinite(weighted_ball_integral_mua(
        _one, Ball(touching, 0.8), rule, inv))


def test_weighted_rule_checks_its_fine_rules(monkeypatch):
    # fine rules too coarse for a Kelvin weight of order 18 near touching:
    # the two resolutions disagree, and the rule is refused, not returned
    from threespheres import quadrature

    monkeypatch.setattr(quadrature, "FINE_NODES", (3, 6))
    with pytest.raises(UnderResolved, match="moments differ"):
        quadrature.weighted_rules(4, 16, [("kelvin", 1.0123, 0.0, 1.0, 1.0)])


def test_shell_count_policy():
    # the 16-shell floor, more shells as the pole nears and as its order
    # 5 - n rises, a typed error past the cap
    assert _shell_count(3, 16, 1.96) == 16
    assert _shell_count(3, 16, 1.2) > 16
    counts = [_shell_count(2, 16, k) for k in (1.5, 1.1, 1.05, 1.02, 1.01)]
    assert counts == sorted(counts) and counts[-1] <= 128
    assert _shell_count(2, 16, 1.05) > _shell_count(4, 16, 1.05)
    assert _shell_count(3, 300, 2.0) == 152
    with pytest.raises(UnderResolved):
        _shell_count(2, 16, 1.002)
    with pytest.raises(OutOfRange):
        _shell_count(2, 16, 1.0)


def test_surface_area_and_disk_moment():
    rule3 = SphereRule.product(3, 4)
    v = surface_integral(lambda p: np.ones(len(p)), np.zeros(3), 2.0, rule3)
    assert isinstance(v, np.float64)
    assert abs(v - 16 * math.pi) < 1e-12 * 16 * math.pi
    # a complex integrand gives a complex integral
    v = surface_integral(lambda p: np.full(len(p), 1j), np.zeros(3), 2.0, rule3)
    assert isinstance(v, np.complex128)
    assert abs(v - 16j * math.pi) < 1e-12 * 16 * math.pi
    # int_{S_r} y1^2 ds = pi r^3 in the plane
    rule2 = SphereRule.product(2, 4)
    v = surface_integral(monomial_fn([2, 0]), np.zeros(2), 0.7, rule2)
    assert abs(v - math.pi * 0.7 ** 3) < 1e-14


def test_ball_volume_and_odd_symmetry():
    rule = BallRule(SphereRule.product(3, 6), radial_points=16)
    ball = Ball(np.zeros(3), 1.5)
    v = ball_integral(lambda p: np.ones(len(p)), ball, rule)
    assert abs(v - ball_volume(3) * 1.5 ** 3) < 1e-12 * 10
    v = ball_integral(monomial_fn([1, 0, 0]), ball, rule)
    assert abs(v) < 1e-13


def test_ball_monomials_including_shift(rng):
    rule = BallRule(SphereRule.product(2, 10), radial_points=16)
    for _ in range(20):
        exps = rng.integers(0, 5, size=2)
        v = ball_integral(monomial_fn(exps), Ball(np.zeros(2), 0.8), rule)
        exact = exact_ball_monomial(2, exps, 0.8)
        assert abs(v - exact) < 1e-13 * max(1.0, abs(exact))
    # shifted ball: int_{B_{c,r}} y1 dy = c1 * volume
    v = ball_integral(monomial_fn([1, 0]), Ball([0.3, -0.1], 0.5), rule)
    exact = 0.3 * ball_volume(2) * 0.5 ** 2
    assert abs(v - exact) < 1e-14


def test_ball_integrand_called_once():
    # a ball of fewer than BLOCK nodes is one block
    rule = BallRule(SphereRule.product(3, 6), radial_points=5)
    assert 5 * len(rule.angular) <= BLOCK
    calls = []

    def fn(pts):
        calls.append(pts.shape)
        return np.stack([np.ones(len(pts)), pts[:, 0] ** 2], axis=1)

    vals, = integrals(fn, rule, np.zeros(3), 0.5)
    assert calls == [(5 * len(rule.angular), 3)]
    np.testing.assert_allclose(
        vals, [ball_volume(3) * 0.5 ** 3, exact_ball_monomial(3, [2, 0, 0], 0.5)],
        rtol=1e-13)
    # the (dmu_a, plain) pair of a ball-rows ball: still one evaluation, and
    # each column bit for bit the one-weight call's
    inv = solve_inversion_center(0.5, 0.2, dimension=3)
    center = np.array([0.1, 0.2, 0.0])
    calls.clear()
    mu, plain = integrals(fn, rule, center, 0.5, inv, ("mu_a", None))
    assert calls == [(5 * len(rule.angular), 3)]
    mu_alone, = integrals(fn, rule, center, 0.5, inv, ("mu_a",))
    plain_alone, = integrals(fn, rule, center, 0.5, inv)
    np.testing.assert_array_equal(mu, mu_alone)
    np.testing.assert_array_equal(plain, plain_alone)


def test_ball_integrand_blocks():
    # a ball of 2 BLOCK + 1 nodes reaches the integrand in three blocks, the
    # last of one node, which partition its nodes in order; each polynomial's
    # column is its batch column bit for bit, and the (dmu_a, plain) pair
    # equals the one-weight calls
    rule = BallRule(SphereRule.product(2, 40), radial_points=25)
    assert len(rule.angular) * rule.radial_points == 2 * BLOCK + 1
    inv = solve_inversion_center(0.5, 0.2)
    center = np.array([0.1, 0.2])
    polys = [random_harmonic_polynomial(2, 6, seed) for seed in range(3)]
    batch = PolynomialEvaluator(polys).squared_values
    seen = []

    def fn(pts):
        seen.append(pts.copy())
        return batch(pts)

    mu, plain = integrals(fn, rule, center, 0.5, inv, ("mu_a", None))
    assert [len(pts) for pts in seen] == [BLOCK, BLOCK, 1]
    # in node order: the Gauss-Legendre shells first, each with the
    # trapezoid's directions turned by the reflection taking e_1 toward a
    rel = np.concatenate(seen).reshape(rule.radial_points, -1, 2) - center
    radii = np.linalg.norm(rel, axis=2)
    shells = 0.5 * (roots_legendre(rule.radial_points)[0] + 1) / 2
    np.testing.assert_allclose(radii, np.broadcast_to(shells[:, None],
                                                      radii.shape), rtol=1e-13)
    u = np.eye(2)[0] - (inv.a - center) / np.linalg.norm(inv.a - center)
    H = np.eye(2) - 2 * np.outer(u, u) / (u @ u)
    np.testing.assert_allclose(rel / radii[..., None],
                               np.broadcast_to(rule.angular.nodes @ H.T,
                                               rel.shape), atol=1e-14)
    mu_alone, = integrals(batch, rule, center, 0.5, inv, ("mu_a",))
    plain_alone, = integrals(batch, rule, center, 0.5, inv)
    np.testing.assert_array_equal(mu, mu_alone)
    np.testing.assert_array_equal(plain, plain_alone)
    for p, poly in enumerate(polys):
        one = PolynomialEvaluator([poly]).squared_values
        col_mu, col_plain = integrals(one, rule, center, 0.5, inv,
                                      ("mu_a", None))
        assert col_mu.shape == col_plain.shape == (1,)
        assert col_mu[0] == mu[p] and col_plain[0] == plain[p]
    # the blocks' partial sums, added in turn, are the integrals; a node's
    # plain weight is the integral of its indicator
    nodes = iter(np.eye(2 * BLOCK + 1))
    w, = integrals(lambda pts: np.stack([next(nodes) for _ in pts]), rule,
                   center, 0.5)
    parts = [np.einsum("i,ij->j", w[lo:lo + BLOCK], batch(pts).astype(complex))
             for lo, pts in zip(range(0, w.size, BLOCK), seen)]
    np.testing.assert_array_equal(plain, (parts[0] + parts[1] + parts[2]).real)


def test_integrals_memory_is_that_of_a_block():
    # on a ball of more than 20 BLOCK nodes, integrating P columns peaks at
    # a few blocks' values, not at the (N, P) values of the whole ball
    rule = BallRule(SphereRule.product(3, 30), radial_points=21)
    nodes, P = len(rule.angular) * rule.radial_points, 64
    assert nodes >= 20 * BLOCK

    def fn(pts):  # P complex columns
        return np.exp(1j * pts[:, :1] * np.arange(P))

    integrals(fn, rule, np.zeros(3), 0.5)  # rules and caches built
    tracemalloc.start()
    try:
        vals, = integrals(fn, rule, np.zeros(3), 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_values = BLOCK * P * 16
    points = nodes * 3 * 8
    assert peak < 6 * block_values + 4 * points
    assert peak < nodes * P * 16 / 4
    assert vals.shape == (P,)


def test_monte_carlo_consistency_with_deterministic(rng):
    f = random_harmonic_polynomial(2, 6, seed=0)

    def sq(pts):
        v = f(pts)
        return v.real ** 2 + v.imag ** 2

    det = surface_integral(sq, np.zeros(2), 0.9, SphereRule.product(2, 16))
    rule = SphereRule.monte_carlo(2, samples=200_000, seed=3)
    mc = surface_integral(sq, np.zeros(2), 0.9, rule)
    # the estimate is the mean of area * r * |f(r u)|^2 over the nodes u
    samples = sphere_area(2) * 0.9 * sq(0.9 * rule.nodes)
    stderr = samples.std() / math.sqrt(len(rule))
    assert stderr > 0
    assert abs(mc - det) < 4 * stderr


def test_monte_carlo_seed_determinism():
    r1 = SphereRule.monte_carlo(4, samples=500, seed=9)
    r2 = SphereRule.monte_carlo(4, samples=500, seed=9)
    np.testing.assert_array_equal(r1.nodes, r2.nodes)
    assert abs(r1.weights.sum() - sphere_area(4)) < 1e-12 * sphere_area(4)


def test_sa_density_positive_and_value_at_origin():
    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    a = inv.a_norm
    rule = SphereRule.product(2, analytic_degree(0, a))
    v = weighted_surface_integral_sa(lambda p: np.ones(len(p)), np.zeros(2),
                                     1.0, inv, rule)
    assert v > 0
    # density at the origin is (|a|^2 + 1)/|a|^4
    dens0 = (a * a + 1) / a ** 4
    pts = np.zeros((1, 2))
    dd = pts - inv.a
    d2 = np.einsum("ij,ij->i", dd, dd)
    assert abs(((d2 + 1 - 0) / d2 ** 2)[0] - dens0) < 1e-15


def test_sa_density_guard_outside_ball():
    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    rule = SphereRule.product(2, 8)
    with pytest.raises(OutOfRange):
        # sphere that sticks far outside B picks up nonpositive density
        weighted_surface_integral_sa(lambda p: np.ones(len(p)),
                                     np.array([1.5, 0.0]), 1.0, inv, rule)


def test_mua_bounds_for_constant():
    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    ball = Ball([0.2, 0.0], 0.3)
    rule = BallRule(SphereRule.product(2, analytic_degree(0, 4.0)), 24)
    v = weighted_ball_integral_mua(lambda p: np.ones(len(p)), ball, rule, inv)
    vol = ball_volume(2) * 0.3 ** 2
    dmin = (inv.a_norm - 0.5) ** 4
    dmax = (inv.a_norm + 0.1) ** 4
    assert vol / dmax <= v <= vol / dmin


def test_mua_against_monte_carlo(rng):
    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    ball = Ball([0.1, 0.2], 0.4)
    rule = BallRule(SphereRule.product(2, analytic_degree(0, 3.0)), 24)
    det = weighted_ball_integral_mua(lambda p: np.ones(len(p)), ball, rule,
                                     inv)
    # plain Monte Carlo oracle over the ball
    N = 400_000
    u = rng.standard_normal((N, 2))
    u /= np.linalg.norm(u, axis=1)[:, None]
    pts = ball.center + ball.radius * (rng.uniform(0, 1, N) ** 0.5)[:, None] * u
    d = pts - inv.a
    vals = 1.0 / np.einsum("ij,ij->i", d, d) ** 2
    vol = ball_volume(2) * ball.radius ** 2
    est = vol * vals.mean()
    stderr = vol * vals.std() / math.sqrt(N)
    assert abs(det - est) < 4 * stderr


def test_normalized_average_examples():
    rule = BallRule(SphereRule.product(2, 8), 16)
    ball = Ball(np.zeros(2), 1.0)
    v = normalized_average_A2(lambda p: np.full(len(p), 3.0 + 0j), ball, rule)
    assert type(v) is float
    assert abs(v - 3.0) < 1e-13
    v = normalized_average_A2(monomial_fn([1, 0]), ball, rule)
    assert abs(v - 0.5) < 1e-13


def test_unnormalized_ball_norm():
    from threespheres.quadrature import l2_ball_norm

    rule = BallRule(SphereRule.product(2, 8), 16)
    ball = Ball(np.zeros(2), 0.5)
    v = l2_ball_norm(lambda p: np.full(len(p), 2.0), ball, rule)
    expected = 2.0 * math.sqrt(ball_volume(2) * 0.25)
    assert abs(v - expected) < 1e-13


def test_norms_refuse_a_negative_or_nan_integral():
    # a rule with negated weights makes int |f|^2 negative, and a NaN value
    # makes it NaN; neither is reported as a norm
    from threespheres.quadrature import l2_ball_norm

    sphere = SphereRule.product(2, 8)
    negated = replace(sphere, weights=-sphere.weights)
    ball = Ball(np.zeros(2), 0.5)
    two = lambda p: np.full(len(p), 2.0)
    nan = lambda p: np.full(len(p), math.nan)
    for f, rule in ((two, negated), (nan, sphere)):
        with pytest.raises(OutOfRange, match="not >= 0"):
            l2_sphere_norm(f, np.zeros(2), 0.5, rule)
        for norm in (l2_ball_norm, normalized_average_A2):
            with pytest.raises(OutOfRange, match="not >= 0"):
                norm(f, ball, BallRule(rule, 16))
    assert l2_sphere_norm(two, np.zeros(2), 0.5, sphere) > 0


def test_l2_sphere_norm_parseval_structure(rng):
    # L2^2(r, f) = sum_k c_k r^(2k + n - 1) with c_k = L2^2(1, h_k)
    for n in (2, 3):
        f = random_harmonic_polynomial(n, 8, seed=17)
        parts = f.homogeneous_parts()
        rule = SphereRule.product(n, 16)
        cks = {k: l2_sphere_norm(p, np.zeros(n), 1.0, rule) ** 2
               for k, p in parts.items()}
        for r in (0.2, 0.5, 0.9):
            lhs = l2_sphere_norm(f, np.zeros(n), r, rule) ** 2
            rhs = sum(c * r ** (2 * k + n - 1) for k, c in cks.items())
            assert abs(lhs - rhs) < 1e-10 * rhs


def test_rule_dimension_mismatch():
    rule = SphereRule.product(2, 4)
    with pytest.raises(RuleDimensionMismatch):
        surface_integral(lambda p: np.ones(len(p)), np.zeros(3), 1.0, rule)


@pytest.mark.parametrize("make", [
    lambda: BallRule(SphereRule.product(2, 4), radial_points=0),
    lambda: BallRule(SphereRule.product(2, 4), radial_points=-3),
    lambda: SphereRule.product(3, -4),
    lambda: SphereRule.monte_carlo(2, samples=0),
], ids=["radial-0", "radial-neg", "degree-neg", "samples-0"])
def test_rule_sizes_out_of_range(make):
    # a rule of the wrong size raises instead of integrating with a clamp
    with pytest.raises(OutOfRange):
        make()


def test_product_rule_matches_spec_structure():
    # n=2 rule is the equispaced trapezoid: uniform weights
    rule = SphereRule.product(2, 10)
    assert len(rule) == 11
    assert np.allclose(rule.weights, 2 * math.pi / 11)
    # n=3 polar nodes follow Gauss-Legendre in the cosine
    rule3 = SphereRule.product(3, 10)
    u, _ = roots_legendre(6)
    assert np.allclose(np.unique(np.round(rule3.nodes[:, 0], 12)),
                       np.round(np.sort(u), 12))


def test_corpus_sphere_integrals_match_exact_moments():
    # independent of the evaluator and of the rule: int_{S^{n-1}} |f|^2 ds
    # = sum_{e,e'} Re(c_e conj(c_e')) int u^(e+e') ds, from the Gamma formula
    for n in (2, 3, 4):
        polys = [random_harmonic_polynomial(n, 8, seed=s) for s in range(4)]
        ev = PolynomialEvaluator(polys)
        vals, = integrals(ev.squared_values, SphereRule.product(n, 16),
                          np.zeros(n), 1.0)
        exps = sorted({e for p in polys for e in p.terms})
        moments = {}
        gram = np.empty((len(exps), len(exps)))
        for i, e in enumerate(exps):
            for k, e2 in enumerate(exps):
                key = tuple(a + b for a, b in zip(e, e2))
                if key not in moments:
                    moments[key] = exact_sphere_monomial(n, key)
                gram[i, k] = moments[key]
        coeffs = np.array([[p.terms.get(e, 0) for e in exps] for p in polys])
        exact = np.einsum("pi,ik,pk->p", coeffs, gram, coeffs.conj()).real
        np.testing.assert_allclose(vals, exact, rtol=1e-12, atol=0)


def _line_cases(n):
    """An evaluator of three degree-4 polynomials, its |f|^2 and
    |f o phi|^2 as point integrands, and (rule, centre, radius, inv,
    weights, integrand) cases on a correlated family whose line is off the
    coordinate axes."""
    ev = PolynomialEvaluator(random_harmonic_polynomials(n, 4, range(3)))
    fam = CorrelatedFamily.create(np.array([0.3, -0.2, 0.1, 0.15][:n - 1]
                                           + [0.1]), 0.2)
    inv, e, t = fam.inversion, fam.e, 0.6 * fam.x_norm
    rt, rts = float(fam.radius(t)), float(fam.image_radius(t))
    xbar = 0.5 * fam.x_norm
    sa, kelvin = weighted_rules(n, 8, [("s_a", inv.a_norm, t, rt, 1.0),
                                       ("kelvin", inv.a_norm, 0.0, rts, 1.0)])
    mu = BallRule.weighted(n, 10, inv.a_norm - xbar, fam.radius(xbar), 8)

    def composed(pts):
        return ev.squared_values(inversion_map(inv, pts))

    return ev, composed, [
        (sa, t * e, rt, inv, ("s_a", None), "squares"),
        (kelvin, np.zeros(n), rts, inv, ("kelvin", None), "kelvin"),
        (mu, xbar * e, float(fam.radius(xbar)), inv, ("mu_a", None),
         "squares"),
        (BallRule.exact(n, 8), fam.x, fam.r, inv, (None, "mu_a"), "squares"),
        (BallRule.exact(n, 8), fam.x, fam.r, None, (None,), "squares"),
        (SphereRule.product(n, 8), np.zeros(n), 0.7, None, (None,),
         "squares"),
        (SphereRule.product(n, 8), t * e, rt, inv, ("s_a", None), "squares"),
    ]


class Forms:
    """An integrand with a slice form that records the nodes it gets: the
    sizes of its point blocks and of its slice blocks (slices x
    directions)."""

    def __init__(self, fn):
        self.fn, self.points, self.sizes = fn, [], []

    def __call__(self, pts):
        self.points.append(len(pts))
        return self.fn(pts)

    def on_slices(self, axis):
        form = self.fn.on_slices(axis)
        if form is None:
            return None

        def counted(x, rho, omega, lo, hi):
            out = form(x, rho, omega, lo, hi)
            self.sizes.append(out.shape[0] * out.shape[1])
            return out
        return counted


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_slice_form_matches_the_point_path(n):
    # an evaluator's squares take the slices of every factored rule whose
    # centre lies on the axis, and agree with the same rule's points (the
    # bound method squared_values, which has no slice form) to 1e-13:
    # ds_a, Kelvin and plain spheres, dmu_a and plain balls, turned toward
    # a or not; at n = 2 the trapezoid has no factors and takes the points
    ev, composed, cases = _line_cases(n)
    for rule, center, radius, inv, weights, kind in cases:
        sliced = ev.squares(inv if kind == "kelvin" else None)
        point = composed if kind == "kelvin" else ev.squared_values
        angular = getattr(rule, "angular", rule)
        spy = Forms(sliced)
        got = integrals(spy, rule, center, radius, inv, weights)
        assert bool(spy.points) != bool(spy.sizes)
        assert (not spy.sizes) == (n == 2 and angular.kind == "exact")
        assert not hasattr(point, "on_slices")
        want = integrals(point, rule, center, radius, inv, weights)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (3,) and g.dtype == float
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_off_axis_placements_take_the_point_form(n):
    # the slice form is refused for a centre off a's line, for one beyond
    # a, and by |f o phi|^2 when a is off the centre's line: each integral
    # takes the points and agrees with the point integrand on the rule
    ev, composed, cases = _line_cases(n)
    inv, off = cases[0][3], np.eye(n)[0] * 0.2
    e = inv.a / inv.a_norm
    assert np.linalg.norm(off - (off @ e) * e) > 0.1
    rule = SphereRule.product(n, 8)
    for fn, point, center, radius, placed in [
            (ev.squares(), ev.squared_values, off, 0.3, inv),
            (ev.squares(), ev.squared_values, 2 * inv.a, 0.3, inv),
            (ev.squares(inv), composed, off, 0.3, None)]:
        spy = Forms(fn)
        weights = (None, "mu_a") if placed is not None else (None,)
        got = integrals(spy, rule, center, radius, placed, weights)
        want = integrals(point, rule, center, radius, placed, weights)
        assert spy.sizes == [] and sum(spy.points) == len(rule)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [4, 5])
def test_slice_blocks_hold_at_most_block_nodes(n, monkeypatch):
    # the slice form gets at most BLOCK nodes' values per call, splitting
    # the directions across the axis when they outnumber BLOCK, and the
    # integrals do not depend on the blocks beyond rounding
    from threespheres import quadrature

    ev, _, cases = _line_cases(n)
    for rule, center, radius, inv, weights, kind in cases:
        sliced = ev.squares(inv if kind == "kelvin" else None)
        angular = getattr(rule, "angular", rule)
        # a ball's shells share one angular rule, or stack one each
        nodes = len(angular) * (rule.radial_points if angular is not rule
                                and angular.nodes.ndim == 2 else 1)
        across = len(angular.slices.v)
        want = integrals(sliced, rule, center, radius, inv, weights)
        for block in (7, across - 1, 1 << 40):
            monkeypatch.setattr(quadrature, "BLOCK", block)
            spy = Forms(sliced)
            got = integrals(spy, rule, center, radius, inv, weights)
            assert spy.points == [] and sum(spy.sizes) == nodes
            assert max(spy.sizes) <= block
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-13, atol=0)
        monkeypatch.undo()
