import itertools
import math

import numpy as np
import pytest
from scipy.special import beta, roots_jacobi, roots_legendre

from conftest import exact_ball_monomial, exact_sphere_monomial
from threespheres.errors import OutOfRange, RuleDimensionMismatch
from threespheres.geometry import Ball, solve_inversion_center
from threespheres.harmonic import PolynomialEvaluator, random_harmonic_polynomial
from threespheres.quadrature import (
    BallRule,
    SphereRule,
    _gauss_jacobi,
    analytic_degree,
    ball_integral,
    ball_volume,
    integrals,
    l2_sphere_norm,
    normalized_average_A2,
    sphere_area,
    surface_integral,
    weighted_ball_integral_mua,
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
    # exact for every monomial of degree <= ``degree`` whose exponents
    # across the first axis total <= ``transverse``: on the first axis the
    # monomial u1^a times the transverse part has degree a + |b|
    degree, transverse = 14, 6
    rule = SphereRule.product(n, degree, transverse)
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
    # no transverse degree is the isotropic rule; it is capped at the degree
    iso = SphereRule.product(n, degree)
    assert iso.transverse == degree
    assert SphereRule.product(n, degree, degree + 4).nodes is iso.nodes


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


def test_widest_annulus_rule_is_exact():
    # kappa just above the 1.02 floor gives the largest axial factor the
    # policy builds (1 513 nodes at degree 16)
    rule = SphereRule.default(3, 16, kappa=1.0201)
    assert rule.degree == analytic_degree(16, 1.0201)
    assert len(rule) == (rule.degree // 2 + 1) * 17
    area = sphere_area(3)
    assert abs(rule.weights.sum() - area) <= 1e-12 * area
    for exps in [(16, 0, 0), (0, 16, 0), (0, 8, 8), (6, 4, 6), (2, 14, 0)]:
        val = surface_integral(monomial_fn(exps), np.zeros(3), 1.0, rule)
        exact = exact_sphere_monomial(3, exps)
        assert abs(val - exact) <= 1e-12 * exact, exps


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
    rule = BallRule(SphereRule.product(3, 6), radial_points=5)
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
    axis = (inv.a - center) / np.linalg.norm(inv.a - center)
    calls.clear()
    mu, plain = integrals(fn, rule, center, 0.5, axis, inv, ("mu_a", None))
    assert calls == [(5 * len(rule.angular), 3)]
    mu_alone, = integrals(fn, rule, center, 0.5, axis, inv, ("mu_a",))
    plain_alone, = integrals(fn, rule, center, 0.5, axis, inv)
    np.testing.assert_array_equal(mu, mu_alone)
    np.testing.assert_array_equal(plain, plain_alone)


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
    lambda: SphereRule.product(3, 4, transverse=-1),
    lambda: SphereRule.monte_carlo(2, samples=0),
], ids=["radial-0", "radial-neg", "degree-neg", "transverse-neg", "samples-0"])
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
