import math

import numpy as np
import pytest

from conftest import (analytic_ball_rule, analytic_sphere_rule,
                      integral_blocks, weighted_rule)
from threespheres import geometry
from threespheres.errors import (
    BetaOutOfRange,
    DeltaOutOfRange,
    NonpositiveL,
    OutOfRange,
    PreconditionViolated,
)
from threespheres.geometry import CorrelatedFamily, correlated_radius_general
from threespheres.harmonic import (
    HarmonicPolynomial,
    PolynomialEvaluator,
    holomorphic_polynomial,
    random_harmonic_polynomial,
)
from threespheres.quadrature import (
    BLOCK,
    BallRule,
    Column,
    SphereRule,
    ball_volume,
    l2_sphere_norm,
)
from threespheres.sweep import sample_corpus
from threespheres.verify import (
    _ball_integrals,
    ball_rows,
    convexity_rows,
    derivative_identity_check,
    derivative_rows,
    embedded_bound_check,
    embedding_identity_check,
    flat,
    gradient_identity_check,
    gradient_rows,
    holomorphic_rows,
    holomorphic_variant_check,
    identity_report,
    identity_rows,
    log_convexity_check,
    sphere_rows,
    three_balls_check,
    three_spheres_check,
    transfer_identity_check,
    upper_report,
    upper_rows,
)

ONE2 = HarmonicPolynomial(2, {(0, 0): 1.0})
Y1_2 = HarmonicPolynomial(2, {(1, 0): 1.0})
ONE3 = HarmonicPolynomial(3, {(0, 0, 0): 1.0})


class Norm2:
    degree = 2

    def __call__(self, pts):
        pts = np.asarray(pts)
        return np.einsum("ij,ij->i", pts, pts)


def test_gradient_identity_constant():
    reps = gradient_identity_check(ONE2, [0.3, 0.1], 0.25)
    by = {r.name: r for r in reps}
    assert by["gradient_identity_eq2"].passed
    assert by["gradient_identity_eq3"].passed
    # d a / d r = |S^1| r for the constant
    assert abs(by["gradient_identity_eq3"].rhs - 2 * math.pi * 0.25) < 1e-12


def test_gradient_identity_coordinate():
    reps = gradient_identity_check(Y1_2, [0.2, -0.3], 0.3, e=[1.0, 0.0])
    assert all(r.passed for r in reps)
    # a(x, r, y1) = x1 nu_2 r^2, so the directional derivative is nu_2 r^2
    eq2 = [r for r in reps if r.name.endswith("eq2")][0]
    assert abs(eq2.lhs - ball_volume(2) * 0.09) < 1e-7


def test_gradient_identity_rejects_bad_direction():
    for e in ([0.0, 0.0], [1.0, 0.0, 0.0], [1.0]):
        with pytest.raises(OutOfRange):
            gradient_identity_check(Y1_2, [0.2, -0.3], 0.3, e=e)


def test_gradient_identity_refuses_a_non_finite_radius():
    # a NaN radius gave NaN rows; the quadrature placement refuses it
    with pytest.raises(OutOfRange, match="radius must be finite"):
        gradient_identity_check(Y1_2, [0.2, -0.3], math.nan)


def test_gradient_identity_random_and_nonharmonic(rng):
    for n in (2, 3):
        f = random_harmonic_polynomial(n, 6, seed=3)
        x = np.zeros(n)
        x[0] = 0.25
        assert all(r.passed for r in gradient_identity_check(f, x, 0.3))
        # the identities hold for any continuous f, harmonic or not
        assert all(r.passed for r in gradient_identity_check(Norm2(), x, 0.3))


def test_derivative_identity_constant_and_polys(rng):
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    for f in (ONE2, Y1_2, Norm2(), random_harmonic_polynomial(2, 8, seed=4)):
        reps = derivative_identity_check(f, fam, 0.3)
        assert {r.name for r in reps} == {"derivative_identity_eq5",
                                          "derivative_identity_eq13"}
        assert all(r.passed for r in reps)


def test_derivative_identity_many_t(rng):
    fam = CorrelatedFamily.create([0.4, 0.1, 0.0], 0.3)
    f = random_harmonic_polynomial(3, 6, seed=5)
    for t in np.linspace(0.05, 0.95, 20) * fam.x_norm:
        assert all(r.passed for r in derivative_identity_check(f, fam, t))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fd_row_builders_match_the_public_checks(n):
    # k columns at once give the k public checks' rows, (check, function)
    # ordered, at the same degree, bit for bit: every column, a lone one
    # too, is summed in node order
    polys = sample_corpus(n, 2, 5, 9)
    fns = [lambda pts: np.ones(len(pts)), lambda pts: pts[:, 0], Norm2(),
           *polys]
    k, degree = len(fns), 5
    x = np.array([0.4, -0.2, 0.1, 0.05][:n])
    fam = CorrelatedFamily.create(x, 0.15)
    e = np.eye(n)[0]
    t = 0.4 * fam.x_norm
    for rows, check in [
            (flat(gradient_rows(Column(fns, degree), x, 0.15, e)),
             lambda f: gradient_identity_check(f, x, 0.15, degree=degree)),
            (flat(derivative_rows(Column(fns, degree), fam, t)),
             lambda f: derivative_identity_check(f, fam, t, degree=degree))]:
        assert len(rows) == 2 * k
        for p, f in enumerate(fns):
            for i, want in enumerate(check(f)):
                got = rows[i * k + p]
                assert (got.name, got.passed, got.n, got.x_norm, got.r,
                        got.t) == (want.name, want.passed, want.n,
                                   want.x_norm, want.r, want.t)
                assert got.passed
                assert (got.lhs, got.rhs) == (want.lhs, want.rhs)


def test_derivative_identity_requires_interior_t():
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    with pytest.raises(OutOfRange):
        derivative_identity_check(ONE2, fam, 0.5)


def test_transfer_identity():
    fam2 = CorrelatedFamily.create([0.5, 0.0], 0.2)
    for f in (ONE2, Y1_2):
        rep = transfer_identity_check(f, fam2, 0.25)
        assert rep.passed
        assert abs(rep.ratio - 1) < 1e-8
    fam3 = CorrelatedFamily.create([0.5, 0.0, 0.0], 0.2)
    f = random_harmonic_polynomial(3, 8, seed=6)
    rep = transfer_identity_check(f, fam3, 0.35)
    assert rep.passed and abs(rep.ratio - 1) < 1e-8


def test_transfer_identity_harsh_geometry():
    fam = CorrelatedFamily.create([0.7, 0.0], 0.25)  # |a| close to 1
    f = random_harmonic_polynomial(2, 8, seed=7)
    rep = transfer_identity_check(f, fam, 0.5 * 0.7)
    assert rep.passed and abs(rep.ratio - 1) < 1e-8


def _loop_convexity_scan(L, grid):
    """Reference: the triple loop, keeping the first smallest gap."""
    logs, logr = np.log([L(r) for r in grid]), np.log(grid)
    margin, worst = math.inf, None
    for i in range(len(grid) - 2):
        for j in range(i + 1, len(grid) - 1):
            for k in range(j + 1, len(grid)):
                alpha = (logr[k] - logr[j]) / (logr[k] - logr[i])
                gap = alpha * logs[i] + (1 - alpha) * logs[k] - logs[j]
                if gap < margin:
                    margin, worst = gap, (grid[i], grid[j], grid[k])
    return margin, worst


def test_log_convexity_power_equality_and_counterexample():
    grid = np.linspace(0.1, 0.9, 8)
    rep = log_convexity_check(lambda r: r ** 3, grid)
    assert rep.passed
    assert abs(rep.margin) < 1e-12  # exact log-linear: equality
    rep = log_convexity_check(lambda r: 2 - r, grid)
    assert not rep.passed
    assert rep.margin < -1e-3
    for L in (lambda r: 2 - r, lambda r: np.exp(np.sin(7 * r))):
        rep = log_convexity_check(L, grid)
        assert (rep.margin, rep.worst_triple) == _loop_convexity_scan(L, grid)
    with pytest.raises(NonpositiveL):
        log_convexity_check(lambda r: r - 0.5, grid)
    with pytest.raises(OutOfRange):
        log_convexity_check(lambda r: r, [0.3, 0.2, 0.5])
    # a NaN radius passed the increasing-grid guard into a NaN margin
    with pytest.raises(OutOfRange, match="grid must be finite"):
        log_convexity_check(lambda r: r, [0.1, math.nan, 0.5])


def test_log_convexity_of_harmonic_l2(rng):
    from threespheres.quadrature import SphereRule, l2_sphere_norm

    for n in (2, 3):
        f = random_harmonic_polynomial(n, 8, seed=8)
        rule = SphereRule.product(n, 16)

        def L(r):
            return l2_sphere_norm(f, np.zeros(n), r, rule)

        rep = log_convexity_check(L, np.linspace(0.05, 0.95, 12))
        assert rep.passed


def test_three_spheres_endpoint_ratio_one():
    rep = three_spheres_check(ONE2, [0.5, 0.0], 0.2, t=0.5, beta="alpha")
    assert rep.passed
    assert abs(rep.ratio - 1.0) < 1e-12
    assert abs(rep.exponent_used - 1.0) < 1e-12


def test_three_spheres_corpus(rng):
    for n in (2, 3):
        for seed in range(5):
            f = random_harmonic_polynomial(n, 8, seed=seed)
            x = np.zeros(n)
            x[0] = rng.uniform(0.2, 0.6)
            r = rng.uniform(0.05, 1 - x[0] - 0.1)
            for t in (0.3 * x[0], 0.7 * x[0], x[0]):
                rep = three_spheres_check(f, x, r, t)
                assert rep.passed, (n, seed, t, rep)
                assert rep.lhs <= rep.rhs * (1 + 1e-9)


def test_three_spheres_beta_validation_and_negative_control():
    f = random_harmonic_polynomial(2, 6, seed=11)
    with pytest.raises(BetaOutOfRange):
        three_spheres_check(f, [0.5, 0.0], 0.2, t=0.25, beta=0.5)
    # at t = |x| the sharp exponent is 1; any beta > 1 must produce a
    # genuine violation since the inner term is strictly below the outer
    rep = three_spheres_check(f, [0.5, 0.0], 0.2, t=0.5, beta=1.05,
                              unchecked_beta=True)
    assert not rep.passed
    assert rep.lhs > rep.rhs


def test_three_spheres_alpha_mode(rng):
    f = random_harmonic_polynomial(2, 8, seed=12)
    rep = three_spheres_check(f, [0.5, 0.0], 0.2, t=0.25, beta="alpha")
    assert rep.passed


def test_holomorphic_variant():
    # constants and pure powers z^k up to degree 6
    for coeffs in ([1.0],) + tuple([0.0] * k + [1.0] for k in range(1, 7)):
        rep = holomorphic_variant_check(coeffs, [0.5, 0.0], 0.2, 0.25)
        assert rep.passed, coeffs
    rep = holomorphic_variant_check([1.0, 1.0j, -0.5], [0.4, 0.2], 0.25, 0.2)
    assert rep.passed
    # negative control with inflated exponent at the endpoint
    x_norm = math.hypot(0.5, 0.0)
    rep = holomorphic_variant_check([1.0, 0.3], [0.5, 0.0], 0.2, x_norm,
                                    beta=1.05, unchecked_beta=True)
    assert not rep.passed


def test_holomorphic_rows_batch_planar_sets():
    with pytest.raises(OutOfRange, match="planar"):
        holomorphic_rows([[1.0]], CorrelatedFamily.create([0.5, 0.0, 0.0],
                                                          0.2), 0.25)
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    sets = [[1.0], [1.0, 1.0j, -0.5], [0.0, 0.0, 0.0, 1.0]]
    group, = holomorphic_rows(sets, fam, 0.25)
    assert group.lhs.shape == (3, 1) and group.passed.all()
    assert [rep.name for rep in flat([group])] == [
        "holomorphic_variant_remark3"] * 3
    # a beta above alpha_t: failed error rows under the variant's name
    bad, = holomorphic_rows(sets, fam, 0.25, beta=1.05)
    assert [rep.name for rep in flat([bad])] == [
        "holomorphic_variant_remark3:error:BetaOutOfRange"] * 3
    assert not bad.passed.any()


def test_holomorphic_rows_match_the_shift_loop(rng):
    # reference: (z - z_a)^2 f by a loop over the coefficients, one
    # polynomial per sphere pass at its own degree; np.convolve and the
    # batch's larger rules sum in another order
    fam = CorrelatedFamily.create([0.3, -0.4], 0.15)
    za = complex(*fam.inversion.a)
    sets = [list(rng.standard_normal(k) + 1j * rng.standard_normal(k))
            for k in (1, 3, 7, 7)]
    group, = holomorphic_rows(sets, fam, 0.2)
    for coeffs, rep in zip(sets, flat([group])):
        shifted = [0j] * (len(coeffs) + 2)
        for k, c in enumerate(coeffs):
            shifted[k] += c * za * za
            shifted[k + 1] -= 2 * za * c
            shifted[k + 2] += c
        f = holomorphic_polynomial(shifted)
        want, = flat(sphere_rows(Column([f], f.degree), fam, [0.2],
                                 ("three_spheres",)))
        assert rep.passed == want.passed
        assert rep.lhs == pytest.approx(want.lhs, rel=1e-14, abs=0)
        assert rep.rhs == pytest.approx(want.rhs, rel=1e-14, abs=0)


def test_three_spheres_checks_solve_the_inversion_once(monkeypatch):
    # the holomorphic check runs the (24) rows on its own family, and t is
    # checked by the family's exponents
    calls = []
    solve = geometry.solve_inversion_center

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(geometry, "solve_inversion_center", counted)
    assert holomorphic_variant_check([1.0, 1.0j, -0.5], [0.4, 0.2], 0.25,
                                     0.2).passed
    assert len(calls) == 1
    assert three_spheres_check(ONE2, [0.5, 0.0], 0.2, t=0.25).passed
    assert len(calls) == 2
    for t in (0.0, -0.1, 0.51, math.nan):
        with pytest.raises(OutOfRange, match=r"t must lie in \(0, \|x\|\]"):
            three_spheres_check(ONE2, [0.5, 0.0], 0.2, t=t)
        with pytest.raises(OutOfRange, match=r"t must lie in \(0, \|x\|\]"):
            holomorphic_variant_check([1.0], [0.5, 0.0], 0.2, t)


def test_three_balls_constant_and_corpus(rng):
    rep = three_balls_check(ONE2, [0.5, 0.0], 0.2, 0.25)
    assert rep.passed
    assert abs(rep.exponent_used - 0.006203772525307899) < 1e-12
    for n in (2, 3):
        for seed in range(3):
            u = random_harmonic_polynomial(n, 8, seed=seed)
            x0 = np.zeros(n)
            x0[0] = 0.5
            rep = three_balls_check(u, x0, 0.2, 0.25)
            assert rep.passed, (n, seed)


def test_three_balls_delta_validation_and_small_delta():
    u = random_harmonic_polynomial(2, 6, seed=13)
    with pytest.raises(DeltaOutOfRange):
        three_balls_check(u, [0.5, 0.0], 0.2, 0.25, delta=0.5)
    rep = three_balls_check(u, [0.5, 0.0], 0.2, 0.25, delta=1e-9)
    assert rep.passed  # rhs tends to the full-ball mass, dominating lhs


def test_embedded_bounds_corpus_and_lambda_limit(rng):
    for n in (2, 3):
        u = random_harmonic_polynomial(n, 8, seed=14)
        x0 = np.zeros(n)
        x0[0] = 0.5
        for lam in (0.3, 0.6, 0.9):
            reps = embedded_bound_check(u, x0, 0.2, 0.25, lam)
            assert {r.name for r in reps} == {"embedded_bound_eq29",
                                              "embedded_bound_eq36",
                                              "embedded_bound_eq37"}
            assert all(r.passed for r in reps)
        # tiny lambda: lhs shrinks toward zero, trivially passing
        reps = embedded_bound_check(u, x0, 0.2, 0.25, 0.01)
        assert all(r.passed for r in reps)


def test_embedded_bound_preconditions():
    u = random_harmonic_polynomial(2, 4, seed=15)
    with pytest.raises(PreconditionViolated):
        embedded_bound_check(u, [0.2, 0.0], 0.1, 0.1, 0.5)
    with pytest.raises(OutOfRange):
        embedded_bound_check(u, [0.5, 0.0], 0.2, 0.25, 1.5)


def test_embedded_bound_scale_coherence():
    u = random_harmonic_polynomial(2, 6, seed=16)

    class Scaled:
        degree = u.degree

        def __call__(self, pts):
            return u(np.asarray(pts) / 2.0)

    reps1 = embedded_bound_check(u, [0.5, 0.0], 0.2, 0.25, 0.6, R=1.0)
    reps2 = embedded_bound_check(Scaled(), [1.0, 0.0], 0.4, 0.5, 0.6, R=2.0)
    r1 = [r for r in reps1 if r.name == "embedded_bound_eq36"][0]
    r2 = [r for r in reps2 if r.name == "embedded_bound_eq36"][0]
    assert abs(r1.ratio - r2.ratio) < 1e-12 * max(1.0, abs(r1.ratio))
    r1 = [r for r in reps1 if r.name == "embedded_bound_eq37"][0]
    r2 = [r for r in reps2 if r.name == "embedded_bound_eq37"][0]
    assert abs(r1.ratio - r2.ratio) < 1e-12 * max(1.0, abs(r1.ratio))


def test_embedding_identity_volume_oracle():
    for n in (2, 3):
        b = np.zeros(n)
        b[0] = 0.2
        one = lambda p: np.ones(len(p))
        rep = embedding_identity_check(one, b, 0.8, g_degree=0)
        assert rep.passed
        # the adopted reading reproduces the (n+5)-volume
        assert abs(rep.lhs - ball_volume(n + 5) * 0.8 ** (n + 5)) < 1e-10
        printed = embedding_identity_check(one, b, 0.8, g_degree=0,
                                           convention="printed")
        assert not printed.passed  # the as-printed slice radius overshoots
        assert printed.rhs > printed.lhs * 1.5
        # both readings coincide at l = 1
        at_one = embedding_identity_check(one, b * 0 + b, 1.0, g_degree=0,
                                          convention="printed")
        assert at_one.passed


def test_embedding_identity_rejects_unknown_convention():
    # a misspelt reading raises instead of running the printed one
    with pytest.raises(OutOfRange, match='"squared" or "printed"'):
        embedding_identity_check(lambda p: np.ones(len(p)), [0.2, 0.0], 0.8,
                                 g_degree=2, convention="sqared")


def test_embedding_identity_analytic_and_odd():
    n = 2

    def g_extra_norm2(p):
        p = np.asarray(p)
        return np.einsum("ij,ij->i", p[:, n:], p[:, n:])

    # exact value: int_{B^7_l} |y|^2 over the last 5 coordinates
    from conftest import exact_ball_monomial

    exact = 5 * exact_ball_monomial(7, [2, 0, 0, 0, 0, 0, 0], 0.8)
    rep = embedding_identity_check(g_extra_norm2, [0.0, 0.0], 0.8, g_degree=2)
    assert rep.passed
    assert abs(rep.lhs - exact) < 1e-9 * exact

    def g_odd(p):
        return np.asarray(p)[:, n]  # first extra coordinate

    # g_odd is 0 on every node of the odd-degree rule; g_last is not, and
    # leaves only roundoff on both sides, which |g| must scale
    g_last = lambda p: np.asarray(p)[:, n + 4]
    for g in (g_odd, g_last):
        rep = embedding_identity_check(g, [0.2, 0.0], 0.7, g_degree=1)
        assert rep.passed
        assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_embedding_identity_outer_ball_exact(n):
    # the outer ball in u = rho^2/l^2 is Gauss-Jacobi (5/2, (n-2)/2) with
    # g_degree // 2 + 2 nodes: exact, where 48 Gauss-Legendre shells were
    # not; the printed reading on the same nodes still fails by far
    b = np.zeros(n)
    b[:2] = 0.2, -0.1

    def g(p):
        extra2 = np.einsum("ij,ij->i", p[:, n:], p[:, n:])
        return p[:, 0] ** 2 * extra2 + p[:, 1] ** 4 + 0.3 * p[:, 0] * p[:, n] ** 2

    rep = embedding_identity_check(g, b, 0.8, g_degree=4)
    assert rep.passed and abs(rep.lhs - rep.rhs) <= 1e-13 * abs(rep.lhs)
    printed = embedding_identity_check(g, b, 0.8, g_degree=4,
                                       convention="printed")
    assert not printed.passed and printed.rhs > 1.5 * printed.lhs


def test_embedding_identity_generic_polynomial():
    n = 2

    def g(p):
        p = np.asarray(p)
        extra2 = np.einsum("ij,ij->i", p[:, n:], p[:, n:])
        return p[:, 0] ** 2 * extra2 + 0.5 * p[:, 1] ** 4 + 1.0

    rep = embedding_identity_check(g, [0.15, -0.1], 0.9, g_degree=6)
    assert rep.passed
    assert abs(rep.ratio - 1) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_plain_rules_exact_at_the_integrand_degree(n):
    # the unweighted ball rule sized from the degree of |p|^2 alone, against
    # the exact monomial moments of the ball
    from conftest import exact_ball_monomial

    polys = [random_harmonic_polynomial(n, 6, seed=40 + s) for s in range(3)]
    radius = 0.7
    _, got = _ball_integrals(PolynomialEvaluator(polys).squared_values,
                             np.zeros(n), radius, 12)
    for poly, value in zip(polys, got):
        exact = sum((c * np.conj(c2)).real * exact_ball_monomial(
            n, [a + b for a, b in zip(e, e2)], radius)
            for e, c in poly.terms.items() for e2, c2 in poly.terms.items())
        assert abs(value - exact) <= 1e-12 * exact

    # the embedding identity's left side over the (n+5)-ball of radius l
    m, l = n + 5, 0.8
    b = np.zeros(n)
    b[0] = 0.2

    def extra_norm2(p):
        return np.einsum("ij,ij->i", p[:, n:], p[:, n:])

    one = embedding_identity_check(lambda p: np.ones(len(p)), b, l,
                                   g_degree=0)
    vol = ball_volume(m) * l ** m
    assert abs(one.lhs - vol) <= 1e-12 * vol
    rep = embedding_identity_check(extra_norm2, b, l, g_degree=2)
    exact = 5 * ball_volume(m) * l ** (m + 2) / (m + 2)
    assert abs(rep.lhs - exact) <= 1e-12 * exact
    assert one.passed and rep.passed


def test_rule_sizes_carry_no_margin(monkeypatch):
    # points handed to the integrand, summed over each integral's blocks of
    # at most BLOCK nodes: the exact rules' counts, with no margin degrees
    # or fixed radial counts on top
    blocks, points = integral_blocks(monkeypatch), {}

    def one(p):  # points per integral, keyed by its index
        points[len(blocks) - 1] = points.get(len(blocks) - 1, 0) + len(p)
        return np.ones(len(p))

    embedding_identity_check(one, (0.2, 0.0, 0.0), 0.8, g_degree=6)
    # (n+5)-ball: 4^6 polar nodes x 7 azimuths x 7 shells; then one outer
    # Gauss-Jacobi shell at a time, 6 // 2 + 2 of them: 28 directions x the
    # inner 5-ball's 448 x 6 nodes
    assert list(points.values()) == [200_704] + [75_264] * 5
    assert [sum(sizes) for sizes in blocks] == [200_704] + [448 * 6] * 5
    assert all(0 < size <= BLOCK for sizes in blocks for size in sizes)
    blocks.clear()
    _ball_integrals(lambda p: one(p)[:, None], np.zeros(3), 0.5, 8)
    assert [sum(sizes) for sizes in blocks] == [
        len(SphereRule.product(3, 8)) * 6] == [270]


def test_sweep_rows_match_single_checks():
    from threespheres.sweep import (SweepConfig, run_sweep, sample_corpus,
                                    sample_geometries)

    for n in (2, 3):
        # |x| >= 1/2 is the precondition of the embedded bounds
        cfg = SweepConfig.from_dict({
            "dimensions": [n],
            "corpus": {"count": 2, "max_degree": 6, "seed": 3},
            "geometry": {"count": 1, "seed": 5, "t_count": 2,
                         "x_norm_range": [0.5, 0.7]},
            "checks": ["three_spheres", "three_balls", "transfer_identity",
                       "embedded_bound"],
        })
        reports = flat(run_sweep(cfg)[0])
        polys = sample_corpus(n, 2, 6, 3)
        (x_vec, r), = sample_geometries(n, 1, 5, x_range=(0.5, 0.7))
        x_norm = float(np.linalg.norm(x_vec))
        rows = [r_ for r_ in reports if r_.name == "three_spheres_eq24"]
        # rows are ordered polynomial-major within each t
        t1 = 0.5 * x_norm
        direct = three_spheres_check(polys[0], x_vec, r, t1, degree=6)
        assert abs(rows[0].lhs - direct.lhs) < 1e-11 * max(1.0, direct.lhs)
        assert abs(rows[0].rhs - direct.rhs) < 1e-11 * max(1.0, direct.rhs)
        row3 = [r_ for r_ in reports if r_.name == "three_balls_eq27"][0]
        direct = three_balls_check(polys[0], x_vec, r, 0.5 * x_norm, degree=6)
        assert abs(row3.lhs - direct.lhs) < 1e-11 * max(1.0, direct.lhs)
        assert abs(row3.rhs - direct.rhs) < 1e-11 * max(1.0, direct.rhs)
        rowt = [r_ for r_ in reports if r_.name == "transfer_identity_eq22"][0]
        direct = transfer_identity_check(polys[0],
                                         CorrelatedFamily.create(x_vec, r),
                                         t1, degree=6)
        assert abs(rowt.lhs - direct.lhs) < 1e-10 * max(1.0, direct.lhs)
        # the first embedded rows of each name: lambda = 0.3, polynomial 0
        directs = embedded_bound_check(polys[0], x_vec, r, 0.5 * x_norm, 0.3,
                                       degree=6)
        assert [d.name for d in directs] == ["embedded_bound_eq29",
                                             "embedded_bound_eq36",
                                             "embedded_bound_eq37"]
        for direct in directs:
            row = [r_ for r_ in reports if r_.name == direct.name][0]
            assert row.t == 0.3
            assert abs(row.lhs - direct.lhs) < 1e-11 * max(1.0, direct.lhs)
            assert abs(row.rhs - direct.rhs) < 1e-11 * max(1.0, direct.rhs)


def _weighted_rows(n, degree):
    ev = PolynomialEvaluator([random_harmonic_polynomial(n, degree, seed=s)
                              for s in range(3)])
    x = np.zeros(n)
    x[:2] = 0.3, -0.1  # off the coordinate axes, so every rule is turned
    fam = CorrelatedFamily.create(x, 0.2)
    return flat(sphere_rows(ev, fam, [0.6 * fam.x_norm, fam.x_norm],
                            ("three_spheres", "transfer_identity"))
                + ball_rows(ev, fam, 0.5 * fam.x_norm,
                        ("three_balls", "embedded_bound"), (0.6,)))


def _use_oracle(monkeypatch, **options):
    # the weighted builders replaced by the analytic-degree product rules
    from threespheres import verify

    monkeypatch.setattr(verify, "weighted_rules", lambda n, degree, spheres: [
        analytic_sphere_rule(n, degree, *sphere, **options)
        for sphere in spheres])
    monkeypatch.setattr(BallRule, "weighted", classmethod(
        lambda cls, *args, **kw: analytic_ball_rule(*args, **kw, **options)))


def _assert_rows_match(got_rows, want_rows, rtol):
    assert len(got_rows) == len(want_rows) == 3 * 4 + 3 * 4
    for got, want in zip(got_rows, want_rows):
        assert got.name == want.name and got.passed and want.passed
        assert abs(got.lhs - want.lhs) <= rtol * abs(want.lhs), got.name
        assert abs(got.rhs - want.rhs) <= rtol * abs(want.rhs), got.name


@pytest.mark.parametrize("n", [3, 4])
def test_anisotropic_rules_match_isotropic(n, monkeypatch):
    # across the axis toward a, the s_a, Kelvin and mu_a integrands are
    # polynomials of degree <= ``degree`` on each slice, so the weighted
    # Gauss rules, exact only to that degree across it, agree with
    # isotropic rules that resolve the weight along every axis
    anisotropic = _weighted_rows(n, 6)
    rule = weighted_rule(n, 12, "s_a", 1.5, 0.3, 0.4)
    assert rule.transverse == 12 and len(rule) == 7 * len(
        SphereRule.product(n - 1, 12))
    _use_oracle(monkeypatch, isotropic=True)
    _assert_rows_match(anisotropic, _weighted_rows(n, 6), 1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_weighted_rows_match_analytic_oracle(n, monkeypatch):
    # the Gauss-Legendre axis sized by the analytic-degree rule at 15
    # digits, an independent construction of the same integrals
    degree = 8 if n <= 3 else 3
    gauss = _weighted_rows(n, degree)
    _use_oracle(monkeypatch)
    _assert_rows_match(gauss, _weighted_rows(n, degree), 1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_rows_size_their_rules_from_the_evaluator(n, monkeypatch):
    # a degree-10 corpus and no degree given: the rows integrate |f|^2 of
    # degree 20 exactly, as do rules sized for 20 whatever they are asked
    from threespheres import verify

    rows = _weighted_rows(n, 10)
    monkeypatch.setattr(verify, "weighted_rules", lambda n_, degree, spheres: [
        analytic_sphere_rule(n, 20, *sphere) for sphere in spheres])
    monkeypatch.setattr(BallRule, "weighted", classmethod(
        lambda cls, n_, degree, distance, radius, transverse:
        analytic_ball_rule(n, 22, distance, radius, 20)))
    monkeypatch.setattr(BallRule, "exact", classmethod(
        lambda cls, n_, degree: BallRule(SphereRule.product(n, 20), 12)))
    _assert_rows_match(rows, _weighted_rows(n, 10), 1e-12)


@pytest.mark.parametrize("check", [
    lambda f: gradient_identity_check(f, [0.3, 0.1], 0.25),
    lambda f: derivative_identity_check(
        f, CorrelatedFamily.create([0.5, 0.0], 0.2), 0.25),
    lambda f: transfer_identity_check(
        f, CorrelatedFamily.create([0.5, 0.0], 0.2), 0.25),
    lambda f: three_spheres_check(f, [0.5, 0.0], 0.2, 0.25),
    lambda f: three_balls_check(f, [0.5, 0.0], 0.2, 0.25),
    lambda f: embedded_bound_check(f, [0.6, 0.0], 0.2, 0.3, 0.6),
    lambda f: embedding_identity_check(f, [0.2, 0.0], 0.8),
])
def test_checks_refuse_a_callable_without_a_degree(check):
    # no rule can be sized: no default degree is assumed
    with pytest.raises(OutOfRange, match="has no degree"):
        check(lambda pts: np.ones(len(pts)))


def test_convexity_rows_match_the_scalar_check():
    n, grid = 3, np.linspace(0.05, 0.95, 20)
    polys = sample_corpus(n, 3, 6, 4)
    rows = flat(convexity_rows(PolynomialEvaluator(polys), n, grid))
    assert [r.t for r in rows] == [0.0, 1.0, 2.0]
    rule = SphereRule.product(n, 12)
    for row, poly in zip(rows, polys):
        rep = log_convexity_check(
            lambda s: l2_sphere_norm(poly, np.zeros(n), s, rule) ** 2, grid)
        assert abs(row.lhs + rep.margin) <= 1e-12
        assert row.passed == rep.passed
    zero = HarmonicPolynomial(n, {})
    with pytest.raises(NonpositiveL):
        convexity_rows(PolynomialEvaluator([polys[0], zero]), n, grid)


def test_row_builders_match_one_row_reports():
    meta = {"n": 3, "x_norm": 0.4, "r": 0.1, "t": 0.2}
    # rhs = 0 gives ratio inf for lhs > 0 and 1.0 otherwise
    lhs = np.array([0.5, 2.0, 0.0, 1.0, -0.0, 1.0 + 1e-8])
    rhs = np.array([1.0, 1.0, 0.0, 0.0, 3.0, 1.0])
    rows = upper_rows("u", lhs, rhs, 1e-9, budget=1e-12, exponent=0.3,
                      **meta).rows()
    assert list(map(repr, rows)) == [
        repr(upper_report("u", a, b, 1e-9, budget=1e-12, exponent=0.3,
                          **meta)) for a, b in zip(lhs, rhs)]
    assert [r.ratio for r in rows[2:4]] == [1.0, math.inf]
    assert [r.passed for r in rows] == [True, False, True, False, True,
                                        False]

    def ratio(a, b):  # the rule per row, in Python floats
        return (math.inf if a > 0 else 1.0) if b == 0 else a / b

    assert [r.ratio for r in rows] == [
        ratio(a, b) for a, b in zip(lhs.tolist(), rhs.tolist())]
    lhs = np.array([1 + 1j, 0j, 2.0, -1e-20, 3 - 4j])
    rhs = np.array([0.0, 0.0, 2.0 + 1e-9, 1e-20, 5.0])
    rows = identity_rows("i", lhs, rhs, 1e-8, scale_floor=1e-3,
                         **meta).rows()
    assert list(map(repr, rows)) == [
        repr(identity_report("i", a, b, 1e-8, scale_floor=1e-3, **meta))
        for a, b in zip(lhs, rhs)]
    assert [r.ratio for r in rows[:2]] == [math.inf, 1.0]
    assert [r.passed for r in rows] == [False, True, True, True, False]
    assert rows[4].lhs == rows[4].rhs == 5.0
    # Python's complex abs and max, per row
    assert [(r.lhs, r.rhs, r.ratio, r.passed) for r in rows] == [
        (abs(a), abs(b), ratio(abs(a), abs(b)),
         abs(a - b) <= 1e-8 * max(abs(a), abs(b), 1e-3, 1e-300))
        for a, b in zip(lhs.tolist(), rhs.tolist())]
    # a floor per row: the same gap passes on the larger floor only
    rows = identity_rows("i", [1e-6, 1e-6], [0.0, 0.0], 1e-5,
                         scale_floor=[1e-3, 1.0], **meta).rows()
    assert [r.passed for r in rows] == [False, True]


def test_embedded_rows_interleave_per_polynomial():
    n, lams = 3, (0.3, 0.6)
    polys = sample_corpus(n, 3, 4, 1)
    fam = CorrelatedFamily.create([0.6, 0.0, 0.0], 0.1)
    xbar = 0.5 * fam.x_norm
    rows = flat(ball_rows(PolynomialEvaluator(polys), fam, xbar,
                          ("three_balls", "embedded_bound"), lams))
    assert [r.name for r in rows[:3]] == ["three_balls_eq27"] * 3
    rbar = correlated_radius_general(fam.x_norm, fam.r, xbar, 1.0)
    for k, lam in enumerate(lams):
        group = rows[3 + 9 * k:12 + 9 * k]
        assert [r.name[-4:] for r in group] == ["eq29", "eq36", "eq37"] * 3
        assert all(r.t == lam for r in group)
        for p in range(3):
            eq29, eq36, eq37 = group[3 * p:3 * p + 3]
            assert eq29.lhs == eq36.lhs
            assert eq37.lhs == math.sqrt(
                eq29.lhs / (ball_volume(n) * (lam * rbar) ** n))
            direct = embedded_bound_check(polys[p], fam.x, fam.r, xbar, lam,
                                          degree=4)
            for got, want in zip((eq29, eq36, eq37), direct):
                assert abs(got.lhs - want.lhs) <= 1e-12 * want.lhs
                assert abs(got.rhs - want.rhs) <= 1e-12 * want.rhs
