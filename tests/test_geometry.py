import math

import numpy as np
import pytest

from threespheres.errors import (
    ConcentricInput,
    DegenerateLog,
    OutOfRange,
    SingularPoint,
    TouchingBalls,
)
from threespheres.geometry import (
    Ball,
    CorrelatedFamily,
    _reflection,
    correlated_radius_general,
    correlation_check,
    delta0,
    half_plane_inversion,
    inversion_map,
    solve_inversion_center,
    sphere_image_check,
)
from threespheres.sweep import sample_geometries


def quadratic_root_oracle(x_norm, r, R=1.0):
    """Independent route: largest root of |a|^2 x - (R^2+x^2-r^2)|a| + R^2 x."""
    roots = np.roots([x_norm, -(R * R + x_norm * x_norm - r * r), R * R * x_norm])
    return float(np.max(roots.real))


def test_inversion_center_canonical():
    inv = solve_inversion_center(0.5, 0.2)
    assert abs(inv.a_norm - 1.891248853210044) < 1e-12
    assert abs(inv.rho - 1.6052483374133444) < 1e-12
    # substituting back satisfies the quadratic relation
    assert abs((inv.a_norm ** 2 + 1) / inv.a_norm - 2.42) < 1e-12
    assert abs(inv.a_norm - quadratic_root_oracle(0.5, 0.2)) < 1e-12
    assert abs(inv.rho ** 2 - (inv.a_norm ** 2 - 1)) < 1e-12


def test_inversion_center_random_configs(rng):
    for _ in range(50):
        x = rng.uniform(0.05, 0.8)
        r = rng.uniform(0.01, 1 - x - 0.02)
        inv = solve_inversion_center(x, r)
        oracle = quadratic_root_oracle(x, r)
        assert abs(inv.a_norm - oracle) < 1e-12 * max(1.0, oracle)
        assert inv.a_norm > 1


def test_inversion_center_general_radius():
    inv1 = solve_inversion_center(0.5, 0.2, R=1.0)
    inv2 = solve_inversion_center(1.0, 0.4, R=2.0)
    assert abs(inv2.a_norm - 2 * inv1.a_norm) < 1e-12
    assert abs(inv2.rho - 2 * inv1.rho) < 1e-12


def test_touching_and_concentric_errors():
    with pytest.raises(TouchingBalls):
        solve_inversion_center(0.5, 0.5)
    with pytest.raises(ConcentricInput):
        solve_inversion_center(0.0, 0.3)
    with pytest.raises(ConcentricInput):
        CorrelatedFamily.create([0.0, 0.0], 0.3)


def test_family_radius_endpoints_and_value():
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    assert abs(float(fam.radius(0.0)) - 1.0) < 1e-12
    assert abs(float(fam.radius(0.5)) - 0.2) < 1e-12
    assert abs(float(fam.radius(0.25)) - 0.6763874629234342) < 1e-10
    with pytest.raises(OutOfRange):
        fam.radius(0.6)
    with pytest.raises(OutOfRange):
        fam.radius(-0.1)


@pytest.mark.parametrize("method", ["radius", "image_radius", "center", "ball",
                                    "radius_derivative",
                                    "image_radius_derivative"])
def test_family_refuses_nan_t(method):
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    for t in (math.nan, -0.01, 0.51, [0.2, math.nan]):
        with pytest.raises(OutOfRange):
            getattr(fam, method)(t)


@pytest.mark.parametrize("method", ["radius", "image_radius",
                                    "radius_derivative",
                                    "image_radius_derivative"])
def test_family_checks_t_once(method, monkeypatch):
    # one check of t per call; the radius inside reads the checked t, and
    # the value is that of the methods composed
    fam = CorrelatedFamily.create([0.3, 0.2, -0.1], 0.2)
    ts = np.linspace(0.0, fam.x_norm, 7)
    want = getattr(fam, method)(ts)
    calls = []
    check = CorrelatedFamily._check_t
    monkeypatch.setattr(CorrelatedFamily, "_check_t",
                        lambda self, t: calls.append(t) or check(self, t))
    np.testing.assert_array_equal(getattr(fam, method)(ts), want)
    assert len(calls) == 1
    a, rt = fam.inversion.a_norm, fam.radius(ts)
    composed = {"radius": np.sqrt((1 - ts / a) * (1 - a * ts)),
                "image_radius": rt * a / (a - ts),
                "radius_derivative": (2 * ts - (a * a + 1) / a) / (2 * rt),
                "image_radius_derivative": -fam.inversion.rho2
                * fam.image_radius(ts) / (2 * a * rt * rt)}[method]
    np.testing.assert_array_equal(want, composed)


def test_family_reads_make_no_norm_call(monkeypatch):
    # |x|, |a| and rho^2 are fixed when the family is made
    fam = CorrelatedFamily.create([0.3, 0.2, -0.1], 0.2)
    calls = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm",
                        lambda *a, **k: calls.append(a) or norm(*a, **k))
    t = 0.5 * fam.x_norm
    fam.radius(t)
    fam.image_radius(t)
    fam.radius_derivative(t)
    fam.center(t)
    fam.exponents(t)
    assert not calls


@pytest.mark.parametrize("n", [2, 3])
def test_correlated_radius_general_is_the_family_radius(n):
    # one expression for r_t: the family stores the |a| it solves, so along
    # any direction the general form equals the family radius bit for bit;
    # at |xbar| = |x| it keeps its exact endpoint r (the family meets it to
    # rounding)
    for x, r in sample_geometries(n, 50, 11):
        for R in (1.0, 2.5):
            fam = CorrelatedFamily.create(R * x, R * r, R)
            assert fam.inversion.a_norm == solve_inversion_center(
                fam.x_norm, fam.r, R).a_norm
            for f in (0, 0.1, 0.5, 0.9, 1):
                want = fam.r if f == 1 else float(fam.radius(f * fam.x_norm))
                assert correlated_radius_general(
                    fam.x_norm, fam.r, f * fam.x_norm, R) == want


def test_image_radius_forms_agree_and_endpoint():
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    assert abs(float(fam.image_radius(0.0)) - 1.0) < 1e-12
    assert abs(float(fam.image_radius(0.5)) - 0.2718778669748901) < 1e-10
    a = fam.inversion.a_norm
    ts = np.linspace(0.0, 0.5, 100)
    rt = fam.radius(ts)
    v1 = rt * a / (a - ts)
    v2 = (1 - a * ts) / rt
    assert np.max(np.abs(v1 - v2)) < 1e-12


def test_correlation_constant_invariant_along_family(rng):
    for _ in range(20):
        x = rng.uniform(0.1, 0.7)
        r = rng.uniform(0.02, 1 - x - 0.05)
        fam = CorrelatedFamily.create([x, 0.0, 0.0], r)
        a = fam.inversion.a_norm
        ts = np.linspace(1e-3, x, 64)
        const = (1 + ts ** 2 - fam.radius(ts) ** 2) / ts
        assert np.max(np.abs(const - (a + 1 / a))) < 1e-12 * (a + 1 / a)


def test_radius_derivatives_match_finite_differences(rng):
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(0.1, 0.7)
        r = rng.uniform(0.02, 1 - x - 0.05)
        fam = CorrelatedFamily.create([x, 0.0], r)
        for t in np.linspace(0.1 * x, 0.9 * x, 7):
            fd = (float(fam.radius(t + h)) - float(fam.radius(t - h))) / (2 * h)
            assert abs(fd - float(fam.radius_derivative(t))) < 1e-6 * max(1, abs(fd))
            fd = (float(fam.image_radius(t + h))
                  - float(fam.image_radius(t - h))) / (2 * h)
            closed = float(fam.image_radius_derivative(t))
            assert abs(fd - closed) < 1e-6 * max(1, abs(fd))
            assert closed < 0  # r_t* strictly decreasing


def test_family_nesting(rng):
    for _ in range(10):
        x = rng.uniform(0.1, 0.7)
        r = rng.uniform(0.02, 1 - x - 0.05)
        fam = CorrelatedFamily.create([x, 0.0], r)
        ts = np.linspace(0.0, x, 12)
        for t1, t2 in zip(ts, ts[1:]):
            b_outer, b_inner = fam.ball(t1), fam.ball(t2)
            assert b_outer.contains(b_inner)
            gap = np.linalg.norm(b_outer.center - b_inner.center)
            assert gap < b_outer.radius - b_inner.radius + 1e-12


def test_exponents_canonical_values():
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    rec = fam.exponents(0.5)
    assert abs(rec.alpha - 1.0) < 1e-12
    assert abs(rec.omega - 0.25 * 0.3 / math.log(3.75)) < 1e-12
    assert abs(rec.omega - 0.05674270370615744) < 1e-12


def test_exponent_bound_alpha_above_omega(rng):
    worst = np.inf
    for _ in range(50):
        x = rng.uniform(0.1, 0.7)
        r = rng.uniform(0.02, 1 - x - 0.05)
        fam = CorrelatedFamily.create([x, 0.0], r)
        for t in np.linspace(x / 100, x, 100):
            rec = fam.exponents(t)
            worst = min(worst, rec.alpha - rec.omega)
    assert worst > 0


def test_inversion_map_involution_and_ball_preservation(rng):
    inv = solve_inversion_center(0.5, 0.2, dimension=3)
    pts = rng.standard_normal((1000, 3))
    pts *= (rng.uniform(0, 1, 1000) ** (1 / 3) / np.linalg.norm(pts, axis=1))[:, None]
    image = inversion_map(inv, pts)
    assert np.max(np.linalg.norm(inversion_map(inv, image) - pts, axis=1)) < 1e-12
    assert np.max(np.linalg.norm(image, axis=1)) <= 1.0 + 1e-12


def test_inversion_fixed_sphere_and_singularity():
    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    # points on S_{a,rho} are fixed
    theta = np.linspace(0, 2 * math.pi, 17)[:-1]
    pts = inv.a + inv.rho * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    assert np.max(np.linalg.norm(inversion_map(inv, pts) - pts, axis=1)) < 1e-12
    with pytest.raises(SingularPoint):
        inversion_map(inv, inv.a)


def test_inversion_of_origin():
    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    image = inversion_map(inv, np.zeros(2))
    # phi(0) = a / |a|^2, not 0: only phi(B) = B is asserted by the package
    expected = inv.a / inv.a_norm ** 2
    assert np.linalg.norm(image - expected) < 1e-12
    assert abs(image[0] - 0.528751146789956) < 1e-10


def test_sphere_image_concentric(rng):
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    assert sphere_image_check(fam, 0.0, samples=200)
    assert sphere_image_check(fam, 0.25, samples=500)
    assert sphere_image_check(fam, 0.5, samples=500)
    # independent oracle: analytic image of a sphere under inversion
    t = 0.3
    d2 = (fam.inversion.a_norm - t) ** 2
    rt = float(fam.radius(t))
    expected = fam.inversion.rho2 * rt / (d2 - rt * rt)
    assert abs(expected - float(fam.image_radius(t))) < 1e-12


def test_sphere_image_random_direction(rng):
    e = rng.standard_normal(3)
    e /= np.linalg.norm(e)
    fam = CorrelatedFamily.create(0.4 * e, 0.3)
    assert sphere_image_check(fam, 0.2, samples=500)


def test_correlation_check():
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    rbar = float(fam.radius(0.25))
    assert correlation_check(Ball([0.5, 0.0], 0.2), Ball([0.25, 0.0], rbar))
    assert not correlation_check(Ball([0.5, 0.0], 0.2), Ball([0.25, 0.0], 0.9))
    # concentric balls are correlated by convention
    assert correlation_check(Ball([0.0, 0.0], 0.3), Ball([0.0, 0.0], 0.7))
    # origin-centered partner must be the ambient ball itself
    assert correlation_check(Ball([0.5, 0.0], 0.2), Ball([0.0, 0.0], 1.0))
    assert not correlation_check(Ball([0.5, 0.0], 0.2), Ball([0.0, 0.0], 0.8))
    # codirection is required
    assert not correlation_check(Ball([0.5, 0.0], 0.2), Ball([0.0, 0.25], rbar))


def test_correlated_radius_general():
    assert correlated_radius_general(0.5, 0.2, 0.5) == 0.2
    assert abs(correlated_radius_general(0.5, 0.2, 0.25)
               - 0.6763874629234342) < 1e-10
    assert correlated_radius_general(0.5, 0.2, 0.0) == 1.0
    # monotone containment: rbar >= r0
    for xb in np.linspace(0.0, 0.5, 11):
        assert correlated_radius_general(0.5, 0.2, xb) >= 0.2 - 1e-15


def test_correlated_radius_scale_invariance(rng):
    for _ in range(20):
        x = rng.uniform(0.1, 0.7)
        r = rng.uniform(0.02, 1 - x - 0.05)
        xb = rng.uniform(0.01, x)
        R = rng.uniform(0.5, 4.0)
        scaled = correlated_radius_general(R * x, R * r, R * xb, R)
        base = correlated_radius_general(x, r, xb, 1.0)
        assert abs(scaled - R * base) < 1e-12 * R


def test_delta0_value_and_scale():
    d = delta0(0.5, 0.2, 0.25)
    oracle = (0.25 ** 2 / (2 * (1 - 0.25))
              * (1 - 0.5 - 0.2) / math.log((1 - 0.25) / 0.1))
    assert abs(d - oracle) < 1e-15
    assert abs(d - 0.006203772525307899) < 1e-12
    assert 0 < d < 1
    # scale-derived variant is scale invariant by construction
    assert abs(delta0(1.0, 0.4, 0.5, R=2.0) - d) < 1e-15
    # the as-printed variant coincides at R = 1 but not at R != 1
    assert abs(delta0(0.5, 0.2, 0.25, variant="printed") - d) < 1e-15
    printed = delta0(1.0, 0.4, 0.5, R=2.0, variant="printed")
    assert abs(printed - d) > 1e-4


def test_delta0_degenerate_log():
    # printed variant: log argument R - |x0|^2 goes nonpositive for |x0| > sqrt(R)
    with pytest.raises(DegenerateLog):
        delta0(20.0, 1.0, 20.0 / 3, R=40.0, variant="printed")


def test_non_finite_inputs_raise_errors_naming_the_field():
    # NaN and infinity pass comparisons like "x <= 0" untouched: delta0 read
    # nan, Ball took an infinite radius, and a NaN |x| was reported as a
    # bad radius
    with pytest.raises(OutOfRange, match=r"\|xbar\| > 0, got nan"):
        delta0(0.5, 0.2, math.nan)
    with pytest.raises(OutOfRange, match="radius must be finite"):
        Ball([0.0, 0.0], math.inf)
    with pytest.raises(OutOfRange, match=r"\|x\| must be finite, got nan"):
        solve_inversion_center(math.nan, 0.2)
    with pytest.raises(OutOfRange, match="R must be finite, got nan"):
        solve_inversion_center(0.5, 0.2, math.nan)


def test_exponents_out_of_range():
    fam = CorrelatedFamily.create([0.5, 0.0], 0.2)
    with pytest.raises(OutOfRange):
        fam.exponents(0.0)
    with pytest.raises(OutOfRange):
        fam.exponents(0.7)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_half_plane_inversion_matches_inversion_map(n):
    # on the half-planes bounded by a's line, (x, rho) -> (alpha + k (x -
    # alpha), k rho) is the inversion of the points (x, rho omega)
    rng = np.random.default_rng(n)
    inv = solve_inversion_center(0.4, 0.2, direction=rng.standard_normal(n),
                                 dimension=n)
    axis = inv.a / inv.a_norm
    H = _reflection(axis)
    x, rho = rng.uniform(-1, 1, 30), rng.uniform(0, 1, 30)
    omega = rng.standard_normal((30, n - 1))
    omega /= np.linalg.norm(omega, axis=1)[:, None]

    def points(xs, rhos):
        return np.column_stack([xs, rhos[:, None] * omega]) @ H.T

    xi, ri = half_plane_inversion(inv, float(inv.a @ axis), x, rho)
    np.testing.assert_allclose(points(xi, ri),
                               inversion_map(inv, points(x, rho)),
                               rtol=0, atol=1e-14)
    with pytest.raises(SingularPoint):
        half_plane_inversion(inv, 1.5, np.array([1.5]), np.array([0.0]))
