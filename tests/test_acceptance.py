"""Acceptance criteria, one test per criterion, printed as pass/fail lines.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines and timings.  Criterion 10 exercises the delta_0 >= rho/100 relation
exactly as stated; see the assertion message for the measured constants.
"""

import json
import math
import time

import numpy as np
import pytest

from threespheres.errors import (
    BetaOutOfRange,
    ConcentricInput,
    DegenerateLog,
    NonHarmonic,
    TouchingBalls,
)
from threespheres.geometry import (
    CorrelatedFamily,
    inversion_map,
    solve_inversion_center,
    sphere_image_check,
)
from threespheres.harmonic import (
    HarmonicPolynomial,
    KelvinFunction,
    harmonicity_defect,
    random_harmonic_polynomial,
)
from threespheres.quadrature import SphereRule, l2_sphere_norm
from threespheres.sweep import SweepConfig, run_sweep, sample_geometries
from threespheres.uniqueness import delta_lower_bound_check
from threespheres.verify import (
    derivative_identity_check,
    flat,
    gradient_identity_check,
    log_convexity_check,
    transfer_identity_check,
)


def _report(num, label, started, limit):
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {num} ({label}): {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"


def _geometry_samples(n, count, seed):
    return sample_geometries(n, count, seed)


def test_criterion_01_geometry_identities():
    started = time.perf_counter()
    h = 1e-6
    total = 0
    for n in (2, 3, 4, 5, 6):
        for (x_vec, r) in _geometry_samples(n, 10, seed=101):
            fam = CorrelatedFamily.create(x_vec, r)
            x = fam.x_norm
            a = fam.inversion.a_norm
            # endpoints
            assert abs(float(fam.radius(0.0)) - 1.0) < 1e-12
            assert abs(float(fam.radius(x)) - r) < 1e-12
            ts = np.linspace(0.01 * x, x, 40)
            # correlation constant along the family
            const = (1 + ts ** 2 - fam.radius(ts) ** 2) / ts
            assert np.max(np.abs(const - (a + 1 / a))) < 1e-12 * (a + 1 / a)
            # both image-radius forms agree (checked inside image_radius)
            rt = fam.radius(ts)
            v1 = rt * a / (a - ts)
            v2 = (1 - a * ts) / rt
            assert np.max(np.abs(v1 - v2)) < 1e-12
            # closed-form derivatives vs central differences
            for t in np.linspace(0.1 * x, 0.9 * x, 5):
                fd = (float(fam.radius(t + h)) - float(fam.radius(t - h))) / (2 * h)
                cl = float(fam.radius_derivative(t))
                assert abs(fd - cl) < 1e-6 * max(1.0, abs(cl))
                fd = (float(fam.image_radius(t + h))
                      - float(fam.image_radius(t - h))) / (2 * h)
                cl = float(fam.image_radius_derivative(t))
                assert abs(fd - cl) < 1e-6 * max(1.0, abs(cl))
            total += 1
    assert total == 50
    _report(1, "geometry identities", started, 5.0)


def test_criterion_02_exponent_bound():
    started = time.perf_counter()
    margins = []
    for (x_vec, r) in _geometry_samples(3, 50, seed=202):
        fam = CorrelatedFamily.create(x_vec, r)
        x = fam.x_norm
        for t in np.linspace(x / 100, x, 100):
            rec = fam.exponents(t)
            margins.append(rec.alpha - rec.omega)
    margins = np.asarray(margins)
    assert np.all(margins > 0)
    print(f"  min(alpha - omega) over grid = {margins.min():.6e}")
    _report(2, "exponent bound", started, 5.0)


def test_criterion_03_inversion():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for n in (2, 3, 4):
        inv = solve_inversion_center(0.5, 0.2, dimension=n)
        pts = rng.standard_normal((10_000 // 2, n))
        pts *= (rng.uniform(0, 1, pts.shape[0]) ** (1 / n)
                / np.linalg.norm(pts, axis=1))[:, None]
        image = inversion_map(inv, pts)
        back = inversion_map(inv, image)
        assert np.max(np.linalg.norm(back - pts, axis=1)) < 1e-12
    fam = CorrelatedFamily.create([0.5, 0.0, 0.0], 0.2)
    for j, t in enumerate(np.linspace(0.0, 0.5, 20)):
        assert sphere_image_check(fam, t, samples=500, seed=j, tol=1e-10)
    _report(3, "inversion involution and image spheres", started, 5.0)


def test_criterion_04_kelvin_harmonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for n in (2, 3):
        inv = solve_inversion_center(0.5, 0.2, dimension=n)
        for seed in range(25):
            f = random_harmonic_polynomial(n, 8, seed=seed)
            kel = KelvinFunction(f, inv)
            for _ in range(100):
                y = rng.standard_normal(n)
                y *= 0.99 * rng.uniform(0, 1) ** (1 / n) / np.linalg.norm(y)
                d = harmonicity_defect(kel, y, h=1e-3)
                worst = max(worst, d)
                assert d < 1e-5
    print(f"  worst normalized Kelvin residual = {worst:.3e}")
    _report(4, "Kelvin harmonicity", started, 30.0)


class _Norm2:
    degree = 2

    def __call__(self, pts):
        pts = np.asarray(pts)
        return np.einsum("ij,ij->i", pts, pts)


def test_criterion_05_derivative_identities():
    started = time.perf_counter()
    # n = 4 on a reduced grid of 3 geometries
    for n, geometries in ((2, 10), (3, 10), (4, 3)):
        one = HarmonicPolynomial(n, {tuple([0] * n): 1.0})
        coord = HarmonicPolynomial(n, {tuple([1] + [0] * (n - 1)): 1.0})
        fns = [one, coord, _Norm2(), random_harmonic_polynomial(n, 4, seed=1),
               random_harmonic_polynomial(n, 8, seed=2)]
        for (x_vec, r) in _geometry_samples(n, geometries, seed=505):
            fam = CorrelatedFamily.create(x_vec, r)
            for f in fns:
                for rep in gradient_identity_check(f, x_vec, r):
                    assert rep.passed, rep
                for rep in derivative_identity_check(f, fam, 0.5 * fam.x_norm):
                    assert rep.passed, rep
    _report(5, "derivative identities", started, 60.0)


def test_criterion_06_transfer_identity():
    started = time.perf_counter()
    # n = 4 on a reduced grid: 5 polynomials on 3 geometries
    for n, count, geometries in ((2, 10, 10), (3, 10, 10), (4, 5, 3)):
        polys = [random_harmonic_polynomial(n, 8, seed=s)
                 for s in range(count)]
        for ci, (x_vec, r) in enumerate(_geometry_samples(n, geometries,
                                                          seed=606)):
            fam = CorrelatedFamily.create(x_vec, r)
            # rotate through small/middle/endpoint t: near t = 0 both spheres
            # approach the unit sphere and the Kelvin side is hardest
            tfrac = (0.1, 0.6, 1.0)[ci % 3]
            for f in polys:
                rep = transfer_identity_check(f, fam, tfrac * fam.x_norm)
                assert rep.passed, rep
                assert abs(rep.ratio - 1) < 1e-8
    _report(6, "transfer identity", started, 60.0)


def test_criterion_07_three_spheres_theorem():
    started = time.perf_counter()
    cfg = SweepConfig.from_dict({
        "dimensions": [2, 3],
        "corpus": {"count": 100, "max_degree": 8, "seed": 7},
        "geometry": {"count": 20, "seed": 11, "t_count": 10},
        "checks": ["three_spheres"],
    })
    reports = flat(run_sweep(cfg)[0])
    assert len(reports) == 2 * 100 * 20 * 10
    bad = [r for r in reports if not r.passed]
    assert not bad, f"{len(bad)} three-spheres violations, first: {bad[0]}"
    # n = 4 on a reduced grid, with the same deterministic rules
    cfg4 = SweepConfig.from_dict({
        "dimensions": [4],
        "corpus": {"count": 20, "max_degree": 8, "seed": 7},
        "geometry": {"count": 5, "seed": 11, "t_count": 5},
        "checks": ["three_spheres"],
        "mc_samples": 20_000,
    })
    reports4 = flat(run_sweep(cfg4)[0])
    assert len(reports4) == 20 * 5 * 5
    bad4 = [r for r in reports4 if not r.passed]
    assert not bad4, f"{len(bad4)} n=4 three-spheres violations"
    worst = max(r.ratio for r in reports)
    print(f"  worst deterministic lhs/rhs ratio = {worst:.6f}")
    _report(7, "three-spheres inequality", started, 300.0)


def test_criterion_08_three_balls_and_embedded_bounds():
    started = time.perf_counter()
    cfg = SweepConfig.from_dict({
        "dimensions": [2, 3],
        "corpus": {"count": 100, "max_degree": 8, "seed": 7},
        "geometry": {"count": 20, "seed": 11, "t_count": 2,
                     "lambdas": [0.3, 0.6, 0.9]},
        "checks": ["three_balls", "embedded_bound"],
    })
    reports = flat(run_sweep(cfg)[0])
    names = {r.name for r in reports}
    assert names == {"three_balls_eq27", "embedded_bound_eq29",
                     "embedded_bound_eq36", "embedded_bound_eq37"}
    bad = [r for r in reports if not r.passed]
    assert not bad, f"{len(bad)} violations, first: {bad[0]}"
    # reduced n = 4 pass with the same deterministic rules
    cfg4 = SweepConfig.from_dict({
        "dimensions": [4],
        "corpus": {"count": 10, "max_degree": 8, "seed": 7},
        "geometry": {"count": 3, "seed": 11, "t_count": 2, "lambdas": [0.6]},
        "checks": ["three_balls", "embedded_bound"],
        "mc_samples": 5000,
    })
    reports4 = flat(run_sweep(cfg4)[0])
    bad4 = [r for r in reports4 if not r.passed]
    assert not bad4, f"{len(bad4)} n=4 violations"
    _report(8, "three-balls and embedded bounds", started, 300.0)


def test_criterion_09_log_convexity_parseval():
    started = time.perf_counter()
    grid = np.linspace(0.05, 0.95, 20)
    for n, seeds in ((2, 25), (3, 25), (4, 5)):  # n = 4 on 5 seeds
        rule = SphereRule.product(n, 16)
        for seed in range(seeds):
            f = random_harmonic_polynomial(n, 8, seed=seed)
            parts = f.homogeneous_parts()
            cks = {k: l2_sphere_norm(p, np.zeros(n), 1.0, rule) ** 2
                   for k, p in parts.items()}
            values = {}
            for rad in grid:
                lhs = l2_sphere_norm(f, np.zeros(n), rad, rule) ** 2
                rhs = sum(c * rad ** (2 * k + n - 1) for k, c in cks.items())
                assert abs(lhs - rhs) < 1e-10 * rhs
                values[float(rad)] = math.sqrt(lhs)
            rep = log_convexity_check(lambda rr: values[float(rr)], grid)
            assert rep.passed, (n, seed, rep.margin)
    _report(9, "log-convexity and Parseval structure", started, 30.0)


def test_criterion_10_delta_lower_bound():
    started = time.perf_counter()
    grid = np.geomspace(16.0, 1024.0, 7)
    results = {}
    for variant in ("scaled", "printed"):
        rows = []
        for xn in grid:
            try:
                rows.append(delta_lower_bound_check(float(xn), float(xn) / 4,
                                                    variant=variant))
            except DegenerateLog as exc:
                rows.append(exc)
        results[variant] = rows
    # record the observed constants: delta_0 >= rho / C with C = 100 * lhs/rhs
    observed = [100.0 * r.lhs / r.rhs for r in results["scaled"]]
    elapsed = time.perf_counter() - started
    satisfied = {v: all(getattr(r, "passed", False) for r in rows)
                 for v, rows in results.items()}
    line = ("criterion 10 (delta_0 >= rho/100): "
            f"scaled variant satisfies: {satisfied['scaled']}, "
            f"printed variant satisfies: {satisfied['printed']} "
            f"({elapsed:.2f}s)")
    print(("PASS " if any(satisfied.values()) else "FAIL ") + line)
    assert elapsed < 1.0
    assert any(satisfied.values()), (
        "delta_0 >= rho/100 holds for no delta_0 variant on the grid "
        "x in [16, 1024], r = x/4.  Scaled variant: delta_0/rho = "
        "(1-s)/(120 log(3/s)) * log(2/s) with s = r/x = 1/4 gives "
        f"delta_0 = rho/{max(observed):.1f} at every grid point "
        "(scale-invariant), short of rho/100 by the structural factor "
        "(5/6)(1-s)log(2/s)/log(3/s) < 5/6.  Printed variant: the log "
        "argument R - |x0|^2 = 2x - x^2 is negative for x > 2, so delta_0 "
        "is undefined on the whole grid.  The relation as stated is not "
        "attainable; the sharpest uniform relation on 2r <= |x| is "
        "delta_0 >= rho/311.")


def test_criterion_11_negative_controls():
    started = time.perf_counter()
    f = random_harmonic_polynomial(2, 6, seed=11)
    # beta > alpha: designated error on the API...
    from threespheres.verify import three_spheres_check

    with pytest.raises(BetaOutOfRange):
        three_spheres_check(f, [0.5, 0.0], 0.2, t=0.25, beta=0.9)
    # ...and a genuine failed report when forced through
    rep = three_spheres_check(f, [0.5, 0.0], 0.2, t=0.5, beta=1.05,
                              unchecked_beta=True)
    assert not rep.passed
    with pytest.raises(TouchingBalls):
        solve_inversion_center(0.5, 0.5)
    with pytest.raises(ConcentricInput):
        solve_inversion_center(0.0, 0.3)
    with pytest.raises(NonHarmonic):
        HarmonicPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert harmonicity_defect(_Norm2(), np.array([0.3, 0.1]), 1e-3) > 0.5
    _report(11, "negative controls", started, 5.0)


def test_criterion_12_determinism(tmp_path):
    started = time.perf_counter()
    from threespheres.cli import main

    cfg = {
        "dimensions": [2, 3],
        "corpus": {"count": 5, "max_degree": 6, "seed": 3},
        "geometry": {"count": 3, "seed": 5, "t_count": 3, "lambdas": [0.6]},
        "checks": ["three_spheres", "three_balls", "transfer_identity",
                   "log_convexity"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["verify", "--config", str(cfg_path), "--out-csv", str(a)]) == 0
    assert main(["verify", "--config", str(cfg_path), "--out-csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _report(12, "byte-identical determinism", started, 120.0)
