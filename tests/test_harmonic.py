from itertools import product

import numpy as np
import pytest

from threespheres import harmonic
from threespheres.errors import NonHarmonic, SingularPoint, StencilOutOfDomain
from threespheres.geometry import solve_inversion_center
from threespheres.harmonic import (
    HarmonicPolynomial,
    KelvinFunction,
    PolynomialEvaluator,
    harmonicity_defect,
    holomorphic_polynomial,
    laplacian_residual,
    random_harmonic_polynomial,
)


def lap_coeff_ratio(poly):
    lap = poly.laplacian_coefficients()
    if not lap:
        return 0.0
    scale = max(abs(c) for c in poly.terms.values())
    return max(abs(c) for c in lap.values()) / scale


def test_low_degree_always_harmonic():
    f = random_harmonic_polynomial(2, 1, seed=0)
    assert f.degree <= 1
    assert set(f.terms) <= {(0, 0), (1, 0), (0, 1)}


def test_synthesis_laplacian_residual():
    for n in (2, 3, 4):
        for seed in range(5):
            f = random_harmonic_polynomial(n, 8, seed=seed)
            assert lap_coeff_ratio(f) < 1e-13


def _times_norm2(terms, n):
    out = {}
    for e, c in terms.items():
        for k in range(n):
            key = e[:k] + (e[k] + 2,) + e[k + 1:]
            out[key] = out.get(key, 0.0) + c
    return out


def dict_harmonic_terms(n, max_degree, seed):
    """The dict-based synthesis the per-degree maps replaced: each drawn
    homogeneous slice minus |y|^2 q, q solving Laplacian(|y|^2 q) =
    Laplacian(slice) on a system built term by term."""
    lap = harmonic._laplacian_terms
    rng = np.random.default_rng(seed)
    terms = {}
    for degree in range(max_degree + 1):
        homog = {e: complex(rng.standard_normal(), rng.standard_normal())
                 for e in product(range(degree + 1), repeat=n)
                 if sum(e) == degree}
        terms.update(homog)
        if degree < 2:
            continue
        basis = [e for e in product(range(degree - 1), repeat=n)
                 if sum(e) == degree - 2]
        index = {e: i for i, e in enumerate(basis)}
        mat = np.zeros((len(basis), len(basis)))
        for j, e in enumerate(basis):
            for e2, c in lap(_times_norm2({e: 1.0}, n), n).items():
                mat[index[e2], j] = c
        rhs = np.zeros(len(basis), dtype=complex)
        for e, c in lap(homog, n).items():
            rhs[index[e]] = c
        q = np.linalg.solve(mat, rhs)
        for e, c in _times_norm2(dict(zip(basis, q)), n).items():
            terms[e] -= c
    return terms


def test_synthesis_matches_dict_oracle():
    for n in (2, 3, 4, 5):
        for max_degree in (0, 1, 2, 7, 12):
            f = random_harmonic_polynomial(n, max_degree, seed=n + max_degree)
            want = dict_harmonic_terms(n, max_degree, seed=n + max_degree)
            assert set(f.terms) == set(want)
            scale = max(abs(c) for c in want.values())
            assert max(abs(f.terms[e] - c) for e, c in want.items()) \
                <= 1e-15 * scale


def test_synthesis_gate_fires(monkeypatch):
    maps = harmonic._degree_maps

    def corrupt(n, degree):
        monos, lap, times, mat = maps(n, degree)
        return monos, lap, 1.001 * times, mat

    monkeypatch.setattr(harmonic, "_degree_maps", corrupt)
    with pytest.raises(NonHarmonic):
        random_harmonic_polynomial(3, 4, seed=0)


def test_classical_harmonic_accepted():
    f = HarmonicPolynomial(2, {(2, 0): 1.0, (0, 2): -1.0})
    assert f.degree == 2
    pts = np.array([[0.3, 0.4], [1.0, 2.0]])
    np.testing.assert_allclose(f(pts).real, [0.09 - 0.16, 1.0 - 4.0])


def test_non_harmonic_rejected():
    with pytest.raises(NonHarmonic):
        HarmonicPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})  # |y|^2


def test_determinism():
    a = random_harmonic_polynomial(3, 6, seed=42)
    b = random_harmonic_polynomial(3, 6, seed=42)
    assert a.terms == b.terms
    c = random_harmonic_polynomial(3, 6, seed=43)
    assert a.terms != c.terms


def test_homogeneous_parts_are_harmonic():
    f = random_harmonic_polynomial(3, 6, seed=1)
    parts = f.homogeneous_parts()
    recomposed = {}
    for k, part in parts.items():
        assert lap_coeff_ratio(part) < 1e-13
        for e, c in part.terms.items():
            assert sum(e) == k
            recomposed[e] = recomposed.get(e, 0.0) + c
    assert set(recomposed) == set(f.terms)


def test_json_roundtrip():
    f = random_harmonic_polynomial(3, 5, seed=11)
    g = HarmonicPolynomial.from_json(f.to_json())
    assert g.dimension == f.dimension
    assert g.terms == f.terms


def direct_sum(polys, pts):
    """sum_e c_e prod_i x_i^{e_i}, term by term, one column per polynomial."""
    out = np.zeros((len(pts), len(polys)), dtype=complex)
    for j, p in enumerate(polys):
        for e, c in p.terms.items():
            out[:, j] += c * np.prod(pts ** np.array(e), axis=1)
    return out


def test_evaluator_matches_single_evaluation(rng, monkeypatch):
    batches = [[random_harmonic_polynomial(n, 8, seed=s) for s in range(4)]
               for n in (2, 3, 4)]
    # sparse sets whose monomials need parents added with zero coefficients
    batches += [[HarmonicPolynomial(3, {(3, 0, 1): 1, (1, 0, 3): -1})],
                [HarmonicPolynomial(3, {(1, 1, 1): 2})],
                [holomorphic_polynomial([0] * 7 + [1])],
                [HarmonicPolynomial(2, {(0, 0): 1.5 - 0.5j})]]
    for polys in batches:
        n = polys[0].dimension
        ev = PolynomialEvaluator(polys)
        pts = rng.uniform(-1, 1, size=(50, n))
        exact = direct_sum(polys, pts)
        vals = ev.values(pts)
        sq = ev.squared_values(pts)
        np.testing.assert_allclose(vals, exact, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(sq, np.abs(exact) ** 2, rtol=1e-13,
                                   atol=1e-13)
        for j, p in enumerate(polys):
            np.testing.assert_allclose(p(pts), exact[:, j], rtol=1e-13,
                                       atol=1e-13)
        # the chunking, a one-point last chunk included, moves no bit
        with monkeypatch.context() as mp:
            mp.setattr(harmonic, "CHUNK", 7)
            assert np.array_equal(ev.values(pts), vals)
            assert np.array_equal(ev.squared_values(pts), sq)
        none = np.empty((0, n))
        assert ev.values(none).shape == (0, len(polys))
        assert ev.squared_values(none).shape == (0, len(polys))


def test_kelvin_constant_n2_is_one(rng):
    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    one = HarmonicPolynomial(2, {(0, 0): 1.0})
    kel = KelvinFunction(one, inv)
    pts = rng.uniform(-0.6, 0.6, size=(20, 2))
    np.testing.assert_allclose(kel(pts), np.ones(20), rtol=1e-14)


def test_kelvin_constant_n3_prefactor(rng):
    inv = solve_inversion_center(0.5, 0.2, dimension=3)
    one = HarmonicPolynomial(3, {(0, 0, 0): 1.0})
    kel = KelvinFunction(one, inv)
    pts = rng.uniform(-0.5, 0.5, size=(20, 3))
    expected = inv.rho / np.linalg.norm(pts - inv.a, axis=1)
    np.testing.assert_allclose(kel(pts).real, expected, rtol=1e-14)
    # rho/|y-a| is harmonic in R^3 away from a: check by the FD oracle
    for y in pts[:5]:
        assert harmonicity_defect(kel, y, 1e-3) < 1e-5


def test_kelvin_n2_is_conjugated_composition(rng):
    from threespheres.geometry import inversion_map

    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    f = random_harmonic_polynomial(2, 5, seed=9)
    kel = KelvinFunction(f, inv)
    pts = rng.uniform(-0.6, 0.6, size=(30, 2))
    np.testing.assert_allclose(kel(pts), np.conj(f(inversion_map(inv, pts))),
                               rtol=1e-14)


def test_kelvin_singular_point():
    inv = solve_inversion_center(0.5, 0.2, dimension=2)
    f = random_harmonic_polynomial(2, 3, seed=2)
    kel = KelvinFunction(f, inv)
    with pytest.raises(SingularPoint):
        kel(inv.a)
    with pytest.raises(StencilOutOfDomain):
        laplacian_residual(kel, inv.a + np.array([1e-3, 0.0]), 1e-3)


def test_laplacian_residual_exact_cases():
    f = HarmonicPolynomial(2, {(2, 0): 1.0, (0, 2): -1.0})
    assert laplacian_residual(f, np.array([0.3, 0.2]), 1e-3) < 1e-9

    def norm2(pts):
        pts = np.asarray(pts)
        return np.einsum("ij,ij->i", pts, pts)

    resid = laplacian_residual(norm2, np.array([0.3, 0.2]), 1e-3)
    assert abs(resid - 4.0) < 1e-6  # Laplacian of |y|^2 is 2n
    assert harmonicity_defect(norm2, np.array([0.3, 0.2]), 1e-3) > 0.5


def test_kelvin_harmonicity_defect_corpus(rng):
    inv3 = solve_inversion_center(0.5, 0.2, dimension=3)
    f = random_harmonic_polynomial(3, 4, seed=5)
    kel = KelvinFunction(f, inv3)
    for _ in range(100):
        y = rng.standard_normal(3)
        y *= 0.95 * rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(y)
        assert harmonicity_defect(kel, y, 1e-3) < 1e-5


def test_holomorphic_polynomial_expansion(rng):
    coeffs = [1.0, 2.0 - 1.0j, 0.0, 0.5j]
    f = holomorphic_polynomial(coeffs)
    pts = rng.uniform(-1, 1, size=(25, 2))
    z = pts[:, 0] + 1j * pts[:, 1]
    expected = sum(c * z ** k for k, c in enumerate(coeffs))
    np.testing.assert_allclose(f(pts), expected, rtol=1e-13, atol=1e-13)
    assert lap_coeff_ratio(f) < 1e-13
