"""Exact harmonic polynomials, the Kelvin transform, and harmonicity oracles.

Polynomials are stored as sparse multi-index -> complex coefficient maps.
Random test functions are produced by drawing dense random coefficients and
projecting each homogeneous component onto its harmonic part: p = h + |y|^2 q
where q solves the linear system Laplacian(|y|^2 q) = Laplacian(p).  For a
fixed (n, degree) that projection is one linear map, built once from dense
matrices of the Laplacian L and the |y|^2 product T and applied to a whole
corpus in one solve, and the harmonicity gate is the matrix product max |L h|;
polynomials given by their terms are gated by the symbolic Laplacian.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

from .errors import NonHarmonic, OutOfRange, SingularPoint, StencilOutOfDomain
from .geometry import InversionData, inversion_map

__all__ = [
    "HarmonicPolynomial",
    "KelvinFunction",
    "PolynomialEvaluator",
    "harmonicity_defect",
    "holomorphic_polynomial",
    "laplacian_residual",
    "random_harmonic_polynomial",
    "random_harmonic_polynomials",
]

HARMONICITY_TOL = 1e-13
# basis entries (monomials x points) per basis-matrix product of
# PolynomialEvaluator
CHUNK = 1 << 19


def _laplacian_terms(terms: dict, n: int) -> dict:
    out: dict = {}
    for e, c in terms.items():
        for k in range(n):
            if e[k] >= 2:
                e2 = list(e)
                e2[k] -= 2
                key = tuple(e2)
                out[key] = out.get(key, 0.0) + c * e[k] * (e[k] - 1)
    return out


@lru_cache(maxsize=None)
def _degree_maps(n: int, degree: int):
    """The degree-``degree`` monomials, the block of ``_graded`` that a
    corpus slices in its order, and the dense maps that depend only on
    (n, degree): the Laplacian L (degree -> degree - 2), the |y|^2 product T
    (degree - 2 -> degree) and the correction matrix L T."""
    exps = list(map(tuple, _graded(n, degree)[0].tolist()))
    monos = exps[math.comb(degree - 1 + n, n):]
    lower = exps[math.comb(degree - 3 + n, n):math.comb(degree - 2 + n, n)] \
        if degree >= 2 else []
    down = {e: i for i, e in enumerate(lower)}
    up = {e: i for i, e in enumerate(monos)}
    lap = np.zeros((len(lower), len(monos)))
    for j, e in enumerate(monos):
        for e2, c in _laplacian_terms({e: 1.0}, n).items():
            lap[down[e2], j] = c
    times = np.zeros((len(monos), len(lower)))
    for j, e in enumerate(lower):
        for k in range(n):
            times[up[e[:k] + (e[k] + 2,) + e[k + 1:]], j] = 1.0
    maps = (lap, times, lap @ times)
    for m in maps:
        m.setflags(write=False)
    return (monos,) + maps


@lru_cache(maxsize=None)
def _graded(n: int, max_degree: int):
    """The monomials of degree <= ``max_degree`` in (degree, lex) order, an
    (M, n) array, and their slice products (row, parent row, k, j): in
    degree d, those whose first nonzero coordinate is j are x_j times the
    first k of degree d - 1, the ones in the last n - j coordinates."""
    exps = np.zeros((math.comb(max_degree + n, n), n), dtype=np.int64)
    steps, lo = [], 1
    for d in range(1, max_degree + 1):
        parent = lo - math.comb(d - 2 + n, n - 1)
        for j in reversed(range(n)):
            k = math.comb(d - 2 + n - j, n - 1 - j)
            exps[lo:lo + k] = exps[parent:parent + k]
            exps[lo:lo + k, j] += 1
            steps.append((lo, parent, k, j))
            lo += k
    exps.setflags(write=False)
    index = {e: i for i, e in enumerate(map(tuple, exps.tolist()))}
    return exps, tuple(steps), index


def _check_residual(resid: float, scale: float) -> None:
    # the gate is 10x the synthesis tolerance to admit round-tripped
    # coefficients
    if resid > 10 * HARMONICITY_TOL * max(scale, 1.0):
        raise NonHarmonic(
            f"Laplacian coefficient residual {resid:.3e} exceeds "
            f"tolerance for coefficient scale {scale:.3e}")


class HarmonicPolynomial:
    """Complex-coefficient polynomial with identically zero Laplacian.

    Parameters
    ----------
    dimension : int
        Number of variables, >= 2.
    terms : dict
        Map from exponent tuple (length ``dimension``) to complex coefficient.

    Construction validates the exponents and the symbolic Laplacian;
    coefficients whose Laplacian exceeds ``HARMONICITY_TOL`` relative to the
    coefficient scale raise :class:`NonHarmonic`.  ``validate=False`` takes
    int-tuple keys and complex values as given, dropping zero coefficients.
    ``degree`` is fixed at construction.
    """

    def __init__(self, dimension: int, terms: dict, validate: bool = True):
        if dimension < 2:
            raise OutOfRange("dimension must be >= 2")
        self.dimension = int(dimension)
        self._evaluator = None
        if not validate:
            clean = {e: c for e, c in terms.items() if c != 0}
        else:
            clean = {}
            for e, c in terms.items():
                e = tuple(int(k) for k in e)
                if len(e) != dimension or any(k < 0 for k in e):
                    raise OutOfRange(f"bad exponent tuple {e}")
                c = complex(c)
                if c != 0:
                    clean[e] = clean.get(e, 0.0) + c
            lap = _laplacian_terms(clean, dimension).values()
            _check_residual(max(map(abs, lap), default=0.0),
                            max(map(abs, clean.values()), default=0.0))
        self.terms = clean
        self.degree = max(map(sum, clean), default=0)

    def laplacian_coefficients(self) -> dict:
        return _laplacian_terms(self.terms, self.dimension)

    def homogeneous_parts(self) -> dict:
        """Degree -> harmonic homogeneous component (each itself harmonic)."""
        parts: dict = {}
        for e, c in self.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {
            k: HarmonicPolynomial(self.dimension, t, validate=False)
            for k, t in sorted(parts.items())
        }

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if self._evaluator is None:
            self._evaluator = PolynomialEvaluator([self])
        vals = self._evaluator.values(pts)[:, 0]
        return vals[0] if single else vals

    def to_json(self) -> str:
        return json.dumps({
            "n": self.dimension,
            "terms": [
                {"exp": list(e), "re": c.real, "im": c.imag}
                for e, c in sorted(self.terms.items())
            ],
        })

    @classmethod
    def from_json(cls, text: str) -> "HarmonicPolynomial":
        data = json.loads(text)
        terms = {tuple(t["exp"]): complex(t["re"], t["im"]) for t in data["terms"]}
        return cls(data["n"], terms)

    def __repr__(self):
        return (f"HarmonicPolynomial(n={self.dimension}, degree={self.degree}, "
                f"terms={len(self.terms)})")


class PolynomialEvaluator:
    """Vectorized evaluation of a batch of same-dimension polynomials.

    The basis is every monomial of degree <= the batch's largest degree, in
    (degree, lex) order, built by one slice product per (degree, axis) (see
    ``_graded``); a sparse input of degree D costs C(D + n, n) rows.
    ``values(points)`` returns the (N_points, N_polys) complex matrix from
    one real basis-matrix product per chunk of points, a chunk holding at
    most ``CHUNK`` basis entries (one point at least).
    """

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise OutOfRange("empty polynomial batch")
        n = self.dimension = polys[0].dimension
        if any(p.dimension != n for p in polys):
            raise OutOfRange("mixed dimensions in polynomial batch")
        # the degree the batch's rules are sized from
        self.degree = max(p.degree for p in polys)
        self.exponents, self._steps, index = _graded(n, self.degree)
        coeffs = np.zeros((len(index), len(polys)), dtype=complex)
        for j, p in enumerate(polys):
            coeffs[[index[e] for e in p.terms], j] = list(p.terms.values())
        self.coeffs = coeffs
        # (M, 2P) real view, re and im interleaved: products read as complex
        self._reim = coeffs.view(float)

    def _basis(self, pts: np.ndarray) -> np.ndarray:
        """(M, N) monomial values at the (N, n) points, one row per monomial."""
        basis = np.empty((len(self.exponents), pts.shape[0]))
        basis[0] = 1.0
        cols = np.ascontiguousarray(pts.T)
        for lo, parent, k, axis in self._steps:
            np.multiply(basis[parent:parent + k], cols[axis],
                        out=basis[lo:lo + k])
        return basis

    def _evaluate(self, points) -> np.ndarray:
        """(N, 2P) real array: re and im of every polynomial, interleaved."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise OutOfRange("points must be an (N, n) array")
        # a spare row: BLAS sums a one-row product in another order, so a
        # lone point is evaluated as a repeated pair, bits as in any chunk
        out = np.empty((pts.shape[0] + 1, self._reim.shape[1]))
        step = max(1, CHUNK // len(self.exponents))
        for lo in range(0, pts.shape[0], step):
            block = pts[lo:lo + step]
            if len(block) == 1:
                block = np.repeat(block, 2, axis=0)
            np.matmul(self._basis(block).T, self._reim,
                      out=out[lo:lo + len(block)])
        return out[:-1]

    def values(self, points) -> np.ndarray:
        return self._evaluate(points).view(complex)

    def squared_values(self, points) -> np.ndarray:
        sq = self._evaluate(points)
        sq *= sq
        return sq[:, 0::2] + sq[:, 1::2]


def random_harmonic_polynomials(n: int, max_degree: int, seeds) -> list:
    """Random harmonic polynomials of degree <= max_degree, one per seed,
    each deterministic in its seed whatever the batch.

    Dense standard complex-normal coefficients are drawn for every monomial
    and each homogeneous slice h is replaced by its harmonic part
    h - T solve(L T, L h), one solve per degree for the whole batch; the
    constructor's gate then runs as max |L h| per polynomial.
    """
    seeds = list(seeds)
    if n < 2 or max_degree < 0 or not seeds:
        raise OutOfRange("need n >= 2, max_degree >= 0 and a seed")
    # complex products: their bits do not depend on the batch size (real
    # ones on 2P columns do), but BLAS takes another path for one right-hand
    # side, so a lone polynomial is solved as a repeated pair
    cols = seeds * 2 if len(seeds) == 1 else seeds
    monos = list(_graded(n, max_degree)[2])
    h = np.stack([np.random.default_rng(s).standard_normal(2 * len(monos))
                  .view(complex) for s in cols], axis=1)
    resid = np.zeros(len(cols))
    lo = 0
    for degree in range(max_degree + 1):
        _, lap, times, mat = _degree_maps(n, degree)
        hi = lo + times.shape[0]
        if degree >= 2:
            h[lo:hi] -= times @ np.linalg.solve(mat, lap @ h[lo:hi])
            resid = np.maximum(resid, np.abs(lap @ h[lo:hi]).max(axis=0))
        lo = hi
    scale = np.abs(h).max(axis=0)
    worst = np.argmax(resid / np.maximum(scale, 1.0))
    _check_residual(resid[worst], scale[worst])
    return [HarmonicPolynomial(n, dict(zip(monos, c)), validate=False)
            for c in h.T.tolist()[:len(seeds)]]


def random_harmonic_polynomial(n: int, max_degree: int, seed: int) -> HarmonicPolynomial:
    """Random harmonic polynomial of degree <= max_degree, deterministic in
    seed: the batch of one of :func:`random_harmonic_polynomials`."""
    return random_harmonic_polynomials(n, max_degree, [seed])[0]


def holomorphic_polynomial(coeffs) -> HarmonicPolynomial:
    """Planar harmonic polynomial sum_k c_k (y1 + i y2)^k from z-coefficients."""
    terms: dict = {}
    for k, c in enumerate(coeffs):
        c = complex(c)
        if c == 0:
            continue
        for j in range(k + 1):
            e = (k - j, j)
            terms[e] = terms.get(e, 0.0) + c * math.comb(k, j) * (1j ** j)
    return HarmonicPolynomial(2, terms)


class KelvinFunction:
    """Kelvin transform f*(y) = (rho/|y-a|)^(n-2) * conj(f(phi(y))).

    Harmonic wherever f is harmonic on the image of the domain; for n = 2 the
    prefactor is identically one and the transform reduces to the conjugated
    composition with the inversion.
    """

    def __init__(self, base, inversion: InversionData):
        self.base = base
        self.inversion = inversion
        self.dimension = inversion.dimension

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        image = inversion_map(self.inversion, pts)
        vals = np.conj(np.asarray(self.base(image), dtype=complex))
        n = self.dimension
        if n != 2:
            d = pts - self.inversion.a
            dist2 = np.einsum("ij,ij->i", d, d)
            vals = vals * (self.inversion.rho2 / dist2) ** ((n - 2) / 2.0)
        return vals[0] if single else vals


def _stencil_values(f, y: np.ndarray, h: float, order4: bool):
    n = y.size
    pts = [y]
    for k in range(n):
        step = np.zeros(n)
        step[k] = h
        pts += [y + step, y - step]
        if order4:
            pts += [y + 2 * step, y - 2 * step]
    try:
        vals = np.asarray(f(np.array(pts)), dtype=complex)
    except SingularPoint as exc:
        raise StencilOutOfDomain(str(exc)) from exc
    return vals


def laplacian_residual(f, y, h: float) -> float:
    """|sum_k (f(y+h e_k) + f(y-h e_k) - 2 f(y))/h^2|, the raw FD Laplacian.

    Zero (up to rounding) for harmonic polynomials of degree <= 3; for smooth
    harmonic functions it equals O(h^2) times the local fourth-derivative
    scale, so it detects a genuinely nonzero Laplacian at any fixed h.
    """
    if h <= 0:
        raise OutOfRange("h must be positive")
    y = np.asarray(y, dtype=float)
    vals = _stencil_values(f, y, h, order4=False)
    center = vals[0]
    acc = 0.0 + 0.0j
    for k in range(y.size):
        acc += vals[1 + 2 * k] + vals[2 + 2 * k] - 2 * center
    return float(abs(acc)) / (h * h)


def harmonicity_defect(f, y, h: float = 1e-3) -> float:
    """FD Laplacian residual normalized by the local function scale.

    The scale is max(1, |f(y)|, sum_k |delta^4_k f|/h^4): the per-axis fourth
    central differences measure the same local derivative magnitude that
    drives the O(h^2) truncation of the Laplacian stencil, so a harmonic
    function scores ~h^2/12 regardless of its degree, while any function with
    a genuine Laplacian scores >> h^2.
    """
    if h <= 0:
        raise OutOfRange("h must be positive")
    y = np.asarray(y, dtype=float)
    vals = _stencil_values(f, y, h, order4=True)
    center = vals[0]
    lap = 0.0 + 0.0j
    fourth = 0.0
    for k in range(y.size):
        p1, m1, p2, m2 = vals[1 + 4 * k:5 + 4 * k]
        lap += p1 + m1 - 2 * center
        fourth += abs(p2 - 4 * p1 + 6 * center - 4 * m1 + m2)
    residual = abs(lap) / (h * h)
    scale = max(1.0, abs(center), fourth / h ** 4)
    return float(residual / scale)
