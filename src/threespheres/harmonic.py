"""Exact harmonic polynomials, the Kelvin transform, and harmonicity oracles.

Polynomials are stored as sparse multi-index -> complex coefficient maps.
Random test functions are produced by drawing dense random coefficients and
projecting each homogeneous component onto its harmonic part: p = h + |y|^2 q
where q solves the linear system Laplacian(|y|^2 q) = Laplacian(p).  For a
fixed (n, degree) that projection is one linear map, built once from dense
matrices of the Laplacian L and the |y|^2 product T, and the harmonicity gate
is the matrix product max |L h|; polynomials given by their terms are gated
by the symbolic Laplacian.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import product as _iproduct

import numpy as np

from .errors import NonHarmonic, OutOfRange, SingularPoint, StencilOutOfDomain
from .geometry import InversionData

__all__ = [
    "HarmonicPolynomial",
    "KelvinFunction",
    "PolynomialEvaluator",
    "harmonicity_defect",
    "holomorphic_polynomial",
    "laplacian_residual",
    "random_harmonic_polynomial",
]

HARMONICITY_TOL = 1e-13
# points per basis-matrix product of PolynomialEvaluator
CHUNK = 32768


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
def _monomials(n: int, degree: int) -> tuple:
    return tuple(e for e in _iproduct(range(degree + 1), repeat=n)
                 if sum(e) == degree)


@lru_cache(maxsize=None)
def _degree_maps(n: int, degree: int):
    """The degree-``degree`` monomials and the dense maps that depend only on
    (n, degree): the Laplacian L (degree -> degree - 2), the |y|^2 product T
    (degree - 2 -> degree) and the correction matrix L T."""
    monos, lower = _monomials(n, degree), _monomials(n, degree - 2)
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

    Construction validates the symbolic Laplacian; coefficients whose
    Laplacian exceeds ``HARMONICITY_TOL`` relative to the coefficient scale
    raise :class:`NonHarmonic`.
    """

    def __init__(self, dimension: int, terms: dict, validate: bool = True):
        if dimension < 2:
            raise OutOfRange("dimension must be >= 2")
        self.dimension = int(dimension)
        clean = {}
        for e, c in terms.items():
            e = tuple(int(k) for k in e)
            if len(e) != dimension or any(k < 0 for k in e):
                raise OutOfRange(f"bad exponent tuple {e}")
            c = complex(c)
            if c != 0:
                clean[e] = clean.get(e, 0.0) + c
        self.terms = clean
        self._evaluator = None
        if validate and clean:
            scale = max(abs(c) for c in clean.values())
            lap = _laplacian_terms(clean, dimension)
            _check_residual(max(map(abs, lap.values()), default=0.0), scale)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

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

    def __add__(self, other: "HarmonicPolynomial") -> "HarmonicPolynomial":
        if other.dimension != self.dimension:
            raise OutOfRange("dimension mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return HarmonicPolynomial(self.dimension, terms, validate=False)

    def scaled(self, factor: complex) -> "HarmonicPolynomial":
        return HarmonicPolynomial(
            self.dimension, {e: factor * c for e, c in self.terms.items()},
            validate=False)

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

    The monomials, closed downward (a missing parent gets zero coefficients)
    and sorted by degree, are each a parent monomial times one coordinate;
    ``values(points)`` returns the (N_points, N_polys) complex matrix from
    one real basis-matrix product per chunk of points.
    """

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise OutOfRange("empty polynomial batch")
        n = self.dimension = polys[0].dimension
        if any(p.dimension != n for p in polys):
            raise OutOfRange("mixed dimensions in polynomial batch")
        # every prefix e_1..e_{k-1}, then m <= e_k, then zeros, closing the
        # distinct exponents (a dense corpus shares them all)
        exps = {(0,) * n} | {e[:k] + (m,) + (0,) * (n - k - 1)
                             for e in set().union(*(p.terms for p in polys))
                             for k in range(n) for m in range(e[k] + 1)}
        exps = sorted(exps, key=lambda e: (sum(e), e))
        index = {e: i for i, e in enumerate(exps)}
        # basis row j is row parent(j) times coordinate axis(j), the parent
        # having one less in its last nonzero coordinate
        axes = [max(k for k in range(n) if e[k]) for e in exps[1:]]
        self._steps = [(index[e[:k] + (e[k] - 1,) + e[k + 1:]], k)
                       for e, k in zip(exps[1:], axes)]
        self.exponents = np.array(exps, dtype=np.int64)
        coeffs = np.zeros((len(exps), len(polys)), dtype=complex)
        for j, p in enumerate(polys):
            for e, c in p.terms.items():
                coeffs[index[e], j] = c
        self.coeffs = coeffs
        # (M, 2P) real view, re and im interleaved: products read as complex
        self._reim = coeffs.view(float)

    def _basis(self, pts: np.ndarray) -> np.ndarray:
        """(M, N) monomial values at the (N, n) points, one row per monomial."""
        basis = np.empty((len(self._steps) + 1, pts.shape[0]))
        basis[0] = 1.0
        for j, (parent, axis) in enumerate(self._steps, 1):
            np.multiply(basis[parent], pts[:, axis], out=basis[j])
        return basis

    def _evaluate(self, points) -> np.ndarray:
        """(N, 2P) real array: re and im of every polynomial, interleaved."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise OutOfRange("points must be an (N, n) array")
        # a spare row: BLAS sums a one-row product in another order, so a
        # lone point is evaluated as a repeated pair, bits as in any chunk
        out = np.empty((pts.shape[0] + 1, self._reim.shape[1]))
        for lo in range(0, pts.shape[0], CHUNK):
            block = pts[lo:lo + CHUNK]
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


def random_harmonic_polynomial(n: int, max_degree: int, seed: int) -> HarmonicPolynomial:
    """Random harmonic polynomial of degree <= max_degree, deterministic in seed.

    Dense standard complex-normal coefficients are drawn for every monomial
    and each homogeneous slice h is replaced by its harmonic part
    h - T solve(L T, L h); the constructor's gate then runs as max |L h|.
    """
    if n < 2 or max_degree < 0:
        raise OutOfRange("need n >= 2 and max_degree >= 0")
    rng = np.random.default_rng(seed)
    terms: dict = {}
    resid = scale = 0.0
    for degree in range(max_degree + 1):
        monos, lap, times, mat = _degree_maps(n, degree)
        h = rng.standard_normal(2 * len(monos)).view(complex)
        if degree >= 2:
            h -= times @ np.linalg.solve(mat, lap @ h)
            resid = max(resid, np.abs(lap @ h).max())
        scale = max(scale, np.abs(h).max())
        terms.update(zip(monos, h.tolist()))
    _check_residual(resid, scale)
    return HarmonicPolynomial(n, terms, validate=False)


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
        d = pts - self.inversion.a
        dist2 = np.einsum("ij,ij->i", d, d)
        if np.any(dist2 == 0.0):
            raise SingularPoint("Kelvin transform undefined at y = a")
        image = self.inversion.a + (self.inversion.rho2 / dist2)[:, None] * d
        vals = np.conj(np.asarray(self.base(image), dtype=complex))
        n = self.dimension
        if n != 2:
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
