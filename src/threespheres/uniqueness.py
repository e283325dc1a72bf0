"""Uniqueness-criterion evaluation and propagation-of-smallness certificates.

The criterion for entire harmonic functions reads: if A_2(x_m, r_m, u) <=
eps_m with 0 < 2 r_m <= |x_m| and the combined term

    rho_m / 100 * log eps_m  +  phi(4 |x_m|),        rho_m = 1/log(2|x_m|/r_m)

tends to -infinity, then u vanishes identically.  The source text displays
phi(4|x_m|) in the criterion but uses log phi(4|x_m|) in its final proof
display, so both variants are always evaluated side by side (term A: phi,
term B: log phi).  This module only ever reports whether a finite prefix is
consistent with divergence; it never asserts the limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolated,
    NonpositivePhi,
    OutOfRange,
)
from .geometry import correlated_radius_general, delta0
from .verify import InequalityReport, upper_report

__all__ = [
    "CriterionTrace",
    "GrowthEnvelope",
    "SmallnessSequence",
    "criterion_trace",
    "delta_lower_bound_check",
    "propagation_bound",
    "rho",
]

DEFAULT_WINDOW = 10
DEFAULT_THRESHOLD = 1e3

VERDICT_DIVERGES = "diverges to -inf over the given prefix"
VERDICT_DOES_NOT = "does not"
VERDICT_INCONCLUSIVE = "inconclusive"


def _careful_exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def rho(x_norm: float, r: float) -> float:
    """rho = 1/log(2|x|/r), positive under the constraint 0 < 2r <= |x|."""
    if not 0 < 2 * r <= x_norm:
        raise ConstraintViolated(f"need 0 < 2r <= |x|, got r={r}, |x|={x_norm}")
    return 1.0 / math.log(2 * x_norm / r)


class GrowthEnvelope:
    """Named monotone increasing growth bound on [0, infinity).

    Kinds: ``power`` (c * r^p), ``exp_power`` (c * exp(r^p)), and ``table``
    (monotone samples with linear interpolation, constant beyond the ends).
    """

    def __init__(self, kind: str, fn, params: dict):
        self.kind = kind
        self._fn = fn
        self.params = params

    @classmethod
    def power(cls, p: float, c: float = 1.0) -> "GrowthEnvelope":
        if p <= 0 or c <= 0:
            raise OutOfRange("power envelope needs p > 0 and c > 0")
        return cls("power", lambda r: c * r ** p, {"p": p, "c": c})

    @classmethod
    def exp_power(cls, p: float, c: float = 1.0) -> "GrowthEnvelope":
        if p <= 0 or c <= 0:
            raise OutOfRange("exp_power envelope needs p > 0 and c > 0")
        return cls("exp_power", lambda r: c * math.exp(r ** p), {"p": p, "c": c})

    @classmethod
    def table(cls, radii, values) -> "GrowthEnvelope":
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.size != values.size or radii.size < 2:
            raise OutOfRange("table envelope needs matching arrays, length >= 2")
        if np.any(np.diff(radii) <= 0):
            raise OutOfRange("table radii must be strictly increasing")
        if np.any(np.diff(values) < 0):
            raise OutOfRange("table values must be monotone increasing")
        fn = lambda r: float(np.interp(r, radii, values))
        return cls("table", fn, {"r": radii.tolist(), "phi": values.tolist()})

    @classmethod
    def from_spec(cls, spec: dict) -> "GrowthEnvelope":
        kind = spec.get("kind")
        if kind == "power":
            return cls.power(spec["p"], spec.get("c", 1.0))
        if kind == "exp_power":
            return cls.exp_power(spec["p"], spec.get("c", 1.0))
        if kind == "table":
            return cls.table(spec["r"], spec["phi"])
        raise OutOfRange(f"unknown envelope kind {kind!r}")

    def __call__(self, r: float) -> float:
        return float(self._fn(float(r)))


@dataclass(frozen=True)
class SmallnessSequence:
    """Entries (x_m, r_m, eps_m) with 0 < 2 r_m <= |x_m| enforced per entry.

    The criterion only ever consumes log eps_m, and the interesting decay
    rates (eps_m = exp(-m^3)) underflow double precision within a dozen
    entries; ``log_eps`` therefore stores the canonical value, and an entry
    may be built from log eps directly.
    """

    entries: tuple
    log_eps: tuple = None

    def __post_init__(self):
        norm_entries = []
        logs = []
        given = self.log_eps
        for i, (x, r, eps) in enumerate(self.entries):
            x = np.asarray(x, dtype=float)
            x_norm = float(np.linalg.norm(x))
            if not 0 < 2 * float(r) <= x_norm:
                raise ConstraintViolated(
                    f"entry {i}: need 0 < 2 r <= |x| (r={r}, |x|={x_norm})")
            if given is None:
                if not float(eps) > 0:
                    raise ConstraintViolated(f"entry {i}: eps must be positive")
                logs.append(math.log(float(eps)))
                norm_entries.append((x, float(r), float(eps)))
            else:
                logs.append(float(given[i]))
                norm_entries.append((x, float(r),
                                     float(eps) if eps is not None
                                     else _careful_exp(float(given[i]))))
        object.__setattr__(self, "entries", tuple(norm_entries))
        object.__setattr__(self, "log_eps", tuple(logs))

    def __len__(self):
        return len(self.entries)

    @classmethod
    def from_json(cls, text: str) -> "SmallnessSequence":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ConstraintViolated("sequence file must be a JSON array")
        entries = []
        logs = []
        for i, d in enumerate(data):
            if "x" not in d or "r" not in d:
                raise ConstraintViolated(f"entry {i}: needs keys 'x' and 'r'")
            if "log_eps" in d:
                logs.append(float(d["log_eps"]))
                entries.append((d["x"], d["r"], d.get("eps")))
            elif "eps" in d:
                eps = float(d["eps"])
                if not eps > 0:
                    raise ConstraintViolated(f"entry {i}: eps must be positive")
                logs.append(math.log(eps))
                entries.append((d["x"], d["r"], eps))
            else:
                raise ConstraintViolated(
                    f"entry {i}: needs either 'eps' or 'log_eps'")
        return cls(tuple(entries), tuple(logs))


@dataclass(frozen=True)
class CriterionTrace:
    """Per-entry criterion terms plus running and final trend verdicts."""

    x_norms: np.ndarray
    radii: np.ndarray
    rhos: np.ndarray
    terms_a: np.ndarray
    terms_b: np.ndarray
    running_a: tuple
    running_b: tuple
    verdict_a: str
    verdict_b: str
    window: int
    threshold: float

    def __len__(self):
        return self.x_norms.size


def _running_verdicts(terms: np.ndarray, window: int,
                      threshold: float) -> tuple:
    """The trend verdict of each prefix of ``terms``.  A prefix shorter than
    ``window`` is inconclusive; otherwise its last ``window`` terms either
    fall at every step (diverges if the last is below -``threshold``, else
    inconclusive) or do not.  A running count of the falling steps tests
    every window at once."""
    falls = np.concatenate([[0], np.cumsum(np.diff(terms) < 0)])
    end = np.arange(window - 1, terms.size)
    falling = falls[end] - falls[end - window + 1] == window - 1
    fallen = np.where(terms[end] < -threshold, VERDICT_DIVERGES,
                      VERDICT_INCONCLUSIVE)
    return ((VERDICT_INCONCLUSIVE,) * min(window - 1, terms.size)
            + tuple(np.where(falling, fallen, VERDICT_DOES_NOT).tolist()))


def criterion_trace(seq: SmallnessSequence, phi: GrowthEnvelope,
                    window: int = DEFAULT_WINDOW,
                    threshold: float = DEFAULT_THRESHOLD) -> CriterionTrace:
    """Evaluate both criterion variants over the sequence prefix.

    Variant A adds phi(4 |x_m|) as displayed in the criterion; variant B adds
    log phi(4 |x_m|) as used in the proof.  The verdict looks at the last
    ``window`` entries: strictly decreasing and below -``threshold`` reads as
    consistent with divergence.  An empty or short prefix is inconclusive.
    """
    if window < 2:
        raise OutOfRange("window must be >= 2")
    x_norms, radii, rhos, terms_a, terms_b = [], [], [], [], []
    for (x, r, _eps), log_eps in zip(seq.entries, seq.log_eps):
        x_norm = float(np.linalg.norm(x))
        rho_m = rho(x_norm, r)
        phi_val = phi(4 * x_norm)
        if phi_val <= 0:
            raise NonpositivePhi(
                f"variant B needs log phi; phi(4|x|) = {phi_val} <= 0")
        base = rho_m / 100.0 * log_eps
        x_norms.append(x_norm)
        radii.append(r)
        rhos.append(rho_m)
        terms_a.append(base + phi_val)
        terms_b.append(base + math.log(phi_val))
    terms_a = np.asarray(terms_a)
    terms_b = np.asarray(terms_b)
    running_a = _running_verdicts(terms_a, window, threshold)
    running_b = _running_verdicts(terms_b, window, threshold)
    return CriterionTrace(
        x_norms=np.asarray(x_norms), radii=np.asarray(radii),
        rhos=np.asarray(rhos), terms_a=terms_a, terms_b=terms_b,
        running_a=running_a, running_b=running_b,
        verdict_a=running_a[-1] if running_a else VERDICT_INCONCLUSIVE,
        verdict_b=running_b[-1] if running_b else VERDICT_INCONCLUSIVE,
        window=window, threshold=threshold)


def propagation_bound(x0, r0: float, xbar_norm: float, lam: float, R: float,
                      eps: float, M: float) -> float:
    """Certified bound on A_2(xbar, lam*rbar, u) from A_2(x0,r0,u) <= eps and
    A_2(R,u) <= M:

        sqrt(405)/(1-lam^2)^{5/4} (R/rbar)^{(n+5)/2} eps^delta M^{1-delta}

    with delta = delta_0 (the scaled formula) of the correlated pair.  The
    hypotheses on u are the caller's responsibility; this evaluates the
    certificate only.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    x0n = float(np.linalg.norm(x0))
    if x0n < R / 2 - 1e-12:
        raise OutOfRange(f"|x0| = {x0n} < R/2: outside the bound's hypotheses")
    if not 0 < lam < 1:
        raise OutOfRange("lambda must lie in (0, 1)")
    if eps <= 0 or M <= 0:
        raise OutOfRange("eps and M must be positive")
    rbar = correlated_radius_general(x0n, r0, xbar_norm, R)
    d = delta0(x0n, r0, xbar_norm, R)
    prefactor = (math.sqrt(405.0) / (1 - lam * lam) ** 1.25
                 * (R / rbar) ** ((n + 5) / 2))
    return prefactor * eps ** d * M ** (1 - d)


def delta_lower_bound_check(x_norm: float, r: float,
                            variant: str = "scaled") -> InequalityReport:
    """Check the proof-step relation delta_0 >= rho/100 for the setup
    R = 2|x|, xbar = x/3, x0 = x.

    Returns an upper-mode report with lhs = rho/100 and rhs = delta_0
    (pass iff the relation holds); ``variant`` selects the delta_0 formula.
    """
    rho_val = rho(x_norm, r)
    d0 = delta0(x_norm, r, x_norm / 3.0, 2.0 * x_norm, variant=variant)
    return upper_report(f"delta_lower_bound_{variant}", rho_val / 100.0, d0,
                        tolerance=0.0, exponent=d0, n=None, x_norm=x_norm,
                        r=float(r))
