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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstraintViolated,
    NonpositivePhi,
    OutOfRange,
)
from .geometry import CorrelatedFamily, delta0
from .verify import InequalityReport, certificate37, upper_report

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
    """Monotone increasing growth bound on [0, infinity), made by one of
    the kinds ``power`` (c * r^p), ``exp_power`` (c * exp(r^p)) and ``table``
    (monotone samples with linear interpolation, constant beyond the ends).
    """

    def __init__(self, fn):
        self._fn = fn

    @classmethod
    def power(cls, p: float, c: float = 1.0) -> "GrowthEnvelope":
        if not (0 < p < math.inf and 0 < c < math.inf):
            raise OutOfRange("power envelope needs finite p > 0 and c > 0")
        return cls(lambda r: c * r ** p)

    @classmethod
    def exp_power(cls, p: float, c: float = 1.0) -> "GrowthEnvelope":
        if not (0 < p < math.inf and 0 < c < math.inf):
            raise OutOfRange("exp_power envelope needs finite p > 0 and "
                             "c > 0")
        return cls(lambda r: c * math.exp(r ** p))

    @classmethod
    def table(cls, radii, values) -> "GrowthEnvelope":
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
            raise OutOfRange("table envelope needs matching one-dimensional "
                             "arrays, length >= 2")
        if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(values))):
            raise OutOfRange("table radii and values must be finite")
        if np.any(np.diff(radii) <= 0):
            raise OutOfRange("table radii must be strictly increasing")
        if np.any(np.diff(values) < 0):
            raise OutOfRange("table values must be monotone increasing")
        return cls(lambda r: float(np.interp(r, radii, values)))

    @classmethod
    def from_spec(cls, spec: dict) -> "GrowthEnvelope":
        """The envelope a JSON object describes: ``kind`` and the numbers
        ``p`` (and optionally ``c``) or the arrays ``r`` and ``phi``."""
        if not isinstance(spec, dict):
            raise OutOfRange("envelope spec must be a JSON object")
        kind = spec.get("kind")
        make = {"power": cls.power, "exp_power": cls.exp_power,
                "table": cls.table}.get(kind)
        if make is None:
            raise OutOfRange(f"unknown envelope kind {kind!r}")
        try:
            if kind == "table":
                args = [np.asarray(spec[k], dtype=float) for k in ("r", "phi")]
            else:
                args = [float(spec["p"]), float(spec.get("c", 1.0))]
        except KeyError as exc:
            raise OutOfRange(f"{kind} envelope needs key {exc}") from None
        except (TypeError, ValueError):
            raise OutOfRange(
                f"{kind} envelope parameters must be numbers") from None
        return make(*args)

    def __call__(self, r: float) -> float:
        """phi(r) at r >= 0, which must be a finite double (else OutOfRange)."""
        if not r >= 0:  # NaN too
            raise OutOfRange(f"growth envelope needs r >= 0, got r = {r}")
        try:
            value = float(self._fn(float(r)))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise OutOfRange(f"growth envelope at r = {r} is {value}, not a "
                             "finite double")
        return value


@dataclass(frozen=True)
class SmallnessSequence:
    """Entries (x_m, r_m, eps_m) with x_m a vector of dimension >= 2 and
    0 < 2 r_m <= |x_m| < inf enforced per entry.

    The criterion only ever consumes log eps_m, and the interesting decay
    rates (eps_m = exp(-m^3)) underflow double precision within a dozen
    entries; ``log_eps`` therefore stores the canonical value.  An entry
    gives eps, log eps or both: a None in ``log_eps`` (one value per entry,
    or no ``log_eps`` at all) takes log eps from eps, a None eps takes eps
    from log eps, and an entry that gives both must have |log eps - log_eps|
    <= 1e-12 max(1, |log_eps|).  ``x_norms`` keeps each |x_m|.
    """

    entries: tuple
    log_eps: tuple = None
    x_norms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.log_eps is not None and len(self.log_eps) != len(self.entries):
            raise ConstraintViolated(f"{len(self.log_eps)} log_eps values for "
                                     f"{len(self.entries)} entries")
        norm_entries, logs, x_norms = [], [], []
        for i, (x, r, eps) in enumerate(self.entries):
            log_eps = None if self.log_eps is None else self.log_eps[i]
            x = np.asarray(x, dtype=float)
            if x.ndim != 1 or x.size < 2:  # a non-finite x fails on |x|
                raise ConstraintViolated(f"entry {i}: x must be a vector of "
                                         f"dimension >= 2, got {x.tolist()!r}")
            x_norm = float(np.linalg.norm(x))
            if not 0 < 2 * float(r) <= x_norm < math.inf:
                raise ConstraintViolated(f"entry {i}: need 0 < 2 r <= |x| < "
                                         f"inf (r={r}, |x|={x_norm})")
            x_norms.append(x_norm)
            if eps is None and log_eps is None:
                raise ConstraintViolated(
                    f"entry {i}: 'eps' or 'log_eps' must be numbers")
            if eps is not None and not float(eps) > 0:
                raise ConstraintViolated(f"entry {i}: eps must be positive")
            own = None if eps is None else math.log(float(eps))
            logs.append(own if log_eps is None else float(log_eps))
            if not math.isfinite(logs[-1]):
                raise ConstraintViolated(f"entry {i}: log eps must be finite, "
                                         f"got {logs[-1]}")
            if own is not None and not (abs(own - logs[-1])
                                        <= 1e-12 * max(1.0, abs(logs[-1]))):
                raise ConstraintViolated(f"entry {i}: eps = {eps} contradicts "
                                         f"log_eps = {logs[-1]}")
            norm_entries.append((x, float(r), _careful_exp(logs[-1])
                                 if eps is None else float(eps)))
        object.__setattr__(self, "entries", tuple(norm_entries))
        object.__setattr__(self, "log_eps", tuple(logs))
        object.__setattr__(self, "x_norms", tuple(x_norms))

    def __len__(self):
        return len(self.entries)

    @classmethod
    def from_json(cls, text: str) -> "SmallnessSequence":
        """The sequence of a JSON array of entries {"x", "r", "eps",
        "log_eps"}; an absent or null "eps" or "log_eps" is a None of the
        constructor."""
        data = json.loads(text)
        if not isinstance(data, list):
            raise ConstraintViolated("sequence file must be a JSON array")
        entries, logs = [], []
        for i, d in enumerate(data):
            if not isinstance(d, dict):
                raise ConstraintViolated(f"entry {i}: must be a JSON object")
            if "x" not in d or "r" not in d:
                raise ConstraintViolated(f"entry {i}: needs keys 'x' and 'r'")
            try:
                x, r = np.asarray(d["x"], dtype=float), float(d["r"])
                eps, log_eps = (None if d.get(key) is None else float(d[key])
                                for key in ("eps", "log_eps"))
            except (TypeError, ValueError):
                raise ConstraintViolated(
                    f"entry {i}: 'x', 'r', 'eps' and 'log_eps' must be "
                    "numbers") from None
            logs.append(log_eps)
            entries.append((x, r, eps))
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
    ``window`` must be an integer >= 2 and ``threshold`` finite and >= 0.
    """
    if not (isinstance(window, (int, np.integer)) and window >= 2):
        raise OutOfRange(f"window must be an integer >= 2, got {window}")
    if not 0 <= threshold < math.inf:
        raise OutOfRange(f"threshold must be finite and >= 0, got {threshold}")
    # the sequence holds 0 < 2 r <= |x| < inf, so every rho is positive
    x_norms = np.array(seq.x_norms, dtype=float)
    radii = np.array([r for _x, r, _eps in seq.entries], dtype=float)
    rhos = 1.0 / np.log(2 * x_norms / radii)
    phis = np.array([phi(4 * x_norm) for x_norm in seq.x_norms], dtype=float)
    if np.any(phis <= 0):
        raise NonpositivePhi("variant B needs log phi; phi(4|x|) = "
                             f"{phis[phis <= 0][0]} <= 0")
    base = rhos / 100.0 * np.array(seq.log_eps, dtype=float)
    terms_a, terms_b = base + phis, base + np.log(phis)
    running_a = _running_verdicts(terms_a, window, threshold)
    running_b = _running_verdicts(terms_b, window, threshold)
    return CriterionTrace(
        x_norms=x_norms, radii=radii, rhos=rhos, terms_a=terms_a,
        terms_b=terms_b, running_a=running_a, running_b=running_b,
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
    for name, value in (("eps", eps), ("M", M)):
        if not 0 < value < math.inf:
            raise OutOfRange(f"{name} must be finite and positive, got {value}")
    rbar = float(CorrelatedFamily.create(x0, r0, R).radius(xbar_norm))
    d = delta0(x0n, r0, xbar_norm, R)
    return certificate37(n, lam, R, rbar, eps, M, d)


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
