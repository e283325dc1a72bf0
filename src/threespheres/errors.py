"""Exception types shared across the package, and its integer check."""

import math
from numbers import Real


class ThreeSpheresError(ValueError):
    """Base class for all domain errors raised by this package."""


class TouchingBalls(ThreeSpheresError):
    """Inner ball touches the ambient sphere; the inversion center degenerates."""


class ConcentricInput(ThreeSpheresError):
    """x = 0: no inversion is defined; use the concentric log-convexity path."""


class OutOfRange(ThreeSpheresError):
    """Parameter outside its admissible interval."""


class UnderResolved(OutOfRange):
    """Input the quadrature rules cannot resolve to their accuracy target."""


class SingularPoint(ThreeSpheresError):
    """Evaluation requested at the inversion center."""


class DegenerateLog(ThreeSpheresError):
    """Logarithm argument <= 1 where a positive log is required."""


class NoRealRoot(ThreeSpheresError):
    """Correlation equation has no real radius (cannot occur for valid input)."""


class NonHarmonic(ThreeSpheresError):
    """Coefficients do not define a harmonic polynomial."""


class StencilOutOfDomain(ThreeSpheresError):
    """Finite-difference stencil leaves the function's domain."""


class RuleDimensionMismatch(ThreeSpheresError):
    """Quadrature rule dimension does not match the integration domain."""


class NonpositiveL(ThreeSpheresError):
    """Log-convexity check requires strictly positive, finite values."""


class BetaOutOfRange(ThreeSpheresError):
    """Interpolation exponent outside (0, alpha]."""


class DeltaOutOfRange(ThreeSpheresError):
    """Three-balls exponent outside (0, delta0]."""


class PreconditionViolated(ThreeSpheresError):
    """Geometric precondition of a bound is not met."""


class ConstraintViolated(ThreeSpheresError):
    """Smallness-sequence constraint 0 < 2r <= |x| violated."""


class NonpositivePhi(ThreeSpheresError):
    """Growth envelope must be positive where its logarithm is taken."""


class ConfigError(ThreeSpheresError):
    """Sweep configuration file is invalid."""


def as_integer(value, name: str, least: int = 0) -> int:
    """``value`` as an int if it is a whole number >= ``least`` (4.0 is 4),
    else :class:`OutOfRange` naming ``name``."""
    if not (isinstance(value, Real) and least <= value < math.inf
            and value % 1 == 0):
        raise OutOfRange(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
