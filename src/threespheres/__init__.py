"""Correlated-sphere geometry and three-spheres inequality verification.

The package constructs the correlated family of balls inside the unit ball,
the orthogonal inversion that renders their images concentric, and the
weighted L^2 machinery needed to verify the associated three-spheres and
three-balls interpolation inequalities against synthesized harmonic
polynomials, with deterministic quadrature and finite-difference oracles.
"""

import ctypes
import os

from .errors import (
    BetaOutOfRange,
    ConcentricInput,
    ConfigError,
    ConstraintViolated,
    DegenerateLog,
    DeltaOutOfRange,
    NoRealRoot,
    NonHarmonic,
    NonpositiveL,
    NonpositivePhi,
    OutOfRange,
    PreconditionViolated,
    RuleDimensionMismatch,
    SingularPoint,
    StencilOutOfDomain,
    ThreeSpheresError,
    TouchingBalls,
    UnderResolved,
)
from .geometry import (
    Ball,
    CorrelatedFamily,
    ExponentRecord,
    InversionData,
    correlated_radius_general,
    correlation_check,
    correlation_constant,
    delta0,
    inversion_map,
    solve_inversion_center,
    sphere_image_check,
)
from .harmonic import (
    HarmonicPolynomial,
    KelvinFunction,
    PolynomialEvaluator,
    harmonicity_defect,
    holomorphic_polynomial,
    laplacian_residual,
    random_harmonic_polynomial,
)
from .quadrature import (
    BallRule,
    SphereRule,
    ball_integral,
    ball_volume,
    l2_ball_norm,
    l2_sphere_norm,
    normalized_average_A2,
    sphere_area,
    surface_integral,
    weighted_ball_integral_mua,
    weighted_surface_integral_sa,
)
from .uniqueness import (
    CriterionTrace,
    GrowthEnvelope,
    SmallnessSequence,
    criterion_trace,
    delta_lower_bound_check,
    propagation_bound,
    rho,
)
from .verify import (
    ConvexityGridReport,
    InequalityReport,
    derivative_identity_check,
    embedded_bound_check,
    embedding_identity_check,
    gradient_identity_check,
    holomorphic_variant_check,
    log_convexity_check,
    three_balls_check,
    three_spheres_check,
    transfer_identity_check,
)

__version__ = "0.1.0"


def _pin_openblas() -> None:
    """Set every OpenBLAS library mapped into the process to one thread.

    The package computes on one Python thread: a second BLAS thread burns
    CPU without saving time, and its split dgemm sums change the last bits
    of n = 4 rows.  OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads,
    before this package, so setting the variable here would be too late.
    The package imports numpy only, so numpy's OpenBLAS is the one that
    matters; one that another library loads later keeps its own thread
    count, and the package never calls it."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
        libs = [ctypes.CDLL(p) for p in sorted(paths)
                if "openblas" in os.path.basename(p)]
    except OSError:  # no /proc, or a library not found again: no change
        return
    for lib in libs:
        for name in ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


_pin_openblas()
