"""Correlated-sphere geometry and three-spheres inequality verification.

The package constructs the correlated family of balls inside the unit ball,
the orthogonal inversion that renders their images concentric, and the
weighted L^2 machinery needed to verify the associated three-spheres and
three-balls interpolation inequalities against synthesized harmonic
polynomials, with deterministic quadrature and finite-difference oracles.
"""

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
    NormValue,
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
