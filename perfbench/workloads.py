"""Workload definitions: inputs derived from a workload seed, expected counts.

Standard library only, so the orchestrator can use it without importing the
package under test.  The default seed reproduces the acceptance configs of
``tests/test_acceptance.py`` (criteria 5 to 8), cut to fewer geometries so a
pass takes a few seconds.  The ``sweeps`` workload runs three sweep configs,
its parts, one after the other in each pass.

Across seeds the benchmark varies what does not change the amount of work:
the polynomial corpus and, for ``api_scalar``, the direction of every
geometry.  The radii and centre distances of the sweep geometries stay those
of the acceptance geometry seed, because they size the quadrature rules: on
20 geometries, the node count of the sphere sweep spreads by 24 % (quartile
distance over median) between geometry seeds, which no timing bound survives.
"""

from __future__ import annotations

DEFAULT_SEED = 0
WORKLOADS = ("sweeps", "api_scalar")
SWEEP_PARTS = ("sweep_spheres", "sweep_balls", "sweep_mc4")
# parts whose deterministic rows the oracle recomputes
ORACLE_PARTS = ("sweep_spheres", "sweep_balls")

# acceptance seeds (tests/test_acceptance.py)
CORPUS_SEED = 7
GEOMETRY_SEED = 11
C5_GEOMETRY_SEED = 505
C6_GEOMETRY_SEED = 606
BALL_GEOMETRY_SEED = 808

# sizes: the acceptance configs use 20 geometries (sweeps) and 10 (criteria
# 5 and 6); these prefixes of the same geometry lists keep each pass short
SPHERES = {"count": 100, "geometries": 4, "t_count": 10}
BALLS = {"count": 100, "geometries": 2, "lambdas": [0.3, 0.6, 0.9]}
MC4 = {"count": 20, "geometries": 2, "t_count": 5, "mc_samples": 20_000}
API = {"c5_geometries": 4, "c6_geometries": 5, "c6_polys": 10,
       "ball_geometries": 2, "ball_polys": 1, "trace_entries": 5000}

# relative agreement demanded of deterministic rows (README numerical
# policy): inequalities 1e-9, transfer identity 1e-8, FD identities 1e-5,
# embedding identity 1e-6
TOLERANCES = {
    "transfer_identity_eq22": 1e-8,
    "gradient_identity_eq2": 1e-5,
    "gradient_identity_eq3": 1e-5,
    "derivative_identity_eq5": 1e-5,
    "derivative_identity_eq13": 1e-5,
    "embedding_identity_eq30_squared": 1e-6,
}
INEQUALITY_TOL = 1e-9

# smallest scale the package's finite-difference identity checks compare on
# (verify: scale_floor = 1e-3 * max(1, |surface integral|)); rows of the
# constant function have both sides at rounding level, which no relative
# test of the sides alone can compare
FD_SCALE_FLOOR = 1e-3


def tolerance(name: str) -> float:
    return TOLERANCES.get(name, INEQUALITY_TOL)


def scale_floor(name: str) -> float:
    """Lower bound of the scale a row of check ``name`` is compared on."""
    if name.startswith(("gradient_identity", "derivative_identity")):
        return FD_SCALE_FLOOR
    return 0.0


def corpus_seed(seed: int) -> int:
    return CORPUS_SEED + seed


def sweep_config(workload: str, seed: int) -> dict:
    """The ``threespheres verify`` config of one part of ``sweeps``."""
    corpus = {"max_degree": 8, "seed": corpus_seed(seed)}
    if workload == "sweep_spheres":
        return {"dimensions": [2, 3],
                "corpus": dict(corpus, count=SPHERES["count"]),
                "geometry": {"count": SPHERES["geometries"],
                             "seed": GEOMETRY_SEED,
                             "t_count": SPHERES["t_count"]},
                "checks": ["three_spheres", "transfer_identity"]}
    if workload == "sweep_balls":
        return {"dimensions": [2, 3],
                "corpus": dict(corpus, count=BALLS["count"]),
                "geometry": {"count": BALLS["geometries"],
                             "seed": GEOMETRY_SEED, "t_count": 2,
                             "lambdas": BALLS["lambdas"]},
                "checks": ["three_balls", "embedded_bound"]}
    if workload == "sweep_mc4":
        return {"dimensions": [4],
                "corpus": dict(corpus, count=MC4["count"]),
                "geometry": {"count": MC4["geometries"],
                             "seed": GEOMETRY_SEED,
                             "t_count": MC4["t_count"]},
                "checks": ["three_spheres", "transfer_identity"],
                "mc_samples": MC4["mc_samples"]}
    raise ValueError(f"not a sweep part: {workload}")


def expected_counts(workload: str) -> dict:
    """Report rows per check name of one sweep part or of ``api_scalar`` in
    one pass; the same for every seed."""
    if workload == "sweep_spheres":
        per = 2 * SPHERES["count"] * SPHERES["geometries"] * SPHERES["t_count"]
        return {"three_spheres_eq24": per, "transfer_identity_eq22": per}
    if workload == "sweep_balls":
        base = 2 * BALLS["count"] * BALLS["geometries"]
        lam = base * len(BALLS["lambdas"])
        return {"three_balls_eq27": base, "embedded_bound_eq29": lam,
                "embedded_bound_eq36": lam, "embedded_bound_eq37": lam}
    if workload == "sweep_mc4":
        per = MC4["count"] * MC4["geometries"] * MC4["t_count"]
        return {"three_spheres_eq24": per, "transfer_identity_eq22": per}
    c5 = 2 * 5 * API["c5_geometries"]
    c6 = 2 * API["c6_polys"] * API["c6_geometries"]
    balls = 2 * API["ball_polys"] * API["ball_geometries"]
    return {"gradient_identity_eq2": c5, "gradient_identity_eq3": c5,
            "derivative_identity_eq5": c5, "derivative_identity_eq13": c5,
            "transfer_identity_eq22": c6, "three_spheres_eq24": c6,
            "three_balls_eq27": balls, "embedded_bound_eq29": balls,
            "embedded_bound_eq36": balls, "embedded_bound_eq37": balls,
            "embedding_identity_eq30_squared": 1, "criterion_trace": 1}
