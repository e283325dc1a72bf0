import math

import numpy as np
import pytest
from scipy.special import gammaln


def exact_sphere_monomial(n, exps):
    """int_{S^{n-1}} prod u_i^{e_i} ds, the classical Gamma-function formula."""
    if any(e % 2 for e in exps):
        return 0.0
    num = sum(gammaln((e + 1) / 2.0) for e in exps)
    den = gammaln((n + sum(exps)) / 2.0)
    return 2.0 * math.exp(num - den)


def exact_ball_monomial(n, exps, radius=1.0):
    """int_{B^n_radius} prod y_i^{e_i} dy (center at the origin)."""
    s = exact_sphere_monomial(n, exps)
    total = n + sum(exps)
    return s / total * radius ** total


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def analytic_degree(degree, kappa, digits=12, pole_order=4):
    """Axial degree of a Gauss-Legendre rule that resolves a density with a
    pole at annulus ratio kappa to ``digits`` digits, on top of polynomial
    exactness at ``degree`` (the package's rule before its Gauss rules of
    the actual weights): a pole of order p costs an N^p prefactor on the
    kappa^-N rate, so N log(kappa) >= digits log(10) + p log(N)."""
    if kappa <= 1.0:
        raise ValueError("annulus ratio must exceed 1")
    target = digits * math.log(10)
    lk = math.log(kappa)
    extra = target / lk
    for _ in range(3):
        extra = (target + pole_order * math.log(extra + degree + 8)) / lk
    extra = int(math.ceil(extra)) + 8
    return degree + ((extra + 3) // 4) * 4


def anisotropic_rule(n, degree, transverse):
    """Product rule on S^{n-1}, n >= 3, exact for the polynomials of degree
    <= ``degree`` whose degree across the first axis is <= ``transverse``:
    the package's first polar factor of ``degree`` times its S^{n-2} rule of
    ``transverse``."""
    from threespheres.quadrature import Slices, SphereRule, _gauss_jacobi

    across = SphereRule.product(n - 1, transverse)
    rule = SphereRule(n, "exact", degree, transverse=transverse, slices=Slices(
        *_gauss_jacobi(degree // 2 + 1, (n - 3) / 2), across.nodes,
        across.weights))
    # given as nodes, so every integrand takes the point path on it
    return SphereRule(n, "exact", degree, transverse=transverse,
                      given=(rule.nodes, rule.weights))


def analytic_sphere_rule(n, degree, kind, a_norm, center_norm, radius, R=1.0,
                         transverse=None, digits=15, isotropic=False):
    """Independent oracle for ``weighted_rules``: the plain product
    rule whose first axis takes :func:`analytic_degree` (pole allowance 12
    for the Kelvin weight, 4 otherwise) and whose S^{n-2} takes
    ``transverse`` (``degree`` by default, the first axis' degree when
    ``isotropic``).  Its weights integrate the weighted integrand itself."""
    from threespheres.quadrature import SphereRule

    kappa = (a_norm - center_norm) / radius
    axial = analytic_degree(degree, kappa, digits,
                            12 if kind == "kelvin" else 4)
    if isotropic or n == 2:
        return SphereRule.product(n, axial)
    return anisotropic_rule(n, axial,
                            degree if transverse is None else transverse)


def analytic_ball_rule(n, degree, distance, radius, transverse=None,
                       digits=15, isotropic=False):
    """Oracle for ``BallRule.weighted``: the angular rule of
    :func:`analytic_sphere_rule` on every shell, with the shell count of
    the package's rule, so both share the radial error."""
    from threespheres.quadrature import BallRule, _shell_count

    transverse = degree if transverse is None else transverse
    angular = analytic_sphere_rule(n, degree, "mu_a", distance, 0.0, radius,
                                   transverse=transverse, digits=digits,
                                   isotropic=isotropic)
    return BallRule(angular, _shell_count(n, transverse, distance / radius))


def weighted_rule(n, degree, kind, a_norm, center_norm, radius, R=1.0):
    """The one rule of ``weighted_rules`` for a single sphere."""
    from threespheres.quadrature import weighted_rules

    return weighted_rules(n, degree,
                          [(kind, a_norm, center_norm, radius, R)])[0]


def sweep_rows(cfg):
    """The rows of ``run_sweep(cfg)`` flattened from its groups, and its
    skip messages."""
    from threespheres.sweep import run_sweep
    from threespheres.verify import flat

    groups, skipped = run_sweep(cfg)
    return flat(groups), skipped


def integral_blocks(monkeypatch):
    """Nodes per integrand call, one list per call of ``verify.integrals``:
    each integral's integrand is wrapped to record the block it is given."""
    from threespheres import verify

    integrals, blocks = verify.integrals, []

    def recorded(fn, *args, **kwargs):
        sizes = []
        blocks.append(sizes)

        def spy(pts):
            sizes.append(len(pts))
            return fn(pts)

        return integrals(spy, *args, **kwargs)

    monkeypatch.setattr(verify, "integrals", recorded)
    return blocks
