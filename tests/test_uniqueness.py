import json
import math

import numpy as np
import pytest

from threespheres.errors import (
    ConstraintViolated,
    DegenerateLog,
    NonpositivePhi,
    OutOfRange,
)
from threespheres.geometry import Ball, correlated_radius_general, delta0
from threespheres.harmonic import random_harmonic_polynomial
from threespheres.quadrature import BallRule, SphereRule, normalized_average_A2
from threespheres.uniqueness import (
    VERDICT_DIVERGES,
    VERDICT_DOES_NOT,
    VERDICT_INCONCLUSIVE,
    GrowthEnvelope,
    SmallnessSequence,
    _running_verdicts,
    criterion_trace,
    delta_lower_bound_check,
    propagation_bound,
    rho,
)


def test_rho_values_and_constraint():
    assert abs(rho(2.0, 1.0) - 1 / math.log(4)) < 1e-15
    assert abs(rho(2.0, 1.0) - 0.7213475204444817) < 1e-12
    assert abs(rho(10.0, 1.0) - 1 / math.log(20)) < 1e-15
    with pytest.raises(ConstraintViolated):
        rho(1.0, 1.0)
    with pytest.raises(ConstraintViolated):
        rho(1.0, 0.0)


def test_rho_monotonicity_grid():
    xs = np.linspace(2.0, 50.0, 25)
    rs = np.linspace(0.1, 1.0, 10)
    for r in rs:
        vals = [rho(x, r) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in |x|
    for x in xs:
        vals = [rho(x, r) for r in rs if 2 * r <= x]
        assert all(a < b for a, b in zip(vals, vals[1:]))  # increasing in r


def cubic_sequence(ms):
    return SmallnessSequence(
        tuple(([float(m), 0.0], m / 2.0, None) for m in ms),
        tuple(-float(m) ** 3 for m in ms))


def test_criterion_trace_cubic_decay_terms():
    ms = list(range(1, 21))
    trace = criterion_trace(cubic_sequence(ms), GrowthEnvelope.power(2.0))
    rho_const = 1 / math.log(4)
    for i, m in enumerate(ms):
        expected_a = -m ** 3 * rho_const / 100.0 + (4 * m) ** 2
        assert abs(trace.terms_a[i] - expected_a) < 1e-9 * max(1, abs(expected_a))
        expected_b = -m ** 3 * rho_const / 100.0 + math.log((4 * m) ** 2)
        assert abs(trace.terms_b[i] - expected_b) < 1e-12 * max(1, abs(expected_b))
    # over the first 20 entries the log-phi variant decreases strictly past
    # m = 6 while the phi variant is still climbing (it only turns over near
    # m ~ 1.5e3); divergence of variant A is visible only on longer prefixes
    diffs_b = np.diff(trace.terms_b[5:])
    assert np.all(diffs_b < 0)
    diffs_a = np.diff(trace.terms_a)
    assert np.all(diffs_a > 0)
    assert trace.verdict_a == VERDICT_DOES_NOT
    assert trace.verdict_b == VERDICT_INCONCLUSIVE  # decreasing, above -1e3


def test_criterion_trace_cubic_decay_long_prefix_diverges():
    ms = list(range(1, 21)) + [int(1500 * 1.2 ** k) for k in range(12)]
    trace = criterion_trace(cubic_sequence(ms), GrowthEnvelope.power(2.0))
    assert trace.verdict_a == VERDICT_DIVERGES
    assert trace.verdict_b == VERDICT_DIVERGES
    # variant A <= variant B eventually once phi >= e
    tail = slice(-10, None)
    assert np.all(trace.terms_a[tail] >= trace.terms_b[tail])


def test_criterion_trace_linear_decay_does_not():
    ms = list(range(1, 31))
    seq = SmallnessSequence(tuple(([float(m), 0.0], m / 2.0, None) for m in ms),
                            tuple(-float(m) for m in ms))
    trace = criterion_trace(seq, GrowthEnvelope.power(2.0))
    assert trace.verdict_a == VERDICT_DOES_NOT
    assert trace.verdict_b == VERDICT_DOES_NOT


def test_criterion_trace_empty_is_inconclusive():
    trace = criterion_trace(SmallnessSequence((), ()), GrowthEnvelope.power(2.0))
    assert len(trace) == 0
    assert trace.verdict_a == VERDICT_INCONCLUSIVE
    assert trace.verdict_b == VERDICT_INCONCLUSIVE


def trend_oracle(terms, window, threshold):
    """The trend verdict of one prefix, straight from its definition."""
    if terms.size < window:
        return VERDICT_INCONCLUSIVE
    tail = terms[-window:]
    if not np.all(np.diff(tail) < 0):
        return VERDICT_DOES_NOT
    return VERDICT_DIVERGES if tail[-1] < -threshold else VERDICT_INCONCLUSIVE


def test_running_verdicts_match_per_prefix_rule():
    threshold = 3.0
    cases = [(np.array([]), 3),  # m = 0
             (np.array([-9.0, -10.0]), 3),  # m < window
             (np.array([0.0, -5.0, -5.0, -6.0, -7.0]), 2),  # a tie
             (np.array([0.0, -1.0, -2.0, -3.0]), 4),  # last term == -threshold
             (np.array([0.0, -1.0, -2.0, -3.0, -4.0]), 4)]
    rng = np.random.default_rng(9)
    for _ in range(300):
        # integer steps: ties, rises, and terms exactly at -threshold
        steps = rng.choice([-2.0, -1.0, 0.0, 1.0], size=rng.integers(0, 30))
        cases.append((np.cumsum(steps), int(rng.integers(2, 6))))
    seen = set()
    for terms, window in cases:
        running = _running_verdicts(terms, window, threshold)
        want = tuple(trend_oracle(terms[:i + 1], window, threshold)
                     for i in range(terms.size))
        assert running == want
        seen.update(want)
    assert seen == {VERDICT_DIVERGES, VERDICT_DOES_NOT, VERDICT_INCONCLUSIVE}
    # criterion_trace: running verdicts of its terms, the final one last
    ms = list(range(1, 21)) + [int(1500 * 1.2 ** k) for k in range(12)]
    trace = criterion_trace(cubic_sequence(ms), GrowthEnvelope.power(2.0),
                            window=5)
    for terms, running, verdict in (
            (trace.terms_a, trace.running_a, trace.verdict_a),
            (trace.terms_b, trace.running_b, trace.verdict_b)):
        assert running == tuple(trend_oracle(terms[:i + 1], 5, 1e3)
                                for i in range(terms.size))
        assert verdict == running[-1]


def test_envelopes():
    p = GrowthEnvelope.power(2.0, 3.0)
    assert abs(p(2.0) - 12.0) < 1e-15
    e = GrowthEnvelope.exp_power(1.5)
    assert abs(e(4.0) - math.exp(8.0)) < 1e-9
    t = GrowthEnvelope.table([0.0, 1.0, 2.0], [0.5, 1.0, 4.0])
    assert abs(t(1.5) - 2.5) < 1e-15
    with pytest.raises(OutOfRange):
        GrowthEnvelope.power(-1.0)
    with pytest.raises(OutOfRange):
        GrowthEnvelope.table([0.0, 1.0], [2.0, 1.0])  # not monotone
    spec = GrowthEnvelope.from_spec({"kind": "power", "p": 2, "c": 1})
    assert abs(spec(3.0) - 9.0) < 1e-15


def test_nonpositive_phi_raises():
    tab = GrowthEnvelope.table([0.0, 100.0], [-5.0, 10.0])
    seq = SmallnessSequence((([2.0, 0.0], 1.0, 0.5),))
    with pytest.raises(NonpositivePhi):
        criterion_trace(seq, tab)


def test_sequence_validation():
    with pytest.raises(ConstraintViolated):
        SmallnessSequence((([1.0, 0.0], 1.0, 0.5),))  # 2r > |x|
    with pytest.raises(ConstraintViolated):
        SmallnessSequence((([2.0, 0.0], 1.0, 0.0),))  # eps <= 0
    seq = SmallnessSequence.from_json(json.dumps([
        {"x": [2.0, 0.0], "r": 1.0, "eps": 0.25},
        {"x": [4.0, 0.0], "r": 1.0, "log_eps": -100.0},
    ]))
    assert abs(seq.log_eps[0] - math.log(0.25)) < 1e-15
    assert seq.log_eps[1] == -100.0
    with pytest.raises(ConstraintViolated):
        SmallnessSequence.from_json(json.dumps([{"x": [2.0, 0.0], "r": 1.0}]))


def test_propagation_bound_values():
    # eps = M collapses the exponents: bound = prefactor * M
    b_eq = propagation_bound([0.5, 0.0], 0.2, 0.25, 0.6, 1.0, 2.0, 2.0)
    rbar = correlated_radius_general(0.5, 0.2, 0.25)
    pref = math.sqrt(405) / (1 - 0.36) ** 1.25 * (1 / rbar) ** 3.5
    assert abs(b_eq - 2.0 * pref) < 1e-12 * b_eq
    # canonical example with a tiny eps
    d0 = delta0(0.5, 0.2, 0.25)
    b = propagation_bound([0.5, 0.0], 0.2, 0.25, 0.6, 1.0, 1e-6, 1.0)
    assert abs(b - pref * (1e-6) ** d0) < 1e-12 * b
    with pytest.raises(OutOfRange):
        propagation_bound([0.2, 0.0], 0.1, 0.1, 0.6, 1.0, 1e-6, 1.0)


def test_propagation_bound_soundness_over_corpus():
    rbar = correlated_radius_general(0.5, 0.2, 0.25)
    lam = 0.6
    rule = BallRule(SphereRule.product(2, 16), 24)
    for seed in range(50):
        u = random_harmonic_polynomial(2, 8, seed=seed)
        eps = complex(normalized_average_A2(u, Ball([0.5, 0.0], 0.2), rule).value).real
        M = complex(normalized_average_A2(u, Ball([0.0, 0.0], 1.0), rule).value).real
        bound = propagation_bound([0.5, 0.0], 0.2, 0.25, lam, 1.0, eps, M)
        measured = complex(normalized_average_A2(
            u, Ball([0.25, 0.0], lam * rbar), rule).value).real
        assert measured <= bound


def test_delta_lower_bound_computation():
    # the report must evaluate both sides exactly; whether the relation
    # holds is a separate question (see the acceptance suite)
    rep = delta_lower_bound_check(20.0, 1.0)
    assert abs(rep.lhs - rho(20.0, 1.0) / 100.0) < 1e-15
    expected_d0 = delta0(20.0, 1.0, 20.0 / 3.0, 40.0)
    assert abs(rep.rhs - expected_d0) < 1e-15
    assert rep.passed == (rep.lhs <= rep.rhs)
    # as-printed variant has a negative log argument in this regime
    with pytest.raises(DegenerateLog):
        delta_lower_bound_check(20.0, 1.0, variant="printed")
