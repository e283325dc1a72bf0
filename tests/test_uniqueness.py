import json
import math
import re

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


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
def test_trace_refuses_a_threshold_that_is_not_finite_and_nonnegative(
        threshold):
    # terms < -nan is never true, and a negative threshold lets terms
    # above zero read as diverging
    with pytest.raises(OutOfRange, match="threshold"):
        criterion_trace(cubic_sequence([1, 2, 3]), GrowthEnvelope.power(2.0),
                        threshold=threshold)
    assert len(criterion_trace(cubic_sequence([1, 2, 3]),
                               GrowthEnvelope.power(2.0), threshold=0.0)) == 3


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


@pytest.mark.parametrize("spec", [
    '{"kind": "power", "p": NaN}',
    '{"kind": "power", "p": 2, "c": Infinity}',
    '{"kind": "exp_power", "p": Infinity}',
    '{"kind": "exp_power", "p": 1, "c": NaN}',
    '{"kind": "table", "r": [0, 1, 2], "phi": [1, NaN, 3]}',
    '{"kind": "table", "r": [0, 1, Infinity], "phi": [1, 2, 3]}',
])
def test_envelope_rejects_non_finite_parameters(spec):
    # json.loads accepts NaN and Infinity
    with pytest.raises(OutOfRange, match="finite"):
        GrowthEnvelope.from_spec(json.loads(spec))


@pytest.mark.parametrize("entry, message", [
    ('{"x": [2, 0], "r": 1, "log_eps": NaN}', "log eps must be finite"),
    ('{"x": [2, 0], "r": 1, "log_eps": Infinity}', "log eps must be finite"),
    ('{"x": [2, 0], "r": 1, "log_eps": -Infinity}', "log eps must be finite"),
    ('{"x": [2, 0], "r": 1, "eps": Infinity}', "log eps must be finite"),
    ('{"x": [2, 0], "r": 1, "eps": -1, "log_eps": -3}', "eps must be positive"),
    ('{"x": [2, 0], "r": 1, "eps": 0, "log_eps": -3}', "eps must be positive"),
    ('{"x": [Infinity, 0], "r": 1, "eps": 0.5}', "<= |x| < inf"),
    ('{"x": [2, 0], "r": 1, "eps": 0.5, "log_eps": -1}',
     "eps = 0.5 contradicts log_eps = -1.0"),
])
def test_sequence_rejects_non_finite_or_nonpositive_entries(entry, message):
    with pytest.raises(ConstraintViolated, match=re.escape(message)):
        SmallnessSequence.from_json(f"[{entry}]")


def test_sequence_rejects_eps_contradicting_log_eps():
    # the constructor path; the JSON path is a case of the test above
    with pytest.raises(ConstraintViolated, match="contradicts log_eps"):
        SmallnessSequence((([2.0, 0.0], 1.0, 0.5),), (-1.0,))
    # a consistent pair is accepted, up to 1e-12 max(1, |log_eps|)
    log_half = math.log(0.5)
    seq = SmallnessSequence.from_json(json.dumps(
        [{"x": [2, 0], "r": 1, "eps": 0.5, "log_eps": log_half},
         {"x": [4, 0], "r": 1, "eps": math.exp(-40.0),
          "log_eps": -40.0 * (1 + 5e-13)}]))
    assert seq.log_eps == (log_half, -40.0 * (1 + 5e-13))
    seq = SmallnessSequence((([2.0, 0.0], 1.0, 0.5),), (log_half + 1e-13,))
    assert seq.entries[0][2] == 0.5


def test_sequence_needs_one_log_eps_per_entry():
    # a longer tuple is not cut to the entries, nor a shorter one indexed
    # past its end
    entry = (([1.0, 0.0], 0.25, None),)
    with pytest.raises(ConstraintViolated, match="2 log_eps values for 1 "
                                                 "entries"):
        SmallnessSequence(entry, (-1.0, -2.0))
    with pytest.raises(ConstraintViolated, match="1 log_eps values for 2 "
                                                 "entries"):
        SmallnessSequence(entry * 2, (-1.0,))
    assert SmallnessSequence(entry, (-1.0,)).log_eps == (-1.0,)


@pytest.mark.parametrize("phi", [
    GrowthEnvelope.exp_power(2.0),  # math.exp overflows
    GrowthEnvelope.power(200.0),  # r ** p overflows
    GrowthEnvelope.power(2.0, 1e305),  # c * r ** p is infinite
], ids=["exp_power", "power", "power_c"])
def test_overflowing_envelope_is_out_of_range(phi):
    # phi(4 |x|) is finite at |x| = 2 and not at |x| = 30
    seq = SmallnessSequence((([2.0, 0.0], 1.0, 0.5), ([30.0, 0.0], 1.0, 0.5)))
    assert math.isfinite(phi(8.0))
    with pytest.raises(OutOfRange, match=r"r = 120\.0 is inf, not a finite"):
        criterion_trace(seq, phi)


@pytest.mark.parametrize("phi", [
    GrowthEnvelope.power(0.5),  # (-1.0) ** 0.5 is complex
    GrowthEnvelope.exp_power(2.0),
    GrowthEnvelope.table([0.0, 1.0], [1.0, 2.0]),
], ids=["power", "exp_power", "table"])
def test_envelope_refuses_negative_and_nan_r(phi):
    assert phi(0.0) >= 0
    for r in (-1.0, -1e-300, math.nan):
        with pytest.raises(OutOfRange, match="needs r >= 0"):
            phi(r)


def test_table_envelope_must_be_one_dimensional():
    # sizes match and radii and values increase when flattened
    nested = {"kind": "table", "r": [[0, 1], [2, 3]], "phi": [[1, 2], [3, 4]]}
    with pytest.raises(OutOfRange, match="one-dimensional"):
        GrowthEnvelope.from_spec(nested)
    with pytest.raises(OutOfRange, match="one-dimensional"):
        GrowthEnvelope.table([0.0, 1.0, 2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("x", [[[30.0, 0.0], [0.0, 0.0]], 30.0, [30.0]],
                         ids=["matrix", "scalar", "length_1"])
def test_sequence_point_must_be_a_vector(x):
    # each has |x| = 30, which the constraint 2 r <= |x| alone would accept
    good = ([2.0, 0.0], 1.0, 0.5)
    with pytest.raises(ConstraintViolated,
                       match="entry 1: x must be a vector of dimension >= 2"):
        SmallnessSequence((good, (x, 1.0, 0.5)))
    with pytest.raises(ConstraintViolated,
                       match="entry 0: x must be a vector of dimension >= 2"):
        SmallnessSequence.from_json(json.dumps([{"x": x, "r": 1.0,
                                                 "eps": 0.5}]))


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


def test_null_log_eps_takes_log_eps_from_eps():
    # "log_eps": null is an absent log_eps: log eps comes from eps, which
    # must then be given and positive
    seq = SmallnessSequence.from_json(json.dumps([
        {"x": [2.0, 0.0], "r": 1.0, "eps": 0.25, "log_eps": None},
        {"x": [4.0, 0.0], "r": 1.0, "eps": None, "log_eps": -100.0}]))
    assert seq.log_eps == (math.log(0.25), -100.0)
    assert seq.entries[0][2] == 0.25
    assert seq.entries[1][2] == math.exp(-100.0)
    assert SmallnessSequence((([2.0, 0.0], 1.0, 0.25),), (None,)).log_eps \
        == seq.log_eps[:1]
    for entry, message in [
            ({"x": [2.0, 0.0], "r": 1.0, "log_eps": None},
             "'eps' or 'log_eps' must be numbers"),
            ({"x": [2.0, 0.0], "r": 1.0, "eps": 0.0, "log_eps": None},
             "eps must be positive")]:
        with pytest.raises(ConstraintViolated, match=re.escape(message)):
            SmallnessSequence.from_json(json.dumps([entry]))


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
    # a NaN eps read as a nan certificate
    for eps, M, field in [(math.nan, 1.0, "eps"), (1e-6, math.inf, "M")]:
        with pytest.raises(OutOfRange, match=f"{field} must be finite"):
            propagation_bound([0.6, 0.0], 0.2, 0.3, 0.5, 1.0, eps, M)


def test_propagation_bound_soundness_over_corpus():
    rbar = correlated_radius_general(0.5, 0.2, 0.25)
    lam = 0.6
    rule = BallRule(SphereRule.product(2, 16), 24)
    for seed in range(50):
        u = random_harmonic_polynomial(2, 8, seed=seed)
        eps = normalized_average_A2(u, Ball([0.5, 0.0], 0.2), rule)
        M = normalized_average_A2(u, Ball([0.0, 0.0], 1.0), rule)
        bound = propagation_bound([0.5, 0.0], 0.2, 0.25, lam, 1.0, eps, M)
        measured = normalized_average_A2(u, Ball([0.25, 0.0], lam * rbar),
                                         rule)
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
