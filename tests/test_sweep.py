import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (exact_sphere_monomial, integral_blocks, sweep_rows,
                      weighted_rule)
from threespheres import geometry, verify
from threespheres.cli import main
from threespheres.errors import ConfigError, OutOfRange, UnderResolved
from threespheres.geometry import CorrelatedFamily
from threespheres.harmonic import PolynomialEvaluator
from threespheres.quadrature import BLOCK, BallRule, SphereRule, weighted_rules
from threespheres.sweep import (
    ALL_CHECKS,
    SweepConfig,
    run_sweep,
    sample_corpus,
    sample_geometries,
    write_csv,
    write_json,
)
from threespheres.verify import (
    InequalityReport,
    RowGroup,
    convexity_margins,
    error_row,
    flat,
    upper_rows,
)


def test_weighted_rule_policy():
    # the Gauss rules of the weights: degree // 2 + 1 axial nodes times the
    # S^{n-2} rule of the degree, whatever the annulus ratio
    for n in (2, 3, 4, 5):
        across = 2 if n == 2 else len(SphereRule.product(n - 1, 8))
        for kind in ("s_a", "kelvin", "mu_a"):
            for radius in (0.2, 0.6, 0.69):  # annulus ratio 4.5 down to 1.3
                rule = weighted_rule(n, 8, kind, 1.2, 0.3, radius)
                assert (rule.kind, rule.degree, rule.transverse) == (kind, 8, 8)
                assert len(rule) == 5 * across
        # a ball whose plain integral is wanted too: two more axial degrees
        ball = BallRule.weighted(n, 10, 0.9, 0.6, 8)
        assert len(ball.angular) == 10 * 6 * across
    # several spheres in one pass, each rule as if built alone; cached by
    # the defining numbers
    spheres = [("s_a", 1.2, 0.3, 0.6, 1.0), ("kelvin", 1.2, 0.0, 0.5, 1.0)]
    pair = weighted_rules(3, 8, spheres)
    assert [rule.kind for rule in pair] == ["s_a", "kelvin"]
    for rule, sphere in zip(pair, spheres):
        alone = weighted_rule(3, 8, *sphere)
        np.testing.assert_allclose(rule.weights, alone.weights, rtol=1e-13)
    assert np.shares_memory(weighted_rules(3, 8, spheres)[1].nodes,
                            pair[1].nodes)


def test_corpus_integrals_make_no_node_array(monkeypatch):
    # a sweep's sphere and ball integrals read their rules on slices, so no
    # rule they read has its nodes made, by a cache or by the integral;
    # only the S^(n-2) factors' points are (a rule of n = 3 may be one of
    # them for n = 4, so each rule is looked at right after its integral)
    from threespheres import quadrature

    quadrature._product_rule_cached.cache_clear()
    quadrature._weighted_cached.cache_clear()
    integrals, read = verify.integrals, []

    def watched(fn, rule, *args, **kwargs):
        out = integrals(fn, rule, *args, **kwargs)
        angular = getattr(rule, "angular", rule)
        read.append((angular.n, angular.kind, angular.slices is not None,
                     "nodes" in vars(angular)))
        return out

    monkeypatch.setattr(verify, "integrals", watched)
    run_sweep(SweepConfig.from_dict({
        "dimensions": [3, 4], "corpus": {"count": 2, "max_degree": 4},
        "geometry": {"count": 1, "t_count": 2, "lambdas": [0.6]},
        "checks": ["three_spheres", "transfer_identity", "three_balls",
                   "embedded_bound"]}))
    assert {(n, kind) for n, kind, *_ in read} == {
        (n, kind) for n in (3, 4) for kind in ("exact", "s_a", "kelvin",
                                               "mu_a")}
    assert [r for r in read if r[3] or not r[2]] == []


def test_shell_count_monotonicity():
    # the dmu_a ball's radial count grows as the pole nears the ball, with
    # the pole order 5 - n of the shell integral, and past its cap becomes
    # a typed error, not a silently clamped rule
    mild = BallRule.weighted(3, 16, 3.0, 1.0, 16)
    harsh = BallRule.weighted(3, 16, 1.1, 1.0, 16)
    assert mild.radial_points == 10 < harsh.radial_points
    assert len(mild.angular) == 10 * 9 * 17
    assert BallRule.weighted(2, 16, 1.1, 1.0, 16).radial_points > \
        harsh.radial_points
    with pytest.raises(OutOfRange):
        BallRule.weighted(3, 16, 0.9, 1.0, 16)
    # at |a| = 1.003 the u model resolves the ball with 121 shells, under
    # SHELL_CAP = 128; 1.0026 still needs more than the cap
    with pytest.raises(UnderResolved):
        BallRule.weighted(2, 16, 1.0026, 1.0, 16)


def test_weighted_rule_point_counts(monkeypatch):
    # the cost of a small sweep, pinned: every weighted sphere and every
    # shell of a dmu_a ball takes ceil((d + 1)/2) axial nodes times the
    # S^{n-2} rule of degree d, with d = 8 the degree of |f|^2; an integral's
    # nodes reach the integrand in blocks of at most BLOCK
    cfg = {"dimensions": [3], "corpus": {"count": 2, "max_degree": 4,
                                         "seed": 1},
           "geometry": {"count": 1, "seed": 11, "t_count": 2}}
    per_rule = 5 * 9
    blocks = integral_blocks(monkeypatch)
    reports, _ = sweep_rows(SweepConfig.from_dict(
        dict(cfg, checks=["three_spheres", "transfer_identity"])))
    # inner and outer ds_a spheres, then a ds_a and a Kelvin sphere per t
    assert [sum(sizes) for sizes in blocks] == [per_rule] * 6
    assert len(reports) == 2 * 2 * 2 and all(r.passed for r in reports)
    run_sweep(SweepConfig.from_dict(dict(cfg, checks=["three_balls"])))
    # inner, outer and middle balls, 10 shells each
    assert [sum(sizes) for sizes in blocks[6:]] == [10 * per_rule] * 3
    assert all(0 < size <= BLOCK for sizes in blocks for size in sizes)
    assert [len(sizes) for sizes in blocks[6:]] == [
        math.ceil(10 * per_rule / BLOCK)] * 3


def _ball_config_rows(n, margin, x_norm):
    """Sweep rows of the ball checks at |x| = ``x_norm`` with the widest
    radius ``touch_margin`` allows, where the unit ball's annulus ratio
    |a| is closest to 1 (1.02 at |x| = 0.9 and margin 0.002)."""
    from threespheres.sweep import _config_rows

    cfg = SweepConfig.from_dict({
        "dimensions": [n], "corpus": {"count": 3, "max_degree": 8, "seed": 2},
        "geometry": {"touch_margin": margin, "lambdas": [0.6]},
        "checks": ["three_balls", "embedded_bound"]})
    polys = sample_corpus(n, 3, 8, 2)
    x = np.zeros(n)
    x[0] = x_norm
    return flat(_config_rows(n, cfg, 0, x, 1 - x_norm - margin, polys,
                             PolynomialEvaluator(polys)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("margin", [0.01, 0.002])
def test_near_touching_ball_rows(n, margin, monkeypatch):
    # every dmu_a row agrees with a 256-shell rule to 1e-10 (16 shells
    # erred by up to 1.6e-4 at margin 0.002)
    from threespheres import quadrature

    rows = [_ball_config_rows(n, margin, x) for x in (0.3, 0.6, 0.9)]
    monkeypatch.setattr(quadrature, "_shell_count", lambda *args: 256)
    reference = [_ball_config_rows(n, margin, x) for x in (0.3, 0.6, 0.9)]
    for got_rows, want_rows in zip(rows, reference):
        assert [r.name for r in got_rows] == [r.name for r in want_rows]
        for got, want in zip(got_rows, want_rows):
            for a, b in ((got.lhs, want.lhs), (got.rhs, want.rhs)):
                assert abs(a - b) <= 1e-10 * abs(b), got.name


def test_unresolved_ball_rows_are_error_rows():
    # |a| = 1.0025: no count up to the cap reaches the target, so (27) gets
    # UnderResolved error rows and the embedded bounds still run (|x| = 0.95
    # gives |a| = 1.0032, which the u = sigma^2 model resolves under the cap)
    rows = _ball_config_rows(2, 1e-4, 0.97)
    names = [r.name for r in rows]
    assert names[:3] == ["three_balls_eq27:error:UnderResolved"] * 3
    assert not any(r.passed for r in rows[:3])
    assert names[3:] == ["embedded_bound_eq29", "embedded_bound_eq36",
                         "embedded_bound_eq37"] * 3
    assert all(r.passed for r in rows[3:])


def test_sample_determinism():
    a = sample_geometries(3, 5, seed=2)
    b = sample_geometries(3, 5, seed=2)
    for (xa, ra), (xb, rb) in zip(a, b):
        np.testing.assert_array_equal(xa, xb)
        assert ra == rb
    pa = sample_corpus(2, 3, 6, seed=4)
    pb = sample_corpus(2, 3, 6, seed=4)
    assert all(x.terms == y.terms for x, y in zip(pa, pb))


def test_geometry_samples_respect_bounds():
    for (x_vec, r) in sample_geometries(2, 50, seed=9):
        x = float(np.linalg.norm(x_vec))
        assert 0.1 <= x <= 0.7
        assert 0 < r <= 1 - x - 0.05 + 1e-12


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="dimensions"):
        SweepConfig.from_dict({"dimensions": [1]})
    with pytest.raises(ConfigError, match="geometry.x_norm_range"):
        SweepConfig.from_dict({"geometry": {"x_norm_range": [0.5, 0.99]}})
    with pytest.raises(ConfigError, match="beta"):
        SweepConfig.from_dict({"beta": []})
    with pytest.raises(ConfigError, match="beta"):
        SweepConfig.from_dict({"beta": True})
    with pytest.raises(ConfigError, match="checks"):
        SweepConfig.from_dict({"checks": []})
    # wrong types are config errors, not TypeErrors
    with pytest.raises(ConfigError, match="geometry.xbar_fraction"):
        SweepConfig.from_dict({"geometry": {"xbar_fraction": "a"}})
    with pytest.raises(ConfigError, match="geometry.lambdas"):
        SweepConfig.from_dict({"geometry": {"lambdas": ["a"]}})
    with pytest.raises(ConfigError, match="geometry.x_norm_range"):
        SweepConfig.from_dict({"geometry": {"x_norm_range": ["a", 0.5]}})
    with pytest.raises(ConfigError, match="checks"):
        SweepConfig.from_dict({"checks": [["x"]]})
    # an integer path would be opened as a file descriptor
    with pytest.raises(ConfigError, match="output.csv"):
        SweepConfig.from_dict({"output": {"csv": 5}})
    with pytest.raises(ConfigError, match="output.json"):
        SweepConfig.from_dict({"output": {"json": ["r.json"]}})
    # no room for r in [0.02, 1 - |x| - touch_margin]
    with pytest.raises(ConfigError, match="geometry.x_norm_range"):
        SweepConfig.from_dict({"geometry": {"x_norm_range": [0.9, 0.94],
                                            "touch_margin": 0.05}})
    # mc_samples selects nothing but is still validated
    with pytest.raises(ConfigError, match="mc_samples"):
        SweepConfig.from_dict({"mc_samples": 10})
    cfg = SweepConfig.from_dict({})
    assert cfg.checks == ALL_CHECKS
    assert cfg.dimensions == (2, 3)


def test_config_defaults_are_the_dataclass_defaults():
    # from_dict reads every default from the fields of SweepConfig
    assert SweepConfig.from_dict({}) == SweepConfig()


def test_csv_floats_roundtrip(tmp_path):
    cfg = SweepConfig.from_dict({
        "dimensions": [2],
        "corpus": {"count": 2, "max_degree": 4, "seed": 1},
        "geometry": {"count": 1, "seed": 1, "t_count": 2},
        "checks": ["three_spheres"],
    })
    groups, _ = run_sweep(cfg)
    reports = flat(groups)
    path = tmp_path / "r.csv"
    write_csv(groups, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "name,n,x_norm,r,t_or_xbar,exponent,lhs,rhs,ratio,pass"
    # 17 significant digits reproduce the doubles exactly
    for line, rep in zip(lines[1:], reports):
        cells = line.split(",")
        assert float(cells[6]) == rep.lhs
        assert float(cells[7]) == rep.rhs
        assert float(cells[8]) == rep.ratio
    jpath = tmp_path / "r.json"
    write_json(groups, str(jpath))
    data = json.loads(jpath.read_text())
    assert data[0]["lhs"] == reports[0].lhs


def one_row(rep) -> RowGroup:
    """``rep`` as a group of one row, its shared fields in a head with NaN
    sides, so a writer that read the head's sides would be caught."""
    head = replace(rep, lhs=math.nan, rhs=math.nan, ratio=math.nan,
                   passed=False)
    return RowGroup((head,), *(np.array([[v]]) for v in (
        rep.lhs, rep.rhs, rep.ratio, rep.passed)))


def assert_writers_match(groups, path):
    """The CSV equals the per-cell oracle and the JSON ``json.dump`` of the
    flattened rows' ``to_dict()``."""
    rows = flat(groups)
    write_csv(groups, str(path))
    assert path.read_bytes() == oracle_csv(rows)
    write_json(groups, str(path))
    buf = io.StringIO()
    json.dump([r.to_dict() for r in rows], buf, indent=1, sort_keys=True)
    assert path.read_bytes() == (buf.getvalue() + "\n").encode()


def test_write_json_bytes_match_json_dump(tmp_path):
    cfg = SweepConfig.from_dict({
        "dimensions": [2],
        "corpus": {"count": 2, "max_degree": 4, "seed": 1},
        "geometry": {"count": 1, "seed": 1, "t_count": 2},
        "checks": ["three_spheres", "transfer_identity"],
    })
    groups, _ = run_sweep(cfg)
    first = flat(groups)[0]
    odd = [one_row(InequalityReport('say "ü"', math.nan, math.inf,
                                    -math.inf, -0.0, 1e-9, 0.0, False,
                                    n=None, x_norm=-0.0)),
           one_row(replace(first, lhs=-math.inf, ratio=math.nan, t=None))]
    for case in (groups, odd, [], groups[:1]):
        assert_writers_match(case, tmp_path / "r.json")


def oracle_csv(reports) -> bytes:
    """The CSV written one cell at a time."""
    def cell(v):
        if v is None:
            return ""
        return format(v, ".17g") if isinstance(v, float) else str(v)

    lines = ["name,n,x_norm,r,t_or_xbar,exponent,lhs,rhs,ratio,pass"]
    for rep in reports:
        lines.append(",".join(
            [rep.name] + [cell(v) for v in (
                rep.n, rep.x_norm, rep.r, rep.t, rep.exponent_used, rep.lhs,
                rep.rhs, rep.ratio)] + ["true" if rep.passed else "false"]))
    return ("\n".join(lines) + "\n").encode()


def test_writers_match_per_cell_oracle(tmp_path):
    # every check, error rows (beta above alpha gives NaN sides) and rows
    # with null n and t (delta_lower_bound)
    groups, _ = run_sweep(SweepConfig.from_dict({
        "dimensions": [2],
        "corpus": {"count": 2, "max_degree": 4, "seed": 1},
        "geometry": {"count": 1, "seed": 1, "x_norm_range": [0.5, 0.7],
                     "t_count": 2, "lambdas": [0.6]},
        "checks": list(ALL_CHECKS) + ["delta_lower_bound"],
        "beta": 0.99,
    }))
    reports = flat(groups)
    assert any(math.isnan(r.lhs) for r in reports)
    assert any(r.n is None for r in reports)
    base = InequalityReport("hand", 1.0, 2.0, 0.5, 0.25, 1e-9, 0.0, True,
                            n=2, x_norm=0.5, r=0.1, t=0.2)
    # equal shared values whose text differs, and equal distinct objects
    hand = [one_row(rep) for rep in (
        replace(base, lhs=-0.0), replace(base, ratio=math.inf),
        replace(base, lhs=math.nan, rhs=float("nan"), ratio=-math.inf,
                passed=False),
        replace(base, n=None, t=None),
        replace(base, x_norm=0.0), replace(base, x_norm=-0.0),
        replace(base, n=2.0), replace(base, t=float("0.75")),
        replace(base, t=float("0.75")),
        replace(base, name='say "ü" at 100%s', tolerance=-0.0))]
    # three names interleaved per column, and P error rows
    lhs = np.array([[1.0, -0.0, math.inf], [math.nan, 2.5, 1e-300]])
    hand += [upper_rows(("a", "b%d", 'c"ü'), lhs, np.array(
                 [[2.0, 0.0, math.inf], [1.0, 0.0, 0.0]]), 1e-9,
                 exponent=0.5, n=3, x_norm=-0.0, r=0.25, t=None),
             error_row("e%", ValueError("x"), 1e-9, 4, exponent=0.99, n=2,
                       x_norm=0.5, r=0.1, t=0.0)]
    assert [len(flat([g])) for g in hand[-2:]] == [6, 4]
    assert [r.name for r in flat(hand[-2:-1])] == ["a", "b%d", 'c"ü'] * 2
    for case in (groups, hand, groups + hand, []):
        assert_writers_match(case, tmp_path / "r")


def test_writers_stream_the_groups(tmp_path):
    # a sweep whose JSON passes 1 MB: each writer allocates less than a
    # quarter of its file, as it holds one group's text at a time
    groups, _ = run_sweep(SweepConfig.from_dict({
        "dimensions": [2],
        "corpus": {"count": 100, "max_degree": 4, "seed": 1},
        "geometry": {"count": 2, "seed": 1, "t_count": 10},
        "checks": ["three_spheres", "transfer_identity"],
    }))
    for writer, name in ((write_json, "r.json"), (write_csv, "r.csv")):
        path = str(tmp_path / name)
        writer(groups, path)  # lazy set-up done
        tracemalloc.start()
        try:
            writer(groups, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / name).stat().st_size
        assert peak < size / 4, (name, peak, size)
    assert (tmp_path / "r.json").stat().st_size >= 1 << 20
    # a group without rows writes nothing
    empty = RowGroup(groups[0].heads, *(np.empty((0, 1)) for _ in range(4)))
    write_json([empty, *groups[:2], empty], str(tmp_path / "e.json"))
    write_json(groups[:2], str(tmp_path / "r.json"))
    assert (tmp_path / "e.json").read_bytes() == \
        (tmp_path / "r.json").read_bytes()
    write_json([empty], str(tmp_path / "e.json"))
    assert (tmp_path / "e.json").read_bytes() == b"[]\n"


def test_n5_rows_pass_and_do_not_depend_on_the_blocks(monkeypatch):
    # dimension 5: sphere and ball rows of two degree-4 polynomials all
    # pass, and with every rule in one block the rows agree to 1e-13
    from threespheres import quadrature

    cfg = SweepConfig.from_dict({
        "dimensions": [5], "corpus": {"count": 2, "max_degree": 4, "seed": 1},
        "geometry": {"count": 1, "seed": 11, "t_count": 2},
        "checks": ["three_spheres", "transfer_identity", "three_balls",
                   "embedded_bound"]})
    rows, _ = sweep_rows(cfg)
    assert len(rows) == 28 and all(r.passed for r in rows)
    assert {r.name for r in rows} == {
        "three_spheres_eq24", "transfer_identity_eq22", "three_balls_eq27",
        "embedded_bound_eq29", "embedded_bound_eq36", "embedded_bound_eq37"}
    monkeypatch.setattr(quadrature, "BLOCK", 1 << 40)
    whole, _ = sweep_rows(cfg)
    assert len(whole) == len(rows)
    for got, want in zip(rows, whole):
        assert (got.name, got.t, got.passed) == (want.name, want.t,
                                                 want.passed)
        for a, b in ((got.lhs, want.lhs), (got.rhs, want.rhs)):
            assert abs(a - b) <= 1e-13 * abs(b), (got, want)


def test_n4_rows_are_deterministic():
    cfg = SweepConfig.from_dict({
        "dimensions": [4],
        "corpus": {"count": 3, "max_degree": 6, "seed": 2},
        "geometry": {"count": 2, "seed": 3, "t_count": 2, "lambdas": [0.6]},
        "checks": ["three_spheres", "three_balls"],
        "mc_samples": 2000,
    })
    reports, skipped = sweep_rows(cfg)
    assert reports
    assert all(r.passed for r in reports)
    assert all(r.stderr_budget == 0 for r in reports)
    assert not skipped


def test_sweep_runs_every_check(tmp_path, capsys):
    raw = {"corpus": {"count": 2, "max_degree": 6, "seed": 3},
           "geometry": {"count": 1, "seed": 5, "x_norm_range": [0.5, 0.7],
                        "t_count": 2, "lambdas": [0.6]}}
    reports, skipped = sweep_rows(SweepConfig.from_dict(
        dict(raw, dimensions=[2, 3])))
    counts = {}
    for rep in reports:
        counts[rep.name] = counts.get(rep.name, 0) + 1
    # per dimension: 2 polynomials x 2 t values, 2 x 1 lambda, five identity
    # test functions, three holomorphic functions at n = 2, three embedding
    # integrands
    assert counts == {
        "three_spheres_eq24": 8, "transfer_identity_eq22": 8,
        "three_balls_eq27": 4, "embedded_bound_eq29": 4,
        "embedded_bound_eq36": 4, "embedded_bound_eq37": 4,
        "gradient_identity_eq2": 10, "gradient_identity_eq3": 10,
        "derivative_identity_eq5": 10, "derivative_identity_eq13": 10,
        "holomorphic_variant_remark3": 3, "log_convexity_eq18": 4,
        "embedding_identity_eq30[one]": 2,
        "embedding_identity_eq30[extra_norm2]": 2,
        "embedding_identity_eq30[mixed]": 2,
    }
    assert set(ALL_CHECKS) == {
        "gradient_identity", "derivative_identity", "transfer_identity",
        "log_convexity", "three_spheres", "holomorphic_variant",
        "three_balls", "embedded_bound", "embedding_identity"}
    assert all(rep.passed for rep in reports)
    assert skipped == ["holomorphic_variant skipped for n=3: planar check"]

    cfg = tmp_path / "n4.json"
    cfg.write_text(json.dumps(dict(raw, dimensions=[4])))
    out = tmp_path / "n4.csv"
    assert main(["verify", "--config", str(cfg), "--out-csv", str(out)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("skipped:")]
    assert printed == [
        "skipped: holomorphic_variant skipped for n=4: planar check"]
    # the n = 4 embedding rows are present and pass
    embedding = [line for line in out.read_text().splitlines()
                 if line.startswith("embedding_identity_eq30[")]
    assert len(embedding) == 3
    assert all(line.endswith(",true") for line in embedding)


def test_holomorphic_sweep_solves_once_per_geometry(monkeypatch):
    # one family per planar geometry: one inversion solve and one sphere
    # pass for its three coefficient sets
    calls = {"solve": 0, "sphere": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(geometry, "solve_inversion_center", counted(
        "solve", geometry.solve_inversion_center))
    monkeypatch.setattr(verify, "sphere_rows", counted(
        "sphere", verify.sphere_rows))
    cfg = SweepConfig.from_dict({"dimensions": [2], "corpus": {"count": 1},
                                 "geometry": {"count": 3},
                                 "checks": ["holomorphic_variant"]})
    groups, skipped = run_sweep(cfg)
    assert calls == {"solve": 3, "sphere": 3} and skipped == []
    monkeypatch.undo()
    # the rows of the public check per coefficient set, in the sweep's order
    rows = flat(groups)
    assert len(rows) == 9
    for ci, (x, r) in enumerate(sample_geometries(2, 3, cfg.geometry_seed)):
        rng = np.random.default_rng([cfg.corpus_seed, ci, 77])
        sets = [[1.0], [0.0, 0.0, 0.0, 1.0],
                rng.standard_normal(7) + 1j * rng.standard_normal(7)]
        for coeffs, rep in zip(sets, rows[3 * ci:3 * ci + 3]):
            want = verify.holomorphic_variant_check(
                coeffs, x, r, 0.5 * float(np.linalg.norm(x)))
            assert rep.name == want.name == "holomorphic_variant_remark3"
            assert rep.passed == want.passed
            assert rep.exponent_used == want.exponent_used
            for side in ("lhs", "rhs"):
                assert getattr(rep, side) == pytest.approx(
                    getattr(want, side), rel=1e-14, abs=0)


def test_holomorphic_rows_take_the_config_beta():
    # with "beta": "alpha" the remark-3 rows at t = |x|/2 use alpha_t, as the
    # three-spheres rows at that t do
    cfg = SweepConfig.from_dict({
        "dimensions": [2], "corpus": {"count": 1},
        "geometry": {"count": 2, "t_count": 2}, "beta": "alpha",
        "checks": ["holomorphic_variant", "three_spheres"]})
    rows = sweep_rows(cfg)[0]
    for x, r in sample_geometries(2, 2, cfg.geometry_seed):
        fam = CorrelatedFamily.create(x, r)
        t = 0.5 * fam.x_norm
        alpha = fam.exponents(t).alpha
        assert alpha > 1.5 * fam.exponents(t).omega
        mine = [row for row in rows if row.x_norm == fam.x_norm]
        holo = [row for row in mine
                if row.name == "holomorphic_variant_remark3"]
        three = [row for row in mine if row.name == "three_spheres_eq24"
                 and row.t == t]
        assert len(holo) == 3 and len(three) == 1
        assert all(row.exponent_used == alpha == three[0].exponent_used
                   and row.t == t for row in holo)


def test_corpus_integrals_of_a_sweep_take_the_slice_form(monkeypatch):
    # an n >= 3 sweep evaluates its corpus on the slices of its rules: no
    # corpus point reaches the point form, every node of every corpus
    # integral reaches the slice form, and no block holds more than BLOCK
    # nodes' values
    from threespheres import harmonic, verify

    points, calls = [], []
    evaluate, squares = (harmonic.PolynomialEvaluator._evaluate,
                         harmonic.Frame.squares)
    integrals = verify.integrals

    def counted_evaluate(self, pts):
        points.append(len(pts))
        return evaluate(self, pts)

    def counted_squares(self, x, rho, omega, lo, hi):
        out = squares(self, x, rho, omega, lo, hi)
        calls[-1][1].append(out.shape[0] * out.shape[1])
        return out

    def counted_integrals(fn, rule, *args):
        calls.append((rule, []))
        return integrals(fn, rule, *args)

    monkeypatch.setattr(harmonic.PolynomialEvaluator, "_evaluate",
                        counted_evaluate)
    monkeypatch.setattr(harmonic.Frame, "squares", counted_squares)
    monkeypatch.setattr(verify, "integrals", counted_integrals)
    for n in (3, 4):
        cfg = SweepConfig.from_dict({
            "dimensions": [n],
            "corpus": {"count": 3, "max_degree": 4, "seed": 1},
            "geometry": {"count": 2, "seed": 11, "t_count": 2,
                         "lambdas": [0.6]},
            "checks": ["three_spheres", "transfer_identity", "three_balls",
                       "embedded_bound", "log_convexity"]})
        rows, _ = sweep_rows(cfg)
        assert rows and all(r.passed for r in rows)
    assert points == []
    # per dimension and geometry: 2 + 2 ds_a and 2 Kelvin spheres, 3 dmu_a
    # balls and 1 plain one; per dimension, 20 convexity spheres
    sliced = [(rule, blocks) for rule, blocks in calls if blocks]
    assert len(sliced) == 2 * (2 * 10 + 20)
    for rule, blocks in sliced:
        # the rule's nodes: one angular rule for every shell, or one each
        angular = getattr(rule, "angular", rule)
        shells = rule.radial_points if angular is not rule \
            and angular.nodes.ndim == 2 else 1
        assert sum(blocks) == shells * len(angular)
        assert max(blocks) <= BLOCK


@pytest.mark.parametrize("n", [4, 5])
def test_n4_identity_and_convexity_rows_match_exact_moments(n):
    # the n >= 4 finite-difference identity and log-convexity rows against
    # closed forms built from the Gamma-function moments, at the 1e-5
    # tolerance of the identity checks; the embedding rows run and pass
    tol = 1e-5
    cfg = SweepConfig.from_dict({
        "dimensions": [n],
        "corpus": {"count": 2, "max_degree": 6, "seed": 2},
        "geometry": {"count": 2, "seed": 3, "t_count": 1},
        "checks": ["gradient_identity", "derivative_identity",
                   "log_convexity", "embedding_identity"],
    })
    reports, skipped = sweep_rows(cfg)
    assert not skipped and all(r.passed for r in reports)
    assert [rep.name for rep in reports
            if rep.name.startswith("embedding_identity")] == [
        "embedding_identity_eq30[one]", "embedding_identity_eq30[extra_norm2]",
        "embedding_identity_eq30[mixed]"]
    area = exact_sphere_monomial(n, (0,) * n)  # |S^{n-1}|

    def close(rep, exact):
        # both sides are recorded by magnitude
        for side in (rep.lhs, rep.rhs):
            assert abs(side - abs(exact)) <= tol * max(abs(exact), 1e-3), (
                rep, exact)

    geoms = sample_geometries(n, cfg.geometry_count, cfg.geometry_seed,
                              cfg.x_norm_range, cfg.touch_margin)
    for ci, (x, r) in enumerate(geoms):
        rows = [rep for rep in reports if rep.r == r]

        def rows_of(kind, p):
            # a row's t is the index of its test function
            return {rep.name: rep for rep in rows
                    if rep.name.startswith(kind) and rep.t == float(p)}

        # five test functions, t = 0..4; the first three are 1, y_1, |y|^2
        assert sorted(rep.t for rep in rows
                      if "identity" in rep.name) == [
            float(p) for p in range(5) for _ in range(4)]
        vol, sphere = area * r ** n / n, area * r ** (n - 1)
        x2 = float(x @ x)
        for p, (along_e1, radial) in enumerate([
                (0.0, sphere), (vol, x[0] * sphere),
                (2 * x[0] * vol, (x2 + r * r) * sphere)]):
            grad = rows_of("gradient", p)
            close(grad["gradient_identity_eq2"], along_e1)
            close(grad["gradient_identity_eq3"], radial)
        fam = CorrelatedFamily.create(x, r, R=1.0)
        t = 0.5 * fam.x_norm
        rho, drho = float(fam.radius(t)), float(fam.radius_derivative(t))
        ball, shell = area * rho ** n / n, area * rho ** (n - 1) * drho
        e1 = fam.e[0]
        for p, exact in enumerate([
                shell, e1 * ball + t * e1 * shell,
                2 * t * ball + t * t * shell + rho * rho * shell]):
            deriv = rows_of("derivative", p)
            close(deriv["derivative_identity_eq5"], exact)
            close(deriv["derivative_identity_eq13"], exact)

    # log-convexity: the sphere integrals of |p|^2 are
    # sum_{e,e'} Re(c_e conj(c_e')) M(e + e') s^(|e| + |e'| + n - 1)
    polys = sample_corpus(n, cfg.corpus_count, cfg.corpus_max_degree,
                          cfg.corpus_seed)
    exps = sorted({e for poly in polys for e in poly.terms})
    moments = {}
    for e in exps:
        for e2 in exps:
            key = tuple(a + b for a, b in zip(e, e2))
            if key not in moments:
                moments[key] = exact_sphere_monomial(n, key)
    gram = np.array([[moments[tuple(a + b for a, b in zip(e, e2))]
                      for e2 in exps] for e in exps])
    degree = np.array([sum(e) for e in exps])
    powers = degree[:, None] + degree[None, :] + n - 1
    coeffs = np.array([[poly.terms.get(e, 0) for e in exps]
                       for poly in polys])
    grid = np.linspace(0.05, 0.95, 20)
    logs = np.log([[np.sum((c[:, None] * c.conj()[None, :]).real * gram
                           * s ** powers) for c in coeffs] for s in grid])
    margin, _ = convexity_margins(np.log(grid), logs)
    convexity = [rep for rep in reports if rep.name == "log_convexity_eq18"]
    assert [rep.t for rep in convexity] == [0.0, 1.0]
    for rep, m in zip(convexity, margin):
        assert abs(rep.lhs + m) <= tol, (rep, m)



def test_fd_rows_integrate_the_test_functions_together(monkeypatch):
    # per geometry: four ball integrals and one sphere integral for (2) and
    # (3), two and one for (5) and (13), each over all five test functions,
    # whose rows come in (check, function) order
    from threespheres import verify

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return integrals(*args, **kwargs)

    integrals = verify.integrals
    monkeypatch.setattr(verify, "integrals", counted)
    reports, _ = sweep_rows(SweepConfig.from_dict({
        "dimensions": [3], "corpus": {"count": 3, "max_degree": 6, "seed": 2},
        "geometry": {"count": 2, "seed": 3},
        "checks": ["gradient_identity", "derivative_identity"]}))
    assert len(calls) == 8 * 2
    assert all(r.passed for r in reports)
    names = ["gradient_identity_eq2", "gradient_identity_eq3",
             "derivative_identity_eq5", "derivative_identity_eq13"]
    for geometry in (reports[:20], reports[20:]):
        assert [(r.name, r.t) for r in geometry] == [
            (name, float(p)) for name in names for p in range(5)]
        assert len({r.r for r in geometry}) == 1
    assert reports[0].r != reports[20].r
