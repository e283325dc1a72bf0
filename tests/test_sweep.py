import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from threespheres.cli import main
from threespheres.errors import ConfigError, UnderResolved
from threespheres.quadrature import SphereRule, analytic_degree
from threespheres.sweep import (
    ALL_CHECKS,
    SweepConfig,
    run_sweep,
    sample_corpus,
    sample_geometries,
    write_csv,
    write_json,
)
from threespheres.verify import InequalityReport


def test_default_rule_policy():
    assert SphereRule.default(2, 8).kind == "exact"
    assert SphereRule.default(3, 8, kappa=1.5).kind == "exact"
    assert SphereRule.default(4, 8).kind == "exact"
    for n in (2, 3, 4, 5):
        rule = SphereRule.default(n, 8, kappa=1.5)
        assert rule.kind == "exact"
        assert rule.degree == analytic_degree(8, 1.5)
        # the circle has no transverse direction
        assert rule.transverse == (rule.degree if n == 2 else 8)


def test_analytic_degree_monotonicity():
    base = analytic_degree(16, None)
    assert base >= 16 + 8
    mild = analytic_degree(16, 3.0)
    harsh = analytic_degree(16, 1.22)
    assert mild < harsh
    # higher pole order demands more nodes
    assert analytic_degree(16, 1.5, pole_order=12) > analytic_degree(
        16, 1.5, pole_order=4)
    with pytest.raises(Exception):
        analytic_degree(16, 0.9)
    # too close to resolve: a typed error, not a silently clamped rule
    with pytest.raises(UnderResolved):
        analytic_degree(16, 1.01)


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


def test_csv_floats_roundtrip(tmp_path):
    cfg = SweepConfig.from_dict({
        "dimensions": [2],
        "corpus": {"count": 2, "max_degree": 4, "seed": 1},
        "geometry": {"count": 1, "seed": 1, "t_count": 2},
        "checks": ["three_spheres"],
    })
    reports, _ = run_sweep(cfg)
    path = tmp_path / "r.csv"
    write_csv(reports, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "name,n,x_norm,r,t_or_xbar,exponent,lhs,rhs,ratio,pass"
    # 17 significant digits reproduce the doubles exactly
    for line, rep in zip(lines[1:], reports):
        cells = line.split(",")
        assert float(cells[6]) == rep.lhs
        assert float(cells[7]) == rep.rhs
        assert float(cells[8]) == rep.ratio
    jpath = tmp_path / "r.json"
    write_json(reports, str(jpath))
    data = json.loads(jpath.read_text())
    assert data[0]["lhs"] == reports[0].lhs


def test_write_json_bytes_match_json_dump(tmp_path):
    cfg = SweepConfig.from_dict({
        "dimensions": [2],
        "corpus": {"count": 2, "max_degree": 4, "seed": 1},
        "geometry": {"count": 1, "seed": 1, "t_count": 2},
        "checks": ["three_spheres", "transfer_identity"],
    })
    reports, _ = run_sweep(cfg)
    odd = [InequalityReport('say "ü"', math.nan, math.inf, -math.inf,
                            -0.0, 1e-9, 0.0, False, n=None, x_norm=-0.0),
           replace(reports[0], lhs=-math.inf, ratio=math.nan, t=None)]
    path = tmp_path / "r.json"
    for reps in (reports, odd, [], reports[:1]):
        write_json(reps, str(path))
        buf = io.StringIO()
        json.dump([r.to_dict() for r in reps], buf, indent=1, sort_keys=True)
        assert path.read_bytes() == (buf.getvalue() + "\n").encode()


def test_n4_rows_are_deterministic():
    cfg = SweepConfig.from_dict({
        "dimensions": [4],
        "corpus": {"count": 3, "max_degree": 6, "seed": 2},
        "geometry": {"count": 2, "seed": 3, "t_count": 2, "lambdas": [0.6]},
        "checks": ["three_spheres", "three_balls"],
        "mc_samples": 2000,
    })
    reports, skipped = run_sweep(cfg)
    assert reports
    assert all(r.passed for r in reports)
    assert all(r.stderr_budget == 0 for r in reports)
    assert not skipped


def test_sweep_runs_every_check(tmp_path, capsys):
    raw = {"corpus": {"count": 2, "max_degree": 6, "seed": 3},
           "geometry": {"count": 1, "seed": 5, "x_norm_range": [0.5, 0.7],
                        "t_count": 2, "lambdas": [0.6]}}
    reports, skipped = run_sweep(SweepConfig.from_dict(
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
    assert main(["verify", "--config", str(cfg)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("skipped:")]
    untested = "not yet validated for n >= 4"
    assert printed == [
        f"skipped: gradient_identity skipped for n=4: {untested}",
        f"skipped: derivative_identity skipped for n=4: {untested}",
        f"skipped: log_convexity skipped for n=4: {untested}",
        "skipped: embedding_identity skipped for n=4: deterministic "
        "(n+5)-dimensional rule too large",
        "skipped: holomorphic_variant skipped for n=4: planar check",
    ]
