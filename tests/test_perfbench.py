import ast
import importlib
import os

from threespheres import (cli, geometry, harmonic, quadrature, sweep,  # noqa: F401
                          uniqueness, verify)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_traced_names_resolve_against_the_package(monkeypatch):
    # the benchmark's tracer wraps these names by module or class path; a
    # package change that drops or renames one fails here, not only in a
    # traced benchmark run.  The tracer is read, not installed.
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    missing = []
    for group, targets in tracing.GROUPS.items():
        for owner_path, attr in targets:
            try:
                getattr(tracing._resolve(owner_path), attr)
            except (LookupError, AttributeError) as exc:
                missing.append(f"{group}: {owner_path}.{attr} ({exc})")
    assert not missing
    assert sum(map(len, tracing.GROUPS.values())) >= 20


def test_tracer_counts_real_rules(monkeypatch):
    # the tracer's rule counter reads kind, n, degree, samples, seed and
    # len(weights) of what SphereRule.product and monte_carlo return; a rule
    # refactor that drops one fails here, not only in a traced benchmark
    # run.  The tracer is read, not installed.
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer("rules")
    SphereRule = quadrature.SphereRule
    for rule in (SphereRule.product(3, 8), SphereRule.product(3, 8),
                 SphereRule.monte_carlo(2, samples=50, seed=1)):
        tracer._count_quadrature_rule((), {}, rule)
    assert tracer.rule_keys == {("exact", 3, 8, None, None),
                                ("monte-carlo", 2, None, 50, 1)}
    assert tracer.counts == {"quadrature.rule_nodes": 5 * 9 + 50,
                             "quadrature.rule_reused": 1}


def test_child_reads_resolve_against_the_package():
    # every package attribute the benchmark's pass and oracle script reads,
    # found in its source: a rename that would break a benchmark run or its
    # oracle fails here.  The script is parsed, not run.
    with open(os.path.join(PERFBENCH, "child.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update((a.asname or a.name, a.name) for a in node.names
                         if a.name == "threespheres")
        elif isinstance(node, ast.ImportFrom) and node.module == "threespheres":
            roots.update((a.asname or a.name, f"threespheres.{a.name}")
                         for a in node.names)
    reads = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in roots:
            reads.add((node.id, tuple(attrs)))
    missing = []
    for root, attrs in sorted(reads):
        obj = importlib.import_module(roots[root])
        for i, attr in enumerate(attrs):
            if not hasattr(obj, attr):
                missing.append(".".join((root,) + attrs[:i + 1]))
                break
            obj = getattr(obj, attr)
    assert not missing
    assert {("geometry", ("correlated_radius_general",)),
            ("verify", ("EMBED_CONSTANT",))} <= reads


def test_sweep_balls_ball_nodes(monkeypatch):
    # the nodes of the benchmark's sweep_balls part at seed 0 (24 ball
    # integrals: (27) and the embedded bounds at n = 2 and 3), counted where
    # the integrands get them: a cost guard that does not depend on the
    # machine, so a change that inflates a ball rule fails here, not only
    # in a benchmark run
    from conftest import integral_blocks
    from threespheres.sweep import SweepConfig, run_sweep

    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    blocks = integral_blocks(monkeypatch)
    run_sweep(SweepConfig.from_dict(workloads.sweep_config("sweep_balls", 0)))
    assert len(blocks) == 24
    assert sum(map(sum, blocks)) == 16_120
