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
