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
