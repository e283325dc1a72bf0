"""Import hygiene: no module of the package or of the tests imports a name
it never reads, and the package's modules import each other only downward
through its layers (``LAYERS``).

``__init__.py`` is exempt: it imports names to re-export them.  So is an
import statement whose first line carries ``# noqa: F401``: a test module
may import a module only to have it loaded.
"""

import ast
import pathlib

import pytest

import threespheres

PACKAGE = pathlib.Path(threespheres.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of ``source`` that no
    expression of the module reads, with the line of their import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and "# noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\n"
              "import numpy as np\nfrom os import path, sep\n"
              "x: np.ndarray = path\n")
    assert unused_imports(source) == [(2, "math"), (4, "sep")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_noqa_exempts_an_import():
    source = ("import math  # noqa: F401\nfrom os import (path,  # noqa: F401\n"
              "    sep)\nimport json\n")
    assert unused_imports(source) == [(4, "json")]


@pytest.mark.parametrize("module", TESTS, ids=lambda p: p.name)
def test_no_unused_test_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


# the package's layers, bottom up: a module imports only modules of lower
# layers, so harmonic (evaluation) and quadrature (rules and integrands,
# where the slice form is decided) never import each other
LAYERS = {"errors": 0, "geometry": 1, "harmonic": 2, "quadrature": 2,
          "verify": 3, "uniqueness": 4, "sweep": 5, "cli": 6}


def package_imports(source: str) -> set:
    """The package modules that ``source`` imports, at any depth: relative
    imports and absolute ones of ``threespheres``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "threespheres" + "." * bool(module) + module
            if module == "threespheres":
                found |= {alias.name for alias in node.names}
            elif module.startswith("threespheres."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("threespheres.")}
    return found


def test_finds_package_imports():
    source = ("from .errors import OutOfRange\nimport numpy\n"
              "def f():\n    from threespheres.verify import flat\n"
              "    from . import sweep\n    import threespheres.cli\n")
    assert package_imports(source) == {"errors", "verify", "sweep", "cli"}


def test_modules_import_only_lower_layers():
    assert set(LAYERS) == {p.stem for p in MODULES}
    for module in MODULES:
        below = {name for name, layer in LAYERS.items()
                 if layer < LAYERS[module.stem]}
        imported = package_imports(module.read_text(encoding="utf-8"))
        assert imported <= below, (module.name, imported - below)
