"""Import hygiene: no module of the package or of the tests imports a name
it never reads.

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
