"""Every name a chowkit module imports at top level is used in that module.

The package's ``__init__`` re-exports what it imports and is left out, and
so is ``from __future__``.  Imports inside a function are that function's
business.  Read with the standard ``ast`` module only, so nothing is run.
"""

import ast
from pathlib import Path

import pytest

import chowkit

MODULES = sorted(p for p in Path(chowkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names a module's top-level imports bind that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_named():
    source = "from .rings import BasisCell, Cycle\nimport json\n\n\ndef f():\n    return Cycle\n"
    assert unused_imports(source) == [(1, "BasisCell"), (2, "json")]
