"""Every name a chowkit module imports at top level is used in that module,
and every function, class and method it defines is named somewhere else.
The same holds for the test helpers (oracles.py, checks.py and corpus.py)
among the tests, and no test module imports from another.

The package's ``__init__`` re-exports what it imports and is left out, and
so is ``from __future__``.  Imports inside a function are that function's
business.  Read with the standard ``ast`` module only, so nothing is run.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import chowkit

PACKAGE = Path(chowkit.__file__).parent
ROOT = Path(__file__).resolve().parents[1]  # the repository: README.md, perfbench/
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).parent
HELPERS = ["checks.py", "corpus.py", "oracles.py"]


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


def named(tree):
    """Counter of the names a tree reads: names, attributes, and the words of
    its string constants other than docstrings (a tracer hooks "layer.name")."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef)
    docs = {id(n.body[0].value) for n in ast.walk(tree)
            if isinstance(n, scopes) and isinstance(n.body[0], ast.Expr)}
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            out.update(re.findall(r"\w+", node.value))
    return out


def unnamed_defs(sources, defining, text=""):
    """(module, line, name) of each top-level function, class or method of
    the ``defining`` modules (dunders aside) that no source names outside its
    own body and ``text`` does not mention.  sources maps a module name to
    its code; an import does not count as naming."""
    trees = {name: ast.parse(code) for name, code in sources.items()}
    total = sum((named(tree) for tree in trees.values()), Counter())
    words = set(re.findall(r"\w+", text))
    out = []
    for module in defining:
        for node in trees[module].body:
            for d in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
                if (isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not re.fullmatch("__.*__", d.name)
                        and total[d.name] == named(d)[d.name] and d.name not in words):
                    out.append((module, d.lineno, d.name))
    return out


def test_every_definition_is_named_somewhere_else():
    """No code in src/ that only tests reach: every definition is named by
    the package, the benchmark harness or the README."""
    modules = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    bench = {f"perfbench/{p.name}": p.read_text() for p in (ROOT / "perfbench").glob("*.py")}
    readme = (ROOT / "README.md").read_text()
    assert unnamed_defs({**modules, **bench}, sorted(modules), readme) == []


def test_an_unnamed_definition_is_named():
    sources = {
        "lib.py": "def used():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
                  "def planted(n):\n    return planted(n - 1) if n else 0\n\n\n"
                  "class Box:\n    def kept(self):\n        return 1\n\n    def dropped(self):\n        return 2\n",
        "run.py": 'HOOKS = ("lib.used", "lib.Box.kept")\n',
    }
    # a self-call is not a use; a hooked "module.Class.method" string is
    assert unnamed_defs(sources, ["lib.py"]) == [("lib.py", 9, "planted"), ("lib.py", 17, "dropped")]
    assert unnamed_defs(sources, ["lib.py"], "The README names `dropped`.") == [("lib.py", 9, "planted")]


def test_every_test_helper_is_named_by_the_tests():
    """No helper that no test reaches: every definition of oracles.py,
    checks.py and corpus.py is named by a test module or another helper."""
    sources = {p.name: p.read_text() for p in TESTS.glob("*.py")}
    assert unnamed_defs(sources, HELPERS) == []


def imports_of_test_modules(sources):
    """(module, line, imported module) of each import, at any depth, of one
    test_* module by another."""
    out = []
    for module, code in sources.items():
        for node in ast.walk(ast.parse(code)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            out += [(module, node.lineno, name) for name in names if name.startswith("test_")]
    return out


def test_no_test_module_imports_another():
    """What two test modules share lives in a helper module."""
    sources = {p.name: p.read_text() for p in TESTS.glob("test_*.py")}
    assert imports_of_test_modules(sources) == []


def test_an_import_of_a_test_module_is_named():
    sources = {
        "test_a.py": "import checks\nfrom test_b import helper\n\n\ndef f():\n    import test_c\n",
        "test_b.py": "from corpus import P1\nimport oracles, test_a as a\n",
    }
    assert imports_of_test_modules(sources) == [
        ("test_a.py", 2, "test_b"), ("test_a.py", 6, "test_c"), ("test_b.py", 2, "test_a"),
    ]
