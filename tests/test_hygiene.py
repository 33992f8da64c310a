"""Source hygiene: every name a homcert module or a test imports is used in
it, no function imports in the package or its tests, and every private top-level
function or class is used somewhere in the package.

Standard library only: each ``src/homcert/*.py`` and ``tests/*.py`` is parsed
with ``ast``; the import check skips the package's ``__init__.py``, which
imports to re-export.
"""

import ast
import os
from collections import Counter

import pytest

import homcert

PACKAGE = os.path.dirname(os.path.abspath(homcert.__file__))
SOURCES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))
MODULES = [name for name in SOURCES if name != "__init__.py"]
TESTS = os.path.dirname(os.path.abspath(__file__))
TEST_SOURCES = sorted(name for name in os.listdir(TESTS) if name.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (``__future__`` aside) that the module never
    reads: not as a name, an attribute root, or a string annotation."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [a for node in ast.walk(tree) for a in (
        [node.returns] + [arg.annotation for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        else [node.annotation] if isinstance(node, ast.AnnAssign) else [])]
    for a in annotations:  # quoted ones such as -> "Matrix"
        if isinstance(a, ast.Constant) and isinstance(a.value, str):
            used.update(n.id for n in ast.walk(ast.parse(a.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("module", TEST_SOURCES)
def test_no_unused_imports_in_tests(module):
    with open(os.path.join(TESTS, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_scan_sees_an_unused_import():
    assert unused_imports("from typing import Optional, Sequence\nx: Sequence = ()\n") == [
        "Optional (line 1)"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports('from .m import Matrix\ndef f() -> "Matrix": pass\n') == []


def _is_import(node) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "__import__")


def imports_in_functions(source: str) -> list[int]:
    """Lines of the imports (statements or ``__import__`` calls) made inside
    a function body, nested ones included."""
    return sorted({node.lineno for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if _is_import(node)})


@pytest.mark.parametrize("module", SOURCES)
def test_no_imports_inside_functions(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert imports_in_functions(fh.read()) == []


@pytest.mark.parametrize("module", TEST_SOURCES)
def test_no_imports_inside_test_functions(module):
    with open(os.path.join(TESTS, module), encoding="utf-8") as fh:
        assert imports_in_functions(fh.read()) == []


def test_scan_sees_an_import_inside_a_function():
    source = ("import os\ndef f():\n    def g():\n        from . import m\n"
              "    import sys\nclass C:\n    def h(self):\n        import re\n"
              "def k():\n    return __import__('json').dumps\n")
    assert imports_in_functions(source) == [4, 5, 8, 10]


def _references(node) -> Counter:
    """Names read under node: as a name, an attribute, or an imported name."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                   else n.name for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def unused_private_definitions(sources: dict) -> list[str]:
    """Top-level functions and classes named ``_x`` (dunders aside) that no
    module references outside the definition itself, as "module: name (line)"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum(map(_references, trees.values()), Counter())
    return [f"{module}: {node.name} (line {node.lineno})"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and total[node.name] == _references(node)[node.name]]


def test_no_unused_private_definitions():
    sources = {}
    for module in SOURCES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unused_private_definitions(sources) == []


def test_scan_sees_an_unused_private_definition():
    sources = {"a.py": "def _dead():\n    return _dead()\n\ndef _used(): pass\n"
                       "class _Kept: pass\ndef __getattr__(name): pass\n",
               "b.py": "import a\nfrom a import _used\n_used()\nx = a._Kept\n"}
    assert unused_private_definitions(sources) == ["a.py: _dead (line 1)"]
