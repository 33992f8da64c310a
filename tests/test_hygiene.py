"""Source hygiene: every name a homcert module imports is used in it.

Standard library only: each ``src/homcert/*.py`` but the package's
``__init__.py`` (which imports to re-export) is parsed with ``ast``.
"""

import ast
import os

import pytest

import homcert

PACKAGE = os.path.dirname(os.path.abspath(homcert.__file__))
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


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


def test_scan_sees_an_unused_import():
    assert unused_imports("from typing import Optional, Sequence\nx: Sequence = ()\n") == [
        "Optional (line 1)"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports('from .m import Matrix\ndef f() -> "Matrix": pass\n') == []
