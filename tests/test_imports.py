"""Every name a module of the package imports is used in that module.

An AST scan stands in for a linter: a binding counts as used when it is
read as a name anywhere in the module (attribute chains included) or is
listed in the module's __all__.
"""

import ast
from pathlib import Path

import pytest

import muskat

MODULES = sorted(Path(muskat.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_an_unused_import():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\nprint(sys)\n"
    assert unused_imports(source) == ["path (line 1)"]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
