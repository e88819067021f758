"""Every name a module of the package imports is used in that module, every
name its __all__ exports is defined there, and every private function or
class it defines at module level is read there.

An AST scan stands in for a linter: a binding counts as used when it is
read as a name anywhere in the module (attribute chains included) or is
listed in the module's __all__; a name counts as defined when a top-level
def, class, assignment or import binds it.
"""

import ast
from pathlib import Path

import pytest

import muskat

MODULES = sorted(Path(muskat.__file__).parent.glob("*.py"))


def exported_names(tree: ast.Module) -> list[str]:
    return [name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


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
    used.update(exported_names(tree))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_an_unused_import():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\nprint(sys)\n"
    assert unused_imports(source) == ["path (line 1)"]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def stale_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in exported_names(tree) if name not in defined]


def test_scan_flags_a_stale_export():
    source = ("from os import sep\nX: int = 1\nY = 2\n"
              "def f(): pass\nclass C: pass\n"
              "__all__ = ['sep', 'X', 'Y', 'f', 'C', 'gone']\n")
    assert stale_exports(source) == ["gone"]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_stale_exports(module):
    assert stale_exports(module.read_text()) == []


def unused_private_definitions(source: str) -> list[str]:
    """Private module-level functions and classes whose name the module never
    reads (dunder names are not private)."""
    tree = ast.parse(source)
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(defined.items())
            if name not in read]


def test_scan_flags_an_unused_private_definition():
    source = ("def _used(): pass\ndef _unused(): pass\nclass _Gone: pass\n"
              "class _Base: pass\nclass C(_Base): pass\n"
              "def __getattr__(name): pass\ndef public(): return _used()\n")
    assert unused_private_definitions(source) == ["_Gone (line 3)", "_unused (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_unused_private_definitions(module):
    assert unused_private_definitions(module.read_text()) == []
