"""Every name a module of the package imports is used in that module, every
name its __all__ exports is defined there, every private function or class
it defines at module level is read there, every field of a record (a
dataclass) is read as an attribute somewhere in the package, every
method or property of a class is read in the package or the benchmark, and
every name in an __all__ is read under its own module, inside it or as
imported from or read off it by the package or the benchmark, so that no
public name exists for tests alone or as a second name of another's, and
no module reads another's private name.  The
third-party modules the package imports at module level are the
dependencies that pyproject.toml declares, and those it imports only
inside a function are in its test extra.

An AST scan stands in for a linter: a binding counts as used when it is
read as a name anywhere in the module (attribute chains included) or is
listed in the module's __all__; a name counts as defined when a top-level
def, class, assignment or import binds it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import muskat

MODULES = sorted(Path(muskat.__file__).parent.glob("*.py"))
# the benchmark reads the package too: HeadSolution.p_plus and p_minus
BENCHMARK = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str, package: str = "muskat") -> list[str]:
    """Reads of another module's private name: m._x for a module m of the
    package, as bound by from . import m, from package import m or import
    package.m as m, and from .m import _x (dunder names are not private)."""
    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if not node.level and (node.module or "").split(".")[0] != package:
                continue
            for alias in node.names:
                if is_private(alias.name):
                    reads.append(f"from {'.' * node.level}{node.module or ''} import "
                                 f"{alias.name} (line {node.lineno})")
                elif node.module in (None, package):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith(f"{package}."))
    reads += [f"{node.value.id}.{node.attr} (line {node.lineno})" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and is_private(node.attr)]
    return sorted(reads)


def test_scan_flags_a_private_read():
    source = ("from . import evolution, __version__\nfrom .pressure import _flat, solve\n"
              "from pkg import diffeo as d\nimport pkg.errors as errs\nimport os\n"
              "evolution._evaluate(), evolution.run(), d._pack, errs._x, evolution.__name__\n"
              "self._y, os._exit, solve._cache\n")
    assert private_reads(source, "pkg") == [
        "d._pack (line 6)", "errs._x (line 6)", "evolution._evaluate (line 6)",
        "from .pressure import _flat (line 2)"]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_private_reads_across_modules(module):
    assert private_reads(module.read_text()) == []


# records written whole, so that every field reaches an output without an
# attribute read: EnergyReport by astuple into timeseries.csv
WRITTEN_WHOLE = {"EnergyReport"}


def unread_fields(sources: list[str], written_whole=frozenset()) -> list[str]:
    """Fields of the dataclasses defined in sources that no source reads as
    an attribute (x.field), as Class.field; the classes in written_whole
    are not scanned."""
    trees = [ast.parse(source) for source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name in written_whole:
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            unread += [f"{node.name}.{item.target.id}" for item in node.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                       and item.target.id not in read]
    return sorted(unread)


def test_scan_flags_an_unread_field():
    record = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass R:\n    kept: int\n    dropped: int = 0\n"
              "@dataclass\nclass Whole:\n    x: int\n"
              "class Plain:\n    y: int\n")
    reader = "def use(r):\n    r.dropped = 1\n    return r.kept\n"
    assert unread_fields([record, reader]) == ["R.dropped", "Whole.x"]
    assert unread_fields([record, reader], {"Whole"}) == ["R.dropped"]


def test_every_record_field_is_read():
    assert unread_fields([m.read_text() for m in MODULES], WRITTEN_WHOLE) == []


def unread_methods(sources: list[str], readers: list[str]) -> list[str]:
    """Methods and properties of the classes defined in sources, as
    Class.name, whose name no source or reader reads: as an attribute, a
    name or a string constant (getattr).  Dunder methods are not scanned."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for tree in trees + [ast.parse(source) for source in readers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(f"{node.name}.{item.name}" for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body
                  if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (item.name.startswith("__") and item.name.endswith("__"))
                  and item.name not in read)


def test_scan_flags_an_unread_method():
    source = ("class C:\n    def __init__(self): self.kept()\n"
              "    def kept(self): pass\n    def dropped(self): pass\n"
              "    @property\n    def gone(self): pass\n"
              "    @classmethod\n    def by_name(cls): pass\n"
              "    def _private(self): return getattr(self, 'by_name')\n")
    reader = "def use(c):\n    return c._private\n"
    assert unread_methods([source], [reader]) == ["C.dropped", "C.gone"]
    assert unread_methods([source], []) == ["C._private", "C.dropped", "C.gone"]


def test_every_method_is_read():
    assert unread_methods([m.read_text() for m in MODULES],
                          [b.read_text() for b in BENCHMARK]) == []


def unread_exports(sources: dict[str, str], readers: list[str],
                   package: str = "muskat") -> list[str]:
    """Names in the __all__ of the package's modules (sources, by module
    name, the root as "__init__"), as module.name, that are not read under
    their own module: not read as a name inside it, not imported from it
    (from .m import X, from package.m import X, from package import X for
    the root) and not read off it (m.X, package.m.X) by a module of the
    package or a reader.  So an export that only tests use is flagged, and
    so is one that the package reads only through an import from another
    module, as a root re-export of a sibling's name.  A name that a reader
    defines itself does not count, even where it reads it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {(module, node.id) for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}

    def module_name(dotted: str) -> str:  # the package itself is the root
        return dotted[len(package) + 1:] or "__init__"

    for tree in list(trees.values()) + [ast.parse(source) for source in readers]:
        modules = {}  # the source's names for the package and its modules, dotted
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                origin = (".".join(filter(None, [package, node.module])) if node.level
                          else node.module or "")
                if origin.split(".")[0] != package:
                    continue
                for alias in node.names:
                    read.add((module_name(origin), alias.name))
                    modules[alias.asname or alias.name] = f"{origin}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == package:
                        modules[alias.asname or package] = alias.name if alias.asname else package
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                path, root = [], node.value
                while isinstance(root, ast.Attribute):
                    path.insert(0, root.attr)
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    read.add((module_name(".".join([modules[root.id]] + path)), node.attr))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in exported_names(tree) if (module, name) not in read)


def test_scan_flags_an_export_only_tests_read():
    module = ("__all__ = ['called', 'imported', 'read_off', 'deep', 'redefined', 'unread',\n"
              "           'inside']\n"
              "def called(): pass\ndef imported(): pass\ndef read_off(): pass\n"
              "def deep(): pass\ndef redefined(): pass\ndef unread(): pass\n"
              "def inside(): pass\ninside()\n")
    # the root re-exports a's called, which b reads only through its own
    # import from a, and exports one name of its own
    root = "from .a import called\ndef rooted(): pass\n__all__ = ['called', 'rooted']\n"
    package = {"__init__": root, "a": module, "b": "from .a import called\ncalled()\n"}
    reader = ("from pkg.a import imported\nimport pkg.a\nfrom pkg import a as mod\n"
              "def redefined(): pass\n"
              "imported(), mod.read_off(), pkg.a.deep(), redefined(), other.unread()\n"
              "pkg.rooted()\n")
    assert unread_exports(package, [reader], "pkg") == [
        "__init__.called", "a.redefined", "a.unread"]
    assert unread_exports(package, [], "pkg") == [
        "__init__.called", "__init__.rooted", "a.deep", "a.imported", "a.read_off",
        "a.redefined", "a.unread"]


def test_every_export_is_read_outside_tests():
    assert unread_exports({m.stem: m.read_text() for m in MODULES},
                          [b.read_text() for b in BENCHMARK]) == []


def dependency_gaps(sources: list[str], dependencies: list[str], test_extra: list[str],
                    package: str = "muskat") -> list[str]:
    """Where the third-party imports of sources (neither the standard library
    nor the package) disagree with the declared requirements: a module-level
    import that is no dependency, a dependency that no module imports at
    module level, and an import inside a function that is in neither the
    test extra nor the dependencies.  A requirement's distribution name is
    taken as its import name, as for numpy and scipy."""
    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}

    module_level, in_functions = set(), set()
    for source in sources:
        tree = ast.parse(source)
        deferred = {id(node) for f in ast.walk(tree)
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            for name in {name.split(".")[0] for name in imported}:
                if name != package and name not in sys.stdlib_module_names:
                    (in_functions if id(node) in deferred else module_level).add(name)
    dependencies, test_extra = names(dependencies), names(test_extra)
    return ([f"{n}: imported at module level, not a dependency"
             for n in sorted(module_level - dependencies)]
            + [f"{n}: a dependency that no module imports at module level"
               for n in sorted(dependencies - module_level)]
            + [f"{n}: imported in a function, not in the test extra"
               for n in sorted(in_functions - test_extra - dependencies)])


def test_scan_flags_a_dependency_gap():
    module = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from . import sibling\nfrom pkg.a import b\nfrom requests import get\n"
              "def f():\n    import scipy.sparse.linalg\n    from yaml import load\n"
              "    import numpy.linalg\n    import sys\n")
    other = "import numpy\nclass C:\n    def m(self):\n        import toml\n"
    assert dependency_gaps([module, other], ["NumPy>=1.24", "attrs"], ["scipy>=1.12", "toml"],
                           "pkg") == [
        "requests: imported at module level, not a dependency",
        "attrs: a dependency that no module imports at module level",
        "yaml: imported in a function, not in the test extra"]


def test_dependencies_are_the_module_level_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on; the package supports 3.10
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert dependency_gaps([m.read_text() for m in MODULES], project["dependencies"],
                           project["optional-dependencies"]["test"]) == []
