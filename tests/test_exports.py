"""Every exported name resolves, so a deletion cannot leave a dangling
entry in ``equicut.__all__`` or in a submodule's ``__all__``; and every
imported name is used or exported, and every private helper and constant
in src is referenced, so a deletion cannot leave a dead import, helper or
constant behind."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import equicut

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(equicut.__path__) if not info.name.startswith("_")
)


def test_every_module_is_covered():
    assert {"exact", "intervals", "geom", "trispace", "relations", "search"} <= set(MODULES)


@pytest.mark.parametrize("name", ["equicut"] + [f"equicut.{m}" for m in MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in (ROOT / "src" / "equicut", ROOT / "tests", ROOT / "demos")
    for path in folder.glob("*.py")
)


def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    assert len(SOURCES) > 30
    unused = {str(p.relative_to(ROOT)): _unused_imports(p) for p in SOURCES}
    assert {path: names for path, names in unused.items() if names} == {}


SRC = sorted((ROOT / "src" / "equicut").glob("*.py"))


def _references(tree: ast.AST) -> Counter:
    """How often each name is read, imported or used as an attribute."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
    return refs


def _private_definitions(tree: ast.Module):
    """The functions, classes and methods at module or class level whose
    names have one leading underscore."""
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                yield node


def test_no_orphaned_private_helpers():
    """Every private helper in src/equicut is referenced outside its own
    body, so a deleted code path cannot leave its helpers behind."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in _private_definitions(tree)
        if refs[node.name] == _references(node)[node.name]
    ]
    assert len(SRC) > 10
    assert orphans == []


def _private_bindings(tree: ast.Module):
    """The names with one leading underscore that a module-level assignment
    binds, each with its binding statement."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (
                    isinstance(name, ast.Name)
                    and name.id.startswith("_")
                    and not name.id.startswith("__")
                ):
                    yield name.id, node


def test_no_orphaned_private_constants():
    """Every private module-level name bound by assignment in src/equicut
    is referenced in its module outside its binding, or imported by another
    module, so a deleted code path cannot leave its constants behind."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC}
    imported = {
        node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.alias)
    }
    bindings = [(path, name, node) for path in SRC for name, node in _private_bindings(trees[path])]
    local = {path: _references(tree) for path, tree in trees.items()}
    orphans = [
        f"{path.name}:{node.lineno} {name}"
        for path, name, node in bindings
        if local[path][name] == _references(node)[name] and name not in imported
    ]
    assert len(bindings) >= 20
    assert orphans == []


def _environment_reads(tree: ast.AST) -> list[int]:
    """The lines that read ``os.environ`` or ``os.getenv``, or import
    either from ``os``."""
    names = {"environ", "getenv"}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in names
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(alias.name in names for alias in node.names)
        )
    )


def test_no_environment_configuration():
    """The library reads no environment variable: its behaviour is set by
    arguments alone, never by ambient process state."""
    reads = {path.name: _environment_reads(ast.parse(path.read_text(), str(path))) for path in SRC}
    assert len(SRC) > 10
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_vector_signs_have_one_home():
    """``_fsign`` and ``_ORIGIN`` are named only in geom.py: any other module
    takes a vector sign from ``orientation`` or ``AngleVec``, so each sign
    is decided by one path."""
    names = ("_fsign", "_ORIGIN")
    refs = {path.name: _references(ast.parse(path.read_text(), str(path))) for path in SRC}
    assert all(refs["geom.py"][name] > 1 for name in names)
    outside = {path: [n for n in names if r[n]] for path, r in refs.items() if path != "geom.py"}
    assert {path: found for path, found in outside.items() if found} == {}
