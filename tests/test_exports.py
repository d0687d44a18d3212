"""Every exported name resolves, so a deletion cannot leave a dangling
entry in ``equicut.__all__`` or in a submodule's ``__all__``; and every
imported name is used or exported, so a deletion cannot leave a dead
import behind."""

import ast
import importlib
import pkgutil
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
