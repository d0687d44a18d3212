"""Every exported name resolves, so a deletion cannot leave a dangling
entry in ``equicut.__all__`` or in a submodule's ``__all__``."""

import importlib
import pkgutil

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
