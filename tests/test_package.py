import importlib
import pkgutil

import pytest

import g2fueter

MODULES = ["g2fueter"] + sorted(f"g2fueter.{m.name}" for m in pkgutil.iter_modules(g2fueter.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deletion must take its __all__ entry with it
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
