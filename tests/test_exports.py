"""Every exported name resolves, so no deleted name stays in an __all__."""
import importlib
import pkgutil

import pytest

import cauchybures

MODULES = ["cauchybures"] + [f"cauchybures.{m.name}" for m in
                             pkgutil.iter_modules(cauchybures.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing

