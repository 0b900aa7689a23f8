"""Every name a tumorhs module lists in __all__ exists in it."""

import importlib
import pkgutil

import pytest

import tumorhs

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(tumorhs.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"tumorhs.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"tumorhs.{name}.__all__ names missing members: {missing}"
