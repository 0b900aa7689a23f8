"""Every name a tumorhs module lists in __all__ exists in it, and importing
the package stays cheap."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_importing_every_module_leaves_scipy_fft_unloaded():
    # scipy.fft takes about a tenth of a second to import and only the 2D
    # nutrient solver needs it, so it is imported there, not at module level
    src = str(pathlib.Path(tumorhs.__file__).resolve().parent.parent)
    code = ("import importlib, sys\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module('tumorhs.' + name)\n"
            "print('scipy.fft' in sys.modules)\n"
            "from tumorhs import grid, solver\n"
            "solver._NutrientSolver(grid.Grid.symmetric(2, 1.0, 8))\n"
            "print('scipy.fft' in sys.modules)\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
