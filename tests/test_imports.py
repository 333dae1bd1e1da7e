"""Each blowup module imports on its own, whatever order the package uses.

Importing ``blowup.<module>`` normally runs the package's ``__init__`` first,
which fixes one import order and can hide a cycle between two modules. Each
check below registers the package without running ``__init__`` and then
imports one module in a fresh interpreter, so a module that only imports when
another one happens to be loaded first fails here.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "blowup").glob("*.py") if p.stem != "__init__")

ALONE = """
import importlib, importlib.util, sys, types
spec = importlib.util.find_spec("blowup")
package = types.ModuleType("blowup")
package.__path__ = list(spec.submodule_search_locations)
sys.modules["blowup"] = package
importlib.import_module("blowup." + sys.argv[1])
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, "-c", ALONE, module], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
