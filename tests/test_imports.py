"""Each blowup module imports on its own, whatever order the package uses, and
every name that perfbench's tracer wraps exists.

Importing ``blowup.<module>`` normally runs the package's ``__init__`` first,
which fixes one import order and can hide a cycle between two modules. Each
check below registers the package without running ``__init__`` and then
imports one module in a fresh interpreter, so a module that only imports when
another one happens to be loaded first fails here.
"""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


def test_tracer_span_targets_resolve():
    # perfbench --trace 1 replaces each (module, attribute) pair of SPAN_TARGETS and
    # fails with AttributeError on a name that is gone; tracing.py needs only the
    # standard library, so it loads here by path
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name in tracing.SPAN_TARGETS
               if not hasattr(importlib.import_module(module), name)]
    assert tracing.SPAN_TARGETS and not missing
