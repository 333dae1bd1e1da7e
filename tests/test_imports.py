"""Each blowup module imports on its own, whatever order the package uses,
every name that perfbench's tracer wraps exists and is restored after the
tracer is removed, and every error the package defines is either an input
error or a solver error.

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
    # perfbench --trace 1 replaces each (module, attribute) pair of SPAN_TARGETS, and
    # wraps linalg.spectral_norm and expr.evaluate in counters, which the probe also
    # patches and calls; it fails with AttributeError on a name that is gone. So each
    # name must exist, be replaced while a tracer is installed and be the original
    # again once it is removed. tracing.py needs only the standard library, so it
    # loads here by path.
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [*tracing.SPAN_TARGETS, ("blowup.linalg", "spectral_norm"),
               ("blowup.expr", "evaluate")]
    missing = [f"{module}.{name}" for module, name in targets
               if not hasattr(importlib.import_module(module), name)]
    assert tracing.SPAN_TARGETS and not missing

    def current():
        return [getattr(importlib.import_module(module), name) for module, name in targets]

    before = current()
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        during = current()
    finally:
        tracer.uninstall()
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(current(), before))


def test_every_error_is_an_input_or_a_solver_error():
    # the CLI maps InputError to exit 1 and SolverError to exit 3 and catches nothing
    # else, so an error class outside both, or a bare ValueError, escapes as a traceback
    from blowup.errors import BlowupError, InputError, SolverError

    bases = (BlowupError, InputError, SolverError)
    errors = [cls for module in MODULES
              for cls in vars(importlib.import_module(f"blowup.{module}")).values()
              if isinstance(cls, type) and issubclass(cls, BaseException)
              and cls.__module__ == f"blowup.{module}" and cls not in bases]
    assert errors
    for cls in errors:
        assert issubclass(cls, InputError) != issubclass(cls, SolverError), cls
    raising = [p.name for p in (SRC / "blowup").glob("*.py")
               if "raise ValueError(" in p.read_text()]
    assert not raising


def test_one_function_builds_every_run_record():
    # integrate.run_record builds every solver's RunResult, baselines included, so
    # a field or meta key added to the record reaches every run from one place
    built = {p.name: p.read_text().count("RunResult(") for p in (SRC / "blowup").glob("*.py")}
    assert {name: n for name, n in built.items() if n} == {"integrate.py": 1}


def test_planar_catalog_fields_carry_their_trees():
    # solve_nd computes a planar field inline only when its rhs and dense Jacobian
    # carry their trees, and every planar field of the catalog does
    from blowup import catalog

    planar = [catalog.get(pid) for pid in catalog.IDS if getattr(catalog.get(pid).problem, "dim", 1) == 2]
    untreed = [entry.id for entry in planar
               if not (hasattr(entry.problem.rhs, "tree")
                       and hasattr(entry.problem.jacobian.dense, "tree"))]
    assert len(planar) == 3 and untreed == []


def test_planar_norm_texts_name_no_numpy_object():
    # solve_nd's inline planar loop and linalg's float-pair functions run the texts
    # SN_2X2 and PAIR_NORM in the names of TEXT_NAMES, so a planar state stays on
    # Python floats only while every free name of the texts is a math function or a
    # float: a numpy name there would turn a pair back into an array
    import ast
    import math

    from blowup import linalg

    locals_ = {"j11", "j12", "j21", "j22", "s", "a", "b"}
    for text in (linalg.SN_2X2, linalg.PAIR_NORM.format("a", "b")):
        names = {n.id for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Name)}
        assert names - locals_ <= set(linalg.TEXT_NAMES), text
    assert all(isinstance(v, float) or v is getattr(math, k, None)
               for k, v in linalg.TEXT_NAMES.items())


@pytest.mark.parametrize("trees", [True, False], ids=["trees", "called"])
def test_planar_loops_bind_no_numpy(trees):
    # solve_nd runs a planar state, whether its field carries trees or is called,
    # as two float locals with ||J(x)|| and the norms inline; _compile binds every
    # name a loop's text may read as a keyword default, so a planar loop that binds
    # neither linalg nor np can reach no array and no spectral_norm
    from blowup import catalog, integrate, stepping

    problem = catalog.get("coupled").problem
    fields = (problem.rhs, problem.jacobian.dense) if trees else ()
    for law in stepping.LAWS_ND:
        for trace in (False, True):
            loop = integrate._loop_nd(law, True, False, trace, *fields)
            assert {"linalg", "np"}.isdisjoint(loop.__kwdefaults__), (law, trace)
