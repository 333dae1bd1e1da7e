"""Golden cell table: the exact result of every catalog method at two coarse
tolerances, and of the planar cells below, so that a refactor's
"bit-identical" claim is checked, not stated.

Each cell is (tau_hat.hex(), steps), plus n_guess and outer_iterations for the
implicit-N runs of slowlog_c, or the name of the error the run raises. A change
that moves a cell on purpose rewrites the table in the same commit and lists
each moved cell, with its ulp distance, in CHANGES.md. Norms of ndarray states
go through numpy's dot, whose rounding of a sum of squares depends on the BLAS
build (fused multiply-adds on some), so the cells that take them, such as the
rd cells, may move by an ulp on another host.

Regenerate the table with

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import pathlib

import pytest

from blowup import catalog
from blowup.errors import BlowupError
from blowup.harness import run_method

TABLE = pathlib.Path(__file__).with_name("golden_cells.json")
EPS_LOG2 = (4, 6)
# rd at its planar size and at a small grid; the default m = 32 adds time, not paths.
# Its start has |x0| = 100 sqrt(m/2), above the radius 1/eps at 2^-4 and 2^-6, where
# every run takes 0 steps, so its cells run at two finer tolerances.
RD_SIZES = (3, 8)
RD_EPS_LOG2 = (8, 10)
# (id, method, log2(1/eps)) of planar runs at finer tolerances, which take solve_nd's
# float-pair path over longer trajectories; uncoupled/uniform/2^-6 belongs with them
# and is already in the grid above.
PLANAR_CELLS = (
    ("coupled", "adaptive", 10),
    ("coupled", "uniform", 8),
    ("uncoupled", "adaptive", 10),
    ("uncoupled", "log-uniform", 8),
    ("slowlog_c", "adaptive", 5),
    ("coupled", "alt", 7),
    ("coupled", "alt", 12),
    ("uncoupled", "alt", 10),
)


def _entries():
    for pid in catalog.list_ids():
        if pid == "rd":
            for m in RD_SIZES:
                yield f"rd({m})", catalog.get(pid, m=m), RD_EPS_LOG2
        else:
            yield pid, catalog.get(pid), EPS_LOG2


def cells():
    """(key, entry, method, eps) for every cell of the table, in table order."""
    out = []
    for name, entry, eps_log2 in _entries():
        for method in entry.methods:
            for k in eps_log2:
                out.append((f"{name}/{method}/2^-{k}", entry, method, 2.0**-k))
    for pid, method, k in PLANAR_CELLS:
        out.append((f"{pid}/{method}/2^-{k}", catalog.get(pid), method, 2.0**-k))
    return out


def outcome(entry, method, eps):
    """The table value of one cell: what the run gives, or its error type."""
    try:
        res = run_method(entry, method, eps)
    except BlowupError as exc:
        return type(exc).__name__
    value = [res.tau_hat.hex(), res.steps]
    if "n_guess" in res.meta:
        value += [res.meta["n_guess"], res.meta["outer_iterations"]]
    return value


CELLS = cells()


@pytest.fixture(scope="module")
def golden():
    return json.loads(TABLE.read_text())


def test_table_covers_every_cell(golden):
    assert list(golden) == [key for key, *_ in CELLS]


@pytest.mark.parametrize("key, entry, method, eps", CELLS, ids=[c[0] for c in CELLS])
def test_cell_matches_table(golden, key, entry, method, eps):
    assert outcome(entry, method, eps) == golden[key]


if __name__ == "__main__":
    rows = [f"  {json.dumps(key)}: {json.dumps(outcome(entry, method, eps))}"
            for key, entry, method, eps in CELLS]
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(rows)} cells to {TABLE}")
