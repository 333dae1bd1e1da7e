import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
import time

import pytest

from blowup import catalog
from blowup.errors import InputError, SolverError
from blowup.harness import (
    AXIS_COST,
    AXIS_ERROR,
    InsufficientPoints,
    NoReference,
    StudyRow,
    StudyTable,
    UnknownMethod,
    emit_csv,
    emit_svg,
    fit_rate,
    reference_value,
    run_method,
    run_rd_study,
    run_study,
)
from blowup.integrate import StepBudgetExceeded
from blowup.problems import ScalarProblem
from blowup.stepping import Adaptive1D
from blowup.thresholds import FInverse
import blowup.harness as harness_mod


def _allow_cpus(monkeypatch, n):
    """Let the process run on n CPUs, so that a study of several cells runs in
    n worker processes, or in-process for n = 1, on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _assert_no_children():
    """No child process is left, live or zombie: there is nothing to wait for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFitRate:
    def test_exact_negative_slope(self):
        fit = fit_rate([(1.0, 1.0), (0.5, 2.0), (0.25, 4.0)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_positive_slope(self):
        assert fit_rate([(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)]).slope == pytest.approx(
            1.0, abs=1e-12
        )

    def test_half_slope(self):
        pts = [(1.0, 1.0), (0.5, 0.5**0.5), (0.25, 0.5)]
        assert fit_rate(pts).slope == pytest.approx(0.5, abs=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit_rate([(1.0, 1.0), (0.5, 2.0)])

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (0.5, 0.0), (0.25, 4.0)])


class TestRunStudy:
    def test_empty_methods(self):
        table = run_study("sq", [], [0.5, 0.25])
        assert table.rows == ()

    def test_grid_must_decrease(self):
        with pytest.raises(ValueError):
            run_study("sq", ["adaptive"], [0.25, 0.5])

    def test_errors_are_vs_exact_reference(self):
        grid = [2.0**-k for k in range(6, 10)]
        table = run_study("sq", ["adaptive"], grid)
        for row in table.rows:
            assert row.reference_kind == "exact"
            assert row.error == abs(row.tau_hat - 2.0)

    def test_error_decreases_within_noise_band(self):
        # adaptive error column is monotone decreasing up to a factor-3 band
        grid = [2.0**-k for k in range(6, 13)]
        table = run_study("sq", ["adaptive"], grid)
        errs = [r.error for r in table.method_rows("adaptive")]
        for earlier, later in zip(errs, errs[1:]):
            assert later <= 3.0 * earlier

    def test_failed_cell_recorded_not_fatal(self, monkeypatch):
        _allow_cpus(monkeypatch, 2)
        self._check_failed_cells()

    def test_failed_cell_recorded_not_fatal_in_process(self, monkeypatch):
        _allow_cpus(monkeypatch, 1)
        self._check_failed_cells()

    @staticmethod
    def _check_failed_cells():
        flat = catalog.CatalogEntry(
            id="flatline",
            problem=ScalarProblem(
                rhs=lambda x: 1.0,
                rhs_deriv=lambda x: 0.0,  # nonpositive derivative sinks the law
                x0=1.0,
                k=1.1,
                threshold=FInverse(lambda e: 1.0 / e),
            ),
            methods={"adaptive": Adaptive1D()},
            reference=catalog.Exact(1.0),
        )
        orig = catalog.get
        try:
            catalog.get = lambda pid, c=None, m=None: flat if pid == "flatline" else orig(pid, c=c, m=m)
            table = run_study("flatline", ["adaptive"], [0.5, 0.25, 0.125])
        finally:
            catalog.get = orig
        assert all(r.failed for r in table.rows)
        assert all("BracketFailure" in r.failed for r in table.rows)
        # UniformND needs r > e, and uncoupled's radius at eps = 0.2 is sqrt(5)
        (row,) = run_study("uncoupled", ["log-uniform"], [0.2]).rows
        assert row.failed.startswith("SolverError: uniform n-d law needs r > e")
        assert math.isnan(row.tau_hat) and row.steps == 0

    def test_unknown_method(self):
        known = "['adaptive', 'arclength', 'rescaling', 'taylor2', 'uniform']"
        with pytest.raises(UnknownMethod, match=re.escape(known)):
            run_method(catalog.get("sq"), "simulated-annealing", 0.1)
        with pytest.raises(UnknownMethod, match="'rescaling' not available for 'coupled'"):
            run_method(catalog.get("coupled"), "rescaling", 0.1)

    def test_studies_check_methods_before_any_run(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("a study ran work before checking its methods")

        monkeypatch.setattr(harness_mod, "_run_cells", ran)
        monkeypatch.setattr(harness_mod, "reference_value", ran)
        for entry, study in (
            (catalog.get("coupled"),
             lambda: run_study("coupled", ["adaptive", "bogus"], [2.0**-6, 2.0**-8])),
            (catalog.get("rd", m=32),
             lambda: run_rd_study("vary-eps", methods=("adaptive", "bogus"))),
        ):
            with pytest.raises(UnknownMethod) as caught:
                study()
            with pytest.raises(UnknownMethod) as direct:
                run_method(entry, "bogus", 0.1)
            assert str(caught.value) == str(direct.value)
            assert caught.value.__cause__ is None

    def test_studies_refuse_a_repeated_method(self, monkeypatch):
        # each cell of a repeated method would run twice and be fitted twice
        def ran(*args, **kwargs):
            raise AssertionError("a study ran work before checking its methods")

        monkeypatch.setattr(harness_mod, "_run_cells", ran)
        monkeypatch.setattr(harness_mod, "reference_value", ran)
        with pytest.raises(InputError, match="^methods given more than once: adaptive$"):
            run_study("xlog_c", ["adaptive", "adaptive"], [2.0**-k for k in range(3, 7)])
        with pytest.raises(InputError, match="^methods given more than once: uniform$"):
            run_rd_study("vary-m", methods=("uniform", "adaptive", "uniform"))

    @pytest.mark.parametrize("pid, methods, grid, eps_ref, ref_note", [
        ("coupled", ["adaptive", "alt"], [2.0**-k for k in range(6, 10)], 2.0**-12, False),
        # the reference at 2^-7 integrates to the capped radius, and a note says so
        ("slowlog_c", ["adaptive"], [2.0**-k for k in range(3, 6)], 2.0**-7, True),
    ], ids=["coupled", "slowlog_c"])
    def test_pooled_reference_matches_the_in_process_run(self, monkeypatch, pid, methods,
                                                         grid, eps_ref, ref_note):
        tables = []
        for cpus in (2, 1):
            _allow_cpus(monkeypatch, cpus)
            monkeypatch.setattr(harness_mod, "_REFERENCE_CACHE", {})
            tables.append(run_study(pid, methods, grid, eps_ref=eps_ref))
        pooled, serial = tables
        assert _rows_but_wall_time(pooled) == _rows_but_wall_time(serial)
        assert pooled.fitted == serial.fitted and pooled.notes == serial.notes
        _assert_no_children()
        monkeypatch.setattr(harness_mod, "_REFERENCE_CACHE", {})
        kind, value, notes = reference_value(catalog.get(pid), eps_ref=eps_ref)
        assert {(r.reference_kind, r.reference_value) for r in pooled.rows} == {(kind, value)}
        assert list(pooled.notes) == notes
        warning = f"pseudo reference at eps_ref = {eps_ref:g}: radius capped at 1e+250"
        assert [n.startswith(warning) for n in notes] == [False] + [True] * ref_note
        # a cached reference keeps its warnings
        assert run_study(pid, methods, grid, eps_ref=eps_ref).notes == pooled.notes

    @pytest.mark.parametrize("cpus", [2, 1], ids=["pool", "in-process"])
    def test_failed_reference_raises(self, monkeypatch, cpus):
        # a study cannot go on without its reference, so its SolverError is not a row
        _allow_cpus(monkeypatch, cpus)
        monkeypatch.setattr(harness_mod, "_REFERENCE_CACHE", {})
        real = harness_mod.run_method

        def no_reference(entry, method, eps, **kw):
            if eps == 2.0**-12:
                raise StepBudgetExceeded("injected at the reference")
            return real(entry, method, eps, **kw)

        monkeypatch.setattr(harness_mod, "run_method", no_reference)
        with pytest.raises(StepBudgetExceeded) as direct:
            reference_value(catalog.get("coupled"), eps_ref=2.0**-12)
        with pytest.raises(StepBudgetExceeded) as caught:
            run_study("coupled", ["adaptive"], [2.0**-6, 2.0**-7, 2.0**-8], eps_ref=2.0**-12)
        assert str(caught.value) == str(direct.value)
        assert harness_mod._REFERENCE_CACHE == {}
        _assert_no_children()

    def test_reference_is_one_more_cell_until_cached(self, monkeypatch):
        monkeypatch.setattr(harness_mod, "_REFERENCE_CACHE", {})
        real, seen = harness_mod._run_cells, []

        def spy(cells):
            seen.append(list(cells))
            return real(cells)

        monkeypatch.setattr(harness_mod, "_run_cells", spy)
        grid = [2.0**-6, 2.0**-7, 2.0**-8]
        study = [(m, e) for m in ("adaptive", "alt") for e in grid]
        for _ in range(2):
            run_study("coupled", ["adaptive", "alt"], grid, eps_ref=2.0**-12)
        first, cached = seen
        assert first[0] == ("coupled", None, None, None, 2.0**-12)
        assert [cell[3:] for cell in first[1:]] == study
        assert [cell[3:] for cell in cached] == study

    def test_missing_reference_raises_before_any_cell(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("a study ran cells without a reference")

        monkeypatch.setattr(harness_mod, "_run_cells", ran)
        with pytest.raises(NoReference):
            run_study("rd", ["adaptive"], [2.0**-6, 2.0**-7, 2.0**-8], m=4)

    def test_pseudo_reference_regenerates_bit_identically(self):
        entry = catalog.get("coupled")
        kind1, val1, _ = reference_value(entry, eps_ref=2.0**-10)
        harness_mod._REFERENCE_CACHE.clear()
        kind2, val2, _ = reference_value(entry, eps_ref=2.0**-10)
        assert (kind1, val1) == (kind2, val2)
        assert kind1 == "pseudo"

    def test_pseudo_reference_is_cached_per_entry(self):
        # same id and notes, different x0: b = x^2 blows up at 1/x0
        def entry(x0):
            problem = ScalarProblem(rhs=lambda x: x * x, rhs_deriv=lambda x: 2.0 * x, x0=x0,
                                    k=1.1, threshold=FInverse(lambda e: e ** -2.0))
            return catalog.CatalogEntry("mine", problem, {"adaptive": Adaptive1D()},
                                        catalog.Pseudo(2.0**-12))

        _, tau_half, _ = reference_value(entry(0.5))
        _, tau_quarter, _ = reference_value(entry(0.25))
        assert tau_half == pytest.approx(2.0, abs=1e-2)
        assert tau_quarter == pytest.approx(4.0, abs=1e-2)

    def test_pseudo_reference_needs_a_tolerance(self):
        # rd publishes no eps_ref: its reference is the finest run of the study at hand
        with pytest.raises(NoReference):
            reference_value(catalog.get("rd", m=4))

    def test_exact_reference_takes_no_tolerance(self):
        # an eps_ref would be ignored, so it is refused
        assert reference_value(catalog.get("sq")) == ("exact", 2.0, [])
        with pytest.raises(NoReference):
            reference_value(catalog.get("sq"), eps_ref=2.0**-20)


class TestRdStudy:
    def test_vary_m_schema(self):
        table = run_rd_study("vary-m", eps=2.0**-10, m_grid=[4, 8], methods=("adaptive",))
        assert [r.m for r in table.rows] == [4, 8]
        assert table.rows[0].succ_diff_log2 is None
        diff = abs(table.rows[1].tau_hat - table.rows[0].tau_hat)
        assert table.rows[1].succ_diff_log2 == pytest.approx(math.log2(diff), rel=1e-12)

    def test_vary_eps_reference_is_finest_run(self):
        grid = [2.0**-8, 2.0**-9, 2.0**-10]
        table = run_rd_study("vary-eps", m=4, eps_grid=grid, methods=("adaptive",))
        finest = table.rows[-1]
        assert finest.epsilon == 2.0**-10
        assert finest.error == 0.0
        for row in table.rows:
            assert row.reference_value == finest.tau_hat

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_rd_study("vary-all")

    @pytest.mark.parametrize("mode, kwargs, message", [
        ("vary-eps", dict(m=4, eps_grid=[2.0**-8, 2.0**-10, 2.0**-9]),
         "eps grid must be strictly decreasing"),
        ("vary-eps", dict(m=4, eps_grid=[2.0**-8, 2.0**-8]),
         "eps grid must be strictly decreasing"),
        ("vary-m", dict(eps=2.0**-9, m_grid=[8, 4, 4]), "m grid must be strictly increasing"),
        ("vary-m", dict(eps=2.0**-9, m_grid=[4, 8, 8]), "m grid must be strictly increasing"),
    ], ids=["eps-unordered", "eps-repeated", "m-unordered", "m-repeated"])
    def test_grid_out_of_order(self, mode, kwargs, message):
        # the finest run is the last and each difference is to the previous grid point
        with pytest.raises(InputError, match=message):
            run_rd_study(mode, methods=("adaptive",), **kwargs)

    def test_equal_successive_tau_gives_minus_infinity(self):
        # both radii fall below |x0|, so both runs are degenerate with tau_hat 0
        table = run_rd_study("vary-eps", m=4, eps_grid=[0.5, 0.25], methods=("adaptive",))
        assert [r.tau_hat for r in table.rows] == [0.0, 0.0]
        assert table.rows[0].succ_diff_log2 is None
        assert table.rows[1].succ_diff_log2 == -math.inf

    def test_failed_cell_recorded_not_fatal(self, monkeypatch):
        _allow_cpus(monkeypatch, 2)
        self._check_failed_cells(monkeypatch)

    def test_failed_cell_recorded_not_fatal_in_process(self, monkeypatch):
        _allow_cpus(monkeypatch, 1)
        self._check_failed_cells(monkeypatch)

    @staticmethod
    def _check_failed_cells(monkeypatch):
        real = harness_mod.run_method

        def flaky(entry, method, eps, **kw):
            if eps == 2.0**-9:
                raise StepBudgetExceeded("injected")
            return real(entry, method, eps, **kw)

        monkeypatch.setattr(harness_mod, "run_method", flaky)
        grid = [2.0**-8, 2.0**-9, 2.0**-10]
        table = run_rd_study("vary-eps", m=4, eps_grid=grid, methods=("adaptive",))
        ok1, bad, ok2 = table.rows
        assert bad.failed == "StepBudgetExceeded: injected"
        assert math.isnan(bad.tau_hat) and bad.steps == 0
        assert not ok1.failed and not ok2.failed
        assert ok2.reference_value == ok2.tau_hat and ok2.error == 0.0
        assert bad.succ_diff_log2 is None and ok2.succ_diff_log2 is None


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs available, so that a study of several cells starts two workers
    on any host."""
    _allow_cpus(monkeypatch, 2)


def _rows_but_wall_time(table):
    # repr, so that NaN fields of failed rows and vary-m references compare equal
    return [repr(dataclasses.replace(r, wall_ns=0)) for r in table.rows]


@pytest.mark.usefixtures("two_cpus")
class TestCellWorkers:
    @pytest.mark.parametrize("study, args, kwargs", [
        (run_study, ("sq", ["adaptive", "taylor2", "uniform"],
                     [2.0**-k for k in range(6, 11)]), {}),
        # log-uniform fails at 2^-1 and 2^-2: the radius lies below e
        (run_study, ("uncoupled", ["adaptive", "uniform", "log-uniform"],
                     [2.0**-k for k in range(1, 6)]), {}),
        (run_rd_study, ("vary-eps",), dict(m=8, eps_grid=[2.0**-k for k in range(8, 12)])),
        (run_rd_study, ("vary-m",), dict(eps=2.0**-9, m_grid=[4, 8, 16],
                                         methods=("adaptive",))),
    ], ids=["sq", "uncoupled", "rd-vary-eps", "rd-vary-m"])
    def test_rows_match_the_in_process_run(self, monkeypatch, study, args, kwargs):
        pooled = study(*args, **kwargs)
        _allow_cpus(monkeypatch, 1)
        serial = study(*args, **kwargs)
        assert _rows_but_wall_time(pooled) == _rows_but_wall_time(serial)
        assert pooled.fitted == serial.fitted and pooled.notes == serial.notes
        assert any(r.failed for r in serial.rows) == (args[0] == "uncoupled")
        _assert_no_children()

    def test_other_errors_reach_the_caller(self, monkeypatch):
        real = harness_mod.run_method

        def broken(entry, method, eps, **kw):
            if eps == 2.0**-7:
                raise ZeroDivisionError("injected")
            return real(entry, method, eps, **kw)

        monkeypatch.setattr(harness_mod, "run_method", broken)
        with pytest.raises(ZeroDivisionError, match="injected") as exc:
            run_study("sq", ["adaptive", "uniform"], [2.0**-k for k in range(5, 9)])
        # raised in a worker: the worker's traceback text is the cause
        cause = str(exc.value.__cause__)
        assert "in broken" in cause and "ZeroDivisionError: injected" in cause
        _assert_no_children()

    @pytest.mark.parametrize("how, status", [
        (lambda: os._exit(9), "wait status 2304: exit code 9"),
        (lambda: os.kill(os.getpid(), 9), "wait status 9: SIGKILL"),
    ], ids=["exit", "killed"])
    def test_lost_worker_is_a_solver_error(self, monkeypatch, how, status):
        real = harness_mod.run_method

        def dies(entry, method, eps, **kw):
            if (method, eps) == ("adaptive", 2.0**-7):
                how()
            return real(entry, method, eps, **kw)

        monkeypatch.setattr(harness_mod, "run_method", dies)
        with pytest.raises(harness_mod.WorkerLost) as exc:
            run_study("sq", ["adaptive", "uniform"], [2.0**-k for k in range(5, 9)])
        assert isinstance(exc.value, SolverError)
        assert str(exc.value) == ("the worker of cell ('sq', None, None, 'adaptive', 0.0078125) "
                                  f"ended without its result ({status})")
        _assert_no_children()

    @pytest.mark.parametrize("failure", ["cell", "caller"])
    def test_a_failure_ends_the_study_at_once(self, monkeypatch, failure):
        # the cell at 2^-8 starts first and sleeps; the one at 2^-7 raises in its worker,
        # or ends at once and the caller is interrupted as it hands out the next cell
        real_run, real_hand_out = harness_mod.run_method, harness_mod._hand_out
        handed = []

        def slow_or_broken(entry, method, eps, **kw):
            if eps == 2.0**-8:
                time.sleep(30)
            if failure == "cell" and eps == 2.0**-7:
                raise ZeroDivisionError("injected")
            return real_run(entry, method, eps, **kw)

        def interrupted(sel, key, order):
            handed.append(key)
            if len(handed) > 2:
                raise KeyboardInterrupt
            real_hand_out(sel, key, order)

        monkeypatch.setattr(harness_mod, "run_method", slow_or_broken)
        if failure == "caller":
            monkeypatch.setattr(harness_mod, "_hand_out", interrupted)
        start = time.monotonic()
        with pytest.raises(ZeroDivisionError if failure == "cell" else KeyboardInterrupt) as exc:
            run_study("sq", ["adaptive"], [2.0**-k for k in range(5, 9)])
        assert time.monotonic() - start < 10
        if failure == "cell":
            assert str(exc.value) == "injected"
            assert "ZeroDivisionError: injected" in str(exc.value.__cause__)
        _assert_no_children()

    def test_bad_m_raises_in_the_caller(self):
        # every entry is looked up before the first cell, so no worker starts
        with pytest.raises(catalog.UnknownId, match="rd needs m >= 2") as exc:
            run_rd_study("vary-m", eps=2.0**-9, m_grid=[1, 4], methods=("adaptive",))
        assert exc.value.__cause__ is None
        _assert_no_children()


def test_pooled_study_imports_no_pool_module():
    # the workers are forked with os alone: neither pool module is loaded
    script = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
real_fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or real_fork()
from blowup.harness import run_study
run_study("sq", ["adaptive"], [2.0**-k for k in range(5, 9)])
print(len(forks), sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "2 []\n"


class TestCellWorkerCount:
    """The worker count, computed without starting any process."""

    def test_capped_at_cells(self, monkeypatch):
        _allow_cpus(monkeypatch, 4)
        assert harness_mod._cell_workers(10) == 4
        assert harness_mod._cell_workers(3) == 3
        assert harness_mod._cell_workers(1) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert harness_mod._cell_workers(10) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness_mod._cell_workers(10) == 1


class TestEmission:
    def test_csv_round_trip_and_determinism(self, tmp_path):
        grid = [2.0**-k for k in range(5, 9)]
        table = run_study("sq", ["adaptive"], grid)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, str(p1))
        emit_csv(table, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().split("\n")
        header = lines[0].split(",")
        for line, row in zip(lines[1:], table.rows):
            cells = dict(zip(header, line.split(",")))
            assert float(cells["epsilon"]) == row.epsilon
            assert float(cells["tau_hat"]) == row.tau_hat
            assert float(cells["error"]) == row.error
            assert int(cells["steps"]) == row.steps

    def test_failed_column_holds_the_reason(self, tmp_path):
        reason = 'SolverError: needs r > e, got 2.5 at eps = "0.15"'
        good = StudyRow("sq", "adaptive", 0.25, 1.5, 7, 0.5, "exact", 2.0, 11)
        bad = StudyRow("sq", "uniform", 0.25, math.nan, 0, math.nan, "exact", 2.0, 0,
                       failed=reason)
        path = tmp_path / "t.csv"
        emit_csv(StudyTable(rows=(good, bad)), str(path))
        lines = path.read_text().split("\n")
        assert lines[0].endswith(",wall_ns,failed,warnings")
        assert lines[1].endswith(",11,,")
        assert lines[2].endswith(',0,"SolverError: needs r > e, got 2.5 at eps = ""0.15""",')
        with open(path, newline="") as fh:
            assert [row["failed"] for row in csv.DictReader(fh)] == ["", reason]

    @pytest.mark.parametrize("cpus", [2, 1], ids=["pool", "in-process"])
    def test_capped_cells_carry_their_warning(self, tmp_path, monkeypatch, cpus):
        # xlog_c's radius exp((c eps)^(-1/c)) passes the cap from eps = 2^-4 at c = 1/2
        _allow_cpus(monkeypatch, cpus)
        grid = [2.0**-k for k in range(2, 6)]
        table = run_study("xlog_c", ["adaptive"], grid)
        entry = catalog.get("xlog_c")
        for row, eps in zip(table.rows, grid):
            res = run_method(entry, "adaptive", eps)
            assert (row.tau_hat, row.steps) == (res.tau_hat, res.steps)
            assert row.warnings == "; ".join(res.warnings)
        assert [r.warnings.startswith("radius capped at 1e+250") for r in table.rows] == [
            False, False, True, True]
        assert table.notes == (
            "adaptive: its slopes are fitted over 2 cells at the capped radius 1e+250",)
        path = tmp_path / "x.csv"
        emit_csv(table, str(path))
        with open(path, newline="") as fh:
            assert [row["warnings"] for row in csv.DictReader(fh)] == [
                r.warnings for r in table.rows]

    def test_uncapped_study_has_an_empty_warnings_column(self, tmp_path):
        grid = [2.0**-k for k in range(5, 9)]
        table = run_study("sq", ["adaptive"], grid)
        entry = catalog.get("sq")
        for row, eps in zip(table.rows, grid):
            res = run_method(entry, "adaptive", eps)
            assert (row.tau_hat, row.steps, row.warnings) == (res.tau_hat, res.steps, "")
        assert table.notes == ()
        path = tmp_path / "sq.csv"
        emit_csv(table, str(path))
        with open(path, newline="") as fh:
            assert [row["warnings"] for row in csv.DictReader(fh)] == [""] * len(grid)

    def test_rd_csv_has_extra_columns(self, tmp_path):
        table = run_rd_study("vary-m", eps=2.0**-8, m_grid=[4, 8], methods=("adaptive",))
        path = tmp_path / "rd.csv"
        emit_csv(table, str(path))
        header = path.read_text().split("\n")[0]
        assert header.endswith(",m,succ_diff_log2")

    def test_svg_empty_table_is_error(self, tmp_path):
        from blowup.harness import StudyTable

        path = tmp_path / "plot.svg"
        with pytest.raises(ValueError):
            emit_svg(StudyTable(rows=()), str(path))
        assert not path.exists()

    def test_svg_contains_series_and_slopes(self, tmp_path):
        grid = [2.0**-k for k in range(5, 9)]
        table = run_study("sq", ["adaptive", "uniform"], grid)
        path = tmp_path / "plot.svg"
        emit_svg(table, str(path), AXIS_ERROR)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "adaptive (slope" in text and "uniform (slope" in text
        assert text.count("<circle") == len(table.rows)
        emit_svg(table, str(tmp_path / "cost.svg"), AXIS_COST)
        assert "log2(steps)" in (tmp_path / "cost.svg").read_text()
