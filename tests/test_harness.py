import math
import re

import pytest

from blowup import catalog
from blowup.harness import (
    AXIS_COST,
    AXIS_ERROR,
    InsufficientPoints,
    NoReference,
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

    def test_failed_cell_recorded_not_fatal(self):
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

    def test_unknown_method(self):
        known = "['adaptive', 'arclength', 'rescaling', 'taylor2', 'uniform']"
        with pytest.raises(UnknownMethod, match=re.escape(known)):
            run_method(catalog.get("sq"), "simulated-annealing", 0.1)
        with pytest.raises(UnknownMethod, match="'rescaling' not available for 'coupled'"):
            run_method(catalog.get("coupled"), "rescaling", 0.1)

    def test_pseudo_reference_regenerates_bit_identically(self):
        entry = catalog.get("coupled")
        kind1, val1, _ = reference_value(entry, eps_ref=2.0**-10)
        harness_mod._REFERENCE_CACHE.clear()
        kind2, val2, _ = reference_value(entry, eps_ref=2.0**-10)
        assert (kind1, val1) == (kind2, val2)
        assert kind1 == "pseudo"

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

    def test_equal_successive_tau_gives_minus_infinity(self):
        # both radii fall below |x0|, so both runs are degenerate with tau_hat 0
        table = run_rd_study("vary-eps", m=4, eps_grid=[0.5, 0.25], methods=("adaptive",))
        assert [r.tau_hat for r in table.rows] == [0.0, 0.0]
        assert table.rows[0].succ_diff_log2 is None
        assert table.rows[1].succ_diff_log2 == -math.inf

    def test_failed_cell_recorded_not_fatal(self, monkeypatch):
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
