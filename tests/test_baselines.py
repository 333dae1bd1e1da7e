import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from blowup import catalog
from blowup.baselines import (
    InvalidParameter,
    _arc_rhs,
    solve_arclength,
    solve_rescaling_1d,
)
from blowup.harness import run_method
from blowup.integrate import SolverConfig, StepBudgetExceeded, solve_1d
from blowup.problems import InvalidProblem
from blowup.thresholds import ExplicitRadius


@pytest.fixture(scope="module")
def sq():
    return catalog.get("sq").problem


@pytest.mark.parametrize("pid", ["sq", "uncoupled"])
def test_every_record_names_its_method_type(pid):
    # the baselines return through integrate.run_record as the Euler solvers do
    entry = catalog.get(pid)
    for method, law in entry.methods.items():
        res = run_method(entry, method, 2.0**-6)
        assert res.meta["law"] == type(law).__name__ and "method" not in res.meta


class TestArclength:
    def test_sq_accuracy_and_cost(self, sq):
        eps = 2.0**-10
        res = solve_arclength(sq, eps, rk_tol=1e-10)
        assert abs(res.tau_hat - 2.0) <= 10.0 * eps
        assert res.steps < solve_1d(sq, eps).steps

    def test_stops_at_first_accepted_crossing(self, sq):
        res = solve_arclength(sq, 2.0**-8, rk_tol=1e-10)
        assert res.final_state >= res.radius_used

    def test_loose_rk_tolerance_still_terminates(self, sq):
        res = solve_arclength(sq, 2.0**-16, rk_tol=1e-2)
        assert math.isfinite(res.tau_hat)
        assert abs(res.tau_hat - 2.0) <= 0.05  # accuracy limited by rk_tol, not eps

    def test_degraded_on_slow_growth(self):
        # qualitative only: the slow log-growth field lacks the power-law form
        # the arc-length method favors, but runs must still complete
        prob = catalog.get("xlog_c", c=0.5).problem
        res = solve_arclength(prob, 0.1, rk_tol=1e-8)
        assert math.isfinite(res.tau_hat) and res.tau_hat > 0

    def test_overflowing_start_warns_nothing(self, sq):
        # |(x0, t0)|^2 = 1e320 overflows float64 in the two norms taken before the loop
        prob = dataclasses.replace(sq, x0=1e160, threshold=ExplicitRadius(lambda e: 1.0 / e))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_arclength(prob, 2.0**-6, rk_tol=1e-10)
        assert res.steps == 0 and res.tau_hat == 0.0 and res.final_state == 1e160

    def test_negative_start_is_rejected_not_estimated(self, sq):
        # an arc-length run from x0 = -1 returned tau_hat = 0.0 with no warning
        with pytest.raises(InvalidProblem, match=r"^x0 must be positive, got -1.0$"):
            solve_arclength(dataclasses.replace(sq, x0=-1.0), 2.0**-8, rk_tol=1e-10)

    def test_vector_problem(self):
        prob = catalog.get("uncoupled").problem
        eps = 2.0**-8
        res = solve_arclength(prob, eps, rk_tol=1e-10)
        assert abs(res.tau_hat - 0.25) <= 10.0 * eps

    def test_unit_speed_field(self, sq):
        uncoupled = catalog.get("uncoupled").problem
        wrap = lambda x: np.array([sq.rhs(float(x[0]))])
        for y in (np.array([0.5, 0.0]), np.array([100.0, 1.9])):
            out = _arc_rhs(wrap, y)
            assert abs(float(out @ out) - 1.0) < 1e-12
        for y in (np.array([1.5, 1.1, 0.0]), np.array([40.0, 2.0, 0.2])):
            out = _arc_rhs(uncoupled.rhs, y)
            assert abs(float(out @ out) - 1.0) < 1e-12
        # (b, 1) / hypot(1, |b|) has unit norm by construction, over |b| from 1e-300
        # to just below the float64 ceiling, where |b|^2 alone would overflow
        rng = np.random.default_rng(5)
        with np.errstate(over="ignore"):  # as solve_arclength calls it
            for dim in (1, 2, 3, 31):
                for _ in range(300):
                    b = rng.normal(size=dim) * 10.0 ** rng.uniform(-300.0, 300.0, size=dim)
                    top = 1.7e308 / math.sqrt(dim) * rng.uniform(0.5, 1.0, size=dim)
                    for state in (b, top * np.sign(rng.normal(size=dim))):
                        out = _arc_rhs(lambda x: x, np.append(state, 0.0))
                        assert abs(float(out @ out) - 1.0) < 1e-12

    def test_deterministic(self, sq):
        a = solve_arclength(sq, 2.0**-10, rk_tol=1e-10)
        b = solve_arclength(sq, 2.0**-10, rk_tol=1e-10)
        assert a.tau_hat == b.tau_hat and a.steps == b.steps


class TestRescaling:
    def test_first_order_accuracy(self):
        eps = 2.0**-10
        res = solve_rescaling_1d(2.0, 0.5, 4.0, eps)
        assert abs(res.tau_hat - 2.0) <= 50.0 * eps

    def test_cycle_count_logarithmic(self):
        for k in (6, 10, 14):
            eps = 2.0**-k
            res = solve_rescaling_1d(2.0, 0.5, 4.0, eps)
            assert res.meta["cycles"] <= 3.0 * k

    def test_rescaled_cycles_are_self_similar(self):
        res = solve_rescaling_1d(2.0, 0.5, 4.0, 2.0**-8)
        times = res.meta["cycle_times"][1:]  # cycle 0 starts from x0, the rest from 1
        assert len(times) >= 2
        for t in times[1:]:
            assert t == pytest.approx(times[0], rel=1e-6)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidParameter):
            solve_rescaling_1d(1.0, 0.5, 4.0, 0.01)

    def test_threshold_must_exceed_start(self):
        with pytest.raises(ValueError):
            solve_rescaling_1d(2.0, 5.0, 4.0, 0.01)

    @pytest.mark.parametrize("M", [0.5, 1.0, math.inf, math.nan, 1e300])
    def test_threshold_out_of_range(self, M):
        # M = inf gave h = 0 and a loop that never ended; 1e300^2 overflows
        with pytest.raises(InvalidParameter):
            solve_rescaling_1d(2.0, 0.5, M, 0.01)

    @pytest.mark.parametrize("p, x0, M, eps, cfg, match", [
        # about 6e9 cycles of at least one step each: over the 2^30 default budget
        (2.0, 0.5, 1.000000001, 2.0**-8, None, "cycles exceed"),
        # h ~ 1.2e-17 leaves y = 0.5 where it is, as x0^p h is below half an ulp:
        # cycle 0's exact time 1.75 is about 1.4e17 steps of h
        (2.0, 0.5, 4.0, 2.0**-50, SolverConfig(max_steps=1000),
         r"^cycle 0 takes at least 3.55e\+16 steps"),
        # x0^(1-p) = 1e600 is past float64, and y^p = 1e-900 underflows to 0
        (3.0, 1e-300, 4.0, 2.0**-8, SolverConfig(max_steps=1000),
         "^cycle 0 takes at least inf steps"),
        # 2 / ((p - 1) eps) overflows at a subnormal eps, so the estimate is inf
        (2.0, 0.5, 4.0, 1e-310, None, "^about inf cycles exceed"),
    ], ids=["cycles", "cycle-0", "cycle-0-overflow", "subnormal-eps"])
    def test_cycle_estimate_over_budget_fails_at_once(self, p, x0, M, eps, cfg, match):
        start = time.perf_counter()
        with pytest.raises(StepBudgetExceeded, match=match):
            solve_rescaling_1d(p, x0, M, eps, cfg)
        assert time.perf_counter() - start < 1.0

    def test_step_budget_counts_every_cycle(self):
        full = solve_rescaling_1d(2.0, 0.5, 4.0, 2.0**-8)
        assert full.meta["cycles_estimate"] < full.steps
        same = solve_rescaling_1d(2.0, 0.5, 4.0, 2.0**-8, SolverConfig(max_steps=full.steps))
        assert (same.tau_hat, same.steps) == (full.tau_hat, full.steps)
        with pytest.raises(StepBudgetExceeded):
            solve_rescaling_1d(2.0, 0.5, 4.0, 2.0**-8, SolverConfig(max_steps=full.steps - 1))

    def test_deterministic(self):
        a = solve_rescaling_1d(2.0, 0.5, 4.0, 2.0**-8)
        b = solve_rescaling_1d(2.0, 0.5, 4.0, 2.0**-8)
        assert a.tau_hat == b.tau_hat and a.steps == b.steps
