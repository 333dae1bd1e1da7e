import dataclasses
import math
import warnings

import numpy as np
import pytest

from blowup import catalog
from blowup.baselines import InvalidExponent, _arc_rhs, solve_arclength, solve_rescaling_1d
from blowup.integrate import solve_1d
from blowup.thresholds import ExplicitRadius


@pytest.fixture(scope="module")
def sq():
    return catalog.get("sq").problem


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
        with pytest.raises(InvalidExponent):
            solve_rescaling_1d(1.0, 0.5, 4.0, 0.01)

    def test_threshold_must_exceed_start(self):
        with pytest.raises(ValueError):
            solve_rescaling_1d(2.0, 5.0, 4.0, 0.01)

    def test_deterministic(self):
        a = solve_rescaling_1d(2.0, 0.5, 4.0, 2.0**-8)
        b = solve_rescaling_1d(2.0, 0.5, 4.0, 2.0**-8)
        assert a.tau_hat == b.tau_hat and a.steps == b.steps
