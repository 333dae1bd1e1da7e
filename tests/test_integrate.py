import dataclasses
import math
import warnings

import numpy as np
import pytest

from blowup import catalog, fit_rate
from blowup.integrate import (
    Overflow,
    SolverConfig,
    StepBudgetExceeded,
    solve_1d,
    solve_log_nd,
    solve_nd,
)
from blowup.linalg import JacobianAccess, spectral_norm
from blowup.problems import ScalarProblem, VectorProblem
from blowup.stepping import Adaptive1D, AdaptiveND, AltND, LogNDImplicitN, Taylor1D, Uniform1D
from blowup.thresholds import ExplicitRadius, PolyND


@pytest.fixture(scope="module")
def sq():
    return catalog.get("sq").problem


@pytest.fixture(scope="module")
def uncoupled():
    return catalog.get("uncoupled").problem


@pytest.fixture(scope="module")
def coupled():
    return catalog.get("coupled").problem


class TestSolve1D:
    def test_sq_close_to_exact(self, sq):
        eps = 2.0**-10
        res = solve_1d(sq, eps)
        assert abs(res.tau_hat - 2.0) <= 50.0 * eps

    def test_sq_close_to_hitting_time(self, sq):
        # tau_r = integral of x^-2 from 1/2 to r = 2 - 1/r = 2 - eps
        eps = 2.0**-10
        res = solve_1d(sq, eps)
        assert abs(res.tau_hat - (2.0 - eps)) <= 50.0 * eps

    def test_degenerate_radius(self, sq):
        res = solve_1d(sq, 4.0)  # r = 1/4 < x0
        assert res.tau_hat == 0.0
        assert res.steps == 0
        assert any("degenerate" in w for w in res.warnings)

    def test_strict_termination(self, sq):
        res = solve_1d(sq, 2.0**-8)
        assert res.final_state > res.radius_used

    def test_taylor_update_matches_manual_step(self, sq):
        # set the radius just above x0 so exactly one Taylor step crosses it
        eps = 2.0**-6
        prob = ScalarProblem(
            rhs=sq.rhs,
            rhs_deriv=sq.rhs_deriv,
            x0=sq.x0,
            k=sq.k,
            threshold=ExplicitRadius(lambda e: sq.x0 * 1.0000001, tail_is_eps=False),
        )
        res = solve_1d(prob, eps, SolverConfig(law=Taylor1D()))
        r = res.radius_used
        h = math.sqrt(eps) / sq.rhs_deriv(min(sq.k * sq.x0, r)) ** (2.0 / 3.0)
        b0 = sq.rhs(sq.x0)
        expected = sq.x0 + b0 * h + 0.5 * sq.rhs_deriv(sq.x0) * b0 * h * h
        assert res.steps == 1
        assert res.final_state == expected
        assert res.tau_hat == h

    def test_step_budget(self, sq):
        with pytest.raises(StepBudgetExceeded):
            solve_1d(sq, 2.0**-10, SolverConfig(max_steps=10))

    def test_sub_solution_property(self, sq):
        # Euler iterates never exceed the exact flow 1/(2 - t) on its lifetime
        res = solve_1d(sq, 2.0**-8, SolverConfig(record_trace=True))
        checked = 0
        for t, x in res.trace:
            if t < 2.0:
                assert x <= 1.0 / (2.0 - t) + 1e-10 * x
                checked += 1
        assert checked > 100

    def test_deterministic(self, sq):
        a = solve_1d(sq, 2.0**-12)
        b = solve_1d(sq, 2.0**-12)
        assert a.tau_hat == b.tau_hat and a.steps == b.steps

    def test_nan_state_raises_overflow(self):
        # b turns NaN past x = 1, long before r = 1/eps; a NaN state is no crossing
        prob = ScalarProblem(
            rhs=lambda x: x * x if x <= 1.0 else math.nan,
            rhs_deriv=lambda x: 2.0 * x,
            x0=0.5,
            k=1.1,
            threshold=ExplicitRadius(lambda e: 1.0 / e, tail_is_eps=False),
        )
        with pytest.raises(Overflow, match="nan after 317 steps"):
            solve_1d(prob, 2.0**-8)


class TestStepBudget:
    """A run that needs N steps passes with max_steps = N and fails with N - 1."""

    @pytest.mark.parametrize("law", [Adaptive1D(), Taylor1D(), Uniform1D()])
    def test_1d_boundary(self, sq, law):
        self._check(solve_1d, sq, law)

    def test_nd_boundary(self, uncoupled):
        self._check(solve_nd, uncoupled, AdaptiveND())

    @staticmethod
    def _check(solve, problem, law):
        eps = 2.0**-6
        full = solve(problem, eps, SolverConfig(law=law))
        n = full.steps
        assert n > 1
        exact = solve(problem, eps, SolverConfig(law=law, max_steps=n))
        assert (exact.tau_hat, exact.steps) == (full.tau_hat, n)
        with pytest.raises(StepBudgetExceeded):
            solve(problem, eps, SolverConfig(law=law, max_steps=n - 1))


class TestLawDispatch:
    def test_1d_solver_rejects_nd_law(self, sq):
        with pytest.raises(TypeError):
            solve_1d(sq, 2.0**-6, SolverConfig(law=AltND()))

    def test_nd_solver_rejects_1d_law(self, uncoupled):
        with pytest.raises(TypeError):
            solve_nd(uncoupled, 2.0**-6, SolverConfig(law=Adaptive1D()))

    def test_wrong_law_rejected_at_degenerate_radius(self, sq, uncoupled):
        # both radii lie below the start, so no step would be taken
        with pytest.raises(TypeError):
            solve_1d(sq, 4.0, SolverConfig(law=AltND()))
        with pytest.raises(TypeError):
            solve_nd(uncoupled, 0.6, SolverConfig(law=Adaptive1D()))
        with pytest.raises(TypeError):
            solve_nd(uncoupled, 0.6, SolverConfig(law=LogNDImplicitN()))

    def test_implicit_n_sentinel_needs_outer_loop(self, uncoupled):
        # implicit N is its own law type, which only solve_log_nd runs
        with pytest.raises(TypeError):
            solve_nd(uncoupled, 2.0**-6, SolverConfig(law=LogNDImplicitN()))


class TestStepCountLaws:
    def test_adaptive_and_taylor_cost_slopes(self, sq):
        grid = [2.0**-k for k in range(6, 15)]
        ada = [(e, float(solve_1d(sq, e).steps)) for e in grid]
        tay = [(e, float(solve_1d(sq, e, SolverConfig(law=Taylor1D())).steps)) for e in grid]
        assert fit_rate(ada).slope == pytest.approx(-1.0, abs=0.1)
        assert fit_rate(tay).slope == pytest.approx(-0.5, abs=0.1)


class TestSolveND:
    def test_uncoupled_exact_tau(self, uncoupled):
        eps = 2.0**-10
        res = solve_nd(uncoupled, eps)
        assert abs(res.tau_hat - 0.25) <= 50.0 * eps

    def test_coupled_derived_tau(self, coupled):
        # radial field |x|^2 x from |x0| = sqrt(5) gives tau = 1/(2*5) = 0.1
        eps = 2.0**-12
        res = solve_nd(coupled, eps)
        assert abs(res.tau_hat - 0.1) <= 60.0 * eps

    def test_degenerate_radius(self, uncoupled):
        res = solve_nd(uncoupled, 0.6)  # r = eps^-1/2 < |x0| = sqrt(3)
        assert res.steps == 0 and res.tau_hat == 0.0
        assert any("degenerate" in w for w in res.warnings)

    def test_strict_termination_and_monotone_norms(self, uncoupled, coupled):
        for prob in (uncoupled, coupled):
            res = solve_nd(prob, 2.0**-8, SolverConfig(record_trace=True))
            norms = [v for _, v in res.trace]
            assert all(a <= b for a, b in zip(norms, norms[1:]))
            assert norms[-1] > res.radius_used
            # the loop carries a planar state as a float pair and returns an array
            assert isinstance(res.final_state, np.ndarray) and res.final_state.shape == (2,)

    def test_componentwise_domination_by_exact_flows(self, uncoupled):
        # x1(t) = (1/2 - 2t)^(-1/2), x2(t) = (1 - 4t)^(-1/4) dominate the iterates;
        # oracle loop mirrors the solver and must land on the same answer bit-for-bit
        eps = 2.0**-8
        res = solve_nd(uncoupled, eps)
        r = res.radius_used
        x = np.array(uncoupled.x0)
        t = 0.0
        n = 0
        while math.sqrt(float(x @ x)) <= r:
            sn = spectral_norm(uncoupled.jacobian, x, 2)
            h = eps / math.sqrt(max(sn, 1.0))
            x = x + np.asarray(uncoupled.rhs(x)) * h
            t += h
            n += 1
            if t < 0.25:
                assert x[0] <= (0.5 - 2.0 * t) ** -0.5 * (1.0 + 1e-10)
                assert x[1] <= (1.0 - 4.0 * t) ** -0.25 * (1.0 + 1e-10)
        assert t == res.tau_hat and n == res.steps

    def test_overflowing_start_warns_nothing(self, coupled):
        # |x0|^2 = 2e320 overflows float64 before the loop (and in structural_violations)
        prob = dataclasses.replace(coupled, x0=np.array([1e160, 1e160]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve_nd(prob, 2.0**-6)
        assert res.steps == 0 and res.tau_hat == 0.0
        assert res.warnings == (
            f"degenerate radius: r = {res.radius_used!r} < |x0| = {math.sqrt(2.0) * 1e160!r}; "
            "no steps taken",
        )

    def test_deterministic(self, coupled):
        a = solve_nd(coupled, 2.0**-10)
        b = solve_nd(coupled, 2.0**-10)
        assert a.tau_hat == b.tau_hat and a.steps == b.steps

    def test_overflow_guard(self):
        # b = (x1^3, x2^3) turns NaN past |x| = 3, below r = 16; a NaN state is no crossing
        def rhs(x):
            if math.sqrt(x[0] ** 2 + x[1] ** 2) > 3.0:
                return np.array([math.nan, math.nan])
            return np.array([x[0] ** 3, x[1] ** 3])

        prob = VectorProblem(
            dim=2,
            rhs=rhs,
            jacobian=JacobianAccess.from_dense(
                lambda x: np.diag([3.0 * x[0] ** 2, 3.0 * x[1] ** 2])
            ),
            threshold=PolyND(1.0, 2.0),
            delta=1.0,
            x0=np.array([1.5, 1.0]),
        )
        with pytest.raises(Overflow, match="nan after 136 steps"):
            solve_nd(prob, 2.0**-8)


class TestSolveLogND:
    def test_requires_logarithmic_growth(self, uncoupled):
        with pytest.raises(ValueError):
            solve_log_nd(uncoupled, 0.1)

    def test_trivial_tolerance_converges_in_one_round(self):
        prob = catalog.get("slowlog_c", c=0.5).problem
        res = solve_log_nd(prob, 1.0)
        assert res.meta["outer_iterations"] == 1
        assert res.steps == 0  # radius below |x0|

    def test_fixed_point_band(self):
        prob = catalog.get("slowlog_c", c=0.5).problem
        res = solve_log_nd(prob, 2.0**-4)
        n_guess = res.meta["n_guess"]
        assert res.steps <= n_guess <= 4 * res.steps

    @pytest.mark.parametrize("k", range(3, 9))
    def test_fixed_point_prediction_settles_fast(self, k):
        # a pass with guess G takes about C*sqrt(G) steps, so ceil(N^2 / G) lands in the window
        prob = catalog.get("slowlog_c", c=0.5).problem
        res = solve_log_nd(prob, 2.0**-k)
        assert res.meta["outer_iterations"] <= 3
        assert res.steps <= res.meta["n_guess"] <= 4 * res.steps

    def test_capped_radius_flagged(self):
        prob = catalog.get("slowlog_c", c=0.5).problem
        res = solve_log_nd(prob, 2.0**-8)
        assert any("capped" in w for w in res.warnings)

    def test_deterministic(self):
        prob = catalog.get("slowlog_c", c=0.5).problem
        a = solve_log_nd(prob, 2.0**-5)
        b = solve_log_nd(prob, 2.0**-5)
        assert a.tau_hat == b.tau_hat and a.steps == b.steps


def test_expsq_against_quadrature_oracle():
    # tau = integral of exp(-x^2) from 1 to infinity = sqrt(pi)/2 * erfc(1)
    from scipy.special import erfc

    tau_true = math.sqrt(math.pi) / 2.0 * float(erfc(1.0))
    prob = catalog.get("expsq").problem
    for k in (8, 12):
        eps = 2.0**-k
        res = solve_1d(prob, eps)
        assert abs(res.tau_hat - tau_true) <= 10.0 * eps


def test_trace_off_by_default(sq):
    assert solve_1d(sq, 2.0**-6).trace is None
