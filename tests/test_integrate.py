import dataclasses
import json
import math
import pathlib
import re
import sys
import warnings

import numpy as np
import pytest
from conftest import NESTING_SHAPES

from blowup import catalog, expr, fit_rate, integrate, linalg
from blowup.baselines import solve_arclength, solve_rescaling_1d
from blowup.errors import InputError, SolverError
from blowup.integrate import (
    Overflow,
    SolverConfig,
    StepBudgetExceeded,
    solve_1d,
    solve_log_nd,
    solve_nd,
)
from blowup.linalg import JacobianAccess, safe_norm, spectral_norm
from blowup.problems import InvalidProblem, ScalarProblem, VectorProblem
from blowup.stepping import (
    Adaptive1D, AdaptiveND, AltND, LogNDFixedN, LogNDImplicitN, NonpositiveDerivative,
    PowerUniformND, Taylor1D, Uniform1D, UniformND,
)
from blowup.thresholds import ExplicitRadius, PolyND, radius


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


def _compiled(text: str, deriv: str | None = None, x0: float = 0.5, r=lambda e: 1.0 / e):
    """A problem whose b is text and b' is deriv (default: b's derivative), both
    compiled, so that both carry their trees; the radius is r(eps)."""
    tree = expr.parse(text)
    d_tree = expr.parse(deriv) if deriv else expr.differentiate(tree)
    return ScalarProblem(rhs=expr.compile(tree), rhs_deriv=expr.compile(d_tree), x0=x0, k=1.1,
                         threshold=ExplicitRadius(r, tail_is_eps=False))


class TestLoopPaths:
    """solve_1d runs a field that carries an expression tree inline and calls any
    other: the same fields wrapped in plain lambdas give the same results and
    errors, bit for bit."""

    LAWS = [Adaptive1D(), Taylor1D(), Uniform1D()]
    LAW_IDS = ["adaptive", "taylor2", "uniform"]

    @staticmethod
    def outcome(problem, eps, law, trace=False, max_steps=2**30):
        """repr of the result's figures, or the error's type and text."""
        try:
            res = solve_1d(problem, eps, SolverConfig(law=law, record_trace=trace,
                                                      max_steps=max_steps))
        except Exception as exc:  # the error is part of the outcome
            return type(exc), str(exc)
        return repr((res.tau_hat, res.steps, res.final_state, res.trace, res.warnings))

    def both_paths(self, problem, *args, **kwargs):
        """The outcome of problem's fields inline, after checking that the same
        fields called through lambdas give the same one."""
        called = dataclasses.replace(problem, rhs=lambda x: problem.rhs(x),
                                     rhs_deriv=lambda x: problem.rhs_deriv(x))
        inline = self.outcome(problem, *args, **kwargs)
        assert inline == self.outcome(called, *args, **kwargs)
        return inline

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("pid", ["sq", "expsq", "xlog_c"])
    def test_catalog_fields(self, pid, law, trace):
        problem = catalog.get(pid).problem
        for eps in (2.0**-3, 2.0**-5, 2.0**-7):
            assert isinstance(self.both_paths(problem, eps, law, trace), str)

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("text", ["x^2", "x*exp(x)", "x*log(x)^1.5", "x^2 + sin(x)/x",
                                      "x*x + log(2 - x)", "x*x + sqrt(3 - x)", "sqrt(x)^3"])
    def test_expression_fields(self, text, law, trace):
        problem = _compiled(text, x0=1.25, r=lambda e: 8.0)
        self.both_paths(problem, 2.0**-8, law, trace, max_steps=20_000)

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    def test_deepest_nesting_shapes(self, shape, law):
        make, deepest = NESTING_SHAPES[shape]
        problem = _compiled(make(deepest), x0=1.5, r=lambda e: 4.0)
        self.both_paths(problem, 2.0**-6, law, max_steps=5_000)

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_nan_field_raises_overflow(self, law):
        # b is inf - inf where 1000 sin(x) > 709.8, on about (0.79, 2.35), and
        # finite at x0 and r, which Uniform1D's step reads
        problem = _compiled("x*x + (exp(1000*sin(x)) - exp(1000*sin(x)))", "2*x",
                            r=lambda e: 4.0)
        kind, text = self.both_paths(problem, 2.0**-8, law)
        assert kind is Overflow and text.startswith("state is nan after ")

    @pytest.mark.parametrize("law", LAWS[:2], ids=LAW_IDS[:2])
    def test_nonpositive_derivative(self, law):
        kind, text = self.both_paths(_compiled("x*x", "1 - x"), 2.0**-8, law)
        assert kind is NonpositiveDerivative and text.startswith("b'(")

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_step_budget(self, law):
        kind, text = self.both_paths(catalog.get("sq").problem, 2.0**-10, law, max_steps=10)
        assert kind is StepBudgetExceeded and text.startswith("exceeded 10 steps at x = ")

    @pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
    def test_degenerate_radius(self, law):
        assert "degenerate radius" in self.both_paths(catalog.get("sq").problem, 4.0, law)

    def test_a_field_with_a_tree_is_not_called(self):
        # with an explicit radius and the Adaptive1D law nothing but the loop reads
        # the field, and the loop computes a field that carries its tree itself
        def refuse(x):
            raise AssertionError("called")

        problem = _compiled("x*x")
        refuse.tree = problem.rhs.tree
        uncalled = dataclasses.replace(problem, rhs=refuse)
        assert self.outcome(uncalled, 2.0**-10, Adaptive1D()) == self.outcome(
            problem, 2.0**-10, Adaptive1D())


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -1.0], ids=["inf", "nan", "0", "-1"])
@pytest.mark.parametrize("solver", ["1d", "nd", "log_nd", "arclength-1d", "arclength-nd",
                                    "rescaling"])
def test_every_solver_refuses_a_tolerance_outside_0_inf(solver, eps):
    runs = {
        "1d": lambda: solve_1d(catalog.get("sq").problem, eps),
        "nd": lambda: solve_nd(catalog.get("coupled").problem, eps),
        "log_nd": lambda: solve_log_nd(catalog.get("slowlog_c").problem, eps),
        "arclength-1d": lambda: solve_arclength(catalog.get("sq").problem, eps, 1e-8),
        "arclength-nd": lambda: solve_arclength(catalog.get("coupled").problem, eps, 1e-8),
        "rescaling": lambda: solve_rescaling_1d(2.0, 0.5, 8.0, eps),
    }
    with pytest.raises(InputError, match=r"^eps must satisfy 0 < eps < inf, got "):
        runs[solver]()


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


class TestZeroConstantStep:
    """A constant step that cannot move the state, or a probed step that cannot
    once its probe reaches r, raises before the loop, not at the step budget."""

    def test_uniform_1d_on_an_overflowing_field(self):
        # b(r) = b'(r) = exp(1e6) overflow to inf, so h = min(eps/log(inf), 1/inf) = 0
        problem = _compiled("exp(x)", x0=1.0, r=lambda e: 1e6)
        with pytest.raises(SolverError, match=re.escape(
                "constant step h = 0.0 at eps = 0.1 and r = 1000000.0")):
            solve_1d(problem, 0.1, SolverConfig(law=Uniform1D(), max_steps=1000))

    def test_power_uniform_nd_underflow(self, uncoupled):
        # h = eps^2 underflows to 0 at eps = 2^-600
        eps = 2.0**-600
        with pytest.raises(SolverError, match=re.escape(f"constant step h = 0.0 at eps = {eps!r}")):
            solve_nd(uncoupled, eps, SolverConfig(law=PowerUniformND(2.0), max_steps=1000))

    @pytest.mark.parametrize("law", [Adaptive1D(), Taylor1D()], ids=["adaptive", "taylor2"])
    def test_probed_law_where_b_prime_overflows_at_r(self, law):
        # b'(1000) = exp(exp(1000)) exp(1000) overflows to inf, and the probe
        # min(k x, r) reaches r, where h = eps / sqrt(inf) = 0
        problem = _compiled("exp(exp(x))", x0=1.0, r=lambda e: 1e3)
        with pytest.raises(SolverError, match=re.escape(
                "b'(r) = inf at eps = 0.01 and r = 1000.0: the step is 0")):
            solve_1d(problem, 0.01, SolverConfig(law=law, max_steps=1000))


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
            jacobian=JacobianAccess(dense=
                lambda x: np.diag([3.0 * x[0] ** 2, 3.0 * x[1] ** 2])
            ),
            threshold=PolyND(1.0, 2.0),
            delta=1.0,
            x0=np.array([1.5, 1.0]),
        )
        with pytest.raises(Overflow, match="nan after 136 steps"):
            solve_nd(prob, 2.0**-8)

    @pytest.mark.parametrize("field", [lambda x: x, lambda x: x[::-1]],
                             ids=["argument", "reversed-view"])
    @pytest.mark.parametrize("law", [AltND(), UniformND()], ids=["alt", "uniform"])
    def test_in_place_update_reads_an_aliased_rhs_first(self, field, law):
        # b(x) = x, or x reversed: rhs hands back its argument or a view of it, which
        # the in-place state update overwrites; J v is the same map applied to v
        prob = VectorProblem(
            dim=3,
            rhs=field,
            jacobian=JacobianAccess(jvp=lambda x, v: field(v)),
            threshold=PolyND(1.0, 1.0, nominal=True),
            delta=1.0,
            x0=np.array([2.0, 1.5, 3.0]),
        )
        eps = 2.0**-10
        r = radius(prob.threshold, prob, eps)
        x, t, n = prob.x0.copy(), 0.0, 0
        while safe_norm(x) <= r:  # solve_nd's loop, with a new state at each step
            bx = prob.rhs(x)
            # AltND's step, J b = field(bx) never vanishing here; UniformND's constant one
            h = (eps * math.sqrt(safe_norm(bx)) / math.sqrt(safe_norm(field(bx)))
                 if isinstance(law, AltND) else law.step_size(prob, eps, r))
            x = x + bx * h
            t += h
            n += 1
        res = solve_nd(prob, eps, SolverConfig(law=law, max_steps=n))
        assert (res.tau_hat.hex(), res.steps) == (t.hex(), n)
        assert res.final_state.tobytes() == x.tobytes()


    @pytest.mark.parametrize("law", [AdaptiveND(), AltND(), AltND(cap=2.0**-8), LogNDFixedN(64)],
                             ids=["adaptive", "alt", "alt-cap", "log-fixed-n"])
    def test_dense_field_beyond_the_plane_against_a_written_out_loop(self, law):
        # b(x) = |x|^2 x in R^3, whose dense Jacobian |x|^2 I + 2 x x^T takes the
        # SVD norm, and J b = dense(x) @ b(x); no catalog field is dense off the plane
        def jac(x):
            return (x @ x) * np.eye(3) + 2.0 * np.outer(x, x)

        prob = VectorProblem(dim=3, rhs=lambda x: (x @ x) * x, jacobian=JacobianAccess(dense=jac),
                             threshold=PolyND(1.0, 2.0), delta=0.5, x0=np.array([1.0, 0.5, 0.25]))
        eps = 2.0**-6
        res = solve_nd(prob, eps, SolverConfig(law=law, record_trace=True))

        def svd_norm(x):
            return float(np.linalg.svd(jac(x), compute_uv=False)[0])

        h_of = {  # each law's step, written out
            AdaptiveND: lambda x, bx: eps / math.sqrt(max(svd_norm(x), 1.0)),
            AltND: lambda x, bx: min(eps * math.sqrt(safe_norm(bx)) / math.sqrt(
                safe_norm(jac(x) @ bx)), law.cap or math.inf),
            LogNDFixedN: lambda x, bx: math.sqrt(eps / (64 * max(svd_norm(x), 1.0))),
        }[type(law)]
        x, t, trace = prob.x0.copy(), 0.0, [(0.0, safe_norm(prob.x0))]
        while trace[-1][1] <= res.radius_used:
            bx = prob.rhs(x)
            h = h_of(x, bx)
            x = x + bx * h
            t += h
            trace.append((t, safe_norm(x)))
        assert res.trace == tuple(trace) and len(trace) > 50
        assert (res.tau_hat, res.steps) == (t, len(trace) - 1)
        assert res.final_state.tobytes() == x.tobytes()

    @pytest.mark.parametrize("law, reads_jacobian", [
        (AdaptiveND(), True), (AltND(), True), (LogNDFixedN(64), True), (UniformND(), False),
    ], ids=["adaptive", "alt", "log-fixed-n", "uniform"])
    def test_called_planar_field_once_per_step(self, coupled, monkeypatch, law,
                                                reads_jacobian):
        # a planar field without trees is called once a step for b(x) and, where
        # the law reads it, once for J(x), and once more each for the shape rule
        # before the first step; the loop takes ||J(x)|| inline, as for a field
        # with trees, so spectral_norm is never called
        calls = {"rhs": 0, "dense": 0, "spectral_norm": 0}

        def counted(name, fn):
            def count(*args):
                calls[name] += 1
                return fn(*args)
            return count

        problem = dataclasses.replace(coupled, rhs=counted("rhs", coupled.rhs), jacobian=(
            JacobianAccess(dense=counted("dense", coupled.jacobian.dense))))
        monkeypatch.setattr(linalg, "spectral_norm", counted("spectral_norm", spectral_norm))
        res = solve_nd(problem, 2.0**-10, SolverConfig(law=law))
        assert res.steps > 100
        assert calls == {"rhs": res.steps + 1, "dense": (res.steps + 1) * reads_jacobian,
                         "spectral_norm": 0}


def test_inline_norm_texts_match_linalg_bit_for_bit():
    # the inline planar loop writes linalg's texts of spectral_norm's 2x2 closed
    # form and of pair_norm into its own namespace; random Jacobians and pairs of
    # every scale, with entries whose sums and squares overflow and NaN entries,
    # give the functions' floats, for a Jacobian of float pairs or an array
    rng = np.random.default_rng(3)
    scope = dict(linalg.TEXT_NAMES)
    pair_norm = linalg.PAIR_NORM.format("p1", "p2")
    specials = [math.nan, math.inf, -1.7e308, 0.0, -0.0]
    for i in range(5000):
        entries = [float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 308.2))
                   for _ in range(4)]
        if i % 3 == 0:
            entries[i % 4] = specials[i // 4 % 5]
        j11, j12, j21, j22 = entries
        J = ((j11, j12), (j21, j22))
        values = dict(zip(("j11", "j12", "j21", "j22", "p1", "p2"), entries + entries[:2]))
        closed = repr(eval(linalg.SN_2X2, scope, values))
        assert closed == repr(spectral_norm(JacobianAccess(dense=lambda x: J), None))
        assert closed == repr(spectral_norm(JacobianAccess(dense=lambda x: np.array(J)), None))
        assert repr(eval(pair_norm, scope, values)) == repr(linalg.pair_norm((j11, j12)))


def test_planar_norms_past_2_512_stay_on_floats(monkeypatch):
    # slowlog_c's implicit-N run at 2^-6 takes 1,393 of its 8,849 steps (both
    # passes) past |x| = 2^512, where x1 * x1 + x2 * x2 overflows; pair_norm's text
    # takes math.hypot there, so no state of the run goes to safe_norm, whose only
    # calls are require_valid's |x0| check, one a pass, and the run is its golden cell
    passes = []

    def traced(*args):
        res = solve_nd(*args)
        passes.append(res.trace)
        return res

    monkeypatch.setattr(integrate, "solve_nd", traced)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is safe_norm.__code__:
            calls.append(frame.f_back.f_code.co_filename)

    sys.setprofile(profile)
    try:
        res = solve_log_nd(catalog.get("slowlog_c").problem, 2.0**-6,
                           SolverConfig(record_trace=True))
    finally:
        sys.setprofile(None)
    steps = [nx for trace in passes for _, nx in trace[1:]]
    assert (len(steps), sum(nx > 2.0**512 for nx in steps)) == (8849, 1393)
    assert [c for c in calls if not c.endswith("problems.py")] == []
    table = pathlib.Path(__file__).with_name("golden_cells.json")
    golden = json.loads(table.read_text())["slowlog_c/adaptive/2^-6"]
    assert [res.tau_hat.hex(), res.steps, res.meta["n_guess"],
            res.meta["outer_iterations"]] == golden


def _called(problem, wrap=lambda v: v):
    """problem with its rhs and dense Jacobian wrapped in lambdas, which carry no
    tree, so that solve_nd's loop calls them; wrap maps their values."""
    rhs, dense = problem.rhs, problem.jacobian.dense
    return dataclasses.replace(problem, rhs=lambda x: wrap(rhs(x)),
                               jacobian=JacobianAccess(dense=lambda x: wrap(dense(x))))


class TestPlanarLoopPaths:
    """solve_nd computes a planar field whose rhs and dense Jacobian carry trees
    inline and calls any other, on a state of two float locals either way: the
    same fields wrapped in lambdas, returning tuples or arrays, give the same
    results and errors, bit for bit."""

    METHODS = ["adaptive", "alt", "uniform", "log-uniform"]

    @staticmethod
    def outcome(problem, eps, law, trace=False, max_steps=2**30):
        """repr of the result's figures, or the error's type and text; the
        implicit-N law runs on solve_log_nd, whose passes run solve_nd."""
        solve = solve_log_nd if isinstance(law, LogNDImplicitN) else solve_nd
        try:
            res = solve(problem, eps, SolverConfig(law=law, record_trace=trace,
                                                   max_steps=max_steps))
        except Exception as exc:  # the error is part of the outcome
            return type(exc), str(exc)
        return repr((res.tau_hat, res.steps, res.final_state.tolist(), res.trace, res.warnings,
                     res.meta))

    def both_paths(self, problem, *args, **kwargs):
        """The outcome of problem's fields inline, after checking that the same
        fields called through lambdas, as they are and as ndarrays, give the
        same one."""
        inline = self.outcome(problem, *args, **kwargs)
        assert inline == self.outcome(_called(problem), *args, **kwargs)
        assert inline == self.outcome(_called(problem, np.array), *args, **kwargs)
        return inline

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("pid", ["coupled", "uncoupled"])
    def test_catalog_fields(self, pid, method, trace):
        entry = catalog.get(pid)
        for eps in (2.0**-3, 2.0**-5, 2.0**-6, 2.0**-8, 2.0**-9):
            assert isinstance(self.both_paths(entry.problem, eps, entry.methods[method], trace),
                              str)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("pid", ["coupled", "uncoupled"])
    def test_errors(self, pid, method):
        entry = catalog.get(pid)
        law = entry.methods[method]
        kind, text = self.both_paths(entry.problem, 2.0**-10, law, max_steps=10)
        assert kind is StepBudgetExceeded and text.startswith("exceeded 10 steps at |x| = ")
        if method != "uniform" or pid == "coupled":  # eps^2 underflows to a zero step
            kind, text = self.both_paths(entry.problem, 1e-300, law, max_steps=1000)
            assert kind is SolverError and "cannot move" in text
        assert "degenerate radius" in self.both_paths(entry.problem, 0.6, law)

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("method", ["adaptive", "uniform", "log-uniform"])
    def test_slowlog_fields(self, method, trace):
        # its abs and max nodes inline; adaptive is solve_log_nd's implicit-N law
        entry = catalog.get("slowlog_c")
        for eps in (2.0**-3, 2.0**-5, 2.0**-7):
            assert isinstance(self.both_paths(entry.problem, eps, entry.methods[method], trace),
                              str)

    @pytest.mark.parametrize("method", ["adaptive", "uniform"])
    def test_slowlog_errors(self, method):
        entry = catalog.get("slowlog_c")
        kind, text = self.both_paths(entry.problem, 2.0**-7, entry.methods[method], max_steps=10)
        assert kind is StepBudgetExceeded and text.startswith("exceeded 10 steps at |x| = ")

    @pytest.mark.parametrize("method", METHODS)
    def test_nan_field_raises_overflow(self, coupled, method):
        # b1 gains exp(1000 (x1 - 3)) - exp(1000 (x1 - 3)), which is inf - inf
        # once x1 passes about 3.71, below r = 16 at eps = 2^-8
        x1, x2 = expr.Var(1), expr.Var(2)
        e = expr.Call("exp", expr.Mul(expr.Num(1000.0), expr.Sub(x1, expr.Num(3.0))))
        s = expr.Add(expr.Mul(x1, x1), expr.Mul(x2, x2))
        rhs = expr.compile((expr.Add(expr.Mul(x1, s), expr.Sub(e, e)), expr.Mul(x2, s)), dim=2)
        problem = dataclasses.replace(coupled, rhs=rhs)
        kind, text = self.both_paths(problem, 2.0**-8, catalog.get("coupled").methods[method])
        assert kind is Overflow and text.startswith("|state| is nan after ")

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("shape", ["3", "scalar"])
    def test_rhs_of_another_shape(self, coupled, method, shape):
        # a third component of b, which a loop without the shape rule reads as
        # J11, or a single one; a run at a degenerate radius takes no step and
        # evaluates nothing, so it warns as before
        tree = coupled.rhs.tree
        rhs = expr.compile(tree + (expr.Var(1),) if shape == "3" else tree[0], dim=2)
        problem = dataclasses.replace(coupled, rhs=rhs)
        law = catalog.get("coupled").methods[method]
        found = "(3,)" if shape == "3" else "()"
        assert self.both_paths(problem, 2.0**-8, law) == (
            InvalidProblem, f"b(x) is of shape {found}, expected shape (2,)")
        assert "degenerate radius" in self.both_paths(problem, 0.6, law)

    @pytest.mark.parametrize("method", METHODS)
    def test_3x3_jacobian_where_the_law_reads_it(self, coupled, method):
        x1 = expr.Var(1)
        dense = tuple(row + (x1,) for row in coupled.jacobian.dense.tree) + ((x1, x1, x1),)
        problem = dataclasses.replace(coupled, jacobian=JacobianAccess(
            dense=expr.compile(dense, dim=2)))
        law = catalog.get("coupled").methods[method]
        if isinstance(law, UniformND):  # whose steps never read J(x)
            assert self.both_paths(problem, 2.0**-8, law) == self.outcome(coupled, 2.0**-8, law)
        else:
            assert self.both_paths(problem, 2.0**-8, law) == (
                InvalidProblem, "J(x) is of shape (3, 3), expected shape (2, 2)")

    def test_fields_with_trees_are_not_called(self, coupled):
        # nothing but the loop reads the field under the AdaptiveND law, and the
        # loop computes fields that carry their trees itself
        def refusing(tree):
            def refuse(x):
                raise AssertionError("called")
            refuse.tree = tree
            return refuse

        uncalled = dataclasses.replace(coupled, rhs=refusing(coupled.rhs.tree), jacobian=(
            JacobianAccess(dense=refusing(coupled.jacobian.dense.tree))))
        assert self.outcome(uncalled, 2.0**-10, AdaptiveND()) == self.outcome(
            coupled, 2.0**-10, AdaptiveND())


def _untexted(problem):
    """problem with its rhs and JVP wrapped in lambdas, as perfbench's counting
    wrappers are, which carry no text, so that solve_nd's array loop calls them."""
    rhs, jvp = problem.rhs, problem.jacobian.jvp
    return dataclasses.replace(problem, rhs=lambda x: rhs(x),
                               jacobian=JacobianAccess(jvp=lambda x, v: jvp(x, v)))


class TestArrayLoopPaths:
    """solve_nd writes the rd field's rhs and JVP texts inline in its array loop
    and calls any other array field: the same kernels called through lambdas
    give the same results and errors, bit for bit, on every grid form (the
    "full" slice for m < 4, the separate m^2 scale where m is not a power of
    two)."""

    GRIDS = [2, 3, 5, 6, 8, 32]
    METHODS = ["adaptive", "alt", "uniform"]
    outcome = staticmethod(TestPlanarLoopPaths.outcome)

    def both_paths(self, problem, *args, **kwargs):
        inline = self.outcome(problem, *args, **kwargs)
        assert inline == self.outcome(_untexted(problem), *args, **kwargs)
        return inline

    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("m", GRIDS)
    def test_rd_fields(self, m, method, trace):
        entry = catalog.get("rd", m=m)
        for eps in (2.0**-8, 2.0**-10, 2.0**-11):
            assert isinstance(self.both_paths(entry.problem, eps, entry.methods[method], trace),
                              str)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("m", GRIDS)
    def test_rd_errors(self, m, method):
        entry = catalog.get("rd", m=m)
        law = entry.methods[method]
        kind, text = self.both_paths(entry.problem, 2.0**-10, law, max_steps=10)
        assert kind is StepBudgetExceeded and text.startswith("exceeded 10 steps at |x| = ")
        kind, text = self.both_paths(entry.problem, 1e-300, law, max_steps=1000)
        assert kind is SolverError and "cannot move" in text
        assert "degenerate radius" in self.both_paths(entry.problem, 0.5, law)

    def test_adaptive_nd_needs_a_dense_jacobian_on_both_paths(self):
        kind, text = self.both_paths(catalog.get("rd", m=8).problem, 2.0**-10, AdaptiveND())
        assert kind is linalg.TransposeUnavailable and "matrix-free" in text

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("m", [3, 32])
    def test_inline_loop_calls_no_kernel_or_norm_per_step(self, m, method):
        # correlate and dot are C functions, which fire no "call" event: the
        # inline loop runs no Python function of the field or of linalg, and a run
        # of any length calls rhs once, for the shape rule, and safe_norm three
        # times, for require_valid's |x0|, solve_nd's |x0| and the final |x|
        entry = catalog.get("rd", m=m)
        problem = entry.problem
        names = {problem.rhs.__code__: "rhs", problem.jacobian.jvp.__code__: "jvp",
                 safe_norm.__code__: "safe_norm"}
        for eps in (2.0**-10, 2.0**-12):
            calls = {"rhs": 0, "jvp": 0, "safe_norm": 0}

            def profile(frame, event, arg):
                if event == "call" and frame.f_code in names:
                    calls[names[frame.f_code]] += 1

            sys.setprofile(profile)
            try:
                res = solve_nd(problem, eps, SolverConfig(law=entry.methods[method]))
            finally:
                sys.setprofile(None)
            assert res.steps > 50
            assert calls == {"rhs": 1, "jvp": 0, "safe_norm": 3}

    @pytest.mark.parametrize("law", [AltND, UniformND])
    def test_one_loop_per_text(self, law):
        # the loop binds a field's stencil and m^2 in its prologue, so every grid
        # of one text, m = 4 to 64 in the rd-table's vary-m study, runs one loop
        def loop(m):
            p = catalog.get("rd", m=m).problem
            return integrate._loop_nd(law, False, True, False, p.rhs.text,
                                      p.jacobian.jvp.text, tuple(p.rhs.data))

        assert all(loop(m) is loop(4) for m in (8, 16, 32, 64))
        assert loop(5) is not loop(4) and loop(3) is not loop(2)

    def test_norm_past_2_512_takes_safe_norm(self):
        # b(x) = x in R^3 at a constant h = 1/2: |x| grows by 3/2 a step from
        # |x0| = 1.15 past r = 200^100 in 1,307 steps, and x.dot(x) overflows for
        # the last 433 states; ARRAY_NORM's text then takes safe_norm, and the
        # trace holds its norms of the states, bit for bit
        problem = VectorProblem(dim=3, rhs=lambda x: x, jacobian=JacobianAccess(
            jvp=lambda x, v: v), threshold=PolyND(1.0, 0.01, nominal=True), delta=0.5,
            x0=np.array([1.0, 0.5, 0.25]))
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is safe_norm.__code__:
                calls.append(frame.f_back.f_code.co_name)

        sys.setprofile(profile)
        try:
            res = solve_nd(problem, 0.5, SolverConfig(law=PowerUniformND(1.0), record_trace=True))
        finally:
            sys.setprofile(None)
        x, norms, past = problem.x0.copy(), [safe_norm(problem.x0)], 0
        with np.errstate(over="ignore"):
            for _ in range(res.steps):
                x += x * 0.5
                norms.append(safe_norm(x))
                past += x.dot(x) == math.inf
        assert [nx for _, nx in res.trace] == norms
        assert res.final_state.tobytes() == x.tobytes()
        assert (res.steps, int(past)) == (1307, 433)
        assert norms[-2] <= res.radius_used < norms[-1]
        assert calls.count("loop") == past


def test_doubled_norm_text_is_safe_norm_of_twice():
    # the array loop takes |J b| from the rd JVP text's half of J b by linalg's
    # DOUBLED_NORM text: on vectors of every scale, with dots that overflow only
    # at full scale, squares in the subnormal range, zeros, infs and NaNs, it
    # gives the floats of safe_norm(2 w)
    rng = np.random.default_rng(33)
    scope = {**linalg.TEXT_NAMES, "norm": safe_norm}
    text = linalg.DOUBLED_NORM.format("w")
    specials = [math.nan, math.inf, -math.inf, 0.0, 2.0**1023]
    for i in range(5000):
        n = int(rng.integers(1, 40))
        lo, hi = ((-1074.0, 1023.0), (-560.0, -450.0), (505.0, 515.0))[i % 3]
        w = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.uniform(lo, hi, n)
        if i % 7 == 0:
            w[i % n] = specials[i // 7 % 5]
        with np.errstate(over="ignore", invalid="ignore"):
            assert repr(eval(text, scope, {"w": w})) == repr(safe_norm(2.0 * w))


def _full_scale_jvp(m: int):
    """The rd J(x)v as the full-scale formula correlate(v, stencil) (* m^2) + 2 x v,
    which the JVP text halves."""
    m2 = float(m * m)
    folded = m & (m - 1) == 0
    stencil = np.array([1.0, -2.0, 1.0]) * (m2 if folded else 1.0)

    def jvp(x, v):
        laplacian = np.correlate(v, stencil, "full")[1:-1]
        return (laplacian if folded else laplacian * m2) + 2.0 * x * v

    return jvp


class TestHalfScaleJvp:
    """The rd JVP text computes half of J(x)v on the halved stencil, and the
    array loop takes |J b| as twice its norm: inline, called (the jvp doubles the
    half) and through the full-scale formula, the runs are the same bit for bit,
    on the grids with a 0-d m^2 and at both ends of the exponent range."""

    @staticmethod
    def three_ways(problem, m, *args, **kwargs):
        outcome = TestPlanarLoopPaths.outcome
        inline = outcome(problem, *args, **kwargs)
        assert inline == outcome(_untexted(problem), *args, **kwargs)
        rhs = problem.rhs
        full = dataclasses.replace(problem, rhs=lambda x: rhs(x),
                                   jacobian=JacobianAccess(jvp=_full_scale_jvp(m)))
        assert inline == outcome(full, *args, **kwargs)
        return inline

    @staticmethod
    def start(m, x0, eps, growth=1e-9):
        """rd at m from x0, with the radius just past |x0| (growth above it) at
        eps, and delta below |x0|."""
        problem = catalog.get("rd", m=m).problem
        r = safe_norm(x0) * (1.0 + growth)
        return dataclasses.replace(problem, x0=x0, delta=safe_norm(x0) / 2.0,
                                   threshold=PolyND(1.0 / (eps * r), 1.0, nominal=True))

    @pytest.mark.parametrize("method", TestArrayLoopPaths.METHODS)
    @pytest.mark.parametrize("m", [3, 5, 6])
    def test_grids_with_a_0d_m2(self, m, method):
        entry = catalog.get("rd", m=m)
        assert entry.problem.rhs.data["m2"].shape == ()
        for eps in (2.0**-9, 2.0**-11):
            assert isinstance(self.three_ways(entry.problem, m, eps, entry.methods[method],
                                              True), str)

    @pytest.mark.parametrize("c, half_overflows", [(1.1e51, False), (1.5e51, True)])
    def test_jb_norm_past_2_512(self, c, half_overflows):
        # a flat state of 31 values c: |J b|^2 overflows at full scale, and at half
        # scale only for the larger c, so 4s overflows in both and the loop takes
        # safe_norm of jb + jb, the full-scale J b, at every step of the run
        m = 32
        x0 = np.full(m - 1, c)
        problem = self.start(m, x0, 2.0**-120)
        with np.errstate(over="ignore"):
            jb = _full_scale_jvp(m)(x0, problem.rhs(x0))
            assert jb.dot(jb) == math.inf
            assert ((jb / 2.0).dot(jb / 2.0) == math.inf) == half_overflows
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is safe_norm.__code__:
                calls.append(frame.f_back.f_code.co_name)

        sys.setprofile(profile)
        try:
            res = solve_nd(problem, 2.0**-120, SolverConfig(law=AltND(), record_trace=True))
        finally:
            sys.setprofile(None)
        assert 40 < res.steps < 100 and calls.count("loop") == res.steps
        assert isinstance(self.three_ways(problem, m, 2.0**-120, AltND(), True), str)

    @pytest.mark.parametrize("state", ["flat", "flat-and-one", "alternating"])
    def test_subnormal_products(self, state):
        # x_i (b(x))_i is subnormal on most of the grid: on a flat state of 1e-105,
        # where b(x) is x^2 inside, with one value 2 or not, and on an alternating
        # state of 1e-160, where |J b|^2 at half scale is below 2^-900 and the loop
        # takes safe_norm of jb + jb; every run is unchanged over its 200 steps
        m = 32
        x0 = {"flat": np.full(m - 1, 1e-105),
              "flat-and-one": np.where(np.arange(m - 1) == 15, 2.0, 1e-105),
              "alternating": 1e-160 * (-1.0) ** np.arange(m - 1)}[state]
        problem = self.start(m, x0, 2.0**-10, growth=1.0)
        xv = x0 * problem.rhs(x0)
        assert np.count_nonzero((xv != 0.0) & (abs(xv) < 2.0**-1022)) > 20
        jb = _full_scale_jvp(m)(x0, problem.rhs(x0))
        assert (jb.dot(jb) / 4.0 < 2.0**-900) == (state == "alternating")
        for law in (AltND(), catalog.get("rd", m=m).methods["adaptive"]):
            kind, text = self.three_ways(problem, m, 2.0**-10, law, max_steps=200)
            assert kind is StepBudgetExceeded

    def test_stencil_overflow_at_full_scale_only(self):
        # past |b| = 2^1012 on m = 32 the full-scale stencil's products overflow
        # where the halved one's do not: at a flat state of 3e152, the full-scale
        # J b holds NaN (inf - inf) where the half-scale one holds inf, as 2 x b
        # does. |J b| is not finite either way, so no step can move the state: the
        # full-scale run ends in a NaN state, and the half-scale one says h = 0
        m = 32
        x0 = np.full(m - 1, 3e152)
        problem = self.start(m, x0, 2.0**-10)
        with np.errstate(over="ignore", invalid="ignore"):
            bx = problem.rhs(x0)
            assert np.isnan(_full_scale_jvp(m)(x0, bx)).sum() == m - 2
            assert np.isinf(problem.jacobian.jvp(x0, bx)).all()
        outcome = TestPlanarLoopPaths.outcome
        inline = outcome(problem, 2.0**-10, AltND())
        assert inline == outcome(_untexted(problem), 2.0**-10, AltND())
        assert inline[0] is SolverError and inline[1].endswith("the state cannot move")
        full = dataclasses.replace(problem, rhs=lambda x: problem.rhs(x),
                                   jacobian=JacobianAccess(jvp=_full_scale_jvp(m)))
        kind, text = outcome(full, 2.0**-10, AltND())
        assert kind is Overflow and text.startswith("|state| is nan after 1 steps below r = ")

    @pytest.mark.parametrize("law", [AltND, UniformND])
    def test_loop_text_takes_no_float_operand_for_arrays(self, monkeypatch, law):
        # the generated rd loop doubles no array by 2.0 (its only 2.0 product is
        # DOUBLED_NORM's float one) and multiplies b(x) by the 0-d array hh: made
        # from h in the prologue, and set at each step for a per-state law
        sources = []

        def spy(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(integrate, "exec", spy, raising=False)
        p = catalog.get("rd", m=32).problem
        integrate._loop_nd.__wrapped__(law, False, True, False, p.rhs.text, p.jacobian.jvp.text,
                                       tuple(p.rhs.data))
        (source,) = sources
        products = re.findall(r"2\.0 \* \w+", source)
        assert products == (["2.0 * sqrt"] * 2 if law is AltND else [])  # the step is peeled
        assert source.count("np.multiply(bx, hh, step)") == 2
        assert "hh = np.array(h, float)\n" in source.split("    t = 0.0\n")[0]
        assert source.count("hh[()] = h\n") == (2 if law is AltND else 0)


class TestFieldShapes:
    """b(x) must have dim components and a dense J(x) must be dim x dim, or the
    R^n solvers raise InvalidProblem naming the shape, which numpy would
    otherwise broadcast; each checks a called field once per run, at x0."""

    @staticmethod
    def radial(rhs, jacobian):
        """b(x) = |x|^2 x in R^3, or rhs in its place."""
        return VectorProblem(dim=3, rhs=rhs, jacobian=jacobian, threshold=PolyND(1.0, 2.0),
                             delta=0.5, x0=np.array([1.0, 0.5, 0.25]))

    @pytest.mark.parametrize("rhs, found", [
        (lambda x: np.array([(x @ x) * x[0]]), "of shape (1,)"),
        (lambda x: float(x @ x), "of shape ()"),
    ], ids=["one-component", "scalar"])
    def test_rhs_in_solve_nd_and_solve_arclength(self, rhs, found):
        problem = self.radial(rhs, JacobianAccess(
            jvp=lambda x, v: (x @ x) * v + 2.0 * (x @ v) * x))
        text = re.escape(f"b(x) is {found}, expected shape (3,)")
        with pytest.raises(InvalidProblem, match=text):
            solve_nd(problem, 2.0**-6, SolverConfig(law=AltND()))
        with pytest.raises(InvalidProblem, match=text):
            solve_arclength(problem, 2.0**-6, 1e-8)

    @pytest.mark.parametrize("law", [AdaptiveND(), AltND()], ids=["adaptive", "alt"])
    def test_dense_jacobian_in_solve_nd(self, law):
        problem = self.radial(lambda x: (x @ x) * x, JacobianAccess(dense=lambda x: np.eye(2)))
        with pytest.raises(InvalidProblem, match=re.escape(
                "J(x) is of shape (2, 2), expected shape (3, 3)")):
            solve_nd(problem, 2.0**-6, SolverConfig(law=law))

    def test_ragged_planar_jacobian(self, coupled):
        problem = dataclasses.replace(coupled, jacobian=JacobianAccess(
            dense=lambda x: ((1.0, 0.0), (0.0,))))
        with pytest.raises(InvalidProblem, match=re.escape(
                "J(x) is ragged, expected shape (2, 2)")):
            solve_nd(problem, 2.0**-6)


class TestStateThatCannotMove:
    """A first step that leaves the state where it was raises SolverError at
    once, in each dimension class, where x + b(x) h == x since h is below half
    an ulp of the state: no later step could move it."""

    @pytest.mark.parametrize("run", [
        lambda cfg: solve_1d(_compiled("x^2", x0=0.5, r=lambda e: 1e10), 1e-200, cfg),
        lambda cfg: solve_nd(catalog.get("coupled").problem, 1e-300, cfg),
        lambda cfg: solve_nd(catalog.get("rd", m=8).problem, 1e-300, dataclasses.replace(
            cfg, law=catalog.get("rd", m=8).methods["adaptive"])),
    ], ids=["1d-expr", "planar-coupled", "array-rd8"])
    def test_first_step_stall(self, run):
        with pytest.raises(SolverError, match="cannot move") as info:
            run(SolverConfig(max_steps=1000))
        assert type(info.value) is SolverError  # not its subclass StepBudgetExceeded


class TestSolveLogND:
    def test_requires_logarithmic_growth(self, uncoupled):
        with pytest.raises(ValueError):
            solve_log_nd(uncoupled, 0.1)

    @pytest.mark.parametrize("eps", [5e-324, 1e-310])
    def test_subnormal_eps_is_a_solver_error(self, eps):
        # 1/eps overflows, and math.ceil raised a bare OverflowError on it
        with pytest.raises(SolverError, match="1/eps overflows") as exc:
            solve_log_nd(catalog.get("slowlog_c").problem, eps)
        assert type(exc.value) is SolverError

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
