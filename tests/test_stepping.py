import dataclasses
import math

import numpy as np
import pytest

from blowup import catalog, integrate
from blowup.baselines import ArcLength, Rescaling
from blowup.errors import InputError, SolverError
from blowup.integrate import SolverConfig, solve_1d, solve_nd
from blowup.linalg import JacobianAccess, safe_norm
from blowup.problems import ScalarProblem, VectorProblem
from blowup.stepping import (
    LAWS_1D,
    LAWS_ND,
    Adaptive1D,
    AdaptiveND,
    AltND,
    LogNDFixedN,
    LogNDImplicitN,
    NonincreasingField,
    NonpositiveDerivative,
    PowerUniformND,
    Taylor1D,
    Uniform1D,
    UniformND,
)
from blowup.thresholds import ExplicitRadius, PolyND, radius

B_SQ = lambda x: x * x
DB_SQ = lambda x: 2.0 * x


def scalar(x0, r, db=DB_SQ, b=B_SQ, k=1.1):
    """x' = b(x) from x0 with probe factor k, integrated to the explicit radius r."""
    threshold = ExplicitRadius(lambda e: r, tail_is_eps=False)
    return ScalarProblem(rhs=b, rhs_deriv=db, x0=x0, k=k, threshold=threshold)


def first_step_1d(law, eps, x0, r, db=DB_SQ, b=B_SQ):
    """The size of law's first step from x0 in a traced solve_1d run to radius r."""
    cfg = SolverConfig(law=law, record_trace=True, max_steps=200_000)
    res = solve_1d(scalar(x0, r, db, b), eps, cfg)
    return res.trace[1][0]


def uniform_step(eps, r, x0):
    return Uniform1D().step_size(scalar(x0, r), eps, r)


def planar(jacobian, rhs):
    return VectorProblem(
        dim=2,
        rhs=rhs,
        jacobian=jacobian,
        threshold=PolyND(1.0, 1.0),
        delta=0.5,
        x0=np.array([1.0, 0.0]),
    )


def first_step_nd(law, problem, eps):
    """The size of law's first step in a traced solve_nd run of problem, with
    its radius moved down to |x0|, so that a first step that grows |x| crosses it."""
    n0 = safe_norm(problem.x0)
    c = 1.0 / (n0 * eps)
    while radius(PolyND(c, 1.0), problem, eps) < n0:  # r = 1/(c eps), rounded
        c = math.nextafter(c, 0.0)
    at_x0 = dataclasses.replace(problem, threshold=PolyND(c, 1.0, nominal=True))
    res = solve_nd(at_x0, eps, SolverConfig(law=law, record_trace=True, max_steps=1))
    return res.trace[1][0]


def step_nd(law, eps, r=1e6, jac_norm=1.0, b_norm=1.0, jvp_norm=0.0):
    """law's step where |b(x)| = b_norm and |b'(x) b(x)| = jvp_norm, with the
    constant b(x) = (b_norm, 0) and b'(x) = diag(jvp_norm / b_norm, jac_norm). The
    2x2 closed form gives ||b'(x)|| = jac_norm exactly while jvp_norm is 0. A
    per-state law's step is read from a run (first_step_nd), a constant law's
    is its step_size at radius r."""
    jac = JacobianAccess(dense=lambda x: ((jvp_norm / b_norm, 0.0), (0.0, jac_norm)))
    prob = planar(jac, lambda x: (b_norm, 0.0))
    if hasattr(law, "step_size"):
        return law.step_size(prob, eps, r)
    return first_step_nd(law, prob, eps)


class TestAdaptive1D:
    def test_probe_below_radius(self):
        eps = 2.0**-10
        assert first_step_1d(Adaptive1D(), eps, 0.5, 1024.0) == eps / math.sqrt(DB_SQ(1.1 * 0.5))

    def test_probe_clamps_at_radius(self):
        eps = 2.0**-10
        h = first_step_1d(Adaptive1D(), eps, 1000.0, 1024.0)  # probe 1100 > r
        assert h == eps / math.sqrt(2048.0)
        assert h == pytest.approx(2.1579e-5, rel=1e-4)

    def test_exponential_field(self):
        eps = 1e-3
        b = lambda x: math.exp(x * x)
        db = lambda x: 2.0 * x * math.exp(x * x)
        expected = eps / math.sqrt(2.2 * math.exp(1.21))
        # r = 20 keeps every probe inside math.exp's range
        assert first_step_1d(Adaptive1D(), eps, 1.0, 20.0, db, b) == pytest.approx(
            expected, rel=1e-15
        )

    def test_nonpositive_derivative(self):
        with pytest.raises(NonpositiveDerivative):
            first_step_1d(Adaptive1D(), 0.01, 1.0, 10.0, lambda x: -1.0)

    def test_independent_of_state_once_clamped(self):
        eps = 2.0**-8
        r = 64.0
        ref = first_step_1d(Adaptive1D(), eps, r / 1.1, r)
        for i in range(10):
            xbar = r / 1.1 * (1.0 + 0.009 * (i + 1))  # k * xbar >= r > xbar
            assert first_step_1d(Adaptive1D(), eps, xbar, r) == ref


class TestTaylor1D:
    def test_second_order_example(self):
        eps = 2.0**-10
        h = first_step_1d(Taylor1D(), eps, 0.5, 1024.0)
        assert h == math.sqrt(eps) / 1.1 ** (2.0 / 3.0)
        assert h == pytest.approx(0.029326, rel=1e-4)

    def test_identity_case(self):
        assert first_step_1d(Taylor1D(), 1.0, 5.0, 10.0, lambda x: 1.0) == 1.0


class TestUniform1D:
    def test_sq_example(self):
        eps = 2.0**-10
        h = uniform_step(eps, 1024.0, x0=0.5)
        h_bar = eps / math.log(B_SQ(1024.0) / B_SQ(0.5))
        assert math.log(B_SQ(1024.0) / B_SQ(0.5)) == pytest.approx(22 * math.log(2), rel=1e-15)
        assert h == min(h_bar, 1.0 / 4096.0)
        assert h == h_bar  # the log branch binds here

    def test_derivative_branch_binds_for_large_eps(self):
        h = uniform_step(100.0, 1024.0, x0=0.5)
        assert h == 1.0 / (2.0 * DB_SQ(1024.0))

    def test_equal_endpoints_rejected(self):
        with pytest.raises(NonincreasingField):
            uniform_step(0.1, 2.0, x0=2.0)


class TestInlinedLawsAgree:
    """solve_1d computes the Adaptive1D and Taylor1D steps in its loop; every
    step of a full run must be bit-equal to the update built from the law's
    formula written out here (Uniform1D: its step_size)."""

    @pytest.mark.parametrize(
        "pid, method, eps",
        [
            ("sq", "adaptive", 2.0**-10),
            ("sq", "taylor2", 2.0**-14),
            ("sq", "uniform", 2.0**-8),
            ("expsq", "adaptive", 2.0**-8),
        ],
    )
    def test_every_step(self, pid, method, eps):
        entry = catalog.get(pid)
        prob, law = entry.problem, entry.methods[method]
        res = solve_1d(prob, eps, SolverConfig(law=law, record_trace=True))
        b, bd, k, r = prob.rhs, prob.rhs_deriv, prob.k, res.radius_used
        h_of = {
            "adaptive": lambda x: eps / math.sqrt(bd(min(k * x, r))),
            "taylor2": lambda x: eps**0.5 / float(bd(min(k * x, r))) ** (2.0 / 3.0),
            "uniform": lambda x: law.step_size(prob, eps, r),
        }[method]
        assert len(res.trace) == res.steps + 1 > 100
        for (t0, x0), (t1, x1) in zip(res.trace, res.trace[1:]):
            h = h_of(x0)
            expected = x0 + b(x0) * h
            if isinstance(law, Taylor1D):
                expected = expected + 0.5 * bd(x0) * b(x0) * h * h
            assert (t1, x1) == (t0 + h, expected)


class TestAdaptiveND:
    def test_example(self):
        assert step_nd(AdaptiveND(), 0.01, jac_norm=15.0) == pytest.approx(
            0.01 / math.sqrt(15.0), rel=1e-15
        )
        assert step_nd(AdaptiveND(), 0.01, jac_norm=15.0) == pytest.approx(2.5820e-3, rel=1e-4)

    def test_clamps_small_norms(self):
        assert step_nd(AdaptiveND(), 0.01, jac_norm=0.3) == 0.01

    def test_powers_of_two(self):
        assert step_nd(AdaptiveND(), 2.0**-5, jac_norm=4.0) == 2.0**-6


class TestAltND:
    def test_example(self):
        h = step_nd(AltND(), 1e-3, b_norm=4.0, jvp_norm=16.0)
        assert h == pytest.approx(5e-4, rel=1e-15)

    def test_identity_case(self):
        assert step_nd(AltND(), 1e-3, b_norm=1.0, jvp_norm=1.0) == 1e-3

    def test_cap_clips(self):
        assert step_nd(AltND(cap=2e-4), 1e-3, b_norm=4.0, jvp_norm=16.0) == 2e-4
        assert step_nd(AltND(cap=1e-3), 1e-3, b_norm=4.0, jvp_norm=16.0) == 5e-4

    def test_falls_back_to_adaptive_where_jvp_vanishes(self):
        # J = [[0, 3], [0, 0]] is nilpotent: J(x) b(x) = 0 for b(x) = (1, 0), ||J|| = 3
        prob = planar(JacobianAccess(dense=lambda x: np.array([[0.0, 3.0], [0.0, 0.0]])),
                      lambda x: (1.0, 0.0))
        eps = 2.0**-10
        adaptive = first_step_nd(AdaptiveND(), prob, eps)
        assert adaptive == pytest.approx(eps / 3.0**0.5, rel=1e-15)
        for law in (AltND(), AltND(cap=1.0)):
            assert first_step_nd(law, prob, eps) == adaptive
        assert first_step_nd(AltND(cap=adaptive / 2), prob, eps) == adaptive / 2
        # the same through step_nd's diagonal Jacobian
        assert step_nd(AltND(), eps, jac_norm=3.0, jvp_norm=0.0) == adaptive

    def test_dense_jvp_beyond_the_plane(self):
        # dim 3 takes J v as dense(x) @ v: J b = (2, 0, 0) * 3 at b = (0, 3, 0)
        J = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 5.0]])
        prob = VectorProblem(dim=3, rhs=lambda x: np.array([0.0, 3.0, 0.0]), jacobian=
            JacobianAccess(dense=lambda x: J), threshold=PolyND(1.0, 1.0), delta=0.5,
            x0=np.array([1.0, 0.0, 0.0]))
        eps = 2.0**-10
        h = first_step_nd(AltND(), prob, eps)
        assert h == eps * math.sqrt(3.0) / math.sqrt(6.0)
        assert h == pytest.approx(eps / math.sqrt(2.0), rel=1e-15)

    def test_rd_initial_profile_against_dense_oracle(self):
        # oracle: dense tridiagonal assembly at m = 32
        m = 32
        prob = catalog.get("rd", m=m).problem
        x = prob.x0
        bx = prob.rhs(x)
        dense = np.diag(np.full(m - 1, -2.0 * m * m)) + np.diag(
            np.full(m - 2, float(m * m)), 1
        ) + np.diag(np.full(m - 2, float(m * m)), -1) + np.diag(2.0 * x)
        b_norm = float(np.linalg.norm(bx))
        jvp_norm_oracle = float(np.linalg.norm(dense @ bx))
        jvp_norm_matfree = float(np.linalg.norm(prob.jacobian.jvp(x, bx)))
        assert jvp_norm_matfree == pytest.approx(jvp_norm_oracle, rel=1e-12)

        eps = 2.0**-18
        cap = 1.0 / (2.0 * m * m)
        h_alt = first_step_nd(AltND(cap=cap), prob, eps)
        # the adaptive branch, not the cap, binds at t = 0 for this tolerance
        assert h_alt < cap
        assert h_alt == pytest.approx(
            eps * math.sqrt(b_norm) / math.sqrt(jvp_norm_oracle), rel=1e-12
        )
        assert h_alt == eps * math.sqrt(safe_norm(bx)) / math.sqrt(
            safe_norm(prob.jacobian.jvp(x, bx))
        )

    def test_relation_to_adaptive_law(self):
        # h_alt == h_adaptive * sqrt(norm * |b| / |b'b|) whenever norm >= 1
        rng = np.random.default_rng(5)
        for _ in range(25):
            eps = float(rng.uniform(1e-6, 1e-1))
            bn = float(rng.uniform(0.1, 1e3))
            jn = float(rng.uniform(0.1, 1e3))
            norm = float(rng.uniform(1.0, 1e4))
            lhs = step_nd(AltND(), eps, b_norm=bn, jvp_norm=jn)
            rhs = step_nd(AdaptiveND(), eps, jac_norm=norm) * math.sqrt(norm * bn / jn)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestLogND:
    def test_example(self):
        assert step_nd(LogNDFixedN(100), 0.01, jac_norm=4.0) == pytest.approx(5e-3, rel=1e-15)

    def test_identity_case(self):
        assert step_nd(LogNDFixedN(1), 1.0, jac_norm=0.5) == 1.0

    def test_powers_of_two(self):
        assert step_nd(LogNDFixedN(2**10), 2.0**-8, jac_norm=2.0**6) == 2.0**-12

    def test_guess_validation(self):
        with pytest.raises(ValueError):
            LogNDFixedN(0)


class TestUniformND:
    def test_example(self):
        h = step_nd(UniformND(), 2.0**-10, r=2.0**10)
        assert h == pytest.approx(2.0**-10 / (10.0 * math.log(2.0)), rel=1e-15)

    def test_radius_must_exceed_e(self):
        # a run whose radius is this small cannot proceed: a failed cell, not bad input
        with pytest.raises(SolverError, match="needs r > e"):
            step_nd(UniformND(), 0.1, r=math.e)

    def test_large_radius(self):
        assert step_nd(UniformND(), 0.01, r=math.exp(100.0)) == pytest.approx(1e-4, rel=1e-12)

    def test_cap_clips(self):
        assert step_nd(UniformND(cap=1e-5), 0.01, r=math.exp(100.0)) == 1e-5


def test_every_law_increasing_in_eps():
    eps_grid = [2.0**-k for k in range(8, 13)]
    laws = [
        lambda e: first_step_1d(Adaptive1D(), e, 0.5, 1024.0),
        lambda e: first_step_1d(Taylor1D(), e, 0.5, 1024.0),
        # small eps so the log branch binds; the 1/(2 b'(r)) cap has no eps in it
        lambda e: first_step_1d(Uniform1D(), e, 0.5, 1024.0),
        lambda e: step_nd(AdaptiveND(), e, jac_norm=7.0),
        lambda e: step_nd(AltND(), e, b_norm=3.0, jvp_norm=11.0),
        lambda e: step_nd(LogNDFixedN(64), e, jac_norm=7.0),
        lambda e: step_nd(UniformND(), e, r=100.0),
    ]
    for law in laws:
        hs = [law(e) for e in eps_grid]
        assert all(h1 > h2 for h1, h2 in zip(hs, hs[1:]))


def test_every_catalog_law_is_a_solver_law():
    # solve_log_nd runs LogNDImplicitN, and the baselines' own solvers run
    # ArcLength and Rescaling
    baselines = (ArcLength, Rescaling)
    for pid in catalog.IDS:
        for law in catalog.get(pid).methods.values():
            assert isinstance(law, LAWS_1D + LAWS_ND + (LogNDImplicitN,) + baselines)
    # every law the two Euler solvers take has one representation: step text in
    # one of integrate's step tables, or a step_size called once per run
    for kind in LAWS_1D + LAWS_ND:
        tables = [table for table in (integrate._STEPS, integrate._STEPS_ND) if kind in table]
        assert len(tables) + hasattr(kind, "step_size") == 1, kind


@pytest.mark.parametrize("cap", [0.0, -1e-3, math.nan], ids=["0", "negative", "nan"])
@pytest.mark.parametrize("law", [AltND, UniformND])
def test_step_cap_must_be_positive(law, cap):
    # a cap of 0 holds the state still, a negative one runs it backwards, and a
    # NaN one clips nothing
    with pytest.raises(InputError, match="needs cap > 0 or None"):
        law(cap=cap)


@pytest.mark.parametrize("exponent", [0.0, -1.0, math.nan], ids=["0", "negative", "nan"])
def test_power_exponent_must_be_positive(exponent):
    # eps^p shrinks with eps only for p > 0: on uncoupled at 2^-6, where tau = 1/4,
    # an exponent of -1 gave tau_hat = 64 in one step and 0 gave 2 in two
    with pytest.raises(InputError, match="needs exponent > 0"):
        PowerUniformND(exponent)
