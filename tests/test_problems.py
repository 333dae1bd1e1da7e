import dataclasses
import math

import numpy as np
import pytest

from blowup import catalog, thresholds
from blowup.baselines import solve_arclength
from blowup.errors import InputError
from blowup.integrate import solve_1d, solve_log_nd, solve_nd
from blowup.linalg import JacobianAccess
from blowup.problems import (
    FAIL,
    PASS,
    UNTESTABLE,
    InvalidProblem,
    ScalarProblem,
    VectorProblem,
    check_assumptions,
    require_valid,
    structural_violations,
)
from blowup.thresholds import FInverse, PolyND


def _sq_problem(k=1.1):
    return ScalarProblem(
        rhs=lambda x: x * x,
        rhs_deriv=lambda x: 2.0 * x,
        x0=0.5,
        k=k,
        threshold=FInverse(lambda e: e**-2.0),
    )


def _validates_clean(problem) -> bool:
    """No structural violation and a clean coarse sample (nothing is proven)."""
    return (structural_violations(problem) == []
            and check_assumptions(problem, samples=128, seed=1).ok)


class TestValidate:
    def test_clean_problem(self):
        assert _validates_clean(_sq_problem())

    def test_k_must_exceed_one(self):
        out = structural_violations(_sq_problem(k=0.9))
        assert len(out) == 1 and "k" in out[0]

    def test_x0_on_domain_boundary(self):
        base = catalog.get("uncoupled").problem
        x0 = np.array([math.sqrt(2.0), 1.0])
        boundary = VectorProblem(
            dim=2,
            rhs=base.rhs,
            jacobian=base.jacobian,
            threshold=base.threshold,
            delta=float(np.linalg.norm(x0)),  # delta == |x0| violates strictness
            x0=x0,
        )
        out = structural_violations(boundary)
        assert len(out) == 1 and "delta" in out[0]

    def test_logarithmic_growth_needs_delta_above_one(self):
        base = catalog.get("slowlog_c", c=0.5).problem
        bad = VectorProblem(
            dim=2,
            rhs=base.rhs,
            jacobian=base.jacobian,
            threshold=base.threshold,
            delta=0.5,
            x0=np.array([4.0, 3.0]),
        )
        assert any("delta > 1" in v for v in structural_violations(bad))

    def test_require_valid_joins_every_violation(self):
        require_valid(_sq_problem())  # a valid problem passes
        bad = dataclasses.replace(_sq_problem(k=0.9), x0=-1.0)
        with pytest.raises(InvalidProblem) as exc:
            require_valid(bad)
        assert isinstance(exc.value, InputError)
        assert str(exc.value) == "x0 must be positive, got -1.0; k must exceed 1, got 0.9"


_SQ = catalog.get("sq").problem
_COUPLED = catalog.get("coupled").problem  # |x0| = sqrt(5)
_SLOWLOG = catalog.get("slowlog_c").problem  # |x0| = 5, LogND
# one structural violation each: (problem, a fragment of its message)
_INVALID = {
    "x0-zero": (dataclasses.replace(_SQ, x0=0.0), "x0 must be positive"),
    "x0-negative": (dataclasses.replace(_SQ, x0=-1.0), "x0 must be positive"),
    "k-one": (dataclasses.replace(_SQ, k=1.0), "k must exceed 1"),
    "x0-inside-delta": (dataclasses.replace(_COUPLED, delta=3.0), "must exceed delta"),
    "log-x0-on-delta": (dataclasses.replace(_SLOWLOG, delta=5.0), "must exceed delta"),
    "log-delta-below-one": (dataclasses.replace(_SLOWLOG, delta=0.5), "delta > 1"),
}
_VECTOR = ("x0-inside-delta", "log-x0-on-delta", "log-delta-below-one")
# each solver with the violations that a problem of its kind can have
_SOLVERS = {
    "solve_1d": (solve_1d, ("x0-zero", "x0-negative", "k-one")),
    "solve_nd": (solve_nd, _VECTOR),
    "solve_log_nd": (solve_log_nd, _VECTOR[1:]),  # it takes LogND problems only
    "solve_arclength": (lambda p, eps: solve_arclength(p, eps, rk_tol=1e-10), tuple(_INVALID)),
}


@pytest.mark.parametrize("solver, case", [(name, case) for name, (_, cases) in _SOLVERS.items()
                                          for case in cases])
def test_every_solver_rejects_an_invalid_problem(monkeypatch, solver, case):
    def no_radius_solve(*args):
        raise AssertionError("the radius was solved for an invalid problem")

    monkeypatch.setattr(thresholds, "radius", no_radius_solve)
    problem, fragment = _INVALID[case]
    assert len(structural_violations(problem)) == 1
    with pytest.raises(InvalidProblem) as exc:
        _SOLVERS[solver][0](problem, 2.0**-8)
    assert isinstance(exc.value, InputError)
    assert str(exc.value) == structural_violations(problem)[0]
    assert fragment in str(exc.value)


class TestCheckAssumptions:
    def test_sq_all_pass(self):
        report = check_assumptions(_sq_problem(), samples=1000, seed=1)
        assert report.ok
        assert {c.status for c in report.checks} == {PASS}

    def test_negative_rhs_detected(self):
        prob = ScalarProblem(
            rhs=lambda x: x * x - 10.0 * x,
            rhs_deriv=lambda x: 2.0 * x - 10.0,
            x0=1.0,
            k=1.1,
            threshold=FInverse(lambda e: e**-2.0),
        )
        report = check_assumptions(prob, samples=1000, seed=1)
        assert not report.ok
        fail = {c.name: c for c in report.checks if c.status == FAIL}
        assert "b positive" in fail
        assert fail["b positive"].counterexample < 10.0

    def test_coupled_growth_holds_with_unit_constant(self):
        prob = catalog.get("coupled").problem
        assert prob.threshold.c_check == 1.0 and prob.threshold.alpha == 2.0
        report = check_assumptions(prob, samples=1000, seed=1)
        assert report.ok

    def test_overflow_reported_untestable_not_failed(self):
        prob = catalog.get("expsq").problem
        report = check_assumptions(prob, samples=500, seed=1)
        assert report.ok  # large-x overflow must not count as failure
        by_name = {c.name: c for c in report.checks}
        assert "untestable" in by_name["b positive"].detail

    def test_zero_start_is_untestable(self):
        sq = dataclasses.replace(_sq_problem(), x0=0.0)
        coupled = catalog.get("coupled").problem
        for prob in (sq, dataclasses.replace(coupled, x0=np.zeros(2))):
            report = check_assumptions(prob, samples=50, seed=1)
            assert {c.status for c in report.checks} == {UNTESTABLE}
            assert structural_violations(prob)

    def test_samples_validated(self):
        with pytest.raises(ValueError):
            check_assumptions(_sq_problem(), samples=0)


def test_catalog_scalar_derivatives_match_finite_differences():
    cases = [
        catalog.get("sq"),
        catalog.get("expsq"),
        catalog.get("xlog_c", c=0.5),
        catalog.get("xlog_c", c=1.0),
    ]
    for entry in cases:
        p = entry.problem
        tested = 0
        for x in np.geomspace(p.x0, 1e3, 100):
            x = float(x)
            eta = 1e-6 * max(1.0, abs(x))
            try:
                lo, hi = p.rhs(x - eta), p.rhs(x + eta)
            except OverflowError:
                continue
            if not (math.isfinite(lo) and math.isfinite(hi)):
                continue
            fd = (hi - lo) / (2.0 * eta)
            exact = p.rhs_deriv(x)
            assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact)), (entry.id, x)
            tested += 1
        assert tested >= 25, entry.id


def test_catalog_dense_jacobians_define_exact_jvp():
    rng = np.random.default_rng(11)
    for pid, kwargs in [("uncoupled", {}), ("coupled", {}), ("slowlog_c", {"c": 0.5})]:
        prob = catalog.get(pid, **kwargs).problem
        for _ in range(10):
            x = prob.x0 * float(rng.uniform(1.0, 5.0))
            v = rng.normal(size=prob.dim)
            direct = np.asarray(prob.jacobian.dense(x)) @ v
            assert np.array_equal(np.asarray(prob.jacobian.dense(x), dtype=float) @ v, direct)


def test_every_shipped_problem_validates_clean():
    shipped = [
        catalog.get("sq"),
        catalog.get("expsq"),
        catalog.get("xlog_c", c=0.5),
        catalog.get("xlog_c", c=1.0),
        catalog.get("uncoupled"),
        catalog.get("coupled"),
        catalog.get("slowlog_c", c=0.5),
        catalog.get("slowlog_c", c=1.0),
        catalog.get("rd", m=2),
        catalog.get("rd", m=8),
        catalog.get("rd", m=32),
    ]
    for entry in shipped:
        assert _validates_clean(entry.problem), entry.id


def test_vector_threshold_validation():
    base = catalog.get("coupled").problem
    assert not base.threshold.nominal

    def with_rule(rule):
        return structural_violations(dataclasses.replace(base, threshold=rule))

    assert with_rule(PolyND(c_check=1.0, alpha=2.0)) == []
    out = with_rule(FInverse(lambda e: e**-2.0))  # a 1D rule carries no growth bound
    assert len(out) == 1 and "PolyND or LogND" in out[0]
    out = with_rule(PolyND(c_check=0.0, alpha=-1.0))
    assert len(out) == 2 and "alpha" in out[0] and "c_check" in out[1]
