import dataclasses
import math

import numpy as np
import pytest

from blowup import catalog
from blowup.linalg import JacobianAccess
from blowup.problems import (
    FAIL,
    PASS,
    UNTESTABLE,
    ScalarProblem,
    VectorProblem,
    check_assumptions,
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
