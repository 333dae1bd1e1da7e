import math

import pytest

from blowup import catalog
from blowup.errors import SolverError
from blowup.problems import ScalarProblem
from blowup.thresholds import (
    RADIUS_CAP,
    BPrimeLog,
    BracketFailure,
    ExplicitRadius,
    FInverse,
    LogND,
    NonMonotone,
    PolyND,
    radius,
    tau_tail_bound,
)


@pytest.fixture(scope="module")
def sq():
    return catalog.get("sq").problem


@pytest.fixture(scope="module")
def expsq():
    return catalog.get("expsq").problem


class TestFInverse:
    def test_sq_radius_is_reciprocal_eps(self, sq):
        r = radius(sq.threshold, sq, 2.0**-10)
        assert r == pytest.approx(1024.0, rel=1e-12)

    def test_radius_times_eps_is_one(self, sq):
        # closed form: b(r) = eps^-2 with b = x^2 means r*eps = 1
        for k in range(4, 20, 2):
            eps = 2.0**-k
            assert abs(radius(sq.threshold, sq, eps) * eps - 1.0) <= 1e-12

    def test_root_postcondition(self, expsq):
        # generic residual bound through a non-polynomial b
        prob = ScalarProblem(
            rhs=expsq.rhs,
            rhs_deriv=expsq.rhs_deriv,
            x0=1.0,
            k=1.1,
            threshold=FInverse(lambda e: 1.0 / e),
        )
        for eps in (1e-2, 1e-4, 1e-6):
            target = 1.0 / eps
            r = radius(prob.threshold, prob, eps)
            assert abs(prob.rhs(r) - target) <= 1e-10 * target

    def test_root_below_start_contracts(self, sq):
        # eps so large that r < x0: bracket must contract downward
        r = radius(sq.threshold, sq, 4.0)
        assert r == pytest.approx(0.25, rel=1e-12)


class TestBPrimeLog:
    def test_root_solve_against_substitution(self, expsq):
        eps = 1e-4
        target = math.log(1.0 / eps) / eps
        assert target == pytest.approx(1e4 * math.log(1e4), rel=1e-15)
        r = radius(expsq.threshold, expsq, eps)
        assert abs(expsq.rhs_deriv(r) - target) <= 1e-10 * target

    def test_tail_bound_formula(self, expsq):
        eps = 1e-4
        r = radius(expsq.threshold, expsq, eps)
        bp = expsq.rhs_deriv(r)
        assert tau_tail_bound(expsq.threshold, expsq, eps) == pytest.approx(
            2.0 * math.log(bp) / bp, rel=1e-12
        )


class TestClosedForms:
    def test_poly_nd(self):
        prob = catalog.get("coupled").problem
        assert prob.threshold == PolyND(c_check=1.0, alpha=2.0)
        assert radius(prob.threshold, prob, 0.005) == pytest.approx(10.0, rel=1e-14)

    def test_log_nd(self):
        # the rule carries its growth bound, so it needs nothing from the problem
        rule = LogND(c_check=1.0, alpha=1.0)
        assert radius(rule, None, 0.25) == pytest.approx(math.exp(4.0), rel=1e-14)

    def test_log_nd_caps_instead_of_overflowing(self):
        prob = catalog.get("slowlog_c", c=0.5).problem
        r = radius(prob.threshold, prob, 2.0**-8)
        assert r == RADIUS_CAP

    def test_explicit_radius_caps(self):
        prob = catalog.get("xlog_c", c=0.5).problem
        assert radius(prob.threshold, prob, 0.01) == RADIUS_CAP
        # representable for large enough eps
        assert radius(prob.threshold, prob, 0.1) == pytest.approx(math.exp(400.0), rel=1e-12)

    @pytest.mark.parametrize("c", [0.125, 0.25, 0.5, 1.0, 3.0])
    def test_xlog_radius_is_its_closed_form(self, c):
        # min(exp((c eps)^(-1/c)), RADIUS_CAP) with math, overflow read as inf, by repr
        prob = catalog.get("xlog_c", c=c).problem
        for k in range(80):
            for eps in (2.0**-k, 1.37 * 2.0**-k):
                try:
                    want = math.exp((c * eps) ** (-1.0 / c))
                except OverflowError:
                    want = math.inf
                got = radius(prob.threshold, prob, eps)
                assert repr(got) == repr(min(want, RADIUS_CAP)), eps

    def test_nan_radius_is_an_error_not_the_cap(self):
        with pytest.raises(SolverError, match="ExplicitRadius gives radius nan at eps = 0.25"):
            radius(ExplicitRadius(lambda e: math.nan), None, 0.25)


class TestTailBounds:
    def test_finverse_tail_is_eps_and_matches_integral(self, sq):
        eps = 2.0**-10
        assert tau_tail_bound(sq.threshold, sq, eps) == eps
        # independent check: tail time = integral of x^-2 from r to infinity = 1/r
        r = radius(sq.threshold, sq, eps)
        assert 1.0 / r == pytest.approx(eps, rel=1e-12)

    def test_poly_nd_tail_is_eps(self):
        prob = catalog.get("coupled").problem
        assert tau_tail_bound(prob.threshold, prob, 0.37) == 0.37

    def test_explicit_radius_known_tail(self):
        # for b = x log(x)^(1+c): integral of 1/b from r to inf = 1/(c log(r)^c),
        # and log(r(eps)) = (c*eps)^(-1/c), so the tail is exactly eps
        c = 0.5
        prob = catalog.get("xlog_c", c=c).problem
        eps = 0.01
        log_r = (c * eps) ** (-1.0 / c)
        assert 1.0 / (c * log_r**c) == pytest.approx(eps, rel=1e-15)
        assert tau_tail_bound(prob.threshold, prob, eps) == eps

    def test_explicit_radius_unknown_tail_is_nan(self, sq):
        rule = ExplicitRadius(lambda e: 1.0 / e, tail_is_eps=False)
        assert math.isnan(tau_tail_bound(rule, sq, 0.01))


def test_radius_nondecreasing_as_eps_decreases():
    for pid, kwargs in [
        ("sq", {}),
        ("expsq", {}),
        ("xlog_c", {"c": 1.0}),
        ("xlog_c", {"c": 0.5}),
        ("uncoupled", {}),
        ("coupled", {}),
        ("slowlog_c", {"c": 0.5}),
        ("rd", {"m": 8}),
    ]:
        prob = catalog.get(pid, **kwargs).problem
        eps = 2.0**-2
        prev = radius(prob.threshold, prob, eps)
        for _ in range(10):
            eps /= 2.0
            cur = radius(prob.threshold, prob, eps)
            assert cur >= prev * (1.0 - 1e-12), f"{pid}{kwargs}"
            prev = cur


# radius(p.threshold, p, eps).hex() at eps = 2^-4 and 2^-8 for every catalog entry
# with its default parameters, recorded before the R^n growth bounds moved into
# the PolyND/LogND rules. The 0x1.658e3ab795204p+830 entries are RADIUS_CAP.
PINNED_RADII = {
    "sq": ("0x1.0000000000000p+4", "0x1.0000000000000p+8"),
    "expsq": ("0x1.9e371656334b3p+0", "0x1.31773f186eeaep+1"),
    "xlog_c": ("0x1.658e3ab795204p+830", "0x1.658e3ab795204p+830"),
    "uncoupled": ("0x1.0000000000000p+2", "0x1.0000000000000p+4"),
    "coupled": ("0x1.6a09e667f3bcdp+1", "0x1.6a09e667f3bcdp+3"),
    "slowlog_c": ("0x1.59c33968959ddp+188", "0x1.658e3ab795204p+830"),
    "rd": ("0x1.0000000000000p+4", "0x1.0000000000000p+8"),
}


@pytest.mark.parametrize("pid", catalog.IDS)
def test_catalog_radii_are_pinned(pid):
    prob = catalog.get(pid).problem
    got = tuple(radius(prob.threshold, prob, eps).hex() for eps in (2.0**-4, 2.0**-8))
    assert got == PINNED_RADII[pid]


class TestRootFinderFailures:
    def test_bracket_failure_for_bounded_rhs(self):
        prob = ScalarProblem(
            rhs=lambda x: 1.0 - 1.0 / (1.0 + x),
            rhs_deriv=lambda x: 1.0 / (1.0 + x) ** 2,
            x0=1.0,
            k=1.1,
            threshold=FInverse(lambda e: e**-2.0),
        )
        with pytest.raises(BracketFailure):
            radius(prob.threshold, prob, 1e-3)

    def test_non_monotone_rhs_detected(self):
        prob = ScalarProblem(
            rhs=lambda x: 1.0 / (1.0 + x),
            rhs_deriv=lambda x: -1.0 / (1.0 + x) ** 2,
            x0=1.0,
            k=1.1,
            threshold=FInverse(lambda e: 2.0),
        )
        with pytest.raises(NonMonotone):
            radius(prob.threshold, prob, 0.5)

    def test_nonpositive_eps_rejected(self, sq):
        with pytest.raises(ValueError):
            radius(sq.threshold, sq, 0.0)
