import math

import numpy as np
import pytest

from blowup import catalog, expr
from blowup.baselines import ArcLength, Rescaling
from blowup.catalog import Exact, Pseudo, UnknownId
from blowup.errors import BlowupError
from blowup.harness import run_method
from blowup.integrate import SolverConfig
from blowup.problems import ScalarProblem, check_assumptions


def test_ids():
    ids = catalog.IDS
    assert ids == ("sq", "expsq", "xlog_c", "uncoupled", "coupled", "slowlog_c", "rd")
    assert len(set(ids)) == len(ids)


def test_unknown_id():
    with pytest.raises(UnknownId):
        catalog.get("nope")


@pytest.mark.parametrize(
    "pid, kw",
    [("coupled", {"m": 8}), ("sq", {"c": 0.5}), ("xlog_c", {"m": 8}), ("rd", {"c": 0.5})],
)
def test_parameter_the_id_does_not_take_is_rejected(pid, kw):
    with pytest.raises(UnknownId, match="takes no parameter"):
        catalog.get(pid, **kw)


@pytest.mark.parametrize("m", [4.5, 8.25, math.nan, math.inf, "8"])
def test_non_integral_m_is_rejected(m):
    # int(m) truncates: a vary-m row labelled rd(4.5) was computed on rd(4)
    with pytest.raises(UnknownId, match="needs an integral m"):
        catalog.get("rd", m=m)


@pytest.mark.parametrize("pid", ["xlog_c", "slowlog_c"])
@pytest.mark.parametrize("c", ["x", 1j, math.inf, math.nan, 0.0, -0.5], ids=repr)
def test_c_that_is_not_a_finite_real_above_0_is_rejected(pid, c):
    # "x" and 1j raised a bare ValueError and TypeError, slowlog_c's c = inf a bare
    # OverflowError from its sampling grid, and xlog_c's c = inf gave an entry
    with pytest.raises(UnknownId, match="needs a finite real c > 0"):
        catalog.get(pid, c=c)


@pytest.mark.parametrize("m", [8, 8.0, np.int64(8), np.int32(8)], ids=str)
def test_integral_m_of_any_type_is_taken(m):
    assert catalog.get("rd", m=m).problem.dim == 7


@pytest.mark.parametrize("eps", [5e-324, 1e-320, 1e-310])
@pytest.mark.parametrize("pid", catalog.IDS)
def test_every_method_at_a_subnormal_eps_returns_or_raises_a_blowup_error(pid, eps):
    # 1/eps overflows here: solve_log_nd's first guess of N and rescaling's cycle
    # estimate each raised a bare OverflowError from math.ceil
    entry = catalog.get(pid)
    for method in entry.methods:
        try:
            run_method(entry, method, eps, cfg=SolverConfig(max_steps=100))
        except BlowupError:
            pass


def test_scalar_fields_carry_their_trees():
    # solve_1d computes a field inline only when it carries its expression tree; a
    # lambda here would silently put the entry back on the loop that calls it
    entries = [catalog.get(pid) for pid in catalog.IDS] + [catalog.get("xlog_c", c=2.0)]
    fields = [(entry.id, name, getattr(entry.problem, name)) for entry in entries
              if isinstance(entry.problem, ScalarProblem)
              for name in ("rhs", "rhs_deriv", "rhs_second")]
    untreed = [(pid, name) for pid, name, f in fields if f is not None and not hasattr(f, "tree")]
    assert len(fields) == 12 and not untreed


def _points(rng, n):
    """n planar points of every scale from 1e-300 to 1e300, with every fiftieth
    first coordinate a signed zero, an infinity, NaN or 1e308."""
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308]
    points = []
    for i in range(n):
        scale = 10.0 ** rng.choice([0, 1, 5, 60, 150, 200, 300])
        x1, x2 = (rng.uniform(-1.0, 1.0) * scale ** rng.uniform(-1.0, 1.0) for _ in range(2))
        points.append((specials[i // 50 % 6] if i % 50 == 0 else x1, x2))
    return points


def _slowlog_closures(c):
    """slowlog_c's field and Jacobian as the closures that the catalog held
    before its trees, of (x1, x2)."""
    one_c = 1.0 + c

    def rhs(x1, x2):
        m = max(abs(x1), abs(x2))
        u1, u2 = x1 / m, x2 / m
        log_m2 = 2.0 * math.log(m)
        l1 = log_m2 + math.log(u1 * u1 + 2.0 * u2 * u2)
        l2 = log_m2 + math.log(2.0 * u1 * u1 + u2 * u2)
        return (x1 * l1**one_c, x2 * l2**one_c)

    def jac(x1, x2):
        m = max(abs(x1), abs(x2))
        u1, u2 = x1 / m, x2 / m
        log_m2 = 2.0 * math.log(m)
        q1 = u1 * u1 + 2.0 * u2 * u2
        q2 = 2.0 * u1 * u1 + u2 * u2
        l1 = log_m2 + math.log(q1)
        l2 = log_m2 + math.log(q2)
        g1 = one_c * l1**c
        g2 = one_c * l2**c
        return (
            (l1**one_c + g1 * (2.0 * u1 * u1 / q1), g1 * (4.0 * u1 * u2 / q1)),
            (g2 * (4.0 * u1 * u2 / q2), l2**one_c + g2 * (2.0 * u2 * u2 / q2)),
        )

    return rhs, jac


# The planar fields as closures, with the operation order their trees keep, by
# test id: (problem id, c, field, Jacobian)
PLANAR_CLOSURES = {
    "uncoupled": (
        "uncoupled", None,
        lambda x1, x2: (expr.float_pow(x1, 3), expr.float_pow(x2, 5)),
        lambda x1, x2: ((3.0 * expr.float_pow(x1, 2), 0.0), (0.0, 5.0 * expr.float_pow(x2, 4))),
    ),
    "coupled": (
        "coupled", None,
        lambda x1, x2: (x1 * (x1 * x1 + x2 * x2), x2 * (x1 * x1 + x2 * x2)),
        lambda x1, x2: ((3.0 * x1 * x1 + x2 * x2, 2.0 * x1 * x2),
                        (2.0 * x1 * x2, x1 * x1 + 3.0 * x2 * x2)),
    ),
    **{f"slowlog_c-{c}": ("slowlog_c", c, *_slowlog_closures(c)) for c in (0.25, 0.5, 1.0, 2.0)},
}
# ties |x1| = |x2| of both signs, at every scale
_TIES = [(s1 * t, s2 * t) for t in (1.0, 3.0, 1e-200, 1e150, 1e300, 5e-324)
         for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]


@pytest.mark.parametrize("case", sorted(PLANAR_CLOSURES))
def test_planar_trees_compute_the_closures_floats(case):
    # solve_nd's loop computes these trees inline, so a changed operation order
    # would move tau_hat; arrays are what check_assumptions passes. slowlog_c is
    # compared on its domain: every point but the origin where c is integral,
    # else where max|x_i| >= 1, so that l_i >= 0 (test_slowlog_trees_raise_domain_error
    # has the rest)
    pid, c, rhs, dense = PLANAR_CLOSURES[case]
    problem = catalog.get(pid, c=c).problem
    rng = np.random.default_rng(7)
    points = [x for x in _points(rng, 4000) + _TIES + [np.array(x) for x in _points(rng, 400)]
              if pid != "slowlog_c" or c.is_integer()
              or math.isfinite(m := max(map(abs, x))) and m >= 1.0]
    assert len(points) > 2000
    with np.errstate(all="ignore"):
        for x in points:
            assert repr((problem.rhs(x), problem.jacobian.dense(x))) == repr((rhs(*x), dense(*x)))


@pytest.mark.parametrize("x, closure_outcome", [
    ((0.0, -0.0), ZeroDivisionError),  # the origin, at every c
    ((0.3, -0.2), complex),  # l_i < 0 inside |x| < 1, to a non-integral power
    ((math.inf, 1.0), math.nan),  # l_1 = nan, to a non-integral power
    ((math.nan, 1.0), math.nan),
])
def test_slowlog_trees_raise_domain_error(x, closure_outcome):
    # where the closures raised ZeroDivisionError or returned a complex or NaN
    # b(x), the trees raise DomainError, as every expression off its domain does
    problem = catalog.get("slowlog_c", c=0.5).problem
    rhs, _ = _slowlog_closures(0.5)
    if closure_outcome is ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            rhs(*x)
    elif closure_outcome is complex:
        assert isinstance(rhs(*x)[0], complex)
    else:
        assert math.isnan(rhs(*x)[0])
    for f in (problem.rhs, problem.jacobian.dense):
        with pytest.raises(expr.DomainError):
            f(x)


def test_xlog_derivative_takes_one_log():
    # lx^(1+c) + (1+c) lx^c, with lx = log(x) one shared node
    lines, _ = expr.emit(catalog.get("xlog_c").problem.rhs_deriv.tree, "x", {}, "v")
    assert sum("_log(" in line for line in lines) == 1


@pytest.mark.parametrize("pid", catalog.IDS)
def test_none_stands_for_the_default(pid):
    assert catalog.get(pid, c=None, m=None) is catalog.get(pid)


class TestReferences:
    def test_sq_exact(self):
        assert catalog.get("sq").reference == Exact(2.0)

    def test_xlog_exact_value(self):
        # tau = 1/(c log(2)^c)
        assert catalog.get("xlog_c", c=1.0).reference.value == pytest.approx(
            1.0 / math.log(2.0), rel=1e-15
        )
        assert catalog.get("xlog_c", c=0.5).reference.value == pytest.approx(
            1.0 / (0.5 * math.log(2.0) ** 0.5), rel=1e-15
        )

    def test_uncoupled_exact_is_componentwise_minimum(self):
        # tau(x) = min(1/(2 x1^2), 1/(4 x2^4)) at (sqrt(2), 1)
        x1, x2 = math.sqrt(2.0), 1.0
        expected = min(1.0 / (2.0 * x1**2), 1.0 / (4.0 * x2**4))
        assert expected == pytest.approx(0.25, rel=1e-15)
        assert catalog.get("uncoupled").reference == Exact(0.25)

    def test_pseudo_protocols_recorded(self):
        assert catalog.get("expsq").reference == Pseudo(2.0**-33)
        assert catalog.get("coupled").reference == Pseudo(2.0**-27)
        assert catalog.get("slowlog_c", c=0.5).reference == Pseudo(2.0**-17)
        assert catalog.get("rd", m=8).reference == Pseudo(None)

    def test_sq_f_inverse(self):
        rule = catalog.get("sq").problem.threshold
        assert rule.f_inv(2.0**-10) == 2.0**20


class TestReactionDiffusion:
    def test_minimal_grid(self):
        prob = catalog.get("rd", m=2).problem
        assert prob.dim == 1
        assert np.allclose(prob.x0, [100.0], rtol=1e-14)
        for x in (1.0, 10.0, 50.0):
            assert prob.rhs(np.array([x]))[0] == pytest.approx(-8.0 * x + x * x, rel=1e-14)

    def test_initial_profile(self):
        m = 8
        prob = catalog.get("rd", m=m).problem
        expected = 100.0 * np.sin(np.pi * np.arange(1, m) / m)
        assert np.array_equal(prob.x0, expected)

    def test_jvp_on_constant_vector(self):
        # v = 1: interior rows are 2*x_i, boundary-adjacent rows are -m^2 + 2*x_i
        m = 4
        prob = catalog.get("rd", m=m).problem
        x = np.array([3.0, 5.0, 7.0])
        v = np.ones(3)
        got = prob.jacobian.jvp(x, v)
        assert got[0] == -16.0 + 2.0 * x[0]
        assert got[1] == 2.0 * x[1]
        assert got[2] == -16.0 + 2.0 * x[2]

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_jvp_matches_dense_assembly(self, m):
        prob = catalog.get("rd", m=m).problem
        n = m - 1
        rng = np.random.default_rng(m)
        for _ in range(20):
            x = rng.normal(size=n) * 100.0
            v = rng.normal(size=n)
            dense = (
                np.diag(np.full(n, -2.0 * m * m))
                + np.diag(np.full(n - 1, float(m * m)), 1)
                + np.diag(np.full(n - 1, float(m * m)), -1)
                + np.diag(2.0 * x)
            )
            assert np.allclose(prob.jacobian.jvp(x, v), dense @ v, rtol=1e-12, atol=1e-9)

    # m = 2 and 3 slice a "full" correlation; m^2 folds into the stencil where m is a
    # power of two (2, 4, 32, 64, 128) and stays a separate scale elsewhere (3, 5, 6, 10)
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 10, 32, 64, 128])
    def test_kernels_match_padded_stencil_bytewise(self, m):
        # Reference: the zero-padded three-slice Laplacian, summed as
        # (v[i-1] - 2 v[i]) + v[i+1]; the kernels must round exactly like it.
        def padded_laplacian(v):
            pad = np.zeros(m + 1)
            pad[1:-1] = v
            return pad[:-2] - 2.0 * v + pad[2:]

        prob = catalog.get("rd", m=m).problem
        m2 = float(m * m)
        rng = np.random.default_rng(1000 + m)
        for _ in range(50):
            scale = 10.0 ** rng.uniform(-5.0, 10.0, size=m - 1)
            x = rng.normal(size=m - 1) * scale
            v = rng.normal(size=m - 1) * scale[::-1]
            f = prob.rhs(x)
            jv = prob.jacobian.jvp(x, v)
            assert f.tobytes() == (m2 * padded_laplacian(x) + x * x).tobytes()
            assert jv.tobytes() == (m2 * padded_laplacian(v) + 2.0 * x * v).tobytes()
            again = prob.rhs(x)
            assert again.tobytes() == f.tobytes()
            for a, b in ((f, again), (f, x), (jv, prob.jacobian.jvp(x, v)), (jv, v)):
                assert not np.shares_memory(a, b)

    def test_bound_correlate_kernel_has_np_correlate_bytes(self):
        # the rd texts call numpy's C correlation kernel with integer modes, 1 for
        # "same" and 2 for "full"; on every length, the operand swap of n < 3
        # included, it gives np.correlate's bytes for the folded and plain stencils
        correlate = catalog.get("rd").problem.rhs.data["correlate"]
        rng = np.random.default_rng(77)
        for stencil in (np.array([1.0, -2.0, 1.0]), catalog.get("rd", m=64).problem.rhs.data[
                "stencil"]):
            for n in range(1, 41):
                v = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 10.0, size=n)
                assert correlate(v, stencil, 1).tobytes() == np.correlate(
                    v, stencil, "same").tobytes()
                assert correlate(v, stencil, 2)[1:-1].tobytes() == np.correlate(
                    v, stencil, "full")[1:-1].tobytes()

    @pytest.mark.parametrize("m", [2, 3, 5, 32])
    def test_one_text_per_kernel(self, m):
        # the called rhs and JVP are compiled from the texts that solve_nd's array
        # loop writes inline, and they read one data dict, which the loop binds; the
        # JVP text computes half of J(x)v on the halved stencil, which the called
        # jvp doubles
        prob = catalog.get("rd", m=m).problem
        rhs, jvp = prob.rhs, prob.jacobian.jvp
        data = rhs.data
        assert jvp.data is data and set(data) == {"correlate", "stencil", "half", "m2"}
        assert data["half"].tobytes() == (data["stencil"] / 2.0).tobytes()
        assert data["m2"].shape == () and data["m2"] == m * m
        assert rhs.text.endswith("{out} += {x} * {x}\n") and "stencil," in rhs.text
        assert jvp.text.endswith("{out} += {x} * {v}\n") and "half," in jvp.text
        assert "2.0" not in jvp.text
        assert ("{out} *= m2\n" in jvp.text) is (m in (3, 5))
        assert ("[1:-1]" in jvp.text) is (m < 4)
        x, v = prob.x0, prob.x0[::-1] * 3.0
        scope = dict(data, x=x, v=v)
        exec(jvp.text.format(out="out", x="x", v="v"), scope)
        assert jvp(x, v).tobytes() == (scope["out"] + scope["out"]).tobytes()

    def test_m_validation(self):
        with pytest.raises(ValueError):
            catalog.get("rd", m=1)

    def test_growth_spec_is_nominal_reconstruction(self):
        prob = catalog.get("rd", m=8).problem
        assert prob.threshold.nominal
        assert prob.threshold.c_check == 1.0 and prob.threshold.alpha == 1.0

    def test_default_law_carries_cfl_cap(self):
        entry = catalog.get("rd", m=32)
        assert entry.methods["adaptive"].cap == 1.0 / 2048.0

    def test_planar_grid_takes_float_pairs(self):
        # m = 3 is dim 2 with a JVP, so solve_nd keeps the array state that the
        # kernels take: only a dense Jacobian makes a planar state a float pair, and
        # both state forms give these figures
        res = run_method(catalog.get("rd", m=3), "adaptive", 2.0**-8)
        assert res.steps == 27
        assert res.tau_hat == 0.006921794314000456
        assert isinstance(res.final_state, np.ndarray)


@pytest.mark.parametrize("pid", ["coupled", "uncoupled", "slowlog_c"])
@pytest.mark.parametrize("point", [(1e100, 1e100), (-1e100, 1e100), (1e100, -1e100)])
def test_planar_fields_on_pairs_overflow_like_numpy(pid, point):
    # the same field on np.float64 components overflows to +-inf; on Python floats,
    # whose ** raises OverflowError instead, it must give the same values
    prob = catalog.get(pid).problem
    with np.errstate(over="ignore"):
        b_np = np.asarray(prob.rhs(np.array(point)), dtype=float)
        j_np = np.asarray(prob.jacobian.dense(np.array(point)), dtype=float)
    b = prob.rhs(point)
    j = prob.jacobian.dense(point)
    assert type(b) is tuple and all(type(v) is float for v in b)
    assert type(j) is tuple and all(type(v) is float for row in j for v in row)
    assert np.array(b).tobytes() == b_np.tobytes()
    assert np.array(j).tobytes() == j_np.tobytes()
    if pid == "uncoupled":  # x2^5 and 5 x2^4 overflow at |x2| = 1e100
        assert math.isinf(b[1]) and j[1][1] == math.inf


def test_slowlog_constant_is_conservative_and_deterministic():
    e1 = catalog.get("slowlog_c", c=0.5)
    e2 = catalog.get("slowlog_c", c=0.5)
    assert e1.problem.threshold.c_check == e2.problem.threshold.c_check == 2.8
    # the axis directions realize the exact constant 2^(1+c); c_check is it rounded
    # down one decimal, and the sampler finds no point below the bound
    for c in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
        prob = catalog.get("slowlog_c", c=c).problem
        assert 2.0 ** (1.0 + c) - 0.1 < prob.threshold.c_check <= 2.0 ** (1.0 + c), c
        assert check_assumptions(prob, samples=1000, seed=1).ok, c


def test_entries_expose_expected_methods():
    assert set(catalog.get("sq").methods) == {
        "adaptive", "taylor2", "uniform", "arclength", "rescaling"}
    assert "log-uniform" in catalog.get("uncoupled").methods
    assert catalog.get("sq").methods["rescaling"] == Rescaling(2.0)
    for pid in catalog.IDS:
        entry = catalog.get(pid)
        assert entry.methods["arclength"] == ArcLength()
        assert ("rescaling" in entry.methods) == (pid == "sq")
