import math

import numpy as np
import pytest

from blowup import catalog
from blowup.baselines import ArcLength, Rescaling
from blowup.catalog import Exact, Pseudo, UnknownId, build_reaction_diffusion
from blowup.harness import run_method
from blowup.problems import check_assumptions


def test_list_ids():
    ids = catalog.list_ids()
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


@pytest.mark.parametrize("pid", catalog.list_ids())
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
        prob = build_reaction_diffusion(2)
        assert prob.dim == 1
        assert np.allclose(prob.x0, [100.0], rtol=1e-14)
        for x in (1.0, 10.0, 50.0):
            assert prob.rhs(np.array([x]))[0] == pytest.approx(-8.0 * x + x * x, rel=1e-14)

    def test_initial_profile(self):
        m = 8
        prob = build_reaction_diffusion(m)
        expected = 100.0 * np.sin(np.pi * np.arange(1, m) / m)
        assert np.array_equal(prob.x0, expected)

    def test_jvp_on_constant_vector(self):
        # v = 1: interior rows are 2*x_i, boundary-adjacent rows are -m^2 + 2*x_i
        m = 4
        prob = build_reaction_diffusion(m)
        x = np.array([3.0, 5.0, 7.0])
        v = np.ones(3)
        got = prob.jacobian.jvp(x, v)
        assert got[0] == -16.0 + 2.0 * x[0]
        assert got[1] == 2.0 * x[1]
        assert got[2] == -16.0 + 2.0 * x[2]

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_jvp_matches_dense_assembly(self, m):
        prob = build_reaction_diffusion(m)
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

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 32, 64])
    def test_kernels_match_padded_stencil_bytewise(self, m):
        # Reference: the zero-padded three-slice Laplacian, summed as
        # (v[i-1] - 2 v[i]) + v[i+1]; the kernels must round exactly like it.
        def padded_laplacian(v):
            pad = np.zeros(m + 1)
            pad[1:-1] = v
            return pad[:-2] - 2.0 * v + pad[2:]

        prob = build_reaction_diffusion(m)
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

    def test_m_validation(self):
        with pytest.raises(ValueError):
            build_reaction_diffusion(1)

    def test_growth_spec_is_nominal_reconstruction(self):
        prob = build_reaction_diffusion(8)
        assert prob.threshold.nominal
        assert prob.threshold.c_check == 1.0 and prob.threshold.alpha == 1.0

    def test_default_law_carries_cfl_cap(self):
        entry = catalog.get("rd", m=32)
        assert entry.methods["adaptive"].cap == 1.0 / 2048.0

    def test_planar_grid_takes_float_pairs(self):
        # m = 3 is a planar system, so solve_nd hands the kernels a float pair
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
    for pid in catalog.list_ids():
        entry = catalog.get(pid)
        assert entry.methods["arclength"] == ArcLength()
        assert ("rescaling" in entry.methods) == (pid == "sq")
