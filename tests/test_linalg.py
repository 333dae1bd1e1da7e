import math
import sys

import numpy as np
import pytest

from blowup import catalog
from blowup.linalg import (
    JacobianAccess,
    TransposeUnavailable,
    pair_norm,
    safe_norm,
    spectral_norm,
)


class TestSpectralNorm:
    def test_diagonal(self):
        jac = JacobianAccess(dense=lambda x: np.diag([3.0, 5.0]))
        assert spectral_norm(jac, np.zeros(2)) == 5.0

    def test_coupled_jacobian_at_known_point(self):
        # [[7, 4], [4, 13]] has eigenvalues {5, 15}
        jac = catalog.get("coupled").problem.jacobian
        x = np.array([1.0, 2.0])
        assert spectral_norm(jac, x) == pytest.approx(15.0, rel=1e-14)
        assert spectral_norm(jac, x) == pytest.approx(3.0 * (1.0 + 4.0), rel=1e-14)

    def test_uncoupled_jacobian(self):
        jac = catalog.get("uncoupled").problem.jacobian
        x = np.array([math.sqrt(2.0), 1.0])
        assert spectral_norm(jac, x) == pytest.approx(6.0, rel=1e-12)

    def test_jvp_only_without_hint_rejected(self):
        jac = JacobianAccess(jvp=lambda x, v: v)
        with pytest.raises(TransposeUnavailable):
            spectral_norm(jac, np.zeros(3))

    def test_dense_size_must_match_dim(self):
        jac = JacobianAccess(dense=lambda x: np.eye(3))
        with pytest.raises(ValueError, match="expected dim 2"):
            spectral_norm(jac, np.zeros(3), 2)

    def test_nonsymmetric_small_is_exact(self):
        J = np.array([[1.0, 5.0], [0.0, 2.0]])
        jac = JacobianAccess(dense=lambda x: J)
        expected = float(np.linalg.svd(J, compute_uv=False)[0])
        assert spectral_norm(jac, np.zeros(2)) == pytest.approx(expected, rel=1e-13)


def test_coupled_norm_identity_at_random_points():
    # ||b'(x)||_2 = 3(x1^2 + x2^2) on the coupled field
    jac = catalog.get("coupled").problem.jacobian
    rng = np.random.default_rng(42)
    for _ in range(50):
        rho = float(rng.uniform(math.sqrt(5.0), 1e3))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        x = rho * np.array([math.cos(theta), math.sin(theta)])
        expected = 3.0 * float(x @ x)
        assert spectral_norm(jac, x) == pytest.approx(expected, rel=1e-10)


def _dense(J):
    return JacobianAccess(dense=lambda x: J)


def test_dense_norm_against_exact_eigenvalues():
    rng = np.random.default_rng(314)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        A = rng.normal(size=(dim, dim))
        sym = 0.5 * (A + A.T)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        assert spectral_norm(_dense(sym), np.zeros(dim)) == pytest.approx(exact, rel=1e-8)


class TestTwoByTwoClosedForm:
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("kind", ["symmetric", "diagonal", "general"])
    def test_against_svd(self, kind, scale):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            A = rng.normal(size=(2, 2))
            if kind == "symmetric":
                A = 0.5 * (A + A.T)
            elif kind == "diagonal":
                A = np.diag(np.diag(A))
            J = scale * A
            expected = float(np.linalg.svd(J, compute_uv=False)[0])
            assert spectral_norm(_dense(J), np.zeros(2)) == pytest.approx(expected, rel=1e-14)

    def test_no_overflow_where_the_gram_matrix_would(self):
        # J^T J has entries near 1e400; the exact norm is 1.10521820951191917...e200
        J = np.array([[1e200, 3e199], [2e199, 5e199]])
        assert spectral_norm(_dense(J), np.zeros(2)) == pytest.approx(
            1.1052182095119192e200, rel=1e-15
        )


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_other_dense_sizes_against_svd(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        J = rng.normal(size=(dim, dim))
        expected = float(np.linalg.svd(J, compute_uv=False)[0])
        assert spectral_norm(_dense(J), np.zeros(dim), dim) == pytest.approx(expected, rel=1e-12)
    assert spectral_norm(_dense(np.array([[-4.0]])), np.zeros(1)) == 4.0


def jvp_norm(jac, x, v):
    """|J(x) v| as AltND forms it: the JVP if given, else the dense product."""
    return safe_norm(jac.jvp(x, v) if jac.jvp is not None else jac.dense(x) @ v)


class TestJvpNorm:
    def test_diagonal_example(self):
        jac = JacobianAccess(dense=lambda x: np.diag([3.0, 5.0]))
        assert jvp_norm(jac, np.zeros(2), np.array([1.0, 1.0])) == pytest.approx(
            math.sqrt(34.0), rel=1e-15
        )

    def test_zero_vector(self):
        jac = JacobianAccess(dense=lambda x: np.diag([3.0, 5.0]))
        assert jvp_norm(jac, np.zeros(2), np.zeros(2)) == 0.0

    def test_rd_constant_profile_against_dense(self):
        # interior rows of b'(x) x are 2c^2 when every component equals c
        m = 8
        prob = catalog.get("rd", m=m).problem
        c = 3.0
        x = np.full(m - 1, c)
        w = prob.jacobian.jvp(x, x)
        assert np.allclose(w[1:-1], 2.0 * c * c, rtol=1e-14)
        dense = (
            np.diag(np.full(m - 1, -2.0 * m * m))
            + np.diag(np.full(m - 2, float(m * m)), 1)
            + np.diag(np.full(m - 2, float(m * m)), -1)
            + np.diag(2.0 * x)
        )
        assert jvp_norm(prob.jacobian, x, x) == pytest.approx(
            float(np.linalg.norm(dense @ x)), rel=1e-12
        )


def test_rd_jvp_linearity():
    rng = np.random.default_rng(9)
    for m in (4, 8, 32):
        prob = catalog.get("rd", m=m).problem
        jvp = prob.jacobian.jvp
        for _ in range(20):
            x = rng.normal(size=m - 1) * 50.0
            u = rng.normal(size=m - 1)
            v = rng.normal(size=m - 1)
            a = float(rng.uniform(-3.0, 3.0))
            lhs = jvp(x, a * u + v)
            rhs = a * jvp(x, u) + jvp(x, v)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_safe_norm_survives_overflow():
    x = np.array([1e200, 1e200])
    # the solvers call safe_norm under np.errstate(over="ignore"), as here
    with np.errstate(over="ignore"):
        assert safe_norm(x) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    assert safe_norm(np.array([3.0, 4.0])) == 5.0


def test_safe_norm_of_infinite_component_is_inf():
    # rescaling by max|x_i| = inf would give inf/inf = nan and an "invalid value" warning
    with np.errstate(over="ignore", invalid="raise"):
        assert safe_norm(np.array([math.inf, 1.0])) == math.inf
        assert safe_norm(np.array([1e200, -math.inf])) == math.inf


@pytest.mark.parametrize("dim", [1, 2, 31, 63])
def test_safe_norm_is_sqrt_of_dot_bit_for_bit(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(200):
        x = rng.normal(size=dim) * 10.0 ** rng.uniform(-5.0, 10.0, size=dim)
        assert safe_norm(x) == math.sqrt(float(x @ x)) == math.sqrt(float(np.dot(x, x)))
        assert safe_norm(tuple(x.tolist())) == safe_norm(x)  # a sequence takes the same dot


def test_pair_norm_of_float_pair():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = (rng.normal(size=2) * 10.0 ** rng.uniform(-5.0, 10.0, size=2)).tolist()
        assert pair_norm((a, b)) == math.sqrt(a * a + b * b)
    assert pair_norm((3.0, 4.0)) == 5.0
    with np.errstate(over="ignore"):  # for safe_norm's dot
        # past 2^512, where a * a + b * b overflows, the pair takes math.hypot, not
        # safe_norm's rescaled dot: both signs, one or both coordinates large, up to
        # DBL_MAX. The two differed by at most 2 ulps of the norm over 200,000 such
        # pairs; against the exact norm of 10,000 of them, hypot was within 0.498 ulp
        # and safe_norm within 1.89.
        big = (rng.choice([-1.0, 1.0], size=3000)
               * 2.0 ** rng.uniform(512.0, 1024.0, size=3000)).tolist()
        small = (rng.normal(size=1000) * 10.0 ** rng.uniform(-300.0, 300.0, size=1000)).tolist()
        dbl_max = sys.float_info.max
        pairs = (list(zip(big[:1000], big[1000:2000])) + list(zip(big[2000:], small))
                 + list(zip(small, big[2000:]))
                 + [(1e200, -1e200), (3e307, 1e10), (dbl_max, 1e150), (-1e150, -dbl_max),
                    (dbl_max / 2.0, dbl_max / 2.0), (dbl_max, dbl_max)])
        assert all(a * a + b * b == math.inf for a, b in pairs)
        for pair in pairs:
            n, rescaled = pair_norm(pair), safe_norm(np.array(pair))
            assert n == math.hypot(*pair)
            assert abs(n - rescaled) <= 2.0 * math.ulp(n) or n == rescaled == math.inf
        assert pair_norm((dbl_max, dbl_max)) == math.inf
        assert pair_norm((math.inf, 1.0)) == math.inf
        assert pair_norm((1e200, -math.inf)) == math.inf
    assert math.isnan(pair_norm((math.nan, 1.0)))


def test_tuple_jacobian_takes_the_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(100):
        J = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-50.0, 50.0)
        pairs = tuple(tuple(row) for row in J.tolist())
        assert spectral_norm(_dense(pairs), (0.0, 0.0), 2) == spectral_norm(_dense(J), np.zeros(2))
    with pytest.raises(ValueError, match="expected dim 3"):
        spectral_norm(_dense(((1.0, 0.0), (0.0, 1.0))), (0.0, 0.0), 3)


def test_jacobian_access_validation():
    with pytest.raises(ValueError):
        JacobianAccess(dense=lambda x: x, jvp=lambda x, v: v)
    with pytest.raises(ValueError):
        JacobianAccess()
