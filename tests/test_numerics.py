"""Tests for log-scaled arithmetic, quadrature rules and Pfaffians."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from cauchybures.exceptions import DimensionError, DomainError, NonConverged
from cauchybures.numerics import (LogValue, SkewMatrix, gauss_jacobi,
                                  gauss_jacobi_pair, gauss_laguerre,
                                  gammaln_logvalue, lgamma_signed,
                                  log_gamma_complex, pfaffian,
                                  pfaffian_bordered, refine_quadrature,
                                  simplex_quad_2d, tanh_sinh_01)

finite_nonzero = st.floats(min_value=1e-8, max_value=1e8).map(
    lambda x: x).filter(lambda x: x != 0.0)


class TestLogValue:
    @given(x=st.floats(min_value=-1e6, max_value=1e6).filter(
        lambda v: abs(v) > 1e-6))
    def test_round_trip(self, x):
        lv = LogValue.from_real(x)
        assert lv.to_real() == pytest.approx(x, rel=1e-14)

    @given(x=finite_nonzero, y=finite_nonzero)
    def test_product_matches_float_product(self, x, y):
        prod = LogValue.from_real(x) * LogValue.from_real(y)
        assert prod.to_real() == pytest.approx(x * y, rel=1e-12)

    @given(x=finite_nonzero, k=st.integers(min_value=0, max_value=6))
    def test_integer_power(self, x, k):
        got = LogValue.from_real(x).powi(k).to_real()
        assert got == pytest.approx(x ** k, rel=1e-10)

    @given(x=finite_nonzero)
    def test_sqrt_of_square(self, x):
        sq = LogValue.from_real(x).powi(2)
        assert sq.sqrt().to_real() == pytest.approx(abs(x), rel=1e-12)

    def test_zero(self):
        z = LogValue.zero()
        assert z.sign == 0
        assert z.to_real() == 0.0

    def test_gammaln_logvalue_matches_gamma(self):
        for x in (0.5, 1.0, 3.7, 12.0):
            assert gammaln_logvalue(x).to_real() == pytest.approx(
                special.gamma(x), rel=1e-13)


class TestSignedLogGamma:
    def test_positive_arguments(self):
        for x in (0.3, 1.0, 4.5):
            sign, logmag = lgamma_signed(x)
            assert sign == 1
            assert logmag == pytest.approx(special.gammaln(x), rel=1e-13)

    def test_negative_arguments_alternating_sign(self):
        # Gamma alternates sign between consecutive negative integers.
        for x, expected_sign in ((-0.5, -1), (-1.5, 1), (-2.5, -1)):
            sign, logmag = lgamma_signed(x)
            assert sign == expected_sign
            assert math.exp(logmag) * sign == pytest.approx(
                special.gamma(x), rel=1e-12)

    def test_complex_log_gamma_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            z = complex(rng.uniform(-8, 8), rng.uniform(0.3, 12))
            got = log_gamma_complex(z)
            want = special.loggamma(z)
            assert got == pytest.approx(want, rel=1e-11)


class TestQuadrature:
    def test_gauss_jacobi_monomials(self):
        # int_0^1 t^alpha t^k dt = 1/(alpha+k+1), exact below degree 2*order
        alpha = 0.7
        rule = gauss_jacobi(12, alpha)
        for k in range(0, 20):
            got = rule.integrate(lambda t, k=k: t ** k)
            assert got == pytest.approx(1.0 / (alpha + k + 1.0), rel=1e-13)

    def test_gauss_jacobi_pair_beta_function(self):
        alpha, beta = 0.4, 1.3
        rule = gauss_jacobi_pair(16, alpha, beta)
        for k in range(0, 8):
            got = rule.integrate(lambda t, k=k: t ** k)
            want = special.beta(alpha + k + 1.0, beta + 1.0)
            assert got == pytest.approx(want, rel=1e-12)

    def test_gauss_laguerre_gamma_moments(self):
        g = 0.8
        rule = gauss_laguerre(24, g)
        for k in range(0, 10):
            got = rule.integrate(lambda t, k=k: t ** k)
            assert got == pytest.approx(special.gamma(g + k + 1.0), rel=1e-11)

    def test_simplex_rule_against_adaptive_quadrature(self):
        # weight x^alpha y^beta e^{-x-y} / (x+y) built into the rule
        alpha, beta = 0.5, 0.7
        rule = simplex_quad_2d(alpha, beta, 48, 48)
        f = lambda x, y: np.cos(0.3 * x) * np.exp(-0.1 * y)
        got = rule.integrate(f)
        want, _ = integrate.dblquad(
            lambda y, x: x ** alpha * y ** beta * math.exp(-x - y)
            / (x + y) * f(x, y), 0, 60, 0, 60, epsabs=1e-12, epsrel=1e-10)
        assert got == pytest.approx(want, rel=1e-8)

    def test_simplex_rule_rejects_bad_exponents(self):
        with pytest.raises(DomainError):
            simplex_quad_2d(-1.5, 0.0, 8, 8)

    def test_tanh_sinh_endpoint_singularity(self):
        got = tanh_sinh_01(lambda t: 0.5 / np.sqrt(t))
        assert got == pytest.approx(1.0, rel=1e-10)

    def test_tanh_sinh_log_singularity(self):
        got = tanh_sinh_01(np.log)
        assert got == pytest.approx(-1.0, rel=1e-10)

    def test_tanh_sinh_evaluates_each_node_once(self):
        # f sees one array per level, holding only the nodes that level
        # adds; the result equals the last level's trapezoid sum over all
        # of its nodes, formed from scratch
        def f_scalar(t):
            return 0.5 / math.sqrt(t) + (1.0 - t) ** -0.3

        seen = []

        def f(t):
            seen.append(len(t))
            return 0.5 / np.sqrt(t) + (1.0 - t) ** -0.3

        got = tanh_sinh_01(f)
        h = 0.5 ** len(seen)  # step of the last level
        total, new = 0.0, [0] * len(seen)
        j = 0
        while 0.5 * math.pi * math.sinh(j * h) <= 350.0:
            arg = 0.5 * math.pi * math.sinh(j * h)
            w = 0.5 * math.pi * math.cosh(j * h) / math.cosh(arg) ** 2
            # j = m * 2^v, m odd, is new at level len(seen) - 1 - v
            level = max(len(seen) - (j & -j).bit_length(), 0) if j else 0
            # a set: at j = 0 both branches are the one node t = 1/2
            ts = {1.0 / (1.0 + math.exp(-2.0 * arg)),
                  1.0 / (1.0 + math.exp(2.0 * arg))}
            for t in ts:
                if 0.0 < t < 1.0:
                    total += w * f_scalar(t)
                    new[level] += 1
            j += 1
        assert seen == new
        assert got == pytest.approx(0.5 * h * total, rel=1e-15)

    def test_refine_quadrature_converges(self):
        def value_at(order):
            rule = gauss_jacobi(order, 0.0)
            return rule.integrate(lambda t: np.exp(t))
        got = refine_quadrature(value_at)
        assert got == pytest.approx(math.e - 1.0, rel=1e-11)

    def test_refine_quadrature_reports_nonconvergence(self):
        # 1/m never settles: the error names the last step's delta
        # 1/64 - 1/128; with no doubling allowed it still raises
        with pytest.raises(NonConverged, match=r"last delta 7\.81"):
            refine_quadrature(lambda m: 1.0 / m, start_order=16,
                              max_order=128)
        with pytest.raises(NonConverged):
            tanh_sinh_01(lambda t: t, max_level=0)


class TestPfaffian:
    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_pfaffian_squared_equals_determinant(self, dim):
        rng = np.random.default_rng(dim)
        m = SkewMatrix(rng.standard_normal((dim, dim)))
        pf = pfaffian(m).to_real()
        det = np.linalg.det(m.entries)
        assert pf * pf == pytest.approx(det, rel=1e-10)

    def test_two_by_two_closed_form(self):
        m = SkewMatrix(np.array([[0.0, 3.5], [0.0, 0.0]]))
        assert pfaffian(m).to_real() == pytest.approx(3.5)

    def test_antisymmetry_enforced(self):
        raw = np.arange(16, dtype=float).reshape(4, 4)
        m = SkewMatrix(raw)
        assert np.allclose(m.entries, -m.entries.T)
        assert np.all(np.diag(m.entries) == 0.0)

    def test_row_swap_leaves_pfaffian_invariant_up_to_sign(self):
        rng = np.random.default_rng(3)
        a = SkewMatrix(rng.standard_normal((6, 6))).entries
        perm = [1, 0, 2, 3, 4, 5]
        b = a[np.ix_(perm, perm)]
        pa = pfaffian(SkewMatrix.from_matrix(a)).to_real()
        pb = pfaffian(SkewMatrix.from_matrix(b)).to_real()
        assert pb == pytest.approx(-pa, rel=1e-12)

    def test_bordered_pfaffian_matches_direct_construction(self):
        rng = np.random.default_rng(11)
        m = SkewMatrix(rng.standard_normal((5, 5)))
        border = rng.standard_normal(5)
        got = pfaffian_bordered(m, border).to_real()
        big = np.zeros((6, 6))
        big[0, 1:] = border
        big[1:, 1:] = m.entries
        want = pfaffian(SkewMatrix(big)).to_real()
        assert got == pytest.approx(want, rel=1e-12)

    def test_bordered_requires_odd_dimension(self):
        m = SkewMatrix(np.zeros((4, 4)))
        with pytest.raises(DimensionError):
            pfaffian_bordered(m, np.ones(4))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            SkewMatrix(np.zeros((3, 4)))
