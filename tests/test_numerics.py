"""Tests for log-scaled arithmetic, quadrature rules and Pfaffians."""
import math
import operator

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from cauchybures.exceptions import (ComplexityError, DimensionError,
                                    DomainError, NonConverged)
from cauchybures.numerics import (LogValue, SkewMatrix, _fixed_point,
                                  gauss_jacobi, lgamma_signed,
                                  log_gamma_complex, mp_sum,
                                  pfaffian, pfaffian_bordered,
                                  refine_quadrature, tanh_sinh_01,
                                  tanh_sinh_half_line)
from references import gauss_jacobi_pair, gauss_laguerre, simplex_quad_2d

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

    def test_zero(self):
        z = LogValue.zero()
        assert z.sign == 0
        assert z.to_real() == 0.0


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

    @pytest.mark.parametrize("alpha", [-0.9, -0.3, 0.7, 20.0])
    def test_gauss_jacobi_against_mpmath(self, alpha):
        # int_{-1}^{1} (1+x)^alpha cos 3x dx = 2^(alpha+1) int_0^1 t^alpha
        # cos(6t - 3) dt, in closed form through 1F1; scipy's roots_jacobi
        # misses it by 5.3e-9 at alpha = -0.9, order 512
        with mpmath.workdps(30):
            want = float(2 ** mpmath.mpf(alpha + 1) * mpmath.re(
                mpmath.exp(-3j) * mpmath.hyp1f1(alpha + 1, alpha + 2, 6j)
                / (alpha + 1)))
        for order in (16, 32, 64, 128, 256, 512):
            rule = gauss_jacobi(order, alpha)
            got = 2.0 ** (alpha + 1) * rule.integrate(
                lambda t: np.cos(6.0 * t - 3.0))
            assert got == pytest.approx(want, rel=1e-13), order

    @pytest.mark.parametrize("alpha", [-0.9, -0.3, 0.0, 0.7, 20.0])
    @pytest.mark.parametrize("order", [16, 32])
    def test_gauss_jacobi_matches_scipy(self, alpha, order):
        # roots_jacobi's own weights are off by up to 4e-12 of the total
        # at alpha = -0.9 (see the test above)
        x, w = special.roots_jacobi(order, 0.0, alpha)
        rule = gauss_jacobi(order, alpha)
        np.testing.assert_allclose(rule.nodes, 0.5 * (x + 1.0), rtol=0,
                                   atol=1e-15)
        w = w / 2.0 ** (alpha + 1.0)
        np.testing.assert_allclose(rule.weights, w, rtol=0,
                                   atol=1e-11 * w.sum())

    def test_gauss_jacobi_small_weights_are_relatively_accurate(self):
        # int_0^1 t^20 e^{-150 t} dt: the mass lies where the weights are
        # ~1e-20 of the total, below what the rule's eigenvectors resolve
        with mpmath.workdps(30):
            want = float(mpmath.gammainc(21, 0, 150) / mpmath.mpf(150) ** 21)
        rule = gauss_jacobi(256, 20.0)
        assert rule.integrate(lambda t: np.exp(-150.0 * t)) == pytest.approx(
            want, rel=1e-13, abs=0.0)
        for alpha in (300.0, 700.0):  # weights below double range are 0
            rule = gauss_jacobi(512, alpha)
            assert np.all(np.isfinite(rule.weights))
            assert rule.weights.sum() == pytest.approx(1.0 / (alpha + 1.0),
                                                       rel=1e-13, abs=0.0)

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

    def test_tanh_sinh_refuses_a_cancelling_integrand(self):
        # integral 1, sum w|f| about 5e4: past the 1e3 = rtol / 1e-14 at
        # which the values' rounding could pass rtol = 1e-11
        with pytest.raises(ComplexityError, match="cancels"):
            tanh_sinh_01(lambda t: 1.0 + 1e5 * (2.0 * t - 1.0))

    @pytest.mark.parametrize("f,want", [
        (lambda t: np.zeros_like(t), 0.0),
        (lambda t: 1e-300 * t, 5e-301),
        (lambda t: np.exp(-200.0 * t), 1.0 / 200.0),
        (lambda t: t ** -0.9 * (1.0 - t) ** 5, special.beta(0.1, 6.0))])
    def test_tanh_sinh_never_refuses_a_non_negative_integrand(self, f, want):
        # sum w|f| is then the integral itself
        assert tanh_sinh_01(f) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_tanh_sinh_evaluates_each_node_once(self):
        # f sees the nodes of levels 0-2 in one array, then one array per
        # level, holding only the nodes that level adds; the result equals
        # the last level's trapezoid sum over all of its nodes, formed from
        # scratch
        for f_of, levels in (
                # algebraic singularities at both ends: levels 0-2
                (lambda m, t: 0.5 / m.sqrt(t) + (1.0 - t) ** -0.3, 3),
                # a pole 1e-3 below t = 0: levels 0-4
                (lambda m, t: 1.0 / (1e-3 + t), 5)):
            seen = []

            def f(t):
                seen.append(len(t))
                return f_of(np, t)

            got = tanh_sinh_01(f)
            h = 0.5 ** levels  # step of the last level
            total, new = 0.0, [0] * levels
            j = 0
            while 0.5 * math.pi * math.sinh(j * h) <= 350.0:
                arg = 0.5 * math.pi * math.sinh(j * h)
                w = 0.5 * math.pi * math.cosh(j * h) / math.cosh(arg) ** 2
                # j = m * 2^v, m odd, is new at level levels - 1 - v
                level = max(levels - (j & -j).bit_length(), 0) if j else 0
                # a set: at j = 0 both branches are the one node t = 1/2
                ts = {1.0 / (1.0 + math.exp(-2.0 * arg)),
                      1.0 / (1.0 + math.exp(2.0 * arg))}
                for t in ts:
                    if 0.0 < t < 1.0:
                        total += w * f_of(math, t)
                        new[level] += 1
                j += 1
            assert seen == [sum(new[:3])] + new[3:]
            assert got == pytest.approx(0.5 * h * total, rel=1e-15)

    @pytest.mark.parametrize("p", [-0.9, 0.0, 2.5, 20.0])
    def test_half_line_gamma_integrals(self, p):
        # x^p e^{-x} as exp(p log x - x), finite at every node
        got = tanh_sinh_half_line(lambda x: np.exp(p * np.log(x) - x))
        assert got == pytest.approx(math.gamma(p + 1.0), rel=1e-13)

    @pytest.mark.parametrize("c", [0.01, 1.0, 30.0])
    def test_half_line_exponential_integral(self, c):
        # integral_0^inf e^{-x} / (x + c) dx = e^c E_1(c)
        got = tanh_sinh_half_line(lambda x: np.exp(-x) / (x + c))
        want = float(mpmath.exp(c) * mpmath.e1(c))
        assert got == pytest.approx(want, rel=1e-13)

    def test_refine_quadrature_converges(self):
        def value_at(order):
            rule = gauss_jacobi(order, 0.0)
            return rule.integrate(lambda t: np.exp(t))
        got = refine_quadrature(value_at)
        assert got == pytest.approx(math.e - 1.0, rel=1e-11)

    def test_refine_quadrature_stops_where_the_error_squares(self):
        # an error that squares as the order doubles, as a Gauss or
        # tanh-sinh rule's does: changes 1.7e-5 then 2.8e-10, so the next
        # is about 2.8e-10^2 / 1.7e-5 = 4.6e-15, and order 64 is accepted
        # where the rtol rule alone ran order 128 to confirm it
        orders = []

        def value_at(order):
            orders.append(order)
            return 1.0 + math.exp(-11.0 * order / 16)

        assert refine_quadrature(value_at) == 1.0 + math.exp(-44.0)
        assert orders == [16, 32, 64]

    def test_refine_quadrature_does_not_stop_early_on_linear_convergence(
            self):
        # changes that only halve: near 1e173 the squares of absolute
        # changes overflow, and inf <= inf would accept a value 21% off (as
        # i1 at beta = 110 was); relative changes near rtol must reach it
        with pytest.raises(NonConverged):
            refine_quadrature(lambda m: 1e173 * (1.0 + 1.0 / m),
                              max_order=1024)
        orders = []

        def value_at(order):
            orders.append(order)
            return 1.0 + 1e-9 / order

        assert refine_quadrature(value_at) == 1.0 + 1e-9 / 128
        assert orders == [16, 32, 64, 128]

    def test_refine_quadrature_reports_nonconvergence(self):
        # 1/m never settles: the error names the last step's delta
        # 1/64 - 1/128; with no doubling allowed it still raises
        with pytest.raises(NonConverged, match=r"last delta 7\.81"):
            refine_quadrature(lambda m: 1.0 / m, start_order=16,
                              max_order=128)
        with pytest.raises(NonConverged):
            refine_quadrature(lambda m: 1.0 / m, start_order=16,
                              max_order=16)


def exp_taylor(x: float, levels: list):
    """sum_at for numerics.mp_sum: e^{-x} as its Taylor series, recording
    the working precision of each call in `levels`."""
    def sum_at():
        levels.append(mpmath.mp.dps)
        eps = mpmath.mpf(10) ** -mpmath.mp.dps
        term, total, peak, k = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), 0
        while k < 4 * x or abs(term) > eps * peak:
            total += term
            peak = max(peak, abs(term))
            k += 1
            term *= -x / mpmath.mpf(k)
        return total, float(mpmath.log(peak))
    return sum_at


class TestMpSum:
    def test_noise_doubles_the_precision(self):
        # e^{-100} loses 86 digits; at 32 and 64 digits the total is
        # rounding noise, whose loss only bounds the true one, so the
        # precision doubles instead of creeping up by 32 digits a level
        levels = []
        total = mp_sum(exp_taylor(100.0, levels), 32)
        assert levels == [32, 64, 128]
        assert float(total) == pytest.approx(math.exp(-100.0), rel=1e-15)

    def test_doubling_stops_at_the_cap_then_refuses(self):
        # e^{-800} loses about 694 digits, more than the 512 allowed
        levels = []
        with pytest.raises(NonConverged, match="more than 512"):
            mp_sum(exp_taylor(800.0, levels), 32)
        assert levels == [32, 64, 128, 256, 512]


class TestFixedPoint:
    @pytest.mark.parametrize("prec", [53, 200, 600])
    def test_dot_matches_fdot(self, prec):
        # N = 80 entries of both signs, with zeros, over 30 decades; the
        # integer dot and fdot at the same precision differ by at most
        # 2^-prec of the largest term
        rng = np.random.default_rng(7)
        with mpmath.workprec(prec):
            xs, ys = ([int(s) * mpmath.mpf(10) ** float(e) * bool(m)
                       for s, e, m in zip(rng.choice([-1, 1], 80),
                                          rng.uniform(-15, 15, 80),
                                          rng.integers(0, 4, 80))]
                      for _ in range(2))
            # exact integers on 2^-700, below every x's last bit, cut back
            (ix, ux), (iy, uy) = (
                _fixed_point([int(mpmath.ldexp(x, 700)) for x in v], -700)
                for v in (xs, ys))
            got = mpmath.mpf((sum(map(operator.mul, ix, iy)), ux + uy))
            want = mpmath.fdot(xs, ys)
            peak = max(abs(x * y) for x, y in zip(xs, ys))
            assert xs.count(0) > 5 and peak > 0
            assert abs(got - want) <= mpmath.ldexp(peak, -prec)

    def test_zero_vector(self):
        assert _fixed_point([0] * 3, -5) == ([0, 0, 0], -5)


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

    def test_from_matrix_rejects_non_antisymmetric_input(self):
        with pytest.raises(DimensionError):
            SkewMatrix.from_matrix(np.arange(9.0).reshape(3, 3))

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
