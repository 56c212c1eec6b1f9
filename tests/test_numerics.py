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
                                    DomainError, NonConverged, PoleError)
from cauchybures.numerics import (LogValue, QuadratureRule, SkewMatrix,
                                  _fixed_point, checked_exp, gauss_jacobi,
                                  lgamma_signed, log_gamma_complex, mp_sum,
                                  pfaffian, pfaffian_bordered,
                                  refine_quadrature, require_integer,
                                  tanh_sinh_01, tanh_sinh_half_line)
from cauchybures.polynomials import jacobi_p
from cauchybures.raney import density_asymptote
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
        assert LogValue.from_real(0.0) == z
        one = LogValue.one()
        assert z * one == one * z == z / one == z
        with pytest.raises(ZeroDivisionError, match="division by LogValue"):
            one / z

    def test_sign_must_be_a_unit(self):
        with pytest.raises(ValueError, match="sign must be -1, 0 or"):
            LogValue(2, 0.0)

    def test_past_double_range_raises_complexity_error(self):
        # to_real once raised a bare OverflowError
        assert LogValue(-1, 709.0).to_real() == -math.exp(709.0)
        with pytest.raises(ComplexityError, match="overflows a double"):
            LogValue(-1, 710.0).to_real()

    @pytest.mark.parametrize("terms,want", [
        ([(1, math.log(3.0)), (-1, 0.0)], (1, math.log(2.0))),
        ([], (0, 0.0)),
        ([(0, 0.0)], (0, 0.0)),
        ([(1, 1000.0), (-1, 1000.0)], (0, 0.0)),  # exact cancellation
        ([(1, 1000.0), (1, 1000.0 + math.log(2.0))],
         (1, 1000.0 + math.log(3.0))),  # past double range
        ([(1, 800.0), (-1, 0.0)], (1, 800.0))],  # 1 is below 800's ulp
        ids=["difference", "empty", "zero", "cancelled", "large", "absorbed"])
    def test_sum(self, terms, want):
        got = LogValue.sum(LogValue(*t) for t in terms)
        assert got.sign == want[0]
        assert got.log_mag == pytest.approx(want[1], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("call,error", [
    (lambda: jacobi_p(3, 0.5, math.nan), DomainError),
    (lambda: jacobi_p(3, 0.5, math.inf), DomainError),
    (lambda: jacobi_p(3, 0.5, np.array([0.5, math.inf])), DomainError),
    (lambda: density_asymptote(math.nan, 0.5, 1.0), DomainError),
    (lambda: density_asymptote(2.0, math.nan, 1.0), DomainError),
    (lambda: density_asymptote(math.inf, 0.5, 1.0), DomainError),
    (lambda: density_asymptote(2.0, 0.5, math.inf), DomainError),
    (lambda: jacobi_p(3, 0.5, 1e308), DomainError),
    (lambda: LogValue.from_real(math.nan), DomainError),
    (lambda: LogValue(1, math.inf).to_real(), ComplexityError),
    (lambda: LogValue(1, math.nan).to_real(), DomainError),
    (lambda: lgamma_signed(math.nan), DomainError),
    (lambda: lgamma_signed(-math.inf), DomainError),
    (lambda: checked_exp("x", math.inf), ComplexityError),
    (lambda: checked_exp("x", math.nan), DomainError)],
    ids=["jacobi-nan", "jacobi-inf", "jacobi-array-inf", "asymptote-p-nan",
         "asymptote-r-nan", "asymptote-p-inf", "asymptote-x-inf",
         "jacobi-1-2x-overflows", "from-real-nan", "to-real-inf",
         "to-real-nan", "lgamma-nan", "lgamma-minus-inf", "exp-inf",
         "exp-nan"])
def test_non_finite_arguments_are_typed(call, error):
    # each once returned nan, inf or 0.0, warned (jacobi_p at inf) or
    # raised a bare ValueError or OverflowError (lgamma_signed); the
    # README promises DomainError for a non-finite argument (jacobi_p's
    # argument is 1 - 2x)
    with pytest.raises(error):
        call()


class TestRequireInteger:
    @pytest.mark.parametrize("least,kind", [(None, "an"),
                                            (0, "a non-negative"),
                                            (1, "a positive")])
    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
    def test_non_integers_and_bools_refused(self, least, kind, value):
        with pytest.raises(DomainError) as err:
            require_integer("k", 2, value, least=least)
        assert str(err.value) == f"k must be {kind} integer, got {value!r}"

    def test_bound(self):
        require_integer("k", -5, np.int64(3))
        require_integer("k", 0, np.int64(1), least=0)
        with pytest.raises(DomainError, match="a non-negative integer"):
            require_integer("k", 0, -1, least=0)
        with pytest.raises(DomainError, match="a positive integer, got 0"):
            require_integer("k", np.int64(1), 0, least=1)


class TestCheckedExp:
    @pytest.mark.parametrize("power,outside,inside", [
        (math.exp, (710.0,), (709.0,)),
        (math.ldexp, (0.75, 1025), (0.75, 1024)),
        (pow, (1e300, 1.5), (1e200, 1.5)),
        (float, (2 ** 1024,), (2 ** 1023,))],
        ids=["exp", "ldexp", "pow", "float"])
    def test_past_double_range_names_what(self, power, outside, inside):
        with pytest.raises(ComplexityError, match="^x overflows a double$"):
            checked_exp("x", *outside, power=power)
        # inside double range it is the conversion itself
        assert checked_exp("x", *inside, power=power) == power(*inside)


class TestSignedLogGamma:
    def test_complex_log_gamma_refuses_a_pole(self):
        with pytest.raises(PoleError, match="log-gamma pole"):
            log_gamma_complex(-2.0 + 1e-13j)

    def test_positive_arguments(self):
        for x in (0.3, 1.0, 4.5):
            sign, logmag = lgamma_signed(x)
            assert sign == 1
            assert logmag == pytest.approx(special.gammaln(x), rel=1e-13)

    def test_log_past_double_range_is_typed(self):
        # math.lgamma once raised a bare OverflowError here
        assert lgamma_signed(2e305)[1] == pytest.approx(1.4e308, rel=1e-2)
        with pytest.raises(ComplexityError, match="log Gamma"):
            lgamma_signed(1e306)

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

    @pytest.mark.parametrize("order,alpha,message", [
        (0, 0.5, "order must be >= 1, got 0"),
        (4, -1.0, "exponent must exceed -1, got -1.0")])
    def test_gauss_jacobi_refuses_bad_arguments(self, order, alpha, message):
        with pytest.raises(DomainError, match=message):
            gauss_jacobi(order, alpha)

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

    def test_rule_needs_a_weight_per_node(self):
        with pytest.raises(ValueError, match="length mismatch"):
            QuadratureRule(np.ones(2), np.ones(3))

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
        def value_at(level):
            rule = gauss_jacobi(16 * 2 ** level, 0.0)
            return rule.integrate(lambda t: np.exp(t))
        got = refine_quadrature(value_at)
        assert got == pytest.approx(math.e - 1.0, rel=1e-11)

    def test_refine_quadrature_stops_where_the_error_squares(self):
        # an error that squares with each level, as tanh-sinh's does:
        # changes 1.7e-5 then 2.8e-10, so the next is about
        # 2.8e-10^2 / 1.7e-5 = 4.6e-15, and level 2 is accepted where the
        # rtol rule alone ran level 3 to confirm it
        levels = []

        def value_at(level):
            levels.append(level)
            return 1.0 + math.exp(-11.0 * 2 ** level)

        assert refine_quadrature(value_at) == 1.0 + math.exp(-44.0)
        assert levels == [0, 1, 2]

    def test_refine_quadrature_does_not_stop_early_on_linear_convergence(
            self):
        # changes that only halve: near 1e173 the squares of absolute
        # changes overflow, and inf <= inf would accept a value 21% off (as
        # i1 at beta = 110 was); relative changes near rtol must reach it
        with pytest.raises(NonConverged):
            refine_quadrature(lambda level: 1e173 * (1.0 + 2.0 ** -level))
        levels = []

        def value_at(level):
            levels.append(level)
            return 1.0 + 1e-9 / 2 ** (level + 4)

        assert refine_quadrature(value_at) == 1.0 + 1e-9 / 128
        assert levels == [0, 1, 2, 3]

    def test_refine_quadrature_reports_nonconvergence(self):
        # 2^(5 - level) never settles: the error names the last step's
        # delta, level 11 to 12, 1/64 - 1/128
        with pytest.raises(NonConverged, match=r"last delta 7\.81"):
            refine_quadrature(lambda level: 2.0 ** (5 - level))


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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_entries(self, bad):
        # pfaffian once returned LogValue(-1, nan) for these
        with pytest.raises(DomainError, match="entries must be finite"):
            SkewMatrix([[0.0, bad], [0.0, 0.0]])
        # only the strict upper triangle is read
        assert SkewMatrix([[bad, 1.0], [bad, 0.0]]).entries[1, 0] == -1.0

    def test_odd_or_empty_dimension(self):
        with pytest.raises(DimensionError, match="even dimension, got 3"):
            pfaffian(SkewMatrix(np.ones((3, 3))))
        assert pfaffian(SkewMatrix(np.zeros((0, 0)))) == LogValue.one()

    def test_zero_row_or_zero_pivot_gives_zero(self):
        row = SkewMatrix(np.triu(np.ones((4, 4)), 1) * [1, 1, 1, 0])
        assert not row.entries[3].any() and pfaffian(row) == LogValue.zero()
        # Pf = a01 a23 - a02 a13 + a03 a12 = 1 - 1 + 0 with no zero row:
        # the second pivot is an exact zero
        m = np.zeros((4, 4))
        m[0, 1] = m[2, 3] = m[0, 2] = m[1, 3] = 1.0
        assert pfaffian(SkewMatrix(m)) == LogValue.zero()

    def test_bordered_requires_a_border_of_the_dimension(self):
        with pytest.raises(DimensionError, match="border length"):
            pfaffian_bordered(SkewMatrix(np.ones((3, 3))), np.ones(4))
