"""Tests for Raney numbers and the squared-singular-value density."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchybures.exceptions import ComplexityError, DomainError, PoleError
from cauchybures.raney import (SZ_EDGE, density_asymptote, fuss_catalan_moment,
                               raney, sz_density, sz_moment, sz_support)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


class TestRaneyNumbers:
    def test_catalan_specialization_is_exact(self):
        for n, c in enumerate(CATALAN):
            assert raney(2.0, 1.0, n) == pytest.approx(c, abs=0.0)

    def test_first_values_at_three_halves(self):
        # R_{3/2,1/2}(n) = (1/2)/(3n/2 + 1/2) * C(3n/2 + 1/2, n)
        for n in range(6):
            with mpmath.workdps(30):
                want = float(mpmath.mpf(0.5) / (1.5 * n + 0.5)
                             * mpmath.binomial(1.5 * n + 0.5, n))
            assert raney(1.5, 0.5, n) == pytest.approx(want, rel=1e-12)

    def test_fuss_catalan_matches_raney(self):
        for theta, n in ((2.0, 3), (3.0, 4), (1.5, 5)):
            assert fuss_catalan_moment(theta, n) == pytest.approx(
                raney(theta + 1.0, 1.0, n), rel=1e-12)

    @given(st.integers(min_value=0, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_positive_for_positive_parameters(self, n):
        assert raney(1.5, 0.5, n) > 0.0
        assert raney(3.0, 1.0, n) > 0.0

    def test_past_double_range_raises_complexity_error(self):
        # the exact integer branch and the gamma branch alike
        for p in (2.0, 2.5):
            with pytest.raises(ComplexityError):
                raney(p, 1.0, 600)
        assert raney(2.0, 1.0, 400) == pytest.approx(
            float(mpmath.binomial(801, 400) / 801), rel=1e-14)
        # log Gamma(pn + r + 1) itself past double range: math.lgamma's
        # bare OverflowError once
        for p in (1.0, 2.5):
            with pytest.raises(ComplexityError, match="log Gamma"):
                raney(p, 0.5, 1e306)

    @pytest.mark.parametrize("args", [(2.0, 1.0, 10**400),
                                      (10**400, 1.0, 3)])
    def test_integer_past_double_range_raises_complexity_error(self, args):
        # math.isfinite once raised a bare OverflowError on such an integer
        with pytest.raises(ComplexityError, match="overflows a double"):
            raney(*args)

    @pytest.mark.parametrize("args,want", [
        ((1.0, 1.0, 2.0 ** 53), 1.0),
        ((1.0, 1.0, 2.0 ** 53 + 2), 1.0),
        ((1.0, 2.0, 2.0 ** 60), float(2 ** 60 + 1)),
        ((1.0, 1.0, 1e300), 1.0),
        ((1.0, 3.0, 2.0 ** 53), float((2 ** 53 + 2) * (2 ** 53 + 1) // 2))],
        ids=["r1-2^53", "r1-2^53+2", "r2-2^60", "r1-1e300", "r3-2^53"])
    def test_integer_branch_is_exact_where_pn_plus_r_rounds(self, args, want):
        # R_{1,r}(n) = C(n + r - 1, r - 1); p n + r once came from the
        # rounded double, which gave 0.0, 4503599627370497.0, 0.0, 0.0
        # and 9.13e46 here
        assert raney(*args) == want

    def test_non_integer_n_takes_gamma_continuation(self):
        # integer p and r with a non-integer n leave the exact branch
        with mpmath.workdps(30):
            want = float(mpmath.binomial(6, 2.5) / 6)
        assert raney(2.0, 1.0, 2.5) == pytest.approx(want, rel=1e-14)
        assert raney(1.5, 0.5, 2.5) == pytest.approx(0.775010638697353,
                                                     rel=1e-14)

    def test_negative_binomial_keeps_its_sign(self):
        # R_{0.3,0.5}(3) = 0.5/1.4 * binom(1.4, 3), and binom(1.4, 3) =
        # 1.4 * 0.4 * (-0.6) / 6 < 0: Gamma(-0.6) is negative
        assert raney(0.3, 0.5, 3) == pytest.approx(-0.02, rel=1e-14)

    def test_zero_at_a_pole_of_the_denominator_gamma(self):
        # pn + r - n + 1 = 3/2 - 7n/10 is a non-positive integer at n = 5,
        # 15, ..., 395: there 1/Gamma(pn + r - n + 1) vanishes, and so does
        # binom(pn + r, n), which mpmath takes at the integer pn + r
        p, r = Fraction(3, 10), Fraction(1, 2)
        ns = [n for n in range(400)
              if (p * n + r - n + 1).denominator == 1 and p * n + r - n < 0]
        assert len(ns) == 40
        for n in ns:
            top = p * n + r
            want = float(r / top * mpmath.binomial(int(top), n))
            assert raney(0.3, 0.5, n) == want == 0.0, n

    def test_pole_of_the_numerator_gamma_raises(self):
        # pn + r = -1: Gamma(pn + r + 1) has a pole (as has the other)
        with pytest.raises(PoleError):
            raney(-0.5, 0.5, 3)

    def test_zeroth_value_is_one(self):
        for p, r in ((2.0, 1.0), (1.5, 0.5), (3.7, 0.4)):
            assert raney(p, r, 0) == pytest.approx(1.0, rel=1e-14)


class TestDensity:
    def test_support_endpoints(self):
        lo, hi = sz_support()
        assert lo == 0.0
        assert hi == pytest.approx(SZ_EDGE, rel=1e-14)
        assert SZ_EDGE == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, rel=1e-15)

    def test_density_vanishes_beyond_edge(self):
        for x in (SZ_EDGE + 1e-9, 3.0, 100.0):
            assert sz_density(x) == 0.0

    def test_density_positive_inside_support(self):
        for x in (1e-4, 0.5, 1.0, 2.0, SZ_EDGE - 1e-6):
            assert sz_density(x) > 0.0

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            sz_density(0.0)
        with pytest.raises(DomainError):
            sz_density(-0.5)

    def test_nan_argument_rejected(self):
        # NaN once passed the x <= 0 test and returned 0.0; x = inf lies
        # beyond the edge, where the density is 0
        for x in (math.nan, [1.0, math.nan]):
            with pytest.raises(DomainError, match="density requires x > 0"):
                sz_density(x)
        assert sz_density(math.inf) == 0.0

    def test_moments_equal_raney_numbers(self):
        for n in range(8):
            assert sz_moment(n) == pytest.approx(raney(1.5, 0.5, n),
                                                 rel=1e-14)
        # a non-integer n takes the gamma continuation on both sides
        assert sz_moment(2.5) == pytest.approx(raney(1.5, 0.5, 2.5),
                                               rel=1e-14)

    def test_small_argument_asymptote(self):
        x = 1e-5
        assert sz_density(x) == pytest.approx(
            density_asymptote(1.5, 0.5, x), rel=0.02)

    def test_asymptote_holds_where_w_squared_overflows(self):
        # x < 1e-154 puts (SZ_EDGE / x)^2 past double range
        for x in (1e-150, 1e-200, 1e-300):
            assert sz_density(x) == pytest.approx(
                density_asymptote(1.5, 0.5, x), rel=1e-12)

    def test_asymptote_holds_where_w_overflows(self):
        # below x ~ 2e-308 SZ_EDGE / x itself is past double range; every
        # positive double still gives a finite value
        for x in (5e-324, 1e-310, 2e-308):
            assert sz_density(x) == pytest.approx(
                density_asymptote(1.5, 0.5, x), rel=1e-12)

    def test_asymptote_power_is_two_thirds(self):
        # f(x) ~ const * x^{-2/3} near the origin
        ratio = (density_asymptote(1.5, 0.5, 1e-6)
                 / density_asymptote(1.5, 0.5, 8e-6))
        assert ratio == pytest.approx(8.0 ** (2.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("call,error,message", [
        (lambda: raney(2.0, 1.0, -1), DomainError, "n non-negative"),
        (lambda: raney(2.0, 1.0, math.nan), DomainError, "must be finite"),
        (lambda: raney(2.0, 1.0, math.inf), DomainError, "must be finite"),
        (lambda: raney(math.nan, 1.0, 3), DomainError, "must be finite"),
        (lambda: raney(-1.0, 2.0, 2), PoleError, r"p\*n \+ r vanishes"),
        (lambda: fuss_catalan_moment(0.0, 3), DomainError,
         "theta must be positive"),
        (lambda: fuss_catalan_moment(1.0, math.nan), DomainError,
         "must be finite"),
        (lambda: sz_moment(-1), DomainError, "n must be finite and non-neg"),
        (lambda: sz_moment(math.nan), DomainError,
         "n must be finite and non-neg")],
        ids=["raney-n<0", "raney-n-nan", "raney-n-inf", "raney-p-nan",
             "raney-pole", "fuss-catalan-theta-0", "fuss-catalan-n-nan",
             "sz-moment-n<0", "sz-moment-n-nan"])
    def test_refused_arguments(self, call, error, message):
        # the NaN and inf cases once raised a bare ValueError (cannot
        # convert float NaN to integer), sz_moment(nan) NonConverged
        with pytest.raises(error, match=message):
            call()

    def test_asymptote_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            density_asymptote(1.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            density_asymptote(1.5, 0.5, -1.0)
