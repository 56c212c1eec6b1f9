"""Tests for Mellin-Barnes evaluation and the kernel-building functions."""
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from cauchybures import foxh
from cauchybures.ensembles import EnsembleParams
from cauchybures.exceptions import DomainError, PoleCollisionError
from cauchybures.foxh import (FoxHSpec, GammaFactor, fox_h, g_inf, g_n,
                              g_tilde_inf, g_tilde_n, hankel_loop,
                              mellin_barnes, min_family_separation,
                              residue_series)
from cauchybures.kernels import hard_edge_kernel, k10


class TestExponentialSpecialCase:
    def test_h10_01_equals_exp(self):
        # H^{1,0}_{0,1}(z) with a single Gamma(u) factor is e^{-z}
        spec = FoxHSpec(upper=(), lower=((0.0, 1.0),), m=1, n=0)
        for z in np.linspace(0.1, 10.0, 34):
            got = fox_h(spec, float(z))
            assert got == pytest.approx(math.exp(-z), rel=1e-12)

    def test_h10_01_shifted_power_weight(self):
        # lower parameter (b, 1) multiplies the exponential by z^b
        b = 0.75
        spec = FoxHSpec(upper=(), lower=((b, 1.0),), m=1, n=0)
        for z in (0.3, 1.0, 4.2):
            assert fox_h(spec, z) == pytest.approx(z ** b * math.exp(-z),
                                                   rel=1e-11)


class TestStrategyCrossValidation:
    @pytest.mark.parametrize("theta", [math.sqrt(2.0), 1.5])
    def test_g_inf_residue_vs_hankel(self, theta):
        rng = np.random.default_rng(42)
        a, alpha = 0.5, 0.9
        for z in rng.uniform(0.05, 8.0, size=20):
            series = g_inf(a, alpha, theta, float(z))
            contour = g_inf(a, alpha, theta, float(z), strategy="hankel")
            assert contour == pytest.approx(series, rel=1e-8)

    @pytest.mark.parametrize("theta", [math.sqrt(2.0), 1.5])
    def test_g_tilde_inf_residue_vs_hankel(self, theta):
        rng = np.random.default_rng(43)
        a, alpha = 0.3, 0.9
        for z in rng.uniform(0.05, 8.0, size=20):
            series = g_tilde_inf(a, alpha, theta, float(z),
                                 strategy="residue")
            contour = g_tilde_inf(a, alpha, theta, float(z),
                                  strategy="hankel")
            assert contour == pytest.approx(series, rel=1e-8)

    def test_g_n_polynomial_vs_contour(self):
        a, alpha, theta, n = 0.5, 0.9, 1.5, 6
        for z in (0.2, 1.0, 3.7):
            contour = g_n(a, alpha, theta, n, z, strategy="hankel")
            assert contour == pytest.approx(g_n(a, alpha, theta, n, z),
                                            rel=1e-10)

    def test_g_tilde_n_residue_vs_contour(self):
        a, alpha, theta, n = 0.3, 0.9, 1.5, 5
        for z in (0.2, 1.0, 3.7):
            got = g_tilde_n(a, alpha, theta, n, z, strategy="residue")
            ref = g_tilde_n(a, alpha, theta, n, z, strategy="hankel")
            assert ref == pytest.approx(got, rel=1e-9)

    def test_fox_h_hankel_route_equals_exp(self):
        spec = FoxHSpec(upper=(), lower=((0.0, 1.0),), m=1, n=0)
        for z in (0.5, 1.0, 2.0):
            got = fox_h(spec, z, strategy="hankel")
            assert got == pytest.approx(math.exp(-z), rel=1e-9)


class TestHighPrecisionOracle:
    def test_g_inf_matches_hypergeometric_at_theta_one(self):
        # theta = 1 reduces the series to 0F2(; alpha+1, a+1; -z)
        a, alpha = 0.5, 0.9
        for z in (0.1, 0.7, 2.5, 6.0):
            want = float(mpmath.hyper([], [alpha + 1.0, a + 1.0], -z)
                         / (mpmath.gamma(alpha + 1.0)
                            * mpmath.gamma(a + 1.0)))
            assert g_inf(a, alpha, 1.0, z) == pytest.approx(want, rel=1e-11)

    def test_g_inf_matches_mpmath_series(self):
        # independent arbitrary-precision summation of the same series
        a, alpha, theta = 0.3, 1.1, 1.5

        def oracle(z):
            with mpmath.workdps(50):
                s = mpmath.nsum(
                    lambda k: (-z) ** k / (mpmath.factorial(k)
                                           * mpmath.gamma(alpha + 1 + k)
                                           * mpmath.gamma(a + theta * k + 1)),
                    [0, mpmath.inf])
                return float(s)

        for z in (0.2, 1.3, 5.0, 20.0):
            assert g_inf(a, alpha, theta, z) == pytest.approx(oracle(z),
                                                              rel=1e-11)


    @pytest.mark.parametrize("a,alpha", [(0.0, 0.0), (0.5, 1.2), (0.3, 2.7),
                                         (1.5, 0.4)])
    def test_g_inf_matches_0f2_reference(self, a, alpha):
        # theta = 1: G_inf(z) = 0F2(; alpha+1, a+1; -z) / (G(alpha+1) G(a+1))
        # at 60 digits; the z grid runs deep into the cancelling range
        zs = np.geomspace(1e-3, 100.0, 40)
        got = g_inf(a, alpha, 1.0, zs)
        with mpmath.workdps(60):
            scale = mpmath.gamma(alpha + 1) * mpmath.gamma(a + 1)
            for z, value in zip(zs, got):
                want = mpmath.hyper([], [alpha + 1, a + 1], -mpmath.mpf(z))
                want /= scale
                assert abs(value - want) <= 1e-12 * abs(want), z


class TestArrayArguments:
    """One call on an array of z equals the same calls one z at a time."""

    CASES = {
        # families {-k} and {(a-m)/theta} 0.13 or more apart
        "separated": foxh._gtinf_factors(0.3, 0.9, 1.5),
        # a = 0.5, theta = 1.5: every other pole of Gamma(1.5u - 0.5) is
        # double with Gamma(u)
        "colliding": foxh._gtn_factors(0.5, 0.9, 1.5, 3),
        "g_inf": foxh._ginf_factors(0.4, 1.2, 1.0),
    }
    # the largest z lose more than two digits to cancellation, which sends
    # them to the mpmath re-sum
    ZS = np.concatenate([np.geomspace(1e-4, 100.0, 31), [7.0, 7.0]])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_residue_series_array_equals_scalar_calls(self, case,
                                                      monkeypatch):
        num, den = self.CASES[case]
        resums = []
        exact_sum = foxh._ResidueTable.exact_sum

        def counted(table, z, terms, lost):
            resums.append(z)
            return exact_sum(table, z, terms, lost)

        monkeypatch.setattr(foxh._ResidueTable, "exact_sum", counted)
        got = residue_series(num, den, self.ZS)
        assert resums, "no z reached the mpmath re-sum"
        assert got.shape == self.ZS.shape
        for z, value in zip(self.ZS, got):
            one = residue_series(num, den, float(z))
            assert type(one) is float
            assert value == pytest.approx(one, rel=1e-15, abs=0.0)
        grid = residue_series(num, den, self.ZS[:30].reshape(5, 6))
        assert np.array_equal(grid, got[:30].reshape(5, 6))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mellin_barnes_array_equals_scalar_calls(self, case):
        num, den = self.CASES[case]
        values, route = mellin_barnes(num, den, self.ZS)
        assert route == "residue"
        for z, value in zip(self.ZS, values):
            one, one_route = mellin_barnes(num, den, float(z))
            assert one_route == route
            assert value == pytest.approx(one, rel=1e-15, abs=0.0)

    def test_hankel_route_takes_arrays(self):
        num, den = self.CASES["separated"]
        zs = np.array([0.3, 2.0])
        values, route = mellin_barnes(num, den, zs, strategy="hankel")
        assert route == "hankel"
        assert list(values) == [hankel_loop(num, den, z) for z in zs]

    def test_array_with_a_nonpositive_z_rejected(self):
        num, den = self.CASES["separated"]
        with pytest.raises(DomainError):
            residue_series(num, den, np.array([1.0, 0.0]))


class TestPoleCollisions:
    def test_integer_offset_families_collide(self):
        # theta = 1 with integer a puts both pole families on the same grid;
        # each coinciding pair is one double pole of the residue series
        a, alpha, theta = 1.0, 0.9, 1.0
        num = [GammaFactor(0.0, 1.0), GammaFactor(alpha + 1.0, -1.0),
               GammaFactor(-a, theta)]
        assert min_family_separation(num, []) == math.inf
        value, route = mellin_barnes(num, [], 1.0)
        assert route == "residue"
        assert value == pytest.approx(hankel_loop(num, [], 1.0), rel=1e-10)

    def test_auto_strategy_falls_back_to_hankel(self):
        # exactly coinciding families: the series matches the loop
        val = g_tilde_inf(1.0, 0.9, 1.0, 1.3, strategy="auto")
        ref = g_tilde_inf(1.0, 0.9, 1.0, 1.3, strategy="hankel")
        assert val == pytest.approx(ref, rel=1e-10)
        # families 5e-8 apart: too close for two simple poles, too far for
        # one double pole, so auto integrates the loop
        near = g_tilde_inf(1.0 + 5e-8, 0.9, 1.0, 0.3, strategy="auto")
        assert near == g_tilde_inf(1.0 + 5e-8, 0.9, 1.0, 0.3,
                                   strategy="hankel")
        assert near == pytest.approx(g_tilde_inf(1.0, 0.9, 1.0, 0.3),
                                     rel=1e-6)

    def test_separation_reports_distance(self):
        num = [GammaFactor(0.0, 1.0), GammaFactor(-0.5, 1.0)]
        assert min_family_separation(num, []) == pytest.approx(0.5)

    def test_dispatcher_names_the_route(self):
        # coinciding families are a double pole of the series; a near
        # collision and a triple pole go to the loop
        collide = [GammaFactor(0.0, 1.0), GammaFactor(0.0, 1.0)]
        value, route = mellin_barnes(collide, [], 1.3)
        assert route == "residue"
        assert value == pytest.approx(hankel_loop(collide, [], 1.3),
                                      rel=1e-10)
        near = [GammaFactor(0.0, 1.0), GammaFactor(1e-7, 1.0)]
        value, route = mellin_barnes(near, [], 1.3)
        assert route == "hankel"
        assert value == hankel_loop(near, [], 1.3)
        assert mellin_barnes([GammaFactor(0.0, 1.0)] * 3, [], 1.3)[1] == (
            "hankel")
        value, route = mellin_barnes([GammaFactor(0.0, 1.0)], [], 1.3)
        assert route == "residue"
        assert value == pytest.approx(math.exp(-1.3), rel=1e-12)

    def test_hankel_loop_returns_plain_float(self):
        value = hankel_loop([GammaFactor(0.0, 1.0)], [], 0.7)
        assert type(value) is float

    def test_hankel_loop_converges_at_a_zero_of_the_integral(self):
        # G~_{2,0.5}(z) at alpha = 0.9, theta = 1.5 changes sign twice; at
        # a root the loop's value is rounding noise, so its refinement must
        # be judged against the size of the integrand, not of the value
        num, den = foxh._gtn_factors(0.5, 0.9, 1.5, 2)

        def series(z):
            return mellin_barnes(num, den, z, strategy="residue")[0]

        for z0 in (0.850945, 7.795487):
            root = brentq(series, z0 - 1e-3, z0 + 1e-3, xtol=1e-15)
            value, route = mellin_barnes(num, den, root, strategy="hankel")
            assert route == "hankel"
            assert abs(value - series(root)) < 1e-12

    def test_triple_pole_raises(self):
        with pytest.raises(PoleCollisionError):
            residue_series([GammaFactor(0.0, 1.0)] * 3, [], 1.0)


class TestLogarithmicCase:
    def test_gamma_squared_is_bessel_k(self):
        # H^{2,0}_{0,2}(z | (0,1),(0,1)) = 2 K_0(2 sqrt z): double poles at
        # every -k; z = 10, 30 cancel deep enough for the mpmath re-sum
        spec = FoxHSpec(upper=(), lower=((0.0, 1.0), (0.0, 1.0)), m=2, n=0)
        num, den = spec.factors()
        for z in (0.05, 0.5, 1.0, 3.0, 10.0, 30.0):
            want = float(2 * mpmath.besselk(0, 2 * mpmath.sqrt(z)))
            assert fox_h(spec, z) == pytest.approx(want, rel=1e-12)
        table = foxh._residue_table(tuple(num), tuple(den),
                                    foxh._COLLISION_TOL)
        assert table.exact

    @pytest.mark.parametrize("a,theta,n", [(0.5, 1.5, 2), (0.5, 1.5, 3),
                                           (0.5, 1.5, None), (0.7, 1.3, None),
                                           (1.0, 1.0, None)])
    def test_colliding_g_tilde_series_matches_loop(self, a, theta, n):
        alpha = 0.9
        if n is None:
            num, den = foxh._gtinf_factors(a, alpha, theta)
        else:
            num, den = foxh._gtn_factors(a, alpha, theta, n)
        assert min_family_separation(num, den) >= foxh._STRATEGY_SEP

        def series(z):
            value, route = mellin_barnes(num, den, float(z))
            assert route == "residue"
            return value

        zs = list(np.geomspace(1e-3, 30.0, 25))
        signs = [math.copysign(1.0, series(z)) for z in zs]
        # both sides of every zero crossing, where relative error is hardest
        for lo, hi, s_lo, s_hi in zip(zs, zs[1:], signs, signs[1:]):
            if s_lo != s_hi:
                root = brentq(series, lo, hi, xtol=1e-14)
                zs += [root * (1 - 1e-3), root * (1 + 1e-3)]
        assert len(zs) > 25
        for z in zs:
            loop = mellin_barnes(num, den, float(z), strategy="hankel")[0]
            assert series(z) == pytest.approx(loop, rel=1e-10)

    def test_kernels_never_reach_the_loop(self, monkeypatch):
        def no_loop(*args, **kwargs):
            raise AssertionError("hankel_loop called on a kernel path")

        monkeypatch.setattr(foxh, "hankel_loop", no_loop)
        params = EnsembleParams(0.5, 0.7, 1.5, 2)
        got = k10(params, 0.4399, 1.2688, route="tintegral")
        assert got == pytest.approx(
            k10(params, 0.4399, 1.2688, route="direct"), rel=1e-9)
        # b = 0.7, theta = 1.3: G~_inf has double poles; reference value
        # from the Hankel-loop route
        got = hard_edge_kernel(0.3, 0.7, 1.3, "K01", 1.3911, 1.5963)
        assert got == pytest.approx(0.21391122847050842, rel=1e-9)

    def test_residue_table_cache_does_not_change_values(self):
        def values():
            return [g_tilde_inf(0.5, 0.9, 1.5, z) for z in (0.7, 30.0)]

        foxh._residue_table.cache_clear()
        cold = values()
        foxh._residue_table.cache_clear()
        # warm the table with other z and other working precisions
        for z in (1e-3, 2.0, 8.0, 20.0, 45.0):
            g_tilde_inf(0.5, 0.9, 1.5, z)
        table = foxh._residue_table(*map(tuple, foxh._gtinf_factors(
            0.5, 0.9, 1.5)), foxh._COLLISION_TOL)
        assert len(table.exact) >= 2
        assert values() == cold


class TestFiniteToLimit:
    def test_scaled_polynomial_approaches_limit_function(self):
        # n^{-(alpha+1)} G_{n,a}(z / n^2) -> G_inf,a(z), error decreasing
        a, alpha, theta, z = 0.5, 0.9, 1.5, 1.7
        limit = g_inf(a, alpha, theta, z)
        errs = []
        for n in (20, 40, 80):
            scaled = n ** (-(alpha + 1.0)) * g_n(a, alpha, theta, n,
                                                 z / n ** 2)
            errs.append(abs(scaled / limit - 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-2


class TestDomainValidation:
    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            g_n(0.5, 0.9, 1.5, 4, -1.0)

    def test_tilde_requires_positive_argument(self):
        with pytest.raises(DomainError):
            g_tilde_inf(0.3, 0.9, 1.5, 0.0)

    def test_small_argument_stability(self):
        # the loop contour stays accurate deep into the origin region
        a, alpha, theta = 0.3, 0.9, 1.5
        for z in (1e-6, 1e-12, 1e-30):
            series = g_tilde_inf(a, alpha, theta, z, strategy="residue")
            contour = g_tilde_inf(a, alpha, theta, z, strategy="hankel")
            assert contour == pytest.approx(series, rel=1e-8)
