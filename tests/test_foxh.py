"""Tests for Mellin-Barnes evaluation and the kernel-building functions."""
import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from cauchybures import foxh
from cauchybures.ensembles import EnsembleParams
from cauchybures.exceptions import (ComplexityError, DomainError,
                                    NonConverged, PoleCollisionError)
from cauchybures.foxh import (FoxHSpec, GammaFactor, fox_h, g_inf, g_n,
                              g_tilde_inf, g_tilde_n, hankel_loop,
                              mellin_barnes, min_family_separation,
                              residue_series)
from cauchybures.kernels import hard_edge_kernel, k01, k10
from references import residue_sum


def mp_residue_sum(num, den, zs, dps, u_min):
    """Sum of simple residues over the left pole families, in mpmath.

    num and den hold (shift, slope) pairs with the float parameters taken
    as exact; every left pole from u_min up must be simple.
    """
    with mpmath.workdps(dps):
        poles = []
        for i, (shift, slope) in enumerate(num):
            k = 0
            while slope > 0 and (u := (-shift - k) / slope) >= u_min:
                c = (-1) ** k / (mpmath.factorial(k) * slope)
                for j, (s, b) in enumerate(num):
                    if j != i:
                        c *= mpmath.gamma(s + b * u)
                for s, b in den:
                    c *= mpmath.rgamma(s + b * u)
                poles.append((u, c))
                k += 1
        return [sum(c * mpmath.mpf(z) ** -u for u, c in poles) for z in zs]


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


class TestGNReference:
    ZS = [0.1, 1.0, 3.0, 10.0, 30.0, 100.0]

    @pytest.mark.parametrize("a,alpha,theta,n", [
        (0.0, 0.0, 1.0, 30), (0.5, 1.2, 1.0, 30), (0.3, 0.8, 1.5, 20),
        (0.3, 0.8, 1.5, 40), (0.3, 0.8, 1.5, 80)])
    def test_g_n_matches_its_defining_series(self, a, alpha, theta, n):
        # sum_k (-z)^k/k! G(alpha+n+1+k) / (G(n-k) G(alpha+1+k) G(a+theta k+1))
        # at 120 digits, the float parameters taken as exact; at theta = 1
        # also the 2F2 closed form
        got = g_n(a, alpha, theta, n, np.array(self.ZS))
        with mpmath.workdps(120):
            a, alpha, theta = map(mpmath.mpf, (a, alpha, theta))
            coeffs = [(-1) ** k / mpmath.factorial(k)
                      * mpmath.gamma(alpha + n + 1 + k)
                      / (mpmath.gamma(n - k) * mpmath.gamma(alpha + 1 + k)
                         * mpmath.gamma(a + theta * k + 1))
                      for k in range(n)]
            for z, value in zip(self.ZS, got):
                want = mpmath.polyval(coeffs[::-1], z)
                assert abs(value - want) <= 1e-12 * abs(want), z
                if theta == 1:
                    closed = (mpmath.gamma(alpha + n + 1)
                              / (mpmath.gamma(n) * mpmath.gamma(alpha + 1)
                                 * mpmath.gamma(a + 1))
                              * mpmath.hyp2f2(1 - n, alpha + n + 1,
                                              alpha + 1, a + 1, z))
                    assert abs(value - closed) <= 1e-12 * abs(closed), z

    def test_g_n_at_zero_is_the_constant_term(self):
        a, alpha, theta, n = 0.3, 0.8, 1.5, 6
        want = math.gamma(alpha + n + 1) / (math.gamma(n)
                                            * math.gamma(alpha + 1)
                                            * math.gamma(a + 1))
        assert g_n(a, alpha, theta, n, 0.0) == pytest.approx(want, rel=1e-14)
        assert g_n(a, alpha, theta, n, 1e-300) == pytest.approx(want,
                                                                rel=1e-14)


@pytest.fixture
def resummed(monkeypatch):
    """The z each call sends to the exact re-sum, cleared by the caller."""
    seen = []
    exact_sum = foxh._ResidueTable.exact_sum

    def counted(table, z, term_log, lost):
        seen.append(z)
        return exact_sum(table, z, term_log, lost)

    monkeypatch.setattr(foxh._ResidueTable, "exact_sum", counted)
    return seen


# z ascending; 3000 is one of the cases that went wrong
LARGE_ZS = sorted(float(z) for z in [*np.geomspace(1.0, 1e4, 13), 3000.0])
# (a, alpha) per theta; a = 0.37 keeps both families of G~ apart
HARD_EDGE_CASES = {False: {0.3: (0.3, 0.5), 0.5: (0.5, 1.2), 1.0: (0.3, 0.5)},
                   True: {t: (0.37, 1.2) for t in (0.3, 0.5, 1.0)}}


@functools.lru_cache(maxsize=None)
def hard_edge_reference(a, alpha, theta, tilde):
    """210-digit G_inf (G~_inf with tilde) at LARGE_ZS, keyed by z."""
    num, den = foxh._g_factors(a, alpha, theta, None, tilde)
    return dict(zip(LARGE_ZS, residue_sum(num, den, LARGE_ZS, 210)))


class TestLargeArgument:
    """The mpmath re-sum confirms its terms and digits far into the
    cancellation, where the float sum's loss estimate saturates."""

    @pytest.mark.parametrize("a,alpha,theta,z", [
        (0.3, 0.5, 0.3, 3000.0), (0.5, 1.2, 0.5, 1e4), (0.3, 0.5, 0.3, 1e4)])
    def test_g_inf_deep_cancellation(self, a, alpha, theta, z):
        # the float sum saw 13 digits lost here and stopped 16-40 terms
        # early; the true loss is 30-50 digits
        want = hard_edge_reference(a, alpha, theta, False)[z]
        assert abs(g_inf(a, alpha, theta, z) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("tilde", [False, True])
    def test_hard_edge_sweep(self, tilde, theta, resummed):
        # values the float sum keeps (at most two digits lost) carry its
        # rounding, up to 2e-13 here; re-summed values meet 1e-13
        a, alpha = HARD_EDGE_CASES[tilde][theta]
        fn = g_tilde_inf if tilde else g_inf
        for z, want in hard_edge_reference(a, alpha, theta, tilde).items():
            resummed.clear()
            got = fn(a, alpha, theta, z)
            bound = 1e-13 if resummed else 1e-12
            assert abs(got - want) <= bound * abs(want), z

    @pytest.mark.parametrize("z", [800.0, np.array([1.0, 800.0])],
                             ids=["scalar", "array"])
    def test_overflowing_float_total_raises_typed_error(self, z):
        # e^{-z} at z = 800: the float total is ~e^796 of rounding noise,
        # past double range; the re-sum refuses it with NonConverged and
        # no RuntimeWarning (an error under the test settings) comes first
        with pytest.raises(NonConverged):
            residue_series([GammaFactor(0.0, 1.0)], [], z)

    @pytest.mark.parametrize("num,den,z,resum", [
        # G~_inf at a = 1.3, theta = 0.2 starts at z^{-6.5}: 1e390 at
        # z = 1e-60, a float total
        (*foxh._gtinf_factors(1.3, 5.0, 0.2), 1e-60, False),
        # families 1e-3 apart from u = 300 on lose three digits at z = 0.01
        # and re-sum to about 1e600
        ([GammaFactor(-300.0, 1.0), GammaFactor(-299.999, 1.0)], [], 0.01,
         True)], ids=["float", "resum"])
    def test_value_past_double_range_raises_typed_error(self, num, den, z,
                                                        resum, resummed):
        for arg in (z, np.array([1.0, z])):
            resummed.clear()
            with pytest.raises(ComplexityError, match="past double range"):
                residue_series(num, den, arg)
            assert (z in resummed) == resum


class TestIntegerResum:
    """The re-sum on integer mantissas against values it did not make: a
    re-summed value is the double nearest the exact sum (within 1.1e-16)."""

    @pytest.mark.parametrize("a,b,theta,n", [(0.3, 0.7, 1.5, 4),
                                             (0.7, 0.7, 1.5, 6),
                                             (0.3, 0.7, 1.5, None)])
    def test_resummed_values_match_reference(self, a, b, theta, n,
                                             resummed):
        # the kernels' G~ at (a, b, theta, N), alpha = (a + b + 1)/theta - 1,
        # at every z in [0.05, 3] that loses more than two digits, against
        # 50 digits of simple residues
        alpha = (a + b + 1.0) / theta - 1.0
        num, den = foxh._g_factors(a, alpha, theta, n, True)
        got = {}
        for z in np.geomspace(0.05, 3.0, 60):
            resummed.clear()
            value = foxh._g(a, alpha, theta, n, True, float(z), "residue")
            if resummed:
                got[float(z)] = value
        assert len(got) >= 10
        want = residue_sum(num, den, list(got), 50)
        for (z, value), ref in zip(got.items(), want):
            assert abs(value - ref) <= 2.5e-16 * abs(ref), z

    # the re-sum's values, equal to those of the mpmath loop it replaced
    SPLIT = {5.0: -0.008945293563978607, 20.0: -0.0007885802890076412,
             45.0: 0.00019786694755942645}
    DOUBLE = {2.0: -0.011191535217037921, 7.0: 0.00046508623555281247,
              20.0: -5.474357750089111e-06, 45.0: -1.3425491611471732e-07}

    @pytest.mark.parametrize("case", ["split", "double"])
    def test_split_and_double_poles_keep_their_values(self, case, resummed):
        # split: a = 0.7, theta = 1.3 put the poles of Gamma(u) and
        # Gamma(1.3u - 0.7) at u = -11 3.4e-16 apart, one pole in floats and
        # two in the re-sum.  double: a = 0.5, theta = 1.5, n = 3 make u = -1
        # a double pole.  Reference: simple residues of the float factors,
        # a moved by 1e-30 (1e-25) to split the pairs that coincide exactly
        if case == "split":
            a, alpha, theta, n, dps, move = 0.7, 0.9, 1.3, None, 100, 30
            values = self.SPLIT
        else:
            a, alpha, theta, n, dps, move = 0.5, 0.9, 1.5, 3, 80, 25
            values = self.DOUBLE
        num, den = foxh._g_factors(a, alpha, theta, n, True)
        with mpmath.workdps(dps):
            exact = [(mpmath.mpf(f.shift), f.slope) for f in num + den]
            exact[len(num) - 1] = (mpmath.mpf(-a) - mpmath.mpf(10) ** -move,
                                   theta)
            want = mp_residue_sum(exact[:len(num)], exact[len(num):],
                                  list(values), dps, -100)
        for (z, value), ref in zip(values.items(), want):
            resummed.clear()
            assert foxh._g(a, alpha, theta, n, True, z, "residue") == value
            assert resummed == [z]
            assert abs(value - ref) <= 2.5e-16 * abs(ref), z


class TestArrayArguments:
    """One call on an array of z equals the same calls one z at a time."""

    CASES = {
        # families {-k} and {(a-m)/theta} 0.13 or more apart
        "separated": foxh._gtinf_factors(0.3, 0.9, 1.5),
        # a = 0.5, theta = 1.5: every other pole of Gamma(1.5u - 0.5) is
        # double with Gamma(u)
        "colliding": foxh._gtn_factors(0.5, 0.9, 1.5, 3),
        "g_inf": foxh._g_factors(0.4, 1.2, 1.0, None, False),
    }
    # the largest z lose more than two digits to cancellation, which sends
    # them to the mpmath re-sum
    ZS = np.concatenate([np.geomspace(1e-4, 100.0, 31), [7.0, 7.0]])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_residue_series_array_equals_scalar_calls(self, case,
                                                      resummed):
        num, den = self.CASES[case]
        got = residue_series(num, den, self.ZS)
        assert resummed, "no z reached the exact re-sum"
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
        # families 5e-8 apart are two simple poles of the series; the
        # mpmath re-sum absorbs their 1/gap cancellation
        num, den = foxh._gtinf_factors(1.0 + 5e-8, 0.9, 1.0)
        value, route = mellin_barnes(num, den, 0.3)
        assert route == "residue"
        assert value == pytest.approx(hankel_loop(num, den, 0.3), rel=1e-12)
        # 5e-12 apart: a near-collision, too far apart to merge, so the
        # series raises and auto integrates the loop
        near = g_tilde_inf(1.0 + 5e-12, 0.9, 1.0, 0.3, strategy="auto")
        assert near == g_tilde_inf(1.0 + 5e-12, 0.9, 1.0, 0.3,
                                   strategy="hankel")
        assert near == pytest.approx(g_tilde_inf(1.0, 0.9, 1.0, 0.3),
                                     rel=1e-9)

    def test_separation_reports_distance(self):
        num = [GammaFactor(0.0, 1.0), GammaFactor(-0.5, 1.0)]
        assert min_family_separation(num, []) == pytest.approx(0.5)

    def test_dispatcher_names_the_route(self):
        # coinciding families are a double pole of the series and pairs
        # 1e-7 apart two simple poles; a near collision and a triple pole
        # go to the loop
        collide = [GammaFactor(0.0, 1.0), GammaFactor(0.0, 1.0)]
        value, route = mellin_barnes(collide, [], 1.3)
        assert route == "residue"
        assert value == pytest.approx(hankel_loop(collide, [], 1.3),
                                      rel=1e-10)
        apart = [GammaFactor(0.0, 1.0), GammaFactor(1e-7, 1.0)]
        value, route = mellin_barnes(apart, [], 1.3)
        assert route == "residue"
        assert value == pytest.approx(hankel_loop(apart, [], 1.3), rel=1e-10)
        near = [GammaFactor(0.0, 1.0), GammaFactor(1e-12, 1.0)]
        value, route = mellin_barnes(near, [], 1.3)
        assert route == "hankel"
        assert value == hankel_loop(near, [], 1.3)
        with pytest.raises(PoleCollisionError):
            mellin_barnes(near, [], 1.3, strategy="residue")
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


class TestNearCollisions:
    ZS = [0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0]

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 5e-8, 1e-8, 1e-9, 1e-10,
                                       1e-11, 1e-12, 1e-13, 1e-14, 3e-15,
                                       0.0])
    def test_g_tilde_inf_near_coinciding_families(self, delta):
        # a = 0.5 + delta, theta = 1.5: every other pole of Gamma(1.5u - a)
        # lies delta/1.5 from one of Gamma(u).  Pairs that coincide up to
        # rounding are one double pole, pairs 1e-10 or more apart two simple
        # poles, and only the band between goes to the loop.  Reference: 80
        # digits of simple residues (at delta = 0, a moved by 1e-25)
        a, alpha, theta = 0.5 + delta, 0.9, 1.5
        with mpmath.workdps(80):
            shifted = mpmath.mpf(a) + (mpmath.mpf(10) ** -25 if delta == 0
                                       else 0)
            want = mp_residue_sum([(0, 1), (-shifted, theta)],
                                  [(mpmath.mpf(alpha) + 1, -1)], self.ZS,
                                  80, -60)
        got = g_tilde_inf(a, alpha, theta, np.array(self.ZS))
        for z, value, ref in zip(self.ZS, got, want):
            assert abs(value - ref) <= 2e-11 * abs(ref), z

    @pytest.mark.parametrize("a,theta", [(0.7, 1.3), (0.3, 1.7)])
    def test_g_tilde_n_inexact_float_collisions(self, a, theta):
        # the binary values of 0.7 and 1.3 put the poles of Gamma(u) and
        # Gamma(1.3u - 0.7) at u = -11 3.4e-16 apart: one pole in floats,
        # two in the mpmath re-sum, whose cancellation reaches 12 digits at
        # z = 30.  Reference: 100 digits of simple residues, a moved by
        # 1e-30 to split the pole pair at u = -1 that coincides exactly
        alpha, n = 0.4, 3
        zs = [1.0, 10.0, 30.0, 60.0]
        with mpmath.workdps(100):
            shifted = mpmath.mpf(a) + mpmath.mpf(10) ** -30
            extra = mpmath.mpf(alpha) + 1
            want = mp_residue_sum([(0, 1), (extra + n, -1), (-shifted, theta)],
                                  [(n, 1), (extra, -1)], zs, 100, -100)
        for z, ref in zip(zs, want):
            value = g_tilde_n(a, alpha, theta, n, z)
            assert abs(value - ref) <= (1e-10 if z <= 30 else 1e-8) * abs(ref)

    @pytest.mark.parametrize("a", [0.9, 0.5, -0.1])
    def test_theta_collision_grid_merges_every_pair(self, a):
        # theta = 1.1 and a = m - 1.1k put a pole of Gamma(1.1u - a) on a
        # pole of Gamma(u) every tenth pole; the float locations of a pair
        # differ by rounding that grows with the pole's size, which the
        # merge tolerance must follow far out
        num, den = foxh._gtinf_factors(a, 0.9, 1.1)
        table = foxh._residue_table(tuple(num), tuple(den))
        table.entry(400)
        orders = [pole.order for pole in table.entries]
        assert min(orders) >= 0 and orders.count(2) >= 10
        for z in (0.5, 5.0, 30.0):
            value, route = mellin_barnes(num, den, z)
            assert route == "residue"
            assert value == pytest.approx(hankel_loop(num, den, z),
                                          rel=1e-10)

    def test_route_is_chosen_without_the_separation_scan(self, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("min_family_separation called")

        monkeypatch.setattr(foxh, "min_family_separation", scan)
        near = ([GammaFactor(0.0, 1.0), GammaFactor(1e-12, 1.0)], [])
        for (num, den), route in ((foxh._gtinf_factors(0.3, 0.9, 1.5),
                                   "residue"),
                                  (foxh._gtn_factors(0.5, 0.9, 1.5, 3),
                                   "residue"),
                                  (near, "hankel")):
            assert mellin_barnes(num, den, 1.3)[1] == route


class TestLogarithmicCase:
    def test_gamma_squared_is_bessel_k(self):
        # H^{2,0}_{0,2}(z | (0,1),(0,1)) = 2 K_0(2 sqrt z): double poles at
        # every -k; z = 10, 30 cancel deep enough for the mpmath re-sum
        spec = FoxHSpec(upper=(), lower=((0.0, 1.0), (0.0, 1.0)), m=2, n=0)
        num, den = spec.factors()
        for z in (0.05, 0.5, 1.0, 3.0, 10.0, 30.0):
            want = float(2 * mpmath.besselk(0, 2 * mpmath.sqrt(z)))
            assert fox_h(spec, z) == pytest.approx(want, rel=1e-12)
        table = foxh._residue_table(tuple(num), tuple(den))
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
            0.5, 0.9, 1.5)))
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


class TestCancelledPoles:
    """Zero terms (poles that Gamma(n + u) cancels) are no sign of
    convergence: at theta = 0.2 three or four of them lie between two
    poles of the Gamma(theta u - a) family."""

    # G~_2 at b = 0.5, alpha = 4, theta = 0.2: an mpmath quadrature of the
    # Mellin-Barnes integral along Re u = 4 and along Re u = 5.5 at 20
    # digits; the two lines agree to 20 digits
    SPARSE = {0.5: -3.2944250325939790964,
              0.9979919516614258: 0.24428576785842677276,
              1.5: 0.00068604783677899579664}

    @pytest.mark.parametrize("strategy", ["auto", "hankel"])
    def test_sparse_family_matches_contour_quadrature(self, strategy):
        # the series once stopped at the cancelled poles u = -2, -3, -4 and
        # gave -69.524 at z = 1.5, skipping the u = -7.5 term (~181)
        for z, want in self.SPARSE.items():
            got = g_tilde_n(0.5, 4.0, 0.2, 2, z, strategy)
            assert got == pytest.approx(want, rel=1e-12), z
        zs = np.array(list(self.SPARSE))
        assert g_tilde_n(0.5, 4.0, 0.2, 2, zs) == pytest.approx(
            list(self.SPARSE.values()), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 80])
    def test_g_n_series_ends_after_its_n_terms(self, n):
        # Gamma(u) is exhausted from u = -n on and no family is left, so
        # the series ends there instead of waiting for three small terms
        num, den = foxh._g_factors(0.3, 0.8, 1.5, n, False)
        assert foxh._residue_table(tuple(num), tuple(den)).length == n
        num, den = foxh._g_factors(0.3, 0.8, 1.5, n, True)
        assert foxh._residue_table(tuple(num), tuple(den)).length == math.inf

    @pytest.mark.parametrize("shift", [0.0, -1.0])
    def test_every_pole_cancelled_is_refused(self, shift):
        # Gamma(u) / Gamma(u + shift) has no uncancelled left pole; the
        # series once ran to its 2,000-term limit on zero terms
        with pytest.raises(DomainError, match="cancels every left pole"):
            residue_series([GammaFactor(0.0, 1.0)],
                           [GammaFactor(shift, 1.0)], 1.5)

    @pytest.mark.parametrize("kernel", ["k01", "k10"])
    def test_small_theta_tintegral_matches_direct(self, kernel):
        # k01 once gave 4.830 here by the t-integral, against 0.926
        p = EnsembleParams(-0.5, 0.5, 0.2, 2)
        fn = {"k01": k01, "k10": k10}[kernel]
        assert fn(p, 0.9, 0.99, route="tintegral") == pytest.approx(
            fn(p, 0.9, 0.99, route="direct"), rel=1e-10)


class TestDomainValidation:
    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            g_n(0.5, 0.9, 1.5, 4, -1.0)

    def test_tilde_requires_positive_argument(self):
        with pytest.raises(DomainError):
            g_tilde_inf(0.3, 0.9, 1.5, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("array", [False, True])
    @pytest.mark.parametrize("strategy", ["auto", "hankel"])
    def test_non_finite_argument_rejected(self, bad, array, strategy):
        # inf once gave 0 * inf in the term logs (a RuntimeWarning), nan
        # a 2,000-pole table or "integrand does not decay"
        z = np.array([1.0, bad]) if array else bad
        a, alpha, theta = 0.3, 0.9, 1.5
        spec = FoxHSpec(upper=(), lower=((0.0, 1.0),), m=1, n=0)
        for call in (lambda: g_n(a, alpha, theta, 3, z, strategy),
                     lambda: g_tilde_n(a, alpha, theta, 3, z, strategy),
                     lambda: g_inf(a, alpha, theta, z, strategy),
                     lambda: g_tilde_inf(a, alpha, theta, z, strategy),
                     lambda: fox_h(spec, z, strategy),
                     lambda: mellin_barnes(*spec.factors(), z, strategy)):
            with pytest.raises(DomainError, match="finite and positive"):
                call()
        if not array:
            with pytest.raises(DomainError, match="finite and positive"):
                hankel_loop(*spec.factors(), bad)

    def test_small_argument_stability(self):
        # the loop contour stays accurate deep into the origin region
        a, alpha, theta = 0.3, 0.9, 1.5
        for z in (1e-6, 1e-12, 1e-30):
            series = g_tilde_inf(a, alpha, theta, z, strategy="residue")
            contour = g_tilde_inf(a, alpha, theta, z, strategy="hankel")
            assert contour == pytest.approx(series, rel=1e-8)
