"""Tests for Mellin-Barnes evaluation and the kernel-building functions."""
import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cauchybures import foxh
from cauchybures.ensembles import EnsembleParams
from cauchybures.exceptions import (ComplexityError, DomainError,
                                    NonConverged, PoleCollisionError)
from cauchybures.foxh import (FoxHSpec, GammaFactor, fox_h, g_inf, g_n,
                              g_tilde_inf, g_tilde_n, min_family_separation,
                              residue_series)
from cauchybures.kernels import hard_edge_kernel, k01, k10
from cauchybures.numerics import ln_abs
from references import g_tilde_inf_meijer_g, hankel_loop, residue_sum


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
    """The residue series against the Hankel loop, a contour quadrature
    of the same integrand that no library route calls."""

    @pytest.mark.parametrize("theta", [math.sqrt(2.0), 1.5])
    def test_g_inf_residue_vs_hankel(self, theta):
        rng = np.random.default_rng(42)
        a, alpha = 0.5, 0.9
        factors = foxh._g_factors(a, alpha, theta, None, False)
        for z in rng.uniform(0.05, 8.0, size=20):
            series = g_inf(a, alpha, theta, float(z))
            contour = hankel_loop(*factors, float(z))
            assert contour == pytest.approx(series, rel=1e-8)

    @pytest.mark.parametrize("theta", [math.sqrt(2.0), 1.5])
    def test_g_tilde_inf_residue_vs_hankel(self, theta):
        rng = np.random.default_rng(43)
        a, alpha = 0.3, 0.9
        factors = foxh._gtinf_factors(a, alpha, theta)
        for z in rng.uniform(0.05, 8.0, size=20):
            series = g_tilde_inf(a, alpha, theta, float(z))
            contour = hankel_loop(*factors, float(z))
            assert contour == pytest.approx(series, rel=1e-8)

    def test_g_n_polynomial_vs_contour(self):
        a, alpha, theta, n = 0.5, 0.9, 1.5, 6
        factors = foxh._g_factors(a, alpha, theta, n, False)
        for z in (0.2, 1.0, 3.7):
            contour = hankel_loop(*factors, z)
            assert contour == pytest.approx(g_n(a, alpha, theta, n, z),
                                            rel=1e-10)

    def test_g_tilde_n_residue_vs_contour(self):
        a, alpha, theta, n = 0.3, 0.9, 1.5, 5
        factors = foxh._gtn_factors(a, alpha, theta, n)
        for z in (0.2, 1.0, 3.7):
            got = g_tilde_n(a, alpha, theta, n, z)
            ref = hankel_loop(*factors, z)
            assert ref == pytest.approx(got, rel=1e-9)

    def test_fox_h_hankel_route_equals_exp(self):
        spec = FoxHSpec(upper=(), lower=((0.0, 1.0),), m=1, n=0)
        for z in (0.5, 1.0, 2.0):
            got = hankel_loop(*spec.factors(), z)
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

    @staticmethod
    def _constant_term(a, alpha, n):
        # 1 / (Gamma(alpha + 1) Gamma(a + 1)), times Gamma(alpha + n + 1) /
        # Gamma(n) for finite n, at 40 digits
        with mpmath.workdps(40):
            a, alpha = mpmath.mpf(a), mpmath.mpf(alpha)
            c = mpmath.rgamma(alpha + 1) * mpmath.rgamma(a + 1)
            if n is not None:
                c *= mpmath.gamma(alpha + n + 1) / mpmath.gamma(n)
            return float(c)

    @pytest.mark.parametrize("a,alpha,theta,n,want", [
        (0.5, 0.2, 1.5, 3, 4.766273601811445),
        (0.3, 0.9, 2.0, 10, 99.86397958742555),
        (0.5, 0.2, 1.5, None, 1.2289453070971879)])
    def test_constant_terms_are_correctly_rounded(self, a, alpha, theta, n,
                                                  want):
        # the residue table's first coefficient, exact; the lgamma sum over
        # the same factors read 4.766273601811448, 99.86397958742582 and
        # 1.2289453070971883, 3 to 19 ulps off
        got = (g_inf(a, alpha, theta, 0.0) if n is None
               else g_n(a, alpha, theta, n, 0.0))
        assert got == want == self._constant_term(a, alpha, n)

    @pytest.mark.parametrize("n", [1, 3, None])
    @pytest.mark.parametrize("a,alpha", [
        (0.0, -1 + 1e-12), (-1 + 1e-12, 0.5),
        (0.0, -1 + 1e-15), (-1 + 1e-15, 0.5)])
    def test_constant_term_beside_a_denominator_pole(self, a, alpha, n):
        # 1/Gamma(alpha + 1 - u) or 1/Gamma(a + 1 - u) has a pole 1e-12 or
        # 1e-15 from u = 0, which the float table merges with Gamma(u)'s
        # into one cancelled entry, trusted below 1e-14; the exact entry
        # splits them.  The table's float entry alone read 0.0 here, its
        # series at 5e-324 0.0 or -3e-323 at 1e-15
        got = (g_inf(a, alpha, 1.0, 0.0) if n is None
               else g_n(a, alpha, 1.0, n, 0.0))
        assert got == self._constant_term(a, alpha, n)

    def test_constant_term_past_double_range_is_typed(self):
        # Gamma(alpha + n + 1) / (Gamma(n) Gamma(alpha + 1)) ~ e^2772 here
        with pytest.raises(ComplexityError, match="overflows a double"):
            g_n(0.0, 2000.0, 1.0, 2000, 0.0)

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_n_must_be_a_positive_integer(self, n):
        # n = True once returned G_1
        for fn in (g_n, g_tilde_n):
            with pytest.raises(DomainError, match="n must be a positive "
                                                  f"integer, got {n!r}"):
                fn(0.5, 0.5, 1.5, n, 0.7)


@pytest.fixture
def resummed(monkeypatch):
    """The z each call sends to the exact re-sum, cleared by the caller."""
    seen = []
    resum = foxh._ResidueTable.resum

    def counted(table, z, *rest):
        seen.append(z)
        return resum(table, z, *rest)

    monkeypatch.setattr(foxh._ResidueTable, "resum", counted)
    return seen


# z ascending; 3000 is one of the cases that went wrong
LARGE_ZS = sorted(float(z) for z in [*np.geomspace(1.0, 1e4, 13), 3000.0])
# (a, alpha) per theta; a = 0.37 keeps both families of G~ apart
HARD_EDGE_CASES = {False: {0.3: (0.3, 0.5), 0.5: (0.5, 1.2), 1.0: (0.3, 0.5)},
                   True: {t: (0.37, 1.2) for t in (0.3, 0.5, 1.0)}}


# G_inf (G~_inf with tilde) at LARGE_ZS per (tilde, theta) of
# HARD_EDGE_CASES: references.residue_sum at 210 digits, each within 1e-130
# of the same sum at 250 digits, rounded to doubles; printed by
#   PYTHONPATH=src:tests python -c "from cauchybures import foxh;
#   from references import residue_sum; from test_foxh import
#   HARD_EDGE_CASES as C, LARGE_ZS as Z; print({(t, th): [float(v) for v in
#   residue_sum(*foxh._g_factors(a, al, th, None, t), Z, 210)] for t in C
#   for th, (a, al) in C[t].items()})"
HARD_EDGE_REFERENCE = {
    (False, 0.3): [
        0.5593943264639277, 0.05164065362474262, -0.33681599534610734,
        0.03319925889096495, 0.0660997342589391, 0.20265826344052393,
        -0.1195569994941222, 1.67820166090895, -4.652288684864366,
        106.34160851968738, -4204.771302486642, 3714.342354520641,
        1062940.7910110224, -2623586705.5998297],
    (False, 0.5): [
        0.6575792881565972, 0.33634367143184785, -0.07019591567093914,
        -0.18785916193463606, 0.19737694422100738, -0.26475430308356046,
        0.124898893577269, 0.5753956050634881, -11.050261718631745,
        -121.91050887738461, 6494.661131595145, 83514.82880711833,
        2088748.4382726657, 2973377320.807707],
    (False, 1.0): [
        0.6669939814117994, 0.11268805550043343, -0.679931616981668,
        -1.0065046363920502, 1.1026070630853877, 1.631739940716515,
        -9.086534503015974, 25.90710985595545, 415.71497427686484,
        4822.023219376812, 462289.85927149776, -1945939.0755905332,
        -70004598.12451696, -61721080746.46419],
    (True, 0.3): [
        0.6906716907774576, -0.30965071949966666, -0.1573201153894085,
        0.03263794558266949, -0.004569498448540836, 0.0018296328290117385,
        0.00011617470438327518, 2.067439556742243e-05, 1.0594858740535762e-07,
        9.345275996035688e-09, -9.668130622055537e-11, -3.1961943362593915e-12,
        3.7188257268264497e-14, -1.9951884484795357e-18],
    (True, 0.5): [
        0.5235159667865847, -0.04126049663626041, -0.06843070801000053,
        0.002087696614001619, 0.0018610454755433326, -0.00019297098371355163,
        -4.55499693461819e-05, -2.573294254650481e-06, -8.783272004532522e-09,
        -9.822205023232442e-10, 2.970716474803066e-12, -8.917215809788474e-14,
        -1.1300265058087613e-15, 5.587986666541087e-20],
    (True, 1.0): [
        0.2940778121114126, 0.061744500914701746, -0.0067275389483691,
        -0.006737201045811864, -6.9376378624949e-05, 0.00018226682453336467,
        -2.1768760514228774e-05, 1.357797485505076e-06, 1.1896762259928669e-08,
        -1.9865995076589387e-10, 5.531817301756357e-12, -4.732953032282389e-13,
        -1.132405898050455e-14, -4.003924809419577e-18],
}


def hard_edge_reference(a, alpha, theta, tilde):
    """The frozen G_inf (G~_inf with tilde) at LARGE_ZS, keyed by z."""
    assert HARD_EDGE_CASES[tilde][theta] == (a, alpha)
    return dict(zip(LARGE_ZS, HARD_EDGE_REFERENCE[tilde, theta]))


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

    def test_overflowing_float_total_builds_each_coefficient_once(
            self, monkeypatch):
        # the float total loses 11.6 digits against a noise floor of 11.8
        # (1e-16 of log_c and u0 log z each), so the re-sum starts at the
        # largest term's 346 digits, capped at 308, plus 20 and builds the
        # 2,000 coefficients once before it refuses, not at 48, 96, 192
        # and 384
        built = []
        build = foxh._exact_coefficient

        def counted(*args):
            built.append(mpmath.mp.dps)
            return build(*args)

        monkeypatch.setattr(foxh, "_exact_coefficient", counted)
        foxh._residue_table.cache_clear()
        with pytest.raises(NonConverged, match="after 2000 terms"):
            residue_series([GammaFactor(0.0, 1.0)], [], 800.0)
        assert len(built) == 2000 and len(set(built)) == 1

    def test_term_limit_raises_non_converged(self):
        # e^{-z} at z = 900 cancels to e^{-900} from terms up to e^{900}:
        # its exact sum would need about 2,500 terms, past the limit
        with pytest.raises(NonConverged, match="^residue series not "
                           "converged after 2000 terms$"):
            residue_series([GammaFactor(0, 1.0)], (), 900.0)

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


class TestHardEdgeAgainstMeijerG:
    """G~_inf against values the library did not make: 30 digits of
    g_tilde_inf_meijer_g, confirmed at 40."""

    ZS = (0.05, 0.5, 1.0, 3.0, 12.0)
    # (a, alpha, p, q) -> values at ZS; a = 0.5, theta = 1.5 has colliding
    # families (double poles), a = 0.7, theta = 1.3 poles 3.4e-16 apart
    VALUES = {
        (0.3, 0.9, 3, 2): ("2.06843597680346798944469663330",
                           "0.433561889519513395712049810800",
                           "0.207641828143318478077232315248",
                           "0.0339088718171933330675148591880",
                           "-0.00421090492445862864592321318297"),
        (0.5, 0.9, 3, 2): ("2.59664285043077838199029695068",
                           "0.430549869264221535657883587211",
                           "0.189282234761438191339871902659",
                           "0.0243592131271298536486727630284",
                           "-0.00396652785631154398836028779335"),
        (0.7, 0.4, 13, 10): ("3.11399983521139120338585856192",
                             "0.168203938062526016061876944665",
                             "0.00124289853753647148075078799789",
                             "-0.0357895399485781296595884541286",
                             "-0.00206750292756458487002557182916"),
        (0.2, 0.5, 1, 1): ("3.01144268150245654758687036519",
                           "0.397406539286950980566076153738",
                           "0.0903199278236983440406253433128",
                           "-0.0496783867345757746374114776950",
                           "-0.00127715220853705955118113561547"),
    }

    @pytest.mark.parametrize("case", sorted(VALUES))
    def test_g_tilde_inf_matches_meijer_g(self, case):
        a, alpha, p, q = case
        got = g_tilde_inf(a, alpha, p / q, np.array(self.ZS))
        for z, value, want in zip(self.ZS, got, self.VALUES[case]):
            want = float(want)
            assert abs(value - want) <= 1e-13 * abs(want), z

    def test_values_are_the_meijer_g_form(self):
        # the formula itself, at one cheap case (theta = 1)
        with mpmath.workdps(30):
            got = g_tilde_inf_meijer_g(0.2, 0.5, 1, 1, 3.0)
            want = mpmath.mpf(self.VALUES[(0.2, 0.5, 1, 1)][3])
            assert abs(got - want) <= mpmath.mpf(10) ** -28 * abs(want)


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
            value = foxh._g(a, alpha, theta, n, True, float(z))
            if resummed:
                got[float(z)] = value
        assert len(got) >= 10
        want = residue_sum(num, den, list(got), 50)
        for (z, value), ref in zip(got.items(), want):
            assert abs(value - ref) <= 2.5e-16 * abs(ref), z

    # the re-sum's values, each the double nearest its reference
    SPLIT = {5.0: -0.008945293563978603, 20.0: -0.0007885802890076414,
             45.0: 0.00019786694755942642}
    DOUBLE = {2.0: -0.01119153521703792, 7.0: 0.0004650862355528122,
              20.0: -5.474357750089102e-06, 45.0: -1.342549161147174e-07}
    # SPLIT's integrand further out, where the parts of the pair at u = -11
    # cancel by up to 29 digits; its references agree with the same at 200
    SPLIT_FAR = {100.0: -8.202626372968159e-07,
                 300.0: 4.854918977241915e-07,
                 1000.0: 1.7314098504568807e-09}

    @pytest.mark.parametrize("case", ["split", "double", "split_far"])
    def test_split_and_double_poles_keep_their_values(self, case, resummed):
        # split: a = 0.7, theta = 1.3 put the poles of Gamma(u) and
        # Gamma(1.3u - 0.7) at u = -11 3.4e-16 apart, one pole in floats and
        # two in the re-sum.  double: a = 0.5, theta = 1.5, n = 3 make u = -1
        # a double pole.  Reference: simple residues of the factors at their
        # exact shifts (alpha + 1 = Fraction(0.9) + 1, not the float 1.9),
        # a moved by 1e-30 (1e-25) to split the pairs that coincide exactly
        if case == "double":
            a, alpha, theta, n, dps, move = 0.5, 0.9, 1.5, 3, 80, 25
            values = self.DOUBLE
        else:
            a, alpha, theta, n, move = 0.7, 0.9, 1.3, None, 30
            dps, values = ((100, self.SPLIT) if case == "split"
                           else (150, self.SPLIT_FAR))
        num, den = foxh._g_factors(a, alpha, theta, n, True)
        with mpmath.workdps(dps):
            exact = [(mpmath.mpf(f.shift.numerator) / f.shift.denominator,
                      f.slope)
                     for f in num + den]
            exact[len(num) - 1] = (mpmath.mpf(-a) - mpmath.mpf(10) ** -move,
                                   theta)
            want = mp_residue_sum(exact[:len(num)], exact[len(num):],
                                  list(values), dps, -100)
        for (z, value), ref in zip(values.items(), want):
            resummed.clear()
            assert foxh._g(a, alpha, theta, n, True, z) == value
            assert resummed == [z]
            assert abs(value - ref) <= 2.5e-16 * abs(ref), z

    def test_split_pole_cancellation_is_measured(self, monkeypatch):
        # the parts of SPLIT_FAR's pair are terms of their own families'
        # chains, and their own sizes, not the float term logs, set the
        # loss that mp_sum sees first: 28.9 digits at z = 1000, where the
        # float terms show 16
        losses, mp_sum = [], foxh.mp_sum

        def spy(sum_at, dps):
            first = []

            def sum_once():
                total, log_peak = sum_at()
                first.append((log_peak - ln_abs(total)) / math.log(10.0))
                return total, log_peak

            total = mp_sum(sum_once, dps)
            losses.append(first[0])
            return total

        monkeypatch.setattr(foxh, "mp_sum", spy)
        foxh._residue_table.cache_clear()
        assert g_tilde_inf(0.7, 0.9, 1.3, 1000.0) == self.SPLIT_FAR[1000.0]
        assert len(losses) == 1 and losses[0] >= 25

    @pytest.mark.parametrize("call,want", [
        (functools.partial(g_tilde_inf, 0.7, 0.9, 1.3, 100.0),
         SPLIT_FAR[100.0]),
        (functools.partial(g_tilde_inf, 0.7, 0.9, 1.3, 1000.0),
         SPLIT_FAR[1000.0]),
        (functools.partial(hard_edge_kernel, 0.7, 0.5, 1.3, "K01", 10, 12),
         0.01067347034219872)], ids=["z100", "z1000", "hard_k01"])
    def test_split_entry_resums_in_one_pass(self, monkeypatch, call, want):
        # the first pass's digits count the 15.5 that SPLIT's pair, 3.4e-16
        # apart, cancels; a hint of the float loss alone ran two passes
        passes, mp_sum = [], foxh.mp_sum
        monkeypatch.setattr(foxh, "mp_sum", lambda sum_at, dps: mp_sum(
            lambda: passes.append(mpmath.mp.dps) or sum_at(), dps))
        foxh._residue_table.cache_clear()
        assert call() == want
        assert len(passes) == 1

    # the G~ of the t-integrals at (a, b, theta) = (0.3, 0.7, 1.5): G~_6 of
    # k10 at N = 6 over its nodes' range of z, and G~_inf of either side of
    # the hard-edge kernels; every z loses 2.2 to 5.6 digits and re-sums
    FROZEN = {
        "g_tilde_6": (foxh._gtn_factors(
            0.3, EnsembleParams(0.3, 0.7, 1.5, 6).alpha, 1.5, 6),
            np.geomspace(0.035, 1.1, 10)),
        "g_tilde_inf_a": (foxh._gtinf_factors(0.3, 2.0 / 1.5 - 1.0, 1.5),
                          np.geomspace(1.5, 30.0, 8)),
        "g_tilde_inf_b": (foxh._gtinf_factors(0.7, 2.0 / 1.5 - 1.0, 1.5),
                          np.geomspace(1.5, 30.0, 8)),
    }
    # references.residue_sum of FROZEN at 60 digits, each within 1e-54 of
    # the same sum at 80, rounded to doubles; printed by
    #   PYTHONPATH=src:tests python -c "from references import residue_sum;
    #   from test_foxh import TestIntegerResum as T; print({c: [float(v)
    #   for v in residue_sum(*f, list(zs), 60)] for c, (f, zs) in
    #   T.FROZEN.items()})"
    FROZEN_REFERENCE = {
        "g_tilde_6": [
            0.34821623573281885, -0.02470821017576592, -0.19889831922236786,
            -0.23669461837978453, -0.19651580272035285, -0.12693689258070606,
            -0.06178221204135672, -0.018026770751346646,
            0.002281093932214923, 0.006399936641411155],
        "g_tilde_inf_a": [
            0.019092452823723384, -0.010105920847347563,
            -0.020379921917990523, -0.01915047946686985,
            -0.012868718165051446, -0.0062189335674908705,
            -0.0016798864142101642, 0.0003098586304727771],
        "g_tilde_inf_b": [
            -0.015792065838084856, -0.026708173127752585,
            -0.024532103209640974, -0.016931841648760895,
            -0.008981336059472596, -0.003265269681338679,
            -0.0003338242331217543, 0.000524547945043759],
    }

    @pytest.mark.parametrize("case", sorted(FROZEN))
    def test_resummed_values_are_frozen(self, case, resummed):
        # one call on the array re-sums every z; each value is within an
        # ulp of its reference, and calls one z at a time on a cold table
        # return the same doubles bit for bit
        (num, den), zs = self.FROZEN[case]
        foxh._residue_table.cache_clear()
        got = residue_series(num, den, zs)
        assert resummed == list(zs)
        for z, value, want in zip(zs, got, self.FROZEN_REFERENCE[case]):
            assert abs(value - want) <= math.ulp(want), z
        foxh._residue_table.cache_clear()
        assert [residue_series(num, den, float(z)) for z in zs] == list(got)

    def test_ratio_pairs_call_no_gamma_at_n_40(self, monkeypatch, resummed):
        # G~_40 at (a, theta) = (0.3, 1.5): at a pole of Gamma(theta*u - a)
        # the other gammas pair as Gamma(u)/Gamma(40 + u) and
        # Gamma(alpha + 41 - u)/Gamma(alpha + 1 - u), 40 linear factors
        # each, so no coefficient of that family calls mpmath's gamma
        calls, builds = [], []
        for name in ("gamma", "rgamma"):
            def spy(x, real=getattr(mpmath, name)):
                calls.append(x)
                return real(x)
            monkeypatch.setattr(mpmath, name, spy)
        build = foxh._exact_coefficient

        def counted(table, i, bits):
            before = len(calls)
            coeff = build(table, i, bits)
            builds.append((table.entries[i].sing_num[0][0],
                           len(calls) - before))
            return coeff

        monkeypatch.setattr(foxh, "_exact_coefficient", counted)
        num, den = foxh._gtn_factors(
            0.3, EnsembleParams(0.3, 0.7, 1.5, 40).alpha, 1.5, 40)
        zs = np.geomspace(0.05, 3.0, 12)
        foxh._residue_table.cache_clear()
        got = residue_series(num, den, zs)
        assert resummed == list(zs)
        theta_family = [n for j, n in builds if num[j].slope == 1.5]
        assert len(theta_family) >= 40 and not any(theta_family)
        monkeypatch.undo()
        want = residue_sum(num, den, list(zs), 50)
        for z, value, ref in zip(zs, got, want):
            assert abs(value - ref) <= 2.5e-16 * abs(ref), z


class TestExactShifts:
    """Each GammaFactor holds one exact shift; the float series reads its
    nearest double."""

    @pytest.mark.parametrize("tilde", [False, True])
    def test_g_factors_pass_each_exact_sum_once(self, tilde):
        # alpha + n + 1, alpha + 1 and a + 1 as the floats define them: the
        # double 0.4 + 4.0 lies 3.3e-16 above Fraction(0.4) + 4
        a, alpha, theta, n = 0.7, 0.4, 1.3, 4
        num, den = foxh._g_factors(a, alpha, theta, n, tilde)
        assert [f.shift for f in num] == [0, Fraction(alpha) + n + 1,
                                          *[-Fraction(a)] * tilde]
        assert [f.shift for f in den] == [n, Fraction(alpha) + 1,
                                          *[Fraction(a) + 1] * (not tilde)]
        assert num[1].shift != Fraction(alpha + n + 1.0)
        for f in num + den:
            assert type(f.shift) is Fraction
            assert f.near == float(f.shift)
            assert not hasattr(f, "exact") and not hasattr(f, "exact_shift")

    def test_fox_h_spec_forms_one_minus_a_exactly(self):
        # the double 1.0 - 0.1 is 0.9, 2.8e-17 above 1 - Fraction(0.1)
        spec = FoxHSpec(upper=((0.1, 1.0), (0.3, 2.0)),
                        lower=((0.7, 1.0), (0.2, 0.5)), m=1, n=1)
        num, den = spec.factors()
        assert [f.shift for f in num] == [Fraction(0.7), 1 - Fraction(0.1)]
        assert [f.shift for f in den] == [1 - Fraction(0.2), Fraction(0.3)]
        assert num[1].shift != Fraction(1.0 - 0.1)
        assert [f.slope for f in num + den] == [1.0, -1.0, -0.5, 2.0]

    def test_equality_and_hash_read_the_exact_shift(self):
        # two shifts that round to one double are two factors, and the
        # double is no constructor argument
        exact, rounded = (GammaFactor(s, -1.0)
                          for s in (Fraction(0.4) + 4, 0.4 + 4.0))
        assert exact.near == rounded.near and exact != rounded
        assert GammaFactor(0.5, 1.0) == GammaFactor(Fraction(1, 2), 1.0)
        assert len({GammaFactor(0.5, 1.0), GammaFactor(Fraction(1, 2), 1.0),
                    exact, rounded}) == 3
        with pytest.raises(TypeError):
            GammaFactor(0.5, 1.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spec_shift_is_a_domain_error(self, bad):
        with pytest.raises(DomainError, match="finite"):
            FoxHSpec(upper=(), lower=((bad, 1.0),), m=1, n=0)

    @pytest.mark.parametrize("shift,slope", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, -math.inf)])
    def test_non_finite_gamma_factor_is_a_domain_error(self, shift, slope):
        # a nan or inf shift once raised Fraction's bare ValueError or
        # OverflowError
        with pytest.raises(DomainError, match="must be finite"):
            GammaFactor(shift, slope)

    def test_infinite_spec_slope_is_a_domain_error(self):
        # once accepted; fox_h then raised a bare OverflowError
        with pytest.raises(DomainError, match="finite and positive"):
            FoxHSpec([], [[0.0, math.inf]], 1, 0)

    def test_log_gamma_past_double_range_is_typed(self):
        # 1/Gamma(0.5 + 1e308) at the pole u = -1 once raised math.lgamma's
        # bare OverflowError; the table, cached, raises it again
        spec = FoxHSpec([], [[0.0, 1.0], [0.5, 1e308]], 1, 0)
        for _ in range(2):
            with pytest.raises(ComplexityError, match="log Gamma"):
                fox_h(spec, 0.7)

    def test_spec_checks_its_own_fields(self):
        # each once passed __post_init__ as a wrong index, or raised a bare
        # TypeError, ValueError or OverflowError, in fox_h or in the check
        # itself; a string is no number and no pair, even where float()
        # reads it
        for fields, message in [
                ({"m": 1.0}, "field 'm' must be an integer, got 1.0"),
                ({"m": True}, "field 'm' must be an integer, got True"),
                ({"lower": ((0.0, 1.0, 2.0),)},
                 "field 'lower' must be a list of [shift, slope] pairs"),
                ({"lower": (("0", 1.0),)},
                 "field 'lower' must be a list of [shift, slope] pairs"),
                ({"lower": ("01",)},
                 "field 'lower' must be a list of [shift, slope] pairs"),
                ({"lower": ((10 ** 400, 1.0),)},  # no double: OverflowError
                 "field 'lower' must be a list of [shift, slope] pairs"),
                ({"m": 2}, "m out of range: 2"),
                ({"m": -1}, "m out of range: -1"),
                ({"n": 1}, "n out of range: 1")]:
            spec = {"upper": (), "lower": ((0.0, 1.0),), "m": 1, "n": 0}
            with pytest.raises(DomainError) as err:
                FoxHSpec(**{**spec, **fields})
            assert str(err.value) == message
        spec = FoxHSpec(upper=[], lower=[[0, 1]], m=1, n=0)
        assert spec.lower == ((0.0, 1.0),) and type(spec.lower[0][0]) is float
        assert fox_h(spec, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)


class TestArrayArguments:
    """One call on an array of z equals the same calls one z at a time."""

    CASES = {
        # families {-k} and {(a-m)/theta} 0.13 or more apart
        "separated": foxh._gtinf_factors(0.3, 0.9, 1.5),
        # a = 0.5, theta = 1.5: every other pole of Gamma(1.5u - 0.5) is
        # double with Gamma(u)
        "colliding": foxh._gtn_factors(0.5, 0.9, 1.5, 3),
        "g_inf": foxh._g_factors(0.4, 1.2, 1.0, None, False),
        # a = 0.7, theta = 1.3: the poles at u = -11 lie 3.4e-16 apart
        "split": foxh._gtinf_factors(0.7, 0.9, 1.3),
    }
    # the largest z lose more than two digits to cancellation, which sends
    # them to the mpmath re-sum, each at its own precision
    ZS = np.concatenate([np.geomspace(1e-4, 100.0, 31),
                         [7.0, 7.0, 5.0, 20.0, 45.0, 1000.0]])

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
            assert value == one, z
        grid = residue_series(num, den, self.ZS[:30].reshape(5, 6))
        assert np.array_equal(grid, got[:30].reshape(5, 6))

    # the public Mellin-Barnes integrals of CASES
    PUBLIC = {"separated": functools.partial(g_tilde_inf, 0.3, 0.9, 1.5),
              "colliding": functools.partial(g_tilde_n, 0.5, 0.9, 1.5, 3),
              "g_inf": functools.partial(g_inf, 0.4, 1.2, 1.0),
              "split": functools.partial(g_tilde_inf, 0.7, 0.9, 1.3)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mellin_barnes_array_equals_scalar_calls(self, case):
        fn = self.PUBLIC[case]
        values = fn(self.ZS)
        assert values.shape == self.ZS.shape
        for z, value in zip(self.ZS, values):
            one = fn(float(z))
            assert type(one) is float
            assert value == one, z

    def test_array_with_a_nonpositive_z_rejected(self):
        num, den = self.CASES["separated"]
        with pytest.raises(DomainError):
            residue_series(num, den, np.array([1.0, 0.0]))


class TestOneFloatStopRule:
    """Both residue sums end their float pass by one rule,
    _ResidueTable.summed: through the third nonzero term past the last
    whose mass is 1e-17 of the total or more, or at the table's end."""

    E = ([GammaFactor(0, 1.0)], ())  # e^{-z}

    def test_series_and_integral_call_it(self, monkeypatch):
        calls, summed = [], foxh._ResidueTable.summed

        def spy(table, *args):
            end = summed(table, *args)
            calls.append(end)
            return end

        monkeypatch.setattr(foxh._ResidueTable, "summed", spy)
        assert residue_series(*self.E, 2.0) == pytest.approx(
            math.exp(-2.0), rel=1e-15)
        assert calls and calls[-1]
        calls.clear()
        # int_0^1 e^{-2t} e^{-t} dt = (1 - e^{-3}) / 3, one call per side
        assert foxh.residue_integral(1, (*self.E, 2.0), (
            *self.E, 1.0)) == pytest.approx(-math.expm1(-3.0) / 3.0,
                                            rel=1e-15)
        assert len(calls) >= 2 and all(calls[-2:])

    def test_entries_summed(self):
        table = foxh._residue_table(*map(tuple, self.E))
        i = np.arange(6)
        mass = np.array([1.0, 0.5, 1e-16, 1e-18, 1e-18, 1e-18])
        # the last term of mass 1e-17 or more is entry 2; entry 5 is the
        # third past it
        assert table.summed(6, i, mass, 1.0) == 6
        assert table.summed(5, i[:5], mass[:5], 1.0) is None
        # on a total of 100, entry 2 lies below 1e-17 of it too
        assert table.summed(6, i, mass, 100.0) == 5
        # no nonzero term: the window grows until the table ends
        assert table.summed(32, i[:0], mass[:0], 0.0) is None
        g3 = foxh._residue_table(*foxh._g_factors(0.3, 0.5, 1.5, 3, False))
        assert g3.length == 3
        assert g3.summed(3, i[:0], mass[:0], 0.0) == 3


class TestPoleCollisions:
    def test_integer_offset_families_collide(self):
        # theta = 1 with integer a puts both pole families on the same grid;
        # each coinciding pair is one double pole of the residue series
        a, alpha, theta = 1.0, 0.9, 1.0
        num = [GammaFactor(0.0, 1.0), GammaFactor(alpha + 1.0, -1.0),
               GammaFactor(-a, theta)]
        assert min_family_separation(num, []) == math.inf
        value = residue_series(num, [], 1.0)
        assert value == pytest.approx(hankel_loop(num, [], 1.0), rel=1e-10)

    def test_near_coinciding_families_match_the_loop(self):
        # exactly coinciding families: the series matches the loop
        val = g_tilde_inf(1.0, 0.9, 1.0, 1.3)
        ref = hankel_loop(*foxh._gtinf_factors(1.0, 0.9, 1.0), 1.3)
        assert val == pytest.approx(ref, rel=1e-10)
        # families 5e-8 apart are two simple poles of the series; the
        # mpmath re-sum absorbs their 1/gap cancellation
        num, den = foxh._gtinf_factors(1.0 + 5e-8, 0.9, 1.0)
        value = residue_series(num, den, 0.3)
        assert value == pytest.approx(hankel_loop(num, den, 0.3), rel=1e-12)
        # 5e-12 apart: one double pole of the float table, split into its
        # two simple poles by the exact re-sum
        num, den = foxh._gtinf_factors(1.0 + 5e-12, 0.9, 1.0)
        near = g_tilde_inf(1.0 + 5e-12, 0.9, 1.0, 0.3)
        assert near == pytest.approx(hankel_loop(num, den, 0.3), rel=1e-10)
        want = residue_sum(num, den, [0.3], 80)[0]
        assert abs(near - want) <= 1e-14 * abs(want)

    def test_separation_reports_distance(self):
        num = [GammaFactor(0.0, 1.0), GammaFactor(-0.5, 1.0)]
        assert min_family_separation(num, []) == pytest.approx(0.5)

    @pytest.mark.parametrize("delta", [0.0, 1e-7, 1e-12])
    def test_collisions_of_every_kind_are_summed(self, delta):
        # Gamma(u) Gamma(u + delta) z^{-u} = 2 z^{delta/2} K_delta(2 sqrt z):
        # coinciding families are a double pole, pairs 1e-7 apart two
        # simple poles, and pairs 1e-12 apart one double pole of the float
        # table that the exact re-sum splits
        num = [GammaFactor(0.0, 1.0), GammaFactor(delta, 1.0)]
        with mpmath.workdps(40):
            z = mpmath.mpf(1.3)
            want = 2 * z ** (delta / 2) * mpmath.besselk(delta,
                                                         2 * mpmath.sqrt(z))
        value = residue_series(num, [], 1.3)
        assert abs(value - want) <= 1e-14 * want
        assert value == pytest.approx(hankel_loop(num, [], 1.3), rel=1e-10)

    @pytest.mark.parametrize("delta", [1e-12, 3e-15])
    def test_three_merged_numerators_match_meijer_g(self, delta):
        # Gamma(u) Gamma(u + delta) Gamma(u + 2 delta) z^{-u}: one triple
        # pole of the float table, three simple poles of the exact re-sum,
        # each of whose coefficients holds the two other gammas within
        # delta of a pole.  Reference: mpmath.meijerg at 80 digits, within
        # 6e-82 of the same at 120
        num = [GammaFactor(0.0, 1.0), GammaFactor(delta, 1.0),
               GammaFactor(2 * delta, 1.0)]
        for z in (0.3, 1.3, 8.0):
            with mpmath.workdps(80):
                want = mpmath.meijerg([[], []], [[0, delta, 2 * delta], []],
                                      z)
            assert abs(residue_series(num, [], z) - want) <= 1e-14 * want, z

    def test_three_merged_families_of_different_slopes(self, resummed):
        # Gamma(u) Gamma(1.3u - 0.7) Gamma(2u + 22 + 1e-12) z^{-u}: at
        # u = -11 the three poles lie 3.4e-16 and 5e-13 apart, one triple
        # pole of the float table, three simple poles of the exact re-sum,
        # whose coefficients each hold the two other gammas near a pole.
        # Those gammas are taken at exact arguments reduced off their poles,
        # so the parts need no digits past the working precision (a gamma
        # at an argument rounded there, with no digits added, leaves z = 100
        # 1.2e-7 off).  Reference: simple residues at 120 digits, a moved by
        # 1e-40 to split the pair at u = -1 that coincides exactly (within
        # 3e-40 of the same at 160)
        num = [GammaFactor(0.0, 1.0), GammaFactor(-0.7, 1.3),
               GammaFactor(22 + 1e-12, 2.0)]
        moved = [num[0], GammaFactor(-Fraction(0.7) - Fraction(1, 10 ** 40),
                                     1.3), num[2]]
        zs = [100.0, 200.0, 1000.0]
        want = residue_sum(moved, [], zs, 120)
        for z, ref in zip(zs, want):
            resummed.clear()
            value = residue_series(num, [], z)
            assert resummed == [z]
            assert abs(value - ref) <= 1e-14 * abs(ref), z

    # (lower, upper, {z: G^{m,0}_{p,m}(z)}), m = len(lower), by
    # mpmath.meijerg at 120 digits, each within 1e-121 of the same at 160.
    # near_zero: Gamma(u)^2 / Gamma(u + delta), a zero of 1/Gamma delta
    # beside each double pole; near_pole: Gamma(u)^2 Gamma(u + delta), a
    # simple pole delta beside each double pole, whose coefficient holds
    # the digamma of Gamma(u + delta) there
    NEAR_POLES = {
        "near_zero": [
            ((0, 0), (1e-6,), {0.5: "0.6065310801270277708263",
                               3.0: "0.04978701367119428266789",
                               30.0: "9.357591141771252569588e-14"}),
            ((0, 0), (1e-9,), {0.5: "0.6065306601330484396844",
                               3.0: "0.04978706831316725786911",
                               30.0: "9.357622937013051918533e-14"})],
        "near_pole": [
            ((0, 0, 1e-15), (), {100.0: "6.846405092429222581363e-7",
                                 1000.0: "3.357669316706931478643e-14"}),
            ((0, 0, 3e-13), (), {100.0: "6.846405092432364957804e-7",
                                 1000.0: "3.357669316709243143119e-14"})],
    }

    @pytest.mark.parametrize("case", sorted(NEAR_POLES))
    def test_gammas_beside_a_pole_match_meijer_g(self, case):
        # a gamma within 1e-4 of a pole of its own sends its float term to
        # the exact re-sum, which takes it at an exact argument reduced off
        # the pole; the float sum, which rounds that argument, is 8.2e-13
        # off at delta = 1e-6, z = 3
        for lower, upper, values in self.NEAR_POLES[case]:
            spec = FoxHSpec(upper=tuple((a, 1.0) for a in upper),
                            lower=tuple((b, 1.0) for b in lower),
                            m=len(lower), n=0)
            for z, want in values.items():
                want = float(want)
                assert abs(fox_h(spec, z) - want) <= 1e-14 * want, z

    def test_exact_gammas_take_positive_arguments(self, monkeypatch,
                                                  resummed):
        # every chain of the exact re-sum starts at mpmath.gamma or rgamma
        # of its argument moved right of 0 by whole steps, whose linear
        # factors are exact: on the split pole of G~_inf(0.7, 0.9, 1.3) and
        # on three merged families of different slopes, whose chains start
        # at arguments down to -25
        args = []
        for name in ("gamma", "rgamma"):
            def spy(x, real=getattr(mpmath, name)):
                args.append(x)
                return real(x)
            monkeypatch.setattr(mpmath, name, spy)
        foxh._residue_table.cache_clear()
        g_tilde_inf(0.7, 0.9, 1.3, 20.0)
        residue_series([GammaFactor(0.0, 1.0), GammaFactor(-0.7, 1.3),
                        GammaFactor(22 + 1e-12, 2.0)], [], 100.0)
        assert resummed == [20.0, 100.0]
        assert args and min(args) > 0

    def test_hankel_loop_returns_plain_float(self):
        value = hankel_loop([GammaFactor(0.0, 1.0)], [], 0.7)
        assert type(value) is float

    def test_hankel_loop_converges_at_a_zero_of_the_integral(self):
        # G~_{2,0.5}(z) at alpha = 0.9, theta = 1.5 changes sign twice; at
        # a root the loop's value is rounding noise, so its refinement must
        # be judged against the size of the integrand, not of the value
        from scipy.optimize import brentq
        num, den = foxh._gtn_factors(0.5, 0.9, 1.5, 2)

        def series(z):
            return residue_series(num, den, z)

        for z0 in (0.850945, 7.795487):
            root = brentq(series, z0 - 1e-3, z0 + 1e-3, xtol=1e-15)
            value = hankel_loop(num, den, root)
            assert abs(value - series(root)) < 1e-12

    # G^{m,0}_{0,m}(z | 0, ..., 0) by mpmath.meijerg at 40 digits,
    # confirmed at 50
    MEIJER_G = {3: {0.05: "2.6199587829332575519",
                    1.3: "0.11507790101178193883",
                    20.0: "0.00037376575333259882575"},
                4: {0.05: "2.8089465944360449132",
                    1.3: "0.087447903717075763664",
                    20.0: "0.00050629306500551588468"}}

    @pytest.mark.parametrize("m", [3, 4])
    def test_poles_of_any_order_match_meijer_g(self, m):
        # Gamma(u)^m: a pole of order m at every -k
        spec = FoxHSpec(upper=(), lower=((0.0, 1.0),) * m, m=m, n=0)
        for z, want in self.MEIJER_G[m].items():
            want = float(want)
            assert abs(fox_h(spec, z) - want) <= 1e-14 * want, z

    def test_mixed_orders_match_the_duplication_formula(self):
        # Gamma(u)^2 Gamma(2u) = Gamma(u)^3 Gamma(u + 1/2) 2^{2u-1}/sqrt(pi):
        # triple poles at -k, simple ones at -k - 1/2, and the series is
        # G^{4,0}_{0,4}(z/4 | 0, 0, 0, 1/2) / (2 sqrt(pi))
        num = [GammaFactor(0.0, 1.0), GammaFactor(0.0, 1.0),
               GammaFactor(0.0, 2.0)]
        for z in (0.3, 2.0):
            with mpmath.workdps(30):
                want = mpmath.meijerg([[], []], [[0, 0, 0, 0.5], []], z / 4)
                want /= 2 * mpmath.sqrt(mpmath.pi)
            got = residue_series(num, [], z)
            assert abs(got - want) <= 1e-14 * abs(want), z

    def test_left_and_right_families_meeting_raise(self):
        # Gamma(u) Gamma(-u) z^{-u}: u = 0 is a pole of both families, so
        # no contour separates them and the H-function is undefined
        spec = FoxHSpec(upper=((1.0, 1.0),), lower=((0.0, 1.0),), m=1, n=1)
        for _ in range(2):  # a cached table raises again
            with pytest.raises(PoleCollisionError, match="meet"):
                fox_h(spec, 0.5)
        # interleaved families that do not meet: sum_k (-1)^k/k!
        # Gamma(k - 1/2) z^k = Gamma(-1/2) sqrt(1 + z)
        spec = FoxHSpec(upper=((1.5, 1.0),), lower=((0.0, 1.0),), m=1, n=1)
        assert fox_h(spec, 0.5) == pytest.approx(-4.341607527349606,
                                                 rel=1e-15)


class TestNearCollisions:
    ZS = [0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0]

    @pytest.mark.parametrize("delta", [1e-6, 1e-7, 5e-8, 1e-8, 1e-9, 1e-10,
                                       1e-11, 1e-12, 1e-13, 1e-14, 3e-15,
                                       0.0])
    def test_g_tilde_inf_near_coinciding_families(self, delta):
        # a = 0.5 + delta, theta = 1.5: every other pole of Gamma(1.5u - a)
        # lies delta/1.5 from one of Gamma(u).  Pairs closer than 1e-10 are
        # one double pole of the float table, which the exact re-sum splits
        # where they lie 1e-14 or more apart; pairs further apart are two
        # simple poles.  Reference: 80 digits of simple residues (at
        # delta = 0, a moved by 1e-25).  The worst error, 2.9e-14 at
        # delta = 1e-14, is a float double pole standing for two poles
        # 6.7e-15 apart
        a, alpha, theta = 0.5 + delta, 0.9, 1.5
        with mpmath.workdps(80):
            shifted = mpmath.mpf(a) + (mpmath.mpf(10) ** -25 if delta == 0
                                       else 0)
            want = mp_residue_sum([(0, 1), (-shifted, theta)],
                                  [(mpmath.mpf(alpha) + 1, -1)], self.ZS,
                                  80, -60)
        got = g_tilde_inf(a, alpha, theta, np.array(self.ZS))
        for z, value, ref in zip(self.ZS, got, want):
            assert abs(value - ref) <= 1e-13 * abs(ref), z

    @pytest.mark.parametrize("delta", [1e-11, 1e-12, 1e-13])
    def test_merged_pairs_are_resummed_exactly(self, delta, resummed):
        # pole pairs 1e-11 to 1e-13 apart, one double pole of the float
        # table, which is 1.5e-13 to 1.4e-11 off; every z reaches them and
        # is re-summed with the pairs split
        zs = [0.05, 0.3, 1.0, 3.0, 8.0, 30.0, 100.0]
        num, den = foxh._gtinf_factors(0.5 + delta, 0.9, 1.5)
        want = residue_sum(num, den, zs, 80)
        got = g_tilde_inf(0.5 + delta, 0.9, 1.5, np.array(zs))
        assert sorted(resummed) == zs
        for z, value, ref in zip(zs, got, want):
            assert abs(value - ref) <= 1e-14 * abs(ref), z

    @pytest.mark.parametrize("a,theta", [(0.7, 1.3), (0.3, 1.7)])
    def test_g_tilde_n_inexact_float_collisions(self, a, theta):
        # the binary values of 0.7 and 1.3 put the poles of Gamma(u) and
        # Gamma(1.3u - 0.7) at u = -11 3.4e-16 apart: one pole in floats,
        # two in the mpmath re-sum, whose cancellation reaches 17 digits at
        # z = 60.  Reference: 100 digits of simple residues, a moved by
        # 1e-30 to split the pole pair at u = -1 that coincides exactly,
        # with the exact shift alpha + 1 + n: the float 0.4 + 4.0 lies
        # 3.3e-16 above it, which put z = 60 2.7e-12 off.  Worst error
        # now: 4.4e-17
        alpha, n = 0.4, 3
        zs = [1.0, 10.0, 30.0, 60.0]
        with mpmath.workdps(100):
            shifted = mpmath.mpf(a) + mpmath.mpf(10) ** -30
            extra = mpmath.mpf(alpha) + 1
            want = mp_residue_sum([(0, 1), (extra + n, -1), (-shifted, theta)],
                                  [(n, 1), (extra, -1)], zs, 100, -100)
        for z, ref in zip(zs, want):
            value = g_tilde_n(a, alpha, theta, n, z)
            assert abs(value - ref) <= 1e-15 * abs(ref), z

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
            value = residue_series(num, den, z)
            assert value == pytest.approx(hankel_loop(num, den, z),
                                          rel=1e-10)

    def test_route_is_chosen_without_the_separation_scan(self, monkeypatch):
        # the series merges, splits and re-sums poles from its own table
        def scan(*args, **kwargs):
            raise AssertionError("min_family_separation called")

        monkeypatch.setattr(foxh, "min_family_separation", scan)
        near = ([GammaFactor(0.0, 1.0), GammaFactor(1e-12, 1.0)], [])
        for num, den in (foxh._gtinf_factors(0.3, 0.9, 1.5),
                         foxh._gtn_factors(0.5, 0.9, 1.5, 3), near):
            assert math.isfinite(residue_series(num, den, 1.3))


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
        from scipy.optimize import brentq
        alpha = 0.9
        if n is None:
            num, den = foxh._gtinf_factors(a, alpha, theta)
        else:
            num, den = foxh._gtn_factors(a, alpha, theta, n)

        def series(z):
            return residue_series(num, den, float(z))

        zs = list(np.geomspace(1e-3, 30.0, 25))
        signs = [math.copysign(1.0, series(z)) for z in zs]
        # both sides of every zero crossing, where relative error is hardest
        for lo, hi, s_lo, s_hi in zip(zs, zs[1:], signs, signs[1:]):
            if s_lo != s_hi:
                root = brentq(series, lo, hi, xtol=1e-14)
                zs += [root * (1 - 1e-3), root * (1 + 1e-3)]
        assert len(zs) > 25
        for z in zs:
            loop = hankel_loop(num, den, float(z))
            assert series(z) == pytest.approx(loop, rel=1e-10)

    def test_kernels_never_reach_the_loop(self, monkeypatch):
        # foxh.hankel_loop is an alias of residue_series kept for the
        # benchmark's tracer; no kernel path may call it by that name
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

        def table():
            return foxh._residue_table(*map(tuple, foxh._gtinf_factors(
                0.5, 0.9, 1.5)))

        foxh._residue_table.cache_clear()
        cold = values()
        cold_prec = table().exact_prec
        foxh._residue_table.cache_clear()
        # warm the table with other z; z = 1000 re-sums at more digits
        # than the cold call needs, and its coefficients serve both
        for z in (1e-3, 2.0, 8.0, 20.0, 45.0, 1000.0):
            g_tilde_inf(0.5, 0.9, 1.5, z)
        assert table().exact_prec > cold_prec
        assert values() == cold

    def test_exact_coefficients_are_built_once(self, monkeypatch):
        # the re-sums of one integrand share one coefficient list, which a
        # sum rebuilds only where it needs more digits than any before
        built = []
        build = foxh._exact_coefficient

        def counted(*args):
            built.append(args[2])
            return build(*args)

        monkeypatch.setattr(foxh, "_exact_coefficient", counted)
        foxh._residue_table.cache_clear()
        for z in (0.7, 2.0, 8.0, 30.0):
            g_tilde_inf(0.5, 0.9, 1.5, z)
        table = foxh._residue_table(*map(tuple, foxh._gtinf_factors(
            0.5, 0.9, 1.5)))
        assert len(built) == table.exact > 0


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

    @pytest.mark.parametrize("route", ["auto", "hankel"])
    def test_sparse_family_matches_contour_quadrature(self, route):
        # the series once stopped at the cancelled poles u = -2, -3, -4 and
        # gave -69.524 at z = 1.5, skipping the u = -7.5 term (~181); the
        # library's own evaluation ("auto") and the Hankel loop both meet
        # the quadrature
        factors = foxh._gtn_factors(0.5, 4.0, 0.2, 2)
        for z, want in self.SPARSE.items():
            got = (g_tilde_n(0.5, 4.0, 0.2, 2, z) if route == "auto"
                   else hankel_loop(*factors, z))
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


class TestFamilyStops:
    """A left family leaves its residue table at its first pole that a
    denominator of its slope cancels (_ResidueTable.stops), so the table
    builds no entry for a cancelled pole and its length counts the entries
    it builds."""

    @pytest.mark.parametrize("case,count", [((0.37, 1.2, 0.3, 4), 2000),
                                            ((0.3, 0.7, 1.5, 16), 224)])
    def test_no_entry_is_a_cancelled_pole(self, case, count):
        # these tables once held 1,534 and 74 order-0 entries: the poles of
        # Gamma(u) that Gamma(n + u) cancels
        table = foxh._residue_table(*foxh._gtn_factors(*case))
        table.entry(count - 1)
        assert all(pole.order for pole in table.entries[:count])

    def test_small_theta_sums_past_the_cancelled_poles(self):
        # 2,000 entries held only 466 poles of Gamma(0.3 u - 0.37), so this
        # raised NonConverged; 500-digit tests/references.residue_sum sums
        # agree with the series to 1e-16 from z = 4.5 to 6.6
        assert g_tilde_n(0.37, 1.2, 0.3, 4, 4.4) == 1.2261045959959843e-61

    def test_float_shifts_cancel_up_to_rounding(self):
        # Fraction(2.1) - Fraction(0.1) is not 2, so an exact test would
        # leave Gamma(0.1 + u)'s family uncancelled (NonConverged); its two
        # poles give 2^0.1 - 2^1.1 at z = 2
        num, den = (GammaFactor(0.1, 1.0),), (GammaFactor(2.1, 1.0),)
        assert foxh._residue_table(num, den).length == 2
        assert residue_series(num, den, 2.0) == -1.0717734625362931
        assert residue_series(num, den, 2.0) == pytest.approx(
            2.0 ** 0.1 - 2.0 ** 1.1, rel=1e-15)

    @pytest.mark.parametrize("n,values", [
        (1, [0.1949533418271229, -0.007351348820988985,
             -0.0008715001721842154, -1.2698707574461429e-06]),
        (2, [0.028104896518371007, -0.010038296143713802,
             0.00018446415752224865, 7.499815556572704e-07]),
        (5, [-0.041780687375593456, 0.0013363614361394033,
             -1.0389008164599649e-05, 2.6309724343468103e-10])])
    def test_live_family_builds_the_entry_on_a_cancelled_pole(self, n,
                                                              values):
        # at (a, theta) = (0.5, 1.5) the poles of Gamma(1.5 u - 0.5) at
        # u = -1 and -3 lie on poles of Gamma(u), which Gamma(n + u) cancels
        # from u = -n on: there the entry is the live family's simple pole,
        # a double pole above -n; the values are those of the tables that
        # held the cancelled poles too
        table = foxh._residue_table(*foxh._gtn_factors(0.5, 0.9, 1.5, n))
        orders = {pole.u0: pole.order
                  for pole in map(table.entry, range(12))}
        assert [orders[-1.0], orders[-3.0]] == [1 + (n > 1), 1 + (n > 3)]
        assert [g_tilde_n(0.5, 0.9, 1.5, n, z)
                for z in (0.7, 3.0, 12.0, 40.0)] == values

    def test_merged_families_end_where_the_heap_runs_dry(self):
        # Gamma(u)^2 / Gamma(1001 + u)^2: the two stops sum past
        # _MAX_TERMS, but the families share each pole, so the table is
        # 1,001 double poles long
        table = foxh._ResidueTable((GammaFactor(0, 1.0),) * 2,
                                   (GammaFactor(1001, 1.0),) * 2)
        assert table.length == 1001
        assert {pole.order for pole in table.entries} == {2}


class TestDomainValidation:
    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            g_n(0.5, 0.9, 1.5, 4, -1.0)

    def test_tilde_requires_positive_argument(self):
        with pytest.raises(DomainError):
            g_tilde_inf(0.3, 0.9, 1.5, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("array", [False, True])
    @pytest.mark.parametrize("route", ["auto", "hankel"])
    def test_non_finite_argument_rejected(self, bad, array, route):
        # inf once gave 0 * inf in the term logs (a RuntimeWarning), nan
        # a 2,000-pole table or "integrand does not decay"; the library's
        # own evaluation ("auto") and the Hankel loop, one z at a time,
        # both refuse it
        z = np.array([1.0, bad]) if array else bad
        a, alpha, theta = 0.3, 0.9, 1.5
        spec = FoxHSpec(upper=(), lower=((0.0, 1.0),), m=1, n=0)
        if route == "auto":
            calls = (lambda: g_n(a, alpha, theta, 3, z),
                     lambda: g_tilde_n(a, alpha, theta, 3, z),
                     lambda: g_inf(a, alpha, theta, z),
                     lambda: g_tilde_inf(a, alpha, theta, z),
                     lambda: fox_h(spec, z),
                     lambda: residue_series(*spec.factors(), z))
        else:
            calls = [functools.partial(
                lambda f: [hankel_loop(*f, float(x)) for x in np.ravel(z)],
                factors) for factors in (
                    foxh._g_factors(a, alpha, theta, 3, False),
                    foxh._gtn_factors(a, alpha, theta, 3),
                    foxh._g_factors(a, alpha, theta, None, False),
                    foxh._gtinf_factors(a, alpha, theta), spec.factors())]
        for call in calls:
            with pytest.raises(DomainError, match="finite and positive"):
                call()

    def test_small_argument_stability(self):
        # the loop contour stays accurate deep into the origin region
        a, alpha, theta = 0.3, 0.9, 1.5
        for z in (1e-6, 1e-12, 1e-30):
            series = g_tilde_inf(a, alpha, theta, z)
            contour = hankel_loop(*foxh._gtinf_factors(a, alpha, theta), z)
            assert contour == pytest.approx(series, rel=1e-8)
