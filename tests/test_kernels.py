"""Tests for the Christoffel-Darboux kernel family and hard-edge limits."""
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial

import mpmath
import numpy as np
import pytest

from cauchybures import foxh, kernels, numerics
from cauchybures.ensembles import EnsembleParams
from cauchybures.exceptions import (ComplexityError, DomainError,
                                    NonConverged, SingularPointError)
from cauchybures.correlations import (CorrelationRequest, rho_bures,
                                       rho_bures_hard_edge, rho_cauchy)
from cauchybures.kernels import (KernelGrid, _h_chain, _h_fraction, _h_seed,
                                 _h_series, _k11_tables, cd_hard_scaled,
                                 cd_kernel, delta_k00_inf, delta_k11_inf,
                                 hard_edge_kernel, hatted, i1_integral, k01,
                                 k10, k11, make_grid, sigma_k01_inf)
from cauchybures.polynomials import p_hat, q_hat
from references import (hard_edge_kernel_quad, simplex_quad_2d,
                        tanh_sinh_01_per_level)


def fast_cd(params):
    """Vectorized CD kernel evaluator built from the polynomial series."""
    theta, a, b = params.theta, params.a, params.b
    rows = []
    for n in range(params.n):
        h_n = theta / (2.0 * n * theta + a + b + 1.0)
        rows.append((theta / h_n, p_hat(params, n).coeffs,
                     q_hat(params, n).coeffs))

    def kern(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        acc = 0.0
        for w, pc, qc in rows:
            px = sum(c * x ** (theta * k) for k, c in enumerate(pc))
            qy = sum(c * y ** (theta * k) for k, c in enumerate(qc))
            acc = acc + w * px * qy
        return acc

    return kern


class TestStrategyAgreement:
    @pytest.mark.parametrize("params", [EnsembleParams(0.5, 0.7, 1.5, 3),
                                        EnsembleParams(0.0, 0.0, 1.0, 5)])
    def test_three_strategies_on_grid(self, params):
        pts = [0.4, 1.0, 2.1]
        for x in pts:
            for y in pts:
                s = cd_kernel(params, x, y, route="direct")
                t = cd_kernel(params, x, y, route="tintegral")
                assert t == pytest.approx(s, rel=1e-7)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DomainError):
            cd_kernel(EnsembleParams(0.5, 0.7, 1.5, 3), 1.0, 1.0,
                      route="nope")

    @pytest.mark.parametrize("fn,pts", [
        (k01, [(0.3, 0.8), (0.6, 1.1), (1.0, 1.0), (1.7, 0.4), (2.2, 2.9)]),
        (k10, [(0.3, 0.8), (0.6, 1.1), (1.0, 1.0), (1.7, 0.4), (2.2, 2.9)]),
        (k11, [(0.3, 0.8), (0.6, 1.1), (1.0, 1.0), (1.7, 0.4), (2.2, 2.9)]),
    ])
    def test_both_routes_agree(self, fn, pts):
        params = EnsembleParams(0.5, 0.7, 1.5, 3)
        for u, v in pts:
            t = fn(params, u, v, route="tintegral")
            d = fn(params, u, v, route="direct")
            assert d == pytest.approx(t, rel=1e-6)


def mp_hard_k00(a, b, theta, x, y, terms=40):
    """Hard-edge K00, theta int_0^1 t^alpha G_inf(t x^theta) G_inf(t y^theta)
    dt, integrated term by term over the series G_inf(z) = sum_k c_k (-z)^k,
    c_k = 1 / (k! Gamma(alpha+1+k) Gamma(a+theta k+1)), in mpmath."""
    with mpmath.workdps(30):
        al = (mpmath.mpf(a) + b + 1) / theta - 1

        def terms_at(e, p):
            z = -mpmath.mpf(p) ** theta
            return [z ** k / (mpmath.factorial(k) * mpmath.gamma(al + 1 + k)
                              * mpmath.gamma(e + theta * k + 1))
                    for k in range(terms)]

        tx, ty = terms_at(a, x), terms_at(b, y)
        return float(theta * mpmath.fsum(
            tx[j] * ty[k] / (al + 1 + j + k)
            for j in range(terms) for k in range(terms)))


class TestTIntegralEndpoint:
    # alpha + 1 = (a + b + 1)/theta near 0 puts the t^alpha mass at t = 0,
    # where the residue double sum's 1/(alpha + 1 - u - u') holds it
    @pytest.mark.parametrize("alpha1", [0.1, 0.05])
    def test_weight_near_its_integrability_limit(self, alpha1):
        a = b = 0.5 * alpha1 - 0.5
        p = EnsembleParams(a, b, 1.0, 3)
        for x, y in ((0.3, 0.8), (1.7, 2.4)):
            for fn in (cd_kernel, k01, k10):
                assert fn(p, x, y, route="tintegral") == pytest.approx(
                    fn(p, x, y, route="direct"), rel=1e-12)
        assert hard_edge_kernel(a, b, 1.0, "K00", 0.3, 0.8) == pytest.approx(
            mp_hard_k00(a, b, 1.0, 0.3, 0.8), rel=1e-12)

    def test_where_tanh_sinh_nodes_missed_the_mass(self):
        # alpha + 1 = 0.03: the tanh-sinh nodes, which reached t = e^{-700},
        # missed more than 1e-12 of the t^alpha mass, and the t-integral
        # refused; mpmath quad at 30 digits after t = s^{1/(alpha+1)} gives
        # the hard-edge K00
        a = b = -0.485
        p = EnsembleParams(a, b, 1.0, 3)
        for fn in (cd_kernel, k01, k10):
            assert fn(p, 0.3, 0.8, route="tintegral") == pytest.approx(
                fn(p, 0.3, 0.8, route="direct"), rel=1e-12)
        got = hard_edge_kernel(a, b, 1.0, "K00", 0.3, 0.8)
        assert got == pytest.approx(0.11274353769191185, rel=1e-12)
        assert got == pytest.approx(mp_hard_k00(a, b, 1.0, 0.3, 0.8),
                                    rel=1e-12)


class TestResidueIntegral:
    """foxh.residue_integral: the t-integral of two residue series as their
    double sum over pole pairs, on a float pass or an exact one."""

    @staticmethod
    def sides(a, b, theta, x, y, tilde=(False, False)):
        alpha = (a + b + 1.0) / theta - 1.0
        return (Fraction(alpha) + 1,
                (*foxh._g_factors(a, alpha, theta, None, tilde[0]),
                 x ** theta),
                (*foxh._g_factors(b, alpha, theta, None, tilde[1]),
                 y ** theta))

    @pytest.mark.parametrize("x,y,exact", [(0.3, 0.8, 0), (1.7, 2.4, 0),
                                           (30.0, 40.0, 1)])
    def test_simple_poles_against_an_mpmath_double_sum(self, monkeypatch,
                                                       x, y, exact):
        # G_inf G_inf: the float pass where the sum loses under two digits,
        # the exact pass (one mp_sum call) where it loses more
        calls = []
        monkeypatch.setattr(foxh, "_integral_at", lambda *args: calls.append(
            1) or TestResidueIntegral.at(*args))
        got = 1.5 * foxh.residue_integral(*self.sides(0.3, 0.7, 1.5, x, y))
        assert got == pytest.approx(mp_hard_k00(0.3, 0.7, 1.5, x, y,
                                                terms=60), rel=1e-13)
        assert bool(calls) == bool(exact)

    at = staticmethod(foxh._integral_at)

    def test_double_poles_against_a_quadrature(self):
        # at (a, theta) = (0.5, 1.5) the poles of Gamma(u) and
        # Gamma(theta u - a) meet from u = -1 on: tau-moments r!/s^{r+1};
        # TestHardEdgeAgainstQuadrature's 30-digit mpmath quadrature
        c, one, two = self.sides(0.5, 0.7, 1.5, 0.8387, 1.3539, (True, True))
        got = (1.5 * 0.8387 ** 0.5 * 1.3539 ** 0.7
               * foxh.residue_integral(c, one, two))
        assert got == pytest.approx(0.454982808736303522, rel=1e-12)

    E = ([foxh.GammaFactor(0, 1.0)], ())  # e^{-z}

    def test_exponentials_against_their_closed_form(self):
        # int_0^1 e^{-2t} e^{-t} dt = (1 - e^{-3}) / 3
        got = foxh.residue_integral(1, (*self.E, 2.0), (*self.E, 1.0))
        assert got == pytest.approx(-math.expm1(-3.0) / 3.0, rel=1e-15)

    # H(z) = Gamma(u) Gamma(20 + u/2) / Gamma(u) z^{-u} = 2 z^40 e^{-z^2}:
    # its first 40 poles are cancelled, so a side's first window holds no
    # nonzero term (the integral once returned 0.0 there)
    H = ([foxh.GammaFactor(0, 1.0), foxh.GammaFactor(20, 0.5)],
         [foxh.GammaFactor(0, 1.0)])

    @pytest.mark.parametrize("c,one,two,want", [
        # 30-digit mpmath quadratures of int_0^1 t^{c-1} H1(t z1) H2(t z2)
        (1, (*H, 0.9), (*E, 1.0), 1.2570851224986961e-4),
        (1, (*E, 1.0), (*H, 0.9), 1.2570851224986961e-4),
        (2.5, (*H, 0.9), (*H, 1.3), 2.2581583921855711)],
        ids=["H-exp", "exp-H", "H-H"])
    def test_side_grows_past_its_cancelled_poles(self, c, one, two, want):
        got = foxh.residue_integral(c, one, two)
        assert got == pytest.approx(want, rel=1e-12)

    def test_term_limit_raises_non_converged(self):
        # e^{-900 t}: its side's exact sum would need more than 2,000 terms
        start = time.perf_counter()
        with pytest.raises(NonConverged, match="^residue integral not "
                           "converged after 2000 terms$"):
            foxh.residue_integral(1, (*self.E, 900.0), (*self.E, 1.0))
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("c,message", [
        ("1", "^c must be a real number in double range$"),
        (math.nan, "^c must be finite$"),
        (math.inf, "^c must be finite$")],
        ids=["str", "nan", "inf"])
    def test_c_is_read_as_a_real_argument(self, c, message):
        # G_inf(0.3, 0.5, 1.5) against G~_inf(0.7, 0.5, 1.5) at z = 1:
        # Fraction read "1" and returned 0.8885746862857792, nan was
        # reported as a divergence at t = 0, and inf returned 0.0
        one, two = ((*foxh._g_factors(a, 0.5, 1.5, None, tilde), 1.0)
                    for a, tilde in ((0.3, False), (0.7, True)))
        assert foxh.residue_integral(1, one, two) == 0.8885746862857792
        with pytest.raises(DomainError, match=message):
            foxh.residue_integral(c, one, two)

    def test_c_at_most_zero_where_every_pair_converges(self):
        # H(z) = Gamma(5 + u) z^{-u} = z^5 e^{-z}: its poles lie left of
        # u = -5, so s = c - u0 - u0' > 0 at every pair for c > -10; at
        # c = -1, mpmath.quad of t^8 e^{-2t} over (0, 1) gives
        # 0.0186989771005665 (c <= 0 was refused as not positive)
        h = ([foxh.GammaFactor(5, 1.0)], (), 1.0)
        assert foxh.residue_integral(-1, h, h) == pytest.approx(
            0.0186989771005665, rel=1e-14)
        with pytest.raises(DomainError, match="diverges at t = 0"):
            foxh.residue_integral(-10, h, h)

    def test_pole_pair_at_the_origin_diverges(self):
        # G~'s leading pole a/theta = 1/3 past c = 0.2: t^{c-1-2a/theta} is
        # not integrable at t = 0
        _, one, two = self.sides(0.5, 0.5, 1.5, 0.8, 0.9, (True, True))
        with pytest.raises(DomainError, match="diverges at t = 0"):
            foxh.residue_integral(0.2, one, two)


class TestNoTQuadrature:
    def test_t_integrals_take_no_tanh_sinh_node(self, monkeypatch):
        # every kind, at finite N and at the hard edge, is the residue
        # double sum (finite-N K11 the exact incomplete-gamma core); only
        # i1_integral and the brute-force oracles run tanh-sinh
        def no_quadrature(*args, **kwargs):
            raise AssertionError("tanh_sinh_01 called by a t-integral")

        for module in (numerics, kernels):
            monkeypatch.setattr(module, "tanh_sinh_01", no_quadrature)
        p = EnsembleParams(0.5, 0.7, 1.5, 3)
        for kind in ("K00", "K01", "K10", "K11"):
            assert math.isfinite(hatted(p, kind, 0.6, 1.3))
            assert math.isfinite(hard_edge_kernel(0.5, 0.7, 1.5, kind,
                                                  0.6, 1.3))
        assert cd_kernel(p, 0.6, 1.3, route="tintegral") == hatted(
            p, "K00", 0.6, 1.3)


class TestTIntegralCancellation:
    # K01 at (a, b, theta, N) = (0, 0.7, 1, 1) cancels in t as x, x' grow:
    # sum w|f| / |integral| is 1.3e3 at (8, 8), 3.6e3 at (6, 9), 7e4 at
    # (10, 12) and 1.4e6 at (10, 15), where a tanh-sinh t-integral returned
    # 0.10236171430417267, 8.4e-9 off, and later refused; the residue
    # double sum cancels as well, and its exact pass keeps the digits
    P = EnsembleParams(0.0, 0.7, 1.0, 1)
    # perfbench/mpref.k01 at 40 digits, confirmed at 70
    KEPT = [((6.0, 9.0), 0.16095519574094565852),
            ((8.0, 8.0), 0.17802305349535627721)]
    # perfbench/mpref.k01 at 60 digits, confirmed at 90
    DEEP = [((10.0, 15.0), 0.10236171344172491565),
            ((10.0, 12.0), 0.12509659782439350899),
            ((30.0, 45.0), 0.036429860341399106105)]

    @pytest.mark.parametrize("pts,want", DEEP)
    def test_past_the_old_cancellation_limit(self, pts, want):
        # (30, 45) cancels by about 1e21; once 35 s into NonConverged
        start = time.perf_counter()
        assert k01(self.P, *pts) == pytest.approx(want, rel=1e-12)
        assert time.perf_counter() - start < 2.0
        assert k01(self.P, *pts, route="direct") == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("pts,want", KEPT)
    def test_kept_below_the_limit(self, pts, want):
        assert k01(self.P, *pts) == pytest.approx(want, rel=1e-10)

    # perfbench/mpref.k01 at 60 digits, confirmed at 90, except the N = 80
    # bulk values, which are mpref's at their own precision
    CASES = [
        # a zero of K01 (tanh-sinh refused it at sum w|f|/|I| = 2.14e4)
        ((0.3, 0.7, 1.5, 8), (0.7, 1.9), -1.1629615463908386756e-4),
        # t^{-0.9} at t = 0 (tanh-sinh: NonConverged after 1.8 s)
        ((-0.9, 1.0, 1.0, 3), (0.3, 0.8), 0.3664232319606320961),
        # direct returns 5.64e52 here, and tanh-sinh refused (3.38e4)
        ((0.4, 1.4, 1.3, 80), (0.7, 1.9), 9.25966296905613e-5),
        # direct returns -5.87e68 here
        ((0.0, 0.7, 1.0, 80), (6.0, 9.0), 0.02119286881630993)]

    @pytest.mark.parametrize("p,pts,want", CASES)
    def test_where_no_route_gave_the_value(self, p, pts, want):
        start = time.perf_counter()
        assert k01(EnsembleParams(*p), *pts) == pytest.approx(want,
                                                              rel=1e-12)
        assert time.perf_counter() - start < 2.0


class TestTIntegralLevels:
    def test_converged_level_is_not_confirmed(self):
        # the point where tanh-sinh's quadratic rule accepted level 2 (its
        # relative level changes 2.8e-3, 1.8e-9); perfbench/mpref.k01 at
        # 48 digits, confirmed at 78
        got = k01(EnsembleParams(0.3, 0.7, 1.5, 4), 1.103, 1.364)
        assert got == pytest.approx(1.5387909580762, rel=1e-13)

    @staticmethod
    def i1_upper_half(monkeypatch):
        """i1_integral(7, 0.8)'s integrand above its split, which runs
        tanh-sinh levels 0-4."""
        halves = []

        def captured(f):
            halves.append(f)
            return numerics.tanh_sinh_01(f)

        monkeypatch.setattr(kernels, "tanh_sinh_01", captured)
        i1_integral(7.0, 0.8)
        return halves[1], 5

    @staticmethod
    def hard_edge_k10(monkeypatch):
        """Hard-edge K10's G~ G t-integrand at (0.5, 0.7, 1.5), (0.8387,
        1.3539), a pure function of its nodes; G~ has double poles."""
        a, b, theta = 0.5, 0.7, 1.5
        alpha = (a + b + 1.0) / theta - 1.0
        z1, z2 = 0.8387 ** theta, 1.3539 ** theta

        def f(t):
            out = np.zeros(len(t))
            keep = t >= 1e-60  # a G~ factor alone can overflow below
            tk = t[keep]
            out[keep] = (tk ** alpha * kernels.g_tilde_inf(a, alpha, theta,
                                                           tk * z1)
                         * kernels.g_inf(b, alpha, theta, tk * z2))
            return out

        return f, 3

    @staticmethod
    def endpoint_power(monkeypatch):
        """t^-0.4 e^t, accepted at level 2; summing levels 0-2 as one dot
        product over their joint nodes changes its last bit."""
        return (lambda t: t ** -0.4 * np.exp(t)), 3

    @staticmethod
    def zero(monkeypatch):
        """f = 0, which the loop accepts at level 1."""
        return (lambda t: np.zeros(len(t))), 2

    @pytest.mark.parametrize("integrand", ["i1_upper_half", "hard_edge_k10",
                                           "endpoint_power", "zero"])
    def test_first_call_of_three_levels_keeps_every_bit(self, monkeypatch,
                                                        integrand):
        # tanh_sinh_01 calls f on levels 0-2 at once, then once per level;
        # references.tanh_sinh_01_per_level calls it once per level
        f, levels = getattr(self, integrand)(monkeypatch)
        grouped, per_level = [], []
        got = numerics.tanh_sinh_01(lambda t: grouped.append(len(t)) or f(t))
        want = tanh_sinh_01_per_level(
            lambda t: per_level.append(len(t)) or f(t))
        assert len(per_level) == levels
        first = sum(len(numerics._tanh_sinh_level(lev).nodes)
                    for lev in range(3))
        assert grouped == [first] + per_level[3:]
        assert got == want


class TestReproducingProperty:
    @pytest.mark.parametrize("params", [EnsembleParams(0.5, 0.7, 1.5, 3),
                                        EnsembleParams(0.0, 0.0, 1.0, 2)])
    def test_double_integral_reproduces_kernel(self, params):
        kern = fast_cd(params)
        rule = simplex_quad_2d(params.a, params.b, 320, 320)
        for x, y in ((0.6, 1.2), (1.4, 0.5)):
            got = rule.integrate(lambda w, z: kern(x, z) * kern(w, y))
            assert got == pytest.approx(float(kern(x, y)), rel=1e-6)

    @pytest.mark.parametrize("params", [EnsembleParams(0.5, 0.7, 1.5, 3),
                                        EnsembleParams(0.0, 0.0, 1.0, 2)])
    def test_trace_equals_matrix_size(self, params):
        kern = fast_cd(params)
        rule = simplex_quad_2d(params.a, params.b, 320, 320)
        got = rule.integrate(lambda x, y: kern(x, y))
        assert got == pytest.approx(params.n, rel=1e-7)


class TestAuxiliaryIntegral:
    def test_i1_against_closed_form(self):
        # int_0^inf y^beta e^{-y}/(c+y) dy = Gamma(1+beta) e^c c^beta
        #                                    Gamma(-beta, c)
        for beta, c in ((0.5, 0.8), (2.3, 0.05), (0.1, 3.7), (4.0, 1e-3)):
            with mpmath.workdps(40):
                want = float(mpmath.gamma(1 + beta) * mpmath.e ** c
                             * mpmath.mpf(c) ** beta
                             * mpmath.gammainc(-beta, c))
            assert i1_integral(beta, c) == pytest.approx(want, rel=1e-11)

    def test_i1_against_incomplete_gamma_grid(self):
        # the scipy adaptive quadrature this replaced reached 3.9e-12, at
        # (beta, c) = (-0.9, 40); mpmath's gammainc(-beta, c) itself loses
        # digits for large beta and c at 50 digits, hence 100
        # (Gauss-Jacobi below the split reached 7.6e-14, at (-0.999, 700))
        worst = 0.0
        for beta in (-0.999, -0.99, -0.9, -0.3, 0.0, 0.5, 2.3, 7.0, 20.0,
                     60.5, 110.0):
            for c in (1e-3, 0.05, 0.8, 3.7, 12.0, 40.0, 150.0, 700.0):
                if beta * math.log(c) > math.log(np.finfo(float).max):
                    continue  # c^beta overflows: i1_integral refuses
                with mpmath.workdps(100):
                    want = (mpmath.gamma(1 + beta) * mpmath.e ** c
                            * mpmath.mpf(c) ** beta
                            * mpmath.gammainc(-beta, c))
                worst = max(worst, abs(i1_integral(beta, c) / want - 1))
        assert worst < 3e-14

    @staticmethod
    def _i1_side_cases():
        """(theta, e, c, N) of _i1_side sides: unit-step chains at theta =
        1, 1.5, 2 and per-l quadratures at theta = 1.3.  Chains seed at the
        lowest exponent with beta + 1 >= c: c = 0.05 steps up from the
        bottom, c = 150 down from the top, c = 0.8 and 3.7 turn near the
        bottom, and c = 40 turns inside the N = 40 chains of theta = 1.5
        and 2."""
        for theta in (1.0, 1.5, 2.0, 1.3):
            for e in (-0.9, 0.3, 1.4):
                for c in (0.05, 0.8, 3.7, 40.0, 150.0):
                    yield theta, e, c, 4
        for theta in (1.0, 1.5, 2.0):
            for n in (16, 40):
                for c in (0.05, 40.0):
                    yield theta, 0.3, c, n
            yield theta, -0.9, 150.0, 16

    def test_i1_side_chains_against_incomplete_gamma(self):
        # the side is H(-beta, c) = e^c c^beta Gamma(-beta, c), i1 without
        # its Gamma(1 + beta); 40 digits agree with 120 on every value here
        # to 1e-39; 100, as above, would cost about 2 s for these 335 values
        @lru_cache(maxsize=None)
        def want(beta, c):
            with mpmath.workdps(40):
                b = mpmath.mpf(beta)
                return (mpmath.e ** c * mpmath.mpf(c) ** b
                        * mpmath.gammainc(-b, c))

        worst = 0.0
        for theta, e, c, n in self._i1_side_cases():
            kernels._i1_side.cache_clear()
            side = np.ldexp(*kernels._i1_side(e, theta, n, c))
            worst = max(worst, *(abs(v / want(e + theta * l, c) - 1)
                                 for l, v in enumerate(side)))
        assert worst < 1e-14  # 3.8e-15 on this grid

    def test_i1_overflow_raises_typed_error(self):
        # y^beta overflows a double inside the float quadrature from
        # beta ~ 115; the error names beta instead of a bare OverflowError
        with pytest.raises(ComplexityError, match=r"beta = 150\b"):
            i1_integral(150.0, 1.2)

    def test_i1_refuses_where_its_lower_power_overflows(self):
        # beta < 0: c^beta/(2c), y^beta/(c + y) at the split, bounds both
        # halves; (5e-324)^-0.99 alone passes 1.8e308
        with pytest.raises(ComplexityError, match=r"at beta = -0\.99 \(c = "
                                                  r"4\.94066e-324\)$"):
            i1_integral(-0.99, 5e-324)

    @pytest.mark.parametrize("c,first", [
        (0.05, 118.3), (1.0, 118.2), (40.0, 116.6), (150.0, 112.8),
        (400.0, 106.7)])
    def test_direct_side_refuses_where_i1_integral_does(self, c, first):
        # a direct-route side refuses in closed form at its top exponent,
        # before any quadrature; it must refuse exactly where i1_integral's
        # quadrature refuses there, in steps of 0.1 around the first refusal
        def refuses(build):
            try:
                build()
            except ComplexityError as err:
                assert f"beta = {beta:g} (c = {c:g})" in str(err)
                return True
            return False

        for k in range(-10, 11):
            beta = round(first + k / 10, 1)
            e = beta - 2.0  # exact: beta and e lie in [64, 128)
            assert e + 1.0 * 2 == beta  # the side's top exponent
            assert refuses(lambda: i1_integral(beta, c)) == (k >= 0), beta
            kernels._i1_side.cache_clear()
            assert refuses(lambda: kernels._i1_side(e, 1.0, 3, c)) == (
                k >= 0), beta


def _bures_scaled(a, theta, n):
    """Cauchy pair (a, a+1) at N = n and the hard-edge scale N^{-2/theta}."""
    return EnsembleParams(a, a + 1.0, theta, n), n ** (-2.0 / theta)


class TestEntryPointValidation:
    P = EnsembleParams(0.5, 0.7, 1.5, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_points_must_be_finite_and_positive(self, bad):
        p = self.P
        for fn in (lambda x, y: cd_kernel(p, x, y),
                   lambda x, y: cd_hard_scaled(p, x, y),
                   lambda x, y: k01(p, x, y), lambda x, y: k10(p, x, y),
                   lambda x, y: k11(p, x, y),
                   lambda x, y: hard_edge_kernel(0.5, 0.7, 1.5, "K00", x, y)):
            for x, y in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(DomainError, match="finite and positive"):
                    fn(x, y)

    def test_exact_theta_read_as_its_float(self):
        # a Fraction theta reached _one_scale, which read 13/10 over a
        # power of two (k11 returned -8.98e-4); at 3/2 cd_kernel and direct
        # k01 raised a bare TypeError
        def at(theta):
            return EnsembleParams(0.4, 1.4, theta, 8)

        assert k11(at(Fraction(13, 10)), 0.7, 1.9) == 4.29213394764088e-06
        assert k11(at(1.3), 0.7, 1.9) == 4.29213394764088e-06
        for fn in (cd_kernel, partial(k01, route="direct")):
            assert fn(at(Fraction(3, 2)), 0.7, 1.9) == fn(at(1.5), 0.7, 1.9)

    @pytest.mark.parametrize("beta,c", [(math.nan, 1.0), (0.5, math.nan),
                                        (0.5, math.inf), (-1.0, 1.0)])
    def test_i1_integral_arguments(self, beta, c):
        with pytest.raises(DomainError):
            i1_integral(beta, c)

    def test_exponential_weight_overflow_is_typed(self):
        p = self.P
        for call in (lambda: k01(p, 1.0, 800.0), lambda: k10(p, 800.0, 1.0),
                     lambda: hatted(p, "K01", 1.0, 800.0)):
            with pytest.raises(ComplexityError, match="overflows"):
                call()

    def test_hatted_rejects_unknown_route(self):
        with pytest.raises(DomainError, match="unknown route"):
            hatted(self.P, "K00", 1.0, 1.0, route="nonsense")

    def test_unknown_kind_rejected(self):
        for call in (lambda: hatted(self.P, "K22", 1.0, 1.0),
                     lambda: hard_edge_kernel(0.5, 0.7, 1.5, "K22", 1.0, 1.0)):
            with pytest.raises(DomainError, match="unknown kernel kind 'K22'"):
                call()

    @pytest.mark.parametrize("route", ["tintegral", "direct"])
    def test_k11_refuses_the_singular_point(self, route):
        with pytest.raises(SingularPointError, match="singularity cutoff"):
            k11(self.P, 4e-13, 5e-13, route)

    @pytest.mark.parametrize("call", [
        lambda p: cd_kernel(p, 1e300, 1.0),
        lambda p: cd_kernel(p, 1e300, 1.0, route="tintegral"),
        lambda p: cd_hard_scaled(p, 1e300, 1.0),
        lambda p: hatted(EnsembleParams(1.5, 0.7, 1.5, 3), "K01", 1.0, 1e300)],
        ids=["cd_kernel", "cd_kernel-tintegral", "cd_hard_scaled",
             "hatted-weight"])
    def test_kernel_past_double_range_raises_complexity_error(self, call):
        # each once raised a bare OverflowError: the CD sum's final ldexp,
        # x^theta before the t-integral, and hatted's weight x'^a; that
        # weight x'^a e^{-x'} is 0 now, and the kernel's e^{x'} refuses
        with pytest.raises(ComplexityError, match="overflows a double"):
            call(self.P)

    @pytest.mark.parametrize("params,x,y,message", [
        (EnsembleParams(0.5, 0.7, 1.5, 3), 1e-310, 1.0,
         "smallest normal double"),
        (EnsembleParams(80.0, 0.0, 1.0, 80), 1e9, 1.3e9,
         "the kernel overflows a double")],
        ids=["scaled-point-underflow", "kernel-overflow"])
    def test_cd_hard_scaled_refuses_what_cd_kernel_cannot_take(
            self, params, x, y, message):
        # cd_hard_scaled is cd_kernel at X N^{-2/theta}: a positive X
        # whose scaled point is not a normal double, or a K_N past double
        # range, is refused, where a folded log2 shift once computed both
        with pytest.raises(ComplexityError, match=message):
            cd_hard_scaled(params, x, y)

    def test_hard_edge_integrand_past_double_range_raises_at_once(self):
        # G G at (3e5, 3e5) overflows in the t-integrand's product: this
        # once ran 84 s through overflow warnings into NonConverged, and
        # no route avoids it, so the refusal names none
        start = time.perf_counter()
        with pytest.raises(ComplexityError, match="overflows a double") as err:
            hard_edge_kernel(0.5, 0.7, 1.5, "K00", 3e5, 3e5)
        assert "route=" not in str(err.value)
        assert time.perf_counter() - start < 10.0
        assert math.isfinite(hard_edge_kernel(0.5, 0.7, 1.5, "K00", 1e5, 1e5))

    @pytest.mark.parametrize("call", [
        lambda p: k01(p, 1e-250, 0.5),
        lambda p: hard_edge_kernel(0.5, 0.7, 1.5, "K01", 1e-300, 1e-300)],
        ids=["k01-tintegral", "hard-K01"])
    def test_t_integral_refuses_where_x_theta_underflows(self, call):
        # x^theta underflows to 0, which the residue series once refused
        # as input that is not positive
        with pytest.raises(ComplexityError, match="underflows to 0"):
            call(self.P)
        assert math.isfinite(k01(self.P, 1e-250, 0.5, route="direct"))

    def test_hard_k00_where_t_x_theta_underflowed_at_a_node(self):
        # x^theta = 1e-270 is a double, but t x^theta underflowed at the
        # deepest tanh-sinh nodes, which the t-integral refused; the double
        # sum needs no node
        got = hard_edge_kernel(0.5, 0.7, 1.5, "K00", 1e-180, 0.5)
        assert got == pytest.approx(mp_hard_k00(0.5, 0.7, 1.5, 1e-180, 0.5),
                                    rel=1e-13)

    @pytest.mark.parametrize("route", ["tintegral", "direct"])
    def test_hatted_k00_takes_its_route(self, route):
        # K00 has no weight, so hatted is cd_kernel by the same route
        p = EnsembleParams(0.5, 0.7, 1.5, 3)
        assert hatted(p, "K00", 0.6, 1.3, route) == cd_kernel(p, 0.6, 1.3,
                                                              route)


class TestSkewKernelBlocks:
    def test_delta_blocks_are_antisymmetric(self):
        zi, zj = 0.7, 1.4
        assert delta_k00_inf(0.3, 1.0, zi, zj) == pytest.approx(
            -delta_k00_inf(0.3, 1.0, zj, zi), rel=1e-10)
        assert delta_k11_inf(0.3, 1.0, zi, zj) == pytest.approx(
            -delta_k11_inf(0.3, 1.0, zj, zi), rel=1e-10)

    @pytest.mark.parametrize("a,theta,zi,zj", [
        (0.3, 1.0, 0.8, 1.7), (0.3, 1.0, 1.559, 1.7475),
        (0.5, 1.5, 0.4, 2.3), (-0.4, 1.3, 0.6, 0.9)])
    def test_delta_k11_carries_the_rational_part(self, a, theta, zi, zj):
        # the dressed K11 minus 1/(z_i + z_j), antisymmetrized, is the
        # smooth part's antisymmetrization minus the rational part
        b = a + 1.0

        def smooth(y, x):
            return hard_edge_kernel(a, b, theta, "K11", y, x)

        want = (zj ** a * zi ** b * smooth(zi, zj)
                - zi ** a * zj ** b * smooth(zj, zi)
                - (zj ** a * zi ** b - zi ** a * zj ** b) / (zi + zj))
        assert delta_k11_inf(a, theta, zi, zj) == pytest.approx(want,
                                                                rel=1e-13)

    def test_delta_k11_matches_hatted_difference(self):
        # N^{4a/theta} (hat-K11(z_i s, z_j s) - hat-K11(z_j s, z_i s)),
        # s = N^{-2/theta}, tends to the hard-edge block, rational part
        # included
        a, theta = 0.3, 1.0
        zi, zj = 0.8, 1.7
        limit = delta_k11_inf(a, theta, zi, zj)
        errs = []
        for n in (10, 20, 40):
            p, sc = _bures_scaled(a, theta, n)
            diff = (hatted(p, "K11", zi * sc, zj * sc)
                    - hatted(p, "K11", zj * sc, zi * sc))
            errs.append(abs(sc ** (-2.0 * a) * diff / limit - 1.0))
        assert errs[0] > errs[1] > errs[2]


class TestHardEdgeLimits:
    def test_cd_kernel_scaling_approaches_limit(self):
        a, b, theta = 0.5, 0.7, 1.0
        X, Y = 0.8, 1.3
        limit = hard_edge_kernel(a, b, theta, "K00", X, Y)
        errs = [abs(cd_hard_scaled(EnsembleParams(a, b, theta, n), X, Y)
                    / limit - 1.0) for n in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2]

    def test_k11_scaling_approaches_the_limit_less_its_pole(self):
        # hard_edge_kernel's K11 keeps 1/(X + Y), finite-N k11 leaves it
        # out; one Richardson step in 1/N over N = 40, 80 (6.5e-5 off)
        a, b, theta, X, Y = 0.3, 1.3, 1.0, 0.8, 1.5
        f = {n: n ** -2.0 * k11(EnsembleParams(a, b, theta, n), X / n ** 2,
                                Y / n ** 2) for n in (40, 80)}
        limit = hard_edge_kernel(a, b, theta, "K11", X, Y) - 1.0 / (X + Y)
        assert 2.0 * f[80] - f[40] == pytest.approx(limit, abs=1e-4)

    def test_delta_k00_block_scaling_approaches_limit(self):
        a, theta = 0.3, 1.0
        zi, zj = 0.8, 1.7
        limit = delta_k00_inf(a, theta, zi, zj)
        errs = []
        for n in (10, 20, 40):
            p, sc = _bures_scaled(a, theta, n)
            diff = (hatted(p, "K00", zi * sc, zj * sc)
                    - hatted(p, "K00", zj * sc, zi * sc))
            errs.append(abs(sc ** (2.0 * a + 2.0) * diff / limit - 1.0))
        assert errs[0] > errs[1] > errs[2]

    def test_sigma_block_scaling_approaches_limit(self):
        a, theta = 0.3, 1.0
        zi, zj = 0.8, 1.7
        limit = sigma_k01_inf(a, theta, zi, zj)
        errs = []
        for n in (10, 20, 40):
            p, sc = _bures_scaled(a, theta, n)
            block = (hatted(p, "K01", zj * sc, zi * sc)
                     + hatted(p, "K10", zi * sc, zj * sc))
            errs.append(abs(sc * block / limit - 1.0))
        assert errs[0] > errs[1] > errs[2]

    def test_bures_density_scaling_approaches_limit(self):
        from cauchybures.correlations import rho_bures_hard_edge
        a, theta, z = 0.3, 1.0, 0.9
        limit = rho_bures_hard_edge(a, theta, (z,))
        errs = []
        for n in (10, 20, 40):
            p, sc = _bures_scaled(a, theta, n)
            req = CorrelationRequest("bures", p, (z * sc,))
            errs.append(abs(sc * rho_bures(req, route="tintegral") / limit
                            - 1.0))
        assert errs[0] > errs[1] > errs[2]

    def test_k11_smooth_part_scaling_approaches_limit(self):
        # the finite-N smooth part k11 + 1/(x+y) grows like N^{2/theta}
        # at hard-edge scaled arguments, the same order as K01 and K10
        a, b, theta = 0.3, 1.3, 1.0
        Y, X = 0.8, 1.7
        limit = hard_edge_kernel(a, b, theta, "K11", Y, X)
        errs = []
        for n in (10, 20, 40):
            sc = n ** (-2.0 / theta)
            smooth = (k11(EnsembleParams(a, b, theta, n), Y * sc, X * sc)
                      + 1.0 / ((X + Y) * sc))
            errs.append(abs(sc * smooth / limit - 1.0))
        assert errs[0] > errs[1] > errs[2]


class TestKernelGrid:
    def _grid(self):
        p = EnsembleParams(0.5, 0.7, 1.5, 3)
        xs = [0.5, 1.0, 1.5]
        ys = [0.4, 0.9]
        return make_grid("K00", xs, ys,
                         lambda x, y: cd_kernel(p, x, y),
                         {"a": 0.5, "b": 0.7, "theta": 1.5, "n": 3})

    def test_round_trip_is_byte_identical(self):
        g1, g2 = self._grid(), self._grid()
        assert g1.to_csv() == g2.to_csv()
        assert g1.to_json() == g2.to_json()

    def test_json_parses_and_matches_values(self):
        g = self._grid()
        payload = json.loads(g.to_json())
        vals = np.asarray(payload["values"], dtype=float)
        assert vals.shape == (3, 2)
        assert np.allclose(vals, np.asarray(g.values))

    def test_numpy_scalars_round_trip(self):
        g = make_grid("K10", [0.5, 1.0], [0.4],
                      lambda x, y: np.float64(x / 3.0 + y), {})
        assert all(type(v) is float for row in g.values for v in row)
        assert KernelGrid.from_json(g.to_json()).values == g.values
        assert "np.float64" not in g.to_csv()

    @pytest.mark.parametrize("text", ["{}", "[1]", "nope", "5",
                                      '{"kind": "K00", "params": {}}'])
    def test_from_json_refuses_text_that_holds_no_grid(self, text):
        # once a bare KeyError, TypeError or JSONDecodeError
        with pytest.raises(DomainError, match="not a kernel grid"):
            KernelGrid.from_json(text)

    def test_rejects_unsorted_axes(self):
        with pytest.raises(DomainError):
            KernelGrid("K00", {}, [1.0, 0.5], [0.4], [[1.0], [1.0]])

    def test_rejects_nonpositive_points(self):
        with pytest.raises(DomainError):
            KernelGrid("K00", {}, [0.0, 0.5], [0.4], [[1.0], [1.0]])

    @pytest.mark.parametrize("xs,ys,values,error,message", [
        ([1.0, math.nan], [1.0, 2.0], [[1, 2], [3, 4]], DomainError,
         "strictly increasing"),
        ([math.nan], [1.0], [[1.0]], DomainError, "finite and positive"),
        ([1.0, math.inf], [1.0], [[1.0], [2.0]], DomainError,
         "finite and positive"),
        ([1.0, 2.0], [1.0], [[1.0, 2.0]], DomainError,
         "values shape mismatch"),
        ([1.0, 2.0], [1.0], [[1.0], [math.inf]], NonConverged,
         "non-finite kernel value")],
        ids=["nan-step", "nan-point", "inf-point", "shape", "inf-value"])
    def test_rejects_malformed_grids(self, xs, ys, values, error, message):
        # NaN axes once passed both the step and the sign test
        with pytest.raises(error, match=message):
            KernelGrid("K00", {}, xs, ys, values)


# ---------------------------------------------------------------------------
# large N against the mpmath double residue sum
# ---------------------------------------------------------------------------

class _MpKernels:
    """Finite-N kernels as the double residue sum, in mpmath.

    K_N(x, y) = theta sum_{j,k<N} cP_j cQ_k x^{theta j} y^{theta k}
    / (1 + alpha + j + k), cP_j = (-1)^j/j! Gamma(alpha+N+1+j)
    / (Gamma(N-j) Gamma(alpha+1+j) Gamma(a+theta j+1)); an integrated side
    replaces y^{theta k} by i1(b + theta k, c) = Gamma(beta+1) c^beta e^c
    Gamma(-beta, c).  Evaluate inside mpmath.workdps(40 + 2N): the sum
    cancels like 16^N.
    """

    def __init__(self, a, b, theta, n):
        self.a, self.b, self.th = (mpmath.mpf(v) for v in (a, b, theta))
        self.n = n
        al = (self.a + self.b + 1) / self.th - 1
        cp, cq = ([(-1) ** j / mpmath.factorial(j) * mpmath.gamma(al + n + 1 + j)
                   / (mpmath.gamma(n - j) * mpmath.gamma(al + 1 + j)
                      * mpmath.gamma(e + self.th * j + 1)) for j in range(n)]
                  for e in (self.a, self.b))
        self.table = [[self.th * cp[j] * cq[k] / (1 + al + j + k)
                       for k in range(n)] for j in range(n)]

    def powers(self, x):
        return [mpmath.mpf(x) ** (self.th * j) for j in range(self.n)]

    def i1s(self, e, c):
        c = mpmath.mpf(c)
        return [mpmath.gamma(e + self.th * j + 1) * c ** (e + self.th * j)
                * mpmath.exp(c) * mpmath.gammainc(-e - self.th * j, c)
                for j in range(self.n)]

    def contract(self, u, v):
        return mpmath.fsum(self.table[j][k] * u[j] * v[k]
                           for j in range(self.n) for k in range(self.n))

    def hatted(self, kind, p1, p2):
        """hatted() of the library: the kernels times their weights."""
        u, v = mpmath.mpf(p1), mpmath.mpf(p2)
        if kind == "K00":
            return self.contract(self.powers(p1), self.powers(p2))
        if kind == "K01":
            return (mpmath.exp(-v) * v ** self.a
                    * self.contract(self.powers(p1), self.i1s(self.b, p2)))
        if kind == "K10":
            return (mpmath.exp(-u) * u ** self.b
                    * self.contract(self.i1s(self.a, p1), self.powers(p2)))
        k11 = (self.contract(self.i1s(self.a, p1), self.i1s(self.b, p2))
               - 1 / (u + v))
        return mpmath.exp(-(u + v)) * v ** self.a * u ** self.b * k11


class TestLargeNAgainstMpmath:
    # parameters, points and tolerances of large_n benchmark cases that the
    # float double sums missed (cd_mid-1, -2, -8, rho_c11_lo-1,
    # rho_b2_lo-0), and two N = 80 hard-edge cases (cd_hard-5, -7)
    @pytest.mark.parametrize("p,x,y", [
        ((0.4, 1.4, 1.3, 24), 2.0778, 2.2319),
        ((0.3, 0.7, 1.5, 24), 1.7724, 2.1847),
        ((0.0, 0.0, 1.0, 24), 1.4056, 2.2531)])
    def test_cd_kernel(self, p, x, y):
        with mpmath.workdps(40 + 2 * p[3]):
            mk = _MpKernels(*p)
            want = mk.contract(mk.powers(x), mk.powers(y))
        assert cd_kernel(EnsembleParams(*p), x, y) == pytest.approx(
            float(want), rel=1e-7)

    @pytest.mark.parametrize("p,x,y", [
        ((0.0, 0.0, 1.0, 80), 1.7947, 3.7589),
        ((0.4, 1.4, 1.3, 80), 2.3404, 3.491)])
    def test_cd_hard_scaled(self, p, x, y):
        n = p[3]
        with mpmath.workdps(40 + 2 * n):
            mk = _MpKernels(*p)
            scale = mpmath.mpf(n) ** (-2 / mk.th)
            alpha = (mk.a + mk.b + 1) / mk.th - 1
            want = mpmath.mpf(n) ** (-2 * (alpha + 1)) * mk.contract(
                mk.powers(x * scale), mk.powers(y * scale))
        assert cd_hard_scaled(EnsembleParams(*p), x, y) == pytest.approx(
            float(want), rel=1e-7)

    def test_cauchy_one_plus_one_point(self):
        p, x, y = (0.5, 0.7, 1.5, 8), 0.7354, 1.3244
        with mpmath.workdps(40 + 2 * p[3]):
            mk = _MpKernels(*p)
            want = (mk.hatted("K01", x, x) * mk.hatted("K10", y, y)
                    - mk.hatted("K00", x, y) * mk.hatted("K11", y, x))
        req = CorrelationRequest("cauchy", EnsembleParams(*p), (x,), (y,))
        assert rho_cauchy(req) == pytest.approx(float(want), rel=1e-6)

    def test_bures_two_point(self):
        # 4 x 4 Pfaffian of the Cauchy-pair (a, a+1) blocks, prefactor -1/4
        (a, _, theta, n), zs = (0.3, 1.3, 1.3, 8), (0.4362, 1.7911)
        with mpmath.workdps(40 + 2 * n):
            mk = _MpKernels(a, a + 1.0, theta, n)

            def sk01(zi, zj):
                return mk.hatted("K01", zj, zi) + mk.hatted("K10", zi, zj)

            z0, z1 = zs
            d11 = mk.hatted("K11", z0, z1) - mk.hatted("K11", z1, z0)
            d00 = mk.hatted("K00", z1, z0) - mk.hatted("K00", z0, z1)
            pf = (d11 * d00 - sk01(z0, z0) * sk01(z1, z1)
                  + sk01(z0, z1) * sk01(z1, z0))
            want = -pf / 4
        req = CorrelationRequest("bures", EnsembleParams(a, a + 1.0, theta, n),
                                 zs)
        assert rho_bures(req) == pytest.approx(float(want), rel=1e-6)


class TestHardEdgeAgainstQuadrature:
    """hard_edge_kernel against values the library did not make: 30 digits
    of references.hard_edge_kernel_quad (mpmath.quad over the Meijer-G
    form of G~_inf and the power series of G_inf), confirmed at 40 (to 22
    digits or more; K11 at theta = 3/2 is the hardest quadrature).  Worst
    error 1.8e-14 (K10 at (0.5, 0.7, 1.5), (2.4, 0.55))."""

    POINTS = ((0.8387, 1.3539), (2.4, 0.55))
    # (a, b, p, q) -> kind -> values at POINTS; a = 0.5, theta = 3/2 has
    # colliding families (double poles of G~), (0.3, 1.3) is a Bures pair
    VALUES = {
        (0.3, 0.7, 3, 2): {
            "K10": ("0.467775010812383457109554811222",
                    "0.0954825723168811096720787330256"),
            "K01": ("0.271244806225170305138147954665",
                    "0.427152608534010127426166113211"),
            "K11": ("0.455980594756931880094817696036",
                    "0.342161777946423340379462008008")},
        (0.5, 0.7, 3, 2): {
            "K10": ("0.456299781555264310732511366041",
                    "0.103545067620033750855154592724"),
            "K01": ("0.286021568299018961752250194804",
                    "0.466481662133492067628159770456"),
            "K11": ("0.454982808736303522101812245544",
                    "0.345123321008790224354373407675")},
        (0.3, 1.3, 1, 1): {
            "K10": ("0.120541504483376273321068766909",
                    "0.0524259377261078121673900405238"),
            "K01": ("0.238773161628329628020043506044",
                    "0.270757689342059989685559264673"),
            "K11": ("0.432718294671737132215477325547",
                    "0.317635400472421586906628382364")},
    }

    @pytest.mark.parametrize("kind", ["K10", "K01", "K11"])
    @pytest.mark.parametrize("case", sorted(VALUES))
    def test_hard_edge_kernel_matches_quadrature(self, case, kind):
        a, b, p, q = case
        for (x1, x2), want in zip(self.POINTS, self.VALUES[case][kind]):
            want = float(want)
            got = hard_edge_kernel(a, b, p / q, kind, x1, x2)
            assert abs(got - want) <= 1e-12 * abs(want), (x1, x2)

    def test_values_are_the_quadrature(self):
        # the reference itself, at one cheap case (theta = 1, K11: two
        # Meijer-G sides)
        with mpmath.workdps(20):
            got = hard_edge_kernel_quad(0.3, 1.3, 1, 1, "K11", 2.4, 0.55)
        want = mpmath.mpf(self.VALUES[(0.3, 1.3, 1, 1)]["K11"][1])
        assert abs(got - want) <= 1e-15 * abs(want)


# ---------------------------------------------------------------------------
# the exact finite-N K11 core
# ---------------------------------------------------------------------------

class TestSharedSides:
    """Each integrated side is built once per correlation (_i1_side
    cache)."""

    # (request, distinct integrated sides): a two-point Bures correlation
    # has sides (a, z1), (a, z2), (b, z1) and (b, z2); the 1+1 Cauchy one
    # has (b, x) for K01 and K11, and (a, y) for K10 and K11
    CASES = [
        (CorrelationRequest("bures", EnsembleParams(0.3, 1.3, 1.0, 12),
                            (0.8, 1.5)), 4),
        (CorrelationRequest("cauchy", EnsembleParams(0.5, 0.7, 1.5, 12),
                            (0.8,), (1.3,)), 2)]

    @pytest.mark.parametrize("req,sides", CASES)
    def test_one_quadrature_set_per_side(self, monkeypatch, req, sides):
        # a side of theta = p/q, q < N, integrates its q chain seeds only
        rho = rho_bures if req.model == "bures" else rho_cauchy
        with monkeypatch.context() as m:  # every entry builds its own sides
            m.setattr(kernels, "_i1_side", kernels._i1_side.__wrapped__)
            uncached = rho(req)
        calls = []

        def counted(beta, c):
            calls.append((beta, c))
            return i1_integral(beta, c)

        monkeypatch.setattr(kernels, "i1_integral", counted)
        kernels._i1_side.cache_clear()
        assert repr(rho(req)) == repr(uncached)
        q = req.params.theta.as_integer_ratio()[1]
        assert len(calls) == sides * q

    def test_cached_side_is_read_only(self):
        mant, exp = kernels._i1_side(0.7, 1.5, 4, 0.9)
        for side in (mant, exp):
            with pytest.raises(ValueError):
                side[0] = 0


class TestSharedResidueTables:
    """Each t-integral side is one residue table (foxh._residue_table),
    built once and shared by a correlation's entries and by a grid's
    cells; the double sum reads it at each point."""

    @staticmethod
    def tables(run):
        """run()'s value and the residue tables it built."""
        foxh._residue_table.cache_clear()
        value = run()
        return value, foxh._residue_table.cache_info()

    def test_two_point_hard_edge_bures(self):
        # sides G and G~ at exponents a and a + 1: four tables for the
        # Pfaffian's 12 kernel entries, 24 sides.  The tanh-sinh
        # t-integral returned 0.004269423544277214 (2.3e-14 off)
        value, info = self.tables(
            lambda: rho_bures_hard_edge(0.3, 1.5, (0.8, 1.5)))
        assert info.misses == 4 and info.hits == 20
        assert repr(value) == "0.004269423544276869"
        # references.rho_bures_hard_edge_quad at 40 digits (30 agree)
        assert value == pytest.approx(
            0.004269423544277114932080432011684831469074, rel=1e-13)

    # references.hard_edge_kernel_quad at 40 digits (30 agree)
    GRID = [0.9413651146791013010128882032784805451567,
            0.8562456195008447852957837759025379910555,
            0.6869036342895587329740512116256006464556,
            0.4789355088978266971730932480975405075525,
            0.443568708357235448392615498236497569902,
            0.3728746676961161289048999003204557000752,
            0.2246760643534308297114419148100999610646,
            0.2137542664834958337482236703234778978759,
            0.1916727273117429367321876979317980531822]

    def test_hard_k10_grid(self):
        # a G~ table for every row and a G table for every column: two in
        # all for nine cells
        grid, info = self.tables(lambda: make_grid(
            "hard-K10", (0.4, 0.9, 1.6), (0.5, 1.1, 2.0),
            partial(hard_edge_kernel, 0.5, 0.7, 1.5, "K10"), {}))
        assert info.misses == 2 and info.hits == 16
        values = [v for row in grid.values for v in row]
        assert [repr(v) for v in values] == [
            "0.9413651146791044", "0.8562456195008475", "0.6869036342895599",
            "0.4789355088978312", "0.44356870835723944", "0.37287466769611805",
            "0.224676064353437", "0.21375426648350107", "0.19167272731174648"]
        for got, want in zip(values, self.GRID):
            assert got == pytest.approx(want, rel=1e-13)


class TestK11Core:
    @pytest.mark.parametrize("theta", [1.0, 1.5, 2.0, 1.3, 0.9])
    @pytest.mark.parametrize("c", [0.004, 0.5, 3.0, 40.0, 400.0])
    def test_chains_match_gammainc(self, monkeypatch, theta, c):
        # H(s) = e^c c^{-s} Gamma(s, c) at s = -e - theta j, each side value
        # and each seed that _h_chain takes (_h_seed), against one mpmath
        # upper gammainc per s.  e = 0 puts s = 0 and, at theta = 1 and 2,
        # every s on an integer; e = -0.9 has s > 0; c = 0.004-3 seeds by
        # the series, which loses up to 17 digits within 1e-17 of a pole,
        # c = 40 and 400 by the continued fraction; at c = 3 a chain turns
        # at s <= -2 and runs both ways from there, at c = 40 and 400 it
        # seeds at its bottom and runs up; theta = 1.3 and 0.9 have no
        # chain, so every j is a seed, and (e, theta) = (0.1, 0.9) puts s_1
        # 2.8e-17 off -1.  The reference runs 30 digits above the working
        # 50, because mpmath's gammainc itself loses up to 9 at c = 40.
        n, seeds = 12, []
        seed = kernels._h_seed

        def spied_seed(s, w, bits):
            seeds.append((s, bits, seed(s, w, bits)))
            return seeds[-1][-1]

        monkeypatch.setattr(kernels, "_h_seed", spied_seed)
        want = min(theta.as_integer_ratio()[1], n)
        for e in (0.0, 0.7, -0.9, 0.1):
            seeds.clear()
            with mpmath.workdps(50):
                got, unit = _h_chain(e, theta, n, c, mpmath.mp.prec,
                                     kernels._h_seed)
            assert len(seeds) == want
            with mpmath.workdps(80):
                w = mpmath.mpf(c)

                def ref(s):
                    return mpmath.exp(w) * w ** -s * mpmath.gammainc(s, w)

                th = mpmath.mpf(theta)
                err = max(abs(mpmath.ldexp(g, unit) / ref(-e - th * j) - 1)
                          for j, g in enumerate(got))
                seed_err = max(abs(mpmath.ldexp(g, -bits) / ref(
                    mpmath.mpf(s.numerator) / s.denominator) - 1)
                    for s, bits, g in seeds)
            assert err < 1e-48, (e, mpmath.nstr(err, 3))
            assert seed_err < 1e-48, (e, mpmath.nstr(seed_err, 3))

    def test_seed_past_total_cancellation(self, monkeypatch):
        # 2.8e-17 from the pole at -1 the series' difference loses 18
        # digits at w = 2: a first try at 5 + 2 * 4 = 13 digits keeps none
        # (it reads 3.8e3 against 0.277), and mp_sum must see that
        monkeypatch.setattr(kernels, "_DPS_STEP", 4)
        s = -Fraction(0.1) - Fraction(0.9)
        with mpmath.workdps(13):
            noise, log_peak = _h_series(s, 2.0)
        assert abs(noise) > 100
        with mpmath.workdps(5):
            got = _h_seed(s, 2.0, 40)
        with mpmath.workdps(80):
            sm = -mpmath.mpf(0.1) - mpmath.mpf(0.9)
            want = mpmath.exp(2) * 2 ** -sm * mpmath.gammainc(sm, 2)
            assert abs(mpmath.ldexp(got, -40) / want - 1) < 1e-10

    def test_seed_past_the_precision_ceiling(self, monkeypatch):
        # a loss that mp_sum refuses falls back to the continued fraction,
        # which needs no Gamma(s)
        monkeypatch.setattr(numerics, "_MAX_DPS", 64)
        fractions, fraction = [], kernels._h_fraction

        def spied_fraction(*args):
            fractions.append(args)
            return fraction(*args)

        monkeypatch.setattr(kernels, "_h_fraction", spied_fraction)
        s = -Fraction(0.1) - Fraction(0.9)
        with mpmath.workdps(50):
            got = _h_seed(s, 2.0, 220)
        # one fallback at the seed's own (w, bits); a cold _gamma_scaled
        # cache adds its own fraction at W = 128, which is not counted
        assert [args[1:] for args in fractions].count((2.0, 220)) == 1
        with mpmath.workdps(80):
            sm = -mpmath.mpf(0.1) - mpmath.mpf(0.9)
            want = mpmath.exp(2) * 2 ** -sm * mpmath.gammainc(sm, 2)
            assert abs(mpmath.ldexp(got, -220) / want - 1) < 1e-48

    def test_continued_fraction_refuses_past_its_term_cap(self):
        # at w = 1e-3 Legendre's fraction needs far more than its 1e5 terms
        with pytest.raises(NonConverged, match="unsettled after 1e5 terms"):
            _h_fraction(Fraction(-1, 2), 1e-3, 64)

    @pytest.mark.parametrize("s", [
        -Fraction(0.3), -Fraction(0.1) - Fraction(0.9), Fraction(0.9),
        -Fraction(0.3) - Fraction(1.3) * 160],
        ids=["-0.3", "near-pole", "0.9", "-208.3"])
    def test_gamma_scaled_without_mpmath_gamma(self, s):
        # e^W W^{-s} Gamma(s) at W = 128 from the sum and the continued
        # fraction at W, 2.8e-17 from a pole, at s > 0 and at s = -208.3,
        # against mpmath's gamma 64 bits above; without the fraction's
        # H(s, W) it is about e^{-128} = 2^{-185} off
        prec = 700
        got = kernels._gamma_scaled(s, prec)
        with mpmath.workprec(prec + 64):
            sm = mpmath.mpf(s.numerator) / s.denominator
            want = mpmath.exp(128) * mpmath.mpf(128) ** -sm * mpmath.gamma(sm)
            assert abs(got / want - 1) < mpmath.ldexp(1, 4 - prec)

    # (params, seeds per side): one chain per residue mod q where theta =
    # p/q with q < N, a seed per j otherwise
    @pytest.mark.parametrize("p,seeds", [
        ((0.0, 0.0, 1.0, 12), 1), ((0.2, 0.9, 2.0, 12), 1),
        ((0.3, 0.7, 1.5, 12), 2), ((0.4, 1.4, 1.3, 12), 12)])
    def test_one_seed_per_chain(self, monkeypatch, p, seeds):
        chains, seeded, upper, lower = [], [], [], []
        chain, seed, gammainc = (kernels._h_chain, kernels._h_seed,
                                 mpmath.gammainc)

        def counted_chain(*args):
            chains.append(args)
            return chain(*args)

        def counted_seed(s, w, bits):
            seeded.append(s)
            return seed(s, w, bits)

        def spied_gammainc(z, *args, **kwargs):
            # Gamma(z, w), the upper incomplete gamma, or gamma(z, w)
            (upper if len(args) == 1 else lower).append(z)
            return gammainc(z, *args, **kwargs)

        monkeypatch.setattr(kernels, "_h_chain", counted_chain)
        monkeypatch.setattr(kernels, "_h_seed", counted_seed)
        monkeypatch.setattr(mpmath, "gammainc", spied_gammainc)
        k11(EnsembleParams(*p), 0.6564, 1.8995)
        assert len(seeded) == seeds * len(chains) > 0
        assert all(mpmath.isint(z) for z in upper) and not lower

    def test_cached_tables_are_isolated(self):
        p = EnsembleParams(0.2, 0.9, 2.0, 12)
        want = repr(k11(p, 0.4, 0.9))
        k11(EnsembleParams(0.2, 0.9, 2.0, 14), 0.4, 0.9)
        for prec in (100, 700):
            _k11_tables(p.a, p.b, p.theta, p.n, prec)
        assert repr(k11(p, 0.4, 0.9)) == want
        _k11_tables.cache_clear()
        assert repr(k11(p, 0.4, 0.9)) == want

    @pytest.mark.parametrize("p", [(0.3, 0.7, 1.5, 12), (0.4, 1.4, 1.3, 40)])
    @pytest.mark.parametrize("prec", [100, 700])
    def test_integer_tables_are_the_exact_rationals(self, p, prec):
        # coef_j by the recurrence of Gamma(alpha+N+1+j) / (j! Gamma(N-j)
        # Gamma(alpha+1+j)) in Fractions, to one unit, and alpha + 1 exact
        a, b, theta, n = p
        al1 = (Fraction(a) + Fraction(b) + 1) / Fraction(theta)
        coef = [math.prod(al1 + i for i in range(n)) / math.factorial(n - 1)]
        for j in range(n - 1):
            coef.append(-coef[-1] * (al1 + n + j) * (n - 1 - j)
                        / ((j + 1) * (al1 + j)))
        got, unit, got_al1 = _k11_tables(a, b, theta, n, prec)
        assert got_al1 == al1
        assert len(got) == len(coef)
        assert all(abs(g - x / Fraction(2) ** unit) < 1
                   for g, x in zip(got, coef))
        # the coefficients keep prec + 16 bits under their first entry
        assert got[0].bit_length() >= prec + 16

    @pytest.mark.parametrize("p", [(0.3, 0.7, 1.5, 12), (0.4, 1.4, 1.3, 40)])
    @pytest.mark.parametrize("prec", [100, 700])
    def test_pair_sum_is_the_exact_rational(self, p, prec):
        # K11's double sum on foxh._family_sum: two dense Gamma(u) sides
        # (poles u = -j, form (0, 1, 1)) of prec-bit entries of either
        # sign, against sum x_j y_k / (c + j + k) in Fractions, c = alpha
        # + 1.  Each weight Q 2^fix / (P + mQ) is floored, and so is the
        # total: the sum lies within sum |x_j y_k| 2^-fix + 1 of the exact
        # one, which with prec + 16 bits under the first weight is below
        # 2^-prec of the largest term
        a, b, theta, n = p
        c = _k11_tables(a, b, theta, n, prec)[2]
        fix = prec + 16 + c.numerator.bit_length() - c.denominator.bit_length()
        rng = random.Random(prec + n)
        xs, ys = ([rng.choice((-1, 1)) * rng.getrandbits(prec) | 1
                   for _ in range(n)] for _ in range(2))
        got = foxh._family_sum(c, (0, 1, 1), (0, 1, 1), *(
            {k: [v] for k, v in enumerate(side)} for side in (xs, ys)), fix)
        want = sum(x * y / (c + j + k) for j, x in enumerate(xs)
                   for k, y in enumerate(ys))
        slack = Fraction(sum(abs(x * y) for x in xs for y in ys), 2 ** fix)
        assert abs(got - want) <= slack + 1
        assert (slack + 1) * c * 2 ** prec <= max(map(abs, xs)) * max(
            map(abs, ys))

    def test_core_sums_through_the_pair_sum(self, monkeypatch):
        # every pass of the core is one _family_sum on one Gamma(u) family
        # per side, at c = alpha + 1 exact, its weights at least prec + 16
        # bits under the first
        calls, pair_sum = [], kernels._family_sum

        def spied(c, fa, fb, a, b, fix):
            calls.append((c, fa, fb, len(a), len(b), mpmath.mp.prec,
                           (c.denominator << fix) // c.numerator))
            return pair_sum(c, fa, fb, a, b, fix)

        monkeypatch.setattr(kernels, "_family_sum", spied)
        p = EnsembleParams(0.3, 0.7, 1.5, 12)
        k11(p, 0.6564, 1.8995)
        assert calls
        al1 = (Fraction(p.a) + Fraction(p.b) + 1) / Fraction(p.theta)
        for c, fa, fb, na, nb, prec, h0 in calls:
            assert (c, fa, fb, na, nb) == (al1, (0, 1, 1), (0, 1, 1), 12, 12)
            assert h0.bit_length() >= prec + 16

    # the parent's values of the exact core, kept bit for bit: bulk at N =
    # 80 with a seed per j, far below 1/(x + y), past 1e15 and at large w
    @pytest.mark.parametrize("p,y,x,want", [
        ((0.4, 1.4, 1.3, 80), 1.1597, 1.9211, "6.872240447859628e-25"),
        ((0.3, 0.7, 1.0, 80), 30.0, 22.0, "-8.360256913770507e-60"),
        ((0.5, 0.7, 1.5, 3), 1e15, 1.0, "-1.2039965054675063e-16"),
        ((0.3, 0.7, 1.5, 40), 700.0, 650.0, "-5.539490505023075e-07")])
    def test_values_keep_their_bits(self, p, y, x, want):
        assert repr(k11(EnsembleParams(*p), y, x)) == want

    def test_large_point_needs_no_guard_digits(self):
        # at w = 650 and 700 every chain runs upward, where no step grows
        # an error, from a continued-fraction seed; downward it would carry
        # 168 guard digits (3.5 s for the first call); perfbench/mpref.k11
        # at 40 + 2N digits, confirmed at 30 more
        p = EnsembleParams(0.3, 0.7, 1.5, 40)
        assert k11(p, 700.0, 650.0) == pytest.approx(-5.5394905050230754e-7,
                                                     rel=1e-12)

    @pytest.mark.parametrize("y,want", [
        (1e15, -1.2039965054675063e-16), (1e20, -1.203996505467528e-21),
        (1e300, -1.2039965054675278e-301)])
    def test_points_past_1e15(self, y, want):
        # the continued fraction's Lentz fixed point divides by b ~ w, so
        # it loses w's bits; it once never settled from about 1e15 on.
        # perfbench/mpref.k11's nearest double at 80 digits (110 agree)
        assert k11(EnsembleParams(0.5, 0.7, 1.5, 3), y, 1.0) == want

    def test_gamma_cache_holds_a_parameter_set(self):
        # theta = 1.3 seeds every j: the two N = 80 sides of k11 at
        # (0.4, 1.4, 1.3, 80) ask _gamma_scaled for 159 s and cache 318
        # values (each s and its reduction into (0, 1)); the next point, at
        # the same s, finds all 159.  A cache of 256 entries found none.
        kernels._gamma_scaled.cache_clear()
        with mpmath.workdps(15):
            for w in (0.6564, 1.8995):
                for e in (0.4, 1.4):
                    _h_chain(e, 1.3, 80, w, mpmath.mp.prec, _h_seed)
        info = kernels._gamma_scaled.cache_info()
        assert (info.hits, info.misses) == (159, 318)

    def test_every_seed_by_the_continued_fraction(self, monkeypatch):
        # theta = 1.3 has no chain: all 2N seeds, at w >= 300, come from
        # the continued fraction, none from the series; perfbench/mpref.k11
        # at 40 + 2N digits, confirmed at 30 more
        calls = Counter()

        def counted(fn):
            def call(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return call

        for name in ("_h_fraction", "_h_series"):
            monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
        p = EnsembleParams(0.4, 1.4, 1.3, 24)
        assert k11(p, 320.0, 300.0) == pytest.approx(
            -1.001723379766171883e-05, rel=1e-12)
        assert calls == {"_h_fraction": 2 * p.n}

    # hard-edge-scale points x, y ~ N^{-2/theta}, where |K11| is ~1e-2 of
    # its 1/(x+y) floor (in the bulk it is ~1e-16 of it, and a core that
    # returned 1/(x+y) would pass); references: perfbench/mpref.k11 at
    # 40 + 2N digits, confirmed at 30 more
    @pytest.mark.parametrize("p,y,x,want", [
        ((0.2, 0.9, 2.0, 80), 0.00625, 0.0125, 1.191806530817152),
        ((0.3, 0.7, 1.5, 80), 0.00145, 0.0029, 2.5268443109391185),
        ((0.0, 0.0, 1.0, 80), 7.81e-5, 1.5625e-4, -227.35340526040278),
        ((0.4, 1.4, 1.3, 24), 0.00376, 0.00753, -2.5063129982434114)])
    def test_hard_edge_scale_sweep(self, p, y, x, want):
        assert k11(EnsembleParams(*p), y, x) == pytest.approx(
            want, rel=0, abs=1e-15 / (x + y))

    def test_bulk_value_by_seed_per_j(self):
        # theta = 1.3 seeds every j (no chain); perfbench/mpref.k11 at
        # 40 + 2N digits, confirmed at 30 more
        p = EnsembleParams(0.4, 1.4, 1.3, 40)
        assert k11(p, 1.2, 1.0) == pytest.approx(-1.1285618521507182e-14,
                                                 rel=1e-12)

    def test_bulk_value_below_its_floor(self):
        # in the bulk K11 is ~1e-16 of its 1/(x+y) floor: a core whose
        # alpha or difference is rounded to a double keeps no digit of it
        # (-1.11e-16 here); perfbench/mpref.k11 at 200 and 320 digits
        p = EnsembleParams(0.5, 0.7, 2.0, 80)
        assert k11(p, 1.2, 1.0) == pytest.approx(-1.6616642399593173e-16,
                                                 rel=1e-10)


class TestHSumAccuracy:
    """_h_sum, sum_k w^k/(s)_{k+1}, is M(1, s + 1, w)/s with M Kummer's
    function (DLMF 13.2.2).  Its backward Horner pass on integers keeps its
    error within a few units of its working precision on the largest |term|
    (21 on this grid)."""

    @pytest.mark.parametrize("prec", [80, 700])
    @pytest.mark.parametrize("w", [0.05, 2.0, 20.0, 128.0])
    @pytest.mark.parametrize("s", [
        -Fraction(0.3), Fraction(0.9), -Fraction(0.1) - Fraction(0.9),
        -Fraction(10.45), -Fraction(0.3) - Fraction(1.3) * 160,
        -Fraction(99.7)],
        ids=["-0.3", "0.9", "near-pole", "-10.45", "-208.3", "-99.7"])
    def test_sum_within_units_of_its_largest_term(self, s, w, prec):
        # s = -(0.1 + 0.9) exactly lies 2.8e-17 from the pole at -1; at
        # -208.3 and -99.7 the terms up to k ~ -s alternate in sign
        with mpmath.workprec(prec):
            got, log_peak = kernels._h_sum(s, w)
        with mpmath.workprec(prec + 200):
            sm = mpmath.mpf(s.numerator) / s.denominator
            want = mpmath.hyp1f1(1, sm + 1, w) / sm
            unit = mpmath.ldexp(mpmath.exp(log_peak), -prec)
            assert abs(got - want) <= 64 * unit, mpmath.nstr(
                abs(got - want) / unit, 3)


class TestHankelForm:
    """numerics._hankel_form, the exact pair sum's (foxh._family_sum) one
    big-integer product for K11 and the t-integrals, against the plain
    sum_j ia_j sum_k h_{j+k} ib_k it replaced."""

    @staticmethod
    def plain(ia, ib, h):
        n = len(ia)
        return sum(a * sum(x * y for x, y in zip(h[j:j + n], ib))
                   for j, a in enumerate(ia))

    @pytest.mark.parametrize("n", [1, 2, 7, 80])
    @pytest.mark.parametrize("bits", [1, 64, 1200])
    @pytest.mark.parametrize("signs", ["mixed", "negative", "zero"])
    def test_equals_the_plain_double_sum(self, n, bits, signs):
        # entries of 1 to `bits` bits, ib's at most half as wide as ia's
        # (the slot width takes both), h of up to 700 bits; "zero" makes
        # ia all zero, "negative" every entry of ia and ib negative
        rng = random.Random(1000 * n + bits)

        def entry(most, sign):
            b = rng.randint(1, most)
            return sign * (rng.getrandbits(b) | 1 << b - 1)

        def vector(most):
            return [entry(most, -1 if signs == "negative"
                          else rng.choice((-1, 1))) for _ in range(n)]

        ia = [0] * n if signs == "zero" else vector(bits)
        ib = vector(max(1, bits // 2))
        h = [rng.getrandbits(rng.randint(1, 700)) for _ in range(2 * n - 1)]
        got = numerics._hankel_form(ia, ib, h)
        assert got == self.plain(ia, ib, h)
        assert numerics._hankel_form(ib, ia, h) == got
        if signs == "zero":
            assert got == 0

    @pytest.mark.parametrize("n", [3, 80, 255])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slots_hold_the_largest_sums(self, n, sign):
        # every entry at +-(2^603 - 1): the middle slot's sum nears N
        # 2^1206, which needs the bits of N and a sign bit beyond 1206; at
        # N = 3 that is 1209, one past the 1208 that whole bytes would give
        # without the sign bit
        ia = [(1 << 603) - 1] * n
        ib = [sign * x for x in ia]
        rng = random.Random(n)
        h = [rng.getrandbits(700) for _ in range(2 * n - 1)]
        assert numerics._hankel_form(ia, ib, h) == self.plain(ia, ib, h)

    @pytest.mark.parametrize("p,y,x,want", [
        ((0.5, 0.7, 1.5, 80), 2.1521, 2.5065, "3.0672019492017332e-27"),
        ((0.0, 0.0, 1.0, 72), 1.3653, 2.0718, "-3.838838274295526e-27")])
    def test_k11_keeps_its_bits(self, p, y, x, want):
        # two of the benchmark's k11_hi cases (large_n), as the plain
        # double sum gave them; each is also the nearest double to its
        # 200- or 184-digit mpmath reference
        assert repr(k11(EnsembleParams(*p), y, x)) == want
