"""Tests for the bi-orthogonal and skew-orthogonal polynomial families."""
import math

import mpmath
import numpy as np
import pytest

from cauchybures.exceptions import DomainError
from cauchybures.ensembles import (EnsembleParams, moment_c, partition_bures,
                                   partition_cauchy)
from cauchybures.polynomials import (PolySeries, coeff_c, jacobi_p,
                                     monic_pair, p_hat, phi_bures, q_hat)
from references import (jacobi_series_value, p_hat_det, q_hat_det,
                        simplex_quad_2d)


def poly_eval(series: PolySeries, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for k, c in enumerate(series.coeffs):
        out += c * t ** k
    return out


class TestBiorthogonality:
    @pytest.mark.parametrize("a,b,theta", [(0.5, 0.7, 1.5), (0.0, 0.0, 1.0)])
    def test_inner_products_via_simplex_quadrature(self, a, b, theta):
        # <P_n(x^theta), Q_m(y^theta)> under x^a y^b e^{-x-y}/(x+y)
        p = EnsembleParams(a, b, theta, 8)
        rule = simplex_quad_2d(a, b, 320, 320)
        for n in range(7):
            pn = p_hat(p, n)
            for m in range(7):
                qm = q_hat(p, m)
                val = rule.integrate(
                    lambda x, y: poly_eval(pn, x ** theta)
                    * poly_eval(qm, y ** theta))
                expect = (1.0 / (2.0 * theta * n + a + b + 1.0)
                          if n == m else 0.0)
                assert abs(val - expect) < 1e-8

    def test_moment_route_matches_quadrature_route(self):
        # the same inner products through the exact bimoments
        p = EnsembleParams(0.5, 0.7, 1.5, 8)
        for n in range(4):
            pn, qn = p_hat(p, n), q_hat(p, n)
            acc = sum(cl * ck * moment_c(p, l + 1, k + 1)
                      for l, cl in enumerate(pn.coeffs)
                      for k, ck in enumerate(qn.coeffs))
            assert acc == pytest.approx(
                1.0 / (2.0 * p.theta * n + p.a + p.b + 1.0), rel=1e-10)


class TestJacobiConnection:
    @pytest.mark.parametrize("alpha", [0.0, 0.8, 2.3])
    def test_coefficient_sum_matches_recurrence(self, alpha):
        xs = np.linspace(0.0, 1.0, 21)
        for n in range(13):
            series = np.array([jacobi_series_value(n, alpha, x) for x in xs])
            rec = np.array([jacobi_p(n, alpha, x) for x in xs])
            scale = np.max(np.abs(rec))
            assert np.max(np.abs(series - rec)) <= 1e-10 * scale

    @pytest.mark.parametrize("alpha", [0.0, 0.8, 2.3])
    def test_series_matches_80_digit_sums_to_degree_60(self, alpha):
        # no degree refusal: the re-sum takes as many digits as the
        # cancellation (~0.6 n digits at x = 1) eats
        for n in (0, 7, 19, 20, 33, 47, 60):
            with mpmath.workdps(80):
                al = mpmath.mpf(alpha)
                coeffs = [(-1) ** l * mpmath.gamma(al + n + l + 1)
                          / (mpmath.factorial(l) * mpmath.factorial(n - l)
                             * mpmath.gamma(al + l + 1))
                          for l in range(n + 1)]
            for x in np.linspace(0.0, 1.0, 5):
                with mpmath.workdps(80):
                    want = mpmath.polyval(coeffs[::-1], x)
                got = jacobi_series_value(n, alpha, float(x))
                assert abs(got - want) <= 1e-13 * max(abs(want), 1), (n, x)

    def test_double_precision_coefficients_at_small_degree(self):
        # the plain-float coefficient route is exact while the
        # alternating coefficients stay small
        for alpha in (0.0, 0.8):
            for n in range(6):
                for x in (0.0, 0.37, 1.0):
                    series = sum(coeff_c(n, l, alpha) * x ** l
                                 for l in range(n + 1))
                    assert series == pytest.approx(jacobi_p(n, alpha, x),
                                                   rel=1e-11, abs=1e-11)

    def test_value_at_one_is_binomial(self):
        # P_n^{(alpha,0)}(1 - 2x) at x = 0 equals C(n+alpha, n)
        for n in range(8):
            for alpha in (0.0, 1.5):
                want = math.gamma(n + alpha + 1.0) / (
                    math.gamma(alpha + 1.0) * math.gamma(n + 1.0))
                assert jacobi_p(n, alpha, 0.0) == pytest.approx(want,
                                                                rel=1e-12)


class TestDegreeRange:
    def test_coeff_c_index_outside_degree_is_domain_error(self):
        for l in (-1, 4):
            with pytest.raises(DomainError):
                coeff_c(3, l, 0.5)

    @pytest.mark.parametrize("a,theta", [(0.0, 1.0), (0.3, 1.5), (0.2, 2.0)])
    def test_hat_coefficients_at_degree_79(self, a, theta):
        # N = 80: the coefficients span ~1e-234 to ~1e21, all doubles;
        # rounding a + theta*l + 1 to a double moves Gamma by up to ~5e-14
        p = EnsembleParams(a, a + 1.0, theta, 80)
        got = p_hat(p, 79).coeffs
        with mpmath.workdps(40):
            al = (mpmath.mpf(a) + mpmath.mpf(a + 1.0) + 1) / theta - 1
            want = [(-1) ** l * mpmath.gamma(al + 79 + l + 1)
                    / (mpmath.factorial(l) * mpmath.factorial(79 - l)
                       * mpmath.gamma(al + l + 1)
                       * mpmath.gamma(mpmath.mpf(a) + theta * l + 1))
                    for l in range(80)]
        assert max(abs(g / float(w) - 1.0) for g, w in zip(got, want)) < 1e-13

    def test_refusal_stays_where_accuracy_runs_out(self):
        # the determinant forms' pair product is off by up to 1.1e-11 at
        # degree 4 and 5e-8 at degree 5, past the 1e-8 asked of it
        p = EnsembleParams(0.5, 0.7, 1.5, 21)
        x, y = 0.7, 1.3
        direct = (float(poly_eval(p_hat(p, 4), x))
                  * float(poly_eval(q_hat(p, 4), y)))
        assert p_hat_det(p, 4, x) * q_hat_det(p, 4, y) == pytest.approx(
            direct, rel=1e-8)
        for det_form in (p_hat_det, q_hat_det):
            with pytest.raises(DomainError, match="ill-conditioned"):
                det_form(p, 5, 0.5)
        assert len(phi_bures(p, 79).coeffs) == 80

    @pytest.mark.parametrize("n", [2.5, -1])
    def test_degree_must_be_a_non_negative_integer(self, n):
        p = EnsembleParams(0.5, 0.7, 1.5, 3)
        for call in (lambda: p_hat(p, n), lambda: jacobi_series_value(n, 0.8,
                                                                      0.5)):
            with pytest.raises(DomainError, match="non-negative integer"):
                call()


class TestDeterminantForms:
    # The hatted normalization fixes only the product of the two
    # families; the determinant route splits the constant differently,
    # so each family agrees with the series route up to a constant
    # factor (-1)^n r_n with the r_n cancelling across the pair.
    def test_det_route_is_constant_multiple_of_series(self):
        p = EnsembleParams(0.5, 0.7, 1.5, 8)
        for n in range(5):
            series = p_hat(p, n)
            ratios = [p_hat_det(p, n, x) / float(poly_eval(series, x))
                      for x in (0.2, 0.4, 1.1, 1.7)]
            assert np.ptp(ratios) < 1e-9 * abs(ratios[0])
            assert math.copysign(1.0, ratios[0]) == (-1.0) ** n

    def test_det_route_pair_product_invariant(self):
        p = EnsembleParams(0.5, 0.7, 1.5, 8)
        x, y = 0.7, 1.3
        for n in range(5):
            direct = (float(poly_eval(p_hat(p, n), x))
                      * float(poly_eval(q_hat(p, n), y)))
            via_det = p_hat_det(p, n, x) * q_hat_det(p, n, y)
            assert via_det == pytest.approx(direct, rel=1e-8)

    def test_monic_pair_is_monic(self):
        p = EnsembleParams(0.4, 1.4, 1.5, 6)
        for n in range(5):
            pt, qt, _ = monic_pair(p, n)
            assert pt.coeffs[-1] == pytest.approx(1.0, rel=1e-10)
            assert qt.coeffs[-1] == pytest.approx(1.0, rel=1e-10)

    def test_monic_normalization_tracks_partition_ratio(self):
        # <P~_n, Q~_n> = Z_{n+1} / Z_n
        p = EnsembleParams(0.4, 1.4, 1.5, 6)
        for n in range(1, 4):
            pt, qt, _ = monic_pair(p, n)
            acc = sum(cl * ck * moment_c(p, l + 1, k + 1)
                      for l, cl in enumerate(pt.coeffs)
                      for k, ck in enumerate(qt.coeffs))
            want = (partition_cauchy(p.with_n(n + 1))
                    / partition_cauchy(p.with_n(n))).to_real()
            assert acc == pytest.approx(want, rel=1e-8)


class TestBuresCauchyRelations:
    @pytest.mark.parametrize("a,theta", [(0.0, 1.0), (0.4, 1.5)])
    def test_linear_relations_coefficientwise(self, a, theta):
        # monic Cauchy pair at weights (a, a+1) vs the skew family phi_n:
        #   P~_n + Q~_n = 2 phi_n
        #   Q~_n = phi_n - c_n phi_{n-1},  P~_n = phi_n + c_n phi_{n-1}
        # with c_n = Z^B_{n+1} Z^B_{n-1} / (Z^B_n)^2 and Z^B_0 = 1
        for n in range(1, 16):
            p = EnsembleParams(a, a + 1.0, theta, n + 2)
            pt, qt, _ = monic_pair(p, n)
            phi_n = np.array(phi_bures(p, n).coeffs)
            phi_m = np.zeros_like(phi_n)
            prev = phi_bures(p, n - 1).coeffs
            phi_m[:len(prev)] = prev
            z_next = partition_bures(p.with_n(n + 1)).to_real()
            z_here = partition_bures(p.with_n(n)).to_real()
            z_prev = (partition_bures(p.with_n(n - 1)).to_real()
                      if n > 1 else 1.0)
            c_n = z_next * z_prev / z_here ** 2
            pt = np.array(pt.coeffs)
            qt = np.array(qt.coeffs)
            scale = np.max(np.abs(pt))
            assert np.max(np.abs(pt + qt - 2.0 * phi_n)) < 1e-8 * scale
            assert np.max(np.abs(qt - (phi_n - c_n * phi_m))) < 1e-8 * scale
            assert np.max(np.abs(pt - (phi_n + c_n * phi_m))) < 1e-8 * scale

    def test_phi_is_monic(self):
        p = EnsembleParams(0.4, 1.4, 1.5, 6)
        for n in range(5):
            phi = phi_bures(p, n)
            assert phi.coeffs[-1] == pytest.approx(1.0, rel=1e-9)
