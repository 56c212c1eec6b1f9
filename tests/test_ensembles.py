"""Tests for moments and partition functions of both ensembles."""
import math

import numpy as np
import pytest
from scipy import integrate

from cauchybures.ensembles import (EnsembleParams, moment_b, moment_b_vec,
                                   moment_c, partition_bures,
                                   partition_bures_squared_identity,
                                   partition_cauchy, partition_cauchy_det)
from cauchybures.exceptions import ComplexityError, DomainError
from cauchybures.numerics import SkewMatrix, pfaffian, pfaffian_bordered


class TestParams:
    def test_derived_exponents(self):
        p = EnsembleParams(0.5, 0.7, 1.5, 3)
        assert p.alpha == pytest.approx((0.5 + 0.7 + 1.0) / 1.5 - 1.0)
        assert p.bures_pair().b == pytest.approx(p.a + 1.0)

    @pytest.mark.parametrize("bad", [(-1.0, 0.0, 1.0, 2),
                                     (0.0, 0.0, 0.0, 2),
                                     (0.0, 0.0, 1.0, 0),
                                     (-0.5, -0.5, 1.0, 2),
                                     (math.nan, 0.7, 1.5, 3),
                                     (0.5, math.inf, 1.5, 3),
                                     (0.5, 0.7, math.nan, 3),
                                     (0.5, 0.7, math.inf, 3),
                                     (0.5, 0.7, 1.5, 2.5),
                                     (0.5, 0.7, 1.5, 3.0)])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(DomainError):
            EnsembleParams(*bad)

    def test_divergent_bimoments_rejected(self):
        # a, b > -1 each, but a + b <= -1: every Cauchy bimoment diverges,
        # so no finite partition function may come back
        with pytest.raises(DomainError):
            partition_cauchy(EnsembleParams(-0.9, -0.9, 1.0, 3))


class TestMoments:
    def test_cauchy_bimoment_against_adaptive_quadrature(self):
        # I_{j,k} = int x^{a+t(j-1)} y^{b+t(k-1)} e^{-x-y}/(x+y)
        p = EnsembleParams(0.5, 0.7, 1.5, 2)
        for j, k in ((1, 1), (2, 1), (2, 3)):
            want, _ = integrate.dblquad(
                lambda y, x: (x ** (p.a + p.theta * (j - 1))
                              * y ** (p.b + p.theta * (k - 1))
                              * math.exp(-x - y) / (x + y)),
                0, 80, 0, 80, epsabs=1e-12, epsrel=1e-10)
            assert moment_c(p, j, k) == pytest.approx(want, rel=1e-8)

    def test_scalar_moment_is_gamma(self):
        p = EnsembleParams(0.3, 1.3, 1.5, 2)
        assert moment_b_vec(p, 1) == pytest.approx(math.gamma(1.3), rel=1e-13)
        assert moment_b_vec(p, 3) == pytest.approx(math.gamma(0.3 + 3.0 + 1.0),
                                                   rel=1e-13)

    def test_skew_moment_antisymmetry(self):
        p = EnsembleParams(0.3, 1.3, 1.5, 2)
        for j, k in ((1, 2), (1, 3), (2, 4)):
            assert moment_b(p, j, k) == pytest.approx(-moment_b(p, k, j),
                                                      rel=1e-12)
        assert moment_b(p, 2, 2) == 0.0

    def test_indices_start_at_one(self):
        p = EnsembleParams(0.0, 0.0, 1.0, 2)
        with pytest.raises(DomainError):
            moment_c(p, 0, 1)
        with pytest.raises(DomainError):
            moment_b(p, 1, 0)

    def test_indices_must_be_integers(self):
        # the bimoments are defined at integer indices only; these once
        # returned 0.617 and -1.680
        for call in (
                lambda: moment_c(EnsembleParams(0.5, 0.7, 1.5, 3), 1.5, 2),
                lambda: moment_b(EnsembleParams(0.5, 1.5, 1.5, 3), 2.5, 1),
                lambda: moment_b_vec(EnsembleParams(0.5, 1.5, 1.5, 3), 1.5)):
            with pytest.raises(DomainError, match="positive integers"):
                call()
        # numpy integers are integers
        p = EnsembleParams(0.5, 0.7, 1.5, 3)
        assert moment_c(p, np.int64(2), np.int64(1)) == moment_c(p, 2, 1)

    def test_past_double_range_raises_complexity_error(self):
        # as raney does; the first three raised a bare OverflowError, and
        # the last returned -inf, where i_j i_k overflows but I^C does not
        p = EnsembleParams(0.5, 0.7, 1.5, 3)
        for call in (lambda: moment_c(p, 200, 200),
                     lambda: moment_b(p, 200, 100),
                     lambda: moment_b_vec(p, 200),
                     lambda: moment_b(EnsembleParams(0.6, 0.7, 1.0, 3), 171,
                                      2)):
            with pytest.raises(ComplexityError, match="overflows a double"):
                call()


class TestCauchyPartition:
    def test_hand_value_n2(self):
        z2 = partition_cauchy(EnsembleParams(0.0, 0.0, 1.0, 2)).to_real()
        assert z2 == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_n1_is_first_bimoment(self):
        p = EnsembleParams(0.5, 0.7, 1.5, 1)
        assert partition_cauchy(p).to_real() == pytest.approx(
            moment_c(p, 1, 1), rel=1e-13)

    @pytest.mark.parametrize("a,b,theta", [(0.0, 0.0, 1.0),
                                           (0.5, 0.25, 1.0),
                                           (0.3, 0.7, 1.5),
                                           (0.0, 0.0, 2.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_closed_form_equals_moment_determinant(self, a, b, theta, n):
        # the core determinant is exact, so only the logs' rounding is
        # left (worst 2.8e-14; the float LU missed by 5e-7 at n = 8)
        p = EnsembleParams(a, b, theta, n)
        closed = partition_cauchy(p)
        det = partition_cauchy(p, route="det")
        assert det.sign == closed.sign == 1
        assert abs(det.log_mag - closed.log_mag) <= 1e-13

    @pytest.mark.parametrize("p,log", [
        ((0.4, 1.4, 1.3, 8), 14.848455294509133),
        ((0.4, 1.4, 1.3, 7), 5.382852777659358),
        ((0.0, 0.0, 1.0, 7), -21.92917333698638),
        ((0.5, 0.7, 1.5, 6), 7.966435131349834)])
    def test_moment_determinant_against_mpmath(self, p, log):
        # log Z from the closed product at 60 digits in mpmath; the float
        # LU this route used was 5e-7 off at the first two
        det = partition_cauchy(EnsembleParams(*p), route="det")
        assert det.sign == 1 and abs(det.log_mag - log) <= 1e-13

    def test_large_n_stays_finite_in_log_form(self):
        p = EnsembleParams(0.5, 0.7, 1.5, 40)
        lv = partition_cauchy(p)
        assert math.isfinite(lv.log_mag)


class TestBuresPartition:
    @pytest.mark.parametrize("a,theta", [(0.0, 1.0), (0.5, 1.0),
                                         (0.2, 1.5), (0.0, 2.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_squared_identity(self, a, theta, n):
        # (Z^B_N)^2 = 2^N Z^C_N at the weight pair (a, a+1); Schur product
        # on the left
        p = EnsembleParams(a, a + 1.0, theta, n)
        product = partition_bures(p)
        rhs = partition_bures(p, route="cauchy")
        assert product.to_real() == pytest.approx(rhs.to_real(), rel=1e-7)

    @pytest.mark.parametrize("theta", [1.0, 1.3, 2.0])
    @pytest.mark.parametrize("n", [12, 20, 21, 41, 80])
    def test_squared_identity_at_large_n(self, n, theta):
        # compared in log: Z^B itself overflows a double at N = 80
        p = EnsembleParams(0.3, 1.3, theta, n)
        product = partition_bures(p)
        rhs = partition_bures(p, route="cauchy")
        assert product.sign == 1
        assert abs(product.log_mag - rhs.log_mag) <= 1e-10 * max(
            1.0, abs(rhs.log_mag))

    @pytest.mark.parametrize("a,theta", [(0.0, 1.0), (0.3, 1.3), (0.2, 2.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_product_equals_defining_pfaffian(self, a, theta, n):
        # the defining route: Pf of the skew moments I^B_{j,k}, bordered by
        # the scalar moments i_j = Gamma(x_j) for odd N
        p = EnsembleParams(a, a + 1.0, theta, n)
        upper = np.zeros((n, n))
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                upper[j - 1, k - 1] = moment_b(p, j, k)
        m = SkewMatrix(upper)
        if n % 2 == 0:
            pf = pfaffian(m)
        else:
            pf = pfaffian_bordered(
                m, [moment_b_vec(p, j) for j in range(1, n + 1)])
        product = partition_bures(p)
        assert pf.sign == product.sign == 1
        assert abs(pf.log_mag - product.log_mag) <= 1e-8

    def test_n1_against_gamma(self):
        p = EnsembleParams(0.3, 1.3, 1.5, 1)
        assert partition_bures(p).to_real() == pytest.approx(
            math.gamma(1.3), rel=1e-12)


class TestRoutes:
    @pytest.mark.parametrize("n", [3, 8, 9, 20])
    def test_benchmark_aliases_are_the_routes(self, n):
        # partition_cauchy_det / partition_bures_squared_identity stay as
        # the names the benchmark binds; each is its route, bit for bit
        p = EnsembleParams(0.4, 1.4, 1.3, n)
        assert repr(partition_cauchy(p, route="det")) == repr(
            partition_cauchy_det(p))
        assert repr(partition_bures(p, route="cauchy")) == repr(
            partition_bures_squared_identity(p))

    def test_unknown_route_rejected(self):
        p = EnsembleParams(0.4, 1.4, 1.3, 3)
        for fn in (partition_cauchy, partition_bures):
            with pytest.raises(DomainError, match="unknown route"):
                fn(p, route="lu")
