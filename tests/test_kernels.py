"""Tests for the Christoffel-Darboux kernel family and hard-edge limits."""
import json

import mpmath
import numpy as np
import pytest

from cauchybures.ensembles import EnsembleParams
from cauchybures.exceptions import ComplexityError, DomainError
from cauchybures.foxh import g_inf, g_n, g_tilde_n
from cauchybures.correlations import CorrelationRequest, rho_bures
from cauchybures.kernels import (KernelGrid, cd_hard_scaled, cd_kernel,
                                 delta_k00_inf, delta_k11_inf,
                                 hard_edge_kernel, hatted, i1_integral, k01,
                                 k10, k11, make_grid, sigma_k01_inf)
from cauchybures.polynomials import p_hat, q_hat


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
                s = cd_kernel(params, x, y, strategy="sum")
                t = cd_kernel(params, x, y, strategy="tintegral")
                d = cd_kernel(params, x, y, strategy="doublecontour")
                assert t == pytest.approx(s, rel=1e-7)
                assert d == pytest.approx(s, rel=1e-7)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(DomainError):
            cd_kernel(EnsembleParams(0.5, 0.7, 1.5, 3), 1.0, 1.0,
                      strategy="nope")

    def test_unknown_mellin_barnes_strategy_rejected(self):
        for call in (lambda s: g_tilde_n(0.5, 0.9, 1.5, 3, 1.0, strategy=s),
                     lambda s: g_n(0.5, 0.9, 1.5, 3, 1.0, strategy=s),
                     lambda s: g_inf(0.5, 0.9, 1.5, 1.0, strategy=s)):
            with pytest.raises(DomainError):
                call("hankle")

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


class TestReproducingProperty:
    @pytest.mark.parametrize("params", [EnsembleParams(0.5, 0.7, 1.5, 3),
                                        EnsembleParams(0.0, 0.0, 1.0, 2)])
    def test_double_integral_reproduces_kernel(self, params):
        from cauchybures.numerics import simplex_quad_2d
        kern = fast_cd(params)
        rule = simplex_quad_2d(params.a, params.b, 320, 320)
        for x, y in ((0.6, 1.2), (1.4, 0.5)):
            got = rule.integrate(lambda w, z: kern(x, z) * kern(w, y))
            assert got == pytest.approx(float(kern(x, y)), rel=1e-6)

    @pytest.mark.parametrize("params", [EnsembleParams(0.5, 0.7, 1.5, 3),
                                        EnsembleParams(0.0, 0.0, 1.0, 2)])
    def test_trace_equals_matrix_size(self, params):
        from cauchybures.numerics import simplex_quad_2d
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

    def test_i1_overflow_raises_typed_error(self):
        # y^beta overflows a double inside the float quadrature from
        # beta ~ 115; the error names beta instead of a bare OverflowError
        with pytest.raises(ComplexityError, match=r"beta = 150\b"):
            i1_integral(150.0, 1.2)


def _bures_scaled(a, theta, n):
    """Cauchy pair (a, a+1) at N = n and the hard-edge scale N^{-2/theta}."""
    return EnsembleParams(a, a + 1.0, theta, n), n ** (-2.0 / theta)


class TestSkewKernelBlocks:
    def test_delta_blocks_are_antisymmetric(self):
        zi, zj = 0.7, 1.4
        assert delta_k00_inf(0.3, 1.0, zi, zj) == pytest.approx(
            -delta_k00_inf(0.3, 1.0, zj, zi), rel=1e-10)
        assert delta_k11_inf(0.3, 1.0, zi, zj) == pytest.approx(
            -delta_k11_inf(0.3, 1.0, zj, zi), rel=1e-10)

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

    def test_rejects_unsorted_axes(self):
        with pytest.raises(DomainError):
            KernelGrid("K00", {}, [1.0, 0.5], [0.4], [[1.0], [1.0]])

    def test_rejects_nonpositive_points(self):
        with pytest.raises(DomainError):
            KernelGrid("K00", {}, [0.0, 0.5], [0.4], [[1.0], [1.0]])
