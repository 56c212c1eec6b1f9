"""Tests for the Christoffel-Darboux kernel family and hard-edge limits."""
import json
import math

import mpmath
import numpy as np
import pytest

from cauchybures.ensembles import EnsembleParams
from cauchybures.exceptions import DomainError
from cauchybures.foxh import g_inf, g_n, g_tilde_n
from cauchybures.kernels import (KernelGrid, cd_hard_scaled, cd_kernel,
                                 delta_k00_finite, delta_k00_inf,
                                 delta_k11_finite, delta_k11_inf,
                                 hard_edge_kernel, hatted, i1_integral, k01,
                                 k10, k11, k11_hard_scaling_report, make_grid,
                                 rho1_bures_hard_finite, sigma_k01_finite,
                                 sigma_k01_inf)
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


class TestSkewKernelBlocks:
    def test_sigma_block_matches_hatted_combination(self):
        p = EnsembleParams(0.3, 1.3, 1.0, 4)
        for zi, zj in ((0.7, 1.4), (1.1, 0.5)):
            want = (hatted(p, "K01", zj, zi) + hatted(p, "K10", zi, zj))
            assert sigma_k01_finite(p, zi, zj) == pytest.approx(want,
                                                                rel=1e-10)

    def test_delta_blocks_are_antisymmetric(self):
        p = EnsembleParams(0.3, 1.3, 1.0, 4)
        zi, zj = 0.7, 1.4
        assert delta_k00_finite(p, zi, zj) == pytest.approx(
            -delta_k00_finite(p, zj, zi), rel=1e-12)
        assert delta_k11_finite(p, zi, zj) == pytest.approx(
            -delta_k11_finite(p, zj, zi), rel=1e-10)
        assert delta_k00_inf(0.3, 1.0, zi, zj) == pytest.approx(
            -delta_k00_inf(0.3, 1.0, zj, zi), rel=1e-10)
        assert delta_k11_inf(0.3, 1.0, zi, zj) == pytest.approx(
            -delta_k11_inf(0.3, 1.0, zj, zi), rel=1e-10)

    def test_delta_k11_matches_hatted_difference(self):
        p = EnsembleParams(0.3, 1.3, 1.0, 3)
        zi, zj = 0.7, 1.4
        want = hatted(p, "K11", zi, zj) - hatted(p, "K11", zj, zi)
        assert delta_k11_finite(p, zi, zj) == pytest.approx(want, rel=1e-9)


class TestHardEdgeLimits:
    def test_cd_kernel_scaling_approaches_limit(self):
        a, b, theta = 0.5, 0.7, 1.0
        X, Y = 0.8, 1.3
        limit = hard_edge_kernel(a, b, theta, "K00", X, Y)
        errs = [abs(cd_hard_scaled(EnsembleParams(a, b, theta, n), X, Y)
                    / limit - 1.0) for n in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2]

    def test_sigma_block_scaling_approaches_limit(self):
        a, theta = 0.3, 1.0
        zi, zj = 0.8, 1.7
        limit = sigma_k01_inf(a, theta, zi, zj)
        errs = []
        for n in (10, 20, 40):
            sc = n ** (-2.0 / theta)
            p = EnsembleParams(a, a + 1.0, theta, n)
            errs.append(abs(sc * sigma_k01_finite(p, zi * sc, zj * sc)
                            / limit - 1.0))
        assert errs[0] > errs[1] > errs[2]

    def test_bures_density_scaling_approaches_limit(self):
        from cauchybures.correlations import rho_bures_hard_edge
        a, theta, z = 0.3, 1.0, 0.9
        limit = rho_bures_hard_edge(a, theta, (z,))
        errs = [abs(rho1_bures_hard_finite(a, theta, n, z) / limit - 1.0)
                for n in (10, 20, 40)]
        assert errs[0] > errs[1] > errs[2]

    def test_doubly_integrated_kernel_scaling_report(self):
        rep = k11_hard_scaling_report(0.3, 1.3, 1.0, 0.8, 1.7, ns=(6, 12, 24))
        assert math.isfinite(rep["fitted_exponent"])
        assert math.isfinite(rep["smooth_limit"])
        assert set(rep["finite_n_values"]) == {6, 12, 24}
        assert all(math.isfinite(v) for v in rep["finite_n_values"].values())


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
