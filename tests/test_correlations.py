"""Tests for determinantal and Pfaffian correlation functions."""
import json
import math
import sys

import pytest

from cauchybures import kernels, numerics
from cauchybures.correlations import (CorrelationRequest,
                                      correlation_record, rho_bures,
                                      rho_bures_hard_edge, rho_cauchy)
from cauchybures.ensembles import EnsembleParams
from cauchybures.exceptions import (ComplexityError, DimensionError,
                                    DomainError)


PSET = EnsembleParams(0.5, 0.7, 1.5, 2)


class TestCauchyAgainstBruteForce:
    def test_one_point_density_n1(self):
        p = EnsembleParams(0.5, 0.7, 1.5, 1)
        req = CorrelationRequest("cauchy", p, (0.8,))
        assert rho_cauchy(req) == pytest.approx(rho_cauchy(req, "brute"),
                                                rel=1e-12)

    def test_one_point_density_n2(self):
        req = CorrelationRequest("cauchy", PSET, (0.8,))
        assert rho_cauchy(req) == pytest.approx(rho_cauchy(req, "brute"),
                                                rel=1e-12)

    def test_mixed_two_point_n2(self):
        req = CorrelationRequest("cauchy", PSET, (0.8,), (1.3,))
        assert rho_cauchy(req) == pytest.approx(rho_cauchy(req, "brute"),
                                                rel=1e-12)

    def test_second_species_one_point_n2(self):
        req = CorrelationRequest("cauchy", PSET, (), (1.1,))
        assert rho_cauchy(req) == pytest.approx(rho_cauchy(req, "brute"),
                                                rel=1e-12)

    def test_two_points_same_species_n2(self):
        req = CorrelationRequest("cauchy", PSET, (0.6, 1.4))
        assert rho_cauchy(req) == pytest.approx(rho_cauchy(req, "brute"),
                                                rel=1e-12)

    @pytest.mark.parametrize("route", ["direct", "tintegral"])
    @pytest.mark.parametrize("xs,ys", [((0.6, 1.4), (1.1,)),
                                       ((0.8,), (0.9, 1.7))],
                             ids=["r2-s1", "r1-s2"])
    def test_unequal_species_counts_n2(self, xs, ys, route):
        # with r != s the off-diagonal blocks K00 (x rows, y columns) and
        # K11 (y rows, x columns) have different shapes; both routes
        # agree with brute force to 4e-14 here
        req = CorrelationRequest("cauchy", PSET, xs, ys)
        assert rho_cauchy(req, route) == pytest.approx(
            rho_cauchy(req, "brute"), rel=1e-12)


class TestBuresAgainstBruteForce:
    @pytest.mark.parametrize("a,theta", [(0.3, 1.0), (0.55, 1.3)])
    def test_one_point_density_n1(self, a, theta):
        p = EnsembleParams(a, a + 1.0, theta, 1)
        req = CorrelationRequest("bures", p, (0.9,))
        assert rho_bures(req) == pytest.approx(rho_bures(req, "brute"),
                                               rel=1e-12)

    @pytest.mark.parametrize("a,theta", [(0.3, 1.0), (0.55, 1.3)])
    def test_one_point_density_n2(self, a, theta):
        p = EnsembleParams(a, a + 1.0, theta, 2)
        req = CorrelationRequest("bures", p, (0.9,))
        assert rho_bures(req) == pytest.approx(rho_bures(req, "brute"),
                                               rel=1e-12)

    def test_two_point_n2(self):
        p = EnsembleParams(0.3, 1.3, 1.0, 2)
        req = CorrelationRequest("bures", p, (0.7, 1.4))
        assert rho_bures(req) == pytest.approx(rho_bures(req, "brute"),
                                               rel=1e-12)

    def test_three_point_n3(self):
        p = EnsembleParams(0.3, 1.3, 1.0, 3)
        req = CorrelationRequest("bures", p, (0.5, 1.1, 1.9))
        assert rho_bures(req) == pytest.approx(rho_bures(req, "brute"),
                                               rel=1e-12)

    def test_one_point_n3_integrates_two_variables(self):
        # N - k = 2: the oracle's nested quadrature
        p = EnsembleParams(0.2, 1.2, 1.5, 3)
        req = CorrelationRequest("bures", p, (1.4,))
        brute = rho_bures(req, "brute")
        assert brute == pytest.approx(0.508265610377459, rel=1e-12)
        for route in ("direct", "tintegral"):
            assert rho_bures(req, route) == pytest.approx(brute, rel=1e-12)

    def test_exchange_symmetry(self):
        p = EnsembleParams(0.3, 1.3, 1.0, 3)
        fwd = rho_bures(CorrelationRequest("bures", p, (0.7, 1.4)))
        rev = rho_bures(CorrelationRequest("bures", p, (1.4, 0.7)))
        assert fwd == pytest.approx(rev, rel=1e-9)

    @pytest.mark.parametrize("a,theta,n,z", [(-0.5, 0.2, 2, 0.9),
                                             (-0.9, 0.3, 3, 0.5)])
    def test_small_theta_tintegral(self, a, theta, n, z):
        # the t-integral route once gave 0.3271 and 0.7725 here, against
        # the oracle's 0.45594 and 0.70145: its G~ residue series stopped
        # at a run of cancelled poles
        req = CorrelationRequest("bures", EnsembleParams(a, a + 1.0, theta,
                                                         n), (z,))
        assert rho_bures(req, "tintegral") == pytest.approx(
            rho_bures(req, "brute"), rel=1e-10)

    def test_direct_and_tintegral_routes_agree(self):
        p = EnsembleParams(0.3, 1.3, 1.0, 4)
        req = CorrelationRequest("bures", p, (0.7, 1.4))
        assert rho_bures(req, route="tintegral") == pytest.approx(
            rho_bures(req, route="direct"), rel=1e-9)


class TestHardEdge:
    def test_one_point_finite_size_convergence(self):
        a, theta, z = 0.3, 1.0, 0.9
        limit = rho_bures_hard_edge(a, theta, (z,))
        errs = []
        for n in (20, 40, 80):
            sc = n ** (-2.0 / theta)
            req = CorrelationRequest(
                "bures", EnsembleParams(a, a + 1.0, theta, n), (z * sc,))
            errs.append(abs(sc * rho_bures(req, route="tintegral") / limit
                            - 1.0))
        assert errs[0] > errs[1] > errs[2]

    def test_two_point_finite_size_convergence(self):
        # N^{-4/theta} rho_2 at z N^{-2/theta} tends to the hard-edge rho_2
        a, theta, zs = 0.3, 1.0, (0.8, 1.5)
        limit = rho_bures_hard_edge(a, theta, zs)
        errs = []
        for n in (20, 40, 80):
            sc = n ** (-2.0 / theta)
            req = CorrelationRequest(
                "bures", EnsembleParams(a, a + 1.0, theta, n),
                tuple(z * sc for z in zs))
            errs.append(abs(sc ** 2 * rho_bures(req, route="tintegral")
                            / limit - 1.0))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("a,theta", [
        (-1.5, 1.0), (0.3, -2.0), (0.3, 0.0), (0.3, math.nan),
        (math.inf, 1.0)])
    @pytest.mark.parametrize("zs", [(), (0.8, 1.5)])
    def test_invalid_parameters_rejected_with_or_without_points(
            self, a, theta, zs):
        with pytest.raises(DomainError, match="a \\+ 1 and theta"):
            rho_bures_hard_edge(a, theta, zs)

    def test_two_point_is_finite_and_subdeterminantal(self):
        # rho_2 <= rho_1(z1) rho_1(z2) for a Pfaffian point process with
        # a totally positive kernel is not guaranteed in general; only
        # positivity and finiteness are structural
        val = rho_bures_hard_edge(0.3, 1.0, (0.8, 1.5))
        assert math.isfinite(val)
        assert val > 0.0

    def test_coincident_points_rejected(self):
        with pytest.raises(DomainError):
            rho_bures_hard_edge(0.3, 1.0, (0.8, 0.8))
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                rho_bures_hard_edge(0.3, 1.0, (bad,))

    # 30 digits of references.rho_bures_hard_edge_quad (the Pfaffian of
    # mpmath quadratures over Meijer-G and power-series sides), confirmed
    # at 40 (to 21 digits or more); the library's worst error is 2.0e-14
    QUADRATURE = {
        (0.3, 1.0, (0.9,)): "0.194791789553192081350734939049",
        (0.3, 1.0, (0.7, 1.6)): "0.000987500120823260078961632646051",
        (0.3, 1.5, (0.9,)): "0.358654525878237291404628394303",
        (0.3, 1.5, (0.7, 1.6)): "0.00688097584048505541112962251028",
    }

    @pytest.mark.parametrize("case", sorted(QUADRATURE))
    def test_matches_a_quadrature_it_did_not_make(self, case):
        a, theta, zs = case
        want = float(self.QUADRATURE[case])
        assert abs(rho_bures_hard_edge(a, theta, zs) - want) <= 1e-10 * want


class TestValidationAndRecords:
    def test_model_mismatch_rejected(self):
        req = CorrelationRequest("cauchy", PSET, (0.8,))
        with pytest.raises(DomainError):
            rho_bures(req)
        req_b = CorrelationRequest("bures", EnsembleParams(0.3, 1.3, 1.0, 2),
                                   (0.8,))
        with pytest.raises(DomainError):
            rho_cauchy(req_b)

    def test_bures_rejects_a_second_species(self):
        p = EnsembleParams(0.3, 1.3, 1.0, 2)
        with pytest.raises(DomainError, match="one species"):
            CorrelationRequest("bures", p, (0.8,), (5.0,))
        with pytest.raises(DomainError, match="one species"):
            CorrelationRequest("bures", p, (), (5.0,))

    @pytest.mark.parametrize("model,xs,ys,error,message", [
        ("gaussian", (0.8,), (), DomainError, "unknown model 'gaussian'"),
        ("cauchy", (0.8, 1.1, 1.4), (), DimensionError,
         "more points than eigenvalues"),
        ("cauchy", (0.8,), (0.9, 1.1, 1.4), DimensionError,
         "more points than eigenvalues"),
        ("bures", (0.8, 1.1, 1.4), (), DimensionError,
         "more points than eigenvalues")],
        ids=["model", "first-species", "second-species", "bures"])
    def test_malformed_requests_rejected(self, model, xs, ys, error,
                                         message):
        with pytest.raises(error, match=message):
            CorrelationRequest(model, PSET, xs, ys)

    def test_no_points_is_one(self):
        assert rho_cauchy(CorrelationRequest("cauchy", PSET, ())) == 1.0

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_points_must_be_finite_and_positive(self, bad):
        with pytest.raises(DomainError, match="finite and positive"):
            CorrelationRequest("cauchy", PSET, (0.8,), (bad,))

    def test_brute_force_refuses_large_matrices(self):
        big_c = CorrelationRequest("cauchy", EnsembleParams(0.5, 0.7, 1.5, 3),
                                   (0.8,))
        with pytest.raises(ComplexityError):
            rho_cauchy(big_c, route="brute")
        big_b = CorrelationRequest("bures", EnsembleParams(0.3, 1.3, 1.0, 4),
                                   (0.8,))
        with pytest.raises(ComplexityError):
            rho_bures(big_b, route="brute")

    @pytest.mark.parametrize("model,params,xs,ys,route", [
        ("cauchy", EnsembleParams(1.5, 0.7, 1.5, 1), (1e300,), (), "direct"),
        ("cauchy", EnsembleParams(1.5, 0.7, 1.5, 1), (1e300,), (), "brute"),
        ("cauchy", EnsembleParams(1.5, 0.7, 1.5, 2), (1e300,), (1.0,),
         "brute"),
        ("bures", EnsembleParams(1.5, 2.5, 1.0, 1), (1e300,), (), "brute")],
        ids=["cauchy-direct", "cauchy-brute", "cauchy-brute-n2",
             "bures-brute"])
    def test_weight_underflow_gives_zero(self, model, params, xs, ys, route):
        # x^a e^{-x} underflows at x = 1e300 though x^a overflows: the
        # weight is one exponential of its log, which once raised "a
        # weight p^a overflows a double" or a bare OverflowError
        rho = rho_cauchy if model == "cauchy" else rho_bures
        assert rho(CorrelationRequest(model, params, xs, ys), route) == 0.0

    def test_brute_force_bures_integrates_at_most_two_variables(self):
        req = CorrelationRequest("bures", EnsembleParams(0.3, 1.3, 1.0, 3), ())
        with pytest.raises(ComplexityError, match="too many integrated"):
            rho_bures(req, route="brute")

    @pytest.mark.parametrize("params", [EnsembleParams(0.3, 1.3, 0.2, 2),
                                        EnsembleParams(3.0, 4.0, 0.5, 3)])
    def test_tintegral_past_double_range_raises_typed_error(self, params):
        # at small theta the G~ sides of the t-integral pass double range
        # near t = 0; the residue series refuses them, with no
        # RuntimeWarning (an error under the test settings) before
        req = CorrelationRequest("bures", params, (0.9,))
        with pytest.raises(ComplexityError, match="past double range"):
            rho_bures(req, route="tintegral")

    def test_unknown_route_rejected(self):
        req = CorrelationRequest("cauchy", PSET, (0.8,))
        with pytest.raises(DomainError, match="unknown route"):
            rho_cauchy(req, route="oracle")
        req_b = CorrelationRequest("bures", EnsembleParams(0.3, 1.3, 1.0, 2),
                                   (0.8,))
        with pytest.raises(DomainError, match="unknown route"):
            rho_bures(req_b, route="oracle")

    def test_unknown_route_rejected_without_points(self):
        # with no points no kernel entry is built to reject the route
        with pytest.raises(DomainError, match="unknown route"):
            rho_cauchy(CorrelationRequest("cauchy", PSET, ()), route="bogus")
        req_b = CorrelationRequest("bures", EnsembleParams(0.3, 1.3, 1.0, 2),
                                   ())
        with pytest.raises(DomainError, match="unknown route"):
            rho_bures(req_b, route="bogus")

    def test_record_round_trips_through_json(self):
        req = CorrelationRequest("cauchy", PSET, (0.8,))
        val = rho_cauchy(req)
        rec = json.loads(correlation_record(req, val, "direct",
                                            oracle_value=val * 1.001))
        assert rec["model"] == "cauchy"
        assert rec["route"] == "direct"
        assert rec["discrepancy"] == pytest.approx(abs(val) * 0.001, rel=1e-9)


class TestDirectRouteQuadrature:
    # perfbench/mpref.rho_cauchy at 60 digits, confirmed at 90; a
    # Gauss-Jacobi lower half of i1 left these 1.2e-13 and 6.0e-12 off
    @pytest.mark.parametrize("params,xs,ys,want,rel", [
        ((-0.9, 0.5, 1.0, 4), (0.8,), (60.0,), 1.139711373793392883e-21,
         5e-14),
        ((0.3, 0.7, 1.5, 6), (), (150.0,), 2.0067165605229304876e-51,
         2e-12)])
    def test_direct_route_at_large_points(self, params, xs, ys, want, rel):
        req = CorrelationRequest("cauchy", EnsembleParams(*params), xs, ys)
        assert rho_cauchy(req) == pytest.approx(want, rel=rel, abs=0.0)

    @pytest.mark.parametrize("theta", [1.5, 1.3])
    def test_no_direct_route_builds_a_gauss_jacobi_rule(self, monkeypatch,
                                                        theta):
        def refuse(*args):
            raise AssertionError("a library route built a Gauss-Jacobi rule")

        rule = numerics.gauss_jacobi
        for name, mod in list(sys.modules.items()):
            if (name.startswith("cauchybures")
                    and getattr(mod, "gauss_jacobi", None) is rule):
                monkeypatch.setattr(mod, "gauss_jacobi", refuse)
        kernels._i1_side.cache_clear()
        p = EnsembleParams(0.5, 0.7, theta, 12)
        for fn in (kernels.k01, kernels.k10, kernels.k11):
            assert math.isfinite(fn(p, 0.8, 1.3, route="direct"))
        assert math.isfinite(rho_cauchy(
            CorrelationRequest("cauchy", p, (0.8,), (1.3,))))
        assert math.isfinite(rho_bures(CorrelationRequest(
            "bures", EnsembleParams(0.5, 1.5, theta, 12), (0.9, 1.4))))
