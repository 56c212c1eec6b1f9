"""One reader for every real argument (numerics.require_real).

An int, a Fraction or a numpy scalar is read as its double; a string,
None, a complex, a Decimal or an int past double range raises DomainError.
The entry points compute on the floats it returns, so they refuse what it
refuses and return Python floats for numpy-scalar arguments too.  The
file imports no scipy, so it runs where scipy is not installed.
"""
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cauchybures import (CorrelationRequest, EnsembleParams, FoxHSpec,
                         LogValue, PolySeries, SkewMatrix, cd_kernel, coeff_c,
                         fox_h, g_inf, g_n, hard_edge_kernel, hatted,
                         jacobi_p, k01, k10, k11, make_grid, pfaffian,
                         pfaffian_bordered, rho_bures_hard_edge, rho_cauchy,
                         sz_density)
from cauchybures.exceptions import ComplexityError, DomainError
from cauchybures.kernels import (KernelGrid, delta_k11_inf, i1_integral,
                                 sigma_k01_inf)
from cauchybures.numerics import require_positive, require_real
from cauchybures.raney import (density_asymptote, fuss_catalan_moment, raney,
                               sz_moment)

P = EnsembleParams(0.5, 0.7, 1.5, 3)
NOT_REAL = {"str": "0.8", "None": None, "complex": 0.8 + 0j,
            "Decimal": Decimal("0.8"), "10**400": 10 ** 400}
NOT_A_REAL_NUMBER = "must be a real number in double range"


class TestRequireReal:
    @pytest.mark.parametrize("value,want", [
        (4, 4.0), (Fraction(4, 5), 0.8), (np.float64(0.8), 0.8)],
        ids=["int", "Fraction", "float64"])
    def test_reads_a_real_number_as_its_float(self, value, want):
        for read in (require_real, require_positive):
            got = read("x", 1.5, value)
            assert got == [1.5, want]
            assert all(type(v) is float for v in got)

    @pytest.mark.parametrize("bad", NOT_REAL.values(), ids=NOT_REAL.keys())
    def test_refuses_what_is_no_real_number_in_double_range(self, bad):
        for read in (require_real, require_positive):
            with pytest.raises(DomainError, match=f"^x {NOT_A_REAL_NUMBER}$"):
                read("x", 1.5, bad)

    def test_positivity_is_checked_on_the_floats(self):
        assert require_real("x", -1, math.inf) == [-1.0, math.inf]
        for bad in (0, -1, math.inf, math.nan):
            with pytest.raises(DomainError,
                               match="^x must be finite and positive$"):
                require_positive("x", 1.5, bad)


class TestEntryPointsReadReals:
    # each call below raised a bare TypeError or OverflowError, or
    # returned a value, before the entry points read through require_real

    @pytest.mark.parametrize("bad", ["0.8", None, 0.8 + 0j, Decimal("0.8")],
                             ids=["str", "None", "complex", "Decimal"])
    def test_kernel_point_that_is_no_real_number(self, bad):
        with pytest.raises(DomainError, match=NOT_A_REAL_NUMBER):
            k01(P, bad, 1.3)

    @pytest.mark.parametrize("call", [
        lambda: cd_kernel(P, 10 ** 400, 1.3),
        lambda: hard_edge_kernel(0.5, 0.7, 1.5, "K01", 10 ** 400, 1.0)],
        ids=["cd_kernel", "hard_edge_kernel"])
    def test_int_point_past_double_range(self, call):
        with pytest.raises(DomainError, match=NOT_A_REAL_NUMBER):
            call()

    def test_k11_at_a_fraction_point(self):
        # mpmath refused the Fraction ("cannot create mpf"), k01 took it
        value = k11(P, Fraction(4, 5), 1.3)
        assert value == k11(P, 0.8, 1.3)
        assert type(value) is float

    @pytest.mark.parametrize("call", [
        lambda: hard_edge_kernel("0.5", 0.7, 1.5, "K01", 1.0, 2.0),
        lambda: g_n("0.3", 0.5, 1.0, 3, 0.5),
        lambda: g_inf(0.3, 0.5, Decimal("1.0"), 0.5),
        lambda: rho_bures_hard_edge("0.3", 1.0, (0.8,)),
        lambda: rho_cauchy(CorrelationRequest("cauchy", P, ("0.8",))),
        lambda: rho_cauchy(CorrelationRequest("cauchy", P,
                                              (Decimal("0.8"),)))],
        ids=["hard_edge_kernel-a", "g_n-a", "g_inf-theta",
             "rho_bures_hard_edge-a", "rho_cauchy-str", "rho_cauchy-Decimal"])
    def test_parameter_or_point_that_is_no_real_number(self, call):
        with pytest.raises(DomainError, match=NOT_A_REAL_NUMBER):
            call()

    def test_hard_edge_correlation_at_a_string_point(self):
        # float("0.8") read it, and 0.195913154987213 came back
        with pytest.raises(DomainError, match=NOT_A_REAL_NUMBER):
            rho_bures_hard_edge(0.3, 1.0, ("0.8",))

    @pytest.mark.parametrize("fn", [
        lambda x, y: k01(P, x, y),
        lambda x, y: k10(P, x, y),
        lambda x, y: k11(P, x, y, route="direct"),
        lambda x, y: hatted(P, "K01", x, y),
        lambda x, y: hard_edge_kernel(0.5, 0.7, 1.5, "K11", x, y),
        lambda x, y: delta_k11_inf(0.5, 1.5, x, y),
        lambda x, y: sigma_k01_inf(0.5, 1.5, x, y),
        lambda x, y: i1_integral(x, y)],
        ids=["k01", "k10", "k11-direct", "hatted", "hard_edge_kernel-K11",
             "delta_k11_inf", "sigma_k01_inf", "i1_integral"])
    def test_numpy_scalars_give_a_python_float(self, fn):
        value = fn(np.float64(0.8), np.float64(1.3))
        assert type(value) is float
        assert value == fn(0.8, 1.3)


class TestArrayReaders:
    # each of these read its argument by np.asarray(x, dtype=float), or
    # formed alpha + 1 before any reader saw alpha: a string came back as
    # a number, or raised a bare TypeError
    @pytest.mark.parametrize("call", [
        lambda: g_n(0.3, 0.5, 1.0, 3, "0.5"),
        lambda: g_n(0.3, 0.5, 1.0, 3, ["0.5", "0.6"]),
        lambda: fox_h(FoxHSpec([], [[0.0, 1.0]], 1, 0), "0.5"),
        lambda: sz_density("0.5"),
        lambda: sz_density(np.array(["0.5"])),
        lambda: jacobi_p(3, 0.5, "0.3"),
        lambda: jacobi_p(3, "0.5", 0.3),
        lambda: coeff_c(3, 1, "0.5")],
        ids=["g_n-z", "g_n-z-array", "fox_h-z", "sz_density",
             "sz_density-array", "jacobi_p-x", "jacobi_p-alpha",
             "coeff_c-alpha"])
    def test_string_is_refused(self, call):
        with pytest.raises(DomainError, match=NOT_A_REAL_NUMBER):
            call()


class TestRaneyAndPointReaders:
    # each call below raised a bare TypeError, or returned a value (the
    # Decimal cases), before these readers

    @pytest.mark.parametrize("call", [
        lambda: raney("2", 1.0, 3),
        lambda: raney(1j, 1.0, 3),
        lambda: raney(2.0, 1.0, None),
        lambda: raney(2.0, [1.0], 3),
        lambda: raney(Decimal("2"), 1.0, 3),
        lambda: fuss_catalan_moment("1.5", 3),
        lambda: fuss_catalan_moment(1.5, Decimal(3)),
        lambda: sz_moment("2")],
        ids=["raney-str", "raney-complex", "raney-None", "raney-list",
             "raney-Decimal", "fuss_catalan_moment-str",
             "fuss_catalan_moment-Decimal", "sz_moment-str"])
    def test_raney_argument_that_is_no_real_number(self, call):
        with pytest.raises(DomainError, match="must be a real number"):
            call()

    def test_raney_keeps_its_own_reader(self):
        # an int no double holds is past double range, as raney's row says
        with pytest.raises(ComplexityError):
            raney(2.0, 1.0, 10 ** 400)
        assert raney(2, 1, 3) == raney(2.0, 1.0, 3.0) == 5.0

    @pytest.mark.parametrize("call", [
        lambda: CorrelationRequest("bures", P, 0.7),
        lambda: CorrelationRequest("bures", P, None),
        lambda: rho_bures_hard_edge(0.3, 1.0, 0.5)],
        ids=["request-float", "request-None", "rho_bures_hard_edge-float"])
    def test_points_that_are_no_sequence(self, call):
        with pytest.raises(DomainError, match="^points must be a sequence "
                                              "of real numbers$"):
            call()

    def test_request_stores_its_points_as_floats(self):
        # a generator was read up by the point check, which then took its
        # len(); a list made an unhashable frozen request
        params = EnsembleParams(0.3, 1.3, 1.0, 2)
        req = CorrelationRequest("bures", params, (x for x in [0.5]))
        assert req.xs == (0.5,) and req.ys == ()
        req = CorrelationRequest("cauchy", P, [1, 2], [3])
        assert (req.xs, req.ys) == ((1.0, 2.0), (3.0,))
        assert all(type(x) is float for x in req.xs + req.ys)
        assert hash(req) == hash(CorrelationRequest("cauchy", P, (1.0, 2.0),
                                                    (3.0,)))

    def test_points_as_one_string(self):
        # a string is a sequence of characters, each no real number
        with pytest.raises(DomainError, match=NOT_A_REAL_NUMBER):
            rho_bures_hard_edge(0.3, 1.0, "0.8")


class TestLibraryReaders:
    # each call below read a string as its number, or raised a bare
    # TypeError or numpy error, before it read through require_real or
    # require_real_array

    @pytest.mark.parametrize("call", [
        lambda: density_asymptote("2", 1.0, 0.5),
        lambda: density_asymptote(2.0, 1.0, "0.5"),
        lambda: LogValue.from_real("0.5"),
        lambda: pfaffian(SkewMatrix([[0, "1"], [0, 0]])),
        lambda: SkewMatrix.from_matrix([[0, "1"], ["-1", 0]]),
        lambda: pfaffian_bordered(SkewMatrix(np.zeros((1, 1))), ["1"]),
        lambda: make_grid("K00", ["0.5", "1"], [1.0],
                          lambda x, y: x + y, {}),
        lambda: KernelGrid("K00", {}, ["0.5", "1"], [1.0], [[1.0], [2.0]]),
        lambda: PolySeries(("1",)),
        lambda: PolySeries((1.0, 2.0))("0.5")],
        ids=["density_asymptote-p", "density_asymptote-x",
             "LogValue.from_real", "SkewMatrix", "SkewMatrix.from_matrix",
             "pfaffian_bordered-border", "make_grid", "KernelGrid",
             "PolySeries-coefficient", "PolySeries-point"])
    def test_string_is_refused(self, call):
        with pytest.raises(DomainError, match=NOT_A_REAL_NUMBER):
            call()

    def test_numbers_keep_their_results(self):
        assert density_asymptote(2.0, 1.0, 0.5) == 0.4501581580785531
        assert density_asymptote(2, 1, [0.5]).tolist() == [0.4501581580785531]
        assert LogValue.from_real(-2) == LogValue(-1, math.log(2.0))
        assert pfaffian(SkewMatrix([[0, 1], [0, 0]])).to_real() == 1.0
        assert pfaffian_bordered(SkewMatrix(np.zeros((1, 1))),
                                 [2]).to_real() == 2.0
        grid = make_grid("K00", np.array([0.5, 1.0]), [1], lambda x, y: x + y,
                         {})
        assert (grid.xs, grid.ys, grid.values) == ([0.5, 1.0], [1.0],
                                                   [[1.5], [2.0]])
        assert KernelGrid.from_json(grid.to_json()) == grid
        series = PolySeries((1, Fraction(1, 2)))
        assert series.coeffs == (1.0, 0.5)
        assert series(2) == 2.0 and series([2, 4]).tolist() == [2.0, 3.0]
