"""Tests for the command-line interface."""
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from cauchybures import cli, numerics
from cauchybures.cli import main
from cauchybures.correlations import CorrelationRequest, rho_bures, rho_cauchy
from cauchybures.ensembles import (EnsembleParams, partition_bures,
                                   partition_cauchy)
from cauchybures.exceptions import DomainError, NonConverged
from cauchybures.kernels import (KernelGrid, cd_kernel, hard_edge_kernel,
                                 k01, k10, k11)


@pytest.fixture
def runner():
    return CliRunner()


def write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


EXP_SPEC = {"upper": [], "lower": [[0.0, 1.0]], "m": 1, "n": 0}
# three cancelled Gamma(u) poles lie between two Gamma(0.2u - 0.5) poles
SPARSE_SPEC = {"upper": [[-6.0, 1.0], [2.0, 1.0]],
               "lower": [[0.0, 1.0], [-0.5, 0.2], [-4.0, 1.0]],
               "m": 2, "n": 1}


class TestFoxH:
    def test_exponential_spec(self, runner, tmp_path):
        spec = write_spec(tmp_path, EXP_SPEC)
        res = runner.invoke(main, ["foxh", spec, "--z", "0.5", "--z", "2.0"])
        assert res.exit_code == 0
        lines = [json.loads(ln) for ln in res.output.strip().splitlines()]
        assert len(lines) == 2
        for rec in lines:
            assert rec["value"] == pytest.approx(math.exp(-rec["z"]),
                                                 rel=1e-10)
            # no error estimate until one is measured
            assert set(rec) == {"z", "value", "strategy"}
            assert rec["strategy"] == "ResidueSum"

    def test_sparse_family_spec(self, runner, tmp_path):
        # G~_2 at b = 0.5, alpha = 4, theta = 0.2 as a Fox H spec; the
        # reference is an mpmath quadrature of its Mellin-Barnes integral
        spec = write_spec(tmp_path, SPARSE_SPEC)
        res = runner.invoke(main, ["foxh", spec, "--z", "1.5"])
        assert res.exit_code == 0
        assert json.loads(res.output)["value"] == pytest.approx(
            6.8604783677899580e-4, rel=1e-10)

    def test_output_file(self, runner, tmp_path):
        spec = write_spec(tmp_path, EXP_SPEC)
        out = tmp_path / "res.json"
        res = runner.invoke(main, ["foxh", spec, "--z", "1.0",
                                   "--out", str(out)])
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["records"][0]["value"] == pytest.approx(math.exp(-1.0),
                                                               rel=1e-10)
        assert payload["config"]["command"] == "foxh"

    def test_malformed_spec_exits_one(self, runner, tmp_path):
        spec = write_spec(tmp_path, {"upper": [], "m": 1})
        res = runner.invoke(main, ["foxh", spec, "--z", "1.0"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("text,message", [
        ("5", "spec file must hold a JSON object"),
        ("null", "spec file must hold a JSON object"),
        ("[]", "spec file must hold a JSON object"),
        ('"spec"', "spec file must hold a JSON object"),
        ('{"upper": [], "lower": [[1' + "0" * 400 + ', 1.0]], "m": 1, "n": 0}',
         "field 'lower' must be a list"),
        ('{"upper": [', "cannot parse spec file"),
        ('{"upper": [], "lower": [[0.0, 1e999]], "m": 1, "n": 0}',
         "every slope A_j, B_j finite and positive")],
        ids=["number", "null", "list", "string", "huge-shift", "not-json",
             "infinite-slope"])
    def test_malformed_spec_exits_one_without_traceback(self, runner,
                                                        tmp_path, text,
                                                        message):
        # 5 and null once ended in a TypeError from `key not in raw`, the
        # 400-digit shift and the slope 1e999 (json's inf) in an
        # OverflowError
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        res = runner.invoke(main, ["foxh", str(spec), "--z", "1.0"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert message in res.stderr
        assert "Traceback" not in res.stderr

    def test_bad_pair_shape_exits_one(self, runner, tmp_path):
        spec = write_spec(tmp_path, {"upper": [[1.0]], "lower": [],
                                     "m": 0, "n": 1})
        res = runner.invoke(main, ["foxh", spec, "--z", "1.0"])
        assert res.exit_code == 1

    def test_nonpositive_z_exits_one(self, runner, tmp_path):
        spec = write_spec(tmp_path, EXP_SPEC)
        res = runner.invoke(main, ["foxh", spec, "--z", "-1.0"])
        assert res.exit_code == 1

    @pytest.mark.parametrize("z", ["inf", "nan"])
    def test_non_finite_z_exits_one(self, runner, tmp_path, z):
        spec = write_spec(tmp_path, EXP_SPEC)
        res = runner.invoke(main, ["foxh", spec, "--z", "1.0", "--z", z])
        assert res.exit_code == 1
        assert "finite and positive" in res.stderr
        assert res.stdout == ""  # refused before the first record

    @pytest.mark.parametrize("key", ["m", "n"])
    @pytest.mark.parametrize("value", [1.7, 1.0, True, "1", None])
    def test_non_integer_index_exits_one(self, runner, tmp_path, key, value):
        # int() once read 1.7 and true as 1 and printed e^{-1}
        spec = write_spec(tmp_path, {**EXP_SPEC, key: value})
        res = runner.invoke(main, ["foxh", spec, "--z", "1.0"])
        assert res.exit_code == 1
        assert f"field {key!r} must be an integer" in res.stderr

    def test_spec_without_left_poles_exits_one(self, runner, tmp_path):
        # the library's DomainError, mapped once for every command
        spec = write_spec(tmp_path, {"upper": [[0.5, 1.0]], "lower": [],
                                     "m": 0, "n": 1})
        res = runner.invoke(main, ["foxh", spec, "--z", "1"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "no left pole family" in res.stderr

    def test_non_convergence_exits_two(self, runner, tmp_path):
        # e^{-z} at z = 1e4 needs more terms than the series allows
        spec = write_spec(tmp_path, EXP_SPEC)
        res = runner.invoke(main, ["foxh", spec, "--z", "1e4"])
        assert res.exit_code == 2
        assert "non-convergence" in res.stderr

    def test_overflowing_float_total_exits_two(self, runner, tmp_path):
        # at z = 800 the float total overflows before the re-sum refuses
        # it; no RuntimeWarning may escape (an error under the test
        # settings), the refusal exits 2
        spec = write_spec(tmp_path, EXP_SPEC)
        res = runner.invoke(main, ["foxh", spec, "--z", "800"])
        assert res.exit_code == 2
        assert "non-convergence" in res.stderr

    def test_value_past_double_range_exits_one(self, runner, tmp_path):
        # z^{-6.5} at z = 1e-60 once printed "value": Infinity with exit 0
        spec = write_spec(tmp_path, {"upper": [],
                                     "lower": [[0.0, 1.0], [-1.3, 0.2],
                                               [-10.0, 1.0]],
                                     "m": 2, "n": 0})
        res = runner.invoke(main, ["foxh", spec, "--z", "1e-60"])
        assert res.exit_code == 1
        assert "overflows a double" in res.stderr
        assert res.stdout == ""

    def test_meeting_left_and_right_families_exit_one(self, runner,
                                                      tmp_path):
        # Gamma(u) Gamma(-u): u = 0 is a pole of both families, so the
        # H-function is undefined; the series once summed it as a double
        # pole and printed -1.0986122886681
        spec = write_spec(tmp_path, {"upper": [[1.0, 1.0]],
                                     "lower": [[0.0, 1.0]], "m": 1, "n": 1})
        res = runner.invoke(main, ["foxh", spec, "--z", "0.5"])
        assert res.exit_code == 1
        assert "meet" in res.stderr
        assert res.stdout == ""

    def test_missing_file_exits_nonzero(self, runner):
        res = runner.invoke(main, ["foxh", "/nonexistent.json", "--z", "1.0"])
        assert res.exit_code != 0


class TestKernelGrid:
    ARGS = ["kernel-grid", "--a", "0.5", "--b", "0.7", "--theta", "1.5",
            "--n", "2", "--kind", "K00", "--grid-min", "0.5",
            "--grid-max", "1.5", "--grid-count", "3"]

    def test_csv_output_is_deterministic(self, runner):
        out1 = runner.invoke(main, self.ARGS)
        out2 = runner.invoke(main, self.ARGS)
        assert out1.exit_code == 0
        assert out1.output == out2.output
        assert "x,y,value" in out1.output

    def test_json_format(self, runner):
        res = runner.invoke(main, self.ARGS + ["--format", "json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["kind"] == "K00"
        assert len(payload["values"]) == 3

    def test_cancelling_t_integral_prints_its_exact_value(self, runner):
        # K01 cancels in t by 1.4e6 at (10, 15): a tanh-sinh t-integral
        # once printed a value 8.4e-9 off with exit 0, then refused it; the
        # residue double sum takes it exactly (perfbench/mpref.k01 at 60
        # digits, confirmed at 90)
        res = runner.invoke(main, ["kernel-grid", "--a", "0", "--b", "0.7",
                                   "--theta", "1", "--n", "1", "--kind",
                                   "K01", "--grid-min", "10", "--grid-max",
                                   "15", "--grid-count", "2"])
        assert res.exit_code == 0
        cells = {tuple(map(float, line.split(",")[:2])):
                 float(line.split(",")[2])
                 for line in res.stdout.splitlines()[2:]}
        assert cells[10.0, 15.0] == pytest.approx(0.10236171344172491565,
                                                  rel=1e-12)

    def test_file_output(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        res = runner.invoke(main, self.ARGS + ["--out", str(out)])
        assert res.exit_code == 0
        assert out.read_text().splitlines()[1] == "x,y,value"

    def test_invalid_grid_exits_one(self, runner):
        res = runner.invoke(main, ["kernel-grid", "--grid-min", "2.0",
                                   "--grid-max", "1.0"])
        assert res.exit_code == 1

    def test_single_point_grid_exits_one(self, runner):
        res = runner.invoke(main, ["kernel-grid", "--grid-count", "1"])
        assert res.exit_code == 1
        assert "grid count must be at least 2" in res.stderr

    @pytest.mark.parametrize("args", [
        ["--kind", "K00", "--n", "3", "--grid-min", "1e299",
         "--grid-max", "1e300"],
        ["--kind", "hard-K00", "--grid-min", "3e5", "--grid-max", "4e5"]],
        ids=["K00", "hard-K00"])
    def test_value_past_double_range_exits_one(self, runner, args):
        # K00 once ended in an OverflowError traceback, hard-K00 in 84 s
        # of overflow warnings per cell and then exit 2
        res = runner.invoke(main, ["kernel-grid", "--a", "0.5", "--b", "0.7",
                                   "--theta", "1.5", "--grid-count", "2"]
                            + args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        assert "overflows a double" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("kind,fn", [
        ("K00", cd_kernel), ("K01", k01), ("K10", k10), ("K11", k11),
        ("hard-K01", lambda p, x, y: hard_edge_kernel(p.a, p.b, p.theta,
                                                      "K01", x, y))])
    def test_kind_maps_to_its_library_function(self, runner, kind, fn):
        args = ["kernel-grid", "--a", "0.5", "--b", "0.7", "--theta", "1.5",
                "--n", "2", "--kind", kind, "--grid-min", "0.5",
                "--grid-max", "1.5", "--grid-count", "2"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        p = EnsembleParams(0.5, 0.7, 1.5, 2)
        rows = [ln.split(",") for ln in res.output.splitlines()[2:]]
        assert len(rows) == 4
        for x, y, value in rows:
            assert value == repr(fn(p, float(x), float(y)))

    def test_log_axis_is_logspace(self, runner):
        res = runner.invoke(main, self.ARGS + ["--grid-scale", "log",
                                               "--format", "json"])
        assert res.exit_code == 0
        grid = KernelGrid.from_json(res.output)
        want = np.logspace(math.log10(0.5), math.log10(1.5), 3)
        assert grid.xs == grid.ys == list(want)

    @pytest.mark.parametrize("kind", ["K00", "hard-K01"])
    def test_csv_and_json_round_trip(self, runner, kind):
        args = ["kernel-grid", "--a", "0.5", "--b", "0.7", "--theta", "1.5",
                "--n", "2", "--kind", kind, "--grid-min", "0.5",
                "--grid-max", "1.5", "--grid-count", "2"]
        res_json = runner.invoke(main, args + ["--format", "json"])
        res_csv = runner.invoke(main, args + ["--format", "csv"])
        assert res_json.exit_code == 0 and res_csv.exit_code == 0
        grid = KernelGrid.from_json(res_json.output)
        assert grid.to_json() == res_json.output
        # the metadata line differs in its "format" option only
        assert (grid.to_csv().splitlines()[1:]
                == res_csv.output.splitlines()[1:])


class TestVerify:
    @pytest.mark.parametrize("suite", list(cli._SUITES))
    def test_single_suite_passes(self, runner, suite):
        res = runner.invoke(main, ["verify", "--suite", suite])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert all(item["status"] == "pass" for item in report)
        assert all(item["check_name"].startswith(suite + ".")
                   for item in report)

    def test_numerics_suite_builds_no_gauss_jacobi_rule(self, runner,
                                                        monkeypatch):
        # the Jacobi-weight check integrates t^0.7 t^5 by tanh-sinh
        def refuse(*args):
            raise AssertionError("verify built a Gauss-Jacobi rule")

        rule = numerics.gauss_jacobi
        for name, mod in list(sys.modules.items()):
            if (name.startswith("cauchybures")
                    and getattr(mod, "gauss_jacobi", None) is rule):
                monkeypatch.setattr(mod, "gauss_jacobi", refuse)
        res = runner.invoke(main, ["verify", "--suite", "numerics"])
        assert res.exit_code == 0, res.exception
        report = json.loads(res.output)
        assert [item["check_name"] for item in report] == [
            "numerics.pfaffian_squared_equals_det",
            "numerics.jacobi_weight_monomial"]
        assert report[1]["measured"] < 1e-15

    @pytest.mark.parametrize("error,code", [(NonConverged, 2),
                                            (DomainError, 1)])
    def test_library_errors_map_to_exit_codes(self, runner, monkeypatch,
                                              error, code):
        def failing_suite(rng, tol):
            raise error("raised inside a check")
            yield

        monkeypatch.setitem(cli._SUITES, "numerics", failing_suite)
        res = runner.invoke(main, ["verify", "--suite", "numerics"])
        assert res.exit_code == code
        assert isinstance(res.exception, SystemExit)
        assert "raised inside a check" in res.stderr

    def test_unknown_suite_exits_one(self, runner):
        res = runner.invoke(main, ["verify", "--suite", "astrology"])
        assert res.exit_code == 1

    def test_unreasonable_tolerance_exits_one(self, runner):
        res = runner.invoke(main, ["verify", "--tol", "1.0"])
        assert res.exit_code == 1

    def test_finest_tolerance_passes_every_check(self, runner):
        # the full run's largest residual is 5.1e-15 (the k01 routes; 2.3e-14
        # when the t-integral ran on tanh-sinh), below the finest tolerance
        # verify takes
        res = runner.invoke(main, ["verify", "--tol", "1e-14"])
        assert res.exit_code == 0

    def test_failed_check_exits_three(self, runner, monkeypatch):
        # a residual past its tolerance stops the run with exit 3, after
        # the report of the checks so far
        monkeypatch.setitem(cli._SUITES, "raney",
                            lambda rng, tol: iter([("forced", 2 * tol, tol)]))
        res = runner.invoke(main, ["verify", "--suite", "raney",
                                   "--tol", "1e-14"])
        assert res.exit_code == 3
        assert json.loads(res.stdout)[-1]["status"] == "fail"


class TestPartition:
    def test_cauchy_matches_library(self, runner):
        res = runner.invoke(main, ["partition", "--model", "cauchy",
                                   "--a", "0.5", "--b", "0.7",
                                   "--theta", "1.5", "--n", "3"])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        want = partition_cauchy(EnsembleParams(0.5, 0.7, 1.5, 3))
        assert rec["value"] == pytest.approx(want.to_real(), rel=1e-12)
        assert rec["log_abs"] == pytest.approx(want.log_mag, rel=1e-12)

    def test_cauchy_requires_b(self, runner):
        res = runner.invoke(main, ["partition", "--model", "cauchy",
                                   "--a", "0.5", "--n", "2"])
        assert res.exit_code == 1

    def test_invalid_parameters_exit_one(self, runner):
        res = runner.invoke(main, ["partition", "--model", "cauchy",
                                   "--a", "-2.0", "--b", "0.0", "--n", "2"])
        assert res.exit_code == 1

    def test_divergent_bimoments_exit_one_without_traceback(self, runner):
        res = runner.invoke(main, ["partition", "--model", "cauchy",
                                   "--a", "-0.9", "--b", "-0.9",
                                   "--theta", "0.05", "--n", "80"])
        assert res.exit_code == 1
        # a handled error exits through sys.exit; a crash leaves the
        # exception itself here
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.stderr
        assert "a + b must exceed -1" in res.stderr

    @pytest.mark.parametrize("theta", [1.0, 0.3])
    def test_unrepresentable_value_printed_as_null(self, runner, theta):
        # at N=80, log Z is ~ +9864 (theta=1) or ~ -5385 (theta=0.3): Z over-
        # or underflows a double, while its (sign, log) form stays exact
        n = 80
        res = runner.invoke(main, ["partition", "--model", "cauchy",
                                   "--a", "0", "--b", "0",
                                   "--theta", str(theta), "--n", str(n)])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["value"] is None
        assert rec["sign"] == 1
        # closed product at a = b = 0 (beta = 1/theta), in 30 digits
        with mpmath.workdps(30):
            lg, th = mpmath.loggamma, mpmath.mpf(theta)
            beta = 1 / th
            want = (sum(2 * lg(th * (j - 1) + 1) for j in range(1, n + 1))
                    - n * mpmath.log(th)
                    + sum(2 * lg(l + 1) for l in range(1, n))
                    + sum(lg(beta + k - 1) - lg(beta + k + n - 1)
                          for k in range(1, n + 1)))
        assert rec["log_abs"] == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("n", [20, 80])
    def test_bures_large_n_matches_squared_identity(self, runner, n):
        res = runner.invoke(main, ["partition", "--model", "bures",
                                   "--a", "0.3", "--theta", "1.3",
                                   "--n", str(n)])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        want = partition_bures(EnsembleParams(0.3, 1.3, 1.3, n),
                               route="cauchy")
        assert rec["sign"] == 1
        assert rec["log_abs"] == pytest.approx(want.log_mag, rel=1e-10)


class TestCorr:
    def test_cauchy_matches_library(self, runner):
        res = runner.invoke(main, ["corr", "--model", "cauchy",
                                   "--a", "0.5", "--b", "0.7",
                                   "--theta", "1.5", "--n", "2",
                                   "--x", "0.8"])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        p = EnsembleParams(0.5, 0.7, 1.5, 2)
        want = rho_cauchy(CorrelationRequest("cauchy", p, (0.8,)))
        assert rec["value"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("route", ["direct", "tintegral"])
    @pytest.mark.parametrize("argv", [
        ["--model", "cauchy", "--b", "0.7", "--x", "0.8", "--y", "1.1"],
        ["--model", "bures", "--z", "0.8", "--z", "1.1"]],
        ids=["cauchy", "bures"])
    def test_record_names_the_route_of_its_value(self, runner, monkeypatch,
                                                 route, argv):
        # the record once named "direct" whatever route rho ran; the two
        # routes' values differ in their last bits here, so the value tells
        # which one ran
        monkeypatch.setattr(cli, "_CORR_ROUTE", route)
        res = runner.invoke(main, ["corr", "--a", "0.5", "--theta", "1.5",
                                   "--n", "3", *argv])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        p = cli._params(argv[1], 0.5, 0.7 if argv[1] == "cauchy" else None,
                        1.5, 3)
        rho = {"cauchy": rho_cauchy, "bures": rho_bures}[argv[1]]
        pts = ((0.8,), (1.1,)) if argv[1] == "cauchy" else ((0.8, 1.1),)
        req = CorrelationRequest(argv[1], p, *pts)
        assert rec["route"] == route
        assert rec["value"] == rho(req, route=route)

    def test_oracle_flag_reports_discrepancy(self, runner):
        res = runner.invoke(main, ["corr", "--model", "bures",
                                   "--a", "0.3", "--theta", "1.0",
                                   "--n", "2", "--z", "0.9", "--oracle"])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["discrepancy"] < 1e-6 * abs(rec["value"])

    def test_underflowing_weight_prints_zero_with_its_oracle(self, runner):
        # x^a e^{-x} at x = 1e300 underflows to 0; this once exited 1 with
        # "a weight p^a overflows a double"
        res = runner.invoke(main, ["corr", "--model", "cauchy",
                                   "--a", "1.5", "--b", "0.7",
                                   "--theta", "1.5", "--n", "1",
                                   "--x", "1e300", "--oracle"])
        assert res.exit_code == 0
        rec = json.loads(res.output)
        assert rec["value"] == 0.0 and rec["oracle_value"] == 0.0

    def test_i1_overflow_exits_one_without_traceback(self, runner):
        # at N = 80, theta = 2 the direct route needs i1 at beta up to
        # 158.7, past where y^beta overflows a double
        res = runner.invoke(main, ["corr", "--model", "cauchy",
                                   "--a", "0.5", "--b", "0.7",
                                   "--theta", "2.0", "--n", "80",
                                   "--x", "1.0", "--y", "1.2"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.stderr
        assert "overflows a double at beta = " in res.stderr

    def test_species_flags_are_model_checked(self, runner):
        res = runner.invoke(main, ["corr", "--model", "bures", "--a", "0.3",
                                   "--n", "2", "--x", "0.9"])
        assert res.exit_code == 1
        res = runner.invoke(main, ["corr", "--model", "cauchy", "--a", "0.3",
                                   "--b", "0.5", "--n", "2", "--z", "0.9"])
        assert res.exit_code == 1
        # the Bures model fixes b = a + 1; a given --b must not be ignored
        for cmd in (["corr", "--z", "0.9"], ["partition"]):
            res = runner.invoke(main, cmd + ["--model", "bures", "--a", "0.3",
                                             "--b", "0.5", "--n", "2"])
            assert res.exit_code == 1
            assert "--b" in res.stderr


# Runs each argv list of argv[1] with every scipy import blocked, from a
# fresh import of the package; prints the exit codes as JSON.
_COLD_DRIVER = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from cauchybures.cli import main

def run(argv):
    try:
        main.main(args=argv, prog_name="cauchybures")
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # an uncaught error, e.g. the ImportError
        return repr(exc)

codes = [run(a) for a in json.loads(sys.argv[1])]
print("\\n" + json.dumps(codes))  # a JSON grid ends without a newline
"""


class TestWithoutScipy:
    def test_cold_commands_need_no_scipy(self, tmp_path):
        # the library imports no scipy; only the tests' references do.
        # The commands below, the brute-force oracles and verify among
        # them, run without it
        spec = write_spec(tmp_path, {"upper": [], "m": 2, "n": 0,
                                     "lower": [[0.0, 1.0], [0.0, 1.0]]})
        # a triple pole, and a pole pair 1e-12 apart, at z = 1.3: mpmath's
        # G^{3,0}_{0,3}(z | 0, 0, 0) and 2 z^{d/2} K_d(2 sqrt z), d = 1e-12
        outs = {}
        for name, lower, want in (
                ("triple", [[0, 1], [0, 1], [0, 1]], 0.11507790101178193883),
                ("near", [[0, 1], [1e-12, 1]], 0.16205943499510957518)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"upper": [], "lower": lower,
                                        "m": len(lower), "n": 0}))
            outs[name] = (str(path), str(tmp_path / f"{name}.out"), want)
        grid = ["--grid-min", "0.37", "--grid-max", "0.72",
                "--grid-count", "2"]
        corr = ["corr", "--model", "cauchy", "--a", "0.5", "--b", "0.7",
                "--theta", "1.5", "--n", "2", "--x", "0.8", "--y", "1.3"]
        blocked = [
            ["partition", "--model", "cauchy", "--a", "0.5", "--b", "0.7",
             "--theta", "1.5", "--n", "6"],
            corr,
            corr + ["--oracle"],
            ["corr", "--model", "bures", "--a", "0.3", "--n", "2",
             "--z", "0.9", "--oracle"],
            ["verify"],
            ["foxh", spec, "--z", "0.9643", "--z", "2.2"],  # double poles
            ["kernel-grid", "--a", "0.4", "--b", "1.4", "--theta", "1.3",
             "--n", "4", "--kind", "K00", *grid],
            ["kernel-grid", "--a", "0.5", "--b", "0.7", "--theta", "1.5",
             "--kind", "hard-K10", "--format", "json", *grid],
            ["kernel-grid", "--a", "0.5", "--b", "0.7", "--theta", "1.5",
             "--kind", "hard-K00", "--format", "json", *grid],
            *(["foxh", path, "--z", "1.3", "--out", out]
              for path, out, _ in outs.values()),
        ]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c",
             _COLD_DRIVER, json.dumps(blocked)], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == [0] * len(blocked)
        for _, out, want in outs.values():
            with open(out) as fh:
                value = json.load(fh)["records"][0]["value"]
            assert abs(value - want) <= 1e-13 * want, out
