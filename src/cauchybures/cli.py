"""Command-line front end: evaluation, grid generation, verification.

Exit codes: 0 success, 1 usage or validation error, 2 numerical
non-convergence, 3 verification failure.
"""
from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from . import correlations, ensembles, kernels, polynomials
from .raney import raney as raney_number
from .raney import sz_moment
from .exceptions import CauchyBuresError, ComplexityError, NonConverged
# hankel_loop and residue_series stay bound here for perfbench/tracer.py
from .foxh import FoxHSpec, hankel_loop, residue_series  # noqa: F401
from .numerics import SkewMatrix, pfaffian, require_positive, tanh_sinh_01

# the spec'd exit contract reserves 2 for non-convergence; route click's
# usage failures to 1 instead
click.UsageError.exit_code = 1


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


class _Main(click.Group):
    """The command group; maps the library's errors to exit codes, once
    for every command: NonConverged to 2, any other CauchyBuresError to 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NonConverged as exc:
            _fail(2, f"non-convergence: {exc}")
        except CauchyBuresError as exc:
            _fail(1, str(exc))


@click.group(cls=_Main)
def main():
    """Numerics for the deformed Cauchy two-matrix model and Bures ensemble."""


# ---------------------------------------------------------------------------
# foxh
# ---------------------------------------------------------------------------

def _load_foxh_spec(path: str) -> FoxHSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(1, f"cannot parse spec file: {exc}")
    if not isinstance(raw, dict):
        _fail(1, "spec file must hold a JSON object")
    for key in ("upper", "lower", "m", "n"):
        if key not in raw:
            _fail(1, f"spec file missing field {key!r}")
    return FoxHSpec(raw["upper"], raw["lower"], raw["m"], raw["n"])


@main.command()
@click.argument("spec_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--z", "zs", type=float, multiple=True, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def foxh(spec_file, zs, out):
    """Evaluate a Fox H-function at each --z; one JSON record per point."""
    spec = _load_foxh_spec(spec_file)
    require_positive("z", *zs)
    num, den = spec.factors()
    records = []
    for z in zs:
        value = residue_series(num, den, z)
        rec = {"z": z, "value": value, "strategy": "ResidueSum"}
        records.append(rec)
        click.echo(json.dumps(rec, sort_keys=True))
    if out:
        config = {"command": "foxh",
                  "options": {"spec_file": spec_file, "z": list(zs)}}
        with open(out, "w") as fh:
            json.dump({"config": config, "records": records}, fh,
                      sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# kernel-grid
# ---------------------------------------------------------------------------

_FINITE_KINDS = tuple(kernels._TILDE)
_HARD_KINDS = tuple("hard-" + k for k in _FINITE_KINDS)


@main.command("kernel-grid")
@click.option("--a", type=float, default=0.0)
@click.option("--b", type=float, default=0.0)
@click.option("--theta", type=float, default=1.0)
@click.option("--n", type=int, default=1)
@click.option("--kind", type=click.Choice(_FINITE_KINDS + _HARD_KINDS),
              default="K00")
@click.option("--grid-min", type=float, default=0.1)
@click.option("--grid-max", type=float, default=3.0)
@click.option("--grid-count", type=int, default=5)
@click.option("--grid-scale", type=click.Choice(["log", "linear"]),
              default="linear")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv")
def kernel_grid(a, b, theta, n, kind, grid_min, grid_max, grid_count,
                grid_scale, out, fmt):
    """Tabulate a kernel on a rectangular grid and write CSV or JSON."""
    if grid_count < 2:
        _fail(1, "grid count must be at least 2")
    if not 0 < grid_min < grid_max:
        _fail(1, "need 0 < grid-min < grid-max")
    if grid_scale == "log":
        axis = np.logspace(math.log10(grid_min), math.log10(grid_max),
                           grid_count)
    else:
        axis = np.linspace(grid_min, grid_max, grid_count)
    config = {"command": "kernel-grid", "options": {
        "a": a, "b": b, "theta": theta, "n": n, "kind": kind,
        "grid_min": grid_min, "grid_max": grid_max,
        "grid_count": grid_count, "grid_scale": grid_scale, "format": fmt,
    }}
    if kind in _FINITE_KINDS:
        fn = {"K00": kernels.cd_kernel, "K01": kernels.k01,
              "K10": kernels.k10, "K11": kernels.k11}[kind]
        ev = functools.partial(fn, ensembles.EnsembleParams(a, b, theta, n))
    else:
        ev = functools.partial(kernels.hard_edge_kernel, a, b, theta,
                               kind.removeprefix("hard-"))
    grid = kernels.make_grid(kind, axis, axis, ev, params=config)
    text = grid.to_csv() if fmt == "csv" else grid.to_json()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _checks_numerics(rng, tol):
    m = rng.standard_normal((6, 6))
    skew = SkewMatrix(np.triu(m, 1))
    pf = pfaffian(skew).to_real()
    det = np.linalg.det(skew.entries)
    yield ("pfaffian_squared_equals_det", abs(pf * pf - det) / abs(det), tol)
    exact = 1.0 / (0.7 + 6.0)  # integral of t^0.7 t^5 over (0,1)
    got = tanh_sinh_01(lambda t: t ** 0.7 * t ** 5)
    yield ("jacobi_weight_monomial", abs(got - exact) / exact, tol)


def _checks_ensembles(rng, tol):
    p = ensembles.EnsembleParams(0.0, 0.0, 1.0, 2)
    z2 = ensembles.partition_cauchy(p).to_real()
    yield ("cauchy_partition_n2_unit_params", abs(z2 - 1.0 / 12.0) * 12.0, tol)
    q = ensembles.EnsembleParams(0.4, 1.4, 1.3, 3)
    closed = ensembles.partition_cauchy(q)
    det = ensembles.partition_cauchy(q, route="det")
    yield ("cauchy_partition_closed_vs_det",
           abs(closed.to_real() / det.to_real() - 1.0), tol)
    product = ensembles.partition_bures(q).to_real()
    ident = ensembles.partition_bures(q, route="cauchy").to_real()
    yield ("bures_partition_product_vs_identity",
           abs(product / ident - 1.0), tol)


def _checks_polynomials(rng, tol):
    p = ensembles.EnsembleParams(0.5, 0.7, 1.5, 6)
    for nn in range(3):
        for mm in range(3):
            ph = polynomials.p_hat(p, nn)
            qh = polynomials.q_hat(p, mm)
            acc = 0.0
            for l, cl in enumerate(ph.coeffs):
                for k, ck in enumerate(qh.coeffs):
                    acc += cl * ck * ensembles.moment_c(p, l + 1, k + 1)
            expect = (1.0 / (p.theta * 2 * nn + p.a + p.b + 1.0)
                      if nn == mm else 0.0)
            yield (f"biorthogonality_{nn}_{mm}", abs(acc - expect), tol)
    # the raw coefficient series sums to the Jacobi polynomial P_n^(alpha,0)
    for nn in range(5):
        for alpha in (0.0, 0.8):
            x = 0.37
            acc = sum(polynomials.coeff_c(nn, l, alpha) * x ** l
                      for l in range(nn + 1))
            jac = polynomials.jacobi_p(nn, alpha, x)
            yield (f"jacobi_series_{nn}_{alpha}", abs(acc - jac), tol)


def _checks_kernels(rng, tol):
    p = ensembles.EnsembleParams(0.5, 0.7, 1.5, 3)
    for x, y in ((0.4, 0.9), (1.3, 2.1)):
        s = kernels.cd_kernel(p, x, y, route="direct")
        t = kernels.cd_kernel(p, x, y, route="tintegral")
        yield (f"cd_strategy_agreement_{x}_{y}", abs(s / t - 1.0), tol)
    for x, y in ((0.6, 1.1),):
        t1 = kernels.k01(p, x, y, route="tintegral")
        t2 = kernels.k01(p, x, y, route="direct")
        yield (f"k01_route_agreement_{x}_{y}", abs(t1 / t2 - 1.0), tol)


def _checks_correlations(rng, tol):
    p = ensembles.EnsembleParams(0.0, 0.0, 1.0, 1)
    req = correlations.CorrelationRequest("cauchy", p, (0.9,), ())
    prod = correlations.rho_cauchy(req)
    orac = correlations.rho_cauchy(req, route="brute")
    yield ("cauchy_rho10_vs_bruteforce", abs(prod / orac - 1.0), tol)
    pb = ensembles.EnsembleParams(0.0, 1.0, 1.0, 1)
    reqb = correlations.CorrelationRequest("bures", pb, (1.0,), ())
    prodb = correlations.rho_bures(reqb)
    oracb = correlations.rho_bures(reqb, route="brute")
    yield ("bures_rho1_vs_bruteforce", abs(prodb / oracb - 1.0), tol)


def _checks_raney(rng, tol):
    catalan = [1, 1, 2, 5, 14, 42]
    for nn, c in enumerate(catalan):
        yield (f"catalan_{nn}", abs(raney_number(2.0, 1.0, nn) - c), 1e-9)
    for nn in range(5):
        got = sz_moment(nn)
        expect = raney_number(1.5, 0.5, nn)
        yield (f"sz_moment_{nn}", abs(got - expect), tol)


_SUITES = {
    "numerics": _checks_numerics,
    "ensembles": _checks_ensembles,
    "polynomials": _checks_polynomials,
    "kernels": _checks_kernels,
    "correlations": _checks_correlations,
    "raney": _checks_raney,
}


@main.command()
@click.option("--suite", default="all")
@click.option("--seed", type=int, default=0)
@click.option("--tol", type=float, default=1e-6)
def verify(suite, seed, tol):
    """Run module invariant checks; JSON report, exit 3 on first failure."""
    if not 1e-14 <= tol <= 1e-2:
        _fail(1, "tolerance must lie in [1e-14, 1e-2]")
    if suite != "all" and suite not in _SUITES:
        _fail(1, f"unknown suite {suite!r}; choose from "
                 f"all|{'|'.join(_SUITES)}")
    names = list(_SUITES) if suite == "all" else [suite]
    rng = np.random.default_rng(seed)
    report = []
    for name in names:
        for check_name, measured, tolerance in _SUITES[name](rng, tol):
            status = "pass" if measured <= tolerance else "fail"
            report.append({"check_name": f"{name}.{check_name}",
                           "status": status, "measured": measured,
                           "tolerance": tolerance})
            if status == "fail":
                click.echo(json.dumps(report, indent=1))
                _fail(3, f"verification failed: {name}.{check_name}")
    click.echo(json.dumps(report, indent=1))


# ---------------------------------------------------------------------------
# partition / corr
# ---------------------------------------------------------------------------

def _print_value(label: str, value_log):
    # value is null when |Z| is not a double; sign and log_abs still carry Z
    try:
        value = value_log.to_real()
    except ComplexityError:
        value = None
    if value == 0.0 and value_log.sign != 0:
        value = None
    click.echo(json.dumps({
        "quantity": label,
        "value": value,
        "sign": value_log.sign,
        "log_abs": value_log.log_mag,
    }, sort_keys=True))


def _params(model: str, a, b, theta, n) -> ensembles.EnsembleParams:
    """The model's parameters: Cauchy takes --b, Bures fixes b = a + 1."""
    if model == "cauchy" and b is None:
        _fail(1, "--b is required for the Cauchy model")
    if model == "bures" and b is not None:
        _fail(1, "--b does not apply to the Bures model (b = a + 1)")
    return ensembles.EnsembleParams(a, a + 1.0 if model == "bures" else b,
                                    theta, n)


@main.command()
@click.option("--model", type=click.Choice(["cauchy", "bures"]),
              default="cauchy")
@click.option("--a", type=float, required=True)
@click.option("--b", type=float, default=None)
@click.option("--theta", type=float, default=1.0)
@click.option("--n", type=int, required=True)
def partition(model, a, b, theta, n):
    """Partition function, printed in linear and (sign, log) form."""
    p = _params(model, a, b, theta, n)
    z = {"cauchy": ensembles.partition_cauchy,
         "bures": ensembles.partition_bures}[model]
    _print_value(f"Z_{model}", z(p))


@main.command()
@click.option("--model", type=click.Choice(["cauchy", "bures"]),
              required=True)
@click.option("--a", type=float, required=True)
@click.option("--b", type=float, default=None)
@click.option("--theta", type=float, default=1.0)
@click.option("--n", type=int, required=True)
@click.option("--x", "xs", type=float, multiple=True)
@click.option("--y", "ys", type=float, multiple=True)
@click.option("--z", "zs", type=float, multiple=True)
@click.option("--oracle", is_flag=True, default=False)
def corr(model, a, b, theta, n, xs, ys, zs, oracle):
    """Correlation function at the given points; --oracle adds brute force."""
    p = _params(model, a, b, theta, n)
    if model == "cauchy" and zs or model == "bures" and (xs or ys):
        _fail(1, "use --x/--y for the Cauchy model, --z for the Bures model")
    req = correlations.CorrelationRequest(
        model, p, *((xs, ys) if model == "cauchy" else (zs,)))
    rho = {"cauchy": correlations.rho_cauchy,
           "bures": correlations.rho_bures}[model]
    value = rho(req)
    oracle_value = rho(req, route="brute") if oracle else None
    click.echo(correlations.correlation_record(req, value, "direct",
                                               oracle_value))


if __name__ == "__main__":
    main()
