"""End-to-end acceptance checks for the full library.

Each test records a single PASS/FAIL line (shown in the terminal summary)
with the measured worst-case error next to its tolerance.
"""
import math

import numpy as np
import pytest

from cauchybures.correlations import (CorrelationRequest, rho_bures,
                                      rho_bures_hard_edge, rho_cauchy)
from cauchybures.ensembles import (EnsembleParams, partition_bures,
                                   partition_cauchy)
from cauchybures import foxh
from cauchybures.foxh import FoxHSpec, fox_h, g_inf, g_tilde_inf
from cauchybures.kernels import (cd_hard_scaled, cd_kernel, hard_edge_kernel,
                                 k01, k10, k11)
from cauchybures.polynomials import (jacobi_p, monic_pair, p_hat,
                                     phi_bures, q_hat)
from cauchybures.raney import (density_asymptote, raney, sz_density,
                               sz_moment)
from references import hankel_loop, jacobi_series_value, simplex_quad_2d


def poly_kernel(params):
    """Vectorized CD kernel from the polynomial series."""
    theta = params.theta
    rows = []
    for n in range(params.n):
        w = 2.0 * n * theta + params.a + params.b + 1.0
        rows.append((w, p_hat(params, n).coeffs, q_hat(params, n).coeffs))

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


def test_criterion_01_partition_consistency(check):
    worst = 0.0
    for a, b, theta in ((0.0, 0.0, 1.0), (0.5, 0.25, 1.0),
                        (0.3, 0.7, 1.5), (0.0, 0.0, 2.0)):
        for n in range(1, 7):
            p = EnsembleParams(a, b, theta, n)
            closed = partition_cauchy(p).to_real()
            det = partition_cauchy(p, route="det").to_real()
            worst = max(worst, abs(closed / det - 1.0))
    hand = partition_cauchy(EnsembleParams(0.0, 0.0, 1.0, 2)).to_real()
    worst = max(worst, abs(hand * 12.0 - 1.0))
    check("criterion-01 partition consistency", worst, 1e-8)


def test_criterion_02_squared_partition_identity(check):
    worst = 0.0
    for a, theta in ((0.0, 1.0), (0.5, 1.0), (0.2, 1.5), (0.0, 2.0)):
        for n in range(1, 6):
            p = EnsembleParams(a, a + 1.0, theta, n)
            left = partition_bures(p).to_real()  # Schur product route
            right = partition_bures(p, route="cauchy").to_real()
            worst = max(worst, abs(left / right - 1.0))
    check("criterion-02 squared partition identity", worst, 1e-7)


def test_criterion_03_biorthogonality(check):
    # each polynomial evaluated once on the rule's nodes; the 7 x 7 inner
    # products <p_n, q_m> are one weighted matrix product
    worst = 0.0
    for a, b, theta in ((0.5, 0.7, 1.5), (0.0, 0.0, 1.0)):
        p = EnsembleParams(a, b, theta, 8)
        rule = simplex_quad_2d(a, b, 320, 320)
        ps = np.array([np.polynomial.polynomial.polyval(
            rule.xs ** theta, p_hat(p, n).coeffs) for n in range(7)])
        qs = np.array([np.polynomial.polynomial.polyval(
            rule.ys ** theta, q_hat(p, m).coeffs) for m in range(7)])
        got = (ps * rule.weights) @ qs.T
        want = np.diag(1.0 / (2.0 * theta * np.arange(7) + a + b + 1.0))
        worst = max(worst, float(np.max(np.abs(got - want))))
    check("criterion-03 bi-orthogonality", worst, 1e-8)


def test_criterion_04_jacobi_connection(check):
    worst = 0.0
    xs = np.linspace(0.0, 1.0, 21)
    for alpha in (0.0, 0.8, 2.3):
        for n in range(13):
            series = np.array([jacobi_series_value(n, alpha, x) for x in xs])
            rec = np.array([jacobi_p(n, alpha, x) for x in xs])
            scale = np.max(np.abs(rec))
            worst = max(worst, float(np.max(np.abs(series - rec)) / scale))
    check("criterion-04 Jacobi connection", worst, 1e-10)


def test_criterion_05_reproducing_kernel(check):
    worst1 = worst2 = 0.0
    for a, b, theta in ((0.5, 0.7, 1.5), (0.0, 0.0, 1.0)):
        for n in (2, 3):
            p = EnsembleParams(a, b, theta, n)
            kern = poly_kernel(p)
            rule = simplex_quad_2d(a, b, 320, 320)
            for x, y in ((0.6, 1.2), (1.4, 0.5)):
                got = rule.integrate(lambda w, z: kern(x, z) * kern(w, y))
                worst1 = max(worst1, abs(got / float(kern(x, y)) - 1.0))
            trace = rule.integrate(lambda x, y: kern(x, y))
            worst2 = max(worst2, abs(trace / n - 1.0))
    check("criterion-05a kernel self-reproduction", worst1, 1e-6)
    check("criterion-05b kernel trace equals matrix size", worst2, 1e-7)


def test_criterion_06_kernel_strategy_agreement(check):
    worst = 0.0
    p = EnsembleParams(0.5, 0.7, 1.5, 5)
    pts = [0.4, 1.0, 2.1]
    for x in pts:
        for y in pts:
            s = cd_kernel(p, x, y, route="direct")
            t = cd_kernel(p, x, y, route="tintegral")
            worst = max(worst, abs(t / s - 1.0))
    check("criterion-06a CD-kernel strategy agreement", worst, 1e-7)
    worst = 0.0
    p = EnsembleParams(0.5, 0.7, 1.5, 3)
    for fn in (k01, k10, k11):
        for u, v in ((0.3, 0.8), (0.6, 1.1), (1.0, 1.0), (1.7, 0.4),
                     (2.2, 2.9)):
            t = fn(p, u, v, route="tintegral")
            d = fn(p, u, v, route="direct")
            worst = max(worst, abs(d / t - 1.0))
    check("criterion-06b integrated-kernel route agreement", worst, 1e-6)


def test_criterion_07_polynomial_relations(check):
    worst = 0.0
    for a, theta in ((0.0, 1.0), (0.4, 1.5)):
        for n in range(1, 6):
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
            ptc, qtc = np.array(pt.coeffs), np.array(qt.coeffs)
            scale = np.max(np.abs(ptc))
            worst = max(
                worst,
                float(np.max(np.abs(ptc + qtc - 2.0 * phi_n))) / scale,
                float(np.max(np.abs(qtc - (phi_n - c_n * phi_m)))) / scale,
                float(np.max(np.abs(ptc - (phi_n + c_n * phi_m)))) / scale)
    check("criterion-07 polynomial family relations", worst, 1e-8)


def test_criterion_08_correlation_oracles(check, emit):
    worst = 0.0
    cauchy_cases = [
        (EnsembleParams(0.5, 0.7, 1.5, 1), (0.8,), ()),
        (EnsembleParams(0.5, 0.7, 1.5, 2), (0.8,), ()),
        (EnsembleParams(0.5, 0.7, 1.5, 2), (0.8,), (1.3,)),
    ]
    for p, xs, ys in cauchy_cases:
        req = CorrelationRequest("cauchy", p, xs, ys)
        worst = max(worst, abs(rho_cauchy(req)
                               / rho_cauchy(req, route="brute") - 1.0))
    bures_cases = [
        (EnsembleParams(0.3, 1.3, 1.0, 1), (0.9,)),
        (EnsembleParams(0.3, 1.3, 1.0, 2), (0.9,)),
    ]
    ratios = []
    for p, zs in bures_cases:
        req = CorrelationRequest("bures", p, zs)
        ratios.append(rho_bures(req) / rho_bures(req, route="brute"))
        worst = max(worst, abs(ratios[-1] - 1.0))
    emit(f"       criterion-08 fitted constant prefactor (formula/oracle): "
         f"{np.mean(ratios):.12f}")
    check("criterion-08 correlation oracles", worst, 1e-12)


def test_criterion_09_hard_edge_convergence(emit):
    pts = [(0.5, 0.5), (0.5, 1.5), (1.0, 1.0), (1.5, 0.5), (2.0, 1.2)]
    ok = True
    first_violation = None
    for a, b, theta in ((0.5, 0.7, 1.0), (0.3, 0.7, 1.5)):
        for X, Y in pts:
            limit = hard_edge_kernel(a, b, theta, "K00", X, Y)
            errs = [abs(cd_hard_scaled(EnsembleParams(a, b, theta, n), X, Y)
                        / limit - 1.0) for n in (20, 40, 80)]
            if not errs[0] > errs[1] > errs[2]:
                ok = False
                first_violation = first_violation or (a, b, theta, X, Y, errs)
    for a, theta in ((0.3, 1.0), (0.3, 1.5)):
        for z in (0.5, 0.9, 1.4):
            limit = rho_bures_hard_edge(a, theta, (z,))
            errs = []
            for n in (20, 40, 80):
                sc = n ** (-2.0 / theta)
                req = CorrelationRequest(
                    "bures", EnsembleParams(a, a + 1.0, theta, n), (z * sc,))
                errs.append(abs(sc * rho_bures(req, route="tintegral")
                                / limit - 1.0))
            if not errs[0] > errs[1] > errs[2]:
                ok = False
                first_violation = first_violation or (a, theta, z, errs)
    emit(f"[{'PASS' if ok else 'FAIL'}] criterion-09 hard-edge convergence: "
         f"error sequences strictly decreasing at N=20,40,80"
         + ("" if ok else f"; first violation {first_violation}"))
    assert ok, first_violation


def test_criterion_10_foxh_cross_validation(check):
    worst = 0.0
    rng = np.random.default_rng(7)
    for theta in (math.sqrt(2.0), 1.5):
        a = 0.4
        alpha = 2.0 * (a + 1.0) / theta - 1.0
        for z in rng.uniform(0.05, 4.0, 20):
            r = g_inf(a, alpha, theta, z)
            c = hankel_loop(*foxh._g_factors(a, alpha, theta, None, False),
                            z)
            worst = max(worst, abs(r / c - 1.0))
            rt = g_tilde_inf(a, alpha, theta, z)
            ct = hankel_loop(*foxh._gtinf_factors(a, alpha, theta), z)
            worst = max(worst, abs(rt / ct - 1.0))
    check("criterion-10a entire-kernel dual-route agreement", worst, 1e-8)
    worst = 0.0
    spec = FoxHSpec(upper=(), lower=((0.0, 1.0),), m=1, n=0)
    for z in np.linspace(0.1, 10.0, 34):
        worst = max(worst, abs(fox_h(spec, z) / math.exp(-z) - 1.0))
    check("criterion-10b Fox-H exponential identity", worst, 1e-12)


def test_criterion_11_raney_moments(check, emit):
    worst = 0.0
    for n in range(6):
        worst = max(worst, abs(sz_moment(n) / raney(1.5, 0.5, n) - 1.0))
    check("criterion-11a density moments are Raney numbers", worst, 1e-14)
    catalan = [1, 1, 2, 5, 14, 42]
    exact = all(raney(2.0, 1.0, n) == catalan[n] for n in range(6))
    emit(f"[{'PASS' if exact else 'FAIL'}] criterion-11b Catalan "
         f"specialization exact")
    assert exact
    x = 1e-5
    ratio = sz_density(x) / density_asymptote(1.5, 0.5, x)
    check("criterion-11c small-argument asymptote", abs(ratio - 1.0), 0.02)
