"""Reference routes that only the tests compare the library against.

Not collected as tests (the file name does not match test_*.py).  Each
computes a quantity independently of the production route it checks:
the Jacobi series by an mpmath sum, the Mellin-Barnes residue series by
mpmath gamma values, the hard-edge kernels and correlations by mpmath
quadratures of Meijer-G and power-series sides (G~_inf by Gauss's
multiplication formula, not by residues), the bi-orthogonal families
by their bordered moment determinants, and the 2D moment integrals by a
tensor Gauss rule with the 1/(x+y) factor absorbed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import mpmath
import numpy as np
from scipy.special import roots_genlaguerre, roots_jacobi

from cauchybures.ensembles import EnsembleParams, moment_c, partition_cauchy
from cauchybures.exceptions import DomainError
from cauchybures.numerics import LogValue, QuadratureRule, ln_abs, mp_sum
from cauchybures.polynomials import _check_degree

# the determinant forms miss 1e-8 from degree 5 on (8e-5 at degree 8,
# 1e-1 at degree 10): the float moment determinant is ill-conditioned
_MAX_DEGREE = 5


# ---------------------------------------------------------------------------
# Jacobi connection
# ---------------------------------------------------------------------------

def jacobi_series_value(n: int, alpha: float, x: float) -> float:
    """Value of sum_l c_{n,l} x^l, summed in mpmath (numerics.mp_sum).

    The alternating coefficients reach ~1e6 by n = 12 while the value
    stays order one, so a plain double-precision sum cannot do better
    than ~1e-10 absolute; mp_sum raises the working precision until the
    digits the cancellation eats leave enough.
    """
    _check_degree(n)

    def series():
        al = mpmath.mpf(alpha)
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        peak = mpmath.mpf(0)
        for l in range(n + 1):
            term = ((-1) ** l * mpmath.gamma(al + n + l + 1)
                    / (mpmath.factorial(l) * mpmath.factorial(n - l)
                       * mpmath.gamma(al + l + 1)) * xm ** l)
            total += term
            peak = max(peak, abs(term))
        return total, ln_abs(peak)

    return float(mp_sum(series))


# ---------------------------------------------------------------------------
# Mellin-Barnes residue series
# ---------------------------------------------------------------------------

def residue_sum(num, den, zs, dps: int) -> list:
    """dps-digit sums of the simple residues of a foxh factor list at zs.

    num and den are GammaFactor lists, read with their exact shifts and
    float slopes, as the library reads them; each residue comes from
    mpmath.gamma and rgamma at its pole, not from foxh's coefficient
    tables.  zs ascend; each left family runs until its
    terms at max(zs) lie dps digits below their largest.  Every left pole
    must be simple.
    """
    with mpmath.workdps(dps):
        def shift(f):
            return mpmath.mpf(f.shift.numerator) / f.shift.denominator

        zs = [mpmath.mpf(z) for z in zs]
        totals = [mpmath.mpf(0)] * len(zs)
        for i, f in enumerate(num):
            if f.slope < 0:
                continue
            k, top = 0, mpmath.mpf(0)
            while True:
                u = (-shift(f) - k) / f.slope
                c = (-1) ** k / (mpmath.factorial(k) * f.slope)
                for j, g in enumerate(num):
                    if j != i:
                        c *= mpmath.gamma(shift(g) + g.slope * u)
                for g in den:
                    c *= mpmath.rgamma(shift(g) + g.slope * u)
                size = abs(c) * zs[-1] ** -u
                top = max(top, size)
                if k > 20 and size < top * mpmath.mpf(10) ** -dps:
                    break
                totals = [t + c * z ** -u for t, z in zip(totals, zs)]
                k += 1
        return totals


# ---------------------------------------------------------------------------
# hard-edge limits
# ---------------------------------------------------------------------------

def g_tilde_inf_meijer_g(a, alpha, p, q, z):
    """G~_inf at theta = p/q as one Meijer G-function (Gauss multiplication
    of Gamma(u) and Gamma(theta*u - a)), in mpmath at its working
    precision; the float parameters are taken as exact."""
    a, alpha, z = mpmath.mpf(a), mpmath.mpf(alpha), mpmath.mpf(z)
    b1 = ([mpmath.mpf(k) / q for k in range(q)]
          + [(k - a) / p for k in range(p)])
    b2 = [1 - (alpha + 1 + k) / q for k in range(q)]
    w = z ** q / (mpmath.mpf(q) ** (2 * q) * mpmath.mpf(p) ** p)
    c = ((2 * mpmath.pi) ** (mpmath.mpf(1 - p) / 2)
         * mpmath.mpf(p) ** (-a - mpmath.mpf(0.5)) * mpmath.mpf(q) ** -alpha)
    return c * mpmath.meijerg([[], []], [b1, b2], w)


def g_inf_series(a, alpha, theta, z):
    """G_inf(z) = sum_k (-z)^k / (k! Gamma(alpha+1+k) Gamma(a+theta k+1)),
    its defining power series, in mpmath at its working precision."""
    total, k = mpmath.mpf(0), 0
    while True:
        term = ((-z) ** k * mpmath.rgamma(k + 1) * mpmath.rgamma(alpha + 1 + k)
                * mpmath.rgamma(a + theta * k + 1))
        total += term
        if k > max(z, 4) and abs(term) < mpmath.eps * abs(total):
            return total
        k += 1


def hard_edge_kernel_quad(a, b, p, q, kind: str, x1, x2):
    """kernels.hard_edge_kernel at theta = p/q by mpmath.quad, at its
    working precision: theta x1^a x2^b (each on an integrated side of
    kind) times int_0^1 t^alpha F1(t x1^theta) F2(t x2^theta) dt,
    alpha = (a+b+1)/theta - 1, with F the Meijer-G form of G~_inf on an
    integrated side and G_inf's power series otherwise.  The float
    parameters are taken as exact."""
    a, b, x1, x2 = map(mpmath.mpf, (a, b, x1, x2))
    theta = mpmath.mpf(p) / q
    alpha = (a + b + 1) / theta - 1
    sides, weight = [], theta
    for tilde, e, x in ((kind[1] == "1", a, x1), (kind[2] == "1", b, x2)):
        z = x ** theta
        if tilde:
            weight *= x ** e
            sides.append(lambda t, e=e, z=z: g_tilde_inf_meijer_g(
                e, alpha, p, q, t * z))
        else:
            sides.append(lambda t, e=e, z=z: g_inf_series(e, alpha, theta,
                                                          t * z))
    f1, f2 = sides
    return weight * mpmath.quad(lambda t: t ** alpha * f1(t) * f2(t), [0, 1])


def rho_bures_hard_edge_quad(a, p, q, zs):
    """correlations.rho_bures_hard_edge at theta = p/q and one or two
    points, in mpmath: the Pfaffian of the dressed blocks of
    hard_edge_kernel_quad on the pair (a, a + 1).  A dressed kernel is
    p1^(a+1) on an integrated first side and p2^a on an integrated second
    side times the kernel, less 1/(p1 + p2) for K11."""
    b = a + 1.0  # the pair as the library forms it, in floats

    def hk(kind, p1, p2):
        val = hard_edge_kernel_quad(a, b, p, q, kind, p1, p2)
        p1, p2 = mpmath.mpf(p1), mpmath.mpf(p2)
        if kind == "K11":
            val -= 1 / (p1 + p2)
        if kind[1] == "1":
            val *= p1 ** mpmath.mpf(b)
        if kind[2] == "1":
            val *= p2 ** mpmath.mpf(a)
        return val

    def s01(zi, zj):
        return hk("K01", zj, zi) + hk("K10", zi, zj)

    if len(zs) == 1:
        return s01(zs[0], zs[0]) / 2
    z0, z1 = zs
    d11 = hk("K11", z0, z1) - hk("K11", z1, z0)
    d00 = hk("K00", z1, z0) - hk("K00", z0, z1)
    return -(d11 * d00 - s01(z0, z0) * s01(z1, z1)
             + s01(z0, z1) * s01(z1, z0)) / 4


# ---------------------------------------------------------------------------
# determinant forms of the bi-orthogonal families
# ---------------------------------------------------------------------------

def _det_form(params: EnsembleParams, n: int, x, transpose: bool) -> float:
    """Bordered moment determinant with the sqrt(h_n/(theta Z_n Z_{n+1})) factor."""
    _check_degree(n)
    if n >= _MAX_DEGREE:
        raise DomainError(f"degree {n} refused: the moment determinant is "
                          f"ill-conditioned (limit {_MAX_DEGREE})")
    m = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n):
            m[i, j] = moment_c(params, i + 1, j + 1)
    m[:, n] = np.asarray(x, dtype=float) ** np.arange(n + 1)
    if transpose:
        m = m.T
    det = np.linalg.det(m)
    h_n = params.theta / (2.0 * n * params.theta + params.a + params.b + 1.0)
    z_np1 = partition_cauchy(params.with_n(n + 1))
    z_n = partition_cauchy(params.with_n(n)) if n >= 1 else LogValue.one()
    pref = math.exp(0.5 * (math.log(h_n) - math.log(params.theta)
                           - z_n.log_mag - z_np1.log_mag))
    return pref * det


def p_hat_det(params: EnsembleParams, n: int, x) -> float:
    """Determinant form of the first family (verification route)."""
    return _det_form(params, n, x, transpose=False)


def q_hat_det(params: EnsembleParams, n: int, y) -> float:
    """Determinant form of the second family (verification route)."""
    params_t = EnsembleParams(params.b, params.a, params.theta, params.n)
    # moment matrix transposed: border runs along the last row in y-powers
    return _det_form(params_t, n, y, transpose=True)


# ---------------------------------------------------------------------------
# quadrature for the 2D moment integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def gauss_jacobi_pair(order: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss rule for the weight t^alpha (1-t)^beta on (0, 1), cached."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError(f"exponents must exceed -1, got {alpha}, {beta}")
    x, w = roots_jacobi(order, beta, alpha)
    return QuadratureRule(0.5 * (x + 1.0), w / 2.0 ** (alpha + beta + 1.0))


@lru_cache(maxsize=32)
def gauss_laguerre(order: int, gamma_exp: float = 0.0) -> QuadratureRule:
    """Gauss rule for the weight s^gamma_exp e^{-s} on (0, inf), cached."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if gamma_exp <= -1.0:
        raise DomainError(f"exponent must exceed -1, got {gamma_exp}")
    x, w = roots_genlaguerre(order, gamma_exp)
    return QuadratureRule(x, w)


@dataclass(frozen=True)
class SimplexRule:
    """Tensor rule for integrals of f(x,y) x^a y^b e^{-(x+y)} / (x+y).

    Uses x = s*u, y = s*(1-u) so the 1/(x+y) factor is absorbed exactly:
    the weight becomes s^{a+b} e^{-s} in the radial variable and
    u^a (1-u)^b in the angular one.
    """

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray

    def integrate(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
        return float(self.weights @ np.asarray(f(self.xs, self.ys), dtype=float))


def simplex_quad_2d(alpha: float, beta: float, radial_order: int,
                    angular_order: int) -> SimplexRule:
    """Composite rule on the positive quadrant; see SimplexRule."""
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError("exponents must exceed -1")
    rad = gauss_laguerre(radial_order, alpha + beta)
    ang = gauss_jacobi_pair(angular_order, alpha, beta)
    s = rad.nodes[:, None]
    u = ang.nodes[None, :]
    xs = (s * u).ravel()
    ys = (s * (1.0 - u)).ravel()
    weights = (rad.weights[:, None] * ang.weights[None, :]).ravel()
    return SimplexRule(xs, ys, weights)
