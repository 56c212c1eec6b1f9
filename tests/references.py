"""Reference routes that only the tests compare the library against.

Not collected as tests (the file name does not match test_*.py).  Each
computes a quantity independently of the production route it checks:
the Jacobi series by an mpmath sum, the Mellin-Barnes residue series by
mpmath gamma values and by a trapezoid quadrature of the same integrand
on a Hankel contour (scipy's complex log-gamma), the hard-edge kernels
and correlations by mpmath quadratures of Meijer-G and power-series
sides (G~_inf by Gauss's multiplication formula, not by residues), the
bi-orthogonal families by their bordered moment determinants, and the 2D
moment integrals by a tensor Gauss rule with the 1/(x+y) factor absorbed.
tanh_sinh_01_per_level keeps tanh-sinh's earlier loop, one integrand call
per level, which the library's loop must match to the bit.  scipy is
imported inside the three functions that use it, so that a test module
that calls none of them runs without scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import mpmath
import numpy as np

from cauchybures.ensembles import EnsembleParams, moment_c, partition_cauchy
from cauchybures.exceptions import (ComplexityError, DomainError,
                                    NonConverged, PoleCollisionError,
                                    PoleError)
from cauchybures.numerics import (_POLE_TOL, _TS_ROUNDING, LogValue,
                                  QuadratureRule, _tanh_sinh_level, ln_abs,
                                  mp_sum, refine_quadrature, require_integer,
                                  require_positive)

_trapz = getattr(np, "trapezoid", None) or np.trapz
_LOOP_NODES = 64
_LOOP_MAX_NODES = 65536
_LOOP_RTOL = 1e-11
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
    require_integer("degree", n, least=0)

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


def _log_integrand(num, den, u: np.ndarray, log_z: float) -> np.ndarray:
    """log of z^{-u} prod Gamma(num) / prod Gamma(den) at an array of nodes.

    A numerator gamma pole (within _POLE_TOL) at any node raises
    PoleError; a denominator one is a zero, so log -inf.
    """
    from scipy.special import loggamma

    def on_pole(w):
        n = np.round(w.real)
        return (n <= 0) & (np.abs(w - n) < _POLE_TOL)

    acc = -u * log_z
    for f in num:
        w = f.near + f.slope * u
        if on_pole(w).any():
            raise PoleError(f"log-gamma pole at z = {w[on_pole(w)][0]}")
        acc += loggamma(w)
    zero = np.zeros(len(u), dtype=bool)
    for f in den:
        w = f.near + f.slope * u
        zero |= on_pole(w)
        acc -= loggamma(w)
    acc[zero] = complex(-math.inf, 0.0)
    return acc


def hankel_loop(num, den, z: float) -> float:
    """The Mellin-Barnes integral of a foxh factor list (num, den) at z, by
    the trapezoid rule on a parabolic loop around the negative real u-axis,
    in floats, with no residue.

    The contour u(t) = v0*(1 - t^2) + i*c*t opens leftward with vertex v0
    to the right of every enclosed pole; the integrand decays
    super-exponentially along it, so the trapezoid rule with node doubling
    converges geometrically.
    """
    require_positive("z", z)
    log_z = math.log(z)
    # rightmost left-family pole, leftmost right-family pole
    left_max = max((f.pole(0) for f in num if f.slope > 0), default=-math.inf)
    right_min = min((f.pole(0) for f in num if f.slope < 0), default=math.inf)
    if left_max == -math.inf:
        raise DomainError("no left pole family to enclose")
    # For z << 1 the factor z^{-u} peaks at the contour vertex; keeping the
    # vertex within ~1/|log z| of the rightmost enclosed pole keeps that peak
    # comparable to the residue the integral actually equals, so the
    # trapezoid sum is not asked to resolve catastrophic cancellation.
    offset = 1.0
    if log_z < -1.0:
        offset = max(1.0 / -log_z, 1e-3)
    v0 = left_max + offset
    if v0 >= right_min - 0.3:
        v0 = 0.5 * (left_max + right_min)
        if v0 <= left_max + 1e-9:
            raise PoleCollisionError("left and right pole families overlap")
    c = 2.0 * max(1.0, v0 + 1.0)

    def log_g(t: np.ndarray) -> np.ndarray:
        u = v0 * (1.0 - t * t) + 1j * c * t
        du = -2.0 * v0 * t + 1j * c
        return _log_integrand(num, den, u, log_z) + np.log(du)

    # locate the truncation point: integrand 1e-18 below its peak
    t_max = 2.0
    for _ in range(60):
        re = log_g(np.linspace(0.0, t_max, 48)).real
        if re[-1] < re.max() - 45.0:
            break
        t_max *= 1.5
    else:
        raise NonConverged("integrand does not decay along the Hankel loop")

    def value_at(order: int) -> tuple[float, float]:
        t = np.linspace(0.0, t_max, order + 1)
        lg = log_g(t)
        m = lg.real.max()
        vals = np.exp(lg - m).imag
        scale = math.exp(m) / math.pi
        return (float(scale * _trapz(vals, t)),
                float(scale * _trapz(np.abs(vals), t)))

    # numerics.refine_quadrature's stop rule over node counts doubling
    # from _LOOP_NODES to _LOOP_MAX_NODES, judged against the sum of
    # |integrand| too: at a zero of the integral the value itself is
    # rounding noise and no relative test can pass
    prev = value_at(_LOOP_NODES)[0]
    delta, rel_prev = math.inf, 0.0
    order = 2 * _LOOP_NODES
    while order <= _LOOP_MAX_NODES:
        cur, magnitude = value_at(order)
        scale = max(abs(cur), abs(prev), magnitude)
        delta = abs(cur - prev)
        rel = delta / scale if scale else 0.0
        if (delta <= _LOOP_RTOL * scale or scale == 0.0
                or rel_prev > rel
                and rel * rel <= 1e-2 * _LOOP_RTOL * rel_prev):
            return cur
        prev, rel_prev = cur, rel
        order *= 2
    raise NonConverged(f"Hankel loop not converged at {_LOOP_MAX_NODES} "
                       f"nodes (last delta {delta:.3e})")


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
    require_integer("degree", n, least=0)
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
# tanh-sinh with one integrand call per level
# ---------------------------------------------------------------------------

def tanh_sinh_01_per_level(f: Callable[[np.ndarray], np.ndarray],
                           rtol: float = 1e-11) -> float:
    """numerics.tanh_sinh_01 as it ran before its first call of f held
    levels 0-2: f is called once per level, on the nodes that level adds,
    and no level is evaluated past the one the loop accepts.  The same
    level sums, Sigma w|f| and refusals, so the two agree to the bit."""
    value = mass = 0.0

    def checked(result: float) -> float:
        if mass > rtol / _TS_ROUNDING * abs(value):
            raise ComplexityError("tanh-sinh integral cancels")
        return result

    def level_sum(level: int) -> float:
        nonlocal value, mass
        rule = _tanh_sinh_level(level)
        vals = np.asarray(f(rule.nodes), dtype=float)
        prev, value = value, 0.5 * value + float(rule.weights @ vals)
        mass = 0.5 * mass + float(rule.weights @ np.abs(vals))
        if level and abs(value - prev) <= rtol * mass:
            checked(value)
        return value

    return checked(refine_quadrature(level_sum, rtol=rtol))


# ---------------------------------------------------------------------------
# quadrature for the 2D moment integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def gauss_jacobi_pair(order: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss rule for the weight t^alpha (1-t)^beta on (0, 1), cached."""
    from scipy.special import roots_jacobi
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError(f"exponents must exceed -1, got {alpha}, {beta}")
    x, w = roots_jacobi(order, beta, alpha)
    return QuadratureRule(0.5 * (x + 1.0), w / 2.0 ** (alpha + beta + 1.0))


@lru_cache(maxsize=32)
def gauss_laguerre(order: int, gamma_exp: float = 0.0) -> QuadratureRule:
    """Gauss rule for the weight s^gamma_exp e^{-s} on (0, inf), cached."""
    from scipy.special import roots_genlaguerre
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
