"""Christoffel-Darboux and correlation kernels with their hard-edge limits.

Every finite-N kernel is computable by two routes: the Christoffel-Darboux
sum over the bi-orthogonal pair, with i1 transforms on its integrated
sides (`_cd_contract`), and a t-integral of the contour functions, so the
routes can be played against each other in the tests; for K11 the second
is an exact incomplete-gamma sum on Python integers from its inputs to one
final mpf (_k11_inc_core): exact-rational vectors cut to integers and
cached per (a, b, theta, N, precision), and unit-step gamma chains run in
whichever direction needs fewer guard bits from seeds chosen by region
(_h_seed).
The direct route's integrated sides (_i1s) are unit-step i1 chains, one
quadrature seed per residue class of l mod q where theta = p/q
(_i1_chain); a side refuses where i1_integral does at its largest
exponent, where y^beta overflows a double.  They and the t-integrals'
G / G~ sides on each tanh-sinh call (_t_side, levels 0-2 on the first)
are cached, so the entries of one correlation share them.  One table of
the four kinds (_TILDE) and one dispatcher (_finite_kernel) choose every
route; one tanh-sinh rule integrates every t-integral (_gg_t_integral)
and both halves of i1_integral.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import mul
from typing import Callable, Optional

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp

from .exceptions import (ComplexityError, DomainError, NonConverged,
                         SingularPointError)
from .ensembles import EnsembleParams
from .foxh import g_inf, g_n, g_tilde_inf, g_tilde_n
from .numerics import (_DPS_STEP, _GUARD_BITS, _fixed_point, _tanh_sinh_call,
                       ln_abs, mp_sum, require_positive, tanh_sinh_01)
from .polynomials import _hat_table

__all__ = [
    "cd_kernel",
    "cd_hard_scaled",
    "k01",
    "k10",
    "k11",
    "hatted",
    "hard_edge_kernel",
    "delta_k00_inf",
    "delta_k11_inf",
    "sigma_k01_inf",
    "KernelGrid",
    "make_grid",
    "i1_integral",
]

_SINGULAR_TOL = 1e-12
_T_RTOL = 1e-10  # relative tolerance of the tanh-sinh t-integrals
# the tanh-sinh nodes reach t = e^{-700}; the part of int t^alpha dt
# below them, e^{-700 (alpha + 1)}, tops 1e-12 for alpha + 1 < 0.04
_MIN_ALPHA1 = 0.04
# an incomplete-gamma seed (_h_seed): digits it keeps past its unit after
# its cancellation, the w from which it takes the continued fraction, and
# the w at which _gamma_scaled splits Gamma(s), where its sum and its
# continued fraction cost about the same
_SEED_SPARE = 4
_CF_MIN_W = 24.0
_GAMMA_W = 128.0
_LN2, _LN10 = math.log(2.0), math.log(10.0)
# each kernel kind K<d1><d2>: is its first / second side integrated
# against the Cauchy weight?  An integrated side is an i1 transform on the
# direct route and the companion G~ in the t-integral.
_TILDE = {"K00": (False, False), "K01": (False, True),
          "K10": (True, False), "K11": (True, True)}


# ---------------------------------------------------------------------------
# Christoffel-Darboux sum
# ---------------------------------------------------------------------------

def _cd_contract(params: EnsembleParams, u, v, scale: float = 1.0) -> float:
    """scale * sum_m (2 m theta + a + b + 1) (P u)_m (Q v)_m.

    P, Q are the hat-coefficient tables of P-hat, Q-hat (rows m < N), and
    u, v the side vectors as (mantissa, binary exponent) pairs: u_l =
    x^{theta l} at a point (_powers), or i1(a + theta l, c) on an
    integrated side (_i1s).  With both sides at points this is the
    Christoffel-Darboux kernel K_N(x, y).  Sums run on mantissas scaled to
    their largest term, so no coefficient or power leaves double range.
    """
    a, b, theta, n = params.a, params.b, params.theta, params.n
    p_mant, p_exp = _hat_table(params.alpha, a, theta, n)
    q_mant, q_exp = _hat_table(params.alpha, b, theta, n)
    pu_mant, pu_exp = _scaled_sum(p_mant * u[0], p_exp + u[1])
    qv_mant, qv_exp = _scaled_sum(q_mant * v[0], q_exp + v[1])
    s_mant, s_exp = math.frexp(scale)
    weight = 2.0 * theta * np.arange(n) + a + b + 1.0
    mant, exp = _scaled_sum(weight * pu_mant * qv_mant * s_mant,
                            pu_exp + qv_exp + s_exp)
    return math.ldexp(float(mant), int(exp))


def _scaled_sum(mant: np.ndarray, exp: np.ndarray):
    """sum of mant * 2**exp along the last axis, as (mantissa, exponent)."""
    top = np.max(exp, axis=-1, keepdims=True)
    total, shift = np.frexp(np.sum(np.ldexp(mant, exp - top), axis=-1))
    return total, shift + top[..., 0]


def _powers(params: EnsembleParams, log2_x: float):
    """x^{theta l}, l < N, from log2 x, as (mantissa, binary exponent)."""
    t = params.theta * np.arange(params.n) * log2_x
    exp = np.floor(t)
    return np.exp2(t - exp), exp.astype(np.int64)


@lru_cache(maxsize=64)
def _i1s(theta: float, n: int, exponent: float, c: float):
    """i1(exponent + theta l, c), l < N, as (mantissa, binary exponent).

    Where theta = p/q exactly (the float taken as exact) with q < N, the
    l of one residue class mod q lie p unit steps apart, so the side is
    q chains of _i1_chain, one quadrature seed each.  Otherwise (as at
    theta = 1.3) every l is its own seed.  The largest exponent is
    integrated first, and its quadrature gives l = N-1: i1_integral's
    refusal where y^beta overflows a double therefore stands for the side.
    Cached, as read-only arrays: a correlation's entries share each of
    their integrated sides (at most two exponents per point), so a side
    is built once per correlation, not once per entry.
    """
    p, q = theta.as_integer_ratio()
    q = min(q, n)  # q >= N (as at theta = 1.3): N one-seed chains
    bases = [exponent + theta * r for r in range(q)]
    steps = [p * ((n - 1 - r) // q) for r in range(q)]
    top = bases[(n - 1) % q] + steps[(n - 1) % q]
    seeds = {top: i1_integral(top, c)}
    vals = np.empty(n)
    for r in range(q):
        vals[r::q] = _i1_chain(bases[r], steps[r], c, seeds)[::p]
    vals[-1] = seeds[top]
    sides = np.frexp(vals)
    for side in sides:
        side.setflags(write=False)
    return sides


def _i1_chain(beta: float, steps: int, c: float, seeds: dict) -> list:
    """i1(beta + j, c), j <= steps, from one seed by the unit step
    i1(b + 1) = Gamma(b + 1) - c i1(b) (DLMF 8.8.2 in i1 form).

    The seed is i1_integral (or its value in seeds) at the lowest
    exponent b with b + 1 >= c, or at the top if there is none.  Steps
    run upward above it and downward, i1(b) = (Gamma(b + 1) - i1(b + 1))/c,
    below it, the directions in which they are stable (Gautschi, SIAM
    Rev. 9, 1967): by Jensen, i1(b) >= Gamma(b + 1)/(c + b + 1), a step
    scales a relative error by at most (c + 1)/(b + 1) upward from b and
    (b + 1)/c downward to b, below 1 but for the upward steps with b < c,
    and Gamma(b + 1) exceeds the difference it forms by one more than that.
    """
    s = min(steps, max(0, math.ceil(c - 1.0 - beta)))
    chain = [0.0] * (steps + 1)
    chain[s] = seeds.get(beta + s) or i1_integral(beta + s, c)
    for j in range(s, steps):
        chain[j + 1] = math.gamma(beta + (j + 1)) - c * chain[j]
    for j in range(s, 0, -1):
        chain[j - 1] = (math.gamma(beta + j) - chain[j]) / c
    return chain


def cd_kernel(params: EnsembleParams, x: float, y: float,
              route: str = "direct") -> float:
    """CD kernel K_N(x, y); routes direct (the CD sum) | tintegral."""
    return _finite_kernel(params, "K00", x, y, route)


def cd_hard_scaled(params: EnsembleParams, x_hard: float, y_hard: float) -> float:
    """N^{-2(alpha+1)} K_N(X N^{-2/theta}, Y N^{-2/theta}) without under/overflow."""
    require_positive("kernel arguments", x_hard, y_hard)
    # N^{-2 l} enters through the log of each power, never by itself
    shift = -2.0 / params.theta * math.log2(params.n)
    return _cd_contract(params, _powers(params, math.log2(x_hard) + shift),
                        _powers(params, math.log2(y_hard) + shift),
                        params.n ** (-2.0 * (params.alpha + 1.0)))


# ---------------------------------------------------------------------------
# t-integrals of G / G~ products
# ---------------------------------------------------------------------------

def _kept(alpha: float, t: np.ndarray) -> np.ndarray:
    """Mask of the t-integral nodes: those with t^{alpha+1} >= 1e-60 (t >=
    1e-60 for alpha >= 0).  The rest hold less than 1e-60 of the t^alpha
    mass; they are left out, since a G~ factor alone can overflow there."""
    return t ** min(alpha + 1.0, 1.0) >= 1e-60


def _gg_t_integral(alpha: float, side1: Callable, side2: Callable) -> float:
    """integral_0^1 t^alpha F1(t z1) F2(t z2) dt by tanh-sinh, every kind.

    tanh-sinh converges through the t^alpha weight of K00's entire G G
    and through a G~'s algebraic t^{-a/theta} endpoint behavior, which no
    single polynomial weight fits.  side1(call) and side2(call) are the
    factors on the nodes of tanh_sinh_01's call `call` of the integrand
    that _kept keeps (_t_side): call 0 holds levels 0-2, each later call
    one level, so each call costs at most one evaluation of each side.

    The factors are good to about 1e-14 relative; where cancellation could
    scale that past _T_RTOL, tanh_sinh_01 raises ComplexityError, which
    this passes on with the direct route as the way round it.  So does
    alpha + 1 below _MIN_ALPHA1.
    """
    if alpha + 1.0 < _MIN_ALPHA1:
        raise ComplexityError(f"t-integral: alpha + 1 = {alpha + 1.0:.3g} "
                              f"puts t^alpha mass below the tanh-sinh nodes")
    call = 0

    def integrand(t: np.ndarray) -> np.ndarray:
        # tanh_sinh_01's calls of f are those of _tanh_sinh_call, in turn
        nonlocal call
        out = np.zeros(len(t))
        keep = _kept(alpha, t)
        out[keep] = t[keep] ** alpha * side1(call) * side2(call)
        call += 1
        return out

    try:
        return tanh_sinh_01(integrand, rtol=_T_RTOL)
    except ComplexityError as err:
        raise ComplexityError(f"t-integral: {err}; at finite N route='direct'"
                              f" avoids it (its float sum loses digits as N"
                              f" grows)") from None


@lru_cache(maxsize=256)
def _t_side(tilde: bool, e: float, alpha: float, theta: float,
            n: Optional[int], z: float, call: int) -> np.ndarray:
    """G_n (G~_n with tilde; G_inf, G~_inf for n=None) of exponent e at
    t z, over the nodes t of tanh_sinh_01's call `call` of the integrand
    (_tanh_sinh_call: levels 0-2 for call 0) that _kept keeps.

    Cached, as read-only arrays: the t-integrals of a correlation's
    entries, or of a grid's cells, share each side (at most four per
    point: G or G~, exponent a or b), so each is evaluated once per call
    it reaches.  alpha fixes the node mask as well as the function.
    """
    t = _tanh_sinh_call(call)
    tz = t[_kept(alpha, t)] * z
    if n is None:
        vals = (g_tilde_inf if tilde else g_inf)(e, alpha, theta, tz)
    else:
        vals = (g_tilde_n if tilde else g_n)(e, alpha, theta, n, tz)
    vals.setflags(write=False)
    return vals


def _kernel(a: float, b: float, theta: float, n: Optional[int], kind: str,
            x1: float, x2: float):
    """Exponent-free kernel of the pair (a, b): finite n, or n=None.

    With alpha = (a+b+1)/theta - 1 and u_i = x_i^theta this is
    theta int_0^1 t^alpha F_a(t u1) F_b(t u2) dt, each F the companion G~
    on an integrated side (_TILDE) and G otherwise, times x1^a and x2^b
    for an integrated first and second side.  G, G~ are G_n, G~_n, or the
    hard-edge G_inf, G~_inf for n=None.  Every kind is integrated by
    _gg_t_integral over cached sides (_t_side).  The finite-N kernels
    carry a further e^{x} per integrated side, and their K11 is not this
    integral (see _finite_kernel).
    """
    if kind not in _TILDE:
        raise DomainError(f"unknown kernel kind {kind!r}")
    alpha = (a + b + 1.0) / theta - 1.0
    tilde1, tilde2 = _TILDE[kind]
    weight = theta
    if tilde2:
        weight *= x2 ** b
    if tilde1:
        weight *= x1 ** a
    return weight * _gg_t_integral(
        alpha, partial(_t_side, tilde1, a, alpha, theta, n, x1 ** theta),
        partial(_t_side, tilde2, b, alpha, theta, n, x2 ** theta))


# ---------------------------------------------------------------------------
# correlation kernels K01 / K10 / K11
# ---------------------------------------------------------------------------

def i1_integral(beta: float, c: float) -> float:
    """integral_0^infty y^beta e^{-y} / (c + y) dy, split at y = c.

    Both halves run on tanh-sinh: below the split after y = c s^g, g =
    1/(beta + 1), which absorbs y^beta (c^beta g int_0^1 e^{-c s^g} /
    (1 + s^g) ds), above it on y = c + span t.  Raises ComplexityError
    where y^beta overflows a double before e^{-y} scales it, as (c +
    span)^beta does past 1.8e308, span = 60 + 2 beta + 10 sqrt(beta): the
    first refused beta falls with c, 118.2 at c = 1, 116.6 at 40, 112.8 at
    150 and 106.7 at 400 (in steps of 0.1).
    """
    require_positive("c and beta + 1", c, beta + 1.0)
    g = 1.0 / (beta + 1.0)
    # above the split the integrand has structure on the scale of c near
    # t = 0, where tanh-sinh clusters its nodes; span reaches the e^{-y} tail
    span = 60.0 + 2.0 * beta + 10.0 * math.sqrt(max(beta, 1.0))
    try:
        with np.errstate(over="raise"):
            lower = c ** beta * g * tanh_sinh_01(
                lambda s: np.exp(-c * s ** g) / (1.0 + s ** g))
            return lower + span * tanh_sinh_01(
                lambda t: (c + span * t) ** beta * np.exp(-c - span * t)
                / (2.0 * c + span * t))
    except (OverflowError, FloatingPointError):
        raise ComplexityError(
            f"i1_integral: y^beta overflows a double at beta = {beta:g} "
            f"(c = {c:g})") from None


def _exp(x: float) -> float:
    """e^x, or ComplexityError where it leaves double range."""
    try:
        return math.exp(x)
    except OverflowError:
        raise ComplexityError(f"e^{x:g} overflows a double; the "
                              f"t-integral route cannot carry it") from None


def _finite_kernel(params: EnsembleParams, kind: str, p1: float, p2: float,
                   route: str) -> float:
    """The finite-N kernel of `kind` at (p1, p2) by `route`.

    "direct" contracts the Christoffel-Darboux sum with one side vector
    per side: the powers p^{theta l} at a point, i1(a + theta l, p1) or
    i1(b + theta l, p2) where that side is integrated (_TILDE).
    "tintegral" is _kernel times e^{p} of each integrated side; for K11,
    whose t-integral of G~_n G~_n holds only asymptotically, it is the
    exact incomplete-gamma core (_k11_inc_core: exact-rational vectors,
    _k11_side's integer gamma chains).  K11 is returned without its
    1/(p1 + p2) singular part.
    """
    require_positive("kernel arguments", p1, p2)
    if kind == "K11" and p1 + p2 < _SINGULAR_TOL:
        raise SingularPointError("x + y below the singularity cutoff")
    a, b, theta, n = params.a, params.b, params.theta, params.n
    tilde = _TILDE[kind]
    if route == "direct":
        val = _cd_contract(params, *(
            _i1s(theta, n, e, p) if t else _powers(params, math.log2(p))
            for t, e, p in zip(tilde, (a, b), (p1, p2))))
    elif route == "tintegral" and kind == "K11":
        return float(_k11_inc_core(params, p1, p2))
    elif route == "tintegral":
        val = (_exp(sum(p for t, p in zip(tilde, (p1, p2)) if t))
               * _kernel(a, b, theta, n, kind, p1, p2))
    else:
        raise DomainError(f"unknown route {route!r}")
    return val - 1.0 / (p1 + p2) if kind == "K11" else val


def k01(params: EnsembleParams, x: float, xp: float,
        route: str = "tintegral") -> float:
    """K01(x, x') = integral of K_N(x, y) y^b e^{-y} / (x' + y) dy."""
    return _finite_kernel(params, "K01", x, xp, route)


def k10(params: EnsembleParams, y: float, yp: float,
        route: str = "tintegral") -> float:
    """K10(y, y') = integral of K_N(x, y') x^a e^{-x} / (x + y) dx."""
    return _finite_kernel(params, "K10", y, yp, route)


@lru_cache(maxsize=32)
def _k11_tables(a: float, b: float, theta: float, n: int, prec: int) -> tuple:
    """_k11_inc_core's z-independent vectors as integers for `prec` bits,
    without mpmath: (coef, its unit, h_m for m < 2N-1, its unit), x = m
    2^unit.  With alpha + 1 = (a + b + 1)/theta = P/Q (the floats read as
    exact), coef_j = (-1)^j C(N-1, j) prod_{i=j}^{N+j-1} (P + iQ) / ((N-1)!
    Q^N) and h_m = Q/(P + mQ), exact rationals cut on a unit _GUARD_BITS
    below prec under their first entry (coef_0, the least |coef_j|, whose
    side value is the largest, and h_0, the largest h)."""
    al1 = (Fraction(a) + Fraction(b) + 1) / Fraction(theta)
    p, q = al1.numerator, al1.denominator
    prod, binom, nums = math.prod(p + i * q for i in range(n)), 1, []
    for j in range(n):
        nums.append(-binom * prod if j % 2 else binom * prod)
        prod = prod * (p + (n + j) * q) // (p + j * q)
        binom = binom * (n - 1 - j) // (j + 1)
    den = math.factorial(n - 1) * q ** n
    cut = max(0, prec + _GUARD_BITS + den.bit_length() - nums[0].bit_length())
    hcut = max(0, prec + _GUARD_BITS + p.bit_length() - q.bit_length())
    return (tuple((x << cut) // den for x in nums), -cut,
            tuple((q << hcut) // (p + m * q) for m in range(2 * n - 1)), -hcut)


def _one_scale(*xs) -> tuple[list, int]:
    """Dyadic rationals (floats, Fractions) as integers over one 2^scale."""
    fr = [Fraction(x) for x in xs]
    scale = max(f.denominator.bit_length() for f in fr) - 1
    return [f.numerator << scale + 1 - f.denominator.bit_length()
            for f in fr], scale


def _h_fraction(s: Fraction, w: float, bits: int) -> int:
    """H(s) = e^w w^{-s} Gamma(s, w), s < 1, on the unit 2^-bits, from
    Legendre's continued fraction (DLMF 8.9.2), even form: 1/H(s) = w + 1
    - s - 1(1-s)/(w + 3 - s - 2(2-s)/(w + 5 - s - ...)), by the modified
    Lentz method on integers.  Its K ~ (bits ln 2)^2/(12 w) terms round off
    log2(K (w + 2K - s)/w) bits, under the 48 guard bits for the K < 1e5
    it is allowed."""
    (big_w, big_s), scale = _one_scale(w, s)
    fix = bits + 48
    one = 1 << fix
    b = (big_w + (1 << scale) - big_s << fix) >> scale
    f, c, d = b, b, 0
    for k in range(1, 100_000):
        a = -k * ((k << scale) - big_s)  # -k (k - s), times 2^scale
        b += 2 * one
        d = (one << fix) // (b + (a * d >> scale))
        c = b + ((a << 2 * fix) // c >> scale)
        delta = c * d >> fix
        f = f * delta >> fix
        if abs(delta - one) >> fix - bits - _GUARD_BITS == 0:
            return (1 << fix + bits) // f
    raise NonConverged(f"incomplete gamma at w = {w:g}: continued fraction "
                       f"unsettled after 1e5 terms at {bits} bits")


def _h_sum(s: Fraction, w: float) -> tuple:
    """sum_k w^k/(s)_{k+1} (DLMF 8.7.1), s < 1 not an integer, at the
    working precision, and the ln of its largest |term|.  It runs backward
    (Horner) on integers, which bounds its error by the unit times the sum
    of its |terms|; their sizes, from doubles, set where it stops."""
    (big_w, big_s), scale = _one_scale(w, s)
    prec, lw, ls = mpmath.mp.prec, math.log(w), scale * _LN2
    log_t = log_max = ls - math.log(abs(big_s))  # term 0: 1/s
    k, sf = 0, float(s)
    while k < w - sf:  # s + k exact: it may lie within 1e-17 of 0
        k += 1
        log_t += lw + ls - math.log(abs(big_s + (k << scale)))
        log_max = max(log_max, log_t)
    while log_t > log_max - (prec + _GUARD_BITS) * _LN2:
        k += 1  # s + k > w: the terms fall
        log_t += lw - math.log(sf + k)
    fix = prec + _GUARD_BITS + k.bit_length()
    one = r = 1 << fix
    for i in range(k, 0, -1):  # r <- 1 + w r/(s + i)
        r = one + big_w * r // (big_s + (i << scale))
    return mpmath.ldexp(r, scale - fix) / big_s, log_max


@lru_cache(maxsize=256)
def _gamma_scaled(s: Fraction, prec: int):
    """e^W W^{-s} Gamma(s) at W = _GAMMA_W, s < 1 not an integer, to `prec`
    bits without mpmath's gamma (whose tables cost 7-31 ms per precision):
    _h_sum at W, which no term cancels at this W, plus H(s, W) < 1/W from
    the continued fraction, down to the sum's last bit.  Cached: the seeds
    of one working precision share it."""
    with mpmath.workprec(prec + _GUARD_BITS):
        series = _h_sum(s, _GAMMA_W)[0]
        bits = max(1, prec + _GUARD_BITS - int(ln_abs(series) / _LN2))
        return series + mpmath.ldexp(_h_fraction(s, _GAMMA_W, bits), -bits)


def _h_series(s: Fraction, w: float) -> tuple:
    """For mp_sum: H(s) = e^w w^{-s} Gamma(s) - _h_sum(s, w) at the working
    precision, s < 1 not an integer, and the ln of its larger part, with
    e^w w^{-s} Gamma(s) = e^{w-W} (w/W)^{-s} _gamma_scaled(s)."""
    series, log_max = _h_sum(s, w)
    (big_s,), scale = _one_scale(s)
    sm = mpmath.mp.make_mpf(from_man_exp(big_s, -scale))  # s exact
    ww = mpmath.mpf(w) / _GAMMA_W
    gamma_part = (mpmath.exp(_GAMMA_W * (ww - 1) - sm * mpmath.log(ww))
                  * _gamma_scaled(s, mpmath.mp.prec))
    log_peak = max(log_max, ln_abs(gamma_part))
    # H(s) > 0: a zero difference lost every digit, which a value below
    # the peak's last bit tells mp_sum
    return ((gamma_part - series)
            or mpmath.ldexp(mpmath.exp(log_peak), -mpmath.mp.prec)), log_peak


def _h_seed(s: Fraction, w: float, bits: int) -> int:
    """H(s) = e^w w^{-s} Gamma(s, w), s < 1, on the unit 2^-bits, by region
    as Gil, Segura & Temme (SIAM J. Sci. Comput. 34, 2012) choose.

    From w = _CF_MIN_W on, _h_fraction.  Below, _h_series's difference,
    which cancels by about w log10(e) digits (17 more within 1e-17 of a
    pole of Gamma): mp_sum repeats it until it keeps the digits down to
    2^-bits.  Its first try runs two _DPS_STEPs above the working
    precision, whatever s, w and bits, so that the seeds of one working
    precision share _gamma_scaled's values.  An integer s takes mpmath's
    upper gammainc; a loss past mp_sum's ceiling takes _h_fraction, which
    refuses where it needs more than 1e5 terms (w well below 1 there).
    """
    if w >= _CF_MIN_W:
        return _h_fraction(s, w, bits)
    # a relative error of 2^-bits is at most the unit where H(s) <= 1, and
    # where H(s) > 1 (w < 1) the chain's steps down shrink absolute errors
    keep = math.ceil(bits * _LN2 / _LN10) + _SEED_SPARE
    if s.denominator == 1:
        with mpmath.workdps(keep):
            val = (mpmath.exp(w) * mpmath.mpf(w) ** -int(s)
                   * mpmath.gammainc(int(s), w))
    else:
        try:
            val = mp_sum(partial(_h_series, s, w),
                         mpmath.mp.dps + 2 * _DPS_STEP, keep)
        except NonConverged:
            return _h_fraction(s, w, bits)
    return int(mpmath.ldexp(val, bits))


def _k11_side(e: float, theta: float, n: int, w: float) -> tuple[list, int]:
    """H(s_j) = e^w w^{-s_j} Gamma(s_j, w) at s_j = -e - theta j, j < N, as
    integers on one unit 2^-bits, _GUARD_BITS past the working precision
    under 1/(w + 1 - s), a lower bound of every H(s) at s < 1; s_j and w
    exact (the floats read as exact), each step truncated once.

    Where theta = p/q exactly with q < N, the s_j of one residue class mod
    q lie p unit steps apart: q chains of DLMF 8.8.2, one _h_seed each, run
    down from the top, H(s-1) = (w H(s) - 1)/(s-1), or up from the bottom,
    H(s+1) = (s H(s) + 1)/w, whichever needs fewer guard bits: a step
    scales an error by w/|s-1| down and |s|/w up (Gautschi, SIAM Rev. 9,
    1967), and a chain carries log2 of the product of those factors above
    1.  Otherwise (as at theta = 1.3) every j is a seed.
    """
    p, q = theta.as_integer_ratio()
    q = min(q, n)  # q >= N (as at theta = 1.3): N one-seed chains
    (big_w, big_e, big_t), scale = _one_scale(w, e, theta)
    bits = (mpmath.mp.prec + _GUARD_BITS
            + math.ceil(w + 1 + e + theta * n).bit_length())
    unit_s, out = 1 << scale, [0] * n
    for r in range(q):
        js = range(r, n, q)
        steps = p * (len(js) - 1)
        top, bottom = -e - theta * r, -e - theta * js[-1]
        # the factors above 1 (s < 0 at every step)
        down = sum(math.log2(w / (t + 1 - top)) for t in
                   range(min(steps, max(0, math.ceil(w - 1 + top)))))
        up = sum(math.log2(-(bottom + t) / w) for t in
                 range(min(steps, max(0, math.ceil(-w - bottom)))))
        guard = math.ceil(min(up, down))
        start = -big_e - big_t * (js[-1] if up < down else r)
        one = 1 << bits + guard + scale  # 1 on the chain's unit, times 2^scale
        h = _h_seed(Fraction(start, unit_s), w, bits + guard)
        chain = [h]
        for t in range(1, steps + 1):
            if up < down:  # H(s + 1) from H(s), s = bottom + t - 1
                h = ((start + (t - 1) * unit_s) * h + one) // big_w
            else:  # H(s - 1) from H(s), s - 1 = top - t
                h = (big_w * h - one) // (start - t * unit_s)
            if t % p == 0:
                chain.append(h)
        for j, h in zip(js, chain[::-1] if up < down else chain):
            out[j] = h >> guard
    return out, -bits


def _k11_inc_core(params: EnsembleParams, y: float, x: float):
    """k11 at finite N, an mpmath value: theta times

        sum_{j,k<N} A_j B_k h_{j+k},  h_m = 1/(1+alpha+m),
        A_j = (-1)^j/j! Gamma(alpha+N+1+j) / (Gamma(N-j) Gamma(alpha+1+j))
              * H(-a - theta j) at y (_k11_side), B_k the same at b, x,

    minus 1/(x + y), subtracted in mpmath: in the bulk k11 is 1e-16 of it
    or less.  Integrating against both resolvent factors makes each gamma
    denominator an upper incomplete gamma, entire in the contour variable:
    only the Gamma(u) family contributes, and the sum is exact.

    It runs on Python integers up to one final mpf: coef and h from exact
    rationals (_k11_tables), the sides on one unit each, A_j and B_k their
    products cut back by numerics._fixed_point, and the N inner Hankel sums
    and the outer sum exact.  The truncations add at most N^2 2^{-prec-16}
    of the peak term, below the 2^{-prec} that mp_sum's spare digits allow
    for N <= 256.
    """
    a, b, theta, n = params.a, params.b, params.theta, params.n

    def double_sum():
        coef, uc, h, uh = _k11_tables(a, b, theta, n, mpmath.mp.prec)
        (ia, ua), (ib, ub) = (
            _fixed_point([c * g for c, g in zip(coef, side)], uc + unit)
            for side, unit in (_k11_side(a, theta, n, y),
                               _k11_side(b, theta, n, x)))
        pole = 1 / (mpmath.mpf(x) + y)
        inner = [sum(map(mul, h[j:j + n], ib)) for j in range(n)]
        total = theta * mpmath.mpf((sum(map(mul, ia, inner)),
                                    ua + uh + ub))
        # no term exceeds theta times the largest of each side over the
        # smallest denominator, 1 + alpha
        peak = (math.log(theta) + (ua + uh + ub) * _LN2 + math.log(h[0])
                + math.log(max(map(abs, ia))) + math.log(max(map(abs, ib))))
        return total - pole, max(peak, ln_abs(pole))

    # the double sum cancels roughly as 16^N (each factor contributes
    # ~4^N), and in the bulk k11 lies a further 0.2N-0.3N digits below
    # 1/(x + y), so the precision hint grows with N; rounded up to a
    # _DPS_STEP multiple, so that the N of one step share _k11_tables
    # entries and _gamma_scaled's values
    return mp_sum(double_sum,
                  _DPS_STEP * math.ceil((40 + 1.7 * n) / _DPS_STEP))


def k11(params: EnsembleParams, y: float, x: float,
        route: str = "tintegral") -> float:
    """K11(y, x): doubly integrated kernel minus the 1/(x+y) singularity.

    At finite N "tintegral" is no t-integral but the exact sum of
    _k11_inc_core, on integers from exact-rational vectors and gamma
    chains that run up or down, whichever needs fewer guard bits.
    """
    return _finite_kernel(params, "K11", y, x, route)


def _weight(a: float, b: float, kind: str, p1: float, p2: float,
            decay: bool) -> float:
    """The one-point weights of kind's integrated sides (_TILDE): p^e at
    its point p, e = b on the first side and a on the second, each times
    e^{-p} with decay (finite N; the hard edge has no e^{-p})."""
    tilde1, tilde2 = tilde = _TILDE[kind]
    weight = (math.exp(-sum(p for t, p in zip(tilde, (p1, p2)) if t))
              if decay else 1.0)
    if tilde2:
        weight *= p2 ** a
    if tilde1:
        weight *= p1 ** b
    return weight


def hatted(params: EnsembleParams, kind: str, p1: float, p2: float,
           route: str = "tintegral") -> float:
    """The kernel of `kind` by `route` times its _weight, which absorbs
    the correlation prefactors; K00, with no side integrated, is cd_kernel."""
    if kind not in _TILDE:
        raise DomainError(f"unknown kernel kind {kind!r}")
    kernel = {"K00": cd_kernel, "K01": k01, "K10": k10, "K11": k11}[kind]
    return (_weight(params.a, params.b, kind, p1, p2, True)
            * kernel(params, p1, p2, route))


# ---------------------------------------------------------------------------
# hard-edge limits
# ---------------------------------------------------------------------------

def hard_edge_kernel(a: float, b: float, theta: float, kind: str,
                     x1: float, x2: float) -> float:
    """Hard-edge limits: the exponent-free kernels at n=None.

    K00: (X, Y); K01: (X, X'); K10: (Y, Y'); K11 smooth part: (Y, X).
    """
    require_positive("kernel arguments", x1, x2)
    return _kernel(a, b, theta, None, kind, x1, x2)


def _hatted_inf(a: float, theta: float, kind: str, z1: float,
                z2: float) -> float:
    """hatted's hard-edge limit on the Bures pair (a, a+1): _weight
    without e^{-p}, and K11 minus 1/(z1 + z2), as finite-N k11."""
    val = hard_edge_kernel(a, a + 1.0, theta, kind, z1, z2)
    if kind == "K11":
        val -= 1.0 / (z1 + z2)
    return _weight(a, a + 1.0, kind, z1, z2, False) * val


def _bures_block(hk: Callable, kind: str, zi: float, zj: float) -> float:
    """One entry of a Bures skew block from a dressed kernel
    hk(kind, p1, p2): hk(K, zi, zj) - hk(K, zj, zi) for K00 and K11, and
    for K01 the off-diagonal block hk(K01, zj, zi) + hk(K10, zi, zj)."""
    if kind == "K01":
        return hk("K01", zj, zi) + hk("K10", zi, zj)
    return hk(kind, zi, zj) - hk(kind, zj, zi)


def delta_k00_inf(a: float, theta: float, zi: float, zj: float) -> float:
    """Hard-edge antisymmetrized CD kernel K00(z_i, z_j) - K00(z_j, z_i)."""
    return _bures_block(partial(_hatted_inf, a, theta), "K00", zi, zj)


def sigma_k01_inf(a: float, theta: float, zi: float, zj: float) -> float:
    """Hard-edge Bures block z_i^a K01(z_j, z_i) + z_i^{a+1} K10(z_i, z_j)."""
    return _bures_block(partial(_hatted_inf, a, theta), "K01", zi, zj)


def delta_k11_inf(a: float, theta: float, zi: float, zj: float) -> float:
    """Hard-edge antisymmetrized K11 block, its 1/(z_i + z_j) part kept."""
    return _bures_block(partial(_hatted_inf, a, theta), "K11", zi, zj)


# ---------------------------------------------------------------------------
# kernel grids and serialization
# ---------------------------------------------------------------------------

@dataclass
class KernelGrid:
    """Rectangular table of kernel values with evaluation metadata."""

    kind: str
    params: dict
    xs: list
    ys: list
    values: list  # row-major, len(xs) rows of len(ys)

    def __post_init__(self):
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise DomainError("grid axes must be strictly increasing")
        if np.any(xs <= 0) or np.any(ys <= 0):
            raise DomainError("grid points must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(xs), len(ys)):
            raise DomainError("values shape mismatch")
        if not np.all(np.isfinite(vals)):
            raise NonConverged("non-finite kernel value on the grid")

    def to_csv(self) -> str:
        meta = {"kind": self.kind, "params": self.params}
        lines = ["# " + json.dumps(meta, sort_keys=True), "x,y,value"]
        for i, x in enumerate(self.xs):
            for j, y in enumerate(self.ys):
                lines.append(f"{x!r},{y!r},{self.values[i][j]!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "params": self.params,
            "xs": [repr(x) for x in self.xs],
            "ys": [repr(y) for y in self.ys],
            "values": [[repr(v) for v in row] for row in self.values],
        }, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "KernelGrid":
        d = json.loads(text)
        return cls(kind=d["kind"], params=d["params"],
                   xs=[float(x) for x in d["xs"]],
                   ys=[float(y) for y in d["ys"]],
                   values=[[float(v) for v in row] for row in d["values"]])


def make_grid(kind: str, xs, ys, evaluator: Callable[[float, float], float],
              params: dict) -> KernelGrid:
    values = [[float(evaluator(float(x), float(y))) for y in ys] for x in xs]
    return KernelGrid(kind=kind, params=params, xs=[float(x) for x in xs],
                      ys=[float(y) for y in ys], values=values)
