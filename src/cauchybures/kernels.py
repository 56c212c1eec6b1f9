"""Christoffel-Darboux and correlation kernels with their hard-edge limits.

Every finite-N kernel is computable by two routes, played against each
other in the tests: the Christoffel-Darboux sum over the bi-orthogonal
pair (_cd_contract), and a t-integral of the contour functions, which for
K11 is an exact incomplete-gamma double sum, the t-integrals' pair sum
(foxh._family_sum) up to a final mpf (_k11_inc_core).  Either route's
integrated sides come from one chain code, _h_chain: H(s, w) = e^w w^{-s}
Gamma(s, w) = i1(-s, w)/Gamma(1 - s) at s = -e - theta l, in unit steps
on integers, one chain per residue class of l mod q where theta = p/q,
each seeded once where it turns, so that it runs only in stable
directions, on a unit set by the precision asked.  K11 seeds by region
(_h_seed), the direct route by i1_integral, whose one refusal (_i1_span)
a direct side takes before any quadrature.  Those sides are cached, so
the entries of one correlation share them.  Every other t-integral, at
finite N and at the hard edge (_kernel), is the double sum of its G / G~
sides' residue tables against 1/(alpha + 1 - u - u'), integrated term by
term (foxh.residue_integral); the tables are built once per side.  One
table of the four kinds (_TILDE) and one dispatcher (_finite_kernel)
choose every route; tanh-sinh runs only the two halves of i1_integral.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Optional

import mpmath
import numpy as np

from .exceptions import (ComplexityError, DomainError, NonConverged,
                         SingularPointError)
from .ensembles import EnsembleParams
# g_n, g_inf, g_tilde_n and g_tilde_inf stay bound here for
# perfbench/tracer.py
from .foxh import (_family_sum, _g_factors, g_inf, g_n,  # noqa: F401
                   g_tilde_inf, g_tilde_n, residue_integral)
from .numerics import (_DPS_STEP, _GUARD_BITS, _fixed_point, checked_exp,
                       ln_abs, mp_sum, require_positive, require_real,
                       require_real_array, require_real_sequence,
                       tanh_sinh_01)
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

def _cd_contract(params: EnsembleParams, u, v) -> float:
    """sum_m (2 m theta + a + b + 1) (T1 u)_m (T2 v)_m over two sides (T,
    u), a table of rows m < N and a vector over l < N, each as (mantissa,
    binary exponent) pairs: at a point (_point_side) the hat table of P-hat
    or Q-hat and x^{theta l}, on an integrated side c_{m,l} and H(-e -
    theta l, c) (_i1_side).  With both sides at points this is K_N(x, y).
    Sums run on mantissas scaled to their largest term, so no coefficient
    or power leaves double range."""
    a, b, theta, n = params.a, params.b, params.theta, params.n
    (pu_mant, pu_exp), (qv_mant, qv_exp) = (
        _scaled_sum(t_mant * s_mant, t_exp + s_exp)
        for (t_mant, t_exp), (s_mant, s_exp) in (u, v))
    weight = 2.0 * theta * np.arange(n) + a + b + 1.0
    mant, exp = _scaled_sum(weight * pu_mant * qv_mant, pu_exp + qv_exp)
    return checked_exp("the kernel", float(mant), int(exp), power=math.ldexp)


def _scaled_sum(mant: np.ndarray, exp: np.ndarray):
    """sum of mant * 2**exp along the last axis, as (mantissa, exponent)."""
    top = np.max(exp, axis=-1, keepdims=True)
    total, shift = np.frexp(np.sum(np.ldexp(mant, exp - top), axis=-1))
    return total, shift + top[..., 0]


def _point_side(params: EnsembleParams, e: float, x: float):
    """_cd_contract's side of exponent e at x: the hat table of e and
    x^{theta l} = 2^{theta l log2 x}, l < N, as (mantissa, exponent)."""
    t = params.theta * np.arange(params.n) * math.log2(x)
    exp = np.floor(t)
    return (_hat_table(params.alpha, e, params.theta, params.n),
            (np.exp2(t - exp), exp.astype(np.int64)))


def _i1_seed(s: Fraction, c: float, bits: int) -> int:
    """H(s, c) on the unit 2^-bits from i1(-s, c) = Gamma(1 - s) H(s, c)."""
    beta = -float(s)
    return int(math.ldexp(i1_integral(beta, c) / math.gamma(beta + 1.0), bits))


@lru_cache(maxsize=64)
def _i1_side(e: float, theta: float, n: int, c: float):
    """H(-e - theta l, c) = i1(e + theta l, c)/Gamma(e + theta l + 1), l <
    N, as read-only (mantissa, binary exponent) arrays: _h_chain at 53 bits
    seeded by i1_integral, rounded once.  It refuses where i1_integral does
    at its top exponent, before any quadrature.  Cached: a correlation's
    entries share each of their sides (two exponents per point at most)."""
    _i1_span(e + theta * (n - 1), c)
    chain, unit = _h_chain(e, theta, n, c, 53, _i1_seed)
    side = np.frexp([math.ldexp(h, unit) for h in chain])
    for vec in side:
        vec.setflags(write=False)
    return side


def cd_kernel(params: EnsembleParams, x: float, y: float,
              route: str = "direct") -> float:
    """CD kernel K_N(x, y); routes direct (the CD sum) | tintegral."""
    return _finite_kernel(params, "K00", x, y, route)


def cd_hard_scaled(params: EnsembleParams, x_hard: float, y_hard: float) -> float:
    """N^{-2(alpha+1)} K_N(X N^{-2/theta}, Y N^{-2/theta}): cd_kernel at
    the scaled points, which must be normal doubles."""
    x_hard, y_hard = require_positive("kernel arguments", x_hard, y_hard)
    x, y = (p * params.n ** (-2.0 / params.theta) for p in (x_hard, y_hard))
    if min(x, y) < np.finfo(float).tiny:
        raise ComplexityError("a scaled point falls below the smallest "
                              "normal double")
    return params.n ** (-2.0 * params.alpha - 2.0) * cd_kernel(params, x, y)


# ---------------------------------------------------------------------------
# t-integrals of G / G~ products
# ---------------------------------------------------------------------------

def _kernel(a: float, b: float, theta: float, n: Optional[int], kind: str,
            x1: float, x2: float):
    """Exponent-free kernel of the pair (a, b): finite n, or n=None.

    With alpha = (a+b+1)/theta - 1 and u_i = x_i^theta this is
    theta int_0^1 t^alpha F_a(t u1) F_b(t u2) dt, each F the companion G~
    on an integrated side (_TILDE) and G otherwise, times x1^a and x2^b
    for an integrated first and second side.  G, G~ are G_n, G~_n, or the
    hard-edge G_inf, G~_inf for n=None.  Every kind is the residue double
    sum of the two sides' tables (foxh.residue_integral).  The finite-N
    kernels carry a further e^{x} per integrated side, and their K11 is not
    this integral (see _finite_kernel).
    """
    if kind not in _TILDE:
        raise DomainError(f"unknown kernel kind {kind!r}")
    alpha = (a + b + 1.0) / theta - 1.0
    require_positive("a + 1, b + 1, alpha + 1 and theta", a + 1.0, b + 1.0,
                     alpha + 1.0, theta)
    tilde1, tilde2 = _TILDE[kind]
    pw = partial(checked_exp, "a power of a kernel argument", power=pow)
    weight = theta
    if tilde2:
        weight *= pw(x2, b)
    if tilde1:
        weight *= pw(x1, a)
    z1, z2 = pw(x1, theta), pw(x2, theta)
    if not (z1 and z2):
        raise ComplexityError("x^theta underflows to 0")
    return weight * residue_integral(
        Fraction(alpha) + 1, (*_g_factors(a, alpha, theta, n, tilde1), z1),
        (*_g_factors(b, alpha, theta, n, tilde2), z2))


# ---------------------------------------------------------------------------
# correlation kernels K01 / K10 / K11
# ---------------------------------------------------------------------------

def i1_integral(beta: float, c: float) -> float:
    """integral_0^infty y^beta e^{-y} / (c + y) dy, split at y = c.

    Both halves run on tanh-sinh: below the split after y = c s^g, g =
    1/(beta + 1), which absorbs y^beta (c^beta g int_0^1 e^{-c s^g} /
    (1 + s^g) ds), above it on y = c + span t.  Refuses first (_i1_span)
    where either half's integrand leaves double range.
    """
    beta, c = require_real("beta and c", beta, c)
    require_positive("c and beta + 1", c, beta + 1.0)
    g, span = 1.0 / (beta + 1.0), _i1_span(beta, c)
    lower = c ** beta * g * tanh_sinh_01(
        lambda s: np.exp(-c * s ** g) / (1.0 + s ** g))
    return lower + span * tanh_sinh_01(
        lambda t: (c + span * t) ** beta * np.exp(-c - span * t)
        / (2.0 * c + span * t))


def _i1_span(beta: float, c: float) -> float:
    """How far i1_integral's upper half reaches above y = c, into the
    e^{-y} tail.  The one i1 refusal: ComplexityError where the largest
    value either half forms overflows a double, (c + span)^beta for beta
    >= 0 (from beta = 118.2 at c = 1, 116.6 at 40, 112.8 at 150 and 106.7
    at 400) and y^beta/(c + y) at y = c, c^beta/(2c), for beta < 0."""
    span = 60.0 + 2.0 * beta + 10.0 * math.sqrt(max(beta, 1.0))
    try:
        peak = (c + span) ** beta if beta >= 0.0 else c ** beta / (2.0 * c)
    except OverflowError:
        peak = math.inf
    if peak == math.inf:
        raise ComplexityError(f"i1_integral: y^beta overflows a double at "
                              f"beta = {beta:g} (c = {c:g})")
    return span


def _finite_kernel(params: EnsembleParams, kind: str, p1: float, p2: float,
                   route: str) -> float:
    """The finite-N kernel of `kind` at (p1, p2) by `route`.

    "direct" contracts the Christoffel-Darboux sum with one side per
    side: the powers p^{theta l} at a point, H(-a - theta l, p1) or
    H(-b - theta l, p2) where that side is integrated (_TILDE).
    "tintegral" is _kernel times e^{p} of each integrated side; for K11,
    whose t-integral of G~_n G~_n holds only asymptotically, it is the
    exact incomplete-gamma core (_k11_inc_core: exact-rational coefficients,
    _h_chain's integer gamma chains).  K11 is returned without its
    1/(p1 + p2) singular part.
    """
    p1, p2 = require_positive("kernel arguments", p1, p2)
    if kind == "K11" and p1 + p2 < _SINGULAR_TOL:
        raise SingularPointError("x + y below the singularity cutoff")
    a, b, theta, n = params.a, params.b, params.theta, params.n
    tilde = _TILDE[kind]
    if route == "direct":
        val = _cd_contract(params, *(
            (_hat_table(params.alpha, 0.0, 0.0, n), _i1_side(e, theta, n, p))
            if t else _point_side(params, e, p)
            for t, e, p in zip(tilde, (a, b), (p1, p2))))
    elif route == "tintegral" and kind == "K11":
        return float(_k11_inc_core(params, p1, p2))
    elif route == "tintegral":
        val = (checked_exp("e^p of the integrated points",
                           sum(p for t, p in zip(tilde, (p1, p2)) if t))
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
    """_k11_inc_core's z-independent coefficients as integers for `prec`
    bits, without mpmath: (coef, its unit, alpha + 1), x = coef 2^unit.
    With alpha + 1 = (a + b + 1)/theta = P/Q (the floats read as exact),
    coef_j = (-1)^j C(N-1, j) prod_{i=j}^{N+j-1} (P + iQ) / ((N-1)! Q^N),
    exact rationals cut on a unit _GUARD_BITS below prec under coef_0, the
    least |coef_j|, whose side value is the largest."""
    al1 = (Fraction(a) + Fraction(b) + 1) / Fraction(theta)
    p, q = al1.numerator, al1.denominator
    prod, binom, nums = math.prod(p + i * q for i in range(n)), 1, []
    for j in range(n):
        nums.append(-binom * prod if j % 2 else binom * prod)
        prod = prod * (p + (n + j) * q) // (p + j * q)
        binom = binom * (n - 1 - j) // (j + 1)
    den = math.factorial(n - 1) * q ** n
    cut = max(0, prec + _GUARD_BITS + den.bit_length() - nums[0].bit_length())
    return tuple((x << cut) // den for x in nums), -cut, al1


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
    it is allowed; d ~ 1/b loses w's bits more, which the unit adds."""
    (big_w, big_s), scale = _one_scale(w, s)
    fix = bits + 48 + math.ceil(w).bit_length()
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


@lru_cache(maxsize=1024)
def _gamma_scaled(s: Fraction, prec: int):
    """e^W W^{-s} Gamma(s) at W = _GAMMA_W, s < 1 not an integer, to `prec`
    bits without mpmath's gamma (whose tables cost 7-31 ms per precision).
    In (0, 1): _h_sum at W, which no term cancels at this W, plus H(s, W) <
    1/W from the continued fraction, down to the sum's last bit.  Below:
    its value at s + k in (0, 1) times W^k/(s)_k (DLMF 5.5.1).  Cached: the
    seeds of one working precision and fractional part share the former;
    1,024 entries hold both sides' 2N values (s and s + k) at N = 80 where
    every j is a seed (theta = 1.3), at two precisions."""
    k = math.ceil(-s)
    with mpmath.workprec(prec + _GUARD_BITS):
        if k:
            p, q = s.numerator, s.denominator  # (s)_k q^k on integers
            rising = math.prod(p + i * q for i in range(k))
            return (_gamma_scaled(s + k, prec)
                    * mpmath.mpf((int(_GAMMA_W) * q) ** k) / rising)
        series = _h_sum(s, _GAMMA_W)[0]
        bits = max(1, prec + _GUARD_BITS - int(ln_abs(series) / _LN2))
        return series + mpmath.ldexp(_h_fraction(s, _GAMMA_W, bits), -bits)


def _h_series(s: Fraction, w: float) -> tuple:
    """For mp_sum: H(s) = e^w w^{-s} Gamma(s) - _h_sum(s, w) at the working
    precision, s < 1 not an integer, and the ln of its larger part, with
    e^w w^{-s} Gamma(s) = e^{w-W} (w/W)^{-s} _gamma_scaled(s)."""
    series, log_max = _h_sum(s, w)
    sm = mpmath.ldexp(s.numerator, 1 - s.denominator.bit_length())  # s exact
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


def _h_chain(e: float, theta: float, n: int, w: float, prec: int,
             seed: Callable) -> tuple[list, int]:
    """(H(s_j) = e^w w^{-s_j} Gamma(s_j, w) at s_j = -e - theta j, j < N, as
    integers on the unit 2^-bits, -bits): the unit lies _GUARD_BITS past
    prec bits under 1/(w + 1 - s) < H(s), s < 1.  seed(s, w, bits) is H(s)
    on it at an exact s < 1; s_j, w exact, each step truncated once.

    Where theta = p/q exactly with q < N, the s_j of one residue class mod
    q lie p unit steps apart: q chains of DLMF 8.8.2, one seed each;
    otherwise (as at theta = 1.3) every j is a seed.  A chain is seeded
    where it turns, at its first s from the top with |s - 1| >= w, and
    runs down, H(s-1) = (w H(s) - 1)/(s-1), and up, H(s+1) = (s H(s) +
    1)/w, which scale an error by w/|s-1| and |s|/w, at most 1 on their
    sides of the seed (Gautschi, SIAM Rev. 9, 1967).
    """
    bits = prec + _GUARD_BITS + math.ceil(w + 1 + e + theta * n).bit_length()
    p, q = theta.as_integer_ratio()
    q = min(q, n)  # q >= N (as at theta = 1.3): N one-seed chains
    (big_w, big_e, big_t), scale = _one_scale(w, e, theta)
    unit_s, out = 1 << scale, [0] * n
    one = 1 << bits + scale  # 1 on the unit, times 2^scale
    for r in range(q):
        js = range(r, n, q)
        steps = p * (len(js) - 1)
        turn = min(steps, max(0, math.ceil(w - 1.0 - (e + theta * r))))
        top = -big_e - big_t * r  # s at chain step t is top - t unit_s
        chain = [0] * (steps + 1)
        chain[turn] = seed(Fraction(top - turn * unit_s, unit_s), w, bits)
        for t in range(turn, steps):
            chain[t + 1] = ((big_w * chain[t] - one)
                            // (top - (t + 1) * unit_s))
        for t in range(turn, 0, -1):
            chain[t - 1] = ((top - t * unit_s) * chain[t] + one) // big_w
        out[r::q] = chain[::p]
    return out, -bits


def _k11_inc_core(params: EnsembleParams, y: float, x: float):
    """k11 at finite N, an mpmath value: theta times

        sum_{j,k<N} A_j B_k / (alpha + 1 + j + k),
        A_j = (-1)^j/j! Gamma(alpha+N+1+j) / (Gamma(N-j) Gamma(alpha+1+j))
              * H(-a - theta j) at y (_h_chain), B_k the same at b, x,

    minus 1/(x + y), subtracted in mpmath: in the bulk k11 is 1e-16 of it
    or less.  Integrating against both resolvent factors makes each gamma
    denominator an upper incomplete gamma, entire in the contour variable:
    only the Gamma(u) family contributes, and the sum is exact.

    It runs on Python integers up to one final mpf: coef from exact
    rationals (_k11_tables), the sides on one unit each, A_j and B_k their
    products cut back by numerics._fixed_point, and the double sum exact by
    foxh._family_sum, weights on a unit _GUARD_BITS past prec bits under
    the first.  The truncations add at most N^2 2^{-prec-16} of the peak
    term, below the 2^{-prec} that mp_sum's spare digits allow for N <= 256.
    """
    a, b, theta, n = params.a, params.b, params.theta, params.n

    def double_sum():
        coef, uc, al1 = _k11_tables(a, b, theta, n, prec := mpmath.mp.prec)
        (ia, ua), (ib, ub) = (
            _fixed_point([c * g for c, g in zip(coef, side)], uc + unit)
            for side, unit in (_h_chain(a, theta, n, y, prec, _h_seed),
                               _h_chain(b, theta, n, x, prec, _h_seed)))
        fix = max(0, prec + _GUARD_BITS + al1.numerator.bit_length()
                  - al1.denominator.bit_length())
        pole = 1 / (mpmath.mpf(x) + y)
        total = theta * mpmath.mpf((_family_sum(al1, (0, 1, 1), (0, 1, 1), *(
            dict(enumerate([v] for v in i)) for i in (ia, ib)), fix), ua + ub))
        # theta max|A| max|B| / (alpha + 1) bounds every term
        peak = (math.log(theta) + (ua + ub) * _LN2 - math.log(al1)
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
    _k11_inc_core, on integers from exact-rational coefficients and gamma
    chains (_h_chain).
    """
    return _finite_kernel(params, "K11", y, x, route)


def _weight(a: float, b: float, kind: str, p1: float, p2: float,
            decay: bool) -> float:
    """The one-point weights of kind's integrated sides (_TILDE): p^e at
    its point p, e = b on the first side and a on the second, each times
    e^{-p} with decay (finite N; the hard edge has no e^{-p}), as one
    exponential of their logs: 0 where the product underflows."""
    return checked_exp("a kernel weight", sum(
        e * math.log(p) - (p if decay else 0.0)
        for t, e, p in zip(_TILDE[kind], (b, a), (p1, p2)) if t))


def hatted(params: EnsembleParams, kind: str, p1: float, p2: float,
           route: str = "tintegral") -> float:
    """The kernel of `kind` by `route` (_finite_kernel) times its _weight,
    which absorbs the correlation prefactors."""
    if kind not in _TILDE:
        raise DomainError(f"unknown kernel kind {kind!r}")
    return (_weight(params.a, params.b, kind, p1, p2, True)
            * _finite_kernel(params, kind, p1, p2, route))


# ---------------------------------------------------------------------------
# hard-edge limits
# ---------------------------------------------------------------------------

def hard_edge_kernel(a: float, b: float, theta: float, kind: str,
                     x1: float, x2: float) -> float:
    """Hard-edge limits: the exponent-free kernels at n=None.

    K00: (X, Y); K01: (X, X'); K10: (Y, Y'); K11: (Y, X), 1/(X + Y) kept.
    """
    x1, x2 = require_positive("kernel arguments", x1, x2)
    a, b, theta = require_real("a, b and theta", a, b, theta)
    return _kernel(a, b, theta, None, kind, x1, x2)


def _hatted_inf(a: float, theta: float, kind: str, z1: float,
                z2: float) -> float:
    """hatted's hard-edge limit on the Bures pair (a, a+1): _weight
    without e^{-p}, and K11 minus 1/(z1 + z2), as finite-N k11."""
    a, theta, z1, z2 = require_real("a, theta and points", a, theta, z1, z2)
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
    """Hard-edge antisymmetrized K11 block without 1/(z_i + z_j), as k11."""
    return _bures_block(partial(_hatted_inf, a, theta), "K11", zi, zj)


# ---------------------------------------------------------------------------
# kernel grids and serialization
# ---------------------------------------------------------------------------

@dataclass
class KernelGrid:
    """Rectangular table of kernel values, all floats, with its metadata."""

    kind: str
    params: dict
    xs: list
    ys: list
    values: list  # row-major, len(xs) rows of len(ys)

    def __post_init__(self):
        self.xs, self.ys = (require_real_sequence("a grid axis", v)
                            for v in (self.xs, self.ys))
        if not all(np.all(np.diff(v) > 0) for v in (self.xs, self.ys)):
            raise DomainError("grid axes must be strictly increasing")
        require_positive("grid points", *self.xs, *self.ys)
        vals = require_real_array("grid values", self.values)
        if vals.shape != (len(self.xs), len(self.ys)):
            raise DomainError("values shape mismatch")
        if not np.all(np.isfinite(vals)):
            raise NonConverged("non-finite kernel value on the grid")
        self.values = vals.tolist()

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
        try:  # the grid's own checks raise CauchyBuresErrors, not these
            d = json.loads(text)
            return cls(kind=d["kind"], params=d["params"],
                       xs=[*map(float, d["xs"])], ys=[*map(float, d["ys"])],
                       values=[[*map(float, r)] for r in d["values"]])
        except (ValueError, TypeError, KeyError) as err:
            raise DomainError(f"not a kernel grid in JSON: {err!r}") from None


def make_grid(kind: str, xs, ys, evaluator: Callable[[float, float], float],
              params: dict) -> KernelGrid:
    xs, ys = (require_real_sequence("a grid axis", v) for v in (xs, ys))
    values = [[float(evaluator(x, y)) for y in ys] for x in xs]
    return KernelGrid(kind=kind, params=params, xs=xs, ys=ys, values=values)
