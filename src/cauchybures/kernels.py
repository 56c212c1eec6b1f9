"""Christoffel-Darboux and correlation kernels with their hard-edge limits.

Every finite-N kernel is computable by two routes: the Christoffel-Darboux
sum over the bi-orthogonal pair, with i1 transforms on its integrated
sides (`_cd_contract`), and a t-integral of the contour functions, so the
routes can be played against each other in the tests; for K11 the second
is an exact incomplete-gamma sum from cached O(N) vectors and guarded
unit-step gamma chains, contracted on Python integers (_k11_inc_core).
The direct route's integrated sides (_i1s) are unit-step i1 chains, one
quadrature seed per residue class of l mod q where theta = p/q
(_i1_chain); a side refuses where i1_integral does at its largest
exponent, where y^beta overflows a double.  They and the t-integrals'
G / G~ sides on each tanh-sinh level (_t_side) are cached, so the
entries of one correlation share them.  One table of the four kinds
(_TILDE) and one dispatcher (_finite_kernel) choose every route; one
tanh-sinh rule (_gg_t_integral) integrates every t-integral.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import mul
from typing import Callable, Optional

import mpmath
import numpy as np

from .exceptions import (ComplexityError, DomainError, NonConverged,
                         SingularPointError)
from .ensembles import EnsembleParams
from .foxh import g_inf, g_n, g_tilde_inf, g_tilde_n
from .numerics import (_DPS_STEP, _GUARD_BITS, _fixed_point, _tanh_sinh_level,
                       gauss_jacobi, ln_abs, mp_sum, refine_quadrature,
                       require_positive, tanh_sinh_01)
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
# the largest sum w|f| / |integral| at which the t-integrand's ~1e-14
# rounding stays within _T_RTOL
_MAX_CANCEL = _T_RTOL / 1e-14
# the tanh-sinh nodes reach t = e^{-700}; the part of int t^alpha dt
# below them, e^{-700 (alpha + 1)}, tops 1e-12 for alpha + 1 < 0.04
_MIN_ALPHA1 = 0.04
# digits an incomplete-gamma seed (_gamma_upper) keeps past the working
# precision after its cancellation
_SEED_SPARE = 4
_LN10 = math.log(10.0)
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
    single polynomial weight fits.  side1(level) and side2(level) are the
    factors on the nodes of that tanh-sinh level that _kept keeps
    (_t_side), so each level costs at most one evaluation of each side.

    The factors are good to about 1e-14 relative, and cancellation in the
    integral scales that error by M/|I|, M = sum w|f| over the same nodes.
    An M above _MAX_CANCEL |I| on the level tanh_sinh_01 accepts, or on an
    earlier one whose change lies within _T_RTOL M, raises ComplexityError:
    the value could miss _T_RTOL.  So does alpha + 1 below _MIN_ALPHA1.
    """
    if alpha + 1.0 < _MIN_ALPHA1:
        raise ComplexityError(f"t-integral: alpha + 1 = {alpha + 1.0:.3g} "
                              f"puts t^alpha mass below the tanh-sinh nodes")
    level, value, mass = 0, 0.0, 0.0

    def checked(result: float) -> float:
        if mass > _MAX_CANCEL * abs(value):
            raise ComplexityError(
                f"t-integral cancels: sum w|f| / |integral| = "
                f"{mass / abs(value) if value else math.inf:.3g} exceeds "
                f"{_MAX_CANCEL:.0e}, so the integrand's rounding could "
                f"pass the {_T_RTOL:.0e} tolerance; at finite N "
                f"route='direct' avoids the t-integral (its float sum "
                f"loses digits as N grows)")
        return result

    def integrand(t: np.ndarray) -> np.ndarray:
        # tanh_sinh_01 calls f once per level, on levels 0, 1, 2, ... in
        # turn; value and mass repeat its level sums, of f and of |f|
        nonlocal level, value, mass
        out = np.zeros(len(t))
        keep = _kept(alpha, t)
        out[keep] = t[keep] ** alpha * side1(level) * side2(level)
        weights = _tanh_sinh_level(level).weights
        prev, value = value, 0.5 * value + float(weights @ out)
        mass = 0.5 * mass + float(weights @ np.abs(out))
        if level and abs(value - prev) <= _T_RTOL * mass:
            checked(value)
        level += 1
        return out

    return checked(tanh_sinh_01(integrand, rtol=_T_RTOL))


@lru_cache(maxsize=256)
def _t_side(tilde: bool, e: float, alpha: float, theta: float,
            n: Optional[int], z: float, level: int) -> np.ndarray:
    """G_n (G~_n with tilde; G_inf, G~_inf for n=None) of exponent e at
    t z, over the nodes t of tanh-sinh level `level` that _kept keeps.

    Cached, as read-only arrays: the t-integrals of a correlation's
    entries, or of a grid's cells, share each side (at most four per
    point: G or G~, exponent a or b), so each is evaluated once per level
    it reaches.  alpha fixes the node mask as well as the function.
    """
    t = _tanh_sinh_level(level).nodes
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

    Below the split the substitution y = c*u gives a Jacobi-weight
    integral; above it, tanh-sinh on y = c + span t, t in (0, 1).
    Raises ComplexityError when y^beta overflows a double (beta above ~115).
    """
    require_positive("c and beta + 1", c, beta + 1.0)

    def lower(order: int) -> float:
        rule = gauss_jacobi(order, beta)
        vals = np.exp(-c * rule.nodes) / (1.0 + rule.nodes)
        return c ** beta * float(rule.weights @ vals)

    # above the split the integrand has structure on the scale of c near
    # t = 0, where tanh-sinh clusters its nodes; span reaches the e^{-y} tail
    span = 60.0 + 2.0 * beta + 10.0 * math.sqrt(max(beta, 1.0))
    try:
        with np.errstate(over="raise"):
            return refine_quadrature(lower) + span * tanh_sinh_01(
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
    exact incomplete-gamma core in mpmath (_k11_inc_core: cached vectors,
    _k11_side's guarded gamma chains).  K11 is returned without its
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
    """_k11_inc_core's O(N) z-independent vectors at `prec` bits: its
    coefficients (one vector for both sides) and h_m, m < 2N-1; alpha
    from the float parameters taken as exact, not from a rounded double.
    The leading coefficient is a product, not rf(alpha + 1, N)/(N-1)!,
    whose gammas would build mpmath's Taylor tables at more precisions."""
    with mpmath.workprec(prec):
        al = (mpmath.mpf(a) + b + 1) / theta - 1
        coef = [mpmath.fprod(al + 1 + i for i in range(n))
                / math.factorial(n - 1)]
        for j in range(n - 1):
            coef.append(-coef[-1] * (al + n + 1 + j) * (n - 1 - j)
                        / ((j + 1) * (al + 1 + j)))
        return tuple(coef), tuple(1 / (al + 1 + m) for m in range(2 * n - 1))


def _gamma_upper(s, w):
    """Gamma(s, w), w > 0, at the working precision: the method chosen by
    region, as Gil, Segura & Temme (SIAM J. Sci. Comput. 34, 2012) do.

    mpmath's upper gammainc first tries its asymptotic series, which fails
    unless e^{-w} lies below the working precision's unit, and then falls
    back to the convergent Gamma(s) - gamma(s, w) (DLMF 8.2.3, 8.7.1),
    at up to ten times the cost of that difference alone (4-10 ms against
    0.5-1 ms at 180 digits).  Below that w the difference is formed here.
    It cancels by about w log10(e) digits, which the first precision
    allows for, and by up to 17 more within 1e-17 of a pole of Gamma, so
    mp_sum measures the digits lost, log10 max(|Gamma(s)|, |gamma(s, w)|)
    / Gamma(s, w), and repeats until the working precision is kept.  An
    integer s keeps mpmath's exact path, as does a loss past mp_sum's
    ceiling.
    """
    keep = mpmath.mp.dps + _SEED_SPARE
    if mpmath.isint(s) or w > keep * _LN10:
        return mpmath.gammainc(s, w)

    def difference():
        g, low = mpmath.gamma(s), mpmath.gammainc(s, 0, w)
        peak = max(abs(g), abs(low))
        # Gamma(s, w) > 0: a zero difference lost every digit, which a
        # value below the peak's last bit tells mp_sum
        return (g - low) or mpmath.ldexp(peak, -mpmath.mp.prec), ln_abs(peak)

    start = _DPS_STEP * math.ceil((keep + w / _LN10) / _DPS_STEP)
    try:
        return +mp_sum(difference, start, keep)
    except NonConverged:
        return mpmath.gammainc(s, w)


def _k11_side(e: float, theta: float, n: int, w: float) -> list:
    """H(s_j) = e^w w^{-s_j} Gamma(s_j, w) at s_j = -e - theta j, j < N.

    Where theta = p/q exactly (the float taken as exact) with q < N,
    H(s_j) follows from H(s_{j-q}) by p unit steps of DLMF 8.8.2,
    H(s-1) = (w H(s) - 1)/(s-1): q chains, each from one _gamma_upper
    seed.  Otherwise (as at theta = 1.3) every j is a seed.  A step scales
    an error by w/|s-1|, so the chains carry log10 of those factors'
    product as guard digits.  The steps run on integers in fixed point
    (numerics._fixed_point), at about half the cost of mpf arithmetic.
    """
    p, q = theta.as_integer_ratio()
    guard = sum(max(0.0, math.log10(w / (e + theta * j + i + 1.0)))
                for j in range(n - q) for i in range(p))
    with mpmath.workdps(mpmath.mp.dps + math.ceil(guard)):
        # s in working precision: the sum cancels ~4^N deep, and an
        # exponent rounded to a double perturbs the terms incoherently
        ww, th, me = mpmath.mpf(w), mpmath.mpf(theta), -mpmath.mpf(e)
        s = [me - th * j for j in range(n)]
        out = [mpmath.exp(ww) * ww ** -s[j] * _gamma_upper(s[j], w)
               for j in range(min(q, n))]
        # every H(s) = int_1^inf u^{s-1} e^{-w(u-1)} du exceeds
        # 1/(w + 1 - s) (s < 1), so on this unit each keeps _GUARD_BITS
        # past the working precision
        bits = (mpmath.mp.prec + _GUARD_BITS
                + math.ceil(w + 1 + e + theta * n).bit_length())
        one = 1 << bits
        (wf, *chain), _ = _fixed_point([ww] + out, -bits)
        sf, _ = _fixed_point(s, -bits)
        for j in range(q, n):
            h = chain[j - q]
            for i in range(p - 1, -1, -1):
                h = (((wf * h >> bits) - one) << bits) // (sf[j] + i * one)
            chain.append(h)
    return out + [mpmath.mpf((h, -bits)) for h in chain[q:]]


def _k11_inc_core(params: EnsembleParams, y: float, x: float):
    """k11 at finite N, an mpmath value: theta times

        sum_{j,k<N} A_j B_k h_{j+k},  h_m = 1/(1+alpha+m),
        A_j = (-1)^j/j! Gamma(alpha+N+1+j) / (Gamma(N-j) Gamma(alpha+1+j))
              * H(-a - theta j) at y (_k11_side), B_k the same at b, x,

    minus 1/(x + y), subtracted in mpmath: in the bulk k11 is 1e-16 of it
    or less.  Integrating against both resolvent factors makes each gamma
    denominator an upper incomplete gamma, entire in the contour variable:
    only the Gamma(u) family contributes, and the sum is exact.

    The double sum runs on Python integers: A, h and B are each converted
    once to integers on a common unit (numerics._fixed_point, _GUARD_BITS
    below the working precision under each vector's largest entry), the N
    inner Hankel sums and the outer sum are exact, and one mpf is made at
    the end.  The truncations add at most N^2 2^{-prec-16} of the peak
    term, below the 2^{-prec} that mp_sum's spare digits allow for
    N <= 256.
    """
    a, b, theta, n = params.a, params.b, params.theta, params.n

    def double_sum():
        coef, h = _k11_tables(a, b, theta, n, mpmath.mp.prec)
        ay, bx = ([c * g for c, g in zip(coef, _k11_side(e, theta, n, w))]
                  for e, w in ((a, y), (b, x)))
        pole = 1 / (mpmath.mpf(x) + y)
        (ia, ua), (ih, uh), (ib, ub) = map(_fixed_point, (ay, h, bx))
        inner = [sum(map(mul, ih[j:j + n], ib)) for j in range(n)]
        total = theta * mpmath.mpf((sum(map(mul, ia, inner)),
                                    ua + uh + ub))
        # no term exceeds theta times the largest of each side over the
        # smallest denominator, 1 + alpha
        peak = theta * max(map(abs, ay)) * max(map(abs, bx)) * h[0]
        return total - pole, ln_abs(max(peak, pole))

    # the double sum cancels roughly as 16^N (each factor contributes
    # ~4^N), and in the bulk k11 lies a further 0.2N-0.3N digits below
    # 1/(x + y), so the precision hint grows with N; rounded up to a
    # _DPS_STEP multiple, so that the N of one step share _k11_tables
    # entries and mpmath's per-precision gamma caches
    return mp_sum(double_sum,
                  _DPS_STEP * math.ceil((40 + 1.7 * n) / _DPS_STEP))


def k11(params: EnsembleParams, y: float, x: float,
        route: str = "tintegral") -> float:
    """K11(y, x): doubly integrated kernel minus the 1/(x+y) singularity.

    At finite N "tintegral" is no t-integral but the exact mpmath sum of
    _k11_inc_core, from cached O(N) vectors and guarded gamma chains.
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
