"""Fox H-functions as one residue series, and the kernel building blocks.

Every Mellin-Barnes integral of the library (`fox_h`, the finite-N
polynomials G_N, their companions G~_N carrying a Gamma(theta*u - a)
factor, and the hard-edge limits G_inf, G~_inf) is the sum of its left
residues (`residue_series`), at poles of any order.  `hankel_loop`
integrates the same integrand along a contour; no library route calls
it, and it is kept as the tests' independent reference.
"""
from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import mpmath
import numpy as np
from mpmath.libmp import to_fixed

from .exceptions import (ComplexityError, DomainError, NonConverged,
                         PoleCollisionError, PoleError)
# log_gamma_complex stays bound here for perfbench/tracer.py
from .numerics import (_DPS_STEP, _GUARD_BITS, _POLE_TOL,  # noqa: F401
                       _SPARE_DIGITS, lgamma_signed, ln_abs,
                       log_gamma_complex, mp_sum, refine_quadrature,
                       require_positive)

__all__ = [
    "GammaFactor",
    "FoxHSpec",
    "fox_h",
    "g_n",
    "g_tilde_n",
    "g_inf",
    "g_tilde_inf",
    "residue_series",
]

_LN_EPS = math.log(1e-16)
_trapz = getattr(np, "trapezoid", None) or np.trapz
# Poles closer than _MERGE_RTOL (GammaFactor.pole_gap) are one entry of the
# float series; a z whose terms reach an entry merged across _ROUND_RTOL or
# more is re-summed exactly, where the entry splits into its exact poles.
# Closer than _ROUND_RTOL, poles coincide up to rounding.
_MERGE_RTOL = 1e-10
_ROUND_RTOL = 1e-14
_MAX_TERMS = 2000
_LOOP_NODES = 64
_LOOP_RTOL = 1e-11
_SEPARATION_POLES = 300


# ---------------------------------------------------------------------------
# integrand description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaFactor:
    """One factor Gamma(shift + slope * u) of a Mellin-Barnes integrand;
    shift is exact, a float read as the number it denotes (Fraction(0.4) + 4
    is 3.3e-16 below 0.4 + 4.0); the float series reads its double, `near`."""

    shift: Fraction
    slope: float
    near: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "shift", Fraction(self.shift))
        object.__setattr__(self, "near", float(self.shift))

    def mp_shift(self):
        """shift in mpmath, at the working precision; a power-of-two
        denominator, as of any float plus an integer, takes no division."""
        p, q = self.shift.numerator, self.shift.denominator
        if q & (q - 1):
            return mpmath.mpf(p) / q
        return mpmath.mpf((p, 1 - q.bit_length()))

    def pole(self, k: int) -> float:
        return -(self.near + k) / self.slope

    def pole_gap(self, u0: float) -> tuple[int, float]:
        """(k, gap): the k-th pole of this factor is the one nearest u0.

        gap is their distance relative to the terms of shift + slope*u0, so
        that it measures rounding whatever the pole's size (inf: no pole).
        """
        w = self.near + self.slope * u0
        k = round(w)
        if k > 0:
            return 0, math.inf
        return -k, abs(w - k) / max(abs(self.slope), abs(self.near), abs(w))


@dataclass(frozen=True)
class FoxHSpec:
    """Parameter lists (a_j, A_j), (b_j, B_j) and indices (m, n)."""

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]
    m: int
    n: int

    def __post_init__(self):
        for shift, slope in (*self.upper, *self.lower):
            if not (slope > 0 and math.isfinite(shift)):
                raise DomainError("every shift must be finite, every slope "
                                  "A_j, B_j positive")
        if not 0 <= self.m <= len(self.lower):
            raise DomainError(f"m out of range: {self.m}")
        if not 0 <= self.n <= len(self.upper):
            raise DomainError(f"n out of range: {self.n}")

    def factors(self) -> tuple[list[GammaFactor], list[GammaFactor]]:
        up, low, m, n = self.upper, self.lower, self.m, self.n
        num = [GammaFactor(b, B) for b, B in low[:m]]
        num += [GammaFactor(1 - Fraction(a), -A) for a, A in up[:n]]
        den = [GammaFactor(1 - Fraction(b), -B) for b, B in low[m:]]
        den += [GammaFactor(a, A) for a, A in up[n:]]
        return num, den


def _log_integrand(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                   u: np.ndarray, log_z: float) -> np.ndarray:
    """log of z^{-u} prod Gamma(num) / prod Gamma(den) at an array of nodes.

    A numerator gamma pole (within log_gamma_complex's tolerance) at any
    node raises PoleError; a denominator one is a zero, so log -inf.
    """
    from scipy.special import loggamma  # the loop alone needs scipy

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


# ---------------------------------------------------------------------------
# residue series
# ---------------------------------------------------------------------------

class _Pole(NamedTuple):
    """One left pole u0 and the z-independent part of its residue.

    At order m the residue is sign * exp(log_c) * z^{-u0} _monic(poly, y),
    y = -log z, a monic polynomial of degree m - 1; order 0 is a pole a
    denominator gamma cancels (a zero term).  gap is the largest pole_gap
    of the poles merged here, sing_num and sing_den the (index, k) of each
    gamma singular at u0.
    """

    u0: float
    order: int
    sign: int
    log_c: float
    gap: float
    poly: tuple
    sing_num: tuple
    sing_den: tuple


class _ResidueTable:
    """Left poles of one integrand, in the order the residue series sums
    them, computed once per integrand and reused at every z; `exact` holds
    the same coefficients in mpmath, at the most bits a sum has asked for
    (`exact_prec`), which serve every sum at fewer."""

    def __init__(self, num: tuple, den: tuple):
        self.num, self.den = num, den
        self.heap = [(-f.pole(0), i, 0) for i, f in enumerate(num)
                     if f.slope > 0]
        if not self.heap:
            raise DomainError("integrand has no left pole family")
        heapq.heapify(self.heap)
        self.entries: list[_Pole] = []
        self._arrays = np.empty((5, 0))
        self.exact, self.exact_prec = [], 0
        self.length = self._length()
        if not self.length:
            raise DomainError("a denominator gamma cancels every left pole")

    def _length(self):
        """Number of entries before the cancelled tail, math.inf if none.

        A denominator gamma of a left family's slope, its shift larger by
        an integer d, cancels the family's poles from the d-th on (all for
        d < 0), as Gamma(n + u) does Gamma(u)'s; once every family is
        cancelled, the series ends.
        """
        free, end = list(self.den), math.inf
        for f in (f for f in self.num if f.slope > 0):
            for g in free:
                d = g.near - f.near
                tol = _ROUND_RTOL * max(1.0, abs(g.near), abs(f.near))
                if g.slope == f.slope and abs(d - round(d)) < tol:
                    break
            else:
                return math.inf
            free.remove(g)
            end = min(end, f.pole(max(round(d), 0)))
        # an end past _MAX_TERMS is never reached
        n, tol = 0, _MERGE_RTOL * max(1.0, abs(end))
        while n < _MAX_TERMS and self.entry(n).u0 > end + tol:
            n += 1
        return n if n < _MAX_TERMS else math.inf

    def entry(self, n: int) -> _Pole:
        while len(self.entries) <= n:
            self._extend()
        return self.entries[n]

    def arrays(self, n: int) -> np.ndarray:
        """Rows u0, order, sign, log_c, gap, then poly (zero-padded), of
        the first n poles."""
        if self._arrays.shape[1] < n:
            self.entry(n - 1)
            width = max(len(pole.poly) for pole in self.entries)
            self._arrays = np.array([
                (*pole[:5], *pole.poly, *[0.0] * (width - len(pole.poly)))
                for pole in self.entries]).T
        return self._arrays[:, :n]

    def _extend(self) -> None:
        num, den = self.num, self.den
        while True:
            neg_u, i, k = self.heap[0]
            u0 = -neg_u
            sing_num = _singular(num, u0)
            # checked before the heap moves, so every later call raises too
            if any(num[j].slope < 0 for j, _, _ in sing_num):
                raise PoleCollisionError(  # + 0.0 prints u = -0.0 as 0
                    f"a left and a right pole family meet near "
                    f"u = {u0 + 0.0:.6g}")
            heapq.heapreplace(self.heap, (-num[i].pole(k + 1), i, k + 1))
            if sing_num[0][0] == i:
                break
            # same point reached from another family; counted once only
        sing_den = _singular(den, u0)
        gap = max(p[2] for p in sing_num + sing_den)
        sing_num, sing_den = (tuple(p[:2] for p in sing)
                              for sing in (sing_num, sing_den))
        order = max(len(sing_num) - len(sing_den), 0)
        sign, log_c, poly = 0, -math.inf, ()
        if order:
            gammas = list(_gammas_at(num, den, sing_num, sing_den,
                                     lambda f: f.near + f.slope * u0))
            sign, log_c = _leading_coefficient(gammas)
        if order > 1:
            poly = tuple(map(float, _log_poly(gammas, order)))
            log_c -= math.lgamma(order)
        self.entries.append(_Pole(u0, order, sign, log_c, gap, poly,
                                  sing_num, sing_den))

    def log_terms(self, n: int, log_z: np.ndarray):
        """(log |term|, sign) of the first n residues at each log z.

        Arrays of shape (n, len(log_z)); a zero term has sign 0, log -inf.
        """
        rows = self.arrays(n)
        u0, order, sign, log_c = rows[:4]
        term_log = log_c[:, None] - u0[:, None] * log_z
        term_sign = sign[:, None] * np.ones_like(term_log)
        for m in range(2, int(order.max(initial=0)) + 1):
            at = order == m
            if at.any():
                factor = _monic([q[at, None] for q in rows[5:4 + m]], -log_z)
                with np.errstate(divide="ignore", invalid="ignore"):
                    term_sign[at] *= np.sign(factor)
                    term_log[at] += np.log(np.abs(factor))
        return term_log, term_sign

    def exact_sum(self, z: float, term_log: np.ndarray,
                  lost_digits: float) -> float:
        """The residues whose float logs are term_log, summed exactly, at
        the exact shifts and float slopes.

        The terms double until the last three nonzero ones lie below 1e-16
        of the exact total, or to the series' end (`length`), and
        numerics.mp_sum raises the precision until the digits lost to the
        largest term leave enough, from lost_digits.  At p bits the sum runs
        on integer mantissas: z^{-u0} at the k-th pole of Gamma(shift +
        slope*u) is z^{shift/slope} (z^{1/slope})^k, cut to p + _GUARD_BITS
        bits per step, and every term is added into one integer in units of
        2^{-p - _GUARD_BITS} of the largest, cheaper than mpmath's rounding.
        """
        log_z, length, peak = math.log(z), self.length, float(term_log.max())

        def sum_at():
            dps, bits = mpmath.mp.dps, mpmath.mp.prec + _GUARD_BITS
            if mpmath.mp.prec > self.exact_prec:
                self.exact, self.exact_prec = [], mpmath.mp.prec
            fix = self.exact_prec + _GUARD_BITS  # the unit of each poly
            mz = mpmath.mpf(z)
            log_mz = mpmath.log(mz)
            neg_log_z = -to_fixed(log_mz._mpf_, fix)
            # family -> (k, m, e, m', e'): z^{-u0} = m 2^e at its k-th pole,
            # z^{1/slope} = m' 2^e'
            powers = {}
            unit = math.floor(peak / math.log(2.0)) - bits
            acc, done, logs = 0, 0, term_log
            while done < len(logs):
                n = len(logs)
                if len(self.exact) < n:  # at the precision of the rest
                    with mpmath.workprec(self.exact_prec):
                        self.exact += [_exact_coefficient(
                            self.num, self.den, self.entry(i), fix)
                            for i in range(len(self.exact), n)]
                for coeff in self.exact[done:n]:
                    if coeff is None:
                        continue
                    j, k, extra, parts = coeff
                    if j not in powers:  # w = z exactly where slope = 1
                        f = self.num[j]
                        seed = mpmath.exp(log_mz * f.mp_shift() / f.slope
                                          ) if f.shift else mpmath.mpf(1)
                        w = mz if f.slope == 1 else mpmath.exp(log_mz
                                                               / f.slope)
                        powers[j] = (0, *_mantissa(seed), *_mantissa(w))
                    k0, pm, pe, wm, we = powers[j]
                    for _ in range(k - k0):
                        pm *= wm
                        cut = max(pm.bit_length() - bits, 0)
                        pm, pe = pm >> cut, pe + we + cut
                    powers[j] = (k, pm, pe, wm, we)
                    if extra:  # a split pole, see _exact_coefficient
                        with mpmath.workdps(dps + extra):
                            log_w = mpmath.log(mz)
                            part_sum = sum(
                                c * mpmath.exp(-offset * log_w)
                                * _monic(poly, -log_w)
                                for offset, c, poly in parts)
                        man, exp = _mantissa(part_sum)
                    else:
                        man, exp, poly = parts
                        if poly is not None:  # _monic in fixed point
                            fixed = neg_log_z + poly[-1]
                            for q in poly[-2::-1]:
                                fixed = (fixed * neg_log_z >> fix) + q
                            man *= fixed
                            exp -= fix
                    man *= pm
                    exp += pe - unit
                    acc += man << exp if exp >= 0 else man >> -exp
                done = n
                total = mpmath.mpf((acc, unit))
                tail = logs[logs > -math.inf][-3:]
                if total and n < length and not (
                        len(tail) == 3 and np.all(tail < _LN_EPS
                                                  + ln_abs(total))):
                    if n >= _MAX_TERMS:
                        raise NonConverged(f"residue series not converged "
                                           f"after {_MAX_TERMS} terms")
                    logs = self.log_terms(min(2 * n, _MAX_TERMS, length),
                                          np.array([log_z]))[0][:, 0]
            return total, float(np.max(logs))

        # a loss within a digit of the terms' noise, 1e-16 of log_c and of u0
        # log z each, is noise: start where a total of order one keeps digits
        u0 = max(abs(self.entries[0].u0),  # the poles run leftward
                 abs(self.entries[len(term_log) - 1].u0))
        if lost_digits > 15 - math.log10(1 + abs(peak) + 2 * abs(log_z) * u0):
            lost_digits = max(lost_digits, peak / math.log(10.0))
        dps = _DPS_STEP * math.ceil((lost_digits + _SPARE_DIGITS) / _DPS_STEP)
        return float(mp_sum(sum_at, dps))


@lru_cache(maxsize=128)
def _residue_table(num: tuple, den: tuple) -> _ResidueTable:
    return _ResidueTable(num, den)


def _singular(factors, u0) -> tuple:
    """(index, k, gap) of each factor with a pole within _MERGE_RTOL of u0."""
    return tuple((j, *kg) for j, f in enumerate(factors)
                 if (kg := f.pole_gap(u0))[1] < _MERGE_RTOL)


def residue_series(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                   z):
    """A Mellin-Barnes integral as the sum of its left residues.

    The left families are the numerator gammas of positive slope; z is a
    float (a plain float is returned) or an ndarray (an array of its shape
    is returned).  Poles closer than _MERGE_RTOL are one pole of any order
    (_Pole); a left pole on a pole of a numerator of negative slope (a
    right family) leaves the integral undefined and raises
    PoleCollisionError.  The terms for all z are summed at once in floats
    over a table cached per integrand; each z stops after three nonzero
    terms below 1e-16 of its partial sum, or where every family's poles
    are cancelled (_ResidueTable.length, as after the n terms of G_n).  A z
    that loses more than two digits, or whose terms reach poles merged
    across _ROUND_RTOL or more or of order 3 or more, is re-summed exactly
    (_ResidueTable.exact_sum).  Every pole cancelled raises DomainError, a
    value past double range ComplexityError.
    """
    zs = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zs) & (zs > 0)):
        raise DomainError("z must be finite and positive")
    log_z = np.log(zs).ravel()
    table = _residue_table(tuple(num), tuple(den))
    cols = np.arange(len(log_z))
    length = table.length
    n_terms = min(32, length)
    while True:
        term_log, term_sign = table.log_terms(n_terms, log_z)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a zero term (sign 0) has log -inf, so it never sets the peak
            peak = np.maximum.accumulate(term_log, axis=0)
            # scale by the first nonzero term, as a running sum does,
            # unless the terms grow more than e^30 past it
            top = term_log[(term_sign != 0.0).argmax(axis=0), cols]
            top = np.where(peak[-1] > top + 30.0, peak[-1], top)
            top = np.where(top > -math.inf, top, 0.0)
            partial = np.cumsum(term_sign * np.exp(term_log - top), axis=0)
            partial_log = np.where(partial != 0.0,
                                   top + np.log(np.abs(partial)), peak)
        # only nonzero terms count: a run of cancelled poles can lie
        # between two poles of a sparse family (theta < 1/2)
        nonzero = np.flatnonzero(table.arrays(n_terms)[2])
        small = (term_log < partial_log + _LN_EPS)[nonzero]
        run3 = small[2:] & small[1:-1] & small[:-2]
        done = run3.any(axis=0)
        last = np.full(len(log_z), n_terms - 1)
        if done.any():
            last[done] = nonzero[run3.argmax(axis=0) + 2][done]
        if done.all() or n_terms == length:
            break
        if n_terms >= _MAX_TERMS:
            raise NonConverged(f"residue series not converged after "
                               f"{_MAX_TERMS} terms")
        n_terms = min(2 * n_terms, _MAX_TERMS, length)

    total, peak = partial[last, cols], peak[last, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        total_log = top + np.log(np.abs(total))
        # digits lost; a sum that cancels to exactly zero lost all 16
        lost = np.where(total != 0.0, (peak - total_log) / math.log(10.0),
                        np.where(peak > -math.inf, 16.0, 0.0))
    # the float table sums poles merged across a gap as if they coincided,
    # and a residue polynomial of degree 2 or more in log z can cancel
    # where the loss estimate does not look: from the first such pole on
    # (n_terms: none), no float term is trusted
    _, order, _, _, gap = table.arrays(n_terms)[:5]
    first = np.append(np.flatnonzero((gap >= _ROUND_RTOL) | (order > 2)),
                      n_terms)[0]
    resum = (lost > 2.0) | (last >= first)
    # the float total of a z that is re-summed can be rounding noise past
    # double range, so it is not exponentiated
    with np.errstate(over="ignore"):
        values = np.sign(total) * np.exp(np.where(resum, 0.0, total_log))
    for i in np.flatnonzero(resum):
        # alternating cancellation ate too many digits, or a float term is
        # not trusted; redo the terms exactly at a confirmed precision
        values[i] = table.exact_sum(float(zs.flat[i]),
                                    term_log[:last[i] + 1, i], float(lost[i]))
    if not np.all(np.isfinite(values)):
        at = zs.flat[np.flatnonzero(~np.isfinite(values))[0]]
        raise ComplexityError(f"residue series value at z = {at:g} lies "
                              f"past double range")
    return float(values[0]) if np.ndim(z) == 0 else values.reshape(zs.shape)


def _monic(poly, y):
    """y^m + poly[m-1] y^(m-1) + ... + poly[0], m = len(poly); 1 for None.

    Works on floats, arrays and mpmath numbers alike."""
    if poly is None:
        return 1
    acc = y + poly[-1]
    for q in poly[-2::-1]:
        acc = acc * y + q
    return acc


def _gammas_at(num, den, sing_num, sing_den, at):
    """(factor, 1 or -1 (numerator or denominator), k, w) for each gamma of
    the integrand at a pole: first those singular there, at their k-th
    pole (w None), then the regular ones, k None and w = at(factor) their
    argument."""
    for factors, sing, dirn in ((num, sing_num, 1), (den, sing_den, -1)):
        for j, k in sing:
            yield factors[j], dirn, k, None
        skip = {j for j, _ in sing}
        for j, f in enumerate(factors):
            if j not in skip:
                yield f, dirn, None, at(f)


def _leading_coefficient(gammas):
    """Signed log of the Laurent leading coefficient at u0, without z^{-u0}:
    (-1)^k / (k! * slope) per singular gamma, its value per regular one,
    numerators multiplying and denominators dividing."""
    sign, log_mag = 1, 0.0
    for f, dirn, k, w in gammas:
        if k is None:
            s, lm = lgamma_signed(w)
        else:
            s = -1 if (k % 2 == 1) != (f.slope < 0) else 1
            lm = -math.lgamma(k + 1) - math.log(abs(f.slope))
        sign *= s
        log_mag += dirn * lm
    return sign, log_mag


def _exact_leading(gammas):
    """_leading_coefficient in mpmath: (-1)^k / (k! slope) per singular
    gamma, its value per regular one, numerators multiplying and
    denominators dividing.  A regular numerator and denominator of one
    slope whose shifts differ by an integer d, |d| <= 10, as in G~_n, are
    the |d| linear factors of Gamma(v + d) / Gamma(v), not two gammas."""
    den = [(g, v) for g, dirn, k, v in gammas if k is None and dirn < 0]
    c = mpmath.mpf(1)
    for f, dirn, k, w in gammas:
        if k is not None:
            fac = _factorial(k) * f.slope
            c = c / fac if dirn > 0 else c * fac
            c = -c if k % 2 else c
        elif dirn > 0:
            i = next((i for i, (g, _) in enumerate(den) if g.slope == f.slope
                      and (f.shift - g.shift).denominator == 1
                      and abs(f.shift - g.shift) <= 10), None)
            if i is None:
                c *= mpmath.gamma(w)
                continue
            g, v = den.pop(i)
            d = int(f.shift - g.shift)  # w = v + d
            c = (c * mpmath.fprod(v + n for n in range(d)) if d >= 0
                 else c / mpmath.fprod(w + n for n in range(-d)))
    for _, v in den:
        c *= mpmath.rgamma(v)
    return c


def _log_poly(gammas, order):
    """poly of _Pole at a pole of order m, in mpmath numbers.

    Near u0 the integrand is C e^{-m} z^{-u0} exp(sum_k d_k e^k - e log z),
    e = u - u0, so the residue is C z^{-u0} sum_{j<m} B_{m-1-j}
    (-log z)^j / j!, B_0 = 1 and r B_r = sum_{k<=r} k d_k B_{r-k} the
    Taylor coefficients of exp(sum_k d_k e^k); poly is that sum times
    (m-1)!, made monic.  A gamma regular at u0, Gamma(w0) (_gammas_at),
    adds d_k = slope^k psi^(k-1)(w0) / k!, one singular
    at -k0 slope^k _pole_log_taylor(k, k0) / k!; denominators subtract.
    Order 2 gives poly = (d_1,), the sum of slope * digamma over them.
    """
    d = [0] * order  # k! d_k
    for f, dirn, k0, w0 in gammas:
        for k in range(1, order):
            t = (_pole_log_taylor(k, k0, mpmath.mp.prec) if w0 is None
                 else mpmath.digamma(w0) if k == 1 else mpmath.psi(k - 1, w0))
            d[k] += dirn * f.slope ** k * t
    if order == 2:  # the common double pole, in the fewest operations
        return (d[1],)
    b = [1]
    for r in range(1, order):
        b.append(sum(d[k] * b[r - k] / math.factorial(k - 1)
                     for k in range(1, r + 1)) / r)
    m = order - 1
    return tuple(b[m - j] * (math.factorial(m) // math.factorial(j))
                 for j in range(m))


@lru_cache(maxsize=4096)
def _pole_log_taylor(k: int, k0: int, prec: int):
    """k! times the x^k coefficient of log((-1)^k0 k0! x Gamma(x - k0)) at
    prec bits: psi^(k-1)(1) + (k-1)! H^(k)_k0, H^(k)_k0 = sum_{i<=k0} i^-k."""
    with mpmath.workprec(prec):  # H^(k)_k0 from psi^(k-1) at k0+1 and 1
        if k == 1:  # mpmath.digamma: extra digits, unlike mpmath.psi(0, .)
            return mpmath.digamma(k0 + 1)
        t = mpmath.psi(k - 1, k0 + 1)
        return 2 * mpmath.psi(k - 1, 1) - t if k % 2 == 0 else t


def _exact_coefficient(num, den, pole: _Pole, bits: int):
    """(j, k, extra, parts) of the k-th pole u0 of num[j], or None.

    The residue is z^{-u0} times the sum over parts (offset, C, poly) of
    C z^{-offset} _monic(poly, -log z) (poly None at a simple pole).  Poles
    the float table merged may lie apart at the exact shifts and float
    slopes, by up to _MERGE_RTOL (for a = 0.7, theta = 1.3 the poles of
    Gamma(u) and Gamma(theta*u - a) at u = -11 are 3.4e-16 apart).  Each
    exact location is then a part, and their residues, which cancel by
    about 1/gap per merged numerator pole past the first, are summed at
    `extra` more digits, the gap's once per merged numerator pole.  None
    where a denominator gamma cancels every pole.  An unsplit pole's one
    part is (m, e, poly) in integers: C = m 2^e, poly in units of 2^-bits.
    """
    spots = {}  # exact location -> singular (num, den) factors there
    group = len(pole.sing_num) + len(pole.sing_den) > 1
    for factors, sing, side in ((num, pole.sing_num, 0),
                                (den, pole.sing_den, 1)):
        for j, k in sing:  # the pole at the exact shift and float slope
            f = factors[j]
            at = (-f.shift - k) / Fraction(f.slope) if group else 0
            spots.setdefault(at, ([], []))[side].append((j, k))
    j0, k0 = pole.sing_num[0]
    base = next(iter(spots))  # the k0-th pole of num[j0], inserted first
    gap = min((abs(x - y) for x in spots for y in spots if x != y), default=1)
    extra = _DPS_STEP * math.ceil(-len(pole.sing_num) * math.log10(gap)
                                  / _DPS_STEP)
    # a regular gamma d from a pole of its own magnifies the rounding of u0
    # by 1/d, up to 1e10 (_MERGE_RTOL); past 1e4 the sum's 20 spare digits
    # would not keep a double's 16, so _DPS_STEP more are worked in
    near = min((abs(w - round(w)) for *_, k, w in _gammas_at(
        num, den, pole.sing_num, pole.sing_den,
        lambda f: f.near + f.slope * pole.u0) if k is None and w < 0.5),
        default=1.0)
    parts = []
    with mpmath.workdps(mpmath.mp.dps + extra
                        + (_DPS_STEP if near < 1e-4 else 0)):
        for at, (sing_num, sing_den) in spots.items():
            order = len(sing_num) - len(sing_den)
            if order <= 0:
                continue
            j, k = sing_num[0]
            u0 = (-num[j].mp_shift() - k) / mpmath.mpf(num[j].slope)
            gammas = list(_gammas_at(
                num, den, sing_num, sing_den,
                lambda f: f.mp_shift() + mpmath.mpf(f.slope) * u0))
            c, poly = _exact_leading(gammas), None
            if order > 1:
                poly = _log_poly(gammas, order)
                c /= math.factorial(order - 1)
            offset = at - base
            parts.append((mpmath.mpf(offset.numerator) / offset.denominator,
                          c, poly))
    if not parts or extra:
        return (j0, k0, extra, parts) if parts else None
    ((_, c, poly),) = parts
    if poly is not None:
        poly = tuple(to_fixed(q._mpf_, bits) for q in poly)
    return j0, k0, 0, (*_mantissa(+c), poly)  # rounded to the working prec


@lru_cache(maxsize=16)
def _factorials(prec: int) -> list:
    """k! at prec + 32 bits, k = 0, 1, ..., grown by _factorial."""
    return [mpmath.mpf(1)]


def _factorial(k: int):
    """k! at the working precision from _factorials' products, rounded
    once per product: k < 2^16 roundings stay 2^16 below its last bit,
    where mpmath.factorial runs its Stirling series anew at every k."""
    table = _factorials(mpmath.mp.prec)
    if len(table) <= k:
        with mpmath.workprec(mpmath.mp.prec + 32):
            while len(table) <= k:
                table.append(table[-1] * len(table))
    return table[k]


def _mantissa(x) -> tuple[int, int]:
    """(m, e), m a signed integer, with the mpmath number x = m 2^e."""
    sign, man, exp, _ = x._mpf_
    return -man if sign else man, exp


def min_family_separation(num: Sequence[GammaFactor],
                          den: Sequence[GammaFactor]) -> float:
    """Smallest u-plane distance between uncancelled left pole pairs, over
    _SEPARATION_POLES poles of each left family, leaving out pairs that
    coincide up to rounding (_ROUND_RTOL); a diagnostic only."""
    left = [f for f in num if f.slope > 0]
    best = math.inf
    for i, f in enumerate(left):
        for g in left[i + 1:]:
            for u0 in map(f.pole, range(_SEPARATION_POLES)):
                m = round(-(g.near + g.slope * u0))
                if m >= 0 and min(h.pole_gap(u0)[1]
                                  for h in (g, *den)) >= _ROUND_RTOL:
                    best = min(best, abs(u0 - g.pole(m)))
    return best


# ---------------------------------------------------------------------------
# contour quadrature (a test reference; no library route calls it)
# ---------------------------------------------------------------------------

def hankel_loop(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                z: float) -> float:
    """Parabolic loop around the negative real u-axis.

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

    # judged against the sum of |integrand| too: at a zero of the integral
    # the value itself is rounding noise and no relative test can pass
    def value_at(order: int) -> tuple[float, float]:
        t = np.linspace(0.0, t_max, order + 1)
        lg = log_g(t)
        m = lg.real.max()
        vals = np.exp(lg - m).imag
        scale = math.exp(m) / math.pi
        return (float(scale * _trapz(vals, t)),
                float(scale * _trapz(np.abs(vals), t)))

    return refine_quadrature(value_at, start_order=_LOOP_NODES,
                             rtol=_LOOP_RTOL, max_order=65536)


# ---------------------------------------------------------------------------
# Fox H front end
# ---------------------------------------------------------------------------

def fox_h(spec: FoxHSpec, z: float) -> float:
    """Fox H-function of positive real argument (residue_series)."""
    return residue_series(*spec.factors(), z)


# ---------------------------------------------------------------------------
# kernel specializations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _g_factors(a, alpha, theta, n, tilde):
    """(num, den) tuples of G_n, or with tilde of G~_n; n=None is the hard
    edge.

    Numerators Gamma(u) [Gamma(alpha+n+1-u)] [Gamma(theta*u - a)],
    denominators [Gamma(n+u)] Gamma(alpha+1-u) [Gamma(a+1-theta*u)]:
    Gamma(n+u) cancels the poles of Gamma(u) from u = -n on, and the
    companion moves the theta factor from the denominator to the
    numerator as Gamma(theta*u - a).  Each shift is an exact sum.
    """
    num, den = [GammaFactor(0, 1.0)], []
    if n is not None:
        num.append(GammaFactor(Fraction(alpha) + n + 1, -1.0))
        den.append(GammaFactor(n, 1.0))
    den.append(GammaFactor(Fraction(alpha) + 1, -1.0))
    if tilde:
        num.append(GammaFactor(-a, theta))
    else:
        den.append(GammaFactor(Fraction(a) + 1, -theta))
    return tuple(num), tuple(den)


# the companions' factor lists under the names perfbench/refgen.py uses
_gtn_factors = partial(_g_factors, tilde=True)
_gtinf_factors = partial(_g_factors, n=None, tilde=True)


def _g(a, alpha, theta, n, tilde, z):
    """G_n, or with tilde G~_n, at z by residue_series; n=None: hard edge.

    A float z = 0 gives G_n's (G_inf's) residue at u = 0, its constant
    term: the factors other than Gamma(u) at u = 0.
    """
    require_positive("a + 1, alpha + 1 and theta", a + 1.0, alpha + 1.0,
                     theta)
    if n is not None and (not isinstance(n, numbers.Integral) or n < 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    num, den = _g_factors(a, alpha, theta, n, tilde)
    if not tilde and np.ndim(z) == 0 and z == 0.0:
        log_c = 0.0
        for f in num[1:]:
            log_c += math.lgamma(f.near)
        for f in den:
            log_c -= math.lgamma(f.near)
        return math.exp(log_c)
    return residue_series(num, den, z)


def g_n(a: float, alpha: float, theta: float, n: int, z):
    """Finite-N kernel polynomial G_{n,a}(z), a residue series (_g_factors).

    Gamma(n+u) cancels the poles of Gamma(u) from u = -n on, so the series
    is a polynomial of degree n - 1; z is a float or an ndarray of
    positive values (a float z = 0 gives the constant term).
    """
    return _g(a, alpha, theta, n, False, z)


def g_tilde_n(a: float, alpha: float, theta: float, n: int, z):
    """Companion function G~_{n,a}(z) with the Gamma(theta*u - a) factor.

    Residue series over the pole families {-k} and {(a-m)/theta}; where
    they coincide (rational theta, e.g. a=0.5, theta=1.5) the shared
    poles are double and carry logarithmic residues.
    """
    return _g(a, alpha, theta, n, True, z)


def g_inf(a: float, alpha: float, theta: float, z):
    """Hard-edge limit function: sum_k (-z)^k / (k! G(alpha+1+k) G(a+theta*k+1)).

    This is the residue series of the limiting contour integral
    (_g_factors with n=None), and the actual N -> infinity limit of the
    rescaled G_{N,a}; z is a float or an ndarray of positive values (a
    float z = 0 gives the first term).
    """
    return _g(a, alpha, theta, None, False, z)


def g_tilde_inf(a: float, alpha: float, theta: float, z):
    """Hard-edge companion with Gamma(theta*u - a).

    Residue series over the families {-k} and {(a-m)/theta}, with
    logarithmic residues where they coincide.
    """
    return _g(a, alpha, theta, None, True, z)
