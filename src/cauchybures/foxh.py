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
from mpmath.libmp import (fone, from_float, from_int, from_man_exp, mpf_div,
                          mpf_exp, mpf_log, mpf_mul, mpf_pos, round_nearest,
                          to_fixed)

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
_LN2 = math.log(2.0)
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
    them on integers, a part per exact pole location, at the most bits a
    sum has asked for (`exact_prec`), which serve every sum at fewer."""

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
        self.runs, self.family, self.chains = {}, {}, {}
        self.factorials = [1]
        # per factor (p b, a q, q b), its shift p/q and slope a/b exact: at
        # u = U/V its argument is (p b V + a q U) / (q b V)
        self.forms = tuple(
            [(f.shift.numerator * b, a * f.shift.denominator,
              f.shift.denominator * b)
             for f in factors for a, b in [f.slope.as_integer_ratio()]]
            for factors in (num, den))
        # per numerator, the (index, d) of each denominator of its slope
        # whose shift is smaller by an integer d (_exact_leading)
        self.pairs = [[(j, int(f.shift - g.shift)) for j, g in enumerate(den)
                       if g.slope == f.slope
                       and (f.shift - g.shift).denominator == 1]
                      for f in num]
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

    def exact_sum(self, zs: list, term_logs: list, lost: list) -> list:
        """The residues whose float logs are term_logs[i] (lists), summed
        exactly at zs[i], at the exact shifts and float slopes: one pass
        over every z a residue_series call re-sums.

        The pass builds the coefficients it needs once (`_ensure`), at the
        largest of the zs' precision hints: the float loss plus 20 digits,
        or, where the float total is rounding noise, the largest term's
        digits plus 20.  numerics.mp_sum then confirms each z's digits from
        its own hint, raising that z's precision alone, and measures the
        cancellation of a split pole's parts (_sum_at).  Each z's terms
        double until the last three nonzero ones lie below 1e-16 of its
        exact total, or to the series' end (`length`).
        """
        hints = []
        for z, logs, lost_digits in zip(zs, term_logs, lost):
            peak, log_z = max(logs), math.log(z)
            # a loss within a digit of the terms' noise, 1e-16 of log_c and
            # of u0 log z each, is noise: start where a total of order one
            # keeps digits
            u0 = max(abs(self.entries[0].u0),  # the poles run leftward
                     abs(self.entries[len(logs) - 1].u0))
            if lost_digits > 15 - math.log10(1 + abs(peak)
                                             + 2 * abs(log_z) * u0):
                lost_digits = max(lost_digits, peak / math.log(10.0))
            hints.append(_DPS_STEP * math.ceil((lost_digits + _SPARE_DIGITS)
                                               / _DPS_STEP))
        with mpmath.workdps(max(hints)):
            self._ensure(max(map(len, term_logs)))
        return [float(mp_sum(partial(self._sum_at, z, logs), dps))
                for z, logs, dps in zip(zs, term_logs, hints)]

    def _ensure(self, n: int) -> None:
        """Exact coefficients of the first n entries at the working
        precision or more: `exact`, each entry's parts (_exact_coefficient),
        and `runs`, each left family's parts as (entry, k, m, e, poly) in k
        order.  A sum at more bits than any before rebuilds them, with each
        family's shift/slope and slope as libmp values at those bits
        (`family`)."""
        prec = mpmath.mp.prec
        if prec > self.exact_prec:
            self.exact, self.exact_prec = [], prec
            self.runs, self.family, self.chains = {}, {}, {}
            for j, (f, (pb, aq, _)) in enumerate(zip(self.num,
                                                     self.forms[0])):
                if f.slope > 0:
                    self.runs[j] = []
                    self.family[j] = (_ratio(pb, aq, prec) if pb else None,
                                      from_float(f.slope))
        if len(self.exact) < n:
            with mpmath.workprec(self.exact_prec):
                fix = self.exact_prec + _GUARD_BITS  # the unit of each poly
                for i in range(len(self.exact), n):
                    parts = _exact_coefficient(self, self.entry(i), fix)
                    self.exact.append(parts)
                    for j, *part in parts:
                        self.runs[j].append((i, *part))

    def factorial(self, k: int) -> int:
        """k!, from `factorials`, grown by one product per new k
        (math.factorial recomputes each k! of a series from scratch)."""
        while len(self.factorials) <= k:
            self.factorials.append(self.factorials[-1] * len(self.factorials))
        return self.factorials[k]

    def gamma_ratio(self, i, g, d: int, p: int, q: int):
        """Gamma(w)/Gamma(w - d) at w = p/q for numerator i and denominator
        g of one slope whose shifts differ by d; Gamma(w) where g is None,
        1/Gamma(w) where i is None (d = 0).  A libmp value at the working
        precision.

        The arguments of one factor, or pair, at one left family's poles
        that differ by integers form a chain (`chains`).  Its first value is
        mpmath.gamma or rgamma, or a pair's |d| linear factors (_rising);
        each next one is the last times the linear factors between them,
        one fraction of integers, rounded once to _GUARD_BITS past the
        working precision, so that _MAX_TERMS steps stay below its last bit.
        """
        prec = mpmath.mp.prec
        wp = prec + _GUARD_BITS
        key = (prec, i, g, q, p % q)
        if key in self.chains:
            p0, value = self.chains[key]
            m = (p - p0) // q
            top, bottom = (1, 1) if i is None else _rising(p0, q, m)
            if g is not None:
                b, t = _rising(p0 - d * q, q, m)
                top, bottom = top * t, bottom * b
            value = mpf_mul(value, _ratio(top, bottom, wp), wp)
        elif i is not None and g is not None:
            value = _ratio(*_rising(p - d * q, q, d), wp)
        else:
            x = _mpf_ratio(p, q)
            value = (mpmath.rgamma(x) if i is None else mpmath.gamma(x))._mpf_
        self.chains[key] = (p, value)
        return value

    def _sum_at(self, z: float, logs: list) -> tuple:
        """(total, log of the largest term) of the residues at z at the
        working precision p, for numerics.mp_sum.

        The sum runs on integers, one left family at a time: z^{-u0} at the
        k-th pole of Gamma(shift + slope*u) is z^{shift/slope}
        (z^{1/slope})^k, cut to p + _GUARD_BITS bits per step, and every
        term is added into one integer in units of 2^{-p - _GUARD_BITS} of
        the largest.  The parts of a split pole are terms of their own
        families that cancel by about 1/gap; their sizes join the largest
        term, so that mp_sum sees the loss.  More terms than the float sum
        kept (logs) are taken where its tail does not lie below the exact
        total.
        """
        prec = mpmath.mp.prec
        bits = prec + _GUARD_BITS
        self._ensure(len(logs))
        fix = self.exact_prec + _GUARD_BITS
        log_z = mpf_log(from_float(z), prec, round_nearest)
        neg_log_z = -to_fixed(log_z, fix)
        chains = {}  # family -> (terms done, k, m, e, m', e'): z^{-u0} =
        # m 2^e at its k-th pole, z^{1/slope} = m' 2^e'
        for j, (ratio, slope) in self.family.items():
            seed = (mpf_exp(mpf_mul(log_z, ratio, prec), prec) if ratio
                    else fone)
            w = (from_float(z) if slope == fone  # z exactly
                 else mpf_exp(mpf_div(log_z, slope, prec), prec))
            chains[j] = (0, 0, *_mantissa(seed), *_mantissa(w))
        unit = math.floor(max(logs) / _LN2) - bits
        exact = self.exact  # only grows while p stays
        acc, top = 0, -math.inf  # top: log2 of the largest part, less unit
        while True:
            n = len(logs)
            for j, run in self.runs.items():
                done, k0, pm, pe, wm, we = chains[j]
                for i, k, man, exp, poly in run[done:]:
                    if i >= n:
                        break
                    done += 1
                    while k0 < k:
                        k0 += 1
                        pm *= wm
                        cut = pm.bit_length() - bits
                        if cut > 0:
                            pm >>= cut
                            pe += cut
                        pe += we
                    if poly is not None:  # _monic in fixed point
                        fixed = neg_log_z + poly[-1]
                        for q in poly[-2::-1]:
                            fixed = (fixed * neg_log_z >> fix) + q
                        man *= fixed
                        exp -= fix
                    man *= pm
                    exp += pe - unit
                    if len(exact[i]) > 1:  # a split pole's part
                        top = max(top, man.bit_length() + exp)
                    acc += man << exp if exp >= 0 else man >> -exp
                chains[j] = (done, k0, pm, pe, wm, we)
            total = mpmath.mp.make_mpf(from_man_exp(acc, unit, prec,
                                                    round_nearest))
            if not total or n >= self.length:
                break
            tail = [t for t in logs if t > -math.inf][-3:]
            if len(tail) == 3 and max(tail) < _LN_EPS + ln_abs(total):
                break
            if n >= _MAX_TERMS:
                raise NonConverged(f"residue series not converged after "
                                   f"{_MAX_TERMS} terms")
            logs = self.log_terms(min(2 * n, _MAX_TERMS, self.length),
                                  np.array([math.log(z)]))[0][:, 0].tolist()
            self._ensure(len(logs))
        return total, max(max(logs), (top + unit) * _LN2)


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
    across _ROUND_RTOL or more or of order 3 or more, is re-summed exactly,
    every such z of the call in one pass (_ResidueTable.exact_sum).  Every
    pole cancelled raises DomainError, a value past double range
    ComplexityError.
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
    redo = np.flatnonzero(resum)
    if len(redo):
        # alternating cancellation ate too many digits, or a float term is
        # not trusted; redo the terms exactly at a confirmed precision
        values[redo] = table.exact_sum(
            zs.flat[redo].tolist(),
            [term_log[:last[i] + 1, i].tolist() for i in redo],
            lost[redo].tolist())
    if not np.all(np.isfinite(values)):
        at = zs.flat[np.flatnonzero(~np.isfinite(values))[0]]
        raise ComplexityError(f"residue series value at z = {at:g} lies "
                              f"past double range")
    return float(values[0]) if np.ndim(z) == 0 else values.reshape(zs.shape)


def _monic(poly, y):
    """y^m + poly[m-1] y^(m-1) + ... + poly[0], m = len(poly), on floats
    or arrays."""
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


def _exact_leading(table, sing_num, sing_den):
    """_leading_coefficient at the exact pole of sing_num[0], a libmp value
    at the working precision, and every gamma there as _gammas_at gives it,
    but with the argument of a regular one an exact fraction (p, q).

    The pole and every argument shift + slope*u0 are exact rationals, so
    the singular gammas' (-1)^k / (k! slope) are one fraction of integers.
    A regular numerator and denominator of one slope whose shifts differ by
    an integer d (`_ResidueTable.pairs`) are one ratio Gamma(w)/Gamma(w -
    d), |d| linear factors (as Gamma(alpha+n+1-u)/Gamma(alpha+1-u) and
    Gamma(u)/Gamma(n+u) of G~_n); it and every unpaired regular gamma come
    from their chains (`_ResidueTable.gamma_ratio`).
    """
    prec = mpmath.mp.prec
    j, k = sing_num[0]
    pb, aq, qb = table.forms[0][j]
    big_u, big_v = -(pb + k * qb), aq  # u0 = U / V
    top, bottom, gammas, regular = 1, 1, [], ({}, {})
    for side, (factors, sing, dirn) in enumerate(((table.num, sing_num, 1),
                                                  (table.den, sing_den, -1))):
        singular = dict(sing)
        for i, (f, (pb, aq, qb)) in enumerate(zip(factors, table.forms[side])):
            if i not in singular:
                regular[side][i] = (pb * big_v + aq * big_u, qb * big_v)
                continue
            k = singular[i]
            gammas.append((f, dirn, k, None))
            # (-1)^k / (k! slope), slope = aq / qb
            p, q = (-qb if k % 2 else qb), table.factorial(k) * aq
            top, bottom = (top * p, bottom * q) if dirn > 0 else (top * q,
                                                                  bottom * p)
    value = fone
    for i, (p, q) in regular[0].items():
        gammas.append((table.num[i], 1, None, (p, q)))
        g, d = next(((g, d) for g, d in table.pairs[i] if g in regular[1]),
                    (None, 0))
        if g is not None:
            gammas.append((table.den[g], -1, None, regular[1].pop(g)))
        value = mpf_mul(value, table.gamma_ratio(i, g, d, p, q), prec)
    for g, (p, q) in regular[1].items():
        gammas.append((table.den[g], -1, None, (p, q)))
        value = mpf_mul(value, table.gamma_ratio(None, g, 0, p, q), prec)
    return mpf_mul(_ratio(top, bottom, prec), value, prec,
                   round_nearest), gammas


def _rising(p: int, q: int, m: int) -> tuple[int, int]:
    """(top, bottom), Gamma(w + m)/Gamma(w) = top/bottom at w = p/q for any
    integer m: the |m| linear factors w (w + 1) ... (w + m - 1), or their
    reciprocal (w - 1) ... (w + m) for m < 0, as one fraction."""
    acc = 1
    for t in range(m) if m >= 0 else range(-1, m - 1, -1):
        acc *= p + t * q
    return (acc, q ** m) if m >= 0 else (q ** -m, acc)


def _ratio(p: int, q: int, prec: int):
    """p/q as a libmp value of prec bits, from one integer division to
    _GUARD_BITS more (libmp's own from_rational strips the trailing zero
    bits of p and q, 8 per pass, slow on the large powers of two of a
    product of float shifts)."""
    if q < 0:
        p, q = -p, -q
    shift = prec + _GUARD_BITS - p.bit_length() + q.bit_length()
    man = (p << shift) // q if shift >= 0 else p // (q << -shift)
    return from_man_exp(man, -shift, prec, round_nearest)


def _mpf_ratio(p: int, q: int):
    """p/q in mpmath at the working precision."""
    return mpmath.mp.make_mpf(_ratio(p, q, mpmath.mp.prec))


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


def _exact_coefficient(table, pole: _Pole, bits: int) -> list:
    """One part (j, k, m, e, poly) per exact location of the pole's
    numerator poles, none where denominators cancel them all: num[j] is the
    first numerator singular there, at its k-th pole u, and the part's
    residue is C z^{-u} _monic(poly, -log z), C = m 2^e at the working
    precision, poly (None at a simple pole) in units of 2^-bits.

    Poles the float table merged may lie apart at the exact shifts and
    float slopes, by up to _MERGE_RTOL (for a = 0.7, theta = 1.3 the poles
    of Gamma(u) and Gamma(theta*u - a) at u = -11 are 3.4e-16 apart), each
    location a part on its own family's chain.  Their residues cancel by
    about 1/gap, which the sum measures (_ResidueTable._sum_at); each holds
    the other merged numerators within the gap of a pole, where the
    rounding of a gamma's argument is magnified by up to 1/gap, so it is
    worked at the gap's digits once per other merged numerator.
    """
    num, den = table.num, table.den
    spots = {}  # exact location -> singular (num, den) factors there
    group = len(pole.sing_num) + len(pole.sing_den) > 1
    for factors, sing, side in ((num, pole.sing_num, 0),
                                (den, pole.sing_den, 1)):
        for j, k in sing:  # the pole at the exact shift and float slope
            f = factors[j]
            at = (-f.shift - k) / Fraction(f.slope) if group else 0
            spots.setdefault(at, ([], []))[side].append((j, k))
    gap = min((abs(x - y) for x in spots for y in spots if x != y), default=1)
    extra = _DPS_STEP * math.ceil(-(len(pole.sing_num) - 1) * math.log10(gap)
                                  / _DPS_STEP)
    # a regular gamma d from a pole of its own magnifies the rounding of its
    # argument by 1/d, up to 1e10 (_MERGE_RTOL); past 1e4 the sum's 20 spare
    # digits would not keep a double's 16, so _DPS_STEP more are worked in
    near = min((abs(w - round(w)) for *_, k, w in _gammas_at(
        num, den, pole.sing_num, pole.sing_den,
        lambda f: f.near + f.slope * pole.u0) if k is None and w < 0.5),
        default=1.0)
    parts, prec = [], mpmath.mp.prec
    with mpmath.workdps(mpmath.mp.dps + extra
                        + (_DPS_STEP if near < 1e-4 else 0)):
        for sing_num, sing_den in spots.values():
            order = len(sing_num) - len(sing_den)
            if order <= 0:
                continue
            c, gammas = _exact_leading(table, sing_num, sing_den)
            poly = None
            if order > 1:
                poly = tuple(to_fixed(q._mpf_, bits) for q in _log_poly(
                    [(f, dirn, k, w if w is None else _mpf_ratio(*w))
                     for f, dirn, k, w in gammas], order))
                c = mpf_div(c, from_int(math.factorial(order - 1)),
                            mpmath.mp.prec)
            # rounded to the working precision
            parts.append((*sing_num[0], *_mantissa(
                mpf_pos(c, prec, round_nearest)), poly))
    return parts


def _mantissa(x) -> tuple[int, int]:
    """(m, e), m a signed integer, with the libmp value x = m 2^e."""
    sign, man, exp, _ = x
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
