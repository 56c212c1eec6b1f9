"""Fox H-functions via residue series and numerical Mellin-Barnes contours.

Evaluates general Fox H specifications plus the four kernel building
blocks: the finite-N polynomials G_N, their companions G~_N carrying a
Gamma(theta*u - a) factor, and the hard-edge limits G_inf, G~_inf.
"""
from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import mpmath
import numpy as np
from mpmath.libmp import to_fixed

from .exceptions import (ComplexityError, DomainError, NonConverged,
                         PoleCollisionError, PoleError)
# log_gamma_complex stays bound here for perfbench/tracer.py
from .numerics import (_DPS_STEP, _POLE_TOL, lgamma_signed,  # noqa: F401
                       ln_abs, log_gamma_complex, mp_sum,
                       refine_quadrature, require_positive)

__all__ = [
    "GammaFactor",
    "FoxHSpec",
    "fox_h",
    "g_n",
    "g_tilde_n",
    "g_inf",
    "g_tilde_inf",
    "mellin_barnes",
]

_LN_EPS = math.log(1e-16)
_trapz = getattr(np, "trapezoid", None) or np.trapz
# Poles closer than _MERGE_RTOL (GammaFactor.pole_gap) coincide up to
# rounding and are one pole of the residue series; unmerged pairs closer
# than _NEAR_RTOL are a near-collision, for which the series raises.
_MERGE_RTOL = 1e-14
_NEAR_RTOL = 1e-10
_MAX_TERMS = 2000
# bits the integer re-sum (_ResidueTable.exact_sum) keeps past the working
# precision, so that its truncations stay below mpmath's own rounding
_GUARD_BITS = 16
_LOOP_NODES = 64
_LOOP_RTOL = 1e-11
_SEPARATION_POLES = 300
_STRATEGIES = ("auto", "residue", "hankel")


# ---------------------------------------------------------------------------
# integrand description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaFactor:
    """One factor Gamma(shift + slope * u) of a Mellin-Barnes integrand."""

    shift: float
    slope: float

    def pole(self, k: int) -> float:
        return -(self.shift + k) / self.slope

    def pole_gap(self, u0: float) -> tuple[int, float]:
        """(k, gap): the k-th pole of this factor is the one nearest u0.

        gap is their distance relative to the terms of shift + slope*u0, so
        that it measures rounding whatever the pole's size (inf: no pole).
        """
        w = self.shift + self.slope * u0
        k = round(w)
        if k > 0:
            return 0, math.inf
        return -k, abs(w - k) / max(abs(self.slope), abs(self.shift), abs(w))


@dataclass(frozen=True)
class FoxHSpec:
    """Parameter lists (a_j, A_j), (b_j, B_j) and indices (m, n)."""

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]
    m: int
    n: int

    def __post_init__(self):
        for _, slope in (*self.upper, *self.lower):
            if slope <= 0:
                raise DomainError("all slopes A_j, B_j must be positive")
        if not 0 <= self.m <= len(self.lower):
            raise DomainError(f"m out of range: {self.m}")
        if not 0 <= self.n <= len(self.upper):
            raise DomainError(f"n out of range: {self.n}")

    def factors(self) -> tuple[list[GammaFactor], list[GammaFactor]]:
        num = [GammaFactor(b, B) for b, B in self.lower[:self.m]]
        num += [GammaFactor(1.0 - a, -A) for a, A in self.upper[:self.n]]
        den = [GammaFactor(1.0 - b, -B) for b, B in self.lower[self.m:]]
        den += [GammaFactor(a, A) for a, A in self.upper[self.n:]]
        return num, den


def _log_integrand(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                   u: np.ndarray, log_z: float) -> np.ndarray:
    """log of z^{-u} prod Gamma(num) / prod Gamma(den) at an array of nodes.

    A numerator gamma pole at any node raises PoleError; a denominator
    gamma pole is a zero of the integrand, so its node gets log -inf.
    """
    from scipy.special import loggamma  # only the Hankel route needs scipy
    acc = -u * log_z
    for f in num:
        w = f.shift + f.slope * u
        hit = _on_pole(w)
        if hit.any():
            raise PoleError(f"log-gamma pole at z = {w[hit][0]}")
        acc += loggamma(w)
    zero = np.zeros(len(u), dtype=bool)
    for f in den:
        w = f.shift + f.slope * u
        zero |= _on_pole(w)
        acc -= loggamma(w)
    acc[zero] = complex(-math.inf, 0.0)
    return acc


def _on_pole(w: np.ndarray) -> np.ndarray:
    """Mask of the entries of w on a gamma pole, at log_gamma_complex's tol."""
    n = np.round(w.real)
    return (n <= 0) & (np.abs(w - n) < _POLE_TOL)


# ---------------------------------------------------------------------------
# residue series
# ---------------------------------------------------------------------------

class _Pole(NamedTuple):
    """One left pole u0 and the z-independent part of its residue.

    The residue is sign * exp(log_c) * z^{-u0} at a simple pole and that
    times (bracket - log z) at a double pole.  order 0 is a pole cancelled
    by a denominator gamma (a zero term), order -1 a near-collision;
    sing_num and sing_den hold the (index, k) of every gamma factor
    singular at u0.
    """

    u0: float
    order: int
    sign: int
    log_c: float
    bracket: float
    sing_num: tuple
    sing_den: tuple


class _ResidueTable:
    """Left poles of one integrand, in the order the residue series sums them.

    Entries depend on the integrand only, so the heap walk, the pole scans
    and every gamma and digamma value are computed once per integrand and
    reused at every z.  `exact` holds the same coefficients in mpmath
    numbers, one list per working precision.
    """

    def __init__(self, num: tuple, den: tuple):
        self.num, self.den = num, den
        self.heap = [(-f.pole(0), i, 0) for i, f in enumerate(num)
                     if f.slope > 0]
        if not self.heap:
            raise DomainError("integrand has no left pole family")
        heapq.heapify(self.heap)
        self.entries: list[_Pole] = []
        self._arrays = np.empty((5, 0))
        self.exact: dict[int, list] = {}

    def entry(self, n: int) -> _Pole:
        while len(self.entries) <= n:
            self._extend()
        return self.entries[n]

    def arrays(self, n: int) -> np.ndarray:
        """Rows u0, order, sign, log_c, bracket of the first n poles."""
        if self._arrays.shape[1] < n:
            self.entry(n - 1)
            self._arrays = np.array([pole[:5] for pole in self.entries]).T
        return self._arrays[:, :n]

    def _extend(self) -> None:
        num, den = self.num, self.den
        while True:
            neg_u, i, k = heapq.heappop(self.heap)
            heapq.heappush(self.heap, (-num[i].pole(k + 1), i, k + 1))
            u0 = -neg_u
            near_num = _singular(num, u0)
            sing_num = tuple(p[:2] for p in near_num if p[2] < _MERGE_RTOL)
            if sing_num[0][0] == i:
                break
            # same point reached from another family; counted once only
        near_den = _singular(den, u0)
        sing_den = tuple(p[:2] for p in near_den if p[2] < _MERGE_RTOL)
        order = max(len(sing_num) - len(sing_den), 0)
        if len(near_num + near_den) > len(sing_num + sing_den):
            order = -1  # a factor near u0 that does not merge
        sign, log_c, bracket = 0, -math.inf, 0.0
        if order in (1, 2):
            sign, log_c = _leading_coefficient(num, den, u0, sing_num,
                                               sing_den)
        if order == 2:
            bracket = float(_log_bracket(num, den, u0, sing_num, sing_den,
                                         mpmath.digamma))
        self.entries.append(_Pole(u0, order, sign, log_c, bracket, sing_num,
                                  sing_den))

    def log_terms(self, n: int, log_z: np.ndarray):
        """(log |term|, sign) of the first n residues at each log z.

        Arrays of shape (n, len(log_z)); a zero term has sign 0, log -inf.
        """
        u0, order, sign, log_c, bracket = self.arrays(n)
        term_log = log_c[:, None] - u0[:, None] * log_z
        term_sign = sign[:, None] * np.ones_like(term_log)
        double = order == 2
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = bracket[double, None] - log_z
            term_sign[double] *= np.sign(factor)
            term_log[double] += np.log(np.abs(factor))
        return term_log, term_sign

    def exact_sum(self, z: float, term_log: np.ndarray,
                  lost_digits: float) -> float:
        """The residues whose float logs are term_log, summed exactly.

        The terms double until the last three lie below 1e-16 of the exact
        total (the float sum stops early where its own total is rounding
        noise), and numerics.mp_sum raises the precision from the float
        sum's measure of the loss until the digits lost to the largest
        term leave enough.  At a working precision of p bits the sum runs
        on integer mantissas: coefficients as (mantissa, exponent) pairs,
        z^{-u0} at the k-th pole of the family Gamma(shift + slope*u) as
        z^{shift/slope} (z^{1/slope})^k cut to p + _GUARD_BITS bits per
        step, and every term added into one integer in units of
        2^{-p - _GUARD_BITS} of the largest term.  Those truncations cost
        less than mpmath's rounding of each product and sum would.
        """
        log_z = math.log(z)

        def sum_at():
            dps, bits = mpmath.mp.dps, mpmath.mp.prec + _GUARD_BITS
            coeffs = self.exact.setdefault(dps, [])
            mz = mpmath.mpf(z)
            log_mz = mpmath.log(mz)
            fixed_log_z = to_fixed(log_mz._mpf_, bits)
            # family -> (k, m, e, m', e'): z^{-u0} = m 2^e at its k-th pole,
            # z^{1/slope} = m' 2^e'
            powers = {}
            unit = math.floor(np.max(term_log) / math.log(2.0)) - bits
            acc, done, logs = 0, 0, term_log
            while done < len(logs):
                n = len(logs)
                while len(coeffs) < n:
                    coeffs.append(_integer_coefficient(
                        self.num, self.den, self.entry(len(coeffs)), bits))
                for coeff in coeffs[done:n]:
                    if coeff is None:
                        continue
                    j, k, extra, parts = coeff
                    if j not in powers:  # w = z exactly where slope = 1
                        shift, slope = self.num[j].shift, self.num[j].slope
                        seed = mpmath.exp(log_mz * shift / slope)
                        w = mz if slope == 1 else mpmath.exp(log_mz / slope)
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
                                * (1 if b is None else b - log_w)
                                for offset, c, b in parts)
                        man, exp = _mantissa(part_sum)
                    else:
                        man, exp, bracket = parts
                        if bracket is not None:
                            man *= bracket - fixed_log_z
                            exp -= bits
                    man *= pm
                    exp += pe - unit
                    acc += man << exp if exp >= 0 else man >> -exp
                done = n
                total = mpmath.mpf((acc, unit))
                if total and not np.all(logs[-3:] < _LN_EPS + ln_abs(total)):
                    if n >= _MAX_TERMS:
                        raise NonConverged(f"residue series not converged "
                                           f"after {_MAX_TERMS} terms")
                    logs = self.log_terms(min(2 * n, _MAX_TERMS),
                                          np.array([log_z]))[0][:, 0]
            return total, float(np.max(logs))

        hint = _DPS_STEP * math.ceil((25 + 1.2 * lost_digits) / _DPS_STEP)
        return float(mp_sum(sum_at, hint))


@lru_cache(maxsize=128)
def _residue_table(num: tuple, den: tuple) -> _ResidueTable:
    return _ResidueTable(num, den)


def _singular(factors, u0) -> tuple:
    """(index, k, gap) of each factor with a pole within _NEAR_RTOL of u0."""
    out = []
    for j, f in enumerate(factors):
        k, gap = f.pole_gap(u0)
        if gap < _NEAR_RTOL:
            out.append((j, k, gap))
    return tuple(out)


def residue_series(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                   z):
    """Sum of residues over the left pole families (slope > 0 numerators).

    z is a float (a plain float is returned) or an ndarray (an array of
    the same shape is returned).  Poles that coincide up to rounding are
    one pole, a double pole contributing its logarithmic residue; poles
    cancelled by a denominator gamma are skipped.  A pole of order 3 or
    more, or an unmerged pair closer than _NEAR_RTOL (which neither
    reading of the series sums accurately), raises PoleCollisionError.
    Pole locations and residue coefficients are cached per integrand, and
    the terms for all z are summed at once in floats; each z stops after
    three successive terms below 1e-16 of its partial sum.  A z that
    loses more than two digits to cancellation is re-summed on integer
    mantissas at a precision numerics.mp_sum confirms
    (_ResidueTable.exact_sum), the float parameters taken as exact, which
    also confirms its term count.  A value past double range raises
    ComplexityError, from the float sum or the re-sum alike.
    """
    zs = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zs) & (zs > 0)):
        raise DomainError("z must be finite and positive")
    log_z = np.log(zs).ravel()
    table = _residue_table(tuple(num), tuple(den))
    cols = np.arange(len(log_z))
    n_terms = 32
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
        small = term_log < partial_log + _LN_EPS
        run3 = small[2:] & small[1:-1] & small[:-2]
        done = run3.any(axis=0)
        last = np.where(done, run3.argmax(axis=0) + 2, n_terms - 1)
        u0, order = table.arrays(n_terms)[:2]
        bad = np.flatnonzero((order < 0) | (order > 2))
        if bad.size and bad[0] <= np.max(last, initial=-1):
            what, at = order[bad[0]], u0[bad[0]]
            raise PoleCollisionError(
                f"pole of order {what:.0f} near u = {at:.6g}" if what > 0
                else f"poles less than {_NEAR_RTOL:g} apart near u = {at:.6g}")
        if done.all():
            break
        if n_terms >= _MAX_TERMS:
            raise NonConverged(f"residue series not converged after "
                               f"{_MAX_TERMS} terms")
        n_terms = min(2 * n_terms, _MAX_TERMS)

    total, peak = partial[last, cols], peak[last, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        total_log = top + np.log(np.abs(total))
        # digits lost; a sum that cancels to exactly zero lost all 16
        lost = np.where(total != 0.0, (peak - total_log) / math.log(10.0),
                        np.where(peak > -math.inf, 16.0, 0.0))
    resum = lost > 2.0
    # the float total of a z that is re-summed can be rounding noise past
    # double range, so it is not exponentiated
    with np.errstate(over="ignore"):
        values = np.sign(total) * np.exp(np.where(resum, 0.0, total_log))
    for i in np.flatnonzero(resum):
        # alternating cancellation ate too many digits; redo the terms
        # exactly at a confirmed precision
        values[i] = table.exact_sum(float(zs.flat[i]),
                                    term_log[:last[i] + 1, i], float(lost[i]))
    if not np.all(np.isfinite(values)):
        at = zs.flat[np.flatnonzero(~np.isfinite(values))[0]]
        raise ComplexityError(f"residue series value at z = {at:g} lies "
                              f"past double range")
    return _shaped_like(z, values)


def _shaped_like(z, values: np.ndarray):
    """values as a plain float for a scalar z, else in the shape of z."""
    if np.ndim(z) == 0:
        return float(values[0])
    return values.reshape(np.shape(z))


def _leading_coefficient(num, den, u0, sing_num, sing_den):
    """Signed log of the Laurent leading coefficient at u0, without z^{-u0}.

    Each singular numerator gamma contributes (-1)^k / (k! * slope);
    singular denominator gammas divide out the same way; the regular
    gammas contribute their values at u0.
    """
    sign = 1
    log_mag = 0.0
    for factors, sing, dirn in ((num, sing_num, 1), (den, sing_den, -1)):
        for j, k in sing:
            slope = factors[j].slope
            log_mag -= dirn * (math.lgamma(k + 1) + math.log(abs(slope)))
            if (k % 2 == 1) != (slope < 0):
                sign = -sign
        skip = {j for j, _ in sing}
        for j, f in enumerate(factors):
            if j not in skip:
                s, lm = lgamma_signed(f.shift + f.slope * u0)
                sign *= s
                log_mag += dirn * lm
    return sign, log_mag


def _log_bracket(num, den, u0, sing_num, sing_den, psi):
    """z-independent part of the log-derivative bracket at a double pole.

    Near u0 the integrand is C (u-u0)^{-2} (1 + B (u-u0) + ...) with
    B = bracket - log z, so the residue is C * B.  Works in floats or in
    mpmath numbers, whichever u0 and psi are.
    """
    total = 0
    for factors, sing, dirn in ((num, sing_num, 1), (den, sing_den, -1)):
        skip = {j for j, _ in sing}
        for j, k in sing:
            total += dirn * factors[j].slope * psi(k + 1)
        for j, f in enumerate(factors):
            if j not in skip:
                total += dirn * f.slope * psi(f.shift + f.slope * u0)
    return total


def _exact_coefficient(num, den, pole: _Pole):
    """(j, k, extra, parts) in mpmath of the k-th pole u0 of num[j], or None.

    The residue is z^{-u0} times the sum over parts (offset, C, bracket)
    of C z^{-offset}, times (bracket - log z) at a double pole.  Poles the
    float table merged may lie apart with the float parameters taken as
    exact (for a = 0.7, theta = 1.3 the poles of Gamma(u) and
    Gamma(theta*u - a) at u = -11 are 3.4e-16 apart); each exact location
    is then a part, and their 1/gap residues, which cancel, are formed and
    summed at `extra` more digits: the gap's digits once to place the poles
    and once for the cancellation.
    """
    if pole.order == 0:
        return None
    spots = {}  # exact location -> singular (num, den) factors there
    group = len(pole.sing_num) + len(pole.sing_den) > 1
    for factors, sing, side in ((num, pole.sing_num, 0),
                                (den, pole.sing_den, 1)):
        for j, k in sing:  # the pole, its float parameters taken as exact
            f = factors[j]
            at = (-Fraction(f.shift) - k) / Fraction(f.slope) if group else 0
            spots.setdefault(at, ([], []))[side].append((j, k))
    j0, k0 = pole.sing_num[0]
    base = next(iter(spots))  # the k0-th pole of num[j0], inserted first
    gap = min((abs(x - y) for x in spots for y in spots if x != y), default=1)
    extra = _DPS_STEP * math.ceil(-2 * math.log10(gap) / _DPS_STEP)
    parts = []
    with mpmath.workdps(mpmath.mp.dps + extra):
        for at, (sing_num, sing_den) in spots.items():
            order = len(sing_num) - len(sing_den)
            if order <= 0:
                continue
            if order > 2:
                raise PoleCollisionError(f"pole of order {order} near u = "
                                         f"{float(at):.6g}")
            j, k = sing_num[0]
            u0 = (mpmath.mpf(-num[j].shift) - k) / mpmath.mpf(num[j].slope)
            c = mpmath.mpf(1)
            for factors, sing, dirn in ((num, sing_num, 1),
                                        (den, sing_den, -1)):
                for j, k in sing:
                    c *= ((-1) ** k * mpmath.factorial(k)
                          * mpmath.mpf(factors[j].slope)) ** -dirn
                gamma = mpmath.gamma if dirn > 0 else mpmath.rgamma
                skip = {j for j, _ in sing}
                for j, f in enumerate(factors):
                    if j not in skip:
                        c *= gamma(mpmath.mpf(f.shift)
                                   + mpmath.mpf(f.slope) * u0)
            bracket = None if order < 2 else _log_bracket(
                num, den, u0, sing_num, sing_den, mpmath.digamma)
            offset = at - base
            parts.append((mpmath.mpf(offset.numerator) / offset.denominator,
                          c, bracket))
    return j0, k0, extra, parts


def _integer_coefficient(num, den, pole: _Pole, bits: int):
    """_exact_coefficient, its one part (m, e, bracket) as integers where
    the pole is not split: C = m 2^e, and at a double pole the bracket in
    fixed point, in units of 2^-bits (None at a simple pole)."""
    coeff = _exact_coefficient(num, den, pole)
    if coeff is None or coeff[2]:
        return coeff
    j, k, _, ((_, c, bracket),) = coeff
    fixed = None if bracket is None else to_fixed(bracket._mpf_, bits)
    return j, k, 0, (*_mantissa(c), fixed)


def _mantissa(x) -> tuple[int, int]:
    """(m, e), m a signed integer, with the mpmath number x = m 2^e."""
    sign, man, exp, _ = x._mpf_
    return -man if sign else man, exp


def min_family_separation(num: Sequence[GammaFactor],
                          den: Sequence[GammaFactor]) -> float:
    """Smallest u-plane distance between uncancelled left pole pairs.

    A diagnostic that chooses no route (residue_series itself raises for a
    near-collision).  It scans _SEPARATION_POLES poles of each left family
    and leaves out pairs that coincide up to rounding, one pole of the
    residue series.
    """
    left = [f for f in num if f.slope > 0]
    best = math.inf
    for i, f in enumerate(left):
        for g in left[i + 1:]:
            for u0 in map(f.pole, range(_SEPARATION_POLES)):
                m = round(-(g.shift + g.slope * u0))
                if m >= 0 and min(h.pole_gap(u0)[1]
                                  for h in (g, *den)) >= _MERGE_RTOL:
                    best = min(best, abs(u0 - g.pole(m)))
    return best


# ---------------------------------------------------------------------------
# contour quadrature
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


def mellin_barnes(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                  z, strategy: str = "auto") -> tuple:
    """Evaluate a gamma-ratio Mellin-Barnes integral; (value, route name).

    z is a float or an ndarray, and the value a plain float or an array of
    the same shape; one route serves every z of a call (residue_series
    sums all of them at once, the Hankel loop takes them one by one).
    strategy "residue" or "hankel" forces that route.  "auto" sums the
    residue series and integrates the Hankel loop only where the series
    raises PoleCollisionError, at a pole of order 3 or more or a
    near-collision.  This is the one place where the route is chosen.
    """
    if strategy not in _STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}; choose from "
                          f"{'|'.join(_STRATEGIES)}")
    if strategy != "hankel":
        try:
            return residue_series(num, den, z), "residue"
        except PoleCollisionError:
            if strategy == "residue":
                raise
    values = [hankel_loop(num, den, float(x)) for x in np.ravel(z)]
    return _shaped_like(z, np.array(values)), "hankel"


# ---------------------------------------------------------------------------
# Fox H front end
# ---------------------------------------------------------------------------

def fox_h(spec: FoxHSpec, z: float, strategy: str = "auto") -> float:
    """Fox H-function of positive real argument."""
    num, den = spec.factors()
    return mellin_barnes(num, den, z, strategy)[0]


# ---------------------------------------------------------------------------
# kernel specializations
# ---------------------------------------------------------------------------

def _g_factors(a, alpha, theta, n, tilde):
    """(num, den) of G_n, or with tilde of G~_n; n=None is the hard edge.

    Numerators Gamma(u) [Gamma(alpha+n+1-u)] [Gamma(theta*u - a)],
    denominators [Gamma(n+u)] Gamma(alpha+1-u) [Gamma(a+1-theta*u)]:
    Gamma(n+u) cancels the poles of Gamma(u) from u = -n on, and the
    companion moves the theta factor from the denominator to the
    numerator as Gamma(theta*u - a).
    """
    num = [GammaFactor(0.0, 1.0)]
    den = []
    if n is not None:
        num.append(GammaFactor(alpha + n + 1.0, -1.0))
        den.append(GammaFactor(float(n), 1.0))
    den.append(GammaFactor(alpha + 1.0, -1.0))
    if tilde:
        num.append(GammaFactor(-a, theta))
    else:
        den.append(GammaFactor(a + 1.0, -theta))
    return num, den


# the companions' factor lists under the names perfbench/refgen.py uses
_gtn_factors = partial(_g_factors, tilde=True)
_gtinf_factors = partial(_g_factors, n=None, tilde=True)


def _g(a, alpha, theta, n, tilde, z, strategy):
    """G_n, or with tilde G~_n, at z by mellin_barnes; n=None: hard edge.

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
            log_c += math.lgamma(f.shift)
        for f in den:
            log_c -= math.lgamma(f.shift)
        return math.exp(log_c)
    return mellin_barnes(num, den, z, strategy)[0]


def g_n(a: float, alpha: float, theta: float, n: int, z,
        strategy: str = "auto"):
    """Finite-N kernel polynomial G_{n,a}(z), a residue series (_g_factors).

    Gamma(n+u) cancels the poles of Gamma(u) from u = -n on, so the series
    is a polynomial of degree n - 1, summed by mellin_barnes
    like every G function; z is a float or an ndarray of positive values
    (a float z = 0 gives the constant term).  strategy="hankel" integrates
    the loop contour instead (verification route).
    """
    return _g(a, alpha, theta, n, False, z, strategy)


def g_tilde_n(a: float, alpha: float, theta: float, n: int, z,
              strategy: str = "auto"):
    """Companion function G~_{n,a}(z) with the Gamma(theta*u - a) factor.

    Residue series over the pole families {-k} and {(a-m)/theta}; where
    they coincide (rational theta, e.g. a=0.5, theta=1.5) the shared
    poles are double and carry logarithmic residues.  strategy="hankel"
    integrates the loop contour instead (verification route; see
    mellin_barnes).
    """
    return _g(a, alpha, theta, n, True, z, strategy)


def g_inf(a: float, alpha: float, theta: float, z,
          strategy: str = "auto"):
    """Hard-edge limit function: sum_k (-z)^k / (k! G(alpha+1+k) G(a+theta*k+1)).

    This is the residue series of the limiting contour integral
    (_g_factors with n=None), and the actual N -> infinity limit of the
    rescaled G_{N,a}; z is a float or an ndarray of positive values, as in
    mellin_barnes (a float z = 0 gives the first term).  strategy="hankel"
    integrates the loop contour instead (verification route).
    """
    return _g(a, alpha, theta, None, False, z, strategy)


def g_tilde_inf(a: float, alpha: float, theta: float, z,
                strategy: str = "auto"):
    """Hard-edge companion with Gamma(theta*u - a).

    Residue series over the families {-k} and {(a-m)/theta}, with
    logarithmic residues where they coincide; strategy="hankel"
    integrates the loop contour instead (see mellin_barnes).
    """
    return _g(a, alpha, theta, None, True, z, strategy)
