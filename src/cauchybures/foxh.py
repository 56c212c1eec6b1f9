"""Fox H-functions as one residue series, and the kernel building blocks.

Every Mellin-Barnes integral of the library (`fox_h`, the finite-N
polynomials G_N, their companions G~_N carrying a Gamma(theta*u - a)
factor, and the hard-edge limits G_inf, G~_inf) is the sum of its left
residues (`residue_series`), at poles of any order; it is the library's
one evaluator of them.  The Hankel contour quadrature of the same
integrand is a test reference (tests/references.py).
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import mpmath
import numpy as np
from mpmath.libmp import (fone, from_float, from_int, from_man_exp, mpf_div,
                          mpf_exp, mpf_log, mpf_mul, round_nearest,
                          to_fixed)

from .exceptions import DomainError, NonConverged, PoleCollisionError
# log_gamma_complex stays bound here for perfbench/tracer.py
from .numerics import (_DPS_STEP, _GUARD_BITS, _SPARE_DIGITS,  # noqa: F401
                       _hankel_form, checked_exp, lgamma_signed,
                       log_gamma_complex, mp_sum, require_integer,
                       require_positive, require_real, require_real_array)

__all__ = [
    "GammaFactor",
    "FoxHSpec",
    "fox_h",
    "g_n",
    "g_tilde_n",
    "g_inf",
    "g_tilde_inf",
    "residue_series",
    "residue_integral",
]

_LN2 = math.log(2.0)
# Poles closer than _MERGE_RTOL (GammaFactor.pole_gap) are one entry of the
# float series; a z whose terms reach an entry merged across _ROUND_RTOL or
# more is re-summed exactly, where the entry splits into its exact poles.
# Closer than _ROUND_RTOL, poles coincide up to rounding.
_MERGE_RTOL = 1e-10
_ROUND_RTOL = 1e-14
_MAX_TERMS = 2000
_FLOAT_LOSS = 2.0  # digits a float sum may lose and still be returned
_SEPARATION_POLES = 300


# ---------------------------------------------------------------------------
# integrand description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaFactor:
    """One factor Gamma(shift + slope * u) of a Mellin-Barnes integrand, read
    by require_real; shift is exact, a float read as the number it denotes
    (Fraction(0.4) + 4 is 3.3e-16 below 0.4 + 4.0), its double is `near`."""

    shift: Fraction
    slope: float
    near: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        near, slope = require_real("shift and slope", self.shift, self.slope)
        if not (math.isfinite(near) and math.isfinite(slope)):
            raise DomainError("gamma factor shift and slope must be finite")
        exact = self.shift if isinstance(self.shift, (int, Fraction)) else near
        object.__setattr__(self, "shift", Fraction(exact))
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "near", near)
        # a residue table is looked up per call by its factors' hashes
        object.__setattr__(self, "_hash", hash((self.shift, self.slope)))

    def __hash__(self):
        return self._hash

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
    """Parameter lists (a_j, A_j), (b_j, B_j) and indices (m, n); the
    pairs are stored as tuples of floats."""

    upper: tuple[tuple[float, float], ...]
    lower: tuple[tuple[float, float], ...]
    m: int
    n: int

    def __post_init__(self):
        for key in ("upper", "lower"):
            try:  # a TypeError or ValueError: no pairs to unpack
                pairs = tuple(tuple(require_real(key, shift, slope))
                              for shift, slope in getattr(self, key))
            except (DomainError, TypeError, ValueError):
                raise DomainError(f"field {key!r} must be a list of "
                                  f"[shift, slope] pairs") from None
            object.__setattr__(self, key, pairs)
        for key in ("m", "n"):
            require_integer(f"field {key!r}", getattr(self, key))
        for shift, slope in (*self.upper, *self.lower):
            if not (0 < slope < math.inf and math.isfinite(shift)):
                raise DomainError("every shift must be finite, every slope "
                                  "A_j, B_j finite and positive")
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


# ---------------------------------------------------------------------------
# residue series
# ---------------------------------------------------------------------------

class _Pole(NamedTuple):
    """One left pole u0 and the z-independent part of its residue.

    At order m the residue is sign * exp(log_c) * z^{-u0} times the monic
    polynomial y^(m-1) + poly[-1] y^(m-2) + ... + poly[0] in y = -log z;
    order 0 is a pole a denominator of another slope cancels (a zero term;
    one of its family's slope ends the family, `_ResidueTable.stops`).  The
    float term is trusted where the poles merged here coincide up to
    _ROUND_RTOL (the table sums them as one), the order is 2 or less (a
    polynomial of degree 2 or more can cancel where the loss estimate does
    not look), and every regular gamma lies 1e-4 or more from a pole of its
    own (closer, the rounding of its float argument reaches its value).
    sing_num and sing_den are the (index, k) of each gamma singular at u0.
    """

    u0: float
    order: int
    sign: int
    log_c: float
    trusted: bool
    poly: tuple
    sing_num: tuple
    sing_den: tuple


class _ResidueTable:
    """Left poles of one integrand, in the order the residue series sums
    them, each family up to its first cancelled pole (`stops`), computed
    once per integrand and reused at every z; `length` counts them, inf
    past _MAX_TERMS.  `runs` holds the first `exact` on integers, a term
    per exact pole location, at the most bits a sum has asked for
    (`exact_prec`), which serve every sum at fewer."""

    def __init__(self, num: tuple, den: tuple):
        self.num, self.den = num, den
        # per numerator, its family's first cancelled pole: d (0 if d < 0)
        # where a denominator of its slope, each used once, has a shift
        # larger by an integer d up to rounding, as Gamma(n + u) for Gamma(u);
        # inf where none has, 0 for a right family (no left poles)
        free, self.stops = list(den), []
        for f in num:
            for g in free if f.slope > 0 else ():
                d = g.near - f.near
                tol = _ROUND_RTOL * max(1.0, abs(g.near), abs(f.near))
                if g.slope == f.slope and abs(d - round(d)) < tol:
                    free.remove(g)
                    self.stops.append(max(round(d), 0))
                    break
            else:
                self.stops.append(math.inf if f.slope > 0 else 0)
        self.heap = [(-f.pole(0), i, 0) for i, f in enumerate(num)
                     if self.stops[i]]
        if not self.heap:
            raise DomainError("a denominator gamma cancels every left pole"
                              if any(f.slope > 0 for f in num) else
                              "integrand has no left pole family")
        heapq.heapify(self.heap)
        self.entries: list[_Pole] = []
        self._arrays = np.empty((5, 0))
        self.exact_prec = 0  # _ensure builds the exact pass on first use
        self.factorials, self.spot_maps, self.splits = [1], [], []
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
        # the series ends where the heap runs dry (no stop past _MAX_TERMS)
        if max(self.stops) <= _MAX_TERMS:
            while self.heap and len(self.entries) <= _MAX_TERMS:
                self._extend()
        self.length = math.inf if self.heap else len(self.entries)

    def entry(self, n: int) -> _Pole:
        while len(self.entries) <= n:
            self._extend()
        return self.entries[n]

    def arrays(self, n: int) -> np.ndarray:
        """Rows u0, sign, log_c, trusted, then the monic polynomial of
        each of the first n poles, highest power first, right-aligned (1,
        poly[-1], ..., poly[0], zero-padded above), for _float_terms."""
        if self._arrays.shape[1] < n:
            self.entry(n - 1)
            width = max(len(pole.poly) for pole in self.entries)
            self._arrays = np.array([
                (pole.u0, pole.sign, pole.log_c, pole.trusted,
                 *[0.0] * (width - len(pole.poly)), 1.0, *pole.poly[::-1])
                for pole in self.entries]).T
        return self._arrays[:, :n]

    def _extend(self) -> None:
        """Moves the heap past its next pole, built into an entry where its
        family is the lowest-index one live there (the others pass it)."""
        num, den = self.num, self.den
        neg_u, i, k = self.heap[0]
        u0 = -neg_u
        sing_num = _singular(num, u0)
        # the heap moves once the entry is built, so later calls raise too
        if any(num[j].slope < 0 for j, _, _ in sing_num):
            raise PoleCollisionError(  # + 0.0 prints u = -0.0 as 0
                f"a left and a right pole family meet near "
                f"u = {u0 + 0.0:.6g}")
        if min(j for j, kj, _ in sing_num if kj < self.stops[j]) == i:
            sing_den = _singular(den, u0)
            order = max(len(sing_num) - len(sing_den), 0)
            trusted = order <= 2 and all(p[2] < _ROUND_RTOL
                                         for p in sing_num + sing_den)
            sing_num, sing_den = (tuple(p[:2] for p in sing)
                                  for sing in (sing_num, sing_den))
            sign, log_c, poly = 0, -math.inf, ()
            if order:
                gammas = list(_gammas_at(num, den, sing_num, sing_den, u0))
                sign, log_c = _leading_coefficient(gammas)
                trusted = trusted and all(w is None or w >= 0.5
                                          or abs(w - round(w)) >= 1e-4
                                          for *_, w in gammas)
            if order > 1:
                poly = tuple(map(float, _log_poly(gammas, order)))
                log_c -= math.lgamma(order)
            self.entries.append(_Pole(u0, order, sign, log_c, trusted, poly,
                                      sing_num, sing_den))
        heapq.heappop(self.heap)
        if k + 1 < self.stops[i]:
            heapq.heappush(self.heap, (-num[i].pole(k + 1), i, k + 1))

    def _ensure(self, n: int) -> None:
        """Exact coefficients of the first `exact` >= n entries at the
        working precision or more: `runs`, each left family's parts
        (_exact_coefficient) as (entry, k, m, e, poly) in k order, and
        `nonzero`, the entries with a part.  A sum at more bits than any
        before rebuilds them, with each family's shift/slope and slope as
        libmp values at those bits (`family`)."""
        prec = mpmath.mp.prec
        if prec > self.exact_prec:
            self.exact, self.exact_prec, self.nonzero = 0, prec, []
            self.runs, self.family, self.chains = {}, {}, {}
            for j, (f, (pb, aq, _)) in enumerate(zip(self.num,
                                                     self.forms[0])):
                if f.slope > 0:
                    self.runs[j] = []
                    self.family[j] = (_ratio(pb, aq, prec) if pb else None,
                                      from_float(f.slope))
        if self.exact < n:
            with mpmath.workprec(self.exact_prec):
                fix = self.exact_prec + _GUARD_BITS  # the unit of each poly
                for i in range(self.exact, n):
                    parts = _exact_coefficient(self, i, fix)
                    if parts:
                        self.nonzero.append(i)
                    for j, *part in parts:
                        self.runs[j].append((i, *part))
            self.exact = n

    def factorial(self, k: int) -> int:
        """k!, from `factorials`, grown by one product per new k
        (math.factorial recomputes each k! of a series from scratch)."""
        while len(self.factorials) <= k:
            self.factorials.append(self.factorials[-1] * len(self.factorials))
        return self.factorials[k]

    def grow(self, n: int, what: str) -> int:
        """n doubled, up to `length` and _MAX_TERMS, for a residue `what`
        not converged on its first n entries; NonConverged at _MAX_TERMS."""
        if n >= _MAX_TERMS:
            raise NonConverged(f"residue {what} not converged after "
                               f"{_MAX_TERMS} terms")
        return min(2 * n, _MAX_TERMS, self.length)

    def settled(self, n: int, acc: int, sizes) -> bool:
        """The exact sums' stop rule: acc, an integer sum over the first n
        entries, is final where it is zero, n reaches `length`, or the terms
        of the last three nonzero entries below n, sizes (bits on acc's
        unit, entry) per term, lie 53 bits or more below it."""
        last3 = self.nonzero[:bisect_left(self.nonzero, n)][-3:]
        return not acc or n >= self.length or len(last3) == 3 and max(
            (size for size, i in sizes if i in last3),
            default=-math.inf) < abs(acc).bit_length() - 53

    def spots(self, i: int) -> dict:
        """exact location -> (sing_num, sing_den), entry i's gammas singular
        there, where numerators outnumber denominators (0 for a lone gamma);
        built once per entry, as is `splits`, the most digits an entry up
        to i cancels between such poles, -log10 of each gap between them."""
        while len(self.splits) <= i:
            pole, spots = self.entry(len(self.splits)), {}
            group = len(pole.sing_num) + len(pole.sing_den) > 1
            for sing, side in ((pole.sing_num, 0), (pole.sing_den, 1)):
                for j, k in sing:  # u = -(p b + k q b)/(a q) (`forms`)
                    pb, aq, qb = self.forms[side][j]
                    at = Fraction(-(pb + k * qb), aq) if group else 0
                    spots.setdefault(at, ([], []))[side].append((j, k))
            self.spot_maps.append({at: sing for at, sing in spots.items()
                                   if len(sing[0]) > len(sing[1])})
            at = sorted(self.spot_maps[-1])
            self.splits.append(max(self.splits[-1:] + [sum(
                -math.log10(v - u) for u, v in zip(at, at[1:]))]))
        return self.spot_maps[i]

    def split_digits(self, n: int) -> float:
        """The most digits an entry below n cancels between its poles."""
        self.spots(n - 1)
        return self.splits[n - 1]

    def summed(self, n: int, i, mass, total: float):
        """The float passes' stop rule: the entries a sum over the first n
        needs, to the third nonzero term (an order-0 entry has none) past
        the last whose mass, per term of entries i on the largest term's
        unit, is 1e-17 of |total| or more (deeper than `settled`: a re-sum
        seldom grows), or n at `length`; None where the sum must grow, as
        one with no nonzero term must."""
        big = np.flatnonzero(mass >= 1e-17 * (abs(total) or 1.0))
        tail = i[big[-1] + 1:] if len(big) else i
        return (tail[2] + 1 if len(tail) >= 3
                else n if n >= self.length else None)

    def accepted(self, lost: float, last: int) -> bool:
        """The float passes' accept test: at most _FLOAT_LOSS digits lost,
        and no pole up to entry `last` untrusted (`arrays`)."""
        return lost <= _FLOAT_LOSS and bool(self._arrays[3, :last + 1].all())

    def gamma_ratio(self, i, g, d: int, p: int, q: int):
        """Gamma(w)/Gamma(w - d) at w = p/q for numerator i and denominator
        g of one slope whose shifts differ by d; Gamma(w) where g is None,
        1/Gamma(w) where i is None (d = 0).  A libmp value at the working
        precision.

        The arguments of one factor, or pair, at one left family's poles
        that differ by integers form a chain (`chains`).  Its first value is
        a pair's |d| linear factors (_rising), or mpmath.gamma or rgamma at
        w + m > 0, m = 1 - floor(w) for w <= 0, times the m linear factors
        down to w (DLMF 5.5.1): no gamma is taken at a rounded argument
        beside a pole, whose rounding its value would magnify.  Each next
        value is the last times the linear factors between them, one
        fraction of integers, rounded once to _GUARD_BITS past the working
        precision, so that _MAX_TERMS steps stay below its last bit.
        """
        wp = mpmath.mp.prec + _GUARD_BITS
        key = (i, g, q, p % q)
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
        else:  # Gamma(w) = Gamma(w + m) bottom/top, 1/Gamma(w) the inverse
            m = 1 - p // q if p <= 0 else 0
            top, bottom = _rising(p, q, m)
            x = _mpf_ratio(p + m * q, q)
            if i is None:
                x, top, bottom = mpmath.rgamma(x), bottom, top
            else:
                x = mpmath.gamma(x)
            value = mpf_mul(x._mpf_, _ratio(bottom, top, wp), wp)
        self.chains[key] = (p, value)
        return value

    def _terms(self, z: float):
        """more(n), which lists the exact parts of the entries below n that
        no earlier call listed, family by family, as (i, j, k, ds, exp):
        entry i's part at the k-th pole u0 of num[j], whose residue at t z
        is 2^exp sum_r ds[r] tau^r, tau = -log t, ds[r] = C z^{-u0}
        P^(r)(y)/r! on integers (C and the monic P of _exact_coefficient, y
        = -log z), at the working precision p.  z^{-u0} at the k-th pole of
        Gamma(shift + slope*u) is z^{shift/slope} (z^{1/slope})^k, one power
        chain per left family, cut to p + _GUARD_BITS bits per step.
        """
        prec = mpmath.mp.prec
        bits = prec + _GUARD_BITS
        self._ensure(1)
        fix = self.exact_prec + _GUARD_BITS  # the unit of each poly
        log_z = mpf_log(from_float(z), prec, round_nearest)
        y = -to_fixed(log_z, fix)
        chains = {}  # family -> (terms done, k, m, e, m', e'): z^{-u0} =
        # m 2^e at its k-th pole, z^{1/slope} = m' 2^e'
        for j, (ratio, slope) in self.family.items():
            seed = (mpf_exp(mpf_mul(log_z, ratio, prec), prec) if ratio
                    else fone)
            w = (from_float(z) if slope == fone  # z exactly
                 else mpf_exp(mpf_div(log_z, slope, prec), prec))
            chains[j] = (0, 0, *_mantissa(seed), *_mantissa(w))

        def more(n: int) -> list:
            self._ensure(n)
            out = []
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
                    ds = [1] if poly is None else _taylor(
                        [1 << fix, *poly[::-1]], lambda d: d * y >> fix)
                    out.append((i, j, k, [man * pm * d for d in ds],
                                exp + pe - (0 if poly is None else fix)))
                chains[j] = (done, k0, pm, pe, wm, we)
            return out
        return more

    def _sum_at(self, z: float, n: int, peak: float) -> tuple:
        """(total, log of the largest term) of the first n residues at z, or
        more, at the working precision p, for numerics.mp_sum.

        The sum runs on integers over _terms: every term P(y) C z^{-u0} is
        added into one integer in units of 2^{-p - _GUARD_BITS} of e^peak.
        Each term's size in those units, floor log2, is taken as it is
        added (`sizes`): the largest is the log-peak, so that mp_sum sees
        the 1/gap cancellation of a split pole's two terms, and n grows
        until the sum is settled (`grow`, `settled`).
        """
        prec = mpmath.mp.prec
        more = self._terms(z)
        unit = math.floor(peak / _LN2) - prec - _GUARD_BITS
        acc, sizes = 0, []
        while True:
            for i, _, _, (man, *_), exp in more(n):
                exp -= unit
                sizes.append((man.bit_length() - 1 + exp, i))
                acc += man << exp if exp >= 0 else man >> -exp
            if self.settled(n, acc, sizes):
                break
            n = self.grow(n, "series")
        return (mpmath.mp.make_mpf(from_man_exp(acc, unit, prec,
                                                round_nearest)),
                (max(sizes, default=(-math.inf,))[0] + unit) * _LN2)


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
    is returned, each z summed on its own by _series_at).  Poles closer
    than _MERGE_RTOL are one pole of any order (_Pole); a left pole on a
    pole of a numerator of negative slope (a right family) leaves the
    integral undefined and raises PoleCollisionError.  Every pole
    cancelled raises DomainError, a value past double range
    ComplexityError.
    """
    zs = require_real_array("z", z)
    if not np.all(np.isfinite(zs) & (zs > 0)):
        raise DomainError("z must be finite and positive")
    table = _residue_table(tuple(num), tuple(den))
    values = np.array([_series_at(table, x) for x in zs.ravel().tolist()])
    return float(values[0]) if np.ndim(z) == 0 else values.reshape(zs.shape)


def _series_at(table, z: float) -> float:
    """residue_series at one z: _float_pass over its table's float terms
    at r = 0 (_float_terms, in entry order), summed on the largest term's
    unit, re-summed exactly by _ResidueTable._sum_at."""

    def terms_at(ns):
        i, _, r, lam, sig = _float_terms(table, z, *ns)
        i, lam, sig = i[r == 0], lam[r == 0], sig[r == 0]
        peak = lam.max(initial=-math.inf)
        mass = np.exp(lam - peak)
        return float(np.sum(sig * mass)), peak, [(i, mass)], [lam]

    return _float_pass("series", [table], terms_at,
                       lambda ns, peak: table._sum_at(z, *ns, peak))


def residue_integral(c, one: tuple, two: tuple) -> float:
    """int_0^1 t^{c-1} H1(t z1) H2(t z2) dt, each side (num, den, z) a
    Mellin-Barnes integral as residue_series takes it, c real, finite and
    exact (a float reads as the number it denotes).

    A side's residue at its pole u0 is sum_r D_r tau^r, tau = -log t, D_r =
    C z^{-u0} P^(r)(y)/r! (_Pole's C and monic P, y = -log z).  With int_0^1
    t^{s-1} tau^r dt = r!/s^{r+1}, the integral is the double sum over pole
    pairs of sum_{r,r'} (r + r')! D_r D'_{r'} / s^{r+r'+1}, s = c - u0 - u0'
    > 0 (DomainError otherwise): _float_pass over the outer product of the
    tables' float terms, a side's mass per term the sum of its pairs', else
    redone exactly (_integral_at).
    """
    if not math.isfinite(*require_real("c", c)):
        raise DomainError("c must be finite")
    sides = [(_residue_table(tuple(num), tuple(den)), z)
             for (num, den, _), z in zip((one, two), require_positive(
                 "z", one[2], two[2]))]

    def terms_at(ns):
        (i1, u1, r1, lam1, sig1), (i2, u2, r2, lam2, sig2) = [
            _float_terms(table, z, n) for (table, z), n in zip(sides, ns)]
        s = float(c) - np.add.outer(u1, u2)
        if not np.all(s > 0.0):
            raise DomainError("the t-integral diverges at t = 0: c - u0 - "
                              "u0' <= 0 at a pole pair")
        r = np.add.outer(r1, r2)
        log_term = np.add.outer(lam1, lam2) - (r + 1) * np.log(s) + np.array(
            [math.lgamma(j + 1) for j in range(r.max(initial=0) + 1)])[r]
        peak = log_term.max(initial=-math.inf)
        mass = np.exp(log_term - peak)
        return (float(np.sum(np.outer(sig1, sig2) * mass)), peak,
                [(i1, mass.sum(axis=1)), (i2, mass.sum(axis=0))], [lam1, lam2])

    return _float_pass("integral", [table for table, _ in sides], terms_at,
                       lambda ns, _: _integral_at(Fraction(c), sides, ns))


def _float_pass(what: str, tables: list, terms_at, exact_at) -> float:
    """The float pass and verdict of both residue sums, the residue `what`
    ("series" or "integral") over the first ns entries of each table.

    terms_at(ns) gives the float total on the unit of its largest term
    e^peak, peak, per table (entry ids, masses) of its terms, and per table
    their logs.  Each window starts at 32 entries, or `length`, and grows
    (`grow`) until every table's float stop rule holds (`summed`).  The
    value is 0.0 where no term is nonzero, the float total where every
    table accepts the digits lost (`accepted`), else exact_at(ends, peak)
    summed by numerics.mp_sum from _resum_dps's digits.  checked_exp
    refuses a value past double range.
    """
    ns = [min(32, table.length) for table in tables]
    while True:
        total, peak, terms, logs = terms_at(ns)
        ends = [table.summed(n, i, mass, total)
                for table, n, (i, mass) in zip(tables, ns, terms)]
        if all(ends):
            break
        ns = [n if end else table.grow(n, what)
              for table, n, end in zip(tables, ns, ends)]
    if peak == -math.inf:  # no nonzero term
        return 0.0
    name = "the t-integral" if what == "integral" else "the residue series"
    # digits lost; a sum that cancels to exactly zero lost all 16
    lost = -math.log10(abs(total)) if total else 16.0
    if all(table.accepted(lost, end - 1) for table, end in zip(tables, ends)):
        return math.copysign(checked_exp(name, peak + math.log(abs(total))),
                             total)
    return checked_exp(name, mp_sum(partial(exact_at, ends, peak), _resum_dps(
        lost, peak, logs, sum(map(_ResidueTable.split_digits, tables, ends)))),
        power=float)


def _resum_dps(lost: float, peak: float, logs: list, split: float) -> int:
    """numerics.mp_sum's first digits for an exact re-sum: _SPARE_DIGITS
    past the float loss `lost` and the `split` digits split poles cancel
    (split_digits), on the _DPS_STEP grid.  A loss within a digit of the
    float terms' rounding marks a noise total: one of order one then keeps
    digits beside e^peak (at most 1e308).  The rounding is 1e-16 of the
    terms' logs (`logs`, an array per side) times the root of their count."""
    noise = math.log10(sum((np.abs(lam).max() for lam in logs), 1.0)
                       * math.sqrt(math.prod(map(len, logs))))
    if lost > 15.0 - noise:
        lost = max(lost, min(peak / math.log(10.0), 308.0))
    return _DPS_STEP * math.ceil((lost + split + _SPARE_DIGITS) / _DPS_STEP)


def _float_terms(table, z: float, n: int) -> tuple:
    """(i, u0, r, lam, sig) of the first n entries at z: over each nonzero
    D_r, in entry order, its entry i, pole u0, r, log |D_r| and sign
    (_ResidueTable.arrays; P's Taylor coefficients by _taylor)."""
    rows = table.arrays(n)
    u0, sign, log_c = rows[:3]
    taylor = np.array(_taylor(list(rows[4:]), lambda d: d * -math.log(z)))
    sig = (sign * np.sign(taylor)).T.ravel()
    keep = np.flatnonzero(sig)
    i, r = np.divmod(keep, len(taylor))
    with np.errstate(divide="ignore"):
        lam = (log_c - u0 * math.log(z) + np.log(np.abs(taylor))).T.ravel()
    return i, u0[i], r, lam[keep], sig[keep]


def _taylor(coef: list, times_y) -> list:
    """P^(r)(y)/r!, r = 0, 1, ..., of the polynomial of coefficients coef,
    highest power first, by repeated synthetic division; times_y(d) is d y
    (in fixed point on integers)."""
    out = []
    while coef:
        d, quot = coef[0], []
        for q in coef[1:]:
            quot.append(d)
            d = times_y(d) + q
        out.append(d)
        coef = quot
    return out


def _integral_at(c: Fraction, sides: list, ns: list) -> tuple:
    """(total, log of a bound on its largest term) of residue_integral's
    double sum at the working precision p, for numerics.mp_sum: the first
    ns[k] entries of side k (_ResidueTable._terms), or more.

    Each side's D_r are cut to one unit per side, _GUARD_BITS past p bits
    under its largest term over the spread of s, and summed family pair by
    family pair (_family_sum).  As in _sum_at, a side grows until bounds
    on its pairs settle it (_ResidueTable.settled), and the sum restarts.
    """
    bits = mpmath.mp.prec + _GUARD_BITS
    more = [table._terms(z) for table, z in sides]
    parts = [more[k](ns[k]) for k in (0, 1)]
    while True:
        # -u0 = (p + k q)/v of each part, (p, v, q) its family's form
        neg_u = [np.array([(p + k * q) / v for _, j, k, *_ in side
                           for p, v, q in [table.forms[0][j]]])
                 for side, (table, _) in zip(parts, sides)]
        s = float(c) + np.add.outer(*neg_u)
        spread = math.ceil(math.log2(s.max() / s.min()))
        units = [max(max(map(abs, ds)).bit_length() + exp
                     for *_, ds, exp in side) - bits - spread
                 for side in parts]
        families, sizes = ({}, {}), []
        for k, side in enumerate(parts):
            # per r, the bits of each part's D_r on the side's unit
            sizes.append([np.array([(r < len(ds) and abs(ds[r]).bit_length()
                                     or -math.inf) + exp - units[k]
                                    for *_, ds, exp in side])
                          for r in range(max(len(t[3]) for t in side))])
            for i, j, kk, ds, exp in side:
                families[k].setdefault(j, {})[kk] = [
                    d << exp - units[k] if exp >= units[k] else
                    d >> units[k] - exp for d in ds]
        # log2 of a bound on each pair: its largest (r + r')! D_r D'_{r'} /
        # s^{r+r'+1}, times the number of (r, r')
        bound = np.max([np.add.outer(a, b) + math.lgamma(r1 + r2 + 1) / _LN2
                        - (r1 + r2 + 1) * np.log2(s)
                        for r1, a in enumerate(sizes[0])
                        for r2, b in enumerate(sizes[1])], axis=0) + math.log2(
            len(sizes[0]) * len(sizes[1]))
        acc = sum(_family_sum(c, sides[0][0].forms[0][j1],
                              sides[1][0].forms[0][j2], a, b, bits + spread)
                  for j1, a in families[0].items()
                  for j2, b in families[1].items())
        grow = False
        for k, (table, _) in enumerate(sides):
            if not table.settled(ns[k], acc, zip(
                    bound.max(axis=1 - k), [i for i, *_ in parts[k]])):
                ns[k] = table.grow(ns[k], "integral")
                parts[k] += more[k](ns[k])
                grow = True
        if not grow:
            return (mpmath.mp.make_mpf(from_man_exp(
                acc, sum(units), mpmath.mp.prec, round_nearest)),
                (bound.max() + sum(units)) * _LN2)


def _family_sum(c: Fraction, fa: tuple, fb: tuple, a: dict, b: dict,
                fix: int) -> int:
    """sum over the poles u = -(p + k q)/v, (p, v, q) = fa and fb, of one
    left family per side, of sum_{r,r'} (r + r')! a[k][r] b[k'][r'] /
    s^{r+r'+1}, s = c - u - u' = P/Q exact, floored: one Kronecker product
    per (r, r') (numerics._hankel_form) where the slopes agree, so that s
    depends on k + k' only, else pair by pair, over m!/s^{m+1} on the unit
    2^-fix."""
    (pa, va, qa), (pb, vb, qb) = fa, fb
    cn, cd = c.numerator, c.denominator
    q, p0 = cd * va * vb, cn * va * vb + cd * (pa * vb + pb * va)

    def frac(m: int, p: int) -> int:
        if p <= 0:
            raise DomainError("the t-integral diverges at t = 0: c - u0 - "
                              "u0' <= 0 at a pole pair")
        return (math.factorial(m) * q ** (m + 1) << fix) // p ** (m + 1)

    if qa * vb != qb * va:
        return sum(frac(r1 + r2, p0 + cd * (ka * qa * vb + kb * qb * va))
                   * x * w for ka, xs in a.items() for kb, ws in b.items()
                   for r1, x in enumerate(xs)
                   for r2, w in enumerate(ws)) >> fix
    n = max([*a, *b]) + 1
    cols = [[[d[k][r] if len(d.get(k, ())) > r else 0 for k in range(n)]
             for r in range(max(map(len, d.values())))] for d in (a, b)]
    return sum(_hankel_form(x, w, [frac(r1 + r2, p0 + cd * qa * vb * m)
                                   for m in range(2 * n - 1)])
               for r1, x in enumerate(cols[0])
               for r2, w in enumerate(cols[1])) >> fix


def _gammas_at(num, den, sing_num, sing_den, u0):
    """(factor, 1 or -1 (numerator or denominator), k, w) for each gamma of
    the integrand at the pole u0: first those singular there, at their
    k-th pole (w None), then the regular ones, k None and w their float
    argument."""
    for factors, sing, dirn in ((num, sing_num, 1), (den, sing_den, -1)):
        for j, k in sing:
            yield factors[j], dirn, k, None
        skip = {j for j, _ in sing}
        for j, f in enumerate(factors):
            if j not in skip:
                yield f, dirn, None, f.near + f.slope * u0


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
    Order 2 gives poly = (d_1,), the sum of slope * digamma over them: the
    recurrence's other steps multiply and divide by the integer 1.
    """
    d = [0] * order  # k! d_k
    for f, dirn, k0, w0 in gammas:
        for k in range(1, order):
            t = (_pole_log_taylor(k, k0, mpmath.mp.prec) if w0 is None
                 else mpmath.digamma(w0) if k == 1 else mpmath.psi(k - 1, w0))
            d[k] += dirn * f.slope ** k * t
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


def _exact_coefficient(table, i: int, bits: int) -> list:
    """One part (j, k, m, e, poly) per exact location of entry i's
    numerator poles, none where denominators cancel them all: num[j] is the
    first numerator singular there, at its k-th pole u, and the part's
    residue is C z^{-u} times the monic polynomial of _Pole in -log z, C =
    m 2^e at the working precision, poly (None at a simple pole) in units
    of 2^-bits.

    Poles the float table merged may lie apart at the exact shifts and
    float slopes, by up to _MERGE_RTOL (for a = 0.7, theta = 1.3 the poles
    of Gamma(u) and Gamma(theta*u - a) at u = -11 are 3.4e-16 apart), each
    location a part on its own family's chain.  Their residues cancel by
    about 1/gap, which the re-sum's first digits count (`split_digits`)
    and its sum measures from their sizes (_ResidueTable._sum_at).  Each
    part holds the other merged gammas within the gap of a pole, but at an
    exact argument reduced off it (_ResidueTable.gamma_ratio), so every
    part is built at the working precision.
    """
    parts = []
    for sing_num, sing_den in table.spots(i).values():
        order = len(sing_num) - len(sing_den)
        c, gammas = _exact_leading(table, sing_num, sing_den)
        poly = None
        if order > 1:
            poly = tuple(to_fixed(q._mpf_, bits) for q in _log_poly(
                [(f, dirn, k, w if w is None else _mpf_ratio(*w))
                 for f, dirn, k, w in gammas], order))
            c = mpf_div(c, from_int(math.factorial(order - 1)),
                        mpmath.mp.prec)
        parts.append((*sing_num[0], *_mantissa(c), poly))
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


def hankel_loop(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                z: float) -> float:
    """residue_series under the name perfbench/tracer.py binds (the tests'
    contour quadrature is tests/references.py's hankel_loop); a function of
    its own, so that the tracer does not count residue_series twice."""
    return residue_series(num, den, z)


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
    term: its residue table's first entry, exact, where a denominator pole
    the float entry merged (alpha + 1 or a + 1 < 1e-10) lies apart.
    """
    a, alpha, theta = require_real("a, alpha and theta", a, alpha, theta)
    require_positive("a + 1, alpha + 1 and theta", a + 1.0, alpha + 1.0,
                     theta)
    if n is not None:
        require_integer("n", n, least=1)
    num, den = _g_factors(a, alpha, theta, n, tilde)
    if not tilde and require_real_array("z", z).ndim == 0 and z == 0.0:
        table = _residue_table(num, den)
        with mpmath.workdps(2 * _DPS_STEP):  # an exact sum's fewest digits
            table._ensure(1)
        _, _, man, exp, _ = table.runs[0][0]  # Gamma(u)'s part at u = 0
        return checked_exp("G's constant term", mpmath.mpf((man, exp)),
                           power=float)
    return residue_series(num, den, z)


def g_n(a: float, alpha: float, theta: float, n: int, z):
    """Finite-N kernel polynomial G_{n,a}(z), a residue series (_g_factors).

    Gamma(n+u) cancels the poles of Gamma(u) from u = -n on, so the series
    is a polynomial of degree n - 1; z is a float or an ndarray of
    positive values, summed z by z (a float z = 0 gives the constant term).
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
    rescaled G_{N,a}; z is a float or an ndarray of positive values,
    summed z by z (a float z = 0 gives the first term).
    """
    return _g(a, alpha, theta, None, False, z)


def g_tilde_inf(a: float, alpha: float, theta: float, z):
    """Hard-edge companion with Gamma(theta*u - a).

    Residue series over the families {-k} and {(a-m)/theta}, with
    logarithmic residues where they coincide.
    """
    return _g(a, alpha, theta, None, True, z)
