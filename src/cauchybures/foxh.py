"""Fox H-functions via residue series and numerical Mellin-Barnes contours.

Evaluates general Fox H specifications plus the four kernel building
blocks: the finite-N polynomials G_N, their companions G~_N carrying a
Gamma(theta*u - a) factor, and the hard-edge limits G_inf, G~_inf.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import mpmath
import numpy as np
from scipy.special import digamma as _digamma
from scipy.special import loggamma as _cloggamma

from .exceptions import (DomainError, NonConverged, PoleCollisionError,
                         PoleError)
# log_gamma_complex stays bound here for perfbench/tracer.py
from .numerics import (_POLE_TOL, LogValue, lgamma_signed,  # noqa: F401
                       log_gamma_complex, refine_quadrature)

__all__ = [
    "GammaFactor",
    "FoxHSpec",
    "fox_h",
    "g_n",
    "g_n_coeffs",
    "g_tilde_n",
    "g_inf",
    "g_tilde_inf",
    "mellin_barnes",
]

_LN_EPS = math.log(1e-16)
_trapz = getattr(np, "trapezoid", None) or np.trapz
_COLLISION_TOL = 1e-8
_STRATEGY_SEP = 1e-6
_STRATEGIES = ("auto", "residue", "hankel")
# mpmath re-sums run at a multiple of this many digits, so one cached
# coefficient list serves a range of cancellation depths
_DPS_STEP = 16


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

    def singular_index(self, u0: float, tol: float) -> Optional[int]:
        """Index k if this factor has its k-th pole within tol of u0."""
        w = self.shift + self.slope * u0
        k = round(w)
        if k <= 0 and abs(w - k) < tol * abs(self.slope):
            return -k
        return None


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
    acc = -u * log_z
    for f in num:
        w = f.shift + f.slope * u
        hit = _on_pole(w)
        if hit.any():
            raise PoleError(f"log-gamma pole at z = {w[hit][0]}")
        acc += _cloggamma(w)
    zero = np.zeros(len(u), dtype=bool)
    for f in den:
        w = f.shift + f.slope * u
        zero |= _on_pole(w)
        acc -= _cloggamma(w)
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
    by a denominator gamma (a zero term); sing_num and sing_den hold the
    (index, k) of every gamma factor singular at u0.
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

    def __init__(self, num: tuple, den: tuple, tol: float):
        self.num, self.den, self.tol = num, den, tol
        self.heap = [(-f.pole(0), i, 0) for i, f in enumerate(num)
                     if f.slope > 0]
        if not self.heap:
            raise DomainError("integrand has no left pole family")
        heapq.heapify(self.heap)
        self.entries: list[_Pole] = []
        self.exact: dict[int, list] = {}

    def entry(self, n: int) -> _Pole:
        while len(self.entries) <= n:
            self._extend()
        return self.entries[n]

    def _extend(self) -> None:
        num, den, tol = self.num, self.den, self.tol
        while True:
            neg_u, i, k = heapq.heappop(self.heap)
            heapq.heappush(self.heap, (-num[i].pole(k + 1), i, k + 1))
            u0 = -neg_u
            sing_num = _singular(num, u0, tol)
            if sing_num[0][0] == i:
                break
            # same point reached from another family; counted once only
        sing_den = _singular(den, u0, tol)
        order = max(len(sing_num) - len(sing_den), 0)
        sign, log_c, bracket = 0, -math.inf, 0.0
        if order in (1, 2):
            sign, log_c = _leading_coefficient(num, den, u0, sing_num,
                                               sing_den)
        if order == 2:
            bracket = float(_log_bracket(num, den, u0, sing_num, sing_den,
                                         _digamma))
        self.entries.append(_Pole(u0, order, sign, log_c, bracket, sing_num,
                                  sing_den))

    def exact_sum(self, z: float, terms: int, lost_digits: float) -> float:
        """First `terms` residues summed at cancellation-proof precision."""
        dps = _DPS_STEP * math.ceil((25 + 1.2 * lost_digits) / _DPS_STEP)
        coeffs = self.exact.setdefault(dps, [])
        with mpmath.workdps(dps):
            while len(coeffs) < terms:
                coeffs.append(_exact_coefficient(self.num, self.den,
                                                 self.entry(len(coeffs))))
            mz = mpmath.mpf(z)
            log_mz = mpmath.log(mz)
            total = mpmath.mpf(0)
            for coeff in coeffs[:terms]:
                if coeff is None:
                    continue
                u0, c, bracket = coeff
                term = c * mz ** (-u0)
                if bracket is not None:
                    term *= bracket - log_mz
                total += term
            return float(total)


@lru_cache(maxsize=128)
def _residue_table(num: tuple, den: tuple, tol: float) -> _ResidueTable:
    return _ResidueTable(num, den, tol)


def _singular(factors, u0, tol) -> tuple:
    """(index, k) of every factor with its k-th pole within tol of u0."""
    out = []
    for j, f in enumerate(factors):
        k = f.singular_index(u0, tol)
        if k is not None:
            out.append((j, k))
    return tuple(out)


def residue_series(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                   z: float, collision_tol: float = _COLLISION_TOL,
                   max_terms: int = 2000) -> float:
    """Sum of residues over the left pole families (slope > 0 numerators).

    Poles closer than collision_tol are one pole.  Poles cancelled by a
    denominator gamma are skipped.  A double pole (two singular numerator
    gammas, none cancelled) contributes its logarithmic residue, the
    H-function's logarithmic case; only a pole of order 3 or more raises
    PoleCollisionError.  When alternating cancellation loses more than two
    digits, the same terms are re-summed with mpmath.  Pole locations and
    the z-independent residue coefficients are cached per integrand, so a
    call costs one pass over the terms it needs.
    """
    if z <= 0:
        raise DomainError("z must be positive")
    log_z = math.log(z)
    table = _residue_table(tuple(num), tuple(den), collision_tol)

    shift = -math.inf
    acc = 0.0
    peak = -math.inf
    small_run = 0
    for n in range(max_terms):
        u0, order, term_sign, term_log, bracket = table.entry(n)[:5]
        if order > 2:
            raise PoleCollisionError(
                f"pole of order {order} near u = {u0:.6g} "
                f"(separation < {collision_tol})")
        term_log -= u0 * log_z
        if order == 2:
            factor = bracket - log_z
            term_sign *= (factor > 0) - (factor < 0)
            term_log += math.log(abs(factor)) if factor else -math.inf

        if term_sign != 0:
            peak = max(peak, term_log)
            if term_log > shift + 30.0:
                if shift > -math.inf:
                    acc *= math.exp(shift - term_log)
                shift = term_log
            acc += term_sign * math.exp(term_log - shift)

        partial_log = (shift + math.log(abs(acc))) if acc != 0.0 else peak
        if term_log < partial_log + _LN_EPS:
            small_run += 1
            if small_run >= 3:
                total_log = ((shift + math.log(abs(acc)))
                             if acc != 0.0 else -math.inf)
                lost = (peak - total_log) / math.log(10.0)
                if lost > 2.0:
                    # alternating cancellation ate too many digits; redo
                    # the same sum in elevated precision
                    return table.exact_sum(z, n + 1, lost)
                return acc * math.exp(shift) if acc != 0.0 else 0.0
        else:
            small_run = 0
    raise NonConverged(f"residue series not converged after {max_terms} "
                       "terms")


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
    """(u0, C, bracket or None) of one table entry in mpmath precision."""
    order, sing_num, sing_den = pole.order, pole.sing_num, pole.sing_den
    if order == 0:
        return None
    # recompute the pole location in working precision: the float u0
    # carries rounding that the large cancelling terms amplify
    j0, k0 = sing_num[0]
    u0 = (mpmath.mpf(-num[j0].shift) - k0) / mpmath.mpf(num[j0].slope)
    c = mpmath.mpf(1)
    for factors, sing, dirn in ((num, sing_num, 1), (den, sing_den, -1)):
        for j, k in sing:
            c *= ((-1) ** k * mpmath.factorial(k)
                  * mpmath.mpf(factors[j].slope)) ** -dirn
        gamma = mpmath.gamma if dirn > 0 else mpmath.rgamma
        skip = {j for j, _ in sing}
        for j, f in enumerate(factors):
            if j not in skip:
                c *= gamma(mpmath.mpf(f.shift) + mpmath.mpf(f.slope) * u0)
    if order == 1:
        return u0, c, None
    return u0, c, _log_bracket(num, den, u0, sing_num, sing_den,
                               mpmath.digamma)


def min_family_separation(num: Sequence[GammaFactor],
                          den: Sequence[GammaFactor],
                          max_k: int = 300) -> float:
    """Smallest u-plane distance between uncancelled left pole pairs.

    Pairs closer than _COLLISION_TOL are one double pole of the residue
    series, not a near-collision, and are left out.
    """
    return _min_family_separation_cached(tuple(num), tuple(den), max_k)


@lru_cache(maxsize=4096)
def _min_family_separation_cached(num: tuple, den: tuple,
                                  max_k: int) -> float:
    left = [f for f in num if f.slope > 0]
    best = math.inf
    for i, f in enumerate(left):
        for g in left[i + 1:]:
            for k in range(max_k):
                u0 = f.pole(k)
                if any(d.singular_index(u0, _COLLISION_TOL) is not None
                       for d in den):
                    continue
                m = round(-(g.shift + g.slope * u0))
                if m < 0:
                    continue
                gap = abs(u0 - g.pole(m))
                if gap >= _COLLISION_TOL:
                    best = min(best, gap)
    return best


# ---------------------------------------------------------------------------
# contour quadrature
# ---------------------------------------------------------------------------

def _contour_bounds(num: Sequence[GammaFactor]) -> tuple[float, float]:
    """(rightmost left-family pole, leftmost right-family pole)."""
    left_max = -math.inf
    right_min = math.inf
    for f in num:
        if f.slope > 0:
            left_max = max(left_max, f.pole(0))
        else:
            right_min = min(right_min, f.pole(0))
    return left_max, right_min


def hankel_loop(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                z: float, node_count: int = 64, rtol: float = 1e-11) -> float:
    """Parabolic loop around the negative real u-axis.

    The contour u(t) = v0*(1 - t^2) + i*c*t opens leftward with vertex v0
    to the right of every enclosed pole; the integrand decays
    super-exponentially along it, so the trapezoid rule with node doubling
    converges geometrically.
    """
    if z <= 0:
        raise DomainError("z must be positive")
    log_z = math.log(z)
    left_max, right_min = _contour_bounds(num)
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
        probe = np.linspace(0.0, t_max, 48)
        lg = log_g(probe)
        re = lg.real
        peak = re.max()
        if re[-1] < peak - 45.0:
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

    return refine_quadrature(value_at, start_order=node_count, rtol=rtol,
                             max_order=65536)


def mellin_barnes(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                  z: float, strategy: str = "auto") -> tuple[float, str]:
    """Evaluate a gamma-ratio Mellin-Barnes integral; (value, route name).

    strategy "residue" or "hankel" forces that route.  "auto" sums the
    residue series, which takes coinciding poles (closer than
    _COLLISION_TOL) as one double pole.  It integrates the Hankel loop
    only for pole pairs between _COLLISION_TOL and _STRATEGY_SEP apart,
    where neither reading of the series is accurate, and for poles of
    order 3 or more.  This is the one place where the route is chosen.
    """
    if strategy not in _STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}; choose from "
                          f"{'|'.join(_STRATEGIES)}")
    if strategy == "residue":
        return residue_series(num, den, z), "residue"
    if (strategy == "auto"
            and min_family_separation(num, den) >= _STRATEGY_SEP):
        try:
            return residue_series(num, den, z), "residue"
        except PoleCollisionError:
            pass
    return hankel_loop(num, den, z), "hankel"


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

def _check_exponents(a: float, alpha: float, theta: float) -> None:
    if a <= -1.0:
        raise DomainError(f"weight exponent must exceed -1, got {a}")
    if alpha <= -1.0:
        raise DomainError(f"alpha must exceed -1, got {alpha}")
    if theta <= 0.0:
        raise DomainError(f"theta must be positive, got {theta}")


def g_n_coeffs(a: float, alpha: float, theta: float, n: int) -> list[LogValue]:
    """Monomial coefficients of the degree-(n-1) polynomial G_{n,a}.

    Coefficient of z^k is the residue at u = -k of the defining contour
    integral:  (-1)^k/k! * Gamma(alpha+n+1+k) /
    (Gamma(n-k) Gamma(alpha+1+k) Gamma(a+theta*k+1)).
    """
    _check_exponents(a, alpha, theta)
    if n < 1:
        raise DomainError("n must be >= 1")
    out = []
    for k in range(n):
        log = (math.lgamma(alpha + n + 1 + k) - math.lgamma(k + 1)
               - math.lgamma(n - k) - math.lgamma(alpha + 1 + k)
               - math.lgamma(a + theta * k + 1))
        out.append(LogValue(1 if k % 2 == 0 else -1, log))
    return out


def g_n(a: float, alpha: float, theta: float, n: int, z: float,
        strategy: str = "auto") -> float:
    """Finite-N kernel polynomial G_{n,a}(z) by its residue sum.

    The residue sum is the polynomial itself; strategy="hankel" integrates
    the loop contour instead (verification route).
    """
    if z < 0:
        raise DomainError("z must be non-negative")
    if strategy not in ("auto", "residue"):
        _check_exponents(a, alpha, theta)
        return mellin_barnes(*_gn_factors(a, alpha, theta, n), z,
                             strategy)[0]
    coeffs = g_n_coeffs(a, alpha, theta, n)
    if z == 0.0:
        return coeffs[0].to_real()
    log_z = math.log(z)
    terms = [LogValue(c.sign, c.log_mag + k * log_z)
             for k, c in enumerate(coeffs)]
    return LogValue.sum(terms).to_real()


def _gn_factors(a, alpha, theta, n):
    num = [GammaFactor(0.0, 1.0), GammaFactor(alpha + n + 1.0, -1.0)]
    den = [GammaFactor(float(n), 1.0), GammaFactor(alpha + 1.0, -1.0),
           GammaFactor(a + 1.0, -theta)]
    return num, den


def _gtn_factors(a, alpha, theta, n):
    num = [GammaFactor(0.0, 1.0), GammaFactor(alpha + n + 1.0, -1.0),
           GammaFactor(-a, theta)]
    den = [GammaFactor(float(n), 1.0), GammaFactor(alpha + 1.0, -1.0)]
    return num, den


def _ginf_factors(a, alpha, theta):
    num = [GammaFactor(0.0, 1.0)]
    den = [GammaFactor(alpha + 1.0, -1.0), GammaFactor(a + 1.0, -theta)]
    return num, den


def _gtinf_factors(a, alpha, theta):
    num = [GammaFactor(0.0, 1.0), GammaFactor(-a, theta)]
    den = [GammaFactor(alpha + 1.0, -1.0)]
    return num, den


def g_tilde_n(a: float, alpha: float, theta: float, n: int, z: float,
              strategy: str = "auto") -> float:
    """Companion function G~_{n,a}(z) with the Gamma(theta*u - a) factor.

    Residue series over the pole families {-k} and {(a-m)/theta}; where
    they coincide (rational theta, e.g. a=0.5, theta=1.5) the shared
    poles are double and carry logarithmic residues.  strategy="hankel"
    integrates the loop contour instead (verification route; see
    mellin_barnes).
    """
    _check_exponents(a, alpha, theta)
    if z <= 0:
        raise DomainError("z must be positive")
    return mellin_barnes(*_gtn_factors(a, alpha, theta, n), z, strategy)[0]


def g_inf(a: float, alpha: float, theta: float, z: float,
          strategy: str = "auto") -> float:
    """Hard-edge limit function: sum_k (-z)^k / (k! G(alpha+1+k) G(a+theta*k+1)).

    This is the residue series of the limiting contour integral, and the
    actual N -> infinity limit of the rescaled G_{N,a}.  Falls back to
    high-precision summation when alternating cancellation eats more than
    ~13 digits.  strategy="hankel" integrates the loop contour instead
    (verification route).
    """
    _check_exponents(a, alpha, theta)
    if z < 0:
        raise DomainError("z must be non-negative")
    if strategy not in ("auto", "residue"):
        return mellin_barnes(*_ginf_factors(a, alpha, theta), z, strategy)[0]
    if z == 0.0:
        return math.exp(-math.lgamma(alpha + 1.0) - math.lgamma(a + 1.0))
    log_z = math.log(z)
    total = 0.0
    peak = 0.0
    k = 0
    term_log = None
    while k < 10_000:
        term_log = (k * log_z - math.lgamma(k + 1)
                    - math.lgamma(alpha + 1 + k)
                    - math.lgamma(a + theta * k + 1))
        term = math.exp(term_log) * (1 if k % 2 == 0 else -1)
        total += term
        peak = max(peak, abs(term))
        if abs(term) < 1e-17 * (abs(total) + peak * 1e-16) and k > 3:
            break
        k += 1
    if total != 0.0 and peak / abs(total) < 1e13:
        return total
    return _g_inf_mp(a, alpha, theta, z, peak)


def _g_inf_mp(a, alpha, theta, z, peak):
    import mpmath as mp
    extra = int(math.log10(max(peak, 1.0))) + 25
    with mp.workdps(extra):
        total = mp.mpf(0)
        term_scale = mp.mpf(1)
        k = 0
        while k < 20_000:
            term = ((-mp.mpf(z)) ** k / mp.factorial(k)
                    / mp.gamma(alpha + 1 + k) / mp.gamma(a + theta * k + 1))
            total += term
            if abs(term) < mp.mpf(10) ** (-extra) * max(abs(total), term_scale):
                break
            term_scale = max(term_scale, abs(term))
            k += 1
        return float(total)


def g_tilde_inf(a: float, alpha: float, theta: float, z: float,
                strategy: str = "auto") -> float:
    """Hard-edge companion with Gamma(theta*u - a).

    Residue series over the families {-k} and {(a-m)/theta}, with
    logarithmic residues where they coincide; strategy="hankel"
    integrates the loop contour instead (see mellin_barnes).
    """
    _check_exponents(a, alpha, theta)
    if z <= 0:
        raise DomainError("z must be positive")
    return mellin_barnes(*_gtinf_factors(a, alpha, theta), z, strategy)[0]
