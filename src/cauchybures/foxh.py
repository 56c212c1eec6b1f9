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
from typing import Optional, Sequence

import mpmath
import numpy as np

from .exceptions import (DomainError, NonConverged, PoleCollisionError,
                         PoleError)
from .numerics import (LogValue, lgamma_signed, log_gamma_complex,
                       refine_quadrature)

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
                   u: complex, log_z: float) -> complex:
    acc = -u * log_z
    for f in num:
        acc += log_gamma_complex(f.shift + f.slope * u)
    for f in den:
        try:
            acc -= log_gamma_complex(f.shift + f.slope * u)
        except PoleError:
            # a denominator gamma pole is a zero of the integrand
            return complex(-math.inf, 0.0)
    return acc


# ---------------------------------------------------------------------------
# residue series
# ---------------------------------------------------------------------------

def residue_series(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                   z: float, collision_tol: float = _COLLISION_TOL,
                   max_terms: int = 2000) -> float:
    """Sum of residues over the left pole families (slope > 0 numerators).

    Cancelled poles (matching denominator gamma) are skipped; a genuine
    double pole raises PoleCollisionError.
    """
    if z <= 0:
        raise DomainError("z must be positive")
    log_z = math.log(z)
    left = [i for i, f in enumerate(num) if f.slope > 0]
    if not left:
        raise DomainError("integrand has no left pole family")

    heap: list[tuple[float, int, int]] = []
    for i in left:
        heapq.heappush(heap, (-num[i].pole(0), i, 0))

    shift = -math.inf
    acc = 0.0
    peak = -math.inf
    small_run = 0
    terms = 0
    records = []
    while heap and terms < max_terms:
        neg_u, i, k = heapq.heappop(heap)
        heapq.heappush(heap, (-num[i].pole(k + 1), i, k + 1))
        u0 = -neg_u
        terms += 1

        sing_num = [(j, num[j].singular_index(u0, collision_tol))
                    for j in range(len(num))]
        sing_num = [(j, kj) for j, kj in sing_num if kj is not None]
        sing_den = [(j, den[j].singular_index(u0, collision_tol))
                    for j in range(len(den))]
        sing_den = [(j, kj) for j, kj in sing_den if kj is not None]

        if len(sing_num) - len(sing_den) >= 2:
            raise PoleCollisionError(
                f"double pole near u = {u0:.6g} (separation < {collision_tol})")
        if len(sing_num) <= len(sing_den):
            # pole cancelled by the denominator: regular point
            term_sign, term_log = 0, -math.inf
        elif sing_num[0][0] != i:
            # same point reached from another family; counted once only
            continue
        else:
            term_sign, term_log = _simple_residue(
                num, den, u0, sing_num, sing_den, log_z)
            records.append((u0, tuple(sing_num), tuple(sing_den)))

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
                    return _resum_mp(num, den, records, z, lost)
                return acc * math.exp(shift) if acc != 0.0 else 0.0
        else:
            small_run = 0
    raise NonConverged(f"residue series not converged after {terms} terms")


def _resum_mp(num, den, records, z, lost_digits):
    """Re-sum recorded residues with mpmath at cancellation-proof precision."""
    with mpmath.workdps(int(25 + 1.2 * lost_digits)):
        mz = mpmath.mpf(z)
        total = mpmath.mpf(0)
        for u0, sing_num, sing_den in records:
            sing_num_ids = {j for j, _ in sing_num}
            sing_den_ids = {j for j, _ in sing_den}
            # recompute the pole location in working precision: the float
            # u0 carries rounding that the large cancelling terms amplify
            j0, k0 = sing_num[0]
            u0 = ((mpmath.mpf(-num[j0].shift) - k0)
                  / mpmath.mpf(num[j0].slope))
            term = mz ** (-u0)
            for j, k in sing_num:
                term *= mpmath.mpf(-1) ** k / (mpmath.factorial(k)
                                               * abs(num[j].slope))
                if num[j].slope < 0:
                    term = -term
            for j, k in sing_den:
                term *= mpmath.mpf(-1) ** k * (mpmath.factorial(k)
                                               * abs(den[j].slope))
                if den[j].slope < 0:
                    term = -term
            for j, f in enumerate(num):
                if j not in sing_num_ids:
                    term *= mpmath.gamma(mpmath.mpf(f.shift)
                                         + mpmath.mpf(f.slope) * u0)
            for j, f in enumerate(den):
                if j not in sing_den_ids:
                    term /= mpmath.gamma(mpmath.mpf(f.shift)
                                         + mpmath.mpf(f.slope) * u0)
            total += term
        return float(total)


def _simple_residue(num, den, u0, sing_num, sing_den, log_z):
    """Signed log of the residue at a simple pole u0.

    Each singular numerator gamma contributes its Laurent leading
    coefficient (-1)^k / (k! * slope); singular denominator gammas divide
    out the same way.
    """
    sign = 1
    log_mag = -u0 * log_z
    sing_num_ids = {j for j, _ in sing_num}
    sing_den_ids = {j for j, _ in sing_den}
    for j, k in sing_num:
        log_mag -= math.lgamma(k + 1) + math.log(abs(num[j].slope))
        if k % 2 == 1:
            sign = -sign
        if num[j].slope < 0:
            sign = -sign
    for j, k in sing_den:
        log_mag += math.lgamma(k + 1) + math.log(abs(den[j].slope))
        if k % 2 == 1:
            sign = -sign
        if den[j].slope < 0:
            sign = -sign
    for j, f in enumerate(num):
        if j in sing_num_ids:
            continue
        s, lm = lgamma_signed(f.shift + f.slope * u0)
        sign *= s
        log_mag += lm
    for j, f in enumerate(den):
        if j in sing_den_ids:
            continue
        s, lm = lgamma_signed(f.shift + f.slope * u0)
        sign *= s
        log_mag -= lm
    return sign, log_mag


def min_family_separation(num: Sequence[GammaFactor],
                          den: Sequence[GammaFactor],
                          max_k: int = 300) -> float:
    """Smallest u-plane distance between uncancelled left pole pairs."""
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
                if any(d.singular_index(u0, 1e-12) is not None for d in den):
                    continue
                m = round(-(g.shift + g.slope * u0))
                if m < 0:
                    continue
                best = min(best, abs(u0 - g.pole(m)))
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
        out = np.empty(len(t), dtype=complex)
        for idx, uu in enumerate(u):
            out[idx] = _log_integrand(num, den, uu, log_z) + np.log(du[idx])
        return out

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

    def value_at(order: int) -> float:
        t = np.linspace(0.0, t_max, order + 1)
        lg = log_g(t)
        m = lg.real.max()
        vals = np.exp(lg - m).imag
        return float(math.exp(m) / math.pi * _trapz(vals, t))

    return refine_quadrature(value_at, start_order=node_count, rtol=rtol,
                             max_order=65536)


def mellin_barnes(num: Sequence[GammaFactor], den: Sequence[GammaFactor],
                  z: float, strategy: str = "auto") -> tuple[float, str]:
    """Evaluate a gamma-ratio Mellin-Barnes integral; (value, route name).

    strategy "residue" or "hankel" forces that route.  "auto" sums the
    residue series while the left pole families stay _STRATEGY_SEP apart
    and integrates the Hankel loop otherwise, or when the series meets a
    double pole.  This is the one place where the route is chosen.
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

    Double residue series when the pole families {-k} and {(a-m)/theta}
    are separated; Hankel-loop quadrature otherwise (see mellin_barnes).
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
    """Hard-edge companion with Gamma(theta*u - a); see mellin_barnes."""
    _check_exponents(a, alpha, theta)
    if z <= 0:
        raise DomainError("z must be positive")
    return mellin_barnes(*_gtinf_factors(a, alpha, theta), z, strategy)[0]
