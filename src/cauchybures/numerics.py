"""Foundational numeric kernels.

Overflow-safe signed-log scalars, complex log-gamma, Gauss-Jacobi and
tanh-sinh quadrature, Pfaffians of skew-symmetric matrices, and the one
mpmath summation rule (`mp_sum`) whose precision checks itself.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import mpmath
import numpy as np

from .exceptions import (ComplexityError, DimensionError, DomainError,
                         NonConverged, PoleError)

__all__ = [
    "LogValue",
    "SkewMatrix",
    "QuadratureRule",
    "log_gamma_complex",
    "lgamma_signed",
    "checked_exp",
    "ln_abs",
    "mp_sum",
    "require_integer",
    "require_positive",
    "require_real",
    "gauss_jacobi",
    "pfaffian",
    "pfaffian_bordered",
    "refine_quadrature",
    "tanh_sinh_01",
    "tanh_sinh_half_line",
]

_POLE_TOL = 1e-12
# mpmath sums run at a multiple of this many digits, so that one cached
# table serves a range of cancellation depths
_DPS_STEP = 16
# digits an mpmath sum keeps beyond those its cancellation eats, and the
# working precision past which it gives up
_SPARE_DIGITS = 20
_MAX_DPS = 512
# bits the integer sums (_fixed_point) keep past the working precision, so
# that their truncations stay below mpmath's own rounding
_GUARD_BITS = 16
_TS_RTOL = 1e-11  # tanh-sinh's relative tolerance (refine_quadrature)
_TS_ROUNDING = 1e-14  # tanh_sinh_01's integrand rounding, relative
# refine_quadrature's quadratic rule needs two changes, level 0 to 1 and 1
# to 2, so it accepts level 2 at the earliest: tanh_sinh_01's first call of
# f holds the nodes of levels 0 to _TS_FIRST_LEVELS - 1
_TS_FIRST_LEVELS = 3
_TS_LEVELS = 13  # refine_quadrature's levels, 0 to 12


def require_real(what: str, *values) -> list[float]:
    """The values as Python floats, each read as x + 0.0; DomainError for a
    string, None, a complex, a Decimal or an int past double range."""
    try:
        return [float(v + 0.0) for v in values]
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a real number in double "
                          f"range") from None


def require_real_array(what: str, x) -> np.ndarray:
    """x as a float ndarray: a scalar read by require_real, an array of
    booleans, integers or floats as it is; DomainError for any other."""
    if np.ndim(x) == 0:
        return np.asarray(require_real(what, x)[0])
    arr = np.asarray(x)
    if arr.dtype.kind not in "biuf":
        raise DomainError(f"{what} must be a real number in double range")
    return arr.astype(float)


def require_positive(what: str, *values) -> list[float]:
    """require_real's floats; DomainError unless all are finite, positive."""
    values = require_real(what, *values)
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise DomainError(f"{what} must be finite and positive")
    return values


def require_integer(what: str, *values, least: Optional[int] = None) -> None:
    """DomainError unless each value is an integer, not a bool, >= least."""
    for v in values:
        if (isinstance(v, bool) or not isinstance(v, numbers.Integral)
                or least is not None and v < least):
            kind = {None: "an", 0: "a non-negative", 1: "a positive"}[least]
            raise DomainError(f"{what} must be {kind} integer, got {v!r}")


def checked_exp(what: str, *args, power: Callable = math.exp) -> float:
    """power(*args): math.exp, lgamma or ldexp, pow, or float; ComplexityError
    "{what} overflows a double" for an infinite result, raised or returned
    (math.exp(inf), float(mpf)), DomainError for a NaN."""
    try:
        value = power(*args)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise (DomainError(f"{what} is not a number") if math.isnan(value)
               else ComplexityError(f"{what} overflows a double"))
    return value


# ---------------------------------------------------------------------------
# signed-log scalar arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogValue:
    """A real number stored as (sign, log of absolute value).

    Partition functions contain Gamma(a + theta*(N-1) + 1) factors which
    overflow doubles once N*theta is large; all such magnitudes are carried
    in this representation and only converted to a plain float on demand.
    """

    sign: int
    log_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(0, 0.0)

    @classmethod
    def one(cls) -> "LogValue":
        return cls(1, 0.0)

    @classmethod
    def from_real(cls, x: float) -> "LogValue":
        if not math.isfinite(x):
            raise DomainError(f"LogValue.from_real needs a finite x, got {x}")
        if x == 0.0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def to_real(self) -> float:
        return self.sign * checked_exp("a LogValue", self.log_mag)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * other.sign, self.log_mag + other.log_mag)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("division by LogValue zero")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * other.sign, self.log_mag - other.log_mag)

    @staticmethod
    def sum(terms: Iterable["LogValue"]) -> "LogValue":
        """Signed log-sum-exp of an iterable of LogValues."""
        terms = [t for t in terms if t.sign != 0]
        if not terms:
            return LogValue.zero()
        m = max(t.log_mag for t in terms)
        acc = sum(t.sign * math.exp(t.log_mag - m) for t in terms)
        if acc == 0.0:
            return LogValue.zero()
        return LogValue(1 if acc > 0 else -1, m + math.log(abs(acc)))


# ---------------------------------------------------------------------------
# mpmath sums
# ---------------------------------------------------------------------------

def mp_sum(sum_at: Callable[[], tuple], dps: int = 2 * _DPS_STEP,
           keep: int = _SPARE_DIGITS):
    """An mpmath sum at a working precision its own cancellation confirms.

    sum_at() sums at the current mpmath precision and returns (total,
    log_peak), log_peak the natural log of the largest |term| (or of a
    bound on it).  The first sum runs at `dps` digits, a hint.  While the
    digits lost, log10(peak / |total|), leave fewer than `keep` digits of
    the working precision, the sum runs again at the _DPS_STEP multiple
    that would leave them, and at least twice the digits (up to _MAX_DPS)
    where the total is rounding noise (it kept fewer than 4 digits), whose
    loss only bounds the true one.  Where the measured loss needs more
    than _MAX_DPS it raises NonConverged.  Returns the mpmath total, which
    the caller rounds; a total of exactly zero is returned at once.
    """
    while True:
        with mpmath.workdps(dps):
            total, log_peak = sum_at()
        if not total:
            return total
        lost = (log_peak - ln_abs(total)) / math.log(10.0)
        if dps - lost >= keep:
            return total
        need = _DPS_STEP * math.ceil((lost + keep) / _DPS_STEP)
        if need > _MAX_DPS:
            raise NonConverged(f"mpmath sum loses {lost:.0f} digits; "
                               f"more than {_MAX_DPS} would be needed")
        noise = lost > dps - 4
        dps = max(need, min(2 * dps, _MAX_DPS)) if noise else need


def _fixed_point(xs: list, unit: int) -> tuple[list, int]:
    """Integers xs on the unit 2^unit, truncated to a unit _GUARD_BITS
    below the working precision under the largest |x|: sums and products
    of such integers are exact, so a dot product or a double sum over them
    makes one mpf at its end, mpmath.mpf((total, unit))."""
    drop = max(0, max(map(abs, xs)).bit_length() - mpmath.mp.prec
               - _GUARD_BITS)
    return [x >> drop for x in xs], unit + drop


def _hankel_form(ia: list, ib: list, h: Sequence[int]) -> int:
    """sum_{j,k<N} ia_j ib_k h_{j+k}, exact, by Kronecker substitution: ia,
    ib in N two's-complement W-bit slots, whose product's slot m holds c_m
    = sum_{j+k=m} ia_j ib_k, |c_m| < N max|ia| max|ib| <= 2^{W-1}."""
    n, w = len(ia), (max(map(abs, ia)).bit_length() + len(ia).bit_length()
                     + max(map(abs, ib)).bit_length() + 8) // 8  # W / 8
    # 2^{W-1} per slot: sign bits (a negative slot reads 2^W high) and bias
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * (2 * n - 1), "little")
    a, b = (u - ((u & bias) << 1) for u in (
        int.from_bytes(b"".join(x.to_bytes(w, "little", signed=True)
                                for x in v), "little") for v in (ia, ib)))
    conv = (a * b + bias).to_bytes((2 * n - 1) * w, "little")
    return sum((int.from_bytes(conv[i * w:i * w + w], "little")
                - (1 << 8 * w - 1)) * x for i, x in enumerate(h))


def ln_abs(x) -> float:
    """ln |x| of a nonzero mpmath number, through a double where x is one
    (far cheaper than an mpmath log at the working precision)."""
    f = abs(float(x))
    return math.log(f) if 0.0 < f < math.inf else float(mpmath.log(abs(x)))


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma(z), continuous on the cut plane.

    Raises PoleError when z is within 1e-12 of a non-positive integer.
    """
    z = complex(z)
    n = round(z.real)
    if n <= 0 and abs(z - n) < _POLE_TOL:
        raise PoleError(f"log-gamma pole at z = {z}")
    return complex(mpmath.loggamma(z))


def lgamma_signed(x: float) -> tuple[int, float]:
    """(sign, log|Gamma(x)|) for finite x off the poles, below 2.5e305."""
    if not math.isfinite(x):
        raise DomainError(f"lgamma_signed needs a finite x, got {x}")
    if x > 0:
        return 1, checked_exp("log Gamma(x)", x, power=math.lgamma)
    n = round(x)
    if abs(x - n) < _POLE_TOL:
        raise PoleError(f"gamma pole at x = {x}")
    sign = 1 if math.floor(x) % 2 == 0 else -1
    return sign, math.lgamma(x)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights against an explicit weight function."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights length mismatch")
        # read-only, so that one cached rule serves every caller
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(self.weights @ np.asarray(f(self.nodes), dtype=float))


@lru_cache(maxsize=512)
def gauss_jacobi(order: int, alpha: float) -> QuadratureRule:
    """Gauss rule for the weight t^alpha on (0, 1), cached.

    Exact for polynomial integrands up to degree 2*order - 1.  Golub-Welsch
    (Math. Comp. 23, 1969), except that a weight below 1e-4 of the total (an
    eigenvector holds it to 1e-16 absolute only) is 1 / sum_k p_k(t)^2 over
    the orthonormal polynomials of the weight, by their recurrence.
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if alpha <= -1.0:
        raise DomainError(f"exponent must exceed -1, got {alpha}")
    k = np.arange(1.0, order)  # recurrence of P_k^(0, alpha)(2t - 1)
    s = 2.0 * k + alpha
    diag = np.append((alpha + 1.0) / (alpha + 2.0),
                     0.5 + 0.5 * alpha * alpha / (s * (s + 2.0)))
    off = k * (k + alpha) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    t, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    w = vecs[0] ** 2  # relative to the total weight 1 / (alpha + 1)
    small = w < 1e-4
    p_prev, p, total = 0.0, 1.0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(order - 1 if small.any() else 0):
            p_prev, p = p, ((t[small] - diag[j]) * p
                            - off[j - 1] * p_prev) / off[j]
            total += p * p
    w[small] = np.nan_to_num(1.0 / total)  # 0 past double range
    return QuadratureRule(t, w / (alpha + 1.0))


def refine_quadrature(value_at: Callable[[int], float]) -> float:
    """Tanh-sinh's stop rule over its levels.

    Calls value_at(0), value_at(1), ... until successive values differ by
    < _TS_RTOL relative, or that change rel falls so that rel^2/rel_prev <=
    1e-2 _TS_RTOL: where the error squares as the level halves the step,
    that is the next change.  NonConverged after _TS_LEVELS levels.
    """
    prev, rel_prev = value_at(0), 0.0  # 0: no earlier change to compare
    for level in range(1, _TS_LEVELS):
        cur = value_at(level)
        scale = max(abs(cur), abs(prev))
        delta = abs(cur - prev)
        rel = delta / scale if scale else 0.0  # its square cannot overflow
        if (delta <= _TS_RTOL * scale or scale == 0.0 or rel_prev > rel
                and rel * rel <= 1e-2 * _TS_RTOL * rel_prev):
            return cur
        prev, rel_prev = cur, rel
    raise NonConverged(
        f"quadrature not converged in {_TS_LEVELS} levels (last delta "
        f"{delta:.3e})")


@lru_cache(maxsize=None)
def _tanh_sinh_level(level: int) -> QuadratureRule:
    """Rule of the nodes in (0, 1) that tanh-sinh level `level` adds.

    Level l is the trapezoid rule with step h = 2^-(l+1) in u, where
    t = (1 + tanh(pi/2 sinh u)) / 2, up to pi/2 sinh u = 350 (cosh of it
    squared overflows past 355).  Level 0 holds the nodes u = j*h, j >= 0;
    each later level only the odd j, which its halved step puts between
    the earlier nodes.  The weights include the rule's factor h/2.
    """
    h = 0.5 ** (level + 1)
    u = np.arange(h if level else 0.0, math.asinh(700.0 / math.pi),
                  2.0 * h if level else h)
    arg = 0.5 * math.pi * np.sinh(u)
    w = 0.25 * h * math.pi * np.cosh(u) / np.cosh(arg) ** 2
    # the node u = 0 (t = 1/2) is counted once
    t = np.concatenate([1.0 / (1.0 + np.exp(-2.0 * arg)),
                        1.0 / (1.0 + np.exp(2.0 * arg[u > 0.0]))])
    w = np.concatenate([w, w[u > 0.0]])
    keep = (t > 0.0) & (t < 1.0)
    return QuadratureRule(t[keep], w[keep])


@lru_cache(maxsize=None)
def _tanh_sinh_call(call: int) -> np.ndarray:
    """Nodes of tanh_sinh_01's call `call` of f: levels 0 to
    _TS_FIRST_LEVELS - 1 in turn for call 0, then one level per call."""
    if call:
        return _tanh_sinh_level(call + _TS_FIRST_LEVELS - 1).nodes
    nodes = np.concatenate([_tanh_sinh_level(level).nodes
                            for level in range(_TS_FIRST_LEVELS)])
    nodes.setflags(write=False)
    return nodes


def tanh_sinh_01(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Double-exponential quadrature of f over (0, 1).

    f maps an ndarray of nodes to the array of its values.  Its first call
    holds the nodes of levels 0-2 (_TS_FIRST_LEVELS), each later call those
    that one more level adds (_tanh_sinh_call): half of i1_integral's
    quadratures stop at level 2, so take one call of f rather than three.
    A level's value is half the previous level's plus the new weighted sum,
    taken level by level, so each doubling reuses every earlier evaluation
    and every value is that of one call per level.  Where the loop accepts
    level 1 (by _TS_RTOL, or f zero on every node), f has still seen level
    2's nodes, and an error it raises there propagates.  Converges
    geometrically even when f has integrable algebraic singularities at
    either endpoint.

    f's rounding, _TS_ROUNDING of M = sum w|f|, passes _TS_RTOL |I| where
    M exceeds (_TS_RTOL / _TS_ROUNDING) |I|: that on the level the loop
    accepts, or on an earlier one whose change lies within _TS_RTOL M,
    raises ComplexityError.  A non-negative f (M = |I|) never raises.
    """
    value, mass, ahead = 0.0, 0.0, None

    def checked(result: float) -> float:
        if mass > _TS_RTOL / _TS_ROUNDING * abs(value):
            raise ComplexityError(
                f"tanh-sinh integral cancels: sum w|f| / |integral| = "
                f"{mass / abs(value) if value else math.inf:.3g} exceeds "
                f"{_TS_RTOL / _TS_ROUNDING:.0e}, past what rtol "
                f"{_TS_RTOL:.0e} allows")
        return result

    def level_sum(level: int) -> float:
        nonlocal value, mass, ahead
        rule = _tanh_sinh_level(level)
        if level == 0 or level >= _TS_FIRST_LEVELS:  # f's next call
            call = max(level + 1 - _TS_FIRST_LEVELS, 0)
            ahead = np.asarray(f(_tanh_sinh_call(call)), dtype=float)
        # this level's values; ahead keeps those of the levels after it
        vals, ahead = ahead[:len(rule.nodes)], ahead[len(rule.nodes):]
        prev, value = value, 0.5 * value + float(rule.weights @ vals)
        mass = 0.5 * mass + float(rule.weights @ np.abs(vals))
        if level and abs(value - prev) <= _TS_RTOL * mass:
            checked(value)
        return value

    return checked(refine_quadrature(level_sum))


def tanh_sinh_half_line(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """integral_0^inf f(x) dx by tanh_sinh_01 after x = u / (1 - u).

    The double-exponential rule stays exact on the half line (Takahasi and
    Mori, Publ. RIMS 9, 1974), so no cutoff is needed: the nodes reach
    x = 9e15.  f must be finite at every node; write a weight x^p e^{-x}
    as exp(p log x - x), which is 0 where x^p alone overflows.
    """
    return tanh_sinh_01(lambda u: f(u / (1.0 - u)) / (1.0 - u) ** 2)


# ---------------------------------------------------------------------------
# skew matrices and Pfaffians
# ---------------------------------------------------------------------------

class SkewMatrix:
    """Square real matrix with exact antisymmetry enforced at construction."""

    def __init__(self, upper: np.ndarray):
        """Build from the strict upper triangle of a square array.

        Only entries with i < j of the supplied array are read; the lower
        triangle and diagonal are overwritten, so antisymmetry is exact.
        """
        upper = np.asarray(upper, dtype=float)
        if upper.ndim != 2 or upper.shape[0] != upper.shape[1]:
            raise DimensionError("SkewMatrix requires a square array")
        n = upper.shape[0]
        entries = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        entries[iu] = upper[iu]
        if not np.all(np.isfinite(entries)):
            raise DomainError("SkewMatrix entries must be finite")
        entries -= entries.T
        self.dim = n
        self.entries = entries

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "SkewMatrix":
        a = np.asarray(a, dtype=float)
        m = cls(a)
        if not np.array_equal(m.entries, a):
            raise DimensionError("input matrix is not exactly antisymmetric")
        return m


def _pfaffian_ltl(a: np.ndarray) -> LogValue:
    """Parlett-Reid skew tridiagonalization with partial pivoting."""
    n = a.shape[0]
    a = a.copy()
    sign = 1
    log_mag = 0.0
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if kp != k + 1:
            a[[k + 1, kp]] = a[[kp, k + 1]]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            sign = -sign
        pivot = a[k, k + 1]
        if pivot == 0.0:
            return LogValue.zero()
        sign *= 1 if pivot > 0 else -1
        log_mag += math.log(abs(pivot))
        if k + 2 < n:
            tau = a[k, k + 2:] / pivot
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return LogValue(sign, log_mag)


def pfaffian(m: SkewMatrix) -> LogValue:
    """Pfaffian of an even-dimensional skew matrix as a LogValue.

    Rows/columns are pre-scaled so that entries spanning many orders of
    magnitude (moment matrices) do not overflow the elimination.
    """
    if m.dim % 2 != 0:
        raise DimensionError(f"Pfaffian needs even dimension, got {m.dim}")
    if m.dim == 0:
        return LogValue.one()
    a = m.entries
    scales = np.max(np.abs(a), axis=1)
    if np.any(scales == 0.0):
        return LogValue.zero()
    b = a / scales[:, None] / scales[None, :]
    core = _pfaffian_ltl(b)
    if core.sign == 0:
        return LogValue.zero()
    return LogValue(core.sign, core.log_mag + float(np.sum(np.log(scales))))


def pfaffian_bordered(m: SkewMatrix, border: Sequence[float]) -> LogValue:
    """Pfaffian of an odd skew matrix bordered by a vector and leading zero."""
    if m.dim % 2 != 1:
        raise DimensionError(f"bordering requires odd dimension, got {m.dim}")
    border = np.asarray(border, dtype=float)
    if border.shape != (m.dim,):
        raise DimensionError("border length must equal the matrix dimension")
    n = m.dim + 1
    big = np.zeros((n, n))
    big[0, 1:] = border
    big[1:, 1:] = m.entries
    return pfaffian(SkewMatrix(big))
