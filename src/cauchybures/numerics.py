"""Foundational numeric kernels.

Overflow-safe signed-log scalars, complex log-gamma, Gauss-Jacobi and
Gauss-Laguerre rules, a tensor rule for 2D moment integrals with the
1/(x+y) factor absorbed, and Pfaffians of skew-symmetric matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import loggamma as _cloggamma
from scipy.special import roots_genlaguerre, roots_jacobi

from .exceptions import DimensionError, DomainError, NonConverged, PoleError

__all__ = [
    "LogValue",
    "SkewMatrix",
    "QuadratureRule",
    "SimplexRule",
    "log_gamma_complex",
    "lgamma_signed",
    "gauss_jacobi",
    "gauss_laguerre",
    "simplex_quad_2d",
    "pfaffian",
    "pfaffian_bordered",
    "refine_quadrature",
    "tanh_sinh_01",
]

_POLE_TOL = 1e-12


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
        if x == 0.0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def to_real(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_mag)

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

    def __neg__(self) -> "LogValue":
        return LogValue(-self.sign, self.log_mag)

    def __abs__(self) -> "LogValue":
        return LogValue(abs(self.sign), self.log_mag)

    def sqrt(self) -> "LogValue":
        if self.sign < 0:
            raise ValueError("sqrt of a negative LogValue")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(1, 0.5 * self.log_mag)

    def powi(self, k: int) -> "LogValue":
        if self.sign == 0:
            return LogValue.one() if k == 0 else LogValue.zero()
        sign = 1 if (self.sign > 0 or k % 2 == 0) else -1
        return LogValue(sign, k * self.log_mag)

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
    return complex(_cloggamma(z))


def lgamma_signed(x: float) -> tuple[int, float]:
    """(sign, log|Gamma(x)|) for real x off the poles."""
    if x > 0:
        return 1, math.lgamma(x)
    n = round(x)
    if abs(x - n) < _POLE_TOL:
        raise PoleError(f"gamma pole at x = {x}")
    sign = 1 if math.floor(x) % 2 == 0 else -1
    return sign, math.lgamma(x)


def gammaln_logvalue(x: float) -> LogValue:
    s, lm = lgamma_signed(x)
    return LogValue(s, lm)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights against an explicit weight function."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: str

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
    """Gauss rule for the weight t^alpha on (0, 1), cached per argument.

    Exact for polynomial integrands up to degree 2*order - 1.
    """
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if alpha <= -1.0:
        raise DomainError(f"alpha must exceed -1, got {alpha}")
    x, w = roots_jacobi(order, 0.0, alpha)
    nodes = 0.5 * (x + 1.0)
    weights = w / 2.0 ** (alpha + 1.0)
    return QuadratureRule(nodes, weights, f"jacobi(0,1) t^{alpha}")


@lru_cache(maxsize=128)
def gauss_jacobi_pair(order: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss rule for the weight u^alpha (1-u)^beta on (0, 1), cached."""
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError("exponents must exceed -1")
    x, w = roots_jacobi(order, beta, alpha)
    nodes = 0.5 * (x + 1.0)
    weights = w / 2.0 ** (alpha + beta + 1.0)
    return QuadratureRule(nodes, weights, f"jacobi(0,1) u^{alpha}(1-u)^{beta}")


@lru_cache(maxsize=128)
def gauss_laguerre(order: int, gamma_exp: float = 0.0) -> QuadratureRule:
    """Gauss rule for the weight s^gamma_exp e^{-s} on (0, inf), cached."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if gamma_exp <= -1.0:
        raise DomainError(f"exponent must exceed -1, got {gamma_exp}")
    x, w = roots_genlaguerre(order, gamma_exp)
    return QuadratureRule(x, w, f"laguerre s^{gamma_exp} e^-s")


@dataclass(frozen=True)
class SimplexRule:
    """Tensor rule for integrals of f(x,y) x^a y^b e^{-(x+y)} / (x+y).

    Uses x = s*u, y = s*(1-u) so the 1/(x+y) factor is absorbed exactly:
    the weight becomes s^{a+b} e^{-s} in the radial variable and
    u^a (1-u)^b in the angular one.
    """

    xs: np.ndarray
    ys: np.ndarray
    weights: np.ndarray

    def integrate(self, f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> float:
        return float(self.weights @ np.asarray(f(self.xs, self.ys), dtype=float))


def simplex_quad_2d(alpha: float, beta: float, radial_order: int,
                    angular_order: int) -> SimplexRule:
    """Composite rule on the positive quadrant; see SimplexRule."""
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError("exponents must exceed -1")
    rad = gauss_laguerre(radial_order, alpha + beta)
    ang = gauss_jacobi_pair(angular_order, alpha, beta)
    s = rad.nodes[:, None]
    u = ang.nodes[None, :]
    xs = (s * u).ravel()
    ys = (s * (1.0 - u)).ravel()
    weights = (rad.weights[:, None] * ang.weights[None, :]).ravel()
    return SimplexRule(xs, ys, weights)


def refine_quadrature(value_at: Callable[[int], float], start_order: int = 16,
                      rtol: float = 1e-11, max_order: int = 512) -> float:
    """Order-doubling convergence protocol.

    Doubles the order until successive values differ by < rtol relative,
    raising NonConverged past max_order.  value_at may instead return a
    (value, magnitude) pair, magnitude being the same rule applied to |f|;
    the tolerance is then relative to that as well, so an integral that
    cancels to zero still converges.
    """
    def step(order: int) -> tuple[float, float]:
        out = value_at(order)
        return out if isinstance(out, tuple) else (out, 0.0)

    prev = step(start_order)[0]
    delta = math.inf
    order = 2 * start_order
    while order <= max_order:
        cur, magnitude = step(order)
        scale = max(abs(cur), abs(prev), magnitude)
        delta = abs(cur - prev)
        if delta <= rtol * scale or scale == 0.0:
            return cur
        prev = cur
        order *= 2
    raise NonConverged(
        f"quadrature not converged at order {max_order} (last delta "
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
    return QuadratureRule(t[keep], w[keep], f"tanh-sinh level {level}")


def tanh_sinh_01(f: Callable[[np.ndarray], np.ndarray], rtol: float = 1e-11,
                 max_level: int = 12) -> float:
    """Double-exponential quadrature of f over (0, 1).

    f maps an ndarray of nodes to the array of its values.  It is called
    once per level, on only the nodes that level adds (cached per level,
    see _tanh_sinh_level); a level's value is half the previous level's
    plus the new weighted sum, so each doubling reuses every earlier
    evaluation.  Converges geometrically even when f has integrable
    algebraic singularities at either endpoint, which Gauss rules with a
    fixed weight cannot handle.
    """
    value = 0.0

    # refine_quadrature asks for orders 2, 4, 8, ... in turn, i.e. the
    # levels 0, 1, 2, ... with step h = 1/order
    def level_sum(order: int) -> float:
        nonlocal value
        level = _tanh_sinh_level(order.bit_length() - 2)
        value = 0.5 * value + level.integrate(f)
        return value

    return refine_quadrature(level_sum, start_order=2, rtol=rtol,
                             max_order=2 ** (max_level + 1))


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
        entries -= entries.T
        self.dim = n
        self.entries = entries

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "SkewMatrix":
        a = np.asarray(a, dtype=float)
        m = cls(a)
        if not np.array_equal(m.entries, a):
            raise ValueError("input matrix is not exactly antisymmetric")
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
