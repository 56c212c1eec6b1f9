"""Bi-orthogonal and partial-skew-orthogonal polynomial families.

The Cauchy families P-hat, Q-hat are explicit gamma-coefficient
polynomials; their monic rescalings carry the partition-ratio
normalization.  The Bures family phi_n comes from Schur's product: each
coefficient of its defining (bordered) Pfaffian is a Schur Pfaffian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .exceptions import ComplexityError, DomainError
from .ensembles import EnsembleParams, _log_schur, partition_cauchy
from .numerics import (LogValue, require_integer, require_positive,
                       require_real, require_real_array,
                       require_real_sequence)

__all__ = [
    "PolySeries",
    "NormalizationData",
    "coeff_c",
    "p_hat",
    "q_hat",
    "jacobi_p",
    "monic_pair",
    "phi_bures",
]

_NO_TERM = -(1 << 40)  # binary exponent of the empty entries (l > m)


@dataclass(frozen=True)
class PolySeries:
    """Polynomial in the monomial basis; coeffs[k] multiplies x^k."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = require_real_sequence("polynomial coefficients", self.coeffs)
        if not all(map(math.isfinite, coeffs)):
            raise DomainError("polynomial coefficients exceed double range")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        x = require_real_array("x", x)
        acc = np.zeros_like(x)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc if acc.ndim else float(acc)

    def leading(self) -> float:
        return self.coeffs[-1]

    def monic(self) -> "PolySeries":
        lead = self.leading()
        if lead == 0.0:
            raise DomainError("zero leading coefficient")
        return PolySeries(tuple(c / lead for c in self.coeffs))


@dataclass(frozen=True)
class NormalizationData:
    """h_n = theta/(2 n theta + a + b + 1) and the ratio Z_{n+1}/Z_n."""

    h_n: float
    z_ratio: LogValue


def _frexp_gamma(z: float) -> tuple[float, int]:
    """Gamma(z) as (mantissa, binary exponent); mpmath past double range."""
    m, e = (math.frexp(math.gamma(z)) if z < 171.0
            else mpmath.frexp(mpmath.gamma(z)))
    return float(m), e


def _rising(alpha: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(alpha + k + 1), k < count, as (mantissa, binary exponent), by
    Gamma(z + 1) = z Gamma(z): a ratio of two entries is then a product of
    factors alpha + j, not a quotient of gammas at rounded arguments."""
    out = [_frexp_gamma(alpha + 1.0)]
    for k in range(1, count):
        m, e = math.frexp(out[-1][0] * (alpha + k))
        out.append((m, e + out[-1][1]))
    mant, exp = zip(*out)
    return np.array(mant), np.array(exp, dtype=np.int64)


@lru_cache(maxsize=128)
def _hat_table(alpha: float, exponent: float, theta: float,
               size: int) -> tuple[np.ndarray, np.ndarray]:
    """p_{m,l} = c_{m,l} / Gamma(exponent + theta*l + 1), m, l < size.

    Signed mantissas and int64 binary exponents, p = mant 2^exp: no entry
    leaves double range or carries the rounding of a stored log (a double
    log|p| ~ 50 is itself off by 7e-15).  Row m is the degree-m hat
    polynomial in x^theta, zero for l > m; theta = exponent = 0 gives c.
    """
    a_m, a_e = _rising(alpha, 2 * size - 1)    # Gamma(alpha + k + 1)
    f_m, f_e = _rising(0.0, size)              # k!
    g_m, g_e = map(np.array, zip(*(_frexp_gamma(exponent + theta * l + 1.0)
                                   for l in range(size))))
    m, l = np.ogrid[:size, :size]
    k = np.abs(m - l)                          # m - l where l <= m
    mant, shift = np.frexp((-1.0) ** l * a_m[m + l]
                           / (f_m[l] * f_m[k] * a_m[l] * g_m[l]))
    exp = a_e[m + l] + shift - f_e[l] - f_e[k] - a_e[l] - g_e[l]
    mant = np.where(l <= m, mant, 0.0)
    exp = np.where(l <= m, exp, _NO_TERM)
    mant.flags.writeable = exp.flags.writeable = False
    return mant, exp


def coeff_c(n: int, l: int, alpha: float) -> float:
    """c_{n,l} = (-1)^l Gamma(alpha+n+l+1) / (l! (n-l)! Gamma(alpha+l+1))."""
    require_integer("degree", n, least=0)
    require_integer("l", l)
    if not 0 <= l <= n:
        raise DomainError(f"l must satisfy 0 <= l <= n, got l={l}, n={n}")
    alpha, = require_real("alpha", alpha)
    require_positive("alpha + 1", alpha + 1.0)
    mant, exp = _hat_table(alpha, 0.0, 0.0, n + 1)
    return math.ldexp(mant[n, l], int(exp[n, l]))


def p_hat(params: EnsembleParams, n: int) -> PolySeries:
    """First bi-orthogonal family: coeffs c_{n,l} / Gamma(a + theta*l + 1)."""
    return _hat_family(params, n, params.a)


def q_hat(params: EnsembleParams, n: int) -> PolySeries:
    """Second bi-orthogonal family: coeffs c_{n,l} / Gamma(b + theta*l + 1)."""
    return _hat_family(params, n, params.b)


def _hat_family(params: EnsembleParams, n: int, exponent: float) -> PolySeries:
    """Row n of the table the kernels contract, sized max(N, n+1)."""
    require_integer("degree", n, least=0)
    mant, exp = _hat_table(params.alpha, exponent, params.theta,
                           max(params.n, n + 1))
    with np.errstate(over="ignore"):
        return PolySeries(tuple(np.ldexp(mant[n, :n + 1], exp[n, :n + 1])
                                .tolist()))


def jacobi_p(n: int, alpha: float, x) -> float:
    """Jacobi polynomial P_n^(alpha, 0) at argument 1 - 2x, by recurrence."""
    require_integer("degree", n, least=0)
    alpha, = require_real("alpha", alpha)
    require_positive("alpha + 1", alpha + 1.0)
    with np.errstate(over="ignore"):
        t = 1.0 - 2.0 * require_real_array("x", x)
    if not np.all(np.isfinite(t)):
        raise DomainError("x and 1 - 2x must be finite")
    p_prev = np.ones_like(t)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p_cur = (alpha + 1.0) + (alpha + 2.0) * (t - 1.0) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for m in range(2, n + 1):
            c1 = 2.0 * m * (m + alpha) * (2.0 * m + alpha - 2.0)
            c2 = (2.0 * m + alpha - 1.0)
            c3 = (2.0 * m + alpha) * (2.0 * m + alpha - 2.0)
            c4 = alpha * alpha
            c5 = 2.0 * (m + alpha - 1.0) * (m - 1.0) * (2.0 * m + alpha)
            p_next = (c2 * (c3 * t + c4) * p_cur - c5 * p_prev) / c1
            p_prev, p_cur = p_cur, p_next
    if not np.all(np.isfinite(p_cur)):  # an inf stays inf or turns NaN
        raise ComplexityError("jacobi_p: the recurrence overflows a double")
    return p_cur if p_cur.ndim else float(p_cur)


def monic_pair(params: EnsembleParams, n: int
               ) -> tuple[PolySeries, PolySeries, NormalizationData]:
    """Monic rescalings with h_n and the partition ratio Z_{n+1}/Z_n."""
    require_integer("degree", n, least=0)
    h_n = params.theta / (2.0 * n * params.theta + params.a + params.b + 1.0)
    z_n = partition_cauchy(params.with_n(n)) if n else LogValue.one()  # Z_0
    ratio = partition_cauchy(params.with_n(n + 1)) / z_n
    return (p_hat(params, n).monic(), q_hat(params, n).monic(),
            NormalizationData(h_n, ratio))


# ---------------------------------------------------------------------------
# Bures partial-skew-orthogonal polynomials
# ---------------------------------------------------------------------------

def phi_bures(params: EnsembleParams, n: int) -> PolySeries:
    """Degree-n Bures polynomial, normalized monic.

    phi_n(z) is the (bordered) Pfaffian of the skew moments over
    x_0..x_n, x_j = a + 1 + theta*j, with a z-power column.  Expanding
    along that column makes the z^j coefficient (-1)^{n+j} times the
    Schur Pfaffian of the x's without x_j; Z^B cancels in the monic form.
    """
    require_integer("degree", n, least=0)
    xs = [params.a + 1.0 + params.theta * j for j in range(n + 1)]
    logs = np.array([_log_schur(xs[:j] + xs[j + 1:]) for j in range(n + 1)])
    signs = (-1.0) ** (n + np.arange(n + 1))
    with np.errstate(over="ignore"):
        return PolySeries(tuple((signs * np.exp(logs - logs[n])).tolist()))
