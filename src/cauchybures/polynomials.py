"""Bi-orthogonal and partial-skew-orthogonal polynomial families.

The Cauchy families P-hat, Q-hat are explicit gamma-coefficient
polynomials; their monic rescalings carry the partition-ratio
normalization.  The Bures family phi_n comes from Schur's product: each
coefficient of its defining (bordered) Pfaffian is a Schur Pfaffian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .exceptions import DomainError
from .ensembles import EnsembleParams, _log_schur, moment_c, partition_cauchy
from .numerics import LogValue

__all__ = [
    "PolySeries",
    "NormalizationData",
    "coeff_c",
    "p_hat",
    "q_hat",
    "p_hat_det",
    "q_hat_det",
    "jacobi_p",
    "jacobi_series_value",
    "monic_pair",
    "phi_bures",
]

_MAX_DEGREE = 20


@dataclass(frozen=True)
class PolySeries:
    """Polynomial in the monomial basis; coeffs[k] multiplies x^k."""

    coeffs: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = np.zeros_like(np.asarray(x, dtype=float))
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


def coeff_c(n: int, l: int, alpha: float) -> float:
    """c_{n,l} = (-1)^l Gamma(alpha+n+l+1) / (l! (n-l)! Gamma(alpha+l+1))."""
    if not 0 <= l <= n:
        raise IndexError(f"l must satisfy 0 <= l <= n, got l={l}, n={n}")
    log = (math.lgamma(alpha + n + l + 1.0) - math.lgamma(l + 1.0)
           - math.lgamma(n - l + 1.0) - math.lgamma(alpha + l + 1.0))
    return (-1.0) ** l * math.exp(log)


def jacobi_series_value(n: int, alpha: float, x: float) -> float:
    """Value of sum_l c_{n,l} x^l, summed in extended precision.

    The alternating coefficients reach ~1e6 by n = 12 while the value
    stays order one, so a plain double-precision sum cannot do better
    than ~1e-10 absolute; thirty working digits restore full accuracy.
    """
    _check_degree(n)
    with mpmath.workdps(30):
        al = mpmath.mpf(alpha)
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for l in range(n + 1):
            c = (mpmath.gamma(al + n + l + 1)
                 / (mpmath.factorial(l) * mpmath.factorial(n - l)
                    * mpmath.gamma(al + l + 1)))
            total += (-1) ** l * c * xm ** l
        return float(total)


def _check_degree(n: int) -> None:
    if n < 0:
        raise DomainError("degree must be non-negative")
    if n >= _MAX_DEGREE:
        raise DomainError(
            f"degree {n} refused: coefficients exceed double range "
            f"(limit {_MAX_DEGREE})")


def p_hat(params: EnsembleParams, n: int) -> PolySeries:
    """First bi-orthogonal family: coeffs c_{n,l} / Gamma(a + theta*l + 1)."""
    return _hat_family(params, n, params.a)


def q_hat(params: EnsembleParams, n: int) -> PolySeries:
    """Second bi-orthogonal family: coeffs c_{n,l} / Gamma(b + theta*l + 1)."""
    return _hat_family(params, n, params.b)


def _hat_family(params: EnsembleParams, n: int, exponent: float) -> PolySeries:
    _check_degree(n)
    alpha = params.alpha
    coeffs = []
    for l in range(n + 1):
        log = (math.lgamma(alpha + n + l + 1.0) - math.lgamma(l + 1.0)
               - math.lgamma(n - l + 1.0) - math.lgamma(alpha + l + 1.0)
               - math.lgamma(exponent + params.theta * l + 1.0))
        coeffs.append((-1.0) ** l * math.exp(log))
    return PolySeries(tuple(coeffs))


def jacobi_p(n: int, alpha: float, x) -> float:
    """Jacobi polynomial P_n^(alpha, 0) at argument 1 - 2x, by recurrence."""
    if n < 0:
        raise DomainError("degree must be non-negative")
    if alpha <= -1.0:
        raise DomainError("alpha must exceed -1")
    t = 1.0 - 2.0 * np.asarray(x, dtype=float)
    p_prev = np.ones_like(t)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p_cur = (alpha + 1.0) + (alpha + 2.0) * (t - 1.0) / 2.0
    for m in range(2, n + 1):
        c1 = 2.0 * m * (m + alpha) * (2.0 * m + alpha - 2.0)
        c2 = (2.0 * m + alpha - 1.0)
        c3 = (2.0 * m + alpha) * (2.0 * m + alpha - 2.0)
        c4 = alpha * alpha
        c5 = 2.0 * (m + alpha - 1.0) * (m - 1.0) * (2.0 * m + alpha)
        p_next = (c2 * (c3 * t + c4) * p_cur - c5 * p_prev) / c1
        p_prev, p_cur = p_cur, p_next
    return p_cur if p_cur.ndim else float(p_cur)


def monic_pair(params: EnsembleParams, n: int
               ) -> tuple[PolySeries, PolySeries, NormalizationData]:
    """Monic rescalings with h_n and the partition ratio Z_{n+1}/Z_n."""
    _check_degree(n)
    h_n = params.theta / (2.0 * n * params.theta + params.a + params.b + 1.0)
    z_np1 = partition_cauchy(params.with_n(n + 1))
    if n >= 1:
        z_n = partition_cauchy(params.with_n(n))
    else:
        z_n = LogValue.one()  # empty product: Z_0 = 1
    ratio = z_np1 / z_n
    return (p_hat(params, n).monic(), q_hat(params, n).monic(),
            NormalizationData(h_n, ratio))


def _det_form(params: EnsembleParams, n: int, x, transpose: bool) -> float:
    """Bordered moment determinant with the sqrt(h_n/(theta Z_n Z_{n+1})) factor."""
    _check_degree(n)
    m = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n):
            m[i, j] = moment_c(params, i + 1, j + 1)
    m[:, n] = np.asarray(x, dtype=float) ** np.arange(n + 1)
    if transpose:
        m = m.T
    det = np.linalg.det(m)
    h_n = params.theta / (2.0 * n * params.theta + params.a + params.b + 1.0)
    z_np1 = partition_cauchy(params.with_n(n + 1))
    z_n = partition_cauchy(params.with_n(n)) if n >= 1 else LogValue.one()
    pref = math.exp(0.5 * (math.log(h_n) - math.log(params.theta)
                           - z_n.log_mag - z_np1.log_mag))
    return pref * det


def p_hat_det(params: EnsembleParams, n: int, x) -> float:
    """Determinant form of the first family (verification route)."""
    return _det_form(params, n, x, transpose=False)


def q_hat_det(params: EnsembleParams, n: int, y) -> float:
    """Determinant form of the second family (verification route)."""
    params_t = EnsembleParams(params.b, params.a, params.theta, params.n)
    # moment matrix transposed: border runs along the last row in y-powers
    return _det_form(params_t, n, y, transpose=True)


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
    _check_degree(n)
    xs = [params.a + 1.0 + params.theta * j for j in range(n + 1)]
    logs = [_log_schur(xs[:j] + xs[j + 1:]) for j in range(n + 1)]
    return PolySeries(tuple((-1.0) ** (n + j) * math.exp(logs[j] - logs[n])
                            for j in range(n + 1)))
