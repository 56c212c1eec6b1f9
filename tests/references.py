"""Reference routes that only the tests compare the library against.

Not collected as tests (the file name does not match test_*.py).  Each
computes a quantity independently of the production route it checks:
the Jacobi series by an mpmath sum, the bi-orthogonal families by their
bordered moment determinants, and the 2D moment integrals by a tensor
Gauss rule with the 1/(x+y) factor absorbed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import mpmath
import numpy as np
from scipy.special import roots_genlaguerre, roots_jacobi

from cauchybures.ensembles import EnsembleParams, moment_c, partition_cauchy
from cauchybures.exceptions import DomainError
from cauchybures.numerics import LogValue, QuadratureRule, ln_abs, mp_sum
from cauchybures.polynomials import _check_degree

# the determinant forms miss 1e-8 from degree 5 on (8e-5 at degree 8,
# 1e-1 at degree 10): the float moment determinant is ill-conditioned
_MAX_DEGREE = 5


# ---------------------------------------------------------------------------
# Jacobi connection
# ---------------------------------------------------------------------------

def jacobi_series_value(n: int, alpha: float, x: float) -> float:
    """Value of sum_l c_{n,l} x^l, summed in mpmath (numerics.mp_sum).

    The alternating coefficients reach ~1e6 by n = 12 while the value
    stays order one, so a plain double-precision sum cannot do better
    than ~1e-10 absolute; mp_sum raises the working precision until the
    digits the cancellation eats leave enough.
    """
    _check_degree(n)

    def series():
        al = mpmath.mpf(alpha)
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        peak = mpmath.mpf(0)
        for l in range(n + 1):
            term = ((-1) ** l * mpmath.gamma(al + n + l + 1)
                    / (mpmath.factorial(l) * mpmath.factorial(n - l)
                       * mpmath.gamma(al + l + 1)) * xm ** l)
            total += term
            peak = max(peak, abs(term))
        return total, ln_abs(peak)

    return float(mp_sum(series))


# ---------------------------------------------------------------------------
# determinant forms of the bi-orthogonal families
# ---------------------------------------------------------------------------

def _det_form(params: EnsembleParams, n: int, x, transpose: bool) -> float:
    """Bordered moment determinant with the sqrt(h_n/(theta Z_n Z_{n+1})) factor."""
    _check_degree(n)
    if n >= _MAX_DEGREE:
        raise DomainError(f"degree {n} refused: the moment determinant is "
                          f"ill-conditioned (limit {_MAX_DEGREE})")
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
# quadrature for the 2D moment integrals
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def gauss_jacobi_pair(order: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss rule for the weight t^alpha (1-t)^beta on (0, 1), cached."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError(f"exponents must exceed -1, got {alpha}, {beta}")
    x, w = roots_jacobi(order, beta, alpha)
    return QuadratureRule(0.5 * (x + 1.0), w / 2.0 ** (alpha + beta + 1.0))


@lru_cache(maxsize=32)
def gauss_laguerre(order: int, gamma_exp: float = 0.0) -> QuadratureRule:
    """Gauss rule for the weight s^gamma_exp e^{-s} on (0, inf), cached."""
    if order < 1:
        raise DomainError(f"order must be >= 1, got {order}")
    if gamma_exp <= -1.0:
        raise DomainError(f"exponent must exceed -1, got {gamma_exp}")
    x, w = roots_genlaguerre(order, gamma_exp)
    return QuadratureRule(x, w)


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
