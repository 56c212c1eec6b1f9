"""Raney numbers, Fuss-Catalan moments and the squared singular value
density of a product of two Ginibre factors.
"""
from __future__ import annotations

import math
import numbers
from fractions import Fraction

import numpy as np

from .exceptions import ComplexityError, DomainError, PoleError
from .numerics import (checked_exp, lgamma_signed, require_real,
                       require_real_array, tanh_sinh_01)

__all__ = [
    "raney",
    "fuss_catalan_moment",
    "sz_density",
    "sz_support",
    "sz_moment",
    "density_asymptote",
]

SZ_EDGE = 3.0 * math.sqrt(3.0) / 2.0


def raney(p: float, r: float, n: float) -> float:
    """Raney number R_{p,r}(n) = r/(pn+r) * binom(pn+r, n), the binomial
    continued through gamma functions; ComplexityError past double range or
    accuracy (integer arguments are exact).  It is 0 where only Gamma(pn +
    r - n + 1), whose reciprocal enters, has a pole; PoleError at others."""
    # its own reader: an int no double holds (n = 10**400) is compared,
    # not converted, and refused below as past double range
    if not all(isinstance(v, numbers.Real) for v in (p, r, n)):
        raise DomainError("each of p, r and n must be a real number")
    if not (all(abs(v) < math.inf for v in (p, r)) and 0 <= n < math.inf):
        raise DomainError("p, r and n must be finite, n non-negative")
    p, r, n = (checked_exp("a Raney argument", v, power=float)
               for v in (p, r, n))
    if n == 0:
        return 1.0
    top = p * n + r
    if abs(top) < 1e-14:
        raise PoleError("p*n + r vanishes")
    # lgamma_signed raises PoleError at a pole
    (s1, l1), (_, l2) = lgamma_signed(top + 1.0), lgamma_signed(n + 1.0)
    try:
        s3, l3 = lgamma_signed(top - n + 1.0)
    except PoleError:
        return 0.0
    # the gamma form first: it refuses before math.comb builds a huge integer
    value = s1 * s3 * math.copysign(checked_exp(
        "a Raney number", l1 - l2 - l3 + math.log(abs(r / top))), r / top)
    if p > 0 and r > 0 and all(v.is_integer() for v in (p, r, n)):
        # integer arguments: exact on integers; the double top may round
        ti = int(p) * int(n) + int(r)
        exact = int(r) * math.comb(ti, int(n)) // ti
        return checked_exp("a Raney number", exact, power=float)
    # the lgammas' rounding, and top's times about d(l1 - l3)/d top
    moved = Fraction(p) * Fraction(n) + Fraction(r) - Fraction(top)
    err = (2.0 ** -53 * (abs(l1) + abs(l2) + abs(l3)) + abs(float(moved)
           * math.log((1 + abs(top)) / (1 + abs(top - n)))))
    if err > 3e-12:  # the README row's accuracy
        raise ComplexityError(f"raney: its gamma form rounds off {err:.1e}")
    return value


def fuss_catalan_moment(theta: float, n: int) -> float:
    """n-th moment of the Fuss-Catalan distribution FC(theta): R_{theta+1,1}(n)."""
    theta, = require_real("theta", theta)
    if theta <= 0:
        raise DomainError("theta must be positive")
    return raney(theta + 1.0, 1.0, n)


def sz_support() -> tuple[float, float]:
    """Support (0, 3*sqrt(3)/2] of the squared singular value density."""
    return (0.0, SZ_EDGE)


def sz_density(x) -> float:
    """Density of squared singular values of a product of two square
    Ginibre matrices, on (0, 3*sqrt(3)/2].

    Zero beyond the right edge; DomainError at x <= 0 where the density
    diverges like x^(-2/3).
    """
    arr = require_real_array("x", x)
    if not np.all(arr > 0.0):  # NaN refused too
        raise DomainError("density requires x > 0")
    out = np.zeros_like(arr)
    inside = arr < SZ_EDGE
    xi = arr[inside]
    r = xi / SZ_EDGE
    # s = (w + sqrt(w^2 - 1))^{2/3} at w = SZ_EDGE / x, as SZ_EDGE^{2/3}
    # x^{-2/3} (1 + sqrt(1 - w^{-2}))^{2/3}, without forming w, which
    # overflows below x ~ 2e-308
    s = (SZ_EDGE ** (2.0 / 3.0) * xi ** (-2.0 / 3.0)
         * (1.0 + np.sqrt(1.0 - r) * np.sqrt(1.0 + r)) ** (2.0 / 3.0))
    out[inside] = (s - 1.0 / s) / (2.0 * math.pi * math.sqrt(3.0))
    return out if out.ndim else float(out)


def sz_moment(n: float) -> float:
    """Numerical n-th moment of the density, by tanh-sinh over (0, SZ_EDGE).

    The rule's endpoint clustering absorbs the x^(-2/3) singularity at the
    origin; its nodes reach x ~ 1e-304, below which the integral holds
    less than 1e-100.
    """
    n, = require_real("n", n)
    if not 0 <= n < math.inf:
        raise DomainError("n must be finite and non-negative")
    return SZ_EDGE * tanh_sinh_01(
        lambda t: (SZ_EDGE * t) ** n * sz_density(SZ_EDGE * t))


def density_asymptote(p: float, r: float, x) -> float:
    """Small-x power law sin(r*pi/p)/pi * x^(-(p-r)/p) of a Raney density."""
    p, r = require_real("p and r", p, r)
    if not (0 < r <= p < math.inf):
        raise DomainError("need 0 < r <= p, p finite")
    arr = require_real_array("x", x)
    if not np.all((arr > 0.0) & (arr < math.inf)):
        raise DomainError("asymptote requires finite x > 0")
    out = math.sin(r * math.pi / p) / math.pi * arr ** (-(p - r) / p)
    return out if np.ndim(out) else float(out)
