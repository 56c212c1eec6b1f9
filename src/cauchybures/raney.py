"""Raney numbers, Fuss-Catalan moments and the squared singular value
density of a product of two Ginibre factors.
"""
from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError, PoleError

__all__ = [
    "raney",
    "fuss_catalan_moment",
    "sz_density",
    "sz_support",
    "sz_moment",
    "density_asymptote",
]

SZ_EDGE = 3.0 * math.sqrt(3.0) / 2.0


def raney(p: float, r: float, n: int) -> float:
    """Raney number R_{p,r}(n) = r/(pn+r) * binom(pn+r, n)."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if n == 0:
        return 1.0
    top = p * n + r
    if abs(top) < 1e-14:
        raise PoleError("p*n + r vanishes")
    if float(p).is_integer() and float(r).is_integer() and p > 0 and r > 0:
        # integer parameters give integer Raney numbers; compute exactly
        pi, ri = int(p), int(r)
        ti = pi * n + ri
        return float(ri * math.comb(ti, n) // ti)
    for arg in (top + 1.0, top - n + 1.0):
        if arg <= 0 and abs(arg - round(arg)) < 1e-12:
            raise PoleError(f"gamma pole at argument {arg}")
    log = (math.lgamma(top + 1.0) - math.lgamma(n + 1.0)
           - math.lgamma(top - n + 1.0))
    return r / top * math.exp(log)


def fuss_catalan_moment(theta: float, n: int) -> float:
    """n-th moment of the Fuss-Catalan distribution FC(theta): R_{theta+1,1}(n)."""
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
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("density requires x > 0")
    out = np.zeros_like(arr)
    inside = arr < SZ_EDGE
    xi = arr[inside]
    w = SZ_EDGE / xi
    # w + sqrt(w^2 - 1) and its inverse w - sqrt(w^2 - 1), without forming
    # w^2, which overflows for x below ~1e-154
    s = (w + np.sqrt(w - 1.0) * np.sqrt(w + 1.0)) ** (2.0 / 3.0)
    out[inside] = (s - 1.0 / s) / (2.0 * math.pi * math.sqrt(3.0))
    if np.any(arr == SZ_EDGE):
        out[arr == SZ_EDGE] = 0.0
    return out if out.ndim else float(out)


def sz_moment(n: int) -> float:
    """Numerical n-th moment of the density, via the x = s^3 substitution.

    The substitution turns the x^(-2/3) origin singularity into a smooth
    integrand, so a plain adaptive quadrature converges quickly.
    """
    from scipy import integrate  # only this numerical check needs scipy
    if n < 0:
        raise DomainError("n must be non-negative")
    s_edge = SZ_EDGE ** (1.0 / 3.0)

    def f(s):
        return 3.0 * s ** (3 * n + 2) * sz_density(s ** 3)

    val, _ = integrate.quad(f, 0.0, s_edge, limit=200,
                            epsabs=1e-12, epsrel=1e-11)
    return val


def density_asymptote(p: float, r: float, x) -> float:
    """Small-x power law sin(r*pi/p)/pi * x^(-(p-r)/p) of a Raney density."""
    if p <= 0 or r <= 0 or r > p:
        raise DomainError("need 0 < r <= p")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("asymptote requires x > 0")
    out = math.sin(r * math.pi / p) / math.pi * arr ** (-(p - r) / p)
    return out if np.ndim(out) else float(out)
