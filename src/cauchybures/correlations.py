"""Determinantal and Pfaffian correlation functions with brute-force oracles.

Production formulas are the hatted-kernel block determinant (Cauchy
two-matrix model) and the skew block Pfaffian (Bures ensemble), plus
their hard-edge limits.  The brute-force routes (route="brute")
integrate the defining eigenvalue densities directly with adaptive
quadrature and exist only to arbitrate the formulas at small N.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .exceptions import ComplexityError, DimensionError, DomainError
from .ensembles import EnsembleParams, partition_bures, partition_cauchy
from .kernels import _bures_block, _hatted_inf, hatted
# the hard-edge blocks stay bound here for perfbench/tracer.py
from .kernels import delta_k00_inf, delta_k11_inf, sigma_k01_inf  # noqa: F401
from .numerics import SkewMatrix, pfaffian, require_positive

__all__ = [
    "CorrelationRequest",
    "rho_cauchy",
    "rho_bures",
    "rho_bures_hard_edge",
    "correlation_record",
]

_MODELS = ("cauchy", "bures")
_ROUTES = ("direct", "tintegral", "brute")


@dataclass(frozen=True)
class CorrelationRequest:
    """Which correlation to evaluate and at which points.

    xs holds the first species (or the single Bures species); ys is the
    second species of the Cauchy model, and must be empty for Bures.
    """

    model: str
    params: EnsembleParams
    xs: tuple[float, ...]
    ys: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.model not in _MODELS:
            raise DomainError(f"unknown model {self.model!r}")
        if self.model == "bures" and self.ys:
            raise DomainError("the Bures model has one species: pass xs only")
        _check_points(self.xs, self.ys)
        if max(len(self.xs), len(self.ys)) > self.params.n:
            raise DimensionError("more points than eigenvalues")


def _check_points(*species) -> None:
    """Raise DomainError unless every point is finite and positive and
    the points of each species are pairwise different."""
    require_positive("points", *itertools.chain(*species))
    for pts in species:
        if len(set(pts)) != len(pts):
            raise DomainError("points must be pairwise different")


# ---------------------------------------------------------------------------
# Cauchy determinantal correlations
# ---------------------------------------------------------------------------

def rho_cauchy(req: CorrelationRequest, route: str = "direct") -> float:
    """(r, s)-correlation as the hatted-kernel block determinant.

    Over the points xs + ys, entry (i, j) is the hatted kernel
    K{row i in the second species}{column j in the first species}, by
    the kernel route "direct" or "tintegral".  route="brute" integrates
    the defining eigenvalue density instead (N <= 2).
    """
    if req.model != "cauchy":
        raise DomainError("rho_cauchy requires model='cauchy'")
    if route not in _ROUTES:
        raise DomainError(f"unknown route {route!r}")
    if route == "brute":
        return _brute_cauchy(req.params, req.xs, req.ys)
    r, pts = len(req.xs), (*req.xs, *req.ys)
    if not pts:
        return 1.0
    m = [[hatted(req.params, f"K{int(i >= r)}{int(j < r)}", pi, pj, route)
          for j, pj in enumerate(pts)] for i, pi in enumerate(pts)]
    return float(np.linalg.det(m))


# ---------------------------------------------------------------------------
# Bures Pfaffian correlations
# ---------------------------------------------------------------------------

def _bures_pfaffian(zs, hk) -> float:
    """k-point Bures correlation from the dressed kernel hk(kind, p1, p2)
    of the Cauchy pair (a, a+1).

    The 2k x 2k skew matrix is [[dK11, sK01], [-sK01^T, dK00]] of
    kernels._bures_block; only its strict upper triangle is filled, and
    SkewMatrix makes the lower-left block the negative transpose of the
    upper-right one, which is what exact antisymmetry requires.  The
    prefactor is (-1)^{k(k-1)/2} / 2^k, the same at every matrix size.
    """
    k = len(zs)
    upper = np.zeros((2 * k, 2 * k))
    for i in range(k):
        for j in range(i + 1, k):
            upper[i, j] = _bures_block(hk, "K11", zs[i], zs[j])
            upper[k + i, k + j] = _bures_block(hk, "K00", zs[j], zs[i])
        for j in range(k):
            upper[i, k + j] = _bures_block(hk, "K01", zs[i], zs[j])
    pf = pfaffian(SkewMatrix(upper)).to_real()
    sign = -1.0 if (k * (k - 1) // 2) % 2 else 1.0
    return sign * pf / 2.0 ** k


def rho_bures(req: CorrelationRequest, route: str = "direct") -> float:
    """k-point Bures correlation as a Pfaffian of Cauchy-pair kernels.

    The blocks are hatted kernels of the Cauchy pair (a, a+1), by the
    kernel route "direct" or "tintegral".  route="brute" integrates the
    defining eigenvalue density instead (N <= 3).
    """
    if req.model != "bures":
        raise DomainError("rho_bures requires model='bures'")
    if route not in _ROUTES:
        raise DomainError(f"unknown route {route!r}")
    if route == "brute":
        return _brute_bures(req.params, req.xs)
    p_pair = req.params.bures_pair()
    return _bures_pfaffian(req.xs, partial(hatted, p_pair, route=route))


def rho_bures_hard_edge(a: float, theta: float, zs) -> float:
    """Hard-edge limit of the k-point Bures correlation: the Pfaffian of
    rho_bures on the hard-edge limit of hatted."""
    require_positive("a + 1 and theta", a + 1.0, theta)
    zs = tuple(float(z) for z in zs)
    _check_points(zs)
    return _bures_pfaffian(zs, partial(_hatted_inf, a, theta))


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _upper_cutoff(max_exp: float) -> float:
    # envelope x^p e^{-x} below 1e-12 of its peak
    return max(50.0, 8.0 * max(max_exp, 1.0))


def _quad(f, lo, hi, singular=(), limit=200, epsabs=1e-13, epsrel=1e-10):
    from scipy import integrate  # only the brute-force oracles need scipy
    pts = [p for p in singular if lo < p < hi]
    return integrate.quad(f, lo, hi, points=pts or None, limit=limit,
                          epsabs=epsabs, epsrel=epsrel)[0]


def _brute_pair_integral(p_exp: float, q_exp: float, cutoff: float) -> float:
    """integral over the quadrant of x^p y^q e^{-(x+y)} / (x+y).

    Simplex substitution x = s*u, y = s*(1-u); both 1D factors are then
    integrated adaptively (no gamma identities, so the route stays
    independent of the moment formulas).
    """
    radial = _quad(lambda s: s ** (p_exp + q_exp) * math.exp(-s), 0.0, cutoff)
    angular = _quad(lambda u: u ** p_exp * (1.0 - u) ** q_exp, 0.0, 1.0)
    return radial * angular


def _brute_cauchy(params: EnsembleParams, xs, ys) -> float:
    n = params.n
    if n > 2:
        raise ComplexityError("Cauchy brute force supports N <= 2 only")
    a, b, theta = params.a, params.b, params.theta
    r, s = len(xs), len(ys)
    cutoff = _upper_cutoff(max(a, b) + theta * (n - 1))
    total = 0.0
    for sigma in itertools.permutations(range(n)):
        sg_sigma = _perm_sign(sigma)
        for tau in itertools.permutations(range(n)):
            sg_tau = _perm_sign(tau)
            for rho in itertools.permutations(range(n)):
                sg_rho = _perm_sign(rho)
                prod = 1.0
                for i in range(n):
                    j = sigma[i]
                    px = theta * tau[i]
                    py = theta * rho[j]
                    if i < r and j < s:
                        prod *= (xs[i] ** px * ys[j] ** py
                                 / (xs[i] + ys[j]))
                    elif i < r:
                        c = xs[i]
                        prod *= xs[i] ** px * _quad(
                            lambda y, q=b + py, c=c:
                            y ** q * math.exp(-y) / (c + y),
                            0.0, cutoff, singular=(c,))
                    elif j < s:
                        c = ys[j]
                        prod *= ys[j] ** py * _quad(
                            lambda x, q=a + px, c=c:
                            x ** q * math.exp(-x) / (c + x),
                            0.0, cutoff, singular=(c,))
                    else:
                        prod *= _brute_pair_integral(a + px, b + py, cutoff)
                total += sg_sigma * sg_tau * sg_rho * prod
    z_n = partition_cauchy(params)
    weight = 1.0
    for x in xs:
        weight *= x ** a * math.exp(-x)
    for y in ys:
        weight *= y ** b * math.exp(-y)
    norm = math.exp(-z_n.log_mag) / (
        math.factorial(n - r) * math.factorial(n - s))
    return norm * weight * total


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _bures_pair_factor(u: float, v: float, theta: float) -> float:
    return (v - u) / (v + u) * (v ** theta - u ** theta)


def _brute_bures(params: EnsembleParams, zs) -> float:
    n = params.n
    if n > 3:
        raise ComplexityError("Bures brute force supports N <= 3 only")
    k = len(zs)
    a, theta = params.a, params.theta
    cutoff = _upper_cutoff(a + 2.0 * theta * (n - 1))
    zb = partition_bures(params)

    def pair_all(pts):
        prod = 1.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                prod *= _bures_pair_factor(pts[i], pts[j], theta)
        return prod

    def weight(x):
        return x ** a * math.exp(-x)

    if k == n:
        integral = pair_all(zs)
    elif n - k == 1:
        integral = _quad(
            lambda x: pair_all((*zs, x)) * weight(x), 0.0, cutoff,
            singular=zs)
    elif n - k == 2:
        def outer(x2):
            inner = _quad(
                lambda x3: pair_all((*zs, x2, x3)) * weight(x3),
                0.0, cutoff, singular=(*zs, x2))
            return inner * weight(x2)
        integral = _quad(outer, 0.0, cutoff, zs, limit=80, epsabs=1e-11,
                         epsrel=1e-8)
    else:
        raise ComplexityError("too many integrated variables")
    pref = math.exp(-zb.log_mag) / math.factorial(n - k)
    for z in zs:
        pref *= weight(z)
    return pref * integral


def correlation_record(req: CorrelationRequest, value: float, route: str,
                       oracle_value: float | None = None) -> str:
    """JSON record of one correlation evaluation."""
    rec = {
        "model": req.model,
        "params": {"a": req.params.a, "b": req.params.b,
                   "theta": req.params.theta, "n": req.params.n},
        "points": {"xs": list(req.xs), "ys": list(req.ys)},
        "value": value,
        "route": route,
    }
    if oracle_value is not None:
        rec["oracle_value"] = oracle_value
        rec["discrepancy"] = abs(value - oracle_value)
    return json.dumps(rec, sort_keys=True)
