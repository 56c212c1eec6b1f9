"""Determinantal and Pfaffian correlation functions with brute-force oracles.

Production formulas are the hatted-kernel block determinant (Cauchy
two-matrix model) and the skew block Pfaffian (Bures ensemble), plus
their hard-edge limits.  The brute-force routes (route="brute")
integrate the defining eigenvalue densities directly, by tanh-sinh on the
half line with no cutoff, and exist only to arbitrate the formulas at
small N.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import partial
from operator import mul

import numpy as np

from .exceptions import ComplexityError, DimensionError, DomainError
from .ensembles import EnsembleParams, partition_bures, partition_cauchy
from .kernels import (_bures_block, delta_k00_inf, delta_k11_inf, hatted,
                      sigma_k01_inf)
from .numerics import (SkewMatrix, checked_exp, pfaffian, require_positive,
                       require_real, tanh_sinh_01, tanh_sinh_half_line)

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
    second species of the Cauchy model, and must be empty for Bures.  Any
    iterable of real points is stored as a tuple of floats.
    """

    model: str
    params: EnsembleParams
    xs: tuple[float, ...]
    ys: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.model not in _MODELS:
            raise DomainError(f"unknown model {self.model!r}")
        for key, pts in zip(("xs", "ys"), _check_points(self.xs, self.ys)):
            object.__setattr__(self, key, pts)
        if self.model == "bures" and self.ys:
            raise DomainError("the Bures model has one species: pass xs only")
        if max(len(self.xs), len(self.ys)) > self.params.n:
            raise DimensionError("more points than eigenvalues")


def _check_points(*species) -> list:
    """Each species' points as floats (require_positive); DomainError
    unless each species is a sequence of pairwise different points."""
    try:
        species = [tuple(require_positive("points", *pts)) for pts in species]
    except TypeError:  # a species that is no sequence, as 0.7 or None
        raise DomainError("points must be a sequence of real "
                          "numbers") from None
    if any(len(set(pts)) != len(pts) for pts in species):
        raise DomainError("points must be pairwise different")
    return species


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

def _bures_pfaffian(zs, dk11, dk00, sk01) -> float:
    """k-point Bures correlation from its block functions of (z_i, z_j),
    kernels._bures_block of each kind over the Cauchy pair (a, a+1).

    The 2k x 2k skew matrix is [[dK11, sK01], [-sK01^T, dK00]]; only its
    strict upper triangle is filled, and SkewMatrix makes the lower-left
    block the negative transpose of the upper-right one, which is what
    exact antisymmetry requires.  The prefactor is (-1)^{k(k-1)/2} / 2^k,
    the same at every matrix size.
    """
    k = len(zs)
    upper = np.zeros((2 * k, 2 * k))
    for i in range(k):
        for j in range(i + 1, k):
            upper[i, j] = dk11(zs[i], zs[j])
            upper[k + i, k + j] = dk00(zs[j], zs[i])
        for j in range(k):
            upper[i, k + j] = sk01(zs[i], zs[j])
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
    hk = partial(hatted, req.params.bures_pair(), route=route)
    return _bures_pfaffian(req.xs, *(partial(_bures_block, hk, kind)
                                     for kind in ("K11", "K00", "K01")))


def rho_bures_hard_edge(a: float, theta: float, zs) -> float:
    """Hard-edge limit of the k-point Bures correlation: rho_bures's
    Pfaffian on the blocks delta_k11_inf, delta_k00_inf, sigma_k01_inf."""
    a, theta = require_real("a and theta", a, theta)
    require_positive("a + 1 and theta", a + 1.0, theta)
    zs, = _check_points(zs)
    return _bures_pfaffian(zs, *(partial(f, a, theta) for f in (
        delta_k11_inf, delta_k00_inf, sigma_k01_inf)))


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _gamma_weight(p: float):
    """x -> x^p e^{-x}, as exp(p log x - x) so that it stays finite at every
    node of tanh_sinh_half_line."""
    return lambda x: np.exp(p * np.log(x) - x)


def _brute_pair_integral(p_exp: float, q_exp: float) -> float:
    """integral over the quadrant of x^p y^q e^{-(x+y)} / (x+y).

    Simplex substitution x = s*u, y = s*(1-u); both 1D factors are then
    integrated numerically (no gamma identities, so the route stays
    independent of the moment formulas).  The angular factor is folded
    onto u in (0, 1/2], so that both endpoint powers sit at the origin,
    where the nodes are exact.
    """
    radial = tanh_sinh_half_line(_gamma_weight(p_exp + q_exp))
    angular = 0.5 * tanh_sinh_01(
        lambda t: (0.5 * t) ** p_exp * (1.0 - 0.5 * t) ** q_exp
        + (0.5 * t) ** q_exp * (1.0 - 0.5 * t) ** p_exp)
    return radial * angular


def _brute_cauchy(params: EnsembleParams, xs, ys) -> float:
    n = params.n
    if n > 2:
        raise ComplexityError("Cauchy brute force supports N <= 2 only")
    a, b, theta = params.a, params.b, params.theta
    r, s = len(xs), len(ys)
    lxs, lys = [math.log(x) for x in xs], [math.log(y) for y in ys]
    # the weights x^a e^{-x}, y^b e^{-y} and 1/(Z (N-r)! (N-s)!) as a log,
    # to which each term adds its powers x_i^{theta tau_i}, y_j^{theta rho_j}
    log_pref = (a * sum(lxs) - sum(xs) + b * sum(lys) - sum(ys)
                - partition_cauchy(params).log_mag
                - math.lgamma(n - r + 1) - math.lgamma(n - s + 1))
    perms = [(p, _perm_sign(p)) for p in itertools.permutations(range(n))]
    total = 0.0
    for (sigma, sg1), (tau, sg2), (rho, sg3) in itertools.product(perms,
                                                                  repeat=3):
        prod = float(sg1 * sg2 * sg3)
        for i, j in enumerate(sigma):
            px, py = a + theta * tau[i], b + theta * rho[j]
            if i < r and j < s:
                prod /= xs[i] + ys[j]
            elif i < r or j < s:
                # one side at the point c, the other integrated
                c, w = ((xs[i], _gamma_weight(py)) if i < r
                        else (ys[j], _gamma_weight(px)))
                prod *= tanh_sinh_half_line(lambda t: w(t) / (c + t))
            else:
                prod *= _brute_pair_integral(px, py)
        total += prod * checked_exp("a brute-force term", log_pref + theta * (
            sum(map(mul, tau, lxs)) + sum(map(mul, rho, lys))))
    return total


def _perm_sign(perm) -> int:
    return (-1) ** sum(p > q for p, q in itertools.combinations(perm, 2))


def _bures_pair_factor(u, v, theta: float):
    """(lg, rest) with (v-u)/(v+u) (v^theta - u^theta) = e^lg * rest.

    Both differences have one sign, so the factor is |v-u|/(v+u) times
    hi^theta (1 - (lo/hi)^theta): lg = theta log hi, and rest lies in
    [0, 1) however far apart u and v are (lo/hi, which can underflow,
    enters as log lo - log hi).
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    return (theta * np.log(hi), (hi - lo) / (hi + lo)
            * -np.expm1(theta * (np.log(lo) - np.log(hi))))


def _brute_bures(params: EnsembleParams, zs) -> float:
    n, k, a, theta = params.n, len(zs), params.a, params.theta
    if n > 3:
        raise ComplexityError("Bures brute force supports N <= 3 only")
    if n - k > 2:
        raise ComplexityError("too many integrated variables: the brute route"
                              " integrates at most two (N - k <= 2)")
    # log of z^a e^{-z} / (Z (N-k)!), whose negative is density's default shift
    log_pref = (a * sum(map(math.log, zs)) - sum(zs)
                - partition_bures(params).log_mag - math.lgamma(n - k + 1))

    def density(free, shift=-log_pref):
        # e^{-shift} times the density at the integrated points `free`,
        # formed as exp(sum of logs) times the pair factors' bounded rests,
        # so that a node near 0 or far out overflows only where the
        # product itself does
        log, rest = sum((a * np.log(x) - x for x in free), -shift), 1.0
        for u, v in itertools.combinations((*zs, *free), 2):
            lg, r = _bures_pair_factor(u, v, theta)
            log, rest = log + lg, rest * r
        return np.exp(log) * rest

    if k == n:
        return float(density(()))
    if n - k == 1:
        return tanh_sinh_half_line(lambda x: density((x,)))

    def outer(x):
        # one inner integral per outer node x, scaled by x's own
        # factors and max(x, 1)^theta so that it stays O(1) and its
        # relative tolerance holds wherever x lies
        shift = (a * math.log(x) - x + theta * math.log(max(x, 1.0))
                 + sum(_bures_pair_factor(z, x, theta)[0] for z in zs))
        return np.exp(log_pref + shift) * tanh_sinh_half_line(
            lambda y: density((x, y), shift))
    return tanh_sinh_half_line(lambda xs: np.array([outer(x) for x in xs]))


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
