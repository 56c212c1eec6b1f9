"""Christoffel-Darboux and correlation kernels with their hard-edge limits.

Every kernel is computable by at least two routes (polynomial sum,
t-integral of the contour functions, double residue expansion, or direct
semi-axis quadrature against the CD kernel) so the routes can be played
against each other in the tests.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath
import numpy as np
from scipy import integrate

from .exceptions import (ComplexityError, DomainError, NonConverged,
                         SingularPointError)
from .ensembles import EnsembleParams
from .foxh import g_inf, g_n, g_n_coeffs, g_tilde_inf, g_tilde_n
from .numerics import (LogValue, gauss_jacobi, refine_quadrature,
                       tanh_sinh_01)
from .polynomials import p_hat, q_hat

__all__ = [
    "cd_kernel",
    "cd_kernel_log",
    "cd_hard_scaled",
    "k01",
    "k10",
    "k11",
    "hatted",
    "hard_edge_kernel",
    "delta_k00_inf",
    "delta_k11_inf",
    "sigma_k01_inf",
    "KernelGrid",
    "make_grid",
    "i1_integral",
]

_SINGULAR_TOL = 1e-12


# ---------------------------------------------------------------------------
# Christoffel-Darboux kernel, three strategies
# ---------------------------------------------------------------------------

def _cd_sum(params: EnsembleParams, x: float, y: float) -> float:
    a, b, theta, n = params.a, params.b, params.theta, params.n
    xt, yt = x ** theta, y ** theta
    total = 0.0
    for m in range(n):
        h_m = theta / (2.0 * m * theta + a + b + 1.0)
        total += (theta / h_m) * p_hat(params, m)(xt) * q_hat(params, m)(yt)
    return total


def cd_kernel_log(params: EnsembleParams, x: float, y: float) -> LogValue:
    """Double residue expansion of the two-contour kernel integral.

    K_N(x,y) = theta * sum_{j,k<N} cP_j cQ_k x^{theta j} y^{theta k}
    / (1 + alpha + j + k), carried in signed-log arithmetic so the
    hard-edge rescaled evaluations (x ~ N^{-2/theta}) do not underflow.
    """
    a, b, theta, n = params.a, params.b, params.theta, params.n
    alpha = params.alpha
    cp = g_n_coeffs(a, alpha, theta, n)
    cq = g_n_coeffs(b, alpha, theta, n)
    log_xt = theta * math.log(x)
    log_yt = theta * math.log(y)
    log_theta = math.log(theta)
    terms = []
    for j in range(n):
        for k in range(n):
            lv = cp[j] * cq[k]
            log = (lv.log_mag + j * log_xt + k * log_yt + log_theta
                   - math.log(1.0 + alpha + j + k))
            terms.append(LogValue(lv.sign, log))
    return LogValue.sum(terms)


def cd_kernel(params: EnsembleParams, x: float, y: float,
              strategy: str = "auto") -> float:
    """CD kernel K_N(x, y); strategies sum | tintegral | doublecontour."""
    if x <= 0 or y <= 0:
        raise DomainError("kernel arguments must be positive")
    if strategy == "auto":
        strategy = "sum" if params.n < 20 else "doublecontour"
    if strategy == "sum":
        return _cd_sum(params, x, y)
    if strategy == "tintegral":
        return _kernel(params.a, params.b, params.theta, params.n, "K00",
                       x, y)
    if strategy == "doublecontour":
        return cd_kernel_log(params, x, y).to_real()
    raise DomainError(f"unknown strategy {strategy!r}")


def cd_hard_scaled(params: EnsembleParams, x_hard: float, y_hard: float) -> float:
    """N^{-2(alpha+1)} K_N(X N^{-2/theta}, Y N^{-2/theta}) without under/overflow."""
    n, theta = params.n, params.theta
    scale = n ** (-2.0 / theta)
    val = cd_kernel_log(params, x_hard * scale, y_hard * scale)
    if val.sign == 0:
        return 0.0
    log_n = math.log(n)
    return val.sign * math.exp(val.log_mag - 2.0 * (params.alpha + 1.0) * log_n)


# ---------------------------------------------------------------------------
# t-integrals of G / G~ products
# ---------------------------------------------------------------------------

def _gg_t_integral(alpha: float, f1: Callable, z1: float, f2: Callable,
                   z2: float, rtol: float = 1e-10) -> float:
    """integral_0^1 t^alpha f1(t z1) f2(t z2) dt by tanh-sinh quadrature.

    tanh-sinh rather than a fixed Gauss-Jacobi weight because the G~
    factors carry algebraic t^{-a/theta} endpoint behavior that defeats
    any single polynomial weight.  f1 and f2 take arrays, so each
    tanh-sinh level costs one call of each, on that level's new nodes.
    """
    def integrand(t: np.ndarray) -> np.ndarray:
        # the combination t^alpha G G~ vanishes at least algebraically at
        # t = 0, but the G~ factor alone can overflow at the extreme
        # double-exponential nodes; those contribute below rounding
        out = np.zeros(len(t))
        keep = t >= 1e-60
        t = t[keep]
        out[keep] = t ** alpha * f1(t * z1) * f2(t * z2)
        return out

    return tanh_sinh_01(integrand, rtol=rtol)


def _g_fn(tilde: bool, a: float, alpha: float, theta: float,
          n: Optional[int]):
    """z -> G_n (or G~_n with tilde); G_inf (G~_inf) for n=None."""
    if n is None:
        g = g_tilde_inf if tilde else g_inf
        return lambda z: g(a, alpha, theta, z)
    g = g_tilde_n if tilde else g_n
    return lambda z: g(a, alpha, theta, n, z)


def _gg_jacobi_integral(a: float, b: float, alpha: float, theta: float,
                        n: Optional[int], u: float, v: float) -> float:
    """integral_0^1 t^alpha G_a(t u) G_b(t v) dt by Gauss-Jacobi refinement.

    G is G_n, or the hard-edge G_inf for n=None; both are entire, so the
    t^alpha weight is the only endpoint behavior.  Callers apply theta.
    """
    g1 = _g_fn(False, a, alpha, theta, n)
    g2 = _g_fn(False, b, alpha, theta, n)

    def value_at(order: int) -> float:
        rule = gauss_jacobi(order, alpha)
        return float(rule.weights @ (g1(rule.nodes * u) * g2(rule.nodes * v)))

    return refine_quadrature(
        value_at, start_order=16 if n is None else max(16, n + 4))


# which factor of each kind is the companion G~ (first, second)
_TILDE = {"K01": (False, True), "K10": (True, False), "K11": (True, True)}


def _kernel(a: float, b: float, theta: float, n: Optional[int], kind: str,
            x1: float, x2: float):
    """Exponent-free kernel of the pair (a, b): finite n, or n=None.

    With alpha = (a+b+1)/theta - 1 and u_i = x_i^theta:
      K00: theta int_0^1 t^alpha G_a(t u1) G_b(t u2) dt (Gauss-Jacobi),
      K01: theta x2^b int t^alpha G_a G~_b,  K10: theta x1^a int t^alpha
      G~_a G_b,  K11: theta x1^a x2^b int t^alpha G~_a G~_b (tanh-sinh).
    G, G~ are G_n, G~_n, or the hard-edge G_inf, G~_inf for n=None.  For
    finite n the K11 smooth part is the exact residue core (mpmath value,
    see _k11_inc_core) instead.  The finite-N K01/K10/K11 carry a further
    e^{x2} / e^{x1} / e^{x1+x2}, which the callers apply.
    """
    alpha = (a + b + 1.0) / theta - 1.0
    if kind == "K00":
        return theta * _gg_jacobi_integral(a, b, alpha, theta, n,
                                           x1 ** theta, x2 ** theta)
    if kind not in _TILDE:
        raise DomainError(f"unknown kernel kind {kind!r}")
    if kind == "K11" and n is not None:
        return _k11_inc_core(a, b, alpha, theta, n, x1, x2)
    tilde1, tilde2 = _TILDE[kind]
    val = _gg_t_integral(alpha, _g_fn(tilde1, a, alpha, theta, n),
                         x1 ** theta, _g_fn(tilde2, b, alpha, theta, n),
                         x2 ** theta)
    weight = theta
    if tilde2:
        weight *= x2 ** b
    if tilde1:
        weight *= x1 ** a
    return weight * val


# ---------------------------------------------------------------------------
# correlation kernels K01 / K10 / K11
# ---------------------------------------------------------------------------

def i1_integral(beta: float, c: float) -> float:
    """integral_0^infty y^beta e^{-y} / (c + y) dy, split at y = c.

    Below the split the substitution y = c*u gives a Jacobi-weight
    integral; above it, y = c + s gives a shifted Laguerre one.  Raises
    ComplexityError when y^beta overflows a double (beta above ~115).
    """
    if c <= 0:
        raise DomainError("c must be positive")
    if beta <= -1.0:
        raise DomainError("beta must exceed -1")

    def lower(order: int) -> float:
        rule = gauss_jacobi(order, beta)
        vals = np.exp(-c * rule.nodes) / (1.0 + rule.nodes)
        return c ** beta * float(rule.weights @ vals)

    # above the split the integrand is regular but has structure on the
    # scale of c near y = c, so a fixed Gauss rule stalls for small c;
    # adaptive quadrature handles both that and the e^{-y} tail
    hi = c + 60.0 + 2.0 * beta + 10.0 * math.sqrt(max(beta, 1.0))
    try:
        upper_val, _ = integrate.quad(
            lambda yv: yv ** beta * math.exp(-yv) / (c + yv), c, hi,
            limit=200, epsabs=1e-13, epsrel=1e-11)
        return refine_quadrature(lower) + upper_val
    except OverflowError:
        raise ComplexityError(
            f"i1_integral: y^beta overflows a double at beta = {beta:g} "
            f"(c = {c:g})") from None


def _cd_coeff_table(params: EnsembleParams):
    """theta * cP_j * cQ_k / (1 + alpha + j + k) as plain floats."""
    alpha = params.alpha
    cp = [c.to_real() for c in g_n_coeffs(params.a, alpha, params.theta,
                                          params.n)]
    cq = [c.to_real() for c in g_n_coeffs(params.b, alpha, params.theta,
                                          params.n)]
    n = params.n
    return [[params.theta * cp[j] * cq[k] / (1.0 + alpha + j + k)
             for k in range(n)] for j in range(n)]


def k01(params: EnsembleParams, x: float, xp: float,
        route: str = "tintegral") -> float:
    """K01(x, x') = integral of K_N(x, y) y^b e^{-y} / (x' + y) dy."""
    if x <= 0 or xp <= 0:
        raise DomainError("kernel arguments must be positive")
    a, b, theta, n = params.a, params.b, params.theta, params.n
    if route == "tintegral":
        return math.exp(xp) * _kernel(a, b, theta, n, "K01", x, xp)
    if route == "direct":
        table = _cd_coeff_table(params)
        xt = x ** theta
        i1 = [i1_integral(b + theta * k, xp) for k in range(n)]
        total = 0.0
        for j in range(n):
            xj = xt ** j
            for k in range(n):
                total += table[j][k] * xj * i1[k]
        return total
    raise DomainError(f"unknown route {route!r}")


def k10(params: EnsembleParams, y: float, yp: float,
        route: str = "tintegral") -> float:
    """K10(y, y') = integral of K_N(x, y') x^a e^{-x} / (x + y) dx."""
    if y <= 0 or yp <= 0:
        raise DomainError("kernel arguments must be positive")
    a, b, theta, n = params.a, params.b, params.theta, params.n
    if route == "tintegral":
        return math.exp(y) * _kernel(a, b, theta, n, "K10", y, yp)
    if route == "direct":
        table = _cd_coeff_table(params)
        yt = yp ** theta
        total = 0.0
        for j in range(n):
            i1 = i1_integral(a + theta * j, y)
            for k in range(n):
                total += table[j][k] * yt ** k * i1
        return total
    raise DomainError(f"unknown route {route!r}")


def _k11_inc_core(a: float, b: float, alpha: float, theta: float, n: int,
                  y: float, x: float):
    """Double residue sum for the regular part of K11, as an mpmath value.

    Integrating the double-contour kernel against both resolvent factors
    turns each gamma denominator into an upper incomplete gamma
    Gamma(-theta*j - a, y), which is entire in the contour variable, so
    only the Gamma(u) pole family contributes and the sum is finite:

        sum_{j,k} A_j(y) B_k(x) y^{theta j} x^{theta k} / (1+alpha+j+k),
        A_j(w) = (-1)^j/j! Gamma(alpha+N+1+j) Gamma(-theta*j - a, w)
                 / (Gamma(N-j) Gamma(alpha+1+j)).

    Dropping the incomplete-gamma tails is only valid asymptotically, so
    this exact form replaces the companion-function product here.
    """
    # the double sum cancels roughly as 16^N (each factor contributes ~4^N),
    # so precision must grow with N for the O(1) result to survive
    with mpmath.workdps(40 + int(1.5 * n)):
        # exponents like theta*j must be formed in working precision: the
        # sum cancels ~4^N deep, and rounding each exponent to a double
        # independently perturbs the terms incoherently, which shows up
        # at full term magnitude instead of cancelling
        th = mpmath.mpf(theta)
        al = mpmath.mpf(alpha)

        def col(aa, w):
            w = mpmath.mpf(w)
            out = []
            for j in range(n):
                c = ((-1) ** j / mpmath.factorial(j)
                     * mpmath.gamma(al + (n + 1 + j))
                     / (mpmath.gamma(n - j) * mpmath.gamma(al + (1 + j))))
                out.append(c * mpmath.gammainc(-th * j - aa, w)
                           * w ** (th * j))
            return out

        ay = col(a, y)
        bx = col(b, x)
        total = mpmath.mpf(0)
        for j in range(n):
            for k in range(n):
                total += ay[j] * bx[k] / (al + (1 + j + k))
    return total


def k11(params: EnsembleParams, y: float, x: float,
        route: str = "tintegral") -> float:
    """K11(y, x): doubly integrated kernel minus the 1/(x+y) singularity."""
    if y <= 0 or x <= 0:
        raise DomainError("kernel arguments must be positive")
    if x + y < _SINGULAR_TOL:
        raise SingularPointError("x + y below the singularity cutoff")
    a, b, theta, n = params.a, params.b, params.theta, params.n
    if route == "tintegral":
        core = _kernel(a, b, theta, n, "K11", y, x)
        val = (theta * mpmath.e ** (x + y) * mpmath.mpf(y) ** a
               * mpmath.mpf(x) ** b * core - 1.0 / mpmath.mpf(x + y))
        return float(val)
    if route == "direct":
        table = _cd_coeff_table(params)
        i1x = [i1_integral(b + theta * k, x) for k in range(n)]
        total = 0.0
        for j in range(n):
            i1j = i1_integral(a + theta * j, y)
            for k in range(n):
                total += table[j][k] * i1j * i1x[k]
        return total - 1.0 / (x + y)
    raise DomainError(f"unknown route {route!r}")


def hatted(params: EnsembleParams, kind: str, p1: float, p2: float,
           route: str = "tintegral") -> float:
    """Weight-dressed kernels absorbing the correlation prefactors.

    K00 is unchanged; the others are multiplied by the one-point weights
    of their integrated species.
    """
    a, b = params.a, params.b
    if kind == "K00":
        return cd_kernel(params, p1, p2)
    if kind == "K01":
        return math.exp(-p2) * p2 ** a * k01(params, p1, p2, route)
    if kind == "K10":
        return math.exp(-p1) * p1 ** b * k10(params, p1, p2, route)
    if kind == "K11":
        return (math.exp(-(p1 + p2)) * p2 ** a * p1 ** b
                * k11(params, p1, p2, route))
    raise DomainError(f"unknown kernel kind {kind!r}")


# ---------------------------------------------------------------------------
# hard-edge limits
# ---------------------------------------------------------------------------

def hard_edge_kernel(a: float, b: float, theta: float, kind: str,
                     x1: float, x2: float) -> float:
    """Hard-edge limits: the exponent-free kernels at n=None.

    K00: (X, Y); K01: (X, X'); K10: (Y, Y'); K11 smooth part: (Y, X).
    """
    if x1 <= 0 or x2 <= 0:
        raise DomainError("kernel arguments must be positive")
    return _kernel(a, b, theta, None, kind, x1, x2)


# ---------------------------------------------------------------------------
# hard-edge Bures kernel blocks (Cauchy pair (a, a+1))
# ---------------------------------------------------------------------------

def delta_k00_inf(a: float, theta: float, zi: float, zj: float) -> float:
    """Hard-edge antisymmetrized CD kernel K00(z_i, z_j) - K00(z_j, z_i)."""
    return (hard_edge_kernel(a, a + 1.0, theta, "K00", zi, zj)
            - hard_edge_kernel(a, a + 1.0, theta, "K00", zj, zi))


def sigma_k01_inf(a: float, theta: float, zi: float, zj: float) -> float:
    """Hard-edge off-diagonal Bures block.

    z_i^a K01(z_j, z_i) + z_i^{a+1} K10(z_i, z_j), the weights of hatted
    without their exponentials.
    """
    b = a + 1.0
    return (zi ** a * hard_edge_kernel(a, b, theta, "K01", zj, zi)
            + zi ** b * hard_edge_kernel(a, b, theta, "K10", zi, zj))


def delta_k11_inf(a: float, theta: float, zi: float, zj: float) -> float:
    """Hard-edge antisymmetrized doubly-integrated kernel, Bures pair.

    Both the smooth part and the rational part of the finite-N kernel
    survive the limit at the same order, so both appear here.
    """
    b = a + 1.0
    smooth = (
        zj ** a * zi ** b * hard_edge_kernel(a, b, theta, "K11", zi, zj)
        - zi ** a * zj ** b * hard_edge_kernel(a, b, theta, "K11", zj, zi))
    rational = (zj ** a * zi ** b - zi ** a * zj ** b) / (zi + zj)
    return smooth - rational


# ---------------------------------------------------------------------------
# kernel grids and serialization
# ---------------------------------------------------------------------------

@dataclass
class KernelGrid:
    """Rectangular table of kernel values with evaluation metadata."""

    kind: str
    params: dict
    xs: list
    ys: list
    values: list  # row-major, len(xs) rows of len(ys)
    scaling: dict = field(default_factory=dict)

    def __post_init__(self):
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise DomainError("grid axes must be strictly increasing")
        if np.any(xs <= 0) or np.any(ys <= 0):
            raise DomainError("grid points must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (len(xs), len(ys)):
            raise DomainError("values shape mismatch")
        if not np.all(np.isfinite(vals)):
            raise NonConverged("non-finite kernel value on the grid")

    def to_csv(self) -> str:
        meta = {"kind": self.kind, "params": self.params,
                "scaling": self.scaling}
        lines = ["# " + json.dumps(meta, sort_keys=True), "x,y,value"]
        for i, x in enumerate(self.xs):
            for j, y in enumerate(self.ys):
                lines.append(f"{x!r},{y!r},{self.values[i][j]!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "params": self.params,
            "scaling": self.scaling,
            "xs": [repr(x) for x in self.xs],
            "ys": [repr(y) for y in self.ys],
            "values": [[repr(v) for v in row] for row in self.values],
        }, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "KernelGrid":
        d = json.loads(text)
        return cls(kind=d["kind"], params=d["params"], scaling=d["scaling"],
                   xs=[float(x) for x in d["xs"]],
                   ys=[float(y) for y in d["ys"]],
                   values=[[float(v) for v in row] for row in d["values"]])


def make_grid(kind: str, xs, ys, evaluator: Callable[[float, float], float],
              params: dict, scaling: Optional[dict] = None) -> KernelGrid:
    values = [[float(evaluator(float(x), float(y))) for y in ys] for x in xs]
    return KernelGrid(kind=kind, params=params, xs=[float(x) for x in xs],
                      ys=[float(y) for y in ys], values=values,
                      scaling=scaling or {})
