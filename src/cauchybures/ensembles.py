"""Ensemble parameters, bimoment matrices, and partition functions.

Covers the theta-deformed Cauchy two-matrix model and the theta-deformed
Bures ensemble.  Every partition function is computable by two
independent routes, chosen by `route=` (closed product vs determinant,
Schur product vs the squared identity), which `cli verify` and the test
suite cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .exceptions import DomainError, SignError
from .numerics import LogValue, checked_exp, require_integer, require_positive

__all__ = [
    "EnsembleParams",
    "moment_c",
    "moment_b",
    "moment_b_vec",
    "partition_cauchy",
    "partition_bures",
]


@dataclass(frozen=True)
class EnsembleParams:
    """Parameter tuple (a, b, theta, n) with derived exponents.

    alpha = (a+b+1)/theta - 1 governs the t-integral weight, beta is the
    partition-product exponent.
    """

    a: float
    b: float
    theta: float
    n: int

    def __post_init__(self):
        for key in ("a", "b", "theta"):
            try:  # x + 0.0 is a number's float, a TypeError for a Decimal
                object.__setattr__(self, key, float(getattr(self, key) + 0.0))
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"{key} must be a real number in double "
                                  f"range") from None
        require_positive("a + 1, b + 1", self.a + 1.0, self.b + 1.0)
        if self.a + self.b <= -1.0:
            # the 1/(x+y) factor makes every Cauchy bimoment diverge there
            raise DomainError("a + b must exceed -1")
        require_positive("theta", self.theta)
        require_integer("n", self.n, least=1)

    @property
    def alpha(self) -> float:
        return (self.a + self.b + 1.0) / self.theta - 1.0

    @property
    def beta(self) -> float:
        return (1.0 + self.a + self.b) / self.theta

    def with_n(self, n: int) -> "EnsembleParams":
        return EnsembleParams(self.a, self.b, self.theta, n)

    def bures_pair(self) -> "EnsembleParams":
        """Cauchy parameters (a, a+1) entering every Bures identity."""
        return EnsembleParams(self.a, self.a + 1.0, self.theta, self.n)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def moment_c(params: EnsembleParams, j: int, k: int) -> float:
    """Cauchy bimoment I_{j,k} = G(a+t(j-1)+1) G(b+t(k-1)+1) / (1+a+b+t(j+k-2))."""
    require_integer("moment index", j, k, least=1)
    a, b, theta = params.a, params.b, params.theta
    denom = 1.0 + a + b + theta * (j + k - 2)
    return checked_exp("a moment", math.lgamma(a + theta * (j - 1) + 1.0)
                       + math.lgamma(b + theta * (k - 1) + 1.0)
                       - math.log(denom))


def moment_b_vec(params: EnsembleParams, j: int) -> float:
    """Scalar Bures moment i_j = Gamma(a + theta*(j-1) + 1)."""
    require_integer("moment index", j, least=1)
    return checked_exp("a moment",
                       math.lgamma(params.a + params.theta * (j - 1) + 1.0))


def moment_b(params: EnsembleParams, j: int, k: int) -> float:
    """Skew Bures bimoment via 2 I^C_{j,k}(a, a+1) = I^B_{j,k} + i_j i_k."""
    require_integer("moment index", j, k, least=1)
    if j == k:
        return 0.0
    cp = params.bures_pair()
    # i_j i_k > I^C_{j,k} may overflow alone
    return checked_exp(f"moment_b({j}, {k})", 2.0 * moment_c(cp, j, k)
                       - moment_b_vec(params, j) * moment_b_vec(params, k),
                       power=float)


# ---------------------------------------------------------------------------
# Cauchy partition function
# ---------------------------------------------------------------------------

def _log_gamma_prefactor(params: EnsembleParams) -> float:
    """log prod_j Gamma(a+theta(j-1)+1) Gamma(b+theta(j-1)+1)."""
    a, b, theta = params.a, params.b, params.theta
    log = 0.0
    for j in range(1, params.n + 1):
        log += (math.lgamma(a + theta * (j - 1) + 1.0)
                + math.lgamma(b + theta * (j - 1) + 1.0))
    return log


def _log_core_product(beta: float, theta: float, n: int,
                      log: float = 0.0) -> float:
    """log + log det[1/(theta(beta+j+k-2))] by its Cauchy-type product.

    Accumulating onto log keeps partition_cauchy's summation order.
    """
    log -= n * math.log(theta)
    for l in range(1, n):
        log += 2.0 * math.lgamma(l + 1)
    for k in range(1, n + 1):
        log += math.lgamma(beta + k - 1.0) - math.lgamma(beta + k + n - 1.0)
    return log


def _log_core_det(beta: float, theta: float, n: int) -> tuple[int, float]:
    """(sign, log |det[1/(theta(beta+j+k-2))]|), j, k <= n, exactly.

    beta is read as the number its float denotes, p/q, so that the entry
    at m = j + k - 2 is q / (theta d_m), d_m = p + m q.  Row j times
    prod_k d_{j+k-2} makes every entry an integer, and fraction-free
    (Bareiss) elimination gives their determinant exactly, so only the
    final log rounds.  The core is a Cauchy matrix with beta > 0, every
    leading minor positive; a zero pivot raises SignError all the same.
    """
    p, q = beta.as_integer_ratio()
    d = [p + m * q for m in range(2 * n - 1)]
    scales = [math.prod(d[j:j + n]) for j in range(n)]
    rows = [[s // d[j + k] for k in range(n)] for j, s in enumerate(scales)]
    prev = 1  # the last pivot is the determinant
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if not pivot:
            raise SignError("singular moment core matrix")
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    det, den = prev * q ** n, math.prod(scales)
    # |det| / den = r 2^e with r in (1/2, 2), as one correctly rounded double
    e = abs(det).bit_length() - den.bit_length()
    r = (abs(det) << max(-e, 0)) / (den << max(e, 0))
    return (1 if det > 0 else -1,
            math.log(r) + e * math.log(2.0) - n * math.log(theta))


def partition_cauchy(params: EnsembleParams,
                     route: str = "product") -> LogValue:
    """Cauchy partition function by its closed product or its determinant.

    route="product" is the closed product form; non-integer factorials
    are read as gamma functions: (beta+k-2)! -> Gamma(beta+k-1).
    route="det" is the moment determinant, the gamma prefactors pulled
    out of the core det[1/(theta(beta+j+k-2))]: the core exactly
    (_log_core_det) for n <= 8, and above that by the closed product, so
    there it is no independent check.
    """
    beta, theta, n = params.beta, params.theta, params.n
    if route == "product":
        return LogValue(1, _log_core_product(beta, theta, n,
                                             _log_gamma_prefactor(params)))
    if route != "det":
        raise DomainError(f"unknown route {route!r}")
    if n > 8:
        sign, logdet = 1, _log_core_product(beta, theta, n)
    else:
        sign, logdet = _log_core_det(beta, theta, n)
    return LogValue(sign, logdet + _log_gamma_prefactor(params))


# ---------------------------------------------------------------------------
# Bures partition function
# ---------------------------------------------------------------------------

def _log_schur(xs) -> float:
    """log Pf[Gamma(x_j) Gamma(x_k) (x_k - x_j)/(x_j + x_k)] for increasing xs.

    Schur's Pfaffian identity (I. Schur, 1911) gives the product
    prod_j Gamma(x_j) prod_{j<k} (x_k - x_j)/(x_j + x_k); an odd number of
    xs borders the matrix by Gamma(x_j) and keeps the same product.
    """
    terms = [math.lgamma(x) for x in xs]
    terms += [math.log((xk - xj) / (xk + xj))
              for k, xk in enumerate(xs) for xj in xs[:k]]
    return math.fsum(terms)


def partition_bures(params: EnsembleParams,
                    route: str = "schur") -> LogValue:
    """Bures partition function by Schur's product or the squared identity.

    route="schur": Z^B_N is the (bordered) Pfaffian of the skew moments
    I^B_{j,k}, whose Schur form has x_j = a + 1 + theta*(j-1); every
    factor of the product is positive since a > -1 and theta > 0.
    route="cauchy": sqrt(2^n Z^C_n(a, a+1; theta)), the normative
    cross-check value.
    """
    if route == "cauchy":
        zc = partition_cauchy(params.bures_pair())
        return LogValue(1, 0.5 * (params.n * math.log(2.0) + zc.log_mag))
    if route != "schur":
        raise DomainError(f"unknown route {route!r}")
    xs = [params.a + 1.0 + params.theta * j for j in range(params.n)]
    return LogValue(1, _log_schur(xs))


# the verification routes under the names perfbench/tracer.py binds
partition_cauchy_det = partial(partition_cauchy, route="det")
partition_bures_squared_identity = partial(partition_bures, route="cauchy")
