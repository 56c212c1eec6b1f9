"""High-precision reference formulas (mpmath) for the frozen references.

Each function evaluates a closed formula of the model at a working
precision chosen by the caller; ``confirmed`` re-evaluates at higher
precision and checks that the two agree, so a reference never carries the
cancellation it is meant to expose.
"""
from __future__ import annotations

import mpmath as mp


def confirmed(fn, dps: int, *args, extra: int = 30, rel: float = 1e-25):
    """fn(*args) at dps digits, checked against the same at dps + extra."""
    with mp.workdps(dps):
        lo = fn(*args)
    with mp.workdps(dps + extra):
        hi = fn(*args)
    scale = max(abs(hi), mp.mpf(10) ** (-dps // 2))
    if abs(lo - hi) > rel * scale:
        raise AssertionError(f"{fn.__name__}{args}: precision not settled "
                             f"({mp.nstr(lo, 20)} vs {mp.nstr(hi, 20)})")
    return hi


def dps_for(n: int) -> int:
    """Working digits for the N x N double sums, which cancel like 16^N."""
    return 40 + 2 * n


def alpha(a, b, theta):
    return (mp.mpf(a) + mp.mpf(b) + 1) / mp.mpf(theta) - 1


def gn_coeffs(a, al, theta, n):
    """(-1)^k/k! G(al+n+1+k) / (G(n-k) G(al+1+k) G(a+theta k+1)), k < n."""
    a, theta = mp.mpf(a), mp.mpf(theta)
    return [(-1) ** k / mp.factorial(k) * mp.gamma(al + n + 1 + k)
            / (mp.gamma(n - k) * mp.gamma(al + 1 + k)
               * mp.gamma(a + theta * k + 1)) for k in range(n)]


def _table(p):
    a, b, theta, n = p
    al = alpha(a, b, theta)
    cp = gn_coeffs(a, al, theta, n)
    cq = gn_coeffs(b, al, theta, n)
    th = mp.mpf(theta)
    return [[th * cp[j] * cq[k] / (1 + al + j + k) for k in range(n)]
            for j in range(n)]


def i1(beta, c):
    """int_0^inf y^beta e^-y/(c+y) dy = G(beta+1) c^beta e^c G(-beta, c)."""
    beta, c = mp.mpf(beta), mp.mpf(c)
    return mp.gamma(beta + 1) * c ** beta * mp.exp(c) * mp.gammainc(-beta, c)


def cd(p, x, y):
    """Christoffel-Darboux kernel as its double residue sum."""
    a, b, theta, n = p
    th = mp.mpf(theta)
    t = _table(p)
    xs = [mp.mpf(x) ** (th * j) for j in range(n)]
    ys = [mp.mpf(y) ** (th * k) for k in range(n)]
    return mp.fsum(t[j][k] * xs[j] * ys[k] for j in range(n) for k in range(n))


def cd_hard_scaled(p, xh, yh):
    a, b, theta, n = p
    th = mp.mpf(theta)
    scale = mp.mpf(n) ** (-2 / th)
    al = alpha(a, b, theta)
    return mp.mpf(n) ** (-2 * (al + 1)) * cd(p, mp.mpf(xh) * scale,
                                              mp.mpf(yh) * scale)


def k01(p, x, xp):
    a, b, theta, n = p
    th = mp.mpf(theta)
    t = _table(p)
    xs = [mp.mpf(x) ** (th * j) for j in range(n)]
    ib = [i1(mp.mpf(b) + th * k, xp) for k in range(n)]
    return mp.fsum(t[j][k] * xs[j] * ib[k] for j in range(n) for k in range(n))


def k10(p, y, yp):
    a, b, theta, n = p
    th = mp.mpf(theta)
    t = _table(p)
    ia = [i1(mp.mpf(a) + th * j, y) for j in range(n)]
    ys = [mp.mpf(yp) ** (th * k) for k in range(n)]
    return mp.fsum(t[j][k] * ia[j] * ys[k] for j in range(n) for k in range(n))


def k11(p, y, x):
    a, b, theta, n = p
    th = mp.mpf(theta)
    t = _table(p)
    ia = [i1(mp.mpf(a) + th * j, y) for j in range(n)]
    ib = [i1(mp.mpf(b) + th * k, x) for k in range(n)]
    total = mp.fsum(t[j][k] * ia[j] * ib[k]
                    for j in range(n) for k in range(n))
    return total - 1 / (mp.mpf(x) + mp.mpf(y))


def hatted(p, kind, p1, p2):
    a, b = mp.mpf(p[0]), mp.mpf(p[1])
    u, v = mp.mpf(p1), mp.mpf(p2)
    if kind == "K00":
        return cd(p, p1, p2)
    if kind == "K01":
        return mp.exp(-v) * v ** a * k01(p, p1, p2)
    if kind == "K10":
        return mp.exp(-u) * u ** b * k10(p, p1, p2)
    return mp.exp(-(u + v)) * v ** a * u ** b * k11(p, p1, p2)


def rho_cauchy(p, xs, ys):
    """(r, s)-point correlation: determinant of hatted kernel blocks."""
    r, s = len(xs), len(ys)
    m = mp.matrix(r + s, r + s)
    for i in range(r):
        for j in range(r):
            m[i, j] = hatted(p, "K01", xs[i], xs[j])
        for j in range(s):
            m[i, r + j] = hatted(p, "K00", xs[i], ys[j])
    for i in range(s):
        for j in range(r):
            m[r + i, j] = hatted(p, "K11", ys[i], xs[j])
        for j in range(s):
            m[r + i, r + j] = hatted(p, "K10", ys[i], ys[j])
    return mp.det(m)


def rho_bures(p, zs):
    """k-point Bures correlation (k <= 2) from the Cauchy pair (a, a+1)."""
    a, _, theta, n = p
    pp = (a, a + 1.0, theta, n)
    k = len(zs)

    def sk01(zi, zj):
        return hatted(pp, "K01", zj, zi) + hatted(pp, "K10", zi, zj)

    if k == 1:
        return sk01(zs[0], zs[0]) / 2
    if k != 2:
        raise ValueError("reference Pfaffian implemented for k <= 2")
    z0, z1 = zs
    u = {}
    u[0, 1] = hatted(pp, "K11", z0, z1) - hatted(pp, "K11", z1, z0)
    u[2, 3] = hatted(pp, "K00", z1, z0) - hatted(pp, "K00", z0, z1)
    for i in range(2):
        for j in range(2):
            u[i, 2 + j] = sk01(zs[i], zs[j])
    pf = u[0, 1] * u[2, 3] - u[0, 2] * u[1, 3] + u[0, 3] * u[1, 2]
    return -pf / 4


def log_partition_cauchy(p):
    """log Z^C_N from the closed product."""
    a, b, theta, n = (mp.mpf(p[0]), mp.mpf(p[1]), mp.mpf(p[2]), p[3])
    beta = (1 + a + b) / theta
    log = mp.mpf(0)
    for j in range(1, n + 1):
        log += mp.loggamma(a + theta * (j - 1) + 1) + mp.loggamma(
            b + theta * (j - 1) + 1)
    log -= n * mp.log(theta)
    for l in range(1, n):
        log += 2 * mp.loggamma(l + 1)
    for k in range(1, n + 1):
        log += mp.loggamma(beta + k - 1) - mp.loggamma(beta + k + n - 1)
    return log


def log_det_cauchy_moments(p):
    """log det of the bimoment matrix, an independent check of the product."""
    a, b, theta, n = (mp.mpf(p[0]), mp.mpf(p[1]), mp.mpf(p[2]), p[3])
    m = mp.matrix(n, n)
    for j in range(n):
        for k in range(n):
            m[j, k] = (mp.gamma(a + theta * j + 1)
                       * mp.gamma(b + theta * k + 1)
                       / (1 + a + b + theta * (j + k)))
    return mp.log(mp.det(m))


def log_partition_bures(p):
    """log sqrt(2^N Z^C_N(a, a+1; theta))."""
    a, _, theta, n = p
    return (n * mp.log(2) + log_partition_cauchy((a, a + 1.0, theta, n))) / 2


def log_abs_pfaffian_bures_moments(p):
    """log |Pf| of the (bordered) skew Bures moments via Pf^2 = det."""
    a, theta, n = mp.mpf(p[0]), mp.mpf(p[2]), p[3]
    gam = [mp.gamma(a + theta * j + 1) for j in range(n)]
    # I^B_jk = 2 I^C_jk(a, a+1) - i_j i_k, with
    # I^C_jk(a, a+1) = G(a+tj+1) G(a+tk+2) / (2+2a+t(j+k))
    off = 0 if n % 2 == 0 else 1
    size = n + off
    m = mp.matrix(size, size)
    for j in range(n):
        for k in range(j + 1, n):
            val = 2 * (gam[j] * mp.gamma(a + 1 + theta * k + 1)
                       / (2 + 2 * a + theta * (j + k))) - gam[j] * gam[k]
            m[j + off, k + off] = val
            m[k + off, j + off] = -val
    if off:
        for j in range(n):
            m[0, j + 1] = gam[j]
            m[j + 1, 0] = -gam[j]
    return mp.log(abs(mp.det(m))) / 2


def bessel_k0_spec(z: float):
    """specs/bessel_k0.json: H^{2,0}_{0,2}[z | (0,1),(0,1)] = 2 K_0(2 sqrt z)."""
    return 2 * mp.besselk(0, 2 * mp.sqrt(mp.mpf(z)))
