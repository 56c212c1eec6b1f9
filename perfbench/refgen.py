"""Write the frozen reference pools under refs/.

    python3 perfbench/refgen.py [workload ...]

Run once, from the repository root; timed runs only read the files.  For
every workload the generator draws a pool of cases per slot from a fixed
generator seed, computes each reference by a route independent of the
value under test, and records how:

* ``mpmath``: a closed formula of the model at 40 + 2N working digits,
  confirmed at 30 more, and for partition functions cross-checked
  against a high-precision determinant or Pfaffian of the moments;
* ``route=hankel``: the library's Hankel-loop evaluation of every G~
  factor, against the residue series the op itself uses;
* ``seed value``: the library's own value, only for hard-edge kernels on
  the Hankel path, where no independent route exists yet.

It then runs each case once against the library as it is and records
whether the op passes (``expect``); known defects are kept as expected
failures, never dropped.  For the ``tint_*`` workloads it checks the
pole-family property of every parameter set: separation exactly 0 for
``tint_collide`` and above 1e-6 for ``tint_separated``.
"""
from __future__ import annotations

import json
import os
import random
import sys
import time

import mpmath as mp
import numpy as np

import mpref
import ops

REFS = os.path.join(ops.BENCH, "refs")
SPECS = "perfbench/specs"

TOL_PARTITION = 1e-8   # criterion-01 of the test suite
TOL_BURES = 1e-7       # criterion-02
TOL_CD = 1e-7          # criterion-06a
TOL_KERNEL = 1e-6      # criterion-06b, integrated kernels and correlations
TOL_FOXH = 1e-10
TOL_VERIFY = 1e-6      # the CLI's default verify tolerance

CAUCHY_PARAMS = [(0.5, 0.7, 1.5), (0.3, 0.7, 1.5), (0.4, 1.4, 1.3),
                 (0.2, 0.9, 2.0), (0.0, 0.0, 1.0)]
BURES_PARAMS = [(0.3, 1.0), (0.5, 1.0), (0.3, 1.3), (0.2, 2.0)]


def _pt(rng, lo=0.3, hi=2.0):
    return round(rng.uniform(lo, hi), 4)


def _pts(rng, k, lo=0.3, hi=2.0):
    while True:
        pts = sorted(_pt(rng, lo, hi) for _ in range(k))
        if all(b - a > 0.05 for a, b in zip(pts, pts[1:])):
            return pts


def _mp(fn, n, *args):
    return float(mpref.confirmed(fn, mpref.dps_for(n), *args))


def _mp_prov(n):
    d = mpref.dps_for(n)
    return f"mpmath closed formula at {d} digits, confirmed at {d + 30}"


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def ref_kernel(op, a):
    fn = {"k01": mpref.k01, "k10": mpref.k10, "k11": mpref.k11,
          "cd_kernel": mpref.cd, "cd_hard_scaled": mpref.cd_hard_scaled}[op]
    p = tuple(a["p"])
    return _mp(fn, p[3], p, *a["pts"]), _mp_prov(p[3])


def ref_rho(op, a):
    p = tuple(a["p"])
    if op == "rho_cauchy":
        val = _mp(mpref.rho_cauchy, p[3], p, tuple(a["xs"]), tuple(a["ys"]))
    else:
        val = _mp(mpref.rho_bures, p[3], p, tuple(a["pts"]))
    return val, _mp_prov(p[3]) + " (det/Pfaffian of mpmath kernel entries)"


def ref_partition(op, a):
    p = tuple(a["p"])
    n = p[3]
    with mp.workdps(60):
        if op.startswith("partition_cauchy"):
            log = mpref.log_partition_cauchy(p)
            prov = "mpmath closed product at 60 digits"
            if n <= 16:
                with mp.workdps(120):
                    check = mpref.log_det_cauchy_moments(p)
                _agree(log, check, p)
                prov += "; equals the 120-digit moment determinant"
        else:
            log = mpref.log_partition_bures(p)
            prov = "mpmath sqrt(2^N Z^C_N(a, a+1)) at 60 digits"
            if n <= 16:
                with mp.workdps(120):
                    check = mpref.log_abs_pfaffian_bures_moments(p)
                _agree(log, check, p)
                prov += "; equals the 120-digit moment Pfaffian"
    return {"sign": 1, "log": float(log)}, prov


def _agree(x, y, what):
    if abs(x - y) > 1e-12 * max(1, abs(x)):
        raise AssertionError(f"reference cross-check failed for {what}: "
                             f"{mp.nstr(x, 20)} vs {mp.nstr(y, 20)}")


def ref_hankel_route(cb, op, a):
    """The op with every G~ factor forced onto the Hankel loop."""
    kern = cb.kernels
    orig = kern.g_tilde_inf
    kern.g_tilde_inf = lambda aa, al, th, z: orig(aa, al, th, z,
                                                  strategy="hankel")
    try:
        val = ops.normalize(ops.call(cb, op, a))
    finally:
        kern.g_tilde_inf = orig
    return val, "library route=hankel for every G~ factor (op uses residues)"


# ---------------------------------------------------------------------------
# pole-family property
# ---------------------------------------------------------------------------

def gtilde_factor_sets(cb, op, a):
    """(num, den) of every G~ the op evaluates."""
    from cauchybures import foxh
    if op in ("k01", "k10"):
        aa, b, th, n = a["p"]
        al = cb.EnsembleParams(aa, b, th, n).alpha
        return [foxh._gtn_factors(aa if op == "k10" else b, al, th, n)]
    if op == "hard_edge_kernel":
        aa, b, th = a["abt"]
        al = (aa + b + 1.0) / th - 1.0
        use = {"K01": [b], "K10": [aa], "K11": [aa, b]}[a["kind"]]
        return [foxh._gtinf_factors(s, al, th) for s in use]
    if op == "rho_bures_hard_edge":
        aa, th = a["at"]
        al = 2.0 * (aa + 1.0) / th - 1.0
        return [foxh._gtinf_factors(s, al, th) for s in (aa, aa + 1.0)]
    return []


def check_families(cb, workload, op, a):
    from cauchybures.foxh import min_family_separation
    for num, den in gtilde_factor_sets(cb, op, a):
        sep = min_family_separation(num, den)
        if workload == "tint_collide" and sep != 0.0:
            raise SystemExit(f"tint_collide case {op} {a}: pole families "
                             f"separated by {sep}, would use residues")
        if workload == "tint_separated" and not sep > 1e-6:
            raise SystemExit(f"tint_separated case {op} {a}: pole families "
                             f"separated by only {sep}, would use Hankel")


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def tint_slots(collide: bool):
    """Same op kinds and point distribution; only the parameters differ.

    On colliding parameters each op costs 1-3 s, so that workload keeps
    the four single-G~ kernel kinds at N = 2, which fit four rounds into
    a run; with separated families N runs over 2-6 and the two-G~ kinds
    (hard-edge K11, one- and two-point hard-edge correlations) are added.
    """
    if collide:
        p10, p01 = (0.5, 0.7, 1.5), (0.3, 0.5, 1.5)
        hk10, hk01, ns = (0.5, 0.7, 1.5), (0.3, 0.7, 1.3), [2]
    else:
        p10 = p01 = hk10 = hk01 = (0.3, 0.7, 1.5)
        ns = [2, 3, 4, 5, 6]
    slots = [
        ("k10", "k10", lambda r: {"p": [*p10, r.choice(ns)],
                                  "pts": _pts(r, 2), "route": "tintegral"}),
        ("k01", "k01", lambda r: {"p": [*p01, r.choice(ns)],
                                  "pts": _pts(r, 2), "route": "tintegral"}),
        ("hard_K10", "hard_edge_kernel",
         lambda r: {"abt": list(hk10), "kind": "K10", "pts": _pts(r, 2)}),
        ("hard_K01", "hard_edge_kernel",
         lambda r: {"abt": list(hk01), "kind": "K01", "pts": _pts(r, 2)}),
    ]
    if not collide:
        slots += [
            ("hard_K11", "hard_edge_kernel",
             lambda r: {"abt": [0.3, 0.7, 1.5], "kind": "K11",
                        "pts": _pts(r, 2)}),
            ("rho_hard_1", "rho_bures_hard_edge",
             lambda r: {"at": [0.3, 1.0], "pts": _pts(r, 1)}),
            ("rho_hard_2", "rho_bures_hard_edge",
             lambda r: {"at": [0.3, 1.0], "pts": _pts(r, 2)}),
        ]
    return slots


def large_n_slots():
    def cp(r, ns):
        return [*r.choice(CAUCHY_PARAMS), r.choice(ns)]

    def bp(r, ns):
        a, th = r.choice(BURES_PARAMS)
        return [a, a + 1.0, th, r.choice(ns)]

    def kern(op, ns, route=None, lo=0.5, hi=3.0):
        def make(r):
            d = {"p": cp(r, ns), "pts": _pts(r, 2, lo, hi)}
            if route:
                d["route"] = route
            return d
        return make

    def rc(ns, r_pts, s_pts):
        return lambda r: {"p": cp(r, ns), "xs": _pts(r, r_pts),
                          "ys": _pts(r, s_pts)}

    def rb(ns, k):
        return lambda r: {"p": bp(r, ns), "pts": _pts(r, k)}

    lo, hi = [4, 6, 8], [12, 14, 16]
    return [
        ("pc", "partition_cauchy", lambda r: {"p": cp(r, [40, 60, 80])}),
        ("pcd_lu", "partition_cauchy_det", lambda r: {"p": cp(r, [6, 7, 8])}),
        ("pcd_big", "partition_cauchy_det",
         lambda r: {"p": cp(r, [20, 40, 80])}),
        ("pb_lo", "partition_bures", lambda r: {"p": bp(r, [4, 5, 6])}),
        ("pb_hi", "partition_bures", lambda r: {"p": bp(r, [20, 21, 40, 80])}),
        ("pb_sq", "partition_bures_squared_identity",
         lambda r: {"p": bp(r, [20, 41, 80])}),
        ("cd_lo", "cd_kernel", kern("cd_kernel", [8, 12, 16])),
        ("cd_mid", "cd_kernel", kern("cd_kernel", [20, 24])),
        ("cd_hi", "cd_kernel", kern("cd_kernel", [40, 60, 80])),
        ("cd_hard", "cd_hard_scaled",
         kern("cd_hard_scaled", [20, 40, 80], lo=0.2, hi=4.0)),
        ("k11_lo", "k11", kern("k11", [6, 8, 10], "tintegral")),
        ("k11_hi", "k11", kern("k11", [72, 76, 80], "tintegral")),
        ("k01_lo", "k01", kern("k01", lo, "direct")),
        ("k01_hi", "k01", kern("k01", hi, "direct")),
        ("k10_lo", "k10", kern("k10", lo, "direct")),
        ("k10_hi", "k10", kern("k10", hi, "direct")),
        ("rho_c10_lo", "rho_cauchy", rc(lo, 1, 0)),
        ("rho_c10_hi", "rho_cauchy", rc(hi, 1, 0)),
        ("rho_c11_lo", "rho_cauchy", rc(lo, 1, 1)),
        ("rho_c11_hi", "rho_cauchy", rc(hi, 1, 1)),
        ("rho_b1_lo", "rho_bures", rb(lo, 1)),
        ("rho_b1_hi", "rho_bures", rb(hi, 1)),
        ("rho_b2_lo", "rho_bures", rb(lo, 2)),
        ("rho_b2_hi", "rho_bures", rb(hi, 2)),
    ]


def _f(x) -> str:
    return repr(float(x))


def cli_slots():
    def part_c(ns):
        def make(r):
            a, b, th = r.choice(CAUCHY_PARAMS)
            n = r.choice(ns)
            return {"argv": ["partition", "--model", "cauchy", "--a", _f(a),
                             "--b", _f(b), "--theta", _f(th), "--n", str(n)],
                    "parse": "partition", "p": [a, b, th, n]}
        return make

    def part_b20(r):
        a, th = r.choice(BURES_PARAMS)
        return {"argv": ["partition", "--model", "bures", "--a", _f(a),
                         "--theta", _f(th), "--n", "20"],
                "parse": "partition", "p": [a, a + 1.0, th, 20]}

    def corr_c(r):
        a, b, th = r.choice(CAUCHY_PARAMS)
        n = r.choice([2, 3])
        x, y = _pt(r), _pt(r)
        return {"argv": ["corr", "--model", "cauchy", "--a", _f(a), "--b",
                         _f(b), "--theta", _f(th), "--n", str(n), "--x",
                         _f(x), "--y", _f(y)],
                "parse": "corr", "p": [a, b, th, n], "xs": [x], "ys": [y]}

    def corr_b(r):
        a, th = r.choice(BURES_PARAMS)
        n = r.choice([2, 3])
        zs = _pts(r, r.choice([1, 2]))
        argv = ["corr", "--model", "bures", "--a", _f(a), "--theta", _f(th),
                "--n", str(n)]
        for z in zs:
            argv += ["--z", _f(z)]
        return {"argv": argv, "parse": "corr", "p": [a, a + 1.0, th, n],
                "pts": zs}

    def foxh(r):
        # Gamma(u)^2: a double pole at every u = -k, so the Hankel path
        zs = _pts(r, 2, 0.2, 3.0)
        argv = ["foxh", f"{SPECS}/bessel_k0.json"]
        for z in zs:
            argv += ["--z", _f(z)]
        return {"argv": argv, "parse": "foxh", "zs": zs}

    def grid_k00(r):
        a, b, th = r.choice(CAUCHY_PARAMS)
        n = r.choice([3, 4, 5])
        lo = round(r.uniform(0.1, 0.5), 2)
        hi = round(r.uniform(2.0, 3.0), 2)
        count = r.choice([4, 5, 6])
        fmt = r.choice(["csv", "json"])
        return {"argv": ["kernel-grid", "--a", _f(a), "--b", _f(b),
                         "--theta", _f(th), "--n", str(n), "--kind", "K00",
                         "--grid-min", _f(lo), "--grid-max", _f(hi),
                         "--grid-count", str(count), "--format", fmt],
                "parse": "grid_" + fmt, "p": [a, b, th, n],
                "axis": [lo, hi, count]}

    def grid_hard(r):
        lo = round(r.uniform(0.3, 0.8), 2)
        hi = round(lo + r.uniform(0.3, 1.0), 2)
        fmt = r.choice(["csv", "json"])
        return {"argv": ["kernel-grid", "--a", "0.5", "--b", "0.7",
                         "--theta", "1.5", "--kind", "hard-K10",
                         "--grid-min", _f(lo), "--grid-max", _f(hi),
                         "--grid-count", "2", "--format", fmt],
                "parse": "grid_" + fmt, "abt": [0.5, 0.7, 1.5],
                "axis": [lo, hi, 2]}

    return [
        ("verify", "cli", lambda r: {
            "argv": ["verify", "--suite", "all", "--seed",
                     str(r.randrange(1000))],
            "parse": "verify"}),
        ("part_cauchy", "cli", part_c([2, 4, 6, 8])),
        ("part_cauchy_80", "cli", part_c([80])),
        ("part_bures_20", "cli", part_b20),
        ("corr_cauchy", "cli", corr_c),
        ("corr_bures", "cli", corr_b),
        ("foxh_hankel", "cli", foxh),
        ("grid_k00", "cli", grid_k00),
        ("grid_hard_k10", "cli", grid_hard),
    ]


def _axis(lo, hi, count):
    return [float(v) for v in np.linspace(lo, hi, count)]


def ref_cli(cb, a):
    kind = a["parse"]
    if kind == "verify":
        return None, "every check of the report passes"
    if kind == "partition":
        return ref_partition("partition_bures" if "bures" in a["argv"]
                             else "partition_cauchy", a)
    if kind == "corr":
        return ref_rho("rho_bures" if "bures" in a["argv"] else "rho_cauchy",
                       a)
    if kind == "foxh":
        with mp.workdps(40):
            vals = [float(mpref.bessel_k0_spec(z)) for z in a["zs"]]
        return vals, "mpmath closed form 2 K_0(2 sqrt z)"
    axis = _axis(*a["axis"])
    if "abt" in a:
        vals = [float(cb.hard_edge_kernel(*a["abt"], "K10", x, y))
                for x in axis for y in axis]
        return vals, ("seed value: no independent route on the Hankel "
                      "path yet")
    p = tuple(a["p"])
    vals = [_mp(mpref.cd, p[3], p, x, y) for x in axis for y in axis]
    return vals, _mp_prov(p[3])


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def tolerance(op, a):
    if op == "cli":
        if a["parse"] == "verify":
            return TOL_VERIFY
        if a["parse"] == "foxh":
            return TOL_FOXH
        if a["parse"] == "partition":
            op = "partition_" + a["argv"][2]
        elif "K00" in a["argv"]:
            op = "cd_kernel"
    if op.startswith("partition_cauchy"):
        return TOL_PARTITION
    if op.startswith("partition_bures"):
        return TOL_BURES
    if op.startswith("cd_"):
        return TOL_CD
    return TOL_KERNEL


def floor(op, a):
    """Absolute scale below which relative error is not meaningful.

    K11 is a difference of two terms of size 1/(x+y) that cancel to
    ~1e-15 in the bulk at large N, so its error is taken on that scale.
    """
    if op == "k11":
        return 1.0 / sum(a["pts"])
    return 1e-12


def reference(cb, workload, op, a, seed_value):
    if op == "cli":
        return ref_cli(cb, a)
    if op in ("k01", "k10", "k11", "cd_kernel", "cd_hard_scaled"):
        return ref_kernel(op, a)
    if op in ("rho_cauchy", "rho_bures"):
        return ref_rho(op, a)
    if op.startswith("partition_"):
        return ref_partition(op, a)
    if workload == "tint_separated":
        return ref_hankel_route(cb, op, a)
    if seed_value is None:
        raise SystemExit(f"{op} {a}: no seed value to use as reference")
    return seed_value, ("seed value: no independent route on the Hankel "
                        "path yet")


def evaluate(cb, op, a):
    """Run a case once as the timed runs will: (seconds, value, failure)."""
    t0 = time.perf_counter()
    try:
        if op == "cli":
            code, out, _, _, _ = ops.run_cli(a["argv"])
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            value = ops.parse_cli(a["parse"], out)
        else:
            value = ops.normalize(ops.call(cb, op, a))
    except Exception as exc:  # noqa: BLE001  every failure is recorded
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, value, None


WORKLOADS = {
    "tint_collide": (lambda: tint_slots(True), 6),
    "tint_separated": (lambda: tint_slots(False), 8),
    "large_n": (large_n_slots, 10),
    "cli_cold": (cli_slots, 6),
}
# Slots of workloads with few rounds per run keep cases whose cost is
# within this band of the median candidate, so that every seed's round
# costs about the same.  Every candidate passes or fails alike there.
COST_BAND = 0.2


def banded(workload, slot):
    return workload.startswith("tint_") or slot == "grid_hard_k10"


def make_case(cb, workload, name, op, a):
    check_families(cb, workload, op, a)
    dt, value, why = evaluate(cb, op, a)
    ref, prov = reference(cb, workload, op, a, value)
    case = {"op": op, "args": a, "ref": ref, "tol": tolerance(op, a),
            "floor": floor(op, a), "provenance": prov}
    if op == "cli":
        case["parse"] = a["parse"]
    if why is None:
        ok, _, err = ops.score(case, value)
        if not ok:
            why = f"error {err:.3g} above tolerance {case['tol']:.0e}"
    case["expect"] = "pass" if why is None else "fail"
    if why:
        case["seed_failure"] = why
    case["seed_s"] = round(dt, 4)
    print(f"{workload} {name}: {case['expect']} {dt:.3f}s"
          + (f" ({why})" if why else ""), flush=True)
    return case


def generate(cb, workload):
    make_slots, pool = WORKLOADS[workload]
    slots = {}
    for name, op, make in make_slots():
        rng = random.Random(f"refgen:{workload}:{name}")
        wide = banded(workload, name)
        cands = [make_case(cb, workload, name, op, make(rng))
                 for _ in range(2 * pool if wide else pool)]
        if wide:
            mid = sorted(c["seed_s"] for c in cands)[len(cands) // 2]
            cands = [c for c in cands
                     if abs(c["seed_s"] / mid - 1.0) <= COST_BAND][:pool]
        slots[name] = [{"id": f"{name}-{i}", **c} for i, c in enumerate(cands)]
    doc = {"workload": workload,
           "generated_by": "perfbench/refgen.py",
           "library_version": cb.__version__,
           "digits_cap": ops.DIGITS_CAP,
           "slots": slots}
    os.makedirs(REFS, exist_ok=True)
    with open(os.path.join(REFS, f"{workload}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv):
    cb = ops.import_library()
    for workload in argv or list(WORKLOADS):
        generate(cb, workload)


if __name__ == "__main__":
    main(sys.argv[1:])
