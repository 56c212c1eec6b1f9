"""Operations of the benchmark: calling the library, parsing CLI output,
and scoring a returned value against its frozen reference.

An op is one call of the public API (in-process workloads) or one
``cauchybures`` command in a fresh process (``cli_cold``).  A case is an
op with its arguments and its reference, as stored under ``refs/``.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# digits of agreement are capped here: quadrature routes stop at rtol
# 1e-10..1e-11, so finer agreement is double-precision noise
DIGITS_CAP = 12.0


def child_env() -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def import_library():
    """Import cauchybures from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "cauchybures", "__init__.py")):
        raise SystemExit(f"no cauchybures sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import cauchybures
    import cauchybures.kernels  # noqa: F401  (for cd_hard_scaled)
    return cauchybures


# ---------------------------------------------------------------------------
# in-process ops
# ---------------------------------------------------------------------------

def call(cb, op: str, a: dict):
    """Run one in-process op; returns whatever the library returns."""
    if op in ("k01", "k10", "k11"):
        fn = getattr(cb, op)
        return fn(cb.EnsembleParams(*a["p"]), *a["pts"], route=a["route"])
    if op == "hard_edge_kernel":
        return cb.hard_edge_kernel(*a["abt"], a["kind"], *a["pts"])
    if op == "rho_bures_hard_edge":
        return cb.rho_bures_hard_edge(*a["at"], a["pts"])
    if op.startswith("partition_"):
        return getattr(cb, op)(cb.EnsembleParams(*a["p"]))
    if op == "cd_kernel":
        return cb.cd_kernel(cb.EnsembleParams(*a["p"]), *a["pts"])
    if op == "cd_hard_scaled":
        return cb.kernels.cd_hard_scaled(cb.EnsembleParams(*a["p"]), *a["pts"])
    if op == "rho_cauchy":
        req = cb.CorrelationRequest("cauchy", cb.EnsembleParams(*a["p"]),
                                    tuple(a["xs"]), tuple(a["ys"]))
        return cb.rho_cauchy(req)
    if op == "rho_bures":
        req = cb.CorrelationRequest("bures", cb.EnsembleParams(*a["p"]),
                                    tuple(a["pts"]))
        return cb.rho_bures(req)
    raise KeyError(f"unknown op {op!r}")


def normalize(value):
    """Plain JSON form of a returned value: a float or a signed log."""
    if hasattr(value, "log_mag"):
        return {"sign": int(value.sign), "log": float(value.log_mag)}
    return float(value)


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """CLI output that does not parse back to numbers."""


def run_cli(argv, out_path: str | None = None, trace: bool = False):
    """Run one CLI child to completion through the launcher, which writes
    its timings (and with ``trace`` its spans) to ``out_path``.

    Returns (exit code, stdout, (start, end) perf_counter, peak RSS in KiB
    of that child, the launcher's record or None if it wrote none).
    """
    os.makedirs(OUT, exist_ok=True)
    out_path = out_path or os.path.join(OUT, "cli-child.json")
    cmd = [sys.executable, os.path.join(BENCH, "launcher.py"),
           *(["--trace"] if trace else []), out_path, *argv]
    if os.path.exists(out_path):
        os.remove(out_path)
    with open(os.path.join(OUT, "cli_stderr.txt"), "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    doc = None
    if os.path.exists(out_path):
        with open(out_path) as fh:
            doc = json.load(fh)
    return proc.returncode, out.decode(), (t0, t1), usage.ru_maxrss, doc


def _num(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"not a number: {text!r}") from exc


def parse_cli(kind: str, out: str):
    """Numbers printed by one CLI command, in a form comparable to refs."""
    try:
        if kind == "verify":
            report = json.loads(out)
            if any(r["status"] != "pass" for r in report):
                raise ParseError("verify reported a failing check")
            return [_num(r["measured"]) for r in report]
        if kind == "partition":
            rec = json.loads(out)
            return {"sign": int(rec["sign"]), "log": _num(rec["log_abs"])}
        if kind == "corr":
            return _num(json.loads(out)["value"])
        if kind == "foxh":
            return [_num(json.loads(line)["value"])
                    for line in out.splitlines() if line.strip()]
        if kind == "grid_csv":
            rows = [ln for ln in out.splitlines()
                    if ln and not ln.startswith("#")]
            if not rows or rows[0] != "x,y,value":
                raise ParseError("missing CSV header")
            return [_num(r.split(",")[2]) for r in rows[1:]]
        if kind == "grid_json":
            vals = json.loads(out)["values"]
            return [_num(v) for row in vals for v in row]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise ParseError(str(exc)) from exc
    raise KeyError(f"unknown CLI output kind {kind!r}")


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _digits(err: float) -> float:
    if err == 0.0:
        return DIGITS_CAP
    if not math.isfinite(err):
        return 0.0
    return min(DIGITS_CAP, max(0.0, -math.log10(err)))


def _scalar_error(value, ref: float, floor: float) -> float:
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / max(abs(ref), floor, 1e-300)


def score(case: dict, value) -> tuple[bool, float, float]:
    """(within tolerance, correct digits, error) of a normalized value.

    Scalars: error relative to max(|ref|, floor).  Signed logs: relative
    error of the represented number.  Lists: the worst entry.  The verify
    report has no reference: its error is the worst measured residual.
    """
    ref, tol, floor = case["ref"], case["tol"], case.get("floor", 0.0)
    if case.get("parse") == "verify":
        err = max(value) if value else 0.0
    elif isinstance(ref, dict):
        delta = value["log"] - ref["log"]
        if value["sign"] != ref["sign"] or not abs(delta) < 700.0:
            err = math.inf
        else:
            err = abs(math.expm1(delta))
    elif isinstance(ref, list):
        if len(value) != len(ref):
            return False, 0.0, math.inf
        err = max(_scalar_error(v, r, floor) for v, r in zip(value, ref))
    else:
        err = _scalar_error(value, ref, floor)
    return err <= tol, _digits(err), err
