"""Spans around the public functions of each library layer.

The wrappers live in the benchmark, not in the program: ``install``
replaces each wrapped function under every name a cauchybures module
binds it to (``kernels.g_tilde_inf``, ``cli.hankel_loop``, the package
re-exports, ...), so calls are seen where they are looked up, not only
where they are defined.  Spans stay in memory as
(name, start, end, parent, op_id) and are written out when the run ends.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every wrapped function; "Class.attr" for methods
SPANNED = {
    "numerics": ["tanh_sinh_01", "refine_quadrature", "gauss_jacobi",
                 "pfaffian", "pfaffian_bordered", "LogValue.sum"],
    "foxh": ["residue_series", "hankel_loop", "g_n", "g_inf", "g_tilde_n",
             "g_tilde_inf", "fox_h"],
    "kernels": ["cd_kernel", "cd_hard_scaled", "k01", "k10", "k11", "hatted",
                "hard_edge_kernel", "sigma_k01_inf", "delta_k00_inf",
                "delta_k11_inf", "i1_integral"],
    "ensembles": ["partition_cauchy", "partition_cauchy_det",
                  "partition_bures", "partition_bures_squared_identity"],
    "polynomials": ["p_hat", "q_hat"],
    "correlations": ["rho_cauchy", "rho_bures", "rho_bures_hard_edge"],
    "raney": ["sz_moment"],
}
# hot functions: a call count only, no span (log_gamma_complex runs
# ~1.3 M times in one k10 on the Hankel path)
COUNTED = {
    "numerics": ["log_gamma_complex"],
    "foxh": ["min_family_separation"],
    "ensembles": ["moment_b"],
}
# names that must end up wrapped where they are looked up
REQUIRED_SITES = [
    ("kernels", "g_tilde_inf"), ("kernels", "g_inf"), ("kernels", "g_n"),
    ("kernels", "g_tilde_n"), ("foxh", "log_gamma_complex"),
    ("foxh", "hankel_loop"), ("correlations", "hatted"),
    ("correlations", "delta_k00_inf"), ("correlations", "delta_k11_inf"),
    ("correlations", "sigma_k01_inf"), ("cli", "hankel_loop"),
    ("cli", "residue_series"),
]

G_FUNCS = {"foxh.g_n", "foxh.g_inf", "foxh.g_tilde_n", "foxh.g_tilde_inf"}
RHO_FUNCS = {"correlations.rho_cauchy", "correlations.rho_bures",
             "correlations.rho_bures_hard_edge"}
ENTRY_FUNCS = {"kernels.hatted", "kernels.sigma_k01_inf",
               "kernels.delta_k00_inf", "kernels.delta_k11_inf"}
TANH = "numerics.tanh_sinh_01"


class Tracer:
    """In-memory span recorder with per-function aggregates."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, op_id]
        self.stack = []            # open span indices
        self.child_time = []       # time covered by children, per open span
        self.active = Counter()    # open spans per name
        self.calls = Counter()
        self.failed = Counter()
        self.self_s = defaultdict(float)
        self.g_in_tanh = 0
        self.entries_in_rho = 0
        self.op_id = None

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        wrapper.traced = name
        return wrapper

    def spanned(self, name, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if name in G_FUNCS and self.active[TANH]:
                self.g_in_tanh += 1
            if name in ENTRY_FUNCS and any(self.active[r] for r in RHO_FUNCS):
                self.entries_in_rho += 1
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.op_id]
            self.spans.append(span)
            self.stack.append(idx)
            self.child_time.append(0.0)
            self.active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                end = clock()
                self.active[name] -= 1
                self.stack.pop()
                covered = self.child_time.pop()
                dur = end - start
                self.self_s[name] += dur - covered
                if self.child_time:
                    self.child_time[-1] += dur
                span[1], span[2] = start, end
        wrapper.traced = name
        return wrapper

    def install(self) -> None:
        """Wrap every listed function under all its cauchybures names."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "cauchybures" or k.startswith("cauchybures.")]
        for table, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
            for mod_name, attrs in table.items():
                home = importlib.import_module(f"cauchybures.{mod_name}")
                for attr in attrs:
                    label = f"{mod_name}.{attr}"
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(home, cls_name)
                        setattr(cls, meth,
                                staticmethod(make(label, getattr(cls, meth))))
                        continue
                    orig = getattr(home, attr)
                    wrapped = make(label, orig)
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, key, wrapped)
        for mod_name, attr in REQUIRED_SITES:
            mod = sys.modules.get(f"cauchybures.{mod_name}")
            if mod is not None and not hasattr(getattr(mod, attr), "traced"):
                raise RuntimeError(f"{mod_name}.{attr} was not wrapped")

    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "failed": dict(self.failed),
                "self_s": dict(self.self_s), "g_in_tanh": self.g_in_tanh,
                "entries_in_rho": self.entries_in_rho}

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write spans and aggregates as one JSON document."""
        doc = {"fields": ["name", "start", "end", "parent", "op_id"],
               "spans": self.spans, "aggregates": self.aggregates()}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def merge(aggs) -> dict:
    """Sum the aggregates of several traced processes."""
    out = {"calls": Counter(), "failed": Counter(), "self_s": Counter(),
           "g_in_tanh": 0, "entries_in_rho": 0}
    for agg in aggs:
        for key in ("calls", "failed", "self_s"):
            out[key].update(agg[key])
        out["g_in_tanh"] += agg["g_in_tanh"]
        out["entries_in_rho"] += agg["entries_in_rho"]
    return out


def layer_metrics(agg) -> dict:
    """Per-function .calls/.self_s/.failed, per-layer busy time, ratios."""
    names = [f"{m}.{a}" for m, attrs in SPANNED.items() for a in attrs]
    counted = [f"{m}.{a}" for m, attrs in COUNTED.items() for a in attrs]
    calls, failed, self_s = agg["calls"], agg["failed"], agg["self_s"]
    out = {}
    for name in names:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out[f"{name}.failed"] = (failed.get(name, 0), "count")
    for name in counted:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for layer in SPANNED:
        busy = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (busy, "s")
    hank = calls.get("foxh.hankel_loop", 0)
    res = calls.get("foxh.residue_series", 0)
    out["foxh.hankel_share"] = (hank / (hank + res) if hank + res else 0.0,
                                "ratio")
    tanh = calls.get(TANH, 0)
    out["kernels.g_calls_per_tintegral"] = (
        agg["g_in_tanh"] / tanh if tanh else 0.0, "ratio")
    rho = sum(calls.get(r, 0) for r in RHO_FUNCS)
    out["correlations.kernel_entries_per_rho"] = (
        agg["entries_in_rho"] / rho if rho else 0.0, "ratio")
    return out
