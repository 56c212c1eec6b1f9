"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every measurement happens in fresh
interpreters started here, so no cache survives from one run to the next:

* ``--trace 0``: two set-up probes, then one or more passes: measuring
  workers that run the same rounds, each in a fresh process.  Every time
  is in seconds at the reference speed of ``speed.py``'s probe, which
  takes out the host's drifts in speed.  ``setup_s`` is the median over
  all workers of the time from process start to the first timed op; an
  op's time is its median over the passes.  The last stdout line carries
  the ``end_to_end`` metrics of BENCHMARK.json.
* ``--trace 1``: the seed's first rounds run once untraced and once with
  spans around each layer's public functions, each in its own process.
  Every value of the traced run must equal the untraced one bit for bit.
  The last stdout line carries the ``per_layer`` metrics.

The line before it is a JSON ``detail`` record with everything else:
the full per-function table, fail_ratio, which ops failed and whether
that failure is a known defect recorded in the references.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from scipy.special import betainc

import ops
import speed
from tracer import layer_metrics

WORKLOADS = ("tint_collide", "tint_separated", "large_n", "cli_cold")
# Per workload: seconds per round, including a share of a fresh worker's
# start-up, at the seed on a 2-core x86-64 machine (Python 3.11, numpy
# 2.4, scipy 1.17, mpmath 1.3) in its slow phases, which run about 1.6x
# the quiet cost; rounds per pass; passes.  A large_n pass cycles through
# the whole pool of every slot (10 cases), so every seed times the same
# cases in its own order; the others draw one case per slot and round
# from pools whose costs lie within 20% of each other, and repeat the
# pass instead.  A shorter --seconds runs fewer rounds and passes.  No
# pass starts that would end after OVERRUN x --seconds, so a still slower
# machine keeps the run's time (two cli_cold passes fit up to 1.5x slow).
PLAN = {"tint_collide": (8.0, 1, 3), "tint_separated": (1.9, 4, 3),
        "large_n": (1.9, 10, 1), "cli_cold": (12.0, 1, 2)}
OVERRUN = 1.6
# rounds in a traced run: fixed, so call counts repeat exactly
TRACE_ROUNDS = {"tint_collide": 1, "tint_separated": 6, "large_n": 3,
                "cli_cold": 1}
CLI_COMMANDS = ("foxh", "kernel-grid", "verify", "partition", "corr")
SETUP_PROBES = 2
# every worker must end before this, so a run exits within 180 s
DEADLINE = time.monotonic() + 170.0


def worker(workload, seed, rounds, *flags) -> tuple[dict, float]:
    """Run one worker process; returns its result and its spawn time."""
    cmd = [sys.executable, os.path.join(ops.BENCH, "worker.py"), workload,
           str(seed), str(rounds), *flags]
    spawned = time.monotonic()
    # a process group of its own, so a timeout also stops the worker's
    # CLI children
    proc = subprocess.Popen(cmd, cwd=ops.ROOT, env=ops.child_env(),
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return json.loads(out.decode().splitlines()[-1]), spawned


def scaled_setup(res, spawned) -> float:
    """Process start to first timed op, in seconds at the probe's
    reference speed."""
    return (res["ready"] - spawned) * speed.REF_S / res["setup_loop_s"]


def quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  Op costs are spread over decades, so a single
    order statistic jumps between neighbouring ops of quite different
    cost from run to run; this estimate does not."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def tail(times):
    """Highest percentile with at least ten ops beyond it: (value, pct).
    With ten ops or fewer there is none, and the slowest op stands in."""
    n = len(times)
    if n <= 10:
        return max(times), 100.0
    p = (n - 10) / n
    return quantile(times, p), 100.0 * p


def outcome(records) -> dict:
    failed = [r for r in records if not r["ok"]]
    return {
        "ops": len(records),
        "fail_ratio": len(failed) / len(records),
        "unexpected": sum(r["expect"] == "pass" for r in failed),
        "unexpected_failures": sorted({r["id"] for r in failed
                                       if r["expect"] == "pass"}),
        "known_defects_failing": sorted({r["id"] for r in failed
                                         if r["expect"] == "fail"}),
        "known_defects_fixed": sorted({r["id"] for r in records
                                       if r["ok"] and r["expect"] == "fail"}),
        "errors": {r["id"]: r["error"] for r in failed},
    }


def untraced(args):
    setups = []
    for _ in range(SETUP_PROBES):
        res, spawned = worker(args.workload, args.seed, 1, "--setup-only")
        setups.append(scaled_setup(res, spawned))
    round_s, rounds, planned = PLAN[args.workload]
    fit = max(1, int(args.seconds // round_s))
    rounds = min(rounds, fit)
    planned = min(planned, fit // rounds)
    end = time.monotonic() + OVERRUN * args.seconds
    passes, longest = [], 0.0
    while len(passes) < planned and (
            not passes or time.monotonic() + longest < end):
        res, spawned = worker(args.workload, args.seed, rounds)
        longest = max(longest, time.monotonic() - spawned)
        setups.append(scaled_setup(res, spawned))
        passes.append(res)
    # every pass runs the same ops in the same order
    records = [r for res in passes for r in res["ops"]]
    first = passes[0]["ops"]
    times = [statistics.median(res["ops"][i]["s"] for res in passes)
             for i in range(len(first))]
    mismatched = sorted({op["id"] for res in passes[1:]
                         for op, ref in zip(res["ops"], first)
                         if op["value"] != ref["value"]})
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times) / rounds, "s"),
        "op_p50_s": (quantile(times, 0.5), "s"),
        "op_tail_s": (tail_s, "s"),
        "ok_ratio": (sum(r["ok"] for r in records) / len(records), "ratio"),
        "mean_digits": (statistics.fmean(r["digits"] for r in records),
                        "digits"),
        "peak_rss_mb": (max(res["rss_kb"] for res in passes) / 1024.0, "MB"),
    }
    detail = outcome(records)
    detail.update({"rounds": rounds, "passes": len(passes),
                   "pass_walls_raw_s": [sum(res["round_walls"])
                                        for res in passes],
                   "wall_raw_s": sum(statistics.median(
                       res["ops"][i]["raw_s"] for res in passes)
                       for i in range(len(first))) / rounds,
                   "pass_mismatch": mismatched,
                   # [op id, [scaled s per pass], [measured s per pass]]
                   "op_pass_s": [[op["id"], [res["ops"][i]["s"]
                                             for res in passes],
                                  [res["ops"][i]["raw_s"] for res in passes]]
                                 for i, op in enumerate(first)],
                   "setups_s": setups, "op_tail_percentile": tail_pct,
                   "op_tail_ops": len(times)})
    return metrics, detail, not detail["unexpected"] and not mismatched


def traced(args):
    rounds = TRACE_ROUNDS[args.workload]
    plain, _ = worker(args.workload, args.seed, rounds)
    trace, _ = worker(args.workload, args.seed, rounds, "--trace")
    mismatched = sorted({a["id"] for a, b in zip(plain["ops"], trace["ops"])
                         if a["value"] != b["value"]})
    if len(plain["ops"]) != len(trace["ops"]):
        mismatched.append("<op count>")
    metrics = layer_metrics(trace["trace"])
    children = trace.get("cli", [])
    imports = [c["import_s"] for c in children] or [trace["import_s"]]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    for cmd in CLI_COMMANDS:
        spent = [c["command_s"] for c in children if c["command"] == cmd]
        metrics[f"cli.{cmd}.s"] = (statistics.median(spent) if spent else 0.0,
                                   "s")
    metrics["cli.exit_nonzero"] = (sum(c["exit"] != 0 for c in children),
                                   "count")
    metrics["trace_overhead"] = (sum(r["s"] for r in trace["ops"])
                                 / sum(r["s"] for r in plain["ops"]), "ratio")
    detail = outcome(trace["ops"])
    detail.update({"rounds": rounds, "bitwise_mismatch": mismatched,
                   "untraced_wall_s": sum(r["s"] for r in plain["ops"]),
                   "traced_wall_s": sum(r["s"] for r in trace["ops"])})
    correct = not mismatched and not detail["unexpected"]
    return metrics, detail, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ops.SRC, "cauchybures", "__init__.py")):
        print(f"run.py: no library sources under {ops.SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ops.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    if args.trace:
        metrics, detail, correct = traced(args)
        wanted = spec["per_layer"]
    else:
        metrics, detail, correct = untraced(args)
        wanted = spec["end_to_end"]
    detail.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace,
                   "all_metrics": {k: v[0] for k, v in metrics.items()}})
    print(json.dumps({"detail": detail}))
    out = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"metric {m['name']}: unit {unit} != {m['unit']}")
        if isinstance(value, float) and not math.isfinite(value):
            raise SystemExit(f"metric {m['name']} is not finite")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": bool(correct), "attempted": detail["ops"],
                      "failed": detail["unexpected"],
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
