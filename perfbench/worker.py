"""One measuring process of the benchmark, started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED ROUNDS [--trace] [--setup-only]

Imports the library from src/, draws the seed's inputs from the frozen
pools, then runs rounds of ops one after another (closed loop, one
client).  A round takes one case from every slot of the workload, in slot
order; the worker runs ROUNDS rounds.
Prints one JSON line with every op's time, outcome and value.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

import ops
import speed
from tracer import Tracer, merge


def load_refs(workload: str) -> dict:
    with open(os.path.join(ops.BENCH, "refs", f"{workload}.json")) as fh:
        return json.load(fh)


class Plan:
    """The seed's cases: slot s of round r is pool[perm_s[r mod len]]."""

    def __init__(self, refs: dict, seed: int):
        self.slots = []
        for name, pool in refs["slots"].items():
            rng = random.Random(f"{refs['workload']}:{seed}:{name}")
            order = list(range(len(pool)))
            rng.shuffle(order)
            self.slots.append((name, [pool[i] for i in order]))

    def round(self, r: int):
        return [(name, pool[r % len(pool)]) for name, pool in self.slots]


def run_inprocess(cb, case, tracer):
    if tracer is not None:
        tracer.op_id = case["id"]
    t0 = time.perf_counter()
    try:
        raw = ops.call(cb, case["op"], case["args"])
    except Exception as exc:  # noqa: BLE001  a raising op is a failed op
        return (t0, time.perf_counter()), None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return (t0, t1), ops.normalize(raw), None


class CliRunner:
    """Runs CLI ops in fresh processes through the launcher."""

    def __init__(self, trace: bool, tag: str):
        self.trace = trace
        self.tag = tag
        self.count = 0
        self.peak_kb = 0
        self.children = []

    def run(self, case):
        """(span, probe loop seconds, value, error, output digest)"""
        out_path = os.path.join(ops.OUT,
                                f"cli-{self.tag}-{self.count:03d}.json")
        self.count += 1
        code, out, span, rss, doc = ops.run_cli(case["args"]["argv"],
                                                out_path, self.trace)
        self.peak_kb = max(self.peak_kb, rss)
        if self.trace and doc is not None:
            self.children.append({k: doc[k] for k in
                                  ("aggregates", "import_s", "command",
                                   "command_s", "exit")})
        loop_s = doc["loop_s"] if doc is not None else None
        digest = hashlib.sha256(out.encode()).hexdigest()
        if code != 0:
            return span, loop_s, None, f"exit code {code}", digest
        try:
            value = ops.parse_cli(case["args"]["parse"], out)
        except ops.ParseError as exc:
            return span, loop_s, None, f"unparsable output: {exc}", digest
        return span, loop_s, value, None, digest


def main(argv=None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("rounds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    probe = speed.SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    cb = ops.import_library()
    import_s = time.perf_counter() - t0
    plan = Plan(load_refs(args.workload), args.seed)
    ready = time.monotonic()
    # monotonic and perf_counter share one clock on Linux
    setup = {"ready": ready, "setup_loop_s": probe.loop_s(t0, ready)}
    if args.setup_only:
        probe.stop()
        print(json.dumps(setup))
        return

    cli = None
    tracer = None
    if args.workload == "cli_cold":
        cli = CliRunner(args.trace, f"{args.workload}-{args.seed}")
    elif args.trace:
        tracer = Tracer()
        tracer.install()

    records, walls = [], []
    for r in range(args.rounds):
        start = time.perf_counter()
        for slot, case in plan.round(r):
            if cli is not None:
                span, loop_s, value, error, digest = cli.run(case)
            else:
                span, value, error = run_inprocess(cb, case, tracer)
                loop_s, digest = None, json.dumps(value)
            raw_s = span[1] - span[0]
            loop_s = loop_s or probe.loop_s(*span)
            if error is None:
                ok, digits, err = ops.score(case, value)
                if not ok:
                    error = (f"error {err:.3g} above tolerance "
                             f"{case['tol']:.0e}")
            else:
                ok, digits = False, 0.0
            records.append({"slot": slot, "id": case["id"], "round": r,
                            "s": raw_s * speed.REF_S / loop_s,
                            "raw_s": raw_s, "ok": ok,
                            "digits": digits,
                            "expect": case["expect"], "error": error,
                            "value": digest})
        walls.append(time.perf_counter() - start)
    probe.stop()

    result = {**setup, "import_s": import_s, "ops": records,
              "round_walls": walls}
    if cli is not None:
        result["rss_kb"] = cli.peak_kb
        if args.trace:
            result["trace"] = merge(c["aggregates"] for c in cli.children)
            result["cli"] = [{k: c[k] for k in ("import_s", "command",
                                                "command_s", "exit")}
                             for c in cli.children]
    else:
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            os.makedirs(ops.OUT, exist_ok=True)
            tracer.dump(os.path.join(
                ops.OUT, f"trace-{args.workload}-{args.seed}.json"))
            result["trace"] = tracer.aggregates()
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
