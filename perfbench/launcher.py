"""CLI child for the cli_cold workload.

    python3 perfbench/launcher.py [--trace] OUT <cauchybures arguments...>

Starts the speed probe, times ``import cauchybures`` (plus its CLI
module), calls ``cauchybures.cli.main`` with the given arguments and, on
exit, writes to OUT its timings and the probe's median loop time.  With
--trace it first installs the same wrappers as the in-process traced
runs and also writes its spans and aggregates.  The exit code is the
CLI's own.
"""
from __future__ import annotations

import json
import os
import sys
import time
import traceback

from speed import SpeedProbe
from tracer import Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main() -> None:
    args = sys.argv[1:]
    trace = args[0] == "--trace"
    out_path, args = args[trace], args[trace + 1:]
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import cauchybures
    import cauchybures.cli
    import_s = time.perf_counter() - t0

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    sys.argv = ["cauchybures", *args]
    code = 0
    t1 = time.perf_counter()
    try:
        cauchybures.cli.main()
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001  exit as an uncaught error would
        traceback.print_exc()
        code = 1
    t2 = time.perf_counter()
    probe.stop()
    sys.stdout.flush()
    exit_code = code if isinstance(code, int) else (0 if code is None else 1)
    timings = {"import_s": import_s, "command": args[0],
               "command_s": t2 - t1, "exit": exit_code,
               "loop_s": probe.loop_s(t0, t2)}
    if tracer is not None:
        tracer.dump(out_path, timings)
    else:
        with open(out_path, "w") as fh:
            json.dump(timings, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
