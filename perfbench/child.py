"""One sample of a workload, run in a fresh interpreter.

Imports each ``fracmotion`` module in dependency order (timing each
import), optionally builds the count table the commands will use, and then
calls ``fracmotion.cli.main`` once per command line given.  Set-up time runs
from the parent's spawn timestamp to the end of that preparation; both ends
read ``CLOCK_MONOTONIC``, which all processes share.

The calibration load runs just before and just after the commands; the
mean of the two times gives the machine's speed during the sample.

Writes a JSON result file, and with tracing on a span file as well.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

MODULES = ("specfun", "counting", "densities", "motion", "verify", "cli")


def calibrate() -> float:
    """Seconds taken by a fixed reference load that uses no fracmotion code:
    a pure-Python loop with ``math``, substream generator construction, and
    small and large numpy array operations, the kinds of work the package
    does.  Its time tracks how fast the machine runs at the moment."""
    import math

    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(230_000):
        acc += math.cos(i * 1e-3) * math.sin(i * 2e-3)
    for i in range(5_000):
        acc += np.random.default_rng((12345, i)).random()
    z = np.linspace(1.0, 50.0, 64)
    for _ in range(30_000):
        acc += float(np.log(z + 0.5).sum())
    big = np.random.default_rng(0).random(50_000)
    for _ in range(80):
        acc += float(np.sort(np.exp(big)).sum())
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--calls", required=True, help="JSON list of CLI argument lists")
    ap.add_argument("--table", default="null",
                    help="JSON [alpha, lam, t]: build this count table during set-up")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    fm = {}
    import_s = {}
    for short in MODULES:
        start = time.perf_counter()
        fm[short] = importlib.import_module(f"fracmotion.{short}")
        import_s[short] = time.perf_counter() - start
    if not Path(fm["cli"].__file__).resolve().is_relative_to(src):
        print(f"fracmotion was imported from {fm['cli'].__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    run_main = fm["cli"].main
    build_table = fm["counting"].count_distribution
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer(args.run_id)
        install(tracer, fm)
        run_main = tracer.wrap("cli.main", run_main)
        build_table = tracer.table_builder(build_table)

    table = json.loads(args.table)
    table_build_s = 0.0
    if table is not None:
        alpha, lam, t = table
        counting = fm["counting"]
        spec = counting.FracPoissonSpec(alpha=alpha, rate=counting.RateFunction.constant(lam))
        start = time.perf_counter()
        build_table(spec, t)
        table_build_s = time.perf_counter() - start
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawn_ns) * 1e-9
    calib_before_s = calibrate()

    codes = []
    command_s = []
    error = None
    for argv in json.loads(args.calls):
        start = time.perf_counter()
        try:
            codes.append(run_main(argv))
        except Exception:  # the parent counts this command's outputs as failed
            error = traceback.format_exc()
            codes.append(None)
        command_s.append(time.perf_counter() - start)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib_s = (calib_before_s + calibrate()) / 2.0

    result = {
        "setup_s": setup_s,
        "calib_s": calib_s,
        "import_s": import_s,
        "table_build_s": table_build_s,
        "command_s": command_s,
        "exit_codes": codes,
        "error": error,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.write(args.spans)
        result["counters"] = dict(tracer.counters)
        result["support_size"] = tracer.support_size()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
