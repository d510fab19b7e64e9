#!/usr/bin/env python3
"""Negative controls for the benchmark's output checker.

Runs the benchmark once per corrupted artifact and requires that the result
line is not clean: ``correct`` false and a positive ``failed`` count.  The
corruptions are one altered digit in an endpoint CSV, one density value
scaled by 1 + 1e-8, and one verify check flipped to failed.  Run from the
root of a checkout::

    python3 perfbench/controls.py

Exits 0 only if every control is caught.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CONTROLS = [
    ("simulate", "csv-digit"),
    ("simulate-dense", "csv-digit"),
    ("density", "density-scale"),
    ("verify", "report-fail"),
]
SEEDS = (20260815, 1)


def main() -> int:
    caught = True
    for workload, kind in CONTROLS:
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0", "--inject", kind],
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = (result is not None and result["correct"] is False
                  and result["failed"] > 0 and result["failed"] / result["attempted"] > 0.0)
            caught &= ok
            summary = (f"failed {result['failed']}/{result['attempted']}, "
                       f"failed_frac {result['failed'] / result['attempted']:.3g}, "
                       f"correct {result['correct']}" if result else f"exit {proc.returncode}")
            verdict = "caught" if ok else "MISSED"
            print(f"{verdict}  {workload:15s} {kind:14s} seed {seed:<9d} {summary}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
