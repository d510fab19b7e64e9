#!/usr/bin/env python3
"""Layered benchmark of fracmotion.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (closed loop, one client, no threads; each sample is a fresh
interpreter that calls ``fracmotion.cli.main``):

- ``simulate``: ``fracmotion simulate --alpha 0.5 --rate const:1``; about
  2.2 switches per path, so the per-sample overhead dominates.
- ``simulate-dense``: the same with ``--rate const:10``; about 200 switches
  per path, so the per-segment loop dominates.
- ``density``: seven ``fracmotion density`` calls covering all five laws,
  no sampling.
- ``verify``: ``fracmotion verify``, the default suite at its default
  sample count and seed.

The loop starts samples until ``--seconds`` have passed and then checks
every output.  With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json (median over samples, timings scaled to a reference machine
speed measured by a calibration load in each sample); with ``--trace 1`` it
alternates traced and untraced samples and prints the per-layer metrics.
The line before the last holds quartiles, sample counts, ``failed_frac``,
the unscaled and workload-named metrics and the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 20260815
# Stop starting samples after this long even in trace mode, so that a run
# ends well within three minutes.
HARD_STOP_S = 100.0
CHILD_TIMEOUT_S = 150.0
# Duration of the calibration load at the reference machine speed.  On the
# 2-vCPU Xeon VM of the baseline (perfbench/README.md) the load took 0.20
# to 0.37 s, and the speed drifted by up to 1.6x over tens of minutes.
# Scaling each sample by the load's time in that sample takes most of the
# drift out of the timed metrics: in a 93-sample series on simulate, the
# spread of ops_per_s medians over groups of six fell from 14 % to 3 %.
CALIB_REF_S = 0.25

SIMULATE = {
    "simulate": {"alpha": 0.5, "lam": 1.0, "rows": 50_000},
    "simulate-dense": {"alpha": 0.5, "lam": 10.0, "rows": 10_000},
}

# (tag, law arguments, coordinate, base grid range, points, reference, law parameters).
# Grid sizes keep each law between about a tenth and a quarter of the command
# time.  The alpha = 0.2 planar grid stops at r = 0.3 because beyond it the
# density falls below the smallest normal double.
DENSITY_LAWS = [
    ("planar-a0.5", ["--law", "planar", "--alpha", "0.5", "--rate", "const:1"],
     "r", (0.0, 0.99), 400, "mixture", {"alpha": 0.5, "lam": 1.0}),
    ("planar-a0.2", ["--law", "planar", "--alpha", "0.2", "--rate", "const:5"],
     "r", (0.0, 0.3), 20, "closed-form-scipy", {"alpha": 0.2, "lam": 5.0}),
    ("line-series", ["--law", "line", "--alpha", "0.5", "--rate", "const:1", "--method", "series"],
     "x", (-0.99, 0.99), 40, "line-wright", {"alpha": 0.5, "lam": 1.0}),
    ("line-wright", ["--law", "line", "--alpha", "0.5", "--rate", "const:1", "--method", "wright"],
     "x", (-0.99, 0.99), 30, "line-series", {"alpha": 0.5, "lam": 1.0}),
    ("line-classical", ["--law", "line-classical", "--rate", "const:1"],
     "x", (-0.99, 0.99), 200, "line-series", {"alpha": 1.0, "lam": 1.0}),
    ("flight", ["--law", "flight", "--d", "3", "--rate", "const:2"],
     "r", (0.0, 0.99), 300, "flight-mixture", {"d": 3, "lam": 2.0}),
    ("planar-const", ["--law", "planar-const", "--alpha", "0.5", "--rate", "const:1"],
     "r", (0.0, 0.99), 300, "const-form-scipy", {"alpha": 0.5, "lam": 1.0}),
]

WORKLOAD_METRIC = {  # the workload-named form of ops_per_s
    "simulate": ("endpoints_per_s", "1/s"),
    "simulate-dense": ("endpoints_per_s", "1/s"),
    "density": ("density_points_per_s", "1/s"),
    "verify": ("suite_s", "s"),
}


def density_grids(seed: int) -> list[np.ndarray]:
    """Each law's grid, with both ends moved inwards by up to 2 % of the
    range, drawn from the seed."""
    rng = np.random.default_rng(seed)
    grids = []
    for _tag, _args, _coord, (lo, hi), points, _ref, _params in DENSITY_LAWS:
        u = rng.random(2)
        width = hi - lo
        grids.append(np.linspace(lo + 0.02 * width * u[0], hi - 0.02 * width * u[1], points))
    return grids


def plan(workload: str, seed: int) -> dict:
    """Command lines (``{out}`` is the sample's output directory), the count
    table set-up builds, and the operations one sample attempts."""
    if workload in SIMULATE:
        w = SIMULATE[workload]
        argv = ["simulate", "--alpha", str(w["alpha"]), "--rate", f"const:{w['lam']:g}",
                "--samples", str(w["rows"]), "--seed", str(seed),
                "--out", "{out}/endpoints.csv"]
        return {"calls": [argv], "table": [w["alpha"], w["lam"], 1.0], "ops": w["rows"]}
    if workload == "density":
        calls = []
        for k, (law, grid) in enumerate(zip(DENSITY_LAWS, density_grids(seed))):
            calls.append(["density", *law[1], "--grid-min", repr(float(grid[0])),
                          "--grid-max", repr(float(grid[-1])), "--grid-points", str(grid.size),
                          "--out", f"{{out}}/density{k}.csv"])
        return {"calls": calls, "table": None, "ops": sum(law[4] for law in DENSITY_LAWS)}
    if workload == "verify":
        # The suite runs at its own default seed: its statistical checks are
        # tests at fixed levels, so other seeds would fail some checks by
        # chance rather than through a fault of the program.
        pinned = json.loads(checks.PINNED_REPORT.read_text())
        return {"calls": [["verify", "--out", "{out}/report.json"]], "table": None,
                "ops": len(pinned["checks"])}
    raise SystemExit(f"unknown workload {workload!r}")


def child_env() -> dict:
    """The caller's environment without the settings that would change what
    a sample imports, where it writes, or whether bytecode is cached."""
    drop = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "FRACMOTION_OUT_DIR")
    return {k: v for k, v in os.environ.items() if k not in drop}


def run_child(work: Path, index: int, spec: dict, trace: bool) -> dict:
    """Run one sample in a fresh interpreter and return its result record."""
    out = work / f"sample{index}"
    out.mkdir()
    calls = [[a.replace("{out}", str(out)) for a in argv] for argv in spec["calls"]]
    result_path = out / "result.json"
    spans_path = out / "spans.csv"
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--calls", json.dumps(calls), "--table", json.dumps(spec["table"]),
           "--trace", str(int(trace)), "--run-id", f"{os.getpid()}-{index}",
           "--result", str(result_path), "--spans", str(spans_path)]
    record = {"index": index, "traced": trace, "out": out, "result": None}
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], cwd=out, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["error"] = "timed out"
        return record
    record["stderr"] = proc.stderr[-2000:]
    if proc.returncode == 0 and result_path.is_file():
        record["result"] = json.loads(result_path.read_text())
    else:
        record["error"] = record["stderr"]
    return record


def import_package():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    fm = {m: importlib.import_module(f"fracmotion.{m}")
          for m in ("counting", "densities", "motion", "cli")}
    if not Path(fm["cli"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"fracmotion was imported from {fm['cli'].__file__}, not {src}")
    return fm


def inject_fault(kind: str, out: Path) -> None:
    """Corrupt one artifact of a sample (negative controls of the checker)."""
    if kind == "csv-digit":
        path = out / "endpoints.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[124].split(",")
        fields[0] = fields[0][:-1] + str((int(fields[0][-1]) + 1) % 10)
        lines[124] = ",".join(fields)
        path.write_text("".join(lines))
    elif kind == "density-scale":
        path = out / "density0.csv"
        lines = path.read_text().splitlines(keepends=True)
        coord, value = lines[6].rstrip("\n").split(",")
        lines[6] = f"{coord},{float(value) * (1.0 + 1e-8)!r}\n"
        path.write_text("".join(lines))
    elif kind == "report-fail":
        path = out / "report.json"
        report = json.loads(path.read_text())
        report["checks"][0]["pass"] = False
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def check_sample(workload: str, spec: dict, record: dict, refs: dict) -> tuple:
    """(attempted, failed, details) for one sample's artifacts."""
    res = record["result"]
    if res is None or res["error"] is not None:
        return spec["ops"], spec["ops"], {"error": record.get("error") or res["error"]}
    out = record["out"]
    if workload in SIMULATE:
        if res["exit_codes"] != [0]:
            return spec["ops"], spec["ops"], {"exit_codes": res["exit_codes"]}
        return checks.check_simulate(out / "endpoints.csv", spec["ops"], refs["blocks"])
    if workload == "density":
        attempted = failed = 0
        worst = 0.0
        for k, law in enumerate(DENSITY_LAWS):
            a, f, d = checks.check_density(out / f"density{k}.csv", law[2],
                                           refs["grids"][k], refs["values"][k])
            if res["exit_codes"][k] != 0:
                f = a
            attempted += a
            failed += f
            worst = max(worst, d.get("max_rel_diff", 0.0))
        return attempted, failed, {"max_rel_diff": worst}
    return checks.check_verify(out / "report.json", res["exit_codes"][0])


def references(workload: str, seed: int) -> dict:
    """Reference data shared by all samples of the run."""
    if workload in SIMULATE:
        # Every row is replayed through the scalar sampler; at the default
        # seed the rows must also match the hashes pinned at the seed commit.
        w = SIMULATE[workload]
        lines = checks.replay_lines(import_package(), w["alpha"], w["lam"], seed, w["rows"])
        blocks = [checks.block_hashes(lines)]
        if seed == DEFAULT_SEED:
            blocks.append(json.loads(checks.PINNED_SIMULATE.read_text())[workload]["blocks"])
        return {"blocks": blocks}
    if workload == "density":
        fm = import_package()
        grids = density_grids(seed)
        values = [checks.density_reference(fm, law[5], law[6], grid)
                  for law, grid in zip(DENSITY_LAWS, grids)]
        return {"grids": grids, "values": values}
    return {}


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def written(out: Path) -> tuple[int, int]:
    """(data rows in the CSV artifacts, bytes of every artifact) of a sample."""
    rows = size = 0
    for path in out.iterdir():
        if path.name in ("result.json", "spans.csv"):
            continue
        size += path.stat().st_size
        if path.suffix == ".csv":
            rows += len(checks.read_lines(path)) - 1
    return rows, size


def end_to_end(workload: str, spec: dict, samples: list) -> tuple[dict, dict]:
    """Medians over the untraced samples.  Each sample's ``setup_s`` and
    ``ops_per_s`` are first scaled to the reference machine speed, at which
    the calibration load of ``child.calibrate`` takes ``CALIB_REF_S``; the
    unscaled values are in the detail."""
    plain = [r["result"] for r in samples if not r["traced"] and r["result"] is not None]
    units = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    series = {
        "setup_s": [r["setup_s"] * CALIB_REF_S / r["calib_s"] for r in plain],
        "ops_per_s": [spec["ops"] / sum(r["command_s"]) * r["calib_s"] / CALIB_REF_S
                      for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    named, units[named] = WORKLOAD_METRIC[workload]
    raw = {
        "setup_s": [r["setup_s"] for r in plain],
        "calib_s": [r["calib_s"] for r in plain],
        named: [sum(r["command_s"]) if named == "suite_s" else spec["ops"] / sum(r["command_s"])
                for r in plain],
    }
    units["calib_s"] = "s"
    detail = {name: {**summary(vals), "unit": units[name]} for name, vals in series.items()}
    detail.update({f"unscaled_{name}": {**summary(vals), "unit": units[name]}
                   for name, vals in raw.items()})
    detail["unscaled_setup_parts_s"] = {
        **{f"import_{m}": statistics.median(r["import_s"][m] for r in plain)
           for m in tracing.LAYERS},
        "table_build": statistics.median(r["table_build_s"] for r in plain),
    }
    return {name: detail[name]["median"] for name in series}, detail


def per_layer(samples: list) -> tuple[dict, dict]:
    done = [r for r in samples if r["result"] is not None]
    traced = [r for r in done if r["traced"]]
    plain = [r for r in done if not r["traced"]]
    per_child = []
    pooled = {law: [] for law in tracing.POINT_SPANS}
    for rec in traced:
        res = rec["result"]
        m, points = tracing.layer_metrics(tracing.read_spans(rec["out"] / "spans.csv"),
                                          res["counters"])
        m["counting.support_size"] = res["support_size"]
        m["cli.rows_written"], m["cli.bytes_written"] = written(rec["out"])
        per_child.append(m)
        for law, durations in points.items():
            pooled[law].extend(durations)
    metrics = tracing.median_metrics(per_child)
    metrics.update(tracing.point_metrics(pooled))
    for module in tracing.LAYERS:
        metrics[f"{module}.import_s"] = statistics.median(
            r["result"]["import_s"][module] for r in done)
    traced_s = statistics.median(sum(r["result"]["command_s"]) for r in traced)
    plain_s = statistics.median(sum(r["result"]["command_s"]) for r in plain)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    predictions = {
        "motion_calls": metrics["motion.calls"],
        "table_builds": metrics["counting.table_builds"],
        "wright_series_calls": metrics["specfun.wright_series.calls"],
    }
    return metrics, {"traced_samples": len(traced), "untraced_samples": len(plain),
                     "traced_command_s": traced_s, "untraced_command_s": plain_s,
                     "counts": predictions}


def environment() -> dict:
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__, "src_lines": src_lines}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("csv-digit", "density-scale", "report-fail"),
                    help="corrupt the first sample's output (checker negative control)")
    args = ap.parse_args()

    if not (ROOT / "src" / "fracmotion" / "cli.py").is_file():
        print(f"no fracmotion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32  # the CLI takes seeds in [0, 2**32)
    spec = plan(args.workload, seed)

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Untimed warm-up: compiles bytecode and pages in the libraries, as
        # on any machine where the package has been run before.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import fracmotion.cli", str(ROOT / "src")],
                       cwd=work, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
                       check=True)
        samples = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 0
            samples.append(run_child(work, len(samples), spec, traced))
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S:
                break
            if elapsed >= args.seconds and (not args.trace or len(samples) >= 2):
                break

        if args.inject and samples[0]["result"] is not None:
            inject_fault(args.inject, samples[0]["out"])
        refs = references(args.workload, seed)
        attempted = failed = 0
        sample_checks = []
        for rec in samples:
            a, f, d = check_sample(args.workload, spec, rec, refs)
            attempted += a
            failed += f
            if f and rec["result"] is not None:
                d.update(exit_codes=rec["result"]["exit_codes"], stderr=rec["stderr"])
            sample_checks.append({"sample": rec["index"], "traced": rec["traced"],
                                  "attempted": a, "failed": f, **d})

        names = bench["per_layer"] if args.trace else bench["end_to_end"]
        if args.trace:
            values, detail = per_layer(samples)
        else:
            values, detail = end_to_end(args.workload, spec, samples)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
        print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                          "failed_frac": failed / attempted, "checks": sample_checks,
                          "detail": detail, "environment": environment()}, default=str))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass


if __name__ == "__main__":
    sys.exit(main())
