"""Batch front door: simulate endpoint batches, dump densities on grids and
run the verification suite, emitting diffable CSV/JSON artifacts.

Commands
--------
``fracmotion simulate``  draws endpoint batches to CSV (header
``x,y,n,is_singular``), one sampler block at a time, plus a run-manifest
JSON.  ``fracmotion density``
dumps a named law on a grid to CSV (header ``r,density`` or ``x,density``)
plus a sidecar JSON recording the singular weight (where the law has one)
and a count of out-of-support rows, which are written as ``nan``.
``fracmotion verify`` runs the default suite, or one ``--check`` at the given
α, λ, c, t through :func:`fracmotion.verify.run_check`, to a report JSON.

Every command is a pure function of its :class:`RunConfig` plus seed:
identical inputs yield byte-identical outputs, except for a timestamp field
confined to the manifest.

Rates use the mini-grammar ``const:<lam>``, ``power:<a>,<b>`` and
``piecewise:<t1>:<v1>,<t2>:<v2>,...`` mirroring the RateFunction kinds.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
error.  A speed ``c``, horizon ``t`` or support radius ``c·t`` that is not
finite and positive is a usage error in every command, and so, in
``density`` and the checks that evaluate a law, is a ``c·t`` whose square
is not a positive normal double.  The environment variable
``FRACMOTION_OUT_DIR`` sets the default output directory when ``--out`` is
not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .counting import FlightCountSpec, FracPoissonSpec, RateFunction
from .densities import (
    _in_disk,
    _in_line,
    _in_radius,
    _law_radius,
    classical_line_density,
    flight_unconditional,
    line_density,
    planar_density_const_rate,
    planar_law,
)
from .motion import MotionConfig, endpoint_blocks
from .specfun import ConvergenceError, DomainError, RangeOverflowError
from .verify import (
    CHECK_NAMES,
    VerificationReport,
    run_check,
    run_default_suite,
    run_negative_controls,
)

__all__ = [
    "RunConfig",
    "parse_rate",
    "cmd_simulate",
    "cmd_density",
    "cmd_verify",
    "main",
]

OUT_DIR_ENV = "FRACMOTION_OUT_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


@dataclass(frozen=True)
class RunConfig:
    """A command name plus its fully resolved, JSON-serializable parameters."""

    command: str
    params: dict


def parse_rate(text: str) -> RateFunction:
    """Parse the rate mini-grammar into a RateFunction.

    ``const:2``; ``power:3,0.5`` for 3*s^0.5; ``piecewise:1:2,3:0.5`` for
    rate 2 on (0,1], 0.5 on (1,3], zero afterwards.
    """
    kind, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"rate {text!r} is missing ':' — expected kind:parameters")
    try:
        if kind == "const":
            return RateFunction.constant(float(rest))
        if kind == "power":
            a_str, b_str = rest.split(",")
            return RateFunction.power(float(a_str), float(b_str))
        if kind == "piecewise":
            pairs = [seg.split(":") for seg in rest.split(",")]
            if any(len(p) != 2 for p in pairs):
                raise ValueError("piecewise segments must look like t:value")
            return RateFunction.piecewise(
                [float(p[0]) for p in pairs], [float(p[1]) for p in pairs]
            )
    except DomainError:
        raise
    except ValueError as exc:
        raise ValueError(f"cannot parse rate {text!r}: {exc}") from None
    raise ValueError(f"unknown rate kind {kind!r}; use const, power or piecewise")


# ---------------------------------------------------------------------------
# Output plumbing.


def _resolve_out(params: dict, default_name: str) -> Path:
    out = params.get("out")
    if out:
        return Path(out)
    return Path(os.environ.get(OUT_DIR_ENV, ".")) / default_name


def _write_manifest(path: Path, config: RunConfig, extra: dict | None = None) -> None:
    manifest = {
        "command": config.command,
        "config": config.params,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


_CSV_CHUNK = 1 << 12  # CSV rows formatted at once


def _row_chunks(*columns: np.ndarray):
    """The rows of equally long columns as tuples of Python scalars,
    ``_CSV_CHUNK`` at a time, for ``repr``-formatted CSV lines."""
    for lo in range(0, columns[0].size, _CSV_CHUNK):
        yield zip(*(col[lo:lo + _CSV_CHUNK].tolist() for col in columns))


# ---------------------------------------------------------------------------
# Commands.  Each takes a RunConfig and returns a process exit code.


def cmd_simulate(config: RunConfig) -> int:
    """Draw an endpoint batch and write ``x,y,n,is_singular`` CSV + manifest,
    one sampler block at a time."""
    p = config.params
    rate = parse_rate(p["rate"])
    spec = FracPoissonSpec(alpha=p["alpha"], rate=rate)
    cfg = MotionConfig(c=p["c"], t=p["t"], count_spec=spec)
    # A bad argument or count table fails here, before the CSV is opened.
    blocks = endpoint_blocks(cfg, p["samples"], p["seed"])
    out = _resolve_out(p, "endpoints.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        fh.write("x,y,n,is_singular\n")
        for cols in blocks:
            for rows in _row_chunks(cols.x, cols.y, cols.n):
                fh.writelines(f"{x!r},{y!r},{n},{'true' if n == 0 else 'false'}\n"
                              for x, y, n in rows)
            # Drop the block before the next one is drawn.
            del cols, rows
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), config,
                    {"rows": p["samples"]})
    print(f"wrote {p['samples']} endpoints to {out}")
    return EXIT_OK


def _density_evaluator(p: dict):
    """(coordinate header, evaluator, singular weight or None, support
    predicate) for a law name.  The evaluator maps an array of in-support
    points to their densities, the predicate is the law's own from
    :mod:`fracmotion.densities`; grid points failing it, and negative
    radii, become ``nan`` rows counted in the sidecar."""
    law_name = p["law"]
    c, t = p["c"], p["t"]
    # A speed or horizon the laws refuse could put every point outside the
    # support, so reject it before any point is evaluated.
    _law_radius(c, t)
    if law_name == "planar":
        spec = FracPoissonSpec(alpha=p["alpha"], rate=parse_rate(p["rate"]))
        law = planar_law(spec, c, t)
        return "r", lambda r: law.ac_density(r, 0.0), law.singular_weight, _in_radius
    if law_name == "planar-const":
        lam = parse_rate(p["rate"])
        if lam.kind != "constant":
            raise DomainError("the single-series planar form needs a constant rate")
        lam0 = lam.params[0]
        return ("r", lambda r: planar_density_const_rate(p["alpha"], lam0, c, t, r, 0.0),
                None, _in_disk)
    if law_name == "line":
        spec = FracPoissonSpec(alpha=p["alpha"], rate=parse_rate(p["rate"]))
        method = p.get("method", "series")
        return "x", lambda x: line_density(spec, c, t, x, method=method), None, _in_line
    if law_name == "line-classical":
        lam = parse_rate(p["rate"])
        if lam.kind != "constant":
            raise DomainError("the classical line form needs a constant rate")
        lam0 = lam.params[0]
        return "x", lambda x: classical_line_density(lam0, c, t, x), None, _in_line
    if law_name == "flight":
        spec = FlightCountSpec(d=p["d"], rate=parse_rate(p["rate"]))
        return "r", lambda r: flight_unconditional(spec, c, t, r), None, _in_radius
    raise DomainError(f"unknown law {law_name!r}")


def cmd_density(config: RunConfig) -> int:
    """Dump a law on a grid: ``coord,density`` CSV plus sidecar JSON."""
    p = config.params
    coord_name, evaluate, singular_weight, in_support = _density_evaluator(p)
    # --grid-min and --grid-max are finite, but their difference can overflow.
    if not math.isfinite(p["grid_max"] - p["grid_min"]):
        raise DomainError(f"grid [{p['grid_min']}, {p['grid_max']}] is not a finite range")
    grid = np.linspace(p["grid_min"], p["grid_max"], p["grid_points"])
    # A radial grid holds no negative radius, whatever the law's support.
    inside = in_support(p["c"], p["t"], grid) & ((grid >= 0.0) | (coord_name == "x"))
    values = np.full(grid.size, math.nan)
    values[inside] = evaluate(grid[inside])
    nan_rows = int(np.count_nonzero(np.isnan(values)))
    out = _resolve_out(p, "density.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        fh.write(f"{coord_name},density\n")
        for rows in _row_chunks(grid, values):
            fh.writelines(f"{v!r},{val!r}\n" for v, val in rows)
    sidecar = {
        "law": p["law"],
        "singular_weight": singular_weight,
        "nan_rows": nan_rows,
        "grid_points": int(grid.size),
        "config": config.params,
    }
    out.with_suffix(out.suffix + ".meta.json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    )
    if nan_rows:
        print(f"warning: {nan_rows} grid points outside the support", file=sys.stderr)
    print(f"wrote {grid.size} density values to {out}")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    """Run verification checks, write the report JSON, exit 0 iff all pass."""
    p = config.params
    if p.get("negative_control"):
        report = run_negative_controls(seed=p["seed"], n_samples=p["samples"])
    elif p.get("check"):
        report = VerificationReport(
            checks=run_check(p["check"], p.get("alpha", 0.5), p.get("lam", 1.0),
                             p.get("c", 1.0), p.get("t", 1.0), p["samples"], p["seed"]),
            manifest={"seed": p["seed"], "n_samples": p["samples"],
                      "package_version": __version__},
        )
    else:
        report = run_default_suite(seed=p["seed"], n_samples=p["samples"])
    out = _resolve_out(p, "verify_report.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json() + "\n")
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(f"{verdict} {check.name}: statistic={check.statistic:.6g} "
              f"tolerance={check.tolerance:.6g}")
    print(f"report written to {out}")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Argument parsing.


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


def _rate_text(text: str) -> str:
    # Validate early so a bad rate is a usage error that gives its reason.
    try:
        parse_rate(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _rate_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _finite_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: ``parse_args`` fills a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="fracmotion",
        description="Simulate finite-velocity planar random motions, evaluate "
                    "their closed-form laws and reconcile the two.",
        epilog=f"Default output directory comes from ${OUT_DIR_ENV} (falls back "
               "to the working directory).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw endpoint batches to CSV")
    sim.add_argument("--alpha", type=float, default=1.0,
                     help="fractional order of the driving counting process")
    sim.add_argument("--rate", type=_rate_text, default="const:1",
                     help="rate mini-grammar: const:<lam> | power:<a>,<b> | "
                          "piecewise:<t1>:<v1>,...")
    sim.add_argument("--c", type=float, default=1.0, help="speed")
    sim.add_argument("--t", type=float, default=1.0, help="time horizon")
    sim.add_argument("--samples", type=_positive_int, required=True)
    sim.add_argument("--seed", type=_nonnegative_int, default=0,
                     help="sample i draws from numpy's default_rng((seed, i))")
    sim.add_argument("--out", default=None, help="CSV path")

    den = sub.add_parser("density", help="dump a closed-form law on a grid")
    den.add_argument("--law", required=True,
                     choices=["planar", "planar-const", "line", "line-classical", "flight"])
    den.add_argument("--alpha", type=float, default=1.0)
    den.add_argument("--rate", type=_rate_text, default="const:1")
    den.add_argument("--c", type=float, default=1.0)
    den.add_argument("--t", type=float, default=1.0)
    den.add_argument("--d", type=_positive_int, default=4,
                     help="flight dimension (flight law only)")
    den.add_argument("--method", choices=["series", "wright"], default="series",
                     help="line-law evaluation path")
    den.add_argument("--grid-min", dest="grid_min", type=_finite_value, default=0.0)
    den.add_argument("--grid-max", dest="grid_max", type=_finite_value, default=1.0)
    den.add_argument("--grid-points", dest="grid_points", type=_positive_int, default=100)
    den.add_argument("--out", default=None, help="CSV path")

    ver = sub.add_parser("verify", help="run reconciliation checks")
    ver.add_argument("--check", default=None, choices=CHECK_NAMES,
                     help="run a single check instead of the default suite")
    ver.add_argument("--alpha", type=float, default=0.5)
    ver.add_argument("--lambda", dest="lam", type=_rate_value, default=1.0)
    ver.add_argument("--c", type=float, default=1.0)
    ver.add_argument("--t", type=float, default=1.0)
    ver.add_argument("--samples", type=_positive_int, default=100_000)
    ver.add_argument("--seed", type=_nonnegative_int, default=20260815)
    ver.add_argument("--negative-control", dest="negative_control", action="store_true",
                     help="run deliberately broken configurations; they must fail")
    ver.add_argument("--out", default=None, help="report JSON path")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "density": cmd_density,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k != "command"}
    config = RunConfig(command=args.command, params=params)
    try:
        return _COMMANDS[args.command](config)
    except DomainError as exc:
        print(f"fracmotion: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, RangeOverflowError, FloatingPointError, OverflowError) as exc:
        print(f"fracmotion: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"fracmotion: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
