"""Output checks for the benchmark workloads.

Each checker returns ``(attempted, failed, details)`` for one child's
artifacts.  An operation is an endpoint row for ``simulate*``, a grid point
for ``density`` and a check entry of the report for ``verify``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PINNED_SIMULATE = HERE / "pinned" / "simulate.json"
PINNED_REPORT = HERE / "pinned" / "verify_report.json"

BLOCK_ROWS = 1000
SIM_HEADER = "x,y,n,is_singular"
# Relative tolerance of a density value against its independent evaluation.
# The evaluations agree to about 5e-13 at this commit; a value scaled by
# 1 + 1e-8 must fail.
DENSITY_RTOL = 1e-10
# Relative tolerance on the numbers of a verify report entry, so that a
# last-digit drift of a statistic is not counted as a failed check.
REPORT_RTOL = 1e-9


def block_hashes(lines: list[str]) -> list[str]:
    return [
        hashlib.sha256("".join(lines[i:i + BLOCK_ROWS]).encode()).hexdigest()
        for i in range(0, len(lines), BLOCK_ROWS)
    ]


def read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines(keepends=True) if path.is_file() else []


def check_simulate(path: Path, rows: int, references: list) -> tuple[int, int, dict]:
    """Check an endpoint CSV block by block against each list of reference
    block hashes; every row of a block that differs counts as failed."""
    lines = read_lines(path)
    if not lines or lines[0].rstrip("\n") != SIM_HEADER:
        return rows, rows, {"error": "missing file or bad header"}
    body = lines[1:]
    got = block_hashes(body)
    failed = abs(len(body) - rows)
    bad_blocks = 0
    for b in range(len(references[0])):
        if b >= len(got) or any(got[b] != ref[b] for ref in references):
            failed += min(rows, (b + 1) * BLOCK_ROWS) - b * BLOCK_ROWS
            bad_blocks += 1
    return rows, min(rows, failed), {"block_mismatches": bad_blocks}


def replay_lines(fm, alpha: float, lam: float, seed: int, rows: int) -> list[str]:
    """The endpoint CSV rows re-drawn one at a time by ``sample_trajectory``
    on the substreams ``default_rng((seed, i))``."""
    counting, motion = fm["counting"], fm["motion"]
    spec = counting.FracPoissonSpec(alpha=alpha, rate=counting.RateFunction.constant(lam))
    cfg = motion.MotionConfig(c=1.0, t=1.0, count_spec=spec)
    lines = []
    for i in range(rows):
        rng = np.random.default_rng((seed, i))
        traj = motion.sample_trajectory(cfg, iter(lambda: float(rng.random()), 2.0))
        x, y = (float(v) for v in traj.endpoint)
        n = traj.n_changes
        lines.append(f"{x!r},{y!r},{n},{'true' if n == 0 else 'false'}\n")
    return lines


# ---------------------------------------------------------------------------
# Density references: each evaluates the law by a route other than the one
# the CLI command takes.


def _log_mittag_leffler(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """ln E_{alpha,beta}(z) by a log-sum-exp of the ascending series with
    scipy's gammaln, summed far past the peak term."""
    from scipy.special import gammaln

    z = np.atleast_1d(np.asarray(z, dtype=float))
    k = np.arange(int(200 + 2.0 * float(z.max()) ** (1.0 / alpha) / alpha), dtype=float)
    log_den = gammaln(alpha * k + beta)
    out = np.empty(z.size)
    for i, zi in enumerate(z):
        lt = k * math.log(zi) - log_den
        m = lt.max()
        out[i] = m + math.log(float(np.exp(lt - m).sum()))
    return out


def density_reference(fm, ref: str, params: dict, grid: np.ndarray) -> np.ndarray:
    counting, densities = fm["counting"], fm["densities"]
    lam = params.get("lam", 1.0)
    alpha = params.get("alpha", 1.0)
    spec = counting.FracPoissonSpec(alpha=alpha, rate=counting.RateFunction.constant(lam))
    if ref == "mixture":
        return np.array([densities.mixture_density(spec, 1.0, 1.0, float(r)) for r in grid])
    if ref == "closed-form-scipy":
        # planar law: lam E_{a,a}(lam w) / (2 pi a w E_{a,1}(lam)), c = t = 1
        w = np.sqrt(1.0 - grid * grid)
        log_norm = _log_mittag_leffler(alpha, 1.0, np.array([lam]))[0]
        return np.exp(math.log(lam) + _log_mittag_leffler(alpha, alpha, lam * w)
                      - np.log(2.0 * math.pi * alpha * w) - log_norm)
    if ref == "const-form-scipy":
        # constant-rate form: lam E_{a,1}(lam w) / (2 pi w E_{a,1}(lam)), c = t = 1
        w = np.sqrt(1.0 - grid * grid)
        log_norm = _log_mittag_leffler(alpha, 1.0, np.array([lam]))[0]
        return np.exp(math.log(lam) + _log_mittag_leffler(alpha, 1.0, lam * w)
                      - np.log(2.0 * math.pi * w) - log_norm)
    if ref in ("line-series", "line-wright"):
        method = ref.split("-", 1)[1]
        return np.array([densities.line_density(spec, 1.0, 1.0, float(x), method=method)
                         for x in grid])
    if ref == "flight-mixture":
        fspec = counting.FlightCountSpec(d=params["d"], rate=counting.RateFunction.constant(lam))
        return np.array([densities.flight_mixture_density(fspec, 1.0, 1.0, float(r))
                         for r in grid])
    raise ValueError(f"unknown density reference {ref!r}")


def check_density(path: Path, coord: str, grid: np.ndarray,
                  reference: np.ndarray) -> tuple[int, int, dict]:
    """Check a density CSV point by point against the grid and the
    reference values; a ``nan`` or missing row is a failed point."""
    lines = read_lines(path)
    points = int(grid.size)
    if not lines or lines[0].rstrip("\n") != f"{coord},density":
        return points, points, {"error": "missing file or bad header"}
    body = lines[1:]
    failed = max(0, points - len(body)) + max(0, len(body) - points)
    worst = 0.0
    for k, line in enumerate(body[:points]):
        fields = line.rstrip("\n").split(",")
        try:
            value = float(fields[1])
            ok = len(fields) == 2 and fields[0] == repr(float(grid[k])) and math.isfinite(value)
        except (ValueError, IndexError):
            ok = False
        if ok:
            ref = float(reference[k])
            rel = abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)
            worst = max(worst, rel)
            ok = rel <= DENSITY_RTOL
        failed += not ok
    return points, min(points, failed), {"max_rel_diff": worst}


# ---------------------------------------------------------------------------
# Verify report.


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= REPORT_RTOL * max(abs(a), abs(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return False


def check_verify(path: Path, exit_code) -> tuple[int, int, dict]:
    """Compare a report with the pinned default-suite report, entry by
    entry in order; an entry that fails, is missing or differs is a failed
    check."""
    pinned_text = PINNED_REPORT.read_text()
    pinned = json.loads(pinned_text)
    expected = pinned["checks"]
    attempted = len(expected)
    try:
        text = path.read_text()
        report = json.loads(text)
        got = list(report["checks"])
    except (OSError, ValueError, KeyError, TypeError):
        return attempted, attempted, {"error": "missing or unreadable report"}
    if not _close(report.get("manifest"), pinned["manifest"]):
        return attempted, attempted, {"error": "report manifest differs from the pinned one"}
    failed = [k for k, entry in enumerate(expected)
              if k >= len(got) or got[k].get("pass") is not True or not _close(got[k], entry)]
    if exit_code != 0 and not failed:
        failed = list(range(attempted))
    return attempted, len(failed), {
        "failed_checks": [expected[k]["check"] for k in failed],
        "exit_code": exit_code,
        "bytes_identical": text == pinned_text,
    }
