"""Reconciliation harness: quadrature masses, Monte-Carlo goodness-of-fit,
characteristic-function comparisons, telegraph-PDE residuals and Caputo
fractional-derivative identities.

Every check returns a :class:`CheckResult` carrying an explicit tolerance and
a machine-readable verdict; :class:`VerificationReport` collects entries plus
a run manifest and serializes to JSON with stable key order, so reports are
reproducible bit-for-bit from ``(seed, config)``.

The harness is tested for power, not only for passes: each residual check
exposes a perturbation hook (wrong eigenvalue, wrong derivative order,
non-solution density, mismatched law) used as a negative control that must
fail.

The Monte-Carlo checks never hold a whole endpoint batch.  :func:`mc_gof`
takes the sampler's blocks one at a time: each adds to the singular count
and the radial histogram and is dropped before the next is drawn, and only
the angles are kept, 8 bytes per sample, because the KS test sorts them all
(16 bytes per sample while they are joined into one array for the sort).
:func:`empirical_cf` takes the chunks of conditioned endpoints one at a
time and writes each into the complex buffer that it exponentiates and
averages, 16 bytes per sample.  Either way the entries keep the bits of the
whole-batch computation.

Numerical notes
---------------
* The Caputo derivative uses the L1 scheme on a uniform grid.  Its weights
  ``b_j = (j+1)^{1-a} - j^{1-a}`` collapse to a plain backward difference at
  ``a = 1``, so the scheme is accepted on the closed interval ``(0, 1]`` and
  the classical-limit checks reuse the same code path.
* Profiles of the form ``E_{a,1}(mu w^a)`` have unbounded derivative at
  ``w = 0``; the L1 scheme keeps its ``2-a`` order only away from that
  boundary layer, so residual sup-norms are taken over nodes with
  ``w >= w_max/16`` (recorded in the check details).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .counting import FracPoissonSpec, RateFunction, cumulative_rate, pgf
from .densities import (
    PlanarLaw,
    _require_speed_horizon,
    classical_planar_density,
    mixture_density,
    planar_density_const_rate,
    planar_law,
)
from .motion import EndpointArrays, MotionConfig, conditioned_chunks, endpoint_blocks
from .specfun import (
    _LOG_DOUBLE_MAX,
    DomainError,
    MLParams,
    RangeOverflowError,
    bessel_j,
    chi2_sf,
    gamma_pos,
    kolmogorov_sf,
    log_mittag_leffler,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "caputo_l1",
    "disk_mass",
    "eigenfunction_residual",
    "telegraph_residual",
    "mc_gof",
    "empirical_cf",
    "pgf_ode_residual",
    "law_agreement",
    "CHECK_NAMES",
    "SUITE",
    "run_check",
    "run_default_suite",
    "run_negative_controls",
]


# ---------------------------------------------------------------------------
# Report plumbing.


def _jsonable(value):
    """Coerce numpy scalars/arrays into plain Python containers."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class CheckResult:
    """One report entry: named statistic vs tolerance with a verdict."""

    name: str
    statistic: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "statistic", float(self.statistic))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "details", _jsonable(self.details))

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "details": self.details,
        }


def _not_applicable(name: str, statistic: float, tolerance: float, reason: str,
                    details: dict | None = None) -> CheckResult:
    """A passing entry for a check that has nothing to test at its inputs."""
    return CheckResult(name=name, statistic=statistic, tolerance=tolerance, passed=True,
                       details={**(details or {}), "status": "not-applicable", "reason": reason})


@dataclass
class VerificationReport:
    """Ordered check entries plus the run manifest (seed, counts, grids)."""

    checks: list[CheckResult]
    manifest: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "checks": [c.to_dict() for c in self.checks],
            "manifest": self.manifest,
            "all_passed": self.all_passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Caputo L1 machinery.


def _unit_grid(h: float) -> np.ndarray:
    """Nodes ``h * arange(m + 1)`` of the uniform grid 0 = w_0 < ... < w_m = 1,
    for a step ``h > 0`` with ``m = 1/h`` an integer >= 2."""
    m = round(1.0 / h) if h > 0.0 and 1.0 / h < math.inf else 0
    if m < 2 or abs(m * h - 1.0) > 1e-12:
        raise DomainError(f"grid step must be positive with 1/h an integer >= 2, got h={h}")
    return h * np.arange(m + 1)


def caputo_l1(values: Sequence[float], h: float, alpha: float) -> np.ndarray:
    """L1 discretization of the Caputo derivative of order ``alpha`` of
    ``values`` sampled on the grid of step ``h`` over [0, 1].

    ``deriv[m] = h^{-a}/Gamma(2-a) * sum_j b_j (f[m-j] - f[m-j-1])`` with
    ``b_j = (j+1)^{1-a} - j^{1-a}``.  Order of accuracy is ``2 - a`` for
    smooth profiles (checked empirically by halving ``h``).  At ``a = 1``
    all weights except ``b_0 = 1`` vanish and the scheme is the backward
    difference of the classical first derivative.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"Caputo order must lie in (0, 1], got {alpha}")
    f = np.asarray(values, dtype=float)
    n_nodes = _unit_grid(h).size
    if f.shape != (n_nodes,):
        raise DomainError(f"sampled values must match the {n_nodes}-node grid, got shape {f.shape}")
    m = f.size - 1
    j = np.arange(m, dtype=float)
    b = (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
    b[0] = 1.0
    dff = np.diff(f)
    conv = np.convolve(b, dff)[:m]
    out = np.empty_like(f)
    out[0] = 0.0
    out[1:] = (h ** (-alpha) / gamma_pos(2.0 - alpha)) * conv
    return out


# ---------------------------------------------------------------------------
# Quadrature helpers (polar substitution r = ct*sin(phi) removes the
# inverse-square-root edge singularity of the planar laws).


_GAUSS_LEGENDRE_FILE = Path(__file__).with_name("gauss_legendre.npz")


@lru_cache(maxsize=None)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1] for 32 or 256
    nodes, read once per process from the rules numpy's ``leggauss`` wrote
    (``scripts/make_gauss_legendre.py``): its LAPACK eigensolver can stall
    for half a second on its first call in a process."""
    with np.load(_GAUSS_LEGENDRE_FILE) as rules:
        nodes, wts = rules[f"nodes_{n_nodes}"], rules[f"weights_{n_nodes}"]
    nodes.flags.writeable = False
    wts.flags.writeable = False
    return nodes, wts


def disk_mass(radial_density: Callable[[np.ndarray], np.ndarray], c: float, t: float) -> float:
    """``2*pi * integral_0^{ct} r * f(r) dr`` by 256-node Gauss-Legendre in
    phi; ``radial_density`` is called once, on the array of all nodes."""
    phi, wts = _gauss_legendre(256)
    phi = 0.25 * math.pi * (phi + 1.0)
    wts = 0.25 * math.pi * wts
    r = c * t * np.sin(phi)
    vals = np.asarray(radial_density(r), dtype=float)
    integrand = 2.0 * math.pi * r * vals * c * t * np.cos(phi)
    return float(np.sum(wts * integrand))


def _bin_masses(radial_density: Callable[[np.ndarray], np.ndarray], c: float, t: float,
                edges: np.ndarray) -> np.ndarray:
    """Per-bin masses of ``2*pi*r*f(r)`` over consecutive ``edges`` in r by
    32-node Gauss-Legendre per bin; ``radial_density`` is called once, on
    the (bins, 32) array of all nodes."""
    x, wts = _gauss_legendre(32)
    phi_edges = np.arcsin(np.clip(edges / (c * t), 0.0, 1.0))
    a, b = phi_edges[:-1, None], phi_edges[1:, None]
    phi = 0.5 * (b - a) * x + 0.5 * (a + b)
    w = 0.5 * (b - a) * wts
    r = c * t * np.sin(phi)
    vals = np.asarray(radial_density(r), dtype=float)
    return np.sum(w * 2.0 * math.pi * r * vals * c * t * np.cos(phi), axis=1)


# ---------------------------------------------------------------------------
# Caputo identity checks.


_BOUNDARY_CUT = 1.0 / 16.0


def _residual_checkname(base: str, perturbed: bool) -> str:
    return f"{base}-negative-control" if perturbed else base


def _caputo_residual(name: str, values: np.ndarray, h: float, order: float, rate: float,
                     alpha: float, details: dict) -> CheckResult:
    """Check ``d^order values = rate * values`` on the grid of step ``h``:
    the sup of the L1 residual over nodes ``w >= w_max/16`` against
    ``50 * h^(2-alpha)``."""
    deriv = caputo_l1(values, h, order)
    target = rate * values
    w = _unit_grid(h)
    cut = w >= _BOUNDARY_CUT * w[-1]
    residual = float(np.max(np.abs(deriv[cut] - target[cut])))
    tol = 50.0 * h ** (2.0 - alpha)
    return CheckResult(
        name=name,
        statistic=residual,
        tolerance=tol,
        passed=residual <= tol,
        details={**details, "h": h, "boundary_cut": _BOUNDARY_CUT},
    )


def eigenfunction_residual(
    alpha: float,
    lam: float,
    c: float,
    h: float = 1.0 / 512.0,
    eigenvalue_factor: float = 1.0,
) -> CheckResult:
    """Check that the planar density's profile in ``w`` is a Caputo eigenfunction.

    With ``t`` fixed at ``1/c`` (so the grid of step ``h`` on ``[0, 1]``
    spans the full support), the profile ``g(w) = w^alpha * f(w^alpha)`` built from
    :func:`planar_density_const_rate` — normalized by its analytic ``w -> 0``
    limit ``lam/(2*pi*c*E)`` so that ``g(0) = 1`` — must satisfy
    ``d^alpha g = (lam/c) g``.  Reports the residual sup-norm away from the
    origin boundary layer against ``50 * h^(2-alpha)``.

    ``eigenvalue_factor != 1`` scales the claimed eigenvalue and serves as
    the wrong-eigenvalue negative control.  Raises ``RangeOverflowError``,
    naming the number that fails, where ``g``, which tops out at
    ``E = E_{alpha,1}(lam/c)``, or the residual formed from it would leave
    the double range, where ``lam/(2*pi*c*E)`` is below it, or where
    :func:`planar_density_const_rate`'s ``c*c*t*t`` overflows.
    """
    t = 1.0 / c
    w = _unit_grid(h)
    g = np.empty_like(w)
    g[0] = 1.0
    if lam == 0.0:
        g[1:] = 1.0
    else:
        log_norm = log_mittag_leffler(MLParams(alpha, 1.0), lam * t)
        limit0 = lam / (2.0 * math.pi * c) * math.exp(-log_norm)
        # g tops out at exp(log_norm), and the residual differences it after
        # scaling by the claimed eigenvalue or the L1 weight h^-alpha/Gamma(2-alpha).
        scale = max(eigenvalue_factor * lam / c, h ** -alpha / gamma_pos(2.0 - alpha), 1.0)
        if not log_norm + math.log(2.0 * scale) < _LOG_DOUBLE_MAX:
            raise RangeOverflowError(
                f"eigenfunction profile at lambda={lam} leaves double range: "
                f"ln E_{{{alpha},1}}({lam * t}) = {log_norm:.6g}")
        if not limit0 >= sys.float_info.min:
            log_limit0 = math.log(lam) - math.log(2.0 * math.pi) - math.log(c) - log_norm
            raise RangeOverflowError(
                f"eigenfunction normalizer at c={c} leaves double range: "
                f"lambda/(2*pi*c*E) = exp({log_limit0:.6g}) is below the smallest normal double")
        # The law forms c*c*t*t, which overflows at t = 1/c although c*t = 1.
        if not math.isfinite(c * c * t * t):
            raise RangeOverflowError(
                f"eigenfunction profile at c={c} leaves double range: the planar "
                f"law's c*c*t*t at t = 1/c = {t:.6g} is {c * c * t * t}")
        # Scalar ** per node: numpy's power differs in the last ulp.
        ws = np.array([wm**alpha for wm in w[1:]])
        r = np.array([math.sqrt(max(0.0, (c * t) ** 2 - v * v)) for v in ws.tolist()])
        g[1:] = ws * planar_density_const_rate(alpha, lam, c, t, r, 0.0) / limit0
    return _caputo_residual(
        _residual_checkname("caputo-eigenfunction", eigenvalue_factor != 1.0),
        g, h, alpha, eigenvalue_factor * (lam / c), alpha,
        {"alpha": alpha, "lambda": lam, "c": c, "eigenvalue_factor": eigenvalue_factor},
    )


def pgf_ode_residual(
    spec: FracPoissonSpec,
    t: float,
    h: float = 1.0 / 512.0,
    derivative_alpha: float | None = None,
) -> CheckResult:
    """Check the fractional ODE of the generating function.

    ``H(u) = G(u^alpha; t)`` must satisfy ``d^alpha H = Lambda(t) H`` on
    the grid of step ``h`` over ``u in [0, 1]``.  ``derivative_alpha``
    overrides the order used by the L1 scheme and serves as the
    perturbed-order negative control.
    """
    alpha = spec.alpha
    d_alpha = alpha if derivative_alpha is None else derivative_alpha
    lam = cumulative_rate(spec.rate, t)
    u = _unit_grid(h)
    h_vals = pgf(spec, t, np.array([float(ui) ** alpha for ui in u]))
    return _caputo_residual(
        _residual_checkname("pgf-fractional-ode", derivative_alpha is not None),
        h_vals, h, d_alpha, lam, alpha,
        {"alpha": alpha, "derivative_alpha": d_alpha, "Lambda": lam, "t": t},
    )


# ---------------------------------------------------------------------------
# Telegraph PDE residual.


# Grid points per band of rows in telegraph_residual: a band's arrays peak
# near 1.7 MB, below the Monte-Carlo checks' working sets.
_TELEGRAPH_BAND = 1 << 14
# Most grid steps from the centre to an edge of the telegraph square: the
# check's time grows with their square, and at h = 1/256, t = 2 this admits
# c <= 8.
_TELEGRAPH_MAX_STEPS = 1 << 12


def telegraph_residual(
    lam: float,
    c: float,
    t: float = 2.0,
    h: float = 1.0 / 256.0,
    density: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None,
    cone_margin: float | None = None,
) -> CheckResult:
    """Finite-difference residual of ``p_tt + 2*lam*p_t = c^2 (p_xx + p_yy)``.

    Central differences in ``x, y, t`` with step ``h`` on the absolutely
    continuous planar density at constant rate ``lam``; only interior points
    bounded away from the light cone ``r = ct`` enter the sup.  The density
    and its derivatives blow up like powers of the cone distance, so the
    exclusion width defaults to ``max(5 steps, 0.05*c*t)`` — an absolute
    margin keeps the relative residual O(h^2) as the grid refines, whereas a
    fixed step count would pin a boundary layer of h-independent size.
    Reports ``max|residual| / max|c^2 * Laplacian|`` against ``100 h^2``.
    A square wider than 4 096 steps each side of 0 (``ct/h``; ``c > 8`` at
    the defaults) raises ``DomainError`` before any point is laid out.
    The density and the stencil are evaluated only on columns that can hold
    a point of the disk ``r <= c(t - h) - margin``; the details count every
    other point of the square as excluded.  ``lam = 0`` degenerates (no
    absolutely continuous part) and is marked not applicable.  Passing a
    non-solution ``density`` is the negative control for stencil power.
    """
    name = _residual_checkname("telegraph-pde", density is not None)
    if lam == 0.0:
        return _not_applicable("telegraph-pde", 0.0, 100.0 * h * h, "lambda=0 has no smooth part")
    if density is None:
        density = lambda xx, yy, tt: classical_planar_density(lam, c, tt, xx, yy)  # noqa: E731
    if cone_margin is None:
        cone_margin = max(5.0 * h * max(1.0, c), 0.05 * c * t)
    if cone_margin < 5.0 * h * max(1.0, c):
        raise DomainError("cone margin must keep points >= 5 grid steps inside the support")
    half = c * t
    if not half / h <= _TELEGRAPH_MAX_STEPS:
        raise DomainError(f"telegraph grid of ct/h = {half / h:.6g} steps each side of 0 "
                          f"exceeds the cap of {_TELEGRAPH_MAX_STEPS}")
    n_side = int(math.floor(half / h))
    axis = h * np.arange(-n_side, n_side + 1)
    n = axis.size
    radius = c * (t - h) - cone_margin
    interior = 0
    resid_max, scale_max = [], []
    # Rows in bands, each with a one-row halo of p_mid for the Laplacian.
    # A band takes only the columns that can hold a disk point, plus a guard
    # column each side against rounding, and p_mid one more for the stencil.
    rows = max(1, _TELEGRAPH_BAND // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        nearest = h * max(0, lo - n_side, n_side - (hi - 1))  # least |x| of the band
        if nearest > radius:
            continue
        reach = int(math.sqrt(radius * radius - nearest * nearest) / h) + 1
        col_lo, col_hi = max(n_side - reach, 0), min(n_side + reach + 1, n)
        halo_lo, halo_hi = max(lo - 1, 0), min(hi + 1, n)
        mid_lo, mid_hi = max(col_lo - 1, 0), min(col_hi + 1, n)
        x = axis[lo:hi, None]
        y = axis[None, col_lo:col_hi]
        p_mid = density(axis[halo_lo:halo_hi, None], axis[None, mid_lo:mid_hi], t)
        p_lo = density(x, y, t - h)
        p_hi = density(x, y, t + h)
        lap = np.full_like(p_mid, np.nan)
        lap[1:-1, 1:-1] = (
            p_mid[2:, 1:-1] + p_mid[:-2, 1:-1] + p_mid[1:-1, 2:] + p_mid[1:-1, :-2]
            - 4.0 * p_mid[1:-1, 1:-1]
        ) / (h * h)
        # Drop the halo; a band at the grid's edge keeps its NaN row or column.
        band = (slice(lo - halo_lo, hi - halo_lo), slice(col_lo - mid_lo, col_hi - mid_lo))
        lap = lap[band]
        p_tt = (p_hi - 2.0 * p_mid[band] + p_lo) / (h * h)
        p_t = (p_hi - p_lo) / (2.0 * h)
        resid = p_tt + 2.0 * lam * p_t - c * c * lap
        r = np.sqrt(x * x + y * y)
        mask = r <= radius
        inside = int(np.count_nonzero(mask))
        interior += inside
        if not inside:
            continue
        vals = resid[mask]
        if np.any(np.isnan(vals)):
            raise DomainError("stencil touched the support boundary inside the mask")
        resid_max.append(np.nanmax(np.abs(vals)))
        scale_max.append(np.nanmax(np.abs(c * c * lap[mask])))
    if not interior:
        raise DomainError("cone margin leaves no interior points")
    statistic = float(np.nanmax(resid_max) / np.nanmax(scale_max))
    tol = 100.0 * h * h
    return CheckResult(
        name=name,
        statistic=statistic,
        tolerance=tol,
        passed=statistic <= tol,
        details={
            "lambda": lam,
            "c": c,
            "t": t,
            "h": h,
            "interior_points": interior,
            "excluded_points": n * n - interior,
            "cone_margin": cone_margin,
        },
    )


# ---------------------------------------------------------------------------
# Monte-Carlo goodness of fit.


def _radial_profile(law: PlanarLaw) -> Callable[[np.ndarray], np.ndarray]:
    """The law's absolutely continuous part as a function of an array of r."""
    return lambda r: law.ac_density(r, 0.0)


_KS_CHUNK = 1 << 14  # sorted samples whose KS gaps are formed at once


def _ks_uniform(u: np.ndarray) -> tuple[float, float]:
    """(D, p) of the two-sided Kolmogorov-Smirnov test of samples ``u`` in
    [0, 1] against the uniform law: D = max(D+, D-) from the sorted sample,
    formed as ``scipy.stats.kstest`` forms it, and p =
    :func:`~fracmotion.specfun.kolmogorov_sf`.  Sorts ``u`` in place and
    forms the gaps ``_KS_CHUNK`` at a time."""
    u.sort()
    n = u.size
    d_plus = d_minus = -math.inf
    for lo in range(0, n, _KS_CHUNK):
        part = u[lo:lo + _KS_CHUNK]
        steps = np.arange(lo, lo + part.size + 1, dtype=float)
        steps /= n  # k/n for k = lo .. lo + len(part)
        gaps = np.subtract(steps[1:], part)
        d_plus = max(d_plus, gaps.max())
        d_minus = max(d_minus, np.subtract(part, steps[:-1], out=gaps).max())
    d = max(d_plus, d_minus)
    return float(d), kolmogorov_sf(n, d)


def _merge_bins(counts: np.ndarray, expected: np.ndarray) -> tuple[list, list]:
    """Merge consecutive bins, left to right, until each holds an expected
    count >= 5; a short remainder joins the last merged bin."""
    merged_counts: list[float] = []
    merged_expected: list[float] = []
    acc_c = 0.0
    acc_e = 0.0
    for k in range(counts.size):
        acc_c += counts[k]
        acc_e += expected[k]
        if acc_e >= 5.0:
            merged_counts.append(acc_c)
            merged_expected.append(acc_e)
            acc_c = 0.0
            acc_e = 0.0
    if acc_e > 0.0:
        if merged_expected:
            merged_counts[-1] += acc_c
            merged_expected[-1] += acc_e
        else:
            merged_counts.append(acc_c)
            merged_expected.append(acc_e)
    return merged_counts, merged_expected


def mc_gof(blocks: Iterable[EndpointArrays], law: PlanarLaw,
           bins: int = 50) -> list[CheckResult]:
    """Three-way goodness of fit of an endpoint batch against a planar law.

    Entries: (i) binomial z-test of the singular mass, |z| <= 3; where its
    variance is 0 (a singular weight of 0 or 1 in double precision), z is 0
    for exact agreement and infinite otherwise; (ii) chi-square over radial
    bins of the nonsingular samples against ``2*pi*r*ac_density`` with
    expected counts >= 5 (merging low-count bins, noted in details),
    p > 0.001, not applicable with fewer than two merged bins; (iii) KS
    test of the angle against uniform, p > 0.001.

    ``blocks`` is the batch as consecutive blocks, as
    :func:`~fracmotion.motion.endpoint_blocks` yields them (``[cols]`` for
    one batch in one piece).  Each block adds to the singular count and the
    radial histogram as it arrives and is dropped before the next is asked
    for; only the angles are kept, 8 bytes per sample, since the KS test
    sorts them all.  Any split of the batch gives the same entries, bit for
    bit.
    """
    ct = law.c * law.t
    edges = np.linspace(0.0, ct, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    n_moving = k_sing = 0
    angles = []
    for block in blocks:
        singular = block.is_singular
        k_sing += int(np.count_nonzero(singular))
        moving = ~singular
        r = np.hypot(block.x[moving], block.y[moving])
        n_moving += r.size
        counts += np.histogram(r, bins=edges)[0]
        theta = np.arctan2(block.y, block.x)
        np.mod(theta, 2.0 * math.pi, out=theta)
        theta /= 2.0 * math.pi
        angles.append(theta)
        # Drop the block before the next one is drawn.
        del block, singular, moving, r, theta
    theta = angles[0] if len(angles) == 1 else np.concatenate(angles)
    del angles
    n_total = theta.size
    if n_total < 100_000:
        raise DomainError(f"goodness-of-fit needs >= 1e5 samples, got {n_total}")

    p0 = law.singular_weight
    variance = n_total * p0 * (1.0 - p0)
    excess = k_sing - n_total * p0
    if variance > 0.0:
        z = excess / math.sqrt(variance)
    else:
        z = math.copysign(math.inf, excess) if excess else 0.0
    singular_entry = CheckResult(
        name="mc-singular-mass",
        statistic=abs(z),
        tolerance=3.0,
        passed=abs(z) <= 3.0,
        details={
            "observed_fraction": k_sing / n_total,
            "expected_fraction": p0,
            "z": z,
            "n_samples": n_total,
        },
    )

    # No expected counts where no sample moved or the law has no
    # absolutely continuous part.
    merged_counts: list[float] = []
    merged_expected: list[float] = []
    if n_moving:
        masses = _bin_masses(_radial_profile(law), law.c, law.t, edges)
        if masses.sum() > 0.0:
            merged_counts, merged_expected = _merge_bins(counts,
                                                         masses / masses.sum() * n_moving)
    n_merged = bins - len(merged_counts)
    radial_details = {"bins": len(merged_counts), "bins_merged": n_merged,
                      "nonsingular_samples": n_moving}
    if len(merged_counts) < 2:
        radial_entry = _not_applicable(
            "mc-radial-chi2", 1.0, 0.001,
            f"{n_moving} nonsingular samples give fewer than two radial bins "
            "an expected count >= 5", radial_details)
    else:
        # Pearson's statistic summed as scipy.stats.chisquare sums it.
        obs, ex = np.array(merged_counts), np.array(merged_expected)
        chi2 = float(np.sum((obs - ex) ** 2 / ex))
        p_radial = chi2_sf(chi2, len(merged_counts) - 1)
        radial_entry = CheckResult(
            name="mc-radial-chi2",
            statistic=float(p_radial),
            tolerance=0.001,
            passed=p_radial > 0.001,
            details={"chi2": chi2, **radial_details},
        )

    ks_stat, p_angle = _ks_uniform(theta)
    angle_entry = CheckResult(
        name="mc-angle-ks",
        statistic=float(p_angle),
        tolerance=0.001,
        passed=p_angle > 0.001,
        details={"ks": float(ks_stat), "n_samples": n_total},
    )
    return [singular_entry, radial_entry, angle_entry]


def empirical_cf(chunks: Iterable[tuple[np.ndarray, np.ndarray]], n_samples: int, n: int,
                 alpha_freq: float, beta_freq: float, c: float, t: float) -> CheckResult:
    """Empirical characteristic function of ``n_samples`` endpoints
    conditioned on ``n`` switches versus the Bessel closed form ``2^{n/2}
    Gamma(n/2+1) J_{n/2}(ct*g) / (ct*g)^{n/2}`` with ``g = sqrt(a^2 + b^2)``.

    The endpoints come as consecutive ``(x, y)`` chunks, as
    :func:`~fracmotion.motion.conditioned_chunks` yields them (``[(x, y)]``
    for one batch in one piece); each chunk's phases ``a*x + b*y`` are
    written into one complex buffer, 16 bytes per sample, as it arrives.
    Chunks holding other than ``n_samples`` rows raise ``DomainError``.
    Tolerance is the Monte-Carlo scale ``4 / sqrt(N)``.
    """
    if n < 1:
        raise DomainError(f"conditional characteristic function needs n >= 1, got {n}")
    if n_samples < 100_000:
        raise DomainError(f"characteristic-function check needs >= 1e5 samples, got {n_samples}")
    gamma_freq = math.hypot(alpha_freq, beta_freq)
    if gamma_freq == 0.0:
        analytic = 1.0
    else:
        z = c * t * gamma_freq
        half = n / 2.0
        # The reference only has to beat the Monte-Carlo tolerance 4/sqrt(N)
        # by orders of magnitude, so admit the extended-precision noise floor
        # of the alternating Bessel series at desk-scale frequencies instead
        # of demanding full double accuracy.
        analytic = (2.0 ** half) * gamma_pos(half + 1.0) * bessel_j(half, z, 1e-9) / z ** half
    # exp(i*phase) in one complex buffer; its real part is +0.0 where 1j*phase
    # gave -0.0 for a negative phase, and exp(+-0) is exactly 1.
    w = np.zeros(n_samples, dtype=complex)
    lo = 0
    for x, y in chunks:
        hi = lo + x.size
        if hi <= n_samples:
            phase = w.imag[lo:hi]
            np.multiply(alpha_freq, x, out=phase)
            phase += beta_freq * y
        lo = hi
        # Drop the chunk before the next one is drawn.
        del x, y
    if lo != n_samples:
        raise DomainError(f"chunks hold {lo} endpoints, but n_samples is {n_samples}")
    emp = complex(np.mean(np.exp(w, out=w)))
    deviation = abs(emp - analytic)
    tol = 4.0 / math.sqrt(n_samples)
    return CheckResult(
        name="conditional-cf",
        statistic=deviation,
        tolerance=tol,
        passed=deviation <= tol,
        details={
            "n": n,
            "frequency": [alpha_freq, beta_freq],
            "empirical": [emp.real, emp.imag],
            "analytic": analytic,
            "n_samples": n_samples,
        },
    )


# ---------------------------------------------------------------------------
# Law-agreement quantification (closed form vs series mixture vs the
# constant-rate printed form).


def law_agreement(spec: FracPoissonSpec, c: float, t: float) -> CheckResult:
    """Pointwise agreement between the closed-form planar density and the
    term-by-term mixture over the switch count at 40 radii from 0 to
    ``0.995 ct``, asserted at 1e-10 relative.

    The constant-rate single-series form is evaluated alongside and its
    maximum relative deviation from the mixture is recorded in the details —
    it coincides at ``alpha = 1`` but is a genuinely different function for
    ``alpha < 1``; no agreement is asserted for it.  ``Lambda(t)`` below
    the smallest normal double is marked not applicable: at 0 there is no
    absolutely continuous part (every mixture term is 0), and a subnormal
    ``Lambda`` keeps too few bits for a relative comparison.
    """
    law = planar_law(spec, c, t)
    tol = 1e-10
    if cumulative_rate(spec.rate, t) < sys.float_info.min:
        return _not_applicable("planar-closed-vs-mixture", 0.0, tol,
                               "Lambda is 0 or subnormal: no absolutely continuous "
                               "part to compare in double precision",
                               {"alpha": spec.alpha, "singular_weight": law.singular_weight})
    radii = c * t * np.linspace(0.0, 0.995, 40)
    lam_is_const = spec.rate.kind == "constant"
    mix = np.array([mixture_density(spec, c, t, r) for r in radii.tolist()])
    pos = mix > 0.0
    closed = law.ac_density(radii[pos], 0.0)
    max_rel_closed = float(np.max(np.abs(closed - mix[pos]) / mix[pos], initial=0.0))
    if lam_is_const:
        lam0 = spec.rate.params[0]
        const_form = planar_density_const_rate(spec.alpha, lam0, c, t, radii[pos], 0.0)
        max_rel_const = float(np.max(np.abs(const_form - mix[pos]) / mix[pos], initial=0.0))
    mass = disk_mass(_radial_profile(law), c, t)
    mass_err = abs(mass + law.singular_weight - 1.0)
    details = {
        "alpha": spec.alpha,
        "n_radii": radii.size,
        "disk_mass_error": mass_err,
        "singular_weight": law.singular_weight,
    }
    if lam_is_const:
        details["const_rate_form_max_rel_diff"] = max_rel_const
    passed = max_rel_closed <= tol and mass_err <= 1e-8
    return CheckResult(
        name="planar-closed-vs-mixture",
        statistic=max_rel_closed,
        tolerance=tol,
        passed=passed,
        details=details,
    )


# ---------------------------------------------------------------------------
# Suites.


def _default_manifest(seed: int, n_samples: int) -> dict:
    return {
        "seed": seed,
        "n_samples": n_samples,
        "package_version": __version__,
        "grids": {"caputo_h": 1.0 / 512.0, "telegraph_h": 1.0 / 256.0},
    }


def _const_spec(alpha: float, lam: float) -> FracPoissonSpec:
    return FracPoissonSpec(alpha=alpha, rate=RateFunction.constant(lam))


def _mc_check(alpha, lam, c, t, n_samples, seed):
    spec = _const_spec(alpha, lam)
    blocks = endpoint_blocks(MotionConfig(c=c, t=t, count_spec=spec), n_samples, seed)
    return mc_gof(blocks, planar_law(spec, c, t))


def _cf_check(alpha, lam, c, t, n_samples, seed):
    chunks = conditioned_chunks(2, c, t, n_samples, seed)
    return [empirical_cf(chunks, n_samples, 2, 1.0, 0.0, c, t)]


# The checks by name, in the order ``verify --check`` lists them: each maps
# (alpha, lam, c, t, n_samples, seed) to its report entries at constant rate.
_CHECKS = {
    "telegraph": lambda alpha, lam, c, t, n, seed: [telegraph_residual(lam, c)],
    "eigenfunction": lambda alpha, lam, c, t, n, seed: [eigenfunction_residual(alpha, lam, c)],
    "pgf": lambda alpha, lam, c, t, n, seed: [pgf_ode_residual(_const_spec(alpha, lam), t)],
    "law": lambda alpha, lam, c, t, n, seed: [law_agreement(_const_spec(alpha, lam), c, t)],
    "mc": _mc_check,
    "cf": _cf_check,
}
CHECK_NAMES = tuple(_CHECKS)
# The (c, t) a check reads, where it is not the (c, t) it is given: the
# telegraph check runs at t = 2 and the eigenfunction check at t = 1/c.
_SPEED_HORIZON = {
    "telegraph": lambda c, t: (c, 2.0),
    "eigenfunction": lambda c, t: (c, 1.0 / c if c else c),  # c = 0 is refused as c
}

# The default suite as (check, alpha) rows at lambda = c = t = 1, in report
# order; the mc entries carry an [alpha=...] tag.
SUITE = (("law", 1.0), ("law", 0.5), ("mc", 1.0), ("mc", 0.5), ("cf", 0.5),
         ("eigenfunction", 0.5), ("telegraph", 0.5), ("pgf", 0.5))


def run_check(name: str, alpha: float, lam: float, c: float, t: float, n_samples: int,
              seed: int) -> list[CheckResult]:
    """The report entries of check ``name`` (one of ``CHECK_NAMES``) at order
    ``alpha``, constant rate ``lam``, speed ``c`` and horizon ``t``; ``mc`` and
    ``cf`` draw ``n_samples`` endpoints from ``seed``. Raises ``DomainError``
    for an unknown name, or unless the speed and horizon the check reads, and
    their product, are finite and positive (the rule of
    :mod:`fracmotion.densities`): ``(c, 2)`` for ``telegraph``, ``(c, 1/c)``
    for ``eigenfunction`` and ``(c, t)`` for the others.  ``pgf`` reads no
    ``c`` but keeps the ``(c, t)`` rule: at a large ``t`` its grid does not
    resolve the profile and the check fails on correct code."""
    if name not in _CHECKS:
        raise DomainError(f"unknown check {name!r}")
    _require_speed_horizon(*_SPEED_HORIZON.get(name, lambda c, t: (c, t))(c, t))
    return _CHECKS[name](alpha, lam, c, t, n_samples, seed)


def run_default_suite(seed: int = 20260815, n_samples: int = 100_000) -> VerificationReport:
    """The standard reconciliation run: every row of ``SUITE`` through
    :func:`run_check`, so each row's batch is freed before the next is drawn."""
    checks: list[CheckResult] = []
    for name, alpha in SUITE:
        entries = run_check(name, alpha, 1.0, 1.0, 1.0, n_samples, seed)
        if name == "mc":
            entries = [replace(e, name=f"{e.name}[alpha={alpha:g}]") for e in entries]
        checks.extend(entries)
    return VerificationReport(checks=checks, manifest=_default_manifest(seed, n_samples))


def run_negative_controls(seed: int = 20260815, n_samples: int = 100_000) -> VerificationReport:
    """Power test: every entry is a deliberately broken configuration and
    must FAIL its check."""
    checks: list[CheckResult] = []
    wrong_law = planar_law(_const_spec(0.7, 1.0), 1.0, 1.0)
    blocks = endpoint_blocks(MotionConfig(c=1.0, t=1.0, count_spec=_const_spec(1.0, 1.0)),
                             n_samples, seed)
    checks.extend(replace(entry, name=f"{entry.name}-negative-control")
                  for entry in mc_gof(blocks, wrong_law) if entry.name == "mc-radial-chi2")
    checks.append(eigenfunction_residual(0.5, 1.0, 1.0, eigenvalue_factor=2.0))
    checks.append(pgf_ode_residual(_const_spec(0.5, 1.0), 1.0, derivative_alpha=0.75))
    squared = lambda xx, yy, tt: classical_planar_density(1.0, 1.0, tt, xx, yy) ** 2  # noqa: E731
    checks.append(telegraph_residual(1.0, 1.0, density=squared))
    manifest = _default_manifest(seed, n_samples)
    manifest["negative_controls"] = True
    return VerificationReport(checks=checks, manifest=manifest)
