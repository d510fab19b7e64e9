"""Series-based special functions on the nonnegative real axis.

Everything downstream (the counting family, the densities, the
verification harness) is assembled from four primitives evaluated here for
z >= 0: the Gamma function, the two-parameter Mittag-Leffler function

    E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha*k + beta),

the generalized Wright series with Gamma-ratio coefficients, and the
Bessel function J_nu of real order.

The Mittag-Leffler-type series -- these two, and the line and count laws
built on them in ``densities`` and ``counting`` -- have log-concave terms
with log-curvature about -alpha/n at the peak n* ~ z^(1/alpha)/alpha
(Gorenflo, Loutchko & Luchko 2002). One kernel, :func:`_log_window_sum`,
sums each in the log domain over the window that holds every term within
60 nats of the peak (what it leaves out is below e^-60 relative). The
window starts at n^ +- (ceil(sqrt(2*60*max(n^, 1)/alpha)) + 16) from
n^ = max(0, (z^(1/alpha) - beta)/alpha), lo clipped at 0; an edge still
within 60 nats doubles its distance from the peak and is bisected back to
within 16 terms of the last term within 60 nats, so the width stays near
2*sqrt(120*n*/alpha), 1.94e6 terms at alpha=0.2, z=50. A window wider
than 2 000 000 terms raises ``ConvergenceError`` before it is allocated;
one wider than ``_ML_CHUNK`` terms forms its log-terms ``_ML_CHUNK`` at a
time into one array (8 bytes a term: 15.5 MB at alpha=0.2, z=50).
Log-terms of size n* ln(z) carry its rounding: at n* ~ 1e9 they are near
6e9 nats and cost about 1e-6 relative.

:func:`log_mittag_leffler` sums no window where it need not. On the
positive axis, for 0 < alpha < 2,

    E_{alpha,beta}(z) = z^((1-beta)/alpha) exp(z^(1/alpha)) / alpha
                        - sum_{k>=1} z^-k / Gamma(beta - alpha*k)

(Gorenflo, Loutchko & Luchko 2002). With beta <= alpha + 1 and
z^(1/alpha) >= 40 the sum is below e^-40 relative, so ln E is the leading
term's log in O(1); the 2 000 000-term cap then binds only the windowed
series (the count tables, the state-dependent tail and the line laws).

:func:`positive_series` sums the series with arbitrary terms -- the planar
and flight mixtures and the weighted-Poisson normalizer -- from k = 0: it
keeps terms up to the first k >= ``first_stop`` no larger than its
predecessor and than ``rel_tol`` times a positive running sum, and adds
them with ``math.fsum``. The alternating Bessel series carries a
cancellation guard.

Gamma values come from a fixed-coefficient Lanczos approximation rather
than the platform libm, so results are reproducible across systems;
``log_gamma_pos`` covers arbitrarily large arguments.

Two goodness-of-fit tails give the verification harness its p-values:
:func:`chi2_sf`, the regularized upper incomplete gamma, and
:func:`kolmogorov_sf`, the Pelz-Good form of the two-sided
Kolmogorov-Smirnov tail.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "RangeOverflowError",
    "MLParams",
    "WrightSeriesSpec",
    "gamma_pos",
    "log_gamma_pos",
    "mittag_leffler",
    "log_mittag_leffler",
    "wright_series",
    "log_wright_series",
    "positive_series",
    "bessel_j",
    "chi2_sf",
    "kolmogorov_sf",
]


class DomainError(ValueError):
    """Argument outside the domain an operation is defined on."""


class ConvergenceError(ArithmeticError):
    """A series failed to reach the requested tolerance.

    Carries the partial sum and the number of terms consumed so callers
    can inspect how far the summation got.
    """

    def __init__(self, message, partial_sum, terms_used):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.terms_used = terms_used


class RangeOverflowError(OverflowError):
    """The true value (or an intermediate term) exceeds double range."""


# Indices per call of a series' term function, and the largest term a
# series may keep (a margin below the double range).
_SERIES_BLOCK = 64
_MAX_TERM = math.exp(709.0)
# _log_window_sum: log-terms formed at once, the nats below the peak term a
# window reaches (e^-60 is below a double's precision), its widest window.
_ML_CHUNK = 1 << 15
_ML_TAIL_NATS = 60.0
_MAX_WINDOW = 2_000_000
# log_mittag_leffler: z^(1/alpha) from which E_{alpha,beta}(z) is its leading
# exponential, the algebraic part of its expansion below e^-40 relative.
_ML_EXP_ROOT = 40.0
_LOG_DOUBLE_MAX = 709.78  # just below ln(1.797e308)
_BESSEL_MAX_TERMS = 20000


def positive_series(terms, rel_tol: float, max_terms: int, what: str,
                    first_stop: int = 0) -> np.ndarray:
    """Kept prefix of the nonnegative series sum_k terms(k), for ``math.fsum``.

    ``terms`` maps an array of consecutive indices to their terms and sees
    blocks of ``_SERIES_BLOCK`` indices, so up to one block past the last
    kept term. With running sums formed left to right, the last kept term
    is the first at k >= ``first_stop`` that is <= its predecessor and <=
    ``rel_tol`` times a positive running sum. Only kept terms are checked:
    negative or NaN raises ``DomainError``, above e^709
    ``RangeOverflowError``. Without a stop in ``max_terms`` terms,
    ``ConvergenceError`` carries their sum and ``terms_used == max_terms``.
    ``what`` names the series and its argument in every message.
    """
    kept = []
    running = 0.0
    prev = math.inf
    for lo in range(0, max_terms, _SERIES_BLOCK):
        k = np.arange(lo, min(lo + _SERIES_BLOCK, max_terms))
        with np.errstate(over="ignore", invalid="ignore"):
            block = np.asarray(terms(k), dtype=float)
            sums = np.cumsum(np.concatenate(([running], block)))[1:]
        # A zero running sum means the terms so far underflowed on the
        # rising side of the series; that is not convergence.
        stop = ((block <= np.concatenate(([prev], block[:-1]))) & (block <= rel_tol * sums)
                & (sums > 0.0))
        stop[: max(first_stop - lo, 0)] = False
        hit = np.flatnonzero(stop)
        block = block[: hit[0] + 1] if hit.size else block
        bad = np.flatnonzero(~((block >= 0.0) & (block <= _MAX_TERM)))
        if bad.size:
            value = block[bad[0]]
            if value > _MAX_TERM:
                raise RangeOverflowError(f"{what} exceeds double range at term {lo + bad[0]}")
            raise DomainError(f"{what} has an invalid term {value} at k={lo + bad[0]}")
        kept.append(block)
        if hit.size:
            return np.concatenate(kept)
        running, prev = sums[-1], block[-1]
    raise ConvergenceError(
        f"{what} did not converge in {max_terms} terms",
        math.fsum(np.concatenate(kept)) if kept else 0.0,
        max_terms,
    )


class MLParams(NamedTuple):
    """Order pair (alpha, beta) of the two-parameter Mittag-Leffler
    function; both must be positive."""

    alpha: float
    beta: float = 1.0


class WrightSeriesSpec(NamedTuple):
    """Parameter rows of a generalized Wright series.

    ``upper`` holds the (a_j, A_j) pairs entering the numerator Gamma
    products, ``lower`` the (b_j, B_j) pairs of the denominator. All
    A_j, B_j must be positive, and no denominator argument b_j + B_j*k
    may hit a Gamma pole for any term index k that the summation uses.
    """

    upper: tuple
    lower: tuple


# Fixed Lanczos coefficients (g = 7, 9 terms). Worst relative error of
# the reconstructed Gamma on (0, 170] measured against a 50-digit
# reference: ~1e-13.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
# Largest x with Gamma(x) representable in double precision.
_GAMMA_OVERFLOW_X = 171.624376956302


def _lanczos_sum(z):
    """Rational part of the Lanczos formula at shifted argument z = x - 1."""
    a = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        a += _LANCZOS_C[i] / (z + i)
    return a


def gamma_pos(x: float) -> float:
    """Gamma(x) for real x > 0.

    Relative error is below 1e-12 on (0, 170]. Raises ``DomainError``
    for x <= 0 and ``RangeOverflowError`` once Gamma(x) exceeds double
    range (x > ~171.6).
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"gamma_pos requires x > 0, got {x}")
    if x > _GAMMA_OVERFLOW_X:
        raise RangeOverflowError(f"Gamma({x}) exceeds double-precision range")
    if x < 0.5:
        # Reflection keeps the Lanczos kernel on arguments >= 0.5.
        return math.pi / (math.sin(math.pi * x) * gamma_pos(1.0 - x))
    z = x - 1.0
    a = _lanczos_sum(z)
    t = z + _LANCZOS_G + 0.5
    e = (z + 0.5) * math.log(t) - t
    if e > 350.0:
        # Split the product so no intermediate overflows near the top of
        # the representable range.
        half = _SQRT_TWO_PI**0.5 * t ** ((z + 0.5) / 2.0) * math.exp(-t / 2.0) * a**0.5
        return half * half
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * a


def log_gamma_pos(x):
    """ln Gamma(x) for x > 0; accepts scalars or numpy arrays.

    Same fixed Lanczos coefficients as :func:`gamma_pos`, evaluated in
    log form so arbitrarily large arguments stay representable.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size and arr.min() >= 0.5:
        # Every argument on the kernel's side (a NaN fails the test): one pass.
        out = _log_gamma_lanczos(arr)
        return float(out[0]) if scalar else out
    if np.any(arr <= 0.0):
        raise DomainError("log_gamma_pos requires x > 0")
    out = np.empty_like(arr)

    small = arr < 0.5
    big = ~small
    if np.any(big):
        out[big] = _log_gamma_lanczos(arr[big])
    if np.any(small):
        xs = arr[small]
        out[small] = np.log(math.pi / np.sin(math.pi * xs)) - log_gamma_pos(1.0 - xs)
    return float(out[0]) if scalar else out


def _log_gamma_lanczos(x: np.ndarray) -> np.ndarray:
    """ln Gamma on an array of arguments >= 0.5 (or NaN): the Lanczos sum
    in log form."""
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(_lanczos_sum(z))


def _as_ml_params(params) -> MLParams:
    p = MLParams(*params)
    if not (p.alpha > 0.0 and p.beta > 0.0):
        raise DomainError(f"Mittag-Leffler orders must be positive, got {p}")
    return p


def _exp_in_range(log_value: float, what: str) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise RangeOverflowError(f"{what} exceeds double range") from None


def mittag_leffler(params, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z), z >= 0: the
    exp of :func:`log_mittag_leffler`, whose rounding it carries (relative
    error about |ln E| times the double precision). Raises
    ``RangeOverflowError`` when the value exceeds double range."""
    p = _as_ml_params(params)
    return _exp_in_range(log_mittag_leffler(p, float(z)), f"E_{{{p.alpha},{p.beta}}}({z})")


def _peak_guess(z, alpha: float, beta: float):
    """max(0, (z^(1/alpha) - beta)/alpha), the peak index of z^k / Gamma(alpha*k
    + beta); inf where z^(1/alpha) overflows."""
    with np.errstate(over="ignore"):
        return np.maximum(0.0, (z ** (1.0 / alpha) - beta) / alpha)


def _math_log(v: np.ndarray) -> np.ndarray:
    # math.log, not np.log: numpy's can differ in the last ulp, which k*ln(z)
    # carries into term k k times over.
    return np.array([math.log(e) for e in v.tolist()])


def _shaped(out: np.ndarray, like):
    out = out.reshape(np.shape(like))
    return out if out.ndim else float(out)


def _check_window(width, z, what: str) -> None:
    too_wide = np.flatnonzero(~(width <= _MAX_WINDOW))
    if too_wide.size:
        i = too_wide[0]
        raise ConvergenceError(f"{what} at z={float(z[i])!r} needs a window of {float(width[i]):.4g}"
                               f" terms, past the cap of {_MAX_WINDOW}", math.nan, 0)


def _window_edge(log_terms, peak, half, floor, side: float, z, what: str):
    """Each row's last index on one side (``side`` -1 or +1) of its window:
    peak + side*half (at least 0) where that term is at or below the floor,
    else found by doubling its distance to the peak and bisecting to 16."""
    rows = np.arange(peak.size)
    inner = peak.copy()
    outer = np.maximum(peak + side * half, -1.0)
    grow = rows[np.isfinite(floor) & (outer >= 0.0)]
    while grow.size:
        _check_window(np.abs(outer[grow] - peak[grow]), z[grow], what)
        grow = grow[log_terms(grow, outer[grow, None])[:, 0] > floor[grow]]
        inner[grow] = outer[grow]
        outer[grow] = np.maximum(2.0 * outer[grow] - peak[grow], -1.0)
        grow = grow[outer[grow] >= 0.0]
    kept = inner == peak
    inner[kept] = outer[kept]
    todo = rows[np.abs(outer - inner) > 16.0]
    while todo.size:
        mid = np.floor((inner[todo] + outer[todo]) / 2.0)
        hit = log_terms(todo, mid[:, None])[:, 0] > floor[todo]
        inner[todo[hit]] = mid[hit]
        outer[todo[~hit]] = mid[~hit]
        todo = todo[np.abs(outer[todo] - inner[todo]) > 16.0]
    return np.maximum(outer, 0.0)


def _in_pieces(rule, start, stop) -> np.ndarray:
    """``rule(k)`` of the elementwise rule ``rule`` at k = start .. stop - 1,
    in one array filled ``_ML_CHUNK`` indices at a time, so that the rule's
    temporaries stay that small whatever the width."""
    out = np.empty(int(stop - start))
    for lo in range(0, out.size, _ML_CHUNK):
        out[lo:lo + _ML_CHUNK] = rule(np.arange(start + lo, min(start + lo + _ML_CHUNK, stop)))
    return out


def _log_window_sum(log_terms, z, n_hat, order: float, what: str):
    """(ln sum_{lo <= k < hi} exp(log-term), lo, hi) for each row of a family
    of log-concave series: row i has argument ``z[i]``, its peak near
    ``n_hat[i]`` and log-curvature about -order/n there, and log-terms
    ``log_terms(rows, k)`` for an index array ``rows`` at integer-valued
    ``k`` of shape (len(rows), 1) or (1, m). Rows of nearby windows share
    one array of at most ``_ML_CHUNK`` log-terms (a wider window goes
    alone, its log-terms formed by :func:`_in_pieces`), each masked to its
    own window and summed as its largest log-term m plus
    ln(fsum(exp(log-terms - m))): no row depends on another.
    """
    peak = np.floor(n_hat)
    with np.errstate(over="ignore"):  # an infinite width is refused just below
        half = np.ceil(np.sqrt(2.0 * _ML_TAIL_NATS * np.maximum(n_hat, 1.0) / order)) + 16.0
    _check_window(2.0 * half + 1.0, z, what)
    floor = log_terms(np.arange(peak.size), peak[:, None])[:, 0] - _ML_TAIL_NATS
    lo, hi = (_window_edge(log_terms, peak, half, floor, side, z, what) for side in (-1.0, 1.0))
    hi += 1.0
    _check_window(hi - lo, z, what)
    out = np.empty(peak.size)
    rows = np.argsort(lo, kind="stable")
    los, his = lo[rows].tolist(), hi[rows].tolist()
    i = 0
    while i < rows.size:
        last, j = his[i], i + 1
        while j < rows.size and (j + 1 - i) * (max(last, his[j]) - los[i]) <= _ML_CHUNK:
            last, j = max(last, his[j]), j + 1
        idx = rows[i:j]
        if last - los[i] > _ML_CHUNK:  # a lone row, so nothing to mask
            lt = _in_pieces(lambda k: log_terms(idx, k[None, :])[0], los[i], last)[None, :]
        else:
            k = np.arange(los[i], last)
            lt = log_terms(idx, k[None, :])
            lt[(k < lo[idx, None]) | (k >= hi[idx, None])] = -np.inf
        m = lt.max(axis=1)
        np.exp(np.subtract(lt, m[:, None], out=lt), out=lt)
        # A memoryview hands fsum one Python float at a time.
        out[idx] = [mi + math.log(math.fsum(memoryview(t))) for mi, t in zip(m.tolist(), lt)]
        i = j
    return out, lo, hi


def _log_power_series(log_coef, z: np.ndarray, n_hat, order: float, what: str):
    """``_log_window_sum`` of sum_k z^k exp(log_coef(k)) over a 1-D array of
    z >= 0; z = 0 gives log_coef(0) and the window [0, 1)."""
    out = np.full(z.size, log_coef(np.zeros(1))[0])
    lo, hi = np.zeros(z.size), np.ones(z.size)
    pos = np.flatnonzero(z != 0.0)
    lnz = _math_log(z[pos])
    out[pos], lo[pos], hi[pos] = _log_window_sum(lambda rows, k: k * lnz[rows, None] + log_coef(k),
                                                 z[pos], n_hat[pos], order, what)
    return out, lo, hi


def _log_ml_window(params: MLParams, zs: np.ndarray):
    """(ln E_{alpha,beta}(z), lo, hi) for a 1-D array of z >= 0."""
    alpha, beta = params
    return _log_power_series(lambda k: -log_gamma_pos(alpha * k + beta), zs,
                             _peak_guess(zs, alpha, beta), alpha,
                             f"Mittag-Leffler series E_{{{alpha},{beta}}}")


def _nonnegative_array(z, what: str) -> np.ndarray:
    z_arr = np.asarray(z, dtype=float)
    bad = ~(z_arr >= 0.0)
    if np.any(bad):
        raise DomainError(f"{what} requires z >= 0, got {z_arr[bad].flat[0]}")
    return z_arr


def log_mittag_leffler(params, z):
    """ln E_{alpha,beta}(z) for z >= 0 (a scalar or an array), stable at
    any magnitude, each value equal to its one-point call bit for bit.

    With alpha < 2 and beta <= alpha + 1, a point with z^(1/alpha) >= 40
    takes the leading term of the exponential expansion,
    -ln(alpha) + ((1 - beta)/alpha) ln(z) + z^(1/alpha), in O(1), and
    raises ``RangeOverflowError`` where z^(1/alpha) leaves the double range;
    every other point is one window sum of the log-terms
    k*ln(z) - ln Gamma(alpha*k + beta), all of them in one pass."""
    z_arr = _nonnegative_array(z, "log_mittag_leffler")
    p = _as_ml_params(params)
    zs = z_arr.ravel()
    far = np.zeros(zs.size, dtype=bool)
    if p.alpha < 2.0 and p.beta <= p.alpha + 1.0:
        # Compare z itself with 40^alpha, so a point's route does not depend
        # on the rest of the array.
        far = zs >= _ML_EXP_ROOT**p.alpha
    out = np.empty(zs.size)
    near = np.flatnonzero(~far)
    if near.size:
        out[near] = _log_ml_window(p, zs[near])[0]
    if far.any():
        top = float(zs[far].max())
        if not math.log(top) < _LOG_DOUBLE_MAX * p.alpha:
            raise RangeOverflowError(f"ln E_{{{p.alpha},{p.beta}}}({top}) exceeds double range")
        inv, lead, slope = 1.0 / p.alpha, -math.log(p.alpha), (1.0 - p.beta) / p.alpha
        out[far] = [lead + slope * math.log(v) + v**inv for v in zs[far].tolist()]
    return _shaped(out, z_arr)


def _ml_ratio(params, z: np.ndarray, log_den: float, head=0.0, tail=0.0) -> np.ndarray:
    """exp(head + ln E_{alpha,beta}(z) - tail - log_den), summed in that order,
    at each point of the 1-D array ``z`` (``head``, ``tail``: floats or
    per-point arrays), for the ratios E_num(z)/E_den(Lambda) with log_den =
    ln E_den(Lambda): one array call of :func:`log_mittag_leffler`, then
    math.exp per value (numpy's differs in the last ulp), as one-point calls do."""
    return np.array([math.exp(h + v - tl - log_den) for h, v, tl in zip(
        np.broadcast_to(head, z.shape).tolist(), log_mittag_leffler(params, z).tolist(),
        np.broadcast_to(tail, z.shape).tolist())])


def log_wright_series(spec: WrightSeriesSpec, z):
    """ln sum_k [prod_j Gamma(a_j + A_j k) / prod_j Gamma(b_j + B_j k)] z^k / k!,
    the generalized Wright series, at z >= 0 (a scalar or an array). Every
    a_j, A_j, b_j, B_j and kappa = 1 + sum B_j - sum A_j must be positive:
    the terms then peak near (z prod A_j^A_j / prod B_j^B_j)^(1/kappa) with
    log-curvature about -kappa/k, the window the kernel sums."""
    upper = [(float(a), float(A)) for a, A in spec.upper]
    lower = [(float(b), float(B)) for b, B in spec.lower]
    if not all(a > 0.0 and A > 0.0 for a, A in upper + lower):
        raise DomainError(f"Wright series rows must be positive, got {spec}")
    kappa = 1.0 + sum(B for _, B in lower) - sum(A for _, A in upper)
    if not kappa > 0.0:
        raise DomainError(f"Wright series with 1 + sum B - sum A = {kappa} <= 0 is not entire")

    def log_coef(k):
        e = -log_gamma_pos(k + 1.0)
        for a, A in upper:
            e = e + log_gamma_pos(a + A * k)
        for b, B in lower:
            e = e - log_gamma_pos(b + B * k)
        return e

    zs = _nonnegative_array(z, "wright_series")
    scale = kappa**kappa * math.prod(A**A for _, A in upper) / math.prod(B**B for _, B in lower)
    return _shaped(_log_power_series(log_coef, zs.ravel(), _peak_guess(scale * zs.ravel(), kappa, 1.0),
                                     kappa, "Wright series")[0], zs)


def wright_series(spec: WrightSeriesSpec, z: float) -> float:
    """The generalized Wright series of :func:`log_wright_series` at one
    z >= 0, as its exp; ``RangeOverflowError`` above double range."""
    return _exp_in_range(log_wright_series(spec, float(z)), f"Wright series at z={z}")


_LD_EPS = float(np.finfo(np.longdouble).eps)


def bessel_j(nu: float, x: float, rel_tol: float = 1e-12) -> float:
    """Bessel function J_nu(x) for nu >= 0 and 0 <= x <= 50.

    Ascending series

        J_nu(x) = sum_k (-1)^k (x/2)^(nu + 2k) / (k! Gamma(nu + k + 1))

    accumulated in extended precision. The series alternates, so the
    achievable accuracy degrades with x: roughly 1e-11 or better up to
    x ~ 20, then losing digits as cancellation grows. The implementation
    tracks the round-off noise floor eps * sum|t_k| and raises
    ``ConvergenceError`` when that floor exceeds ten times ``rel_tol``
    both relative to the result and relative to the leading term (the
    second clause keeps genuine zeros of J_nu, where relative error is
    meaningless, from tripping the guard) -- callers working at large x
    must request a tolerance the series can actually deliver.
    """
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    nu = float(nu)
    x = float(x)
    if nu < 0.0:
        raise DomainError(f"bessel_j requires nu >= 0, got {nu}")
    if x < 0.0:
        raise DomainError(f"bessel_j requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0

    half = np.longdouble(x) / 2.0
    term = half**np.longdouble(nu) / np.longdouble(gamma_pos(nu + 1.0))
    lead = abs(term)
    total = term
    abs_total = abs(term)
    for k in range(_BESSEL_MAX_TERMS):
        term = -term * half * half / np.longdouble((k + 1.0) * (nu + k + 1.0))
        total += term
        abs_total += abs(term)
        if abs(term) < np.longdouble(1e-25) * abs_total and k > 4:
            break
    else:
        raise ConvergenceError(
            f"Bessel series did not converge in {_BESSEL_MAX_TERMS} terms",
            float(total),
            _BESSEL_MAX_TERMS,
        )
    noise = _LD_EPS * float(abs_total)
    budget = 10.0 * rel_tol
    if noise > budget * abs(float(total)) and noise > budget * float(lead):
        raise ConvergenceError(
            f"Bessel series cancellation noise ~{noise:.1e} exceeds requested "
            f"tolerance at nu={nu}, x={x}",
            float(total),
            _BESSEL_MAX_TERMS,
        )
    return float(total)


# ---------------------------------------------------------------------------
# Goodness-of-fit tails.

_GAMMA_TAIL_MAX_TERMS = 100_000
_LENTZ_TINY = 1e-300


def chi2_sf(x: float, dof: float) -> float:
    """P{X > x} for X chi-square with ``dof`` > 0 degrees of freedom.

    This is the regularized upper incomplete gamma Q(a, h) at a = dof/2,
    h = x/2, with the prefactor e^-h h^a / Gamma(a) from ``math.lgamma``.
    Below h = a + 1 it is 1 - P(a, h), with P summed as its series
    sum_n h^n / (a (a+1) ... (a+n)); above, Q comes from the modified Lentz
    continued fraction, so far tails keep their relative accuracy. Each
    stops when a step changes the result by less than a double's epsilon;
    one that has not stopped after 100 000 steps raises ``ConvergenceError``.
    """
    x, dof = float(x), float(dof)
    if not 0.0 < dof < math.inf:
        raise DomainError(f"chi2_sf requires finite dof > 0, got {dof}")
    if math.isnan(x):
        raise DomainError("chi2_sf requires a number x, got nan")
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    a, h = 0.5 * dof, 0.5 * x
    prefactor = math.exp(a * math.log(h) - h - math.lgamma(a))
    eps = sys.float_info.epsilon
    if h < a + 1.0:
        term = total = 1.0 / a
        denominator = a
        for _ in range(_GAMMA_TAIL_MAX_TERMS):
            denominator += 1.0
            term *= h / denominator
            total += term
            if term < total * eps:
                return 1.0 - total * prefactor
        raise ConvergenceError(f"chi2_sf series did not settle at x={x}, dof={dof}",
                               total * prefactor, _GAMMA_TAIL_MAX_TERMS)
    b = h + 1.0 - a
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    fraction = d
    for i in range(1, _GAMMA_TAIL_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _LENTZ_TINY else _LENTZ_TINY)
        c = b + an / c
        c = c if abs(c) >= _LENTZ_TINY else _LENTZ_TINY
        delta = d * c
        fraction *= delta
        if abs(delta - 1.0) < eps:
            return prefactor * fraction
    raise ConvergenceError(f"chi2_sf continued fraction did not settle at x={x}, dof={dof}",
                           prefactor * fraction, _GAMMA_TAIL_MAX_TERMS)


_PI_2, _PI_4, _PI_6 = math.pi**2, math.pi**4, math.pi**6
_SQRT_3 = math.sqrt(3.0)


def kolmogorov_sf(n: int, d: float) -> float:
    """P{D_n > d} for the two-sided Kolmogorov-Smirnov statistic D_n of n
    samples, by the Pelz-Good (1976) expansion

        P{D_n <= d} ~ K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5,  z = d sqrt(n),

    returned as 1 - P{D_n <= d}. This ports ``_kolmogn_PelzGood`` of
    ``scipy.stats._ksstats`` operation for operation, so where scipy's
    ``kstwo.sf`` takes Pelz-Good -- n*d^2 < 2.2 at n > 1e5, or at n = 1e5
    with n*d^1.5 > 1.4 (Simard & L'Ecuyer 2011, J. Stat. Softw. 39(11)) --
    the two agree to rounding. Where n*d^2 >= 2.2 scipy takes 2*smirnov(n, d)
    instead, which this matches within 1.9e-6 relative up to n*d^2 = 12
    (p ~ 7e-11) at n = 1e5, 2.5e5 and 1e6; further out the difference
    1 - P{D_n <= d} keeps only its absolute accuracy, about 1e-16. It is an
    asymptotic form meant for n >= 1e5; at smaller n it is an approximation
    of unstated accuracy.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"kolmogorov_sf requires an integer n >= 1, got {n}")
    d = float(d)
    if math.isnan(d):
        raise DomainError("kolmogorov_sf requires a number d, got nan")
    if d <= 0.0:
        return 1.0
    if d >= 1.0:
        return 0.0
    z = math.sqrt(n) * d
    z2, z3, z4, z6 = z**2, z**3, z**4, z**6
    qlog = -_PI_2 / 8 / z2
    if qlog < -708:
        return 1.0
    q = np.exp(qlog)
    k1a, k1b = -z2, _PI_2 / 4
    k2a = 6 * z6 + 2 * z4
    k2b = (2 * z4 - 5 * z2) * _PI_2 / 4
    k2c = _PI_4 * (1 - 2 * z2) / 16
    k3d = _PI_6 * (5 - 30 * z2) / 64
    k3c = _PI_4 * (-60 * z2 + 212 * z4) / 16
    k3b = _PI_2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z**8
    # Horner scheme in q^8 over the odd m = 2k - 1 for K0..K3.
    terms = np.zeros(4)
    maxk = math.ceil(16 * z / math.pi)
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        terms *= np.power(q, 8 * k)
        terms += np.array([1.0,
                           k1a + k1b * m**2,
                           k2a + k2b * m**2 + k2c * m**4,
                           k3a + k3b * m**2 + k3c * m**4 + k3d * m**6])
    terms *= q
    terms *= _SQRT_TWO_PI
    terms /= np.array([z, 6 * z4, 72 * z**7, 6480 * z**10])
    # The sums over all k >= 1 that K2 and K3 add.
    q = np.exp(-_PI_2 / 2 / z2)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT_3 * z
    kspi = math.pi * ks
    qpowers = q**ksquared
    terms[2] += np.sum(ksquared * qpowers) * (_PI_2 * _SQRT_TWO_PI / (-36 * z3))
    terms[3] += (np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpowers)
                 * (_PI_2 * _SQRT_TWO_PI / (216 * z6)))
    terms /= np.power(n * 1.0, np.arange(4) / 2.0)
    return min(max(1.0 - sum(terms.tolist()), 0.0), 1.0)
