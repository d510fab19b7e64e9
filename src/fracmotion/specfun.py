"""Series-based special functions on the nonnegative real axis.

Everything downstream (the fractional counting family, the planar
densities, the verification harness) is assembled from four primitives
evaluated here: the Gamma function, the two-parameter Mittag-Leffler
function

    E_{alpha,beta}(z) = sum_{k>=0} z^k / Gamma(alpha*k + beta),

the generalized Wright series with Gamma-ratio coefficients, and the
Bessel function J_nu of real order. Arguments are restricted to z >= 0:
on that domain the Mittag-Leffler and Wright series have positive terms,
so plain ascending summation gives a result whose error is controlled by
the last retained term. The Bessel series alternates and therefore
carries an explicit cancellation guard.

Every positive series of the package -- these two, the planar, line and
flight mixtures in ``densities`` and the normalizers in ``counting`` --
is summed by one kernel, :func:`positive_series`, with one stop rule:
keep terms up to the first index k >= ``first_stop`` whose term is no
larger than its predecessor and no larger than ``rel_tol`` times the
running sum, once that sum is positive, then add the kept terms with
``math.fsum``. Terms are evaluated a block of indices at a time.

Gamma values come from a fixed-coefficient Lanczos approximation rather
than the platform libm, so results are reproducible across systems. The
double-precision path covers x in (0, ~171.6]; ``log_gamma_pos`` covers
arbitrarily large arguments and is what the log-domain evaluators build
on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "RangeOverflowError",
    "SeriesControl",
    "MLParams",
    "WrightSeriesSpec",
    "gamma_pos",
    "log_gamma_pos",
    "mittag_leffler",
    "log_mittag_leffler",
    "wright_series",
    "positive_series",
    "bessel_j",
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


@dataclass(frozen=True)
class SeriesControl:
    """Stopping rule for the ascending series: relative tolerance and a
    hard cap on the number of terms."""

    rel_tol: float = 1e-12
    max_terms: int = 20000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")


_DEFAULT_CONTROL = SeriesControl()

# Indices per call of a series' term function, and the largest term a
# series may keep (a margin below the double range).
_SERIES_BLOCK = 64
_MAX_TERM = math.exp(709.0)
# Log-terms held at once by log_mittag_leffler: rows of similar window
# length go together up to this many elements (a longer window goes alone).
_ML_CHUNK = 1 << 15
# A log_mittag_leffler window ends where its log-terms fall this many nats
# below the peak term (e^-60 is below a double's relative precision).
_ML_TAIL_NATS = 60.0


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
    if np.any(arr <= 0.0):
        raise DomainError("log_gamma_pos requires x > 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)

    small = arr < 0.5
    big = ~small
    if np.any(big):
        z = arr[big] - 1.0
        a = np.full_like(z, _LANCZOS_C[0])
        for i in range(1, len(_LANCZOS_C)):
            a += _LANCZOS_C[i] / (z + i)
        t = z + _LANCZOS_G + 0.5
        out[big] = _LOG_SQRT_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(a)
    if np.any(small):
        xs = arr[small]
        out[small] = np.log(math.pi / np.sin(math.pi * xs)) - log_gamma_pos(1.0 - xs)
    return float(out[0]) if scalar else out


def _as_ml_params(params) -> MLParams:
    p = MLParams(*params)
    if not (p.alpha > 0.0 and p.beta > 0.0):
        raise DomainError(f"Mittag-Leffler orders must be positive, got {p}")
    return p


def mittag_leffler(params, z: float, ctl: SeriesControl | None = None) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z), z >= 0.

    Ascending series with terms evaluated in the log domain through
    ``log_gamma_pos`` (terms never overflow individually while the value
    is representable), summed by :func:`positive_series` under
    ``ctl.rel_tol`` and ``ctl.max_terms`` and added with exactly-rounded
    compensated summation; the result carries a relative error no worse
    than about ten times ``rel_tol``.

    Raises ``RangeOverflowError`` when the value itself exceeds double
    range (use :func:`log_mittag_leffler` there) and ``ConvergenceError``
    if the term cap is reached first.
    """
    params = _as_ml_params(params)
    if ctl is None:
        ctl = _DEFAULT_CONTROL
    z = float(z)
    if z < 0.0:
        raise DomainError(f"mittag_leffler requires z >= 0, got {z}")
    first = 1.0 / gamma_pos(params.beta)
    lnz = math.log(z) if z > 0.0 else -math.inf

    def terms(k):
        log_terms = k * lnz - log_gamma_pos(params.alpha * k + params.beta)
        return np.where(k == 0, first, np.exp(log_terms))

    what = f"Mittag-Leffler series E_{{{params.alpha},{params.beta}}}({z})"
    return math.fsum(positive_series(terms, ctl.rel_tol, ctl.max_terms, what))


def log_mittag_leffler(params, z):
    """ln E_{alpha,beta}(z) for z >= 0 (a scalar or an array), stable at
    any magnitude.

    For each point, locates the peak term index from alpha*n + beta ~
    z^(1/alpha) and doubles the window [0, n_hi) until log-terms at n_hi
    fall 60 nats below the peak; the points still growing are doubled
    together. The z-independent row ln Gamma(alpha*n + beta) is evaluated
    once, up to the longest window, and each point's log-terms then go
    through a log-sum-exp added with ``math.fsum``. Points are processed in
    chunks of similar window length holding at most ``_ML_CHUNK`` terms, so
    memory stays bounded by the longest single window. Every point's value
    equals the one-point call bit for bit. Used wherever normalizing
    constants grow beyond double range.
    """
    params = _as_ml_params(params)
    alpha, beta = params.alpha, params.beta
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0.0):
        raise DomainError(
            f"log_mittag_leffler requires z >= 0, got {z_arr[z_arr < 0.0].flat[0]}")
    zs = z_arr.ravel()
    out = np.full(zs.size, -log_gamma_pos(beta))
    pos = np.flatnonzero(zs != 0.0)
    zp = zs[pos].tolist()
    lnz = np.array([math.log(v) for v in zp])
    n_peak = np.array([max(0.0, (v ** (1.0 / alpha) - beta) / alpha) for v in zp])

    def log_term(n, ln):
        return n * ln - log_gamma_pos(alpha * n + beta)

    floor = log_term(n_peak, lnz) - _ML_TAIL_NATS
    n_hi = np.maximum(16.0, 2.0 * n_peak + 16.0)
    growing = np.arange(pos.size)
    while growing.size:
        growing = growing[log_term(n_hi[growing], lnz[growing]) > floor[growing]]
        n_hi[growing] *= 2.0
    width = np.array([int(v) + 2 for v in n_hi.tolist()], dtype=np.int64)
    n = np.arange(width.max(initial=0), dtype=float)
    row = log_gamma_pos(alpha * n + beta)
    order = np.argsort(width, kind="stable")
    lo = 0
    while lo < order.size:
        hi = lo + 1
        while hi < order.size and (hi + 1 - lo) * width[order[hi]] <= _ML_CHUNK:
            hi += 1
        idx = order[lo:hi]
        span = width[idx[-1]]
        lt = n[:span] * lnz[idx, None] - row[:span]
        lt[n[:span] >= width[idx, None]] = -np.inf
        m = lt.max(axis=1)
        lt -= m[:, None]
        np.exp(lt, out=lt)
        # A memoryview hands fsum one Python float at a time.
        out[pos[idx]] = [mi + math.log(math.fsum(memoryview(t))) for mi, t in zip(m.tolist(), lt)]
        lo = hi
    out = out.reshape(z_arr.shape)
    return out if out.ndim else float(out)


def _signed_log_gamma(x):
    """(sign, ln|Gamma(x)|) arrays for real x, via reflection for x < 0;
    the log is NaN at the poles x = 0, -1, -2, ..."""
    pos = x > 0.0
    s = np.sin(math.pi * x)
    sign = np.where(pos | (s > 0.0), 1.0, -1.0)
    log = np.full(x.shape, np.nan)
    log[pos] = log_gamma_pos(x[pos])
    # Gamma(x) Gamma(1-x) = pi / sin(pi x)
    refl = ~pos & (x != np.floor(x))
    log[refl] = np.log(math.pi / np.abs(s[refl])) - log_gamma_pos(1.0 - x[refl])
    return sign, log


def wright_series(spec: WrightSeriesSpec, z: float, ctl: SeriesControl | None = None) -> float:
    """Generalized Wright series

        sum_k [prod_j Gamma(a_j + A_j k) / prod_j Gamma(b_j + B_j k)] z^k / k!

    for z >= 0. Terms are formed in the log domain so the Gamma products
    never overflow individually; their magnitudes are summed by
    :func:`positive_series`, with the same stopping rule and error
    behaviour as :func:`mittag_leffler`. A Gamma argument landing on a
    pole within the kept terms raises ``DomainError``.
    """
    if ctl is None:
        ctl = _DEFAULT_CONTROL
    upper = [(float(a), float(A)) for a, A in spec.upper]
    lower = [(float(b), float(B)) for b, B in spec.lower]
    for _, A in upper:
        if not A > 0.0:
            raise DomainError("all upper weights A_j must be positive")
    for _, B in lower:
        if not B > 0.0:
            raise DomainError("all lower weights B_j must be positive")
    z = float(z)
    if z < 0.0:
        raise DomainError(f"wright_series requires z >= 0, got {z}")

    def term_log(k):
        sign = np.ones(k.shape)
        e = -log_gamma_pos(k + 1.0)
        for a, A in upper:
            s, l = _signed_log_gamma(a + A * k)
            sign *= s
            e += l
        for b, B in lower:
            s, l = _signed_log_gamma(b + B * k)
            sign *= s
            e -= l
        return sign, e

    lnz = math.log(z) if z > 0.0 else -math.inf

    def terms(k):
        return np.exp(term_log(k)[1] + np.where(k == 0, 0.0, k * lnz))

    mags = positive_series(terms, ctl.rel_tol, ctl.max_terms, f"Wright series at z={z}")
    return math.fsum(term_log(np.arange(mags.size))[0] * mags)


_LD_EPS = float(np.finfo(np.longdouble).eps)


def bessel_j(nu: float, x: float, ctl: SeriesControl | None = None) -> float:
    """Bessel function J_nu(x) for nu >= 0 and 0 <= x <= 50.

    Ascending series

        J_nu(x) = sum_k (-1)^k (x/2)^(nu + 2k) / (k! Gamma(nu + k + 1))

    accumulated in extended precision. The series alternates, so the
    achievable accuracy degrades with x: roughly 1e-11 or better up to
    x ~ 20, then losing digits as cancellation grows. The implementation
    tracks the round-off noise floor eps * sum|t_k| and raises
    ``ConvergenceError`` when that floor exceeds ten times ``ctl.rel_tol``
    both relative to the result and relative to the leading term (the
    second clause keeps genuine zeros of J_nu, where relative error is
    meaningless, from tripping the guard) -- callers working at large x
    must request a tolerance the series can actually deliver.
    """
    if ctl is None:
        ctl = _DEFAULT_CONTROL
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
    for k in range(ctl.max_terms):
        term = -term * half * half / np.longdouble((k + 1.0) * (nu + k + 1.0))
        total += term
        abs_total += abs(term)
        if abs(term) < np.longdouble(1e-25) * abs_total and k > 4:
            break
    else:
        raise ConvergenceError(
            f"Bessel series did not converge in {ctl.max_terms} terms",
            float(total),
            ctl.max_terms,
        )
    noise = _LD_EPS * float(abs_total)
    budget = 10.0 * ctl.rel_tol
    if noise > budget * abs(float(total)) and noise > budget * float(lead):
        raise ConvergenceError(
            f"Bessel series cancellation noise ~{noise:.1e} exceeds requested "
            f"tolerance at nu={nu}, x={x}",
            float(total),
            ctl.max_terms,
        )
    return float(total)
