"""The fractional Poisson counting family with time-dependent rates.

A counting spec pairs a rate function λ(s) -- through its cumulative
Λ(t) = ∫₀ᵗ λ(s) ds -- with a Mittag-Leffler-normalized pmf over the
number of events by time t:

    P{N(t) = n} = Λ(t)^n / (Γ(αn + 1) · E_{α,1}(Λ(t))).

At α = 1 this is the inhomogeneous Poisson distribution; for α < 1 it is
a weighted Poisson law with weights w(n) = n!/Γ(αn+1). Two relatives are
provided: a state-dependent variant whose order α_j changes with the
state j, and the flight-adapted distribution used by the projected
random-flight motions, with pmf Λ^n / (Γ((n+1)(d/2−1)+1) · E_{d/2−1,d/2}(Λ)).
The fractional and flight laws share one log-weight, n·ln Λ − ln Γ(an + b),
with (a, b) = (α, 1) or (d/2 − 1, d/2); ``pmf`` and ``count_distribution``
take any of the three specs.

One object holds the law at a time t: :class:`CountDistribution`, with
Λ(t), the log-weight rule, the log-normalizer (a window sum about the peak
count) and that window. ``pmf`` and the line laws of ``densities`` read it
through the cache :func:`count_distribution`. All pmf evaluation runs in
the log domain, so large Λ -- where E_{α,1}(Λ) overflows -- stays
representable. Sampling is exact inverse-CDF on a table over the window,
built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from .specfun import (
    ConvergenceError,
    DomainError,
    MLParams,
    RangeOverflowError,
    _ML_TAIL_NATS,
    _check_window,
    _in_pieces,
    _log_ml_window,
    _ml_ratio,
    log_gamma_pos,
    log_mittag_leffler,
    positive_series,
)

__all__ = [
    "RateFunction",
    "CountingSpec",
    "FracPoissonSpec",
    "StateDependentSpec",
    "FlightCountSpec",
    "CountDistribution",
    "cumulative_rate",
    "count_distribution",
    "pmf",
    "weighted_pmf",
    "pgf",
]

@dataclass(frozen=True)
class RateFunction:
    """Time-dependent intensity λ(s) ≥ 0 whose cumulative Λ(t) has a
    closed form: a plain value ``(kind, params)`` of floats.

    Construct through the classmethods: ``constant(lam)``,
    ``power(a, b)`` for λ(s) = a·s^b with b > −1, or ``piecewise(breakpoints,
    values)`` for a step rate (value ``values[i]`` on the segment ending
    at ``breakpoints[i]``, zero after the last breakpoint). Rates, the
    power scale and exponent must be finite; the last breakpoint may be
    infinite.
    """

    kind: str
    params: tuple = ()

    @classmethod
    def constant(cls, lam: float) -> "RateFunction":
        if not 0.0 <= lam < math.inf:
            raise DomainError(f"constant rate must be finite and >= 0, got {lam}")
        return cls("constant", (float(lam),))

    @classmethod
    def power(cls, a: float, b: float) -> "RateFunction":
        if not 0.0 <= a < math.inf:
            raise DomainError(f"power-rate scale must be finite and >= 0, got {a}")
        if not -1.0 < b < math.inf:
            raise DomainError(f"power-rate exponent must be finite and > -1, got {b}")
        return cls("power", (float(a), float(b)))

    @classmethod
    def piecewise(cls, breakpoints: Sequence[float], values: Sequence[float]) -> "RateFunction":
        bp = tuple(float(b) for b in breakpoints)
        vals = tuple(float(v) for v in values)
        if len(bp) != len(vals) or not bp:
            raise DomainError("need equally many breakpoints and values, at least one each")
        if not (0.0 < bp[0] and all(b1 < b2 for b1, b2 in zip(bp, bp[1:]))):
            raise DomainError("breakpoints must be strictly increasing and positive")
        if not all(0.0 <= v < math.inf for v in vals):
            raise DomainError("piecewise rate values must be finite and >= 0")
        return cls("piecewise", (bp, vals))


def cumulative_rate(rate: RateFunction, t: float) -> float:
    """Cumulative intensity Λ(t) in closed form, for t ≥ 0 (t = ∞ too).
    Raises ``RangeOverflowError`` where Λ(t) leaves the double range; a
    zero rate adds 0 over any span."""
    t = float(t)
    if not t >= 0.0:
        raise DomainError(f"cumulative_rate requires t >= 0, got {t}")
    if rate.kind == "constant":
        lam = rate.params[0] * t if rate.params[0] else 0.0
    elif rate.kind == "power":
        a, b = rate.params
        try:
            lam = a * t ** (b + 1.0) / (b + 1.0) if a else 0.0
        except OverflowError:  # float ** raises where * gives inf
            lam = math.inf
    else:
        bp, vals = rate.params
        lam = left = 0.0
        for b, v in zip(bp, vals):
            if t <= left:
                break
            lam += v * (min(t, b) - left) if v else 0.0
            left = b
    if not lam < math.inf:
        raise RangeOverflowError(f"cumulative rate Λ({t}) of {rate} exceeds double range")
    return lam


@dataclass(frozen=True)
class FracPoissonSpec:
    """Order α ∈ (0,1] plus a rate function: the fractional counting law."""

    alpha: float
    rate: RateFunction

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class StateDependentSpec:
    """State-dependent orders α_j ∈ (0,1]; beyond the provided vector
    the last order continues unchanged."""

    alphas: tuple
    rate: RateFunction

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas:
            raise DomainError("need at least one alpha")
        if any(not (0.0 < a <= 1.0) for a in alphas):
            raise DomainError(f"every alpha_j must lie in (0, 1], got {alphas}")
        object.__setattr__(self, "alphas", alphas)


@dataclass(frozen=True)
class FlightCountSpec:
    """Dimension d ≥ 3 of the source random flight plus a rate function."""

    d: int
    rate: RateFunction

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 3:
            raise DomainError(f"flight dimension must be an integer >= 3, got {self.d}")
        object.__setattr__(self, "d", int(self.d))


CountingSpec = Union[FracPoissonSpec, StateDependentSpec, FlightCountSpec]


# ---------------------------------------------------------------------------
# Log-domain pmf machinery.
#
# Every family below has pmf(n) = exp(log_weight(n) - log_normalizer).  The
# fractional and flight families share one rule, P{N=n} = Λ^n / (Γ(an+b)
# E_{a,b}(Λ)); the state-dependent law takes each state's own order up to
# the last one, whose Mittag-Leffler-type tail sums in closed form.


def _ml_params(spec) -> MLParams:
    """(a, b) of the fractional (α, 1) or flight (γ, γ + 1), γ = d/2 − 1, law."""
    if isinstance(spec, FracPoissonSpec):
        return MLParams(spec.alpha, 1.0)
    if isinstance(spec, FlightCountSpec):
        gamma_order = spec.d / 2.0 - 1.0
        return MLParams(gamma_order, gamma_order + 1.0)
    raise DomainError(f"unsupported counting spec type {type(spec).__name__}")


def pmf(spec: CountingSpec, t: float, n: int) -> float:
    """P{N(t) = n} for any counting spec, capped at 1: the ``pmf`` of
    ``count_distribution(spec, t)``, which builds no table."""
    return min(1.0, count_distribution(spec, t).pmf(_require_count(n)))


def weighted_pmf(weights: Callable[[int], float], lambda_t: float, n: int) -> float:
    """Weighted-Poisson pmf w(n)·p(n) / Σ_k w(k)p(k) with p = Poisson(lambda_t).

    The normalizer is summed by :func:`~fracmotion.specfun.positive_series`
    at rel_tol 1e-15, past k = lambda_t; ``weights`` may be called up to
    one block of indices past the last kept term. A negative or non-finite
    weight (kept or at n), a zero normalizer or an unsettled sum raises.
    """
    if not 0.0 <= lambda_t < math.inf:
        raise DomainError(f"lambda_t must be finite and >= 0, got {lambda_t}")
    n = _require_count(n)
    # k·ln λ with math.log, as CountDistribution forms it. At λ = 0 it is 0 at
    # k = 0 and -inf above, without numpy's 0·(-inf) warning.
    log_lam = math.log(lambda_t) if lambda_t > 0.0 else None

    def weighted_terms(k):
        w = np.array([float(weights(i)) for i in k.tolist()])
        k_log_lam = np.where(k == 0, 0.0, -np.inf) if log_lam is None else k * log_lam
        p = np.exp(k_log_lam - lambda_t - log_gamma_pos(k + 1.0))
        # A negative or non-finite weight gives a NaN term, which the
        # kernel rejects once it is kept.
        return np.where((w >= 0.0) & (w < math.inf), w * p, np.nan)

    try:
        kept = positive_series(weighted_terms, 1e-15, 100000,
                               f"weighted normalizer at lambda_t={lambda_t}",
                               first_stop=math.floor(lambda_t) + 1)
    except ConvergenceError as exc:
        if exc.partial_sum == 0.0:
            raise DomainError("weighted normalizer is zero") from exc
        raise
    normalizer = math.fsum(kept)
    term = float(weighted_terms(np.array([n]))[0])
    if not term >= 0.0:
        raise DomainError(f"weighted term at n={n} is {term}")
    return term / normalizer


def pgf(spec: CountingSpec, t: float, u):
    """Probability generating function E_{a,b}(u·Λ(t)) / E_{a,b}(Λ(t)) at
    a scalar u or an array of u, every one in [0, 1], with (a, b) = (α, 1)
    for the fractional law and (d/2 − 1, d/2) for the flight law. The
    state-dependent law has no such closed form and raises DomainError."""
    _require_time(t)
    p = _ml_params(spec)
    u = np.asarray(u, dtype=float)
    inside = (0.0 <= u) & (u <= 1.0)
    if not np.all(inside):
        raise DomainError(f"pgf requires u in [0, 1], got {float(u[~inside].flat[0])}")
    lam = cumulative_rate(spec.rate, t)
    out = np.ones(u.shape)
    if lam > 0.0:
        out.flat = _ml_ratio(p, u.ravel() * lam, log_mittag_leffler(p, lam))
    return out if out.ndim else float(out)


class CountDistribution:
    """The count law of a spec at a time t > 0, the one holder of its rule:
    Λ = Λ(t), the log-weight rule ``log_weight(n)``, ``log_normalizer`` and
    the window [``n_lo``, ``n_hi``) of every count within 60 nats of the
    peak weight. P{N = n} = exp(log_weight(n) − log_normalizer), and:

    - at Λ = 0 all mass sits at n = 0;
    - the fractional (a, b) = (α, 1) and flight (d/2 − 1, d/2) laws weigh
      n·ln Λ − ln Γ(an + b), normalized by the window sum of E_{a,b}(Λ)
      that finds the window;
    - the state-dependent law weighs n·ln Λ − ln Γ(α_j·n + 1) −
      ln E_{α_j,1}(Λ) with j = min(n, J − 1), J = len(alphas). The states
      j ≥ J sum to Λ^J E_{α,αJ+1}(Λ) / E_{α,1}(Λ), α = α_{J−1}; the window
      is that series' window shifted by J, or starts at 0 if a head state
      may lie within 60 nats of the peak.

    The CDF table is built on first use by ``sample``, ``sample_many``,
    ``support_size`` or ``cdf`` at a count ≥ n_lo, so ``pmf`` and
    ``log_normalizer`` cost only the window sum. The table holds the CDF
    for n_lo <= n < ``support_size``: the window less the trailing counts
    that no longer move the CDF (no uniform can draw them). It is the
    running sum of exp(log-weight − its largest value) divided by the whole
    sum, so it ends at exactly 1. Below n_lo the CDF is 0, past the table it
    is 1. ``sample(u)`` is exact inverse-CDF sampling: the smallest n with
    CDF(n) ≥ u.

    The window sum and the table form their log-weights ``_ML_CHUNK``
    counts at a time into one array of 8 bytes a count: at α = 0.2, Λ = 50
    (1.94e6 counts from n = 1.56e9 on) the object peaks near 18 MB traced,
    and holds 15.5 MB once the table is built. Rounding grows like n*·ln Λ
    at the peak count n*: at n* ~ 1e9 about 1e-6 relative in each
    probability.
    """

    def __init__(self, spec, t: float):
        _require_time(t)
        self.spec, self.t = spec, float(t)
        self.lam = lam = cumulative_rate(spec.rate, t)
        # One order per head state, the last one continuing: the fractional
        # and flight laws are one state whose ln E term is 0.
        if isinstance(spec, StateDependentSpec):
            self._orders, self._b = np.array(spec.alphas), 1.0
        else:
            a, self._b = _ml_params(spec)
            self._orders, self._log_mls = np.array([a]), np.zeros(1)
        if lam == 0.0:
            self.log_normalizer, self.n_lo, self.n_hi = -log_gamma_pos(self._b), 0, 1
            return
        # math.log, not np.log: numpy's can differ in the last ulp.
        self._log_lam = math.log(lam)
        if not isinstance(spec, StateDependentSpec):
            log_norm, lo, hi = _log_ml_window(MLParams(a, self._b), np.array([lam]))
            self.log_normalizer, self.n_lo, self.n_hi = float(log_norm[0]), int(lo[0]), int(hi[0])
            return
        alphas = self._orders
        self._log_mls = np.array([log_mittag_leffler(MLParams(a, 1.0), lam) for a in spec.alphas])
        tail, tail_lo, tail_hi = _log_ml_window(
            MLParams(alphas[-1], alphas[-1] * alphas.size + 1.0), np.array([lam]))
        head = self.log_weight(np.arange(alphas.size))
        logs = np.append(head, alphas.size * self._log_lam + tail[0] - self._log_mls[-1])
        m = logs.max()
        self.log_normalizer = m + math.log(math.fsum(np.exp(logs - m)))
        n_lo, n_hi = alphas.size + int(tail_lo[0]), alphas.size + int(tail_hi[0])
        # The peak weight is at least the mean of the J + n_hi - n_lo weights
        # in the normalizer, so a head count below this is over 60 nats under it.
        if head.max() >= self.log_normalizer - _ML_TAIL_NATS - math.log(n_hi - n_lo + alphas.size):
            n_lo = 0
        _check_window(np.array([n_hi - n_lo]), np.array([lam]), "state-dependent count table")
        self.n_lo, self.n_hi = n_lo, n_hi

    def log_weight(self, n):
        """ln of the unnormalized weight of a count or of each of an array of
        counts: n·ln Λ − ln Γ(α_j·n + b) − ln E_{α_j,1}(Λ) at state j =
        min(n, J − 1), the last term 0 for the fractional and flight laws."""
        n = np.asarray(n, dtype=np.int64)
        if self.lam == 0.0:
            return np.where(n == 0, self.log_normalizer, -np.inf)
        j = np.minimum(n, self._orders.size - 1)
        return n * self._log_lam - log_gamma_pos(self._orders[j] * n + self._b) - self._log_mls[j]

    @cached_property
    def _cum(self) -> np.ndarray:
        # Offsets from the largest log-weight are exact, so the table does
        # not carry the normalizer's rounding, and it ends at exactly 1.
        cum = _in_pieces(self.log_weight, self.n_lo, self.n_hi)
        cum -= cum.max()
        np.cumsum(np.exp(cum, out=cum), out=cum)
        cum /= cum[-1]
        return cum[: np.searchsorted(cum, 1.0) + 1]

    @property
    def support_size(self) -> int:
        """One past the largest count the table holds."""
        return self.n_lo + self._cum.size

    def pmf(self, n):
        """P{N = n} at a count or an array of counts: exp(log-weight −
        ``log_normalizer``). Its running sum over the table departs from the
        CDF by the normalizer's rounding: 2.4e-8 at α = 0.2, Λ = 50, 3e-12
        at Λ = 10, 1e-14 or less at Λ ≤ 5."""
        counts = np.asarray(n)
        if not np.all((counts >= 0) & (counts == np.floor(counts))):
            raise DomainError(f"counts must be nonnegative integers, got {n}")
        p = np.exp(self.log_weight(counts) - self.log_normalizer)
        return p if p.ndim else float(p)

    def cdf(self, n: int) -> float:
        n = _require_count(n)
        if n < self.n_lo:
            return 0.0
        return float(self._cum[min(n - self.n_lo, self._cum.size - 1)])

    def sample(self, u: float) -> int:
        """One inverse-CDF draw; see :meth:`sample_many`."""
        return int(self.sample_many(np.array([u], dtype=float))[0])

    def sample_many(self, us: np.ndarray) -> np.ndarray:
        """Smallest n ≥ ``n_lo`` with CDF(n) ≥ u for each uniform u in
        [0, 1), the range ``random()`` draws from; u = 0 maps to ``n_lo``.
        The table ends at exactly 1, so every u lands in it.
        """
        us = np.asarray(us, dtype=float)
        outside = ~((us >= 0.0) & (us < 1.0))
        if outside.any():
            raise DomainError(f"sampling uniforms must lie in [0, 1), got {us[outside][0]}")
        return np.searchsorted(self._cum, us, side="left").astype(np.int64) + self.n_lo


@lru_cache(maxsize=64)
def count_distribution(spec, t: float) -> CountDistribution:
    """The one cache of count laws, keyed by ``(spec, t)``; specs are
    immutable, so sharing is safe."""
    return CountDistribution(spec, t)


def _require_time(t: float) -> None:
    if not t > 0.0:
        raise DomainError(f"time must be > 0, got {t}")


def _require_count(n) -> int:
    if int(n) != n or n < 0:
        raise DomainError(f"count must be a nonnegative integer, got {n}")
    return int(n)
