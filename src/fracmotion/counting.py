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

All pmf evaluation runs in the log domain (log-weights minus a
log-normalizer), so large Λ -- where E_{α,1}(Λ) overflows double
precision -- costs nothing in accuracy. Sampling is exact inverse-CDF on
a cached cumulative table that extends itself on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import xlogy

from .specfun import (
    ConvergenceError,
    DomainError,
    MLParams,
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

_QUAD_ABS_TOL = 1e-10


@dataclass(frozen=True)
class RateFunction:
    """Time-dependent intensity λ(s) ≥ 0 with analytic cumulative where
    the kind allows it.

    Construct through the classmethods: ``constant(lam)``,
    ``power(a, b)`` for λ(s) = a·s^b with b > −1, ``piecewise(breakpoints,
    values)`` for a step rate (value ``values[i]`` on the segment ending
    at ``breakpoints[i]``, zero after the last breakpoint), or
    ``from_callable(fn)`` for anything else (cumulative then falls back
    to adaptive quadrature with absolute tolerance 1e-10; callable rates
    are equal only when they wrap the same callable).
    """

    kind: str
    params: tuple = ()
    fn: Callable[[float], float] | None = None

    @classmethod
    def constant(cls, lam: float) -> "RateFunction":
        if lam < 0.0:
            raise DomainError(f"constant rate must be >= 0, got {lam}")
        return cls("constant", (float(lam),))

    @classmethod
    def power(cls, a: float, b: float) -> "RateFunction":
        if a < 0.0:
            raise DomainError(f"power-rate scale must be >= 0, got {a}")
        if b <= -1.0:
            raise DomainError(f"power-rate exponent must be > -1, got {b}")
        return cls("power", (float(a), float(b)))

    @classmethod
    def piecewise(cls, breakpoints: Sequence[float], values: Sequence[float]) -> "RateFunction":
        bp = tuple(float(b) for b in breakpoints)
        vals = tuple(float(v) for v in values)
        if len(bp) != len(vals) or not bp:
            raise DomainError("need equally many breakpoints and values, at least one each")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])) or bp[0] <= 0.0:
            raise DomainError("breakpoints must be strictly increasing and positive")
        if any(v < 0.0 for v in vals):
            raise DomainError("piecewise rate values must be >= 0")
        return cls("piecewise", (bp, vals))

    @classmethod
    def from_callable(cls, fn: Callable[[float], float]) -> "RateFunction":
        return cls("callable", (), fn)

    def rate(self, s: float) -> float:
        """λ(s)."""
        if s < 0.0:
            raise DomainError(f"rate requires s >= 0, got {s}")
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "power":
            a, b = self.params
            return a * s**b if s > 0.0 else (a if b == 0.0 else 0.0)
        if self.kind == "piecewise":
            bp, vals = self.params
            for b, v in zip(bp, vals):
                if s < b:
                    return v
            return 0.0
        return float(self.fn(s))


def cumulative_rate(rate: RateFunction, t: float) -> float:
    """Cumulative intensity Λ(t); analytic for the declarative kinds,
    adaptive quadrature (abs tol 1e-10) for callables."""
    t = float(t)
    if t < 0.0:
        raise DomainError(f"cumulative_rate requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    if rate.kind == "constant":
        return rate.params[0] * t
    if rate.kind == "power":
        a, b = rate.params
        return a * t ** (b + 1.0) / (b + 1.0)
    if rate.kind == "piecewise":
        bp, vals = rate.params
        total = 0.0
        left = 0.0
        for b, v in zip(bp, vals):
            if t <= left:
                break
            total += v * (min(t, b) - left)
            left = b
        return total
    value, abserr = quad(rate.fn, 0.0, t, epsabs=_QUAD_ABS_TOL, epsrel=1e-10, limit=200)
    if abserr > 1e-7:
        raise ConvergenceError(
            f"cumulative-rate quadrature error estimate {abserr:.1e} too large", value, 0
        )
    if value < 0.0:
        raise DomainError("rate function integrated to a negative cumulative")
    return value


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
# E_{a,b}(Λ)); the state-dependent normalizer is a truncated sum.


def _ml_params(spec) -> MLParams:
    """(a, b) of the fractional (α, 1) or flight (γ, γ + 1), γ = d/2 − 1, law."""
    if isinstance(spec, FracPoissonSpec):
        return MLParams(spec.alpha, 1.0)
    if isinstance(spec, FlightCountSpec):
        gamma_order = spec.d / 2.0 - 1.0
        return MLParams(gamma_order, gamma_order + 1.0)
    raise DomainError(f"unsupported counting spec type {type(spec).__name__}")


@lru_cache(maxsize=256)
def _log_ml_cached(alpha: float, beta: float, z: float) -> float:
    return log_mittag_leffler(MLParams(alpha, beta), z)


def _state_dependent_log_terms(spec: StateDependentSpec, lam: float, max_terms: int = 200000):
    """Log of the state-dependent summands q_j = Λ^j / (Γ(α_j j + 1) E_{α_j,1}(Λ)),
    truncated by :func:`~fracmotion.specfun.positive_series` at rel_tol
    1e-12, past the explicit α vector."""
    if lam == 0.0:
        return np.array([0.0] + [-np.inf] * (len(spec.alphas) - 1))
    log_lam = math.log(lam)
    alphas = np.array(spec.alphas)
    log_mls = np.array([_log_ml_cached(a, 1.0, lam) for a in spec.alphas])

    def log_terms(j):
        i = np.minimum(j, alphas.size - 1)
        return j * log_lam - log_gamma_pos(alphas[i] * j + 1.0) - log_mls[i]

    kept = positive_series(lambda j: np.exp(log_terms(j)), 1e-12, max_terms,
                           f"state-dependent normalizer at Lambda={lam}",
                           first_stop=alphas.size)
    return log_terms(np.arange(kept.size))


def _log_terms_and_normalizer(spec, t: float):
    """(callable n -> log-weight array of the shape of n, log normalizer,
    Λ(t)) for any of the three counting specs."""
    lam = cumulative_rate(spec.rate, t)
    if isinstance(spec, StateDependentSpec):
        logs = _state_dependent_log_terms(spec, lam)
        m = logs.max()
        log_norm = m + math.log(math.fsum(np.exp(logs - m)))

        def log_weight(n):
            n = np.asarray(n, dtype=np.int64)
            return np.where(n < logs.size, logs[np.minimum(n, logs.size - 1)], -np.inf)

        return log_weight, log_norm, lam
    a, b = _ml_params(spec)
    # math.log, not np.log: numpy's can differ in the last ulp.
    log_lam = math.log(lam) if lam > 0.0 else -math.inf

    def log_weight(n):
        n = np.asarray(n, dtype=float)
        # Λ^0 = 1 also at Λ = 0, where n·ln Λ is 0·(−inf).
        with np.errstate(invalid="ignore"):
            return np.where(n == 0, 0.0, n * log_lam) - log_gamma_pos(a * n + b)

    return log_weight, _log_ml_cached(a, b, lam), lam


def pmf(spec: CountingSpec, t: float, n: int) -> float:
    """P{N(t) = n} for any counting spec: Λ(t)^n / (Γ(an+b) E_{a,b}(Λ(t)))
    with (a, b) = (α, 1) for the fractional law and (d/2 − 1, d/2) for the
    flight law, or the state-dependent pmf (state j weighted by its own α_j)."""
    _require_time(t)
    n = _require_count(n)
    log_weight, log_norm, _ = _log_terms_and_normalizer(spec, t)
    return min(1.0, float(np.exp(log_weight(n) - log_norm)))


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

    def weighted_terms(k):
        w = np.array([float(weights(i)) for i in k.tolist()])
        p = np.exp(xlogy(k, lambda_t) - lambda_t - log_gamma_pos(k + 1.0))
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
        log_norm = log_mittag_leffler(p, lam)
        out.flat = [math.exp(v - log_norm)
                    for v in log_mittag_leffler(p, u.ravel() * lam).tolist()]
    return out if out.ndim else float(out)


class CountDistribution:
    """Materialized pmf/CDF table of a counting spec at a fixed time.

    Holds probabilities p_0..p_N with cumulative coverage at least
    ``1 - 1e-13`` (extended on demand when a sampling uniform lands in
    the tail), the log-normalizer, and exact inverse-CDF sampling:
    ``sample(u)`` returns the smallest n with CDF(n) ≥ u.
    """

    _BLOCK = 512
    _MAX_TERMS = 2_000_000
    _TAIL = 1e-13

    def __init__(self, spec, t: float):
        self.spec = spec
        self.t = float(t)
        self._log_weight, self.log_normalizer, self.lam = _log_terms_and_normalizer(spec, t)
        self._probs = np.empty(0)
        self._cum = np.empty(0)
        self._grow_until(lambda: self._cum.size and self._cum[-1] >= 1.0 - self._TAIL)

    def _grow_until(self, done) -> None:
        while not done():
            if self._probs.size >= self._MAX_TERMS:
                raise ConvergenceError(
                    "count distribution table hit its size cap",
                    float(self._cum[-1]) if self._cum.size else 0.0,
                    self._probs.size,
                )
            lo = self._probs.size
            n_new = np.arange(lo, lo + self._BLOCK)
            lw_new = self._log_weight(n_new) - self.log_normalizer
            p_new = np.exp(lw_new)
            base = self._cum[-1] if self._cum.size else 0.0
            self._probs = np.concatenate([self._probs, p_new])
            self._cum = np.concatenate([self._cum, base + np.cumsum(p_new)])
            if p_new[-1] == 0.0 and lw_new[-1] < lw_new[0]:
                # Past the peak and the tail has underflowed: no further
                # block can add representable mass; stop growing.
                break

    @property
    def support_size(self) -> int:
        return int(self._probs.size)

    def pmf(self, n: int) -> float:
        n = _require_count(n)
        if n < self._probs.size:
            return float(self._probs[n])
        return float(np.exp(self._log_weight(n) - self.log_normalizer))

    def cdf(self, n: int) -> float:
        n = _require_count(n)
        if n >= self._cum.size:
            return float(self._cum[-1])
        return float(self._cum[n])

    def sample(self, u: float) -> int:
        """One inverse-CDF draw; see :meth:`sample_many`."""
        return int(self.sample_many(np.array([u], dtype=float))[0])

    def sample_many(self, us: np.ndarray) -> np.ndarray:
        """Smallest n with CDF(n) ≥ u for each uniform u in (0, 1).

        A u above the whole representable table (grown until its tail
        underflowed) maps to the last n with positive mass when the mass
        the table misses is at most 1e-13, and raises otherwise.
        """
        us = np.asarray(us, dtype=float)
        outside = ~((us > 0.0) & (us < 1.0))
        if outside.any():
            raise DomainError(f"sampling uniforms must lie in (0, 1), got {us[outside][0]}")
        if not us.size:
            return np.empty(0, dtype=np.int64)
        top = float(us.max())
        if top > self._cum[-1]:
            self._grow_until(lambda: self._cum[-1] >= top)
        draws = np.searchsorted(self._cum, us, side="left").astype(np.int64)
        if top > self._cum[-1]:
            if 1.0 - self._cum[-1] > self._TAIL:
                raise ConvergenceError(
                    f"could not cover u={top} within the representable tail",
                    float(self._cum[-1]),
                    self._probs.size,
                )
            np.minimum(draws, np.flatnonzero(self._probs)[-1], out=draws)
        return draws


@lru_cache(maxsize=64)
def count_distribution(spec, t: float) -> CountDistribution:
    """Cached table builder; specs are immutable, so sharing is safe."""
    return CountDistribution(spec, t)


def _require_time(t: float) -> None:
    if not t > 0.0:
        raise DomainError(f"time must be > 0, got {t}")


def _require_count(n) -> int:
    if int(n) != n or n < 0:
        raise DomainError(f"count must be a nonnegative integer, got {n}")
    return int(n)
