"""Closed-form laws of the planar motions and their projections.

The unconditional planar law is the count-pmf-weighted mixture of the
conditional endpoint densities

    f_n(x, y) = n (c²t² − x² − y²)^{n/2−1} / (2π (ct)^n),   n ≥ 1,

plus an atom of weight P{N=0} spread uniformly on the circle of radius
ct. For the fractional counting family the mixture series collapses --
through Γ(αk + α + 1) = α(k+1)Γ(αk + α) -- into the Mittag-Leffler
closed form

    p_ac(x, y) = Λ E_{α,α}((Λ/ct)·w) / (2πα · ct · E_{α,1}(Λ) · w),

with w = √(c²t² − x² − y²); ``planar_law`` evaluates that form, and
``mixture_density`` keeps the term-by-term sum around as an independent
cross-check. ``planar_density_const_rate`` evaluates the separate
E_{α,1}-based constant-rate expression, which coincides with the
classical damped-wave law at α = 1 but is NOT the mixture for α < 1;
the verification harness quantifies the difference rather than hiding
it.

Projection onto a line and the random-flight marginals (with their own
Mittag-Leffler mixture law) complete the family. This module holds the one
rule for a speed and a horizon (c, t and ct finite and positive), which the
motion, the checks and the command line call too; every law here also
refuses a ct whose square is not a positive normal double, and checks its
points against one support predicate each: [0, ct) for radii, (−ct, ct) on
the line, and the constant-rate law's own disk test. The planar law is 0
off the disk and the classical planar law ``nan``; the others raise
``DomainError`` naming the first point off the support. The planar and
line laws take a fractional spec only. Evaluators compute in the log
domain wherever normalizers can leave double range. Every closed form
takes scalars or arrays of points and computes its normalizers once per
call, and every value keeps the bits of its one-point call: the
Mittag-Leffler ratios go through ``specfun._ml_ratio`` (one array call of
``log_mittag_leffler``, then ``math.exp`` per value, as numpy's differs in
the last ulp), and the line laws sum their Mittag-Leffler-type series for
all points in one window-kernel call, prefactors added in the log domain.
The mixtures take one point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .counting import (
    FlightCountSpec,
    FracPoissonSpec,
    _ml_params,
    count_distribution,
    cumulative_rate,
)
from .specfun import (
    ConvergenceError,
    DomainError,
    MLParams,
    WrightSeriesSpec,
    _log_window_sum,
    _math_log,
    _ml_ratio,
    _peak_guess,
    _shaped,
    log_gamma_pos,
    log_mittag_leffler,
    log_wright_series,
    positive_series,
)

__all__ = [
    "PlanarLaw",
    "conditional_density",
    "planar_law",
    "planar_density_const_rate",
    "classical_planar_density",
    "mixture_density",
    "line_density",
    "classical_line_density",
    "projection_wright_spec",
    "flight_exponent",
    "flight_marginal",
    "flight_unconditional",
    "flight_mixture_density",
]

_TWO_PI = 2.0 * math.pi
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# The smallest normal double: it stands in for an underflowed series
# argument, so that k·ln z stays finite, and bounds (ct)² from below.
_TINY = float(np.finfo(float).tiny)


def _require_speed_horizon(c: float, t: float) -> float:
    """The one rule for a speed and a horizon: ``c``, ``t`` and the support
    radius ``c·t`` finite and positive, checked in that order. Returns
    ``ct``. The motion, the laws, the checks and the command line all call
    it. ``(ct)²`` may leave the double range here: only the laws form it
    (see :func:`_law_radius`)."""
    for name, value in (("speed c", c), ("horizon t", t), ("support radius c*t", c * t)):
        if not (value > 0.0 and math.isfinite(value)):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    return c * t


def _law_radius(c: float, t: float) -> float:
    """``ct`` by :func:`_require_speed_horizon`, refused unless ``(ct)²`` is a
    positive normal double: every law forms ``c²t² − r²``."""
    ct = _require_speed_horizon(c, t)
    if not _TINY <= ct * ct < math.inf:
        raise DomainError(f"(c*t)^2 must be a positive normal double, got c*t={ct}")
    return ct


# The supports, one predicate each, for a scalar or an array of points.


def _in_radius(c: float, t: float, r):
    """Radii in [0, ct)."""
    return (0.0 <= r) & (r < c * t)


def _in_line(c: float, t: float, x):
    """Positions in (−ct, ct)."""
    return np.abs(x) < c * t


def _in_disk(c: float, t: float, x, y=0.0):
    """Points of the open disk as the constant-rate planar law tests them:
    c²t² − x² − y² > 0, which can fail for r just below ct."""
    return c * c * t * t - (x * x + y * y) > 0.0


def _require_inside(inside, where: str, *point) -> None:
    """Raise ``DomainError`` naming the first point (one coordinate, or the
    pair x, y) where ``inside`` is false."""
    inside = np.asarray(inside)
    if not inside.all():
        first = [float(np.broadcast_to(v, inside.shape)[~inside].flat[0]) for v in point]
        raise DomainError(f"{where}, got {first[0] if len(first) == 1 else tuple(first)}")


def _require_radius(c: float, t: float, r) -> float:
    """``ct`` by :func:`_law_radius`, with every radius of ``r`` in [0, ct)."""
    ct = _law_radius(c, t)
    _require_inside(_in_radius(c, t, r), f"radius must lie in [0, ct), ct={ct}", r)
    return ct


def _frac_alpha(spec, law: str) -> float:
    """α of a fractional spec: the planar and line laws need one."""
    if isinstance(spec, FracPoissonSpec):
        return spec.alpha
    hint = "; use flight_unconditional" if isinstance(spec, FlightCountSpec) else ""
    raise DomainError(f"{law} needs a FracPoissonSpec, got {type(spec).__name__}{hint}")


def _f_n(n: int, w2: float, ct: float) -> float:
    """n (c²t² − r²)^{n/2−1} / (2π (ct)^n) from w2 = c²t² − r² and ct."""
    return n * w2 ** (n / 2.0 - 1.0) / (_TWO_PI * ct ** n)


def conditional_density(n: int, c: float, t: float, r: float) -> float:
    """Endpoint density at radius r given exactly n ≥ 1 direction changes:
    n (c²t² − r²)^{n/2−1} / (2π (ct)^n)."""
    _require_radius(c, t, r)
    if int(n) != n or n < 1:
        raise DomainError(f"conditional density needs an integer n >= 1, got {n}")
    return _f_n(int(n), c * c * t * t - r * r, c * t)


@dataclass(frozen=True)
class PlanarLaw:
    """Unconditional planar law: an absolutely continuous density on the
    open disk of radius ct plus a singular weight on its boundary circle.
    ``ac_density(x, y)`` takes scalars (giving a float) or arrays."""

    ac_density: Callable
    singular_weight: float
    c: float
    t: float

    def __post_init__(self):
        if not (0.0 <= self.singular_weight <= 1.0):
            raise DomainError(f"singular weight must be a probability, got {self.singular_weight}")


def planar_law(spec: FracPoissonSpec, c: float, t: float) -> PlanarLaw:
    """Unconditional law of the planar motion whose direction changes are
    counted by ``spec``.

    The a.c. part evaluates the collapsed mixture
    Λ E_{α,α}((Λ/ct)w) / (2πα ct E_{α,1}(Λ) w) and returns 0 outside the
    open disk; it takes scalars or arrays (broadcast together) and makes
    one Mittag-Leffler call per call. The singular weight is
    P{N=0} = 1/E_{α,1}(Λ).
    """
    ct = _law_radius(c, t)
    alpha = _frac_alpha(spec, "planar_law")
    lam = cumulative_rate(spec.rate, t)
    if lam == 0.0:
        def no_density(x, y):
            return _shaped(np.zeros(np.broadcast(x, y).shape))

        return PlanarLaw(ac_density=no_density, singular_weight=1.0, c=c, t=t)
    log_norm = log_mittag_leffler(MLParams(alpha, 1.0), lam)

    def ac_density(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        w2 = ct * ct - (x * x + y * y)
        out = np.zeros(w2.shape)
        inside = w2 > 0.0
        w = np.sqrt(w2[inside])
        out[inside] = _ml_ratio(MLParams(alpha, alpha), lam * w / ct, log_norm, math.log(lam),
                                _math_log(_TWO_PI * alpha * ct * w))
        return _shaped(out)

    return PlanarLaw(
        ac_density=ac_density,
        singular_weight=math.exp(-log_norm),
        c=c,
        t=t,
    )


def _count_mixture(spec, c: float, t: float, r: float, kernel: Callable[[int], float],
                   first: int, max_terms: int, first_stop: int, what: str) -> float:
    """Σ_{n≥first} kernel(n)·P{N=n} for the count law of ``spec`` at ``t``,
    summed by :func:`~fracmotion.specfun.positive_series` at rel_tol 1e-14.
    Scalar arithmetic per term: the verify report compares the planar sum
    with the closed form at the level of single ulps."""
    _require_radius(c, t, r)
    dist = count_distribution(spec, t)

    def terms(k):
        n = k + first
        return [kernel(m) * p for m, p in zip(n.tolist(), dist.pmf(n).tolist())]

    return math.fsum(positive_series(terms, 1e-14, max_terms, f"{what} at r={r}",
                                     first_stop=first_stop))


def mixture_density(spec: FracPoissonSpec, c: float, t: float, r: float) -> float:
    """Term-by-term mixture Σ_{n≥1} f_n(r)·P{N=n}: the independent
    cross-check for the collapsed form in :func:`planar_law`, summed at
    rel_tol 1e-14 with at most 500 terms.  Each term is the f_n of
    :func:`conditional_density`, whose arguments are checked once per call.
    Where every term is 0 (at Λ = 0, or at a Λ so small that every term
    underflows) the value is 0.0."""
    w2 = c * c * t * t - r * r
    try:
        return _count_mixture(spec, c, t, r, lambda n: _f_n(n, w2, c * t), 1, 500, 0,
                              "planar mixture")
    except ConvergenceError as err:
        # positive_series cannot tell leading terms that underflowed before
        # the series rises from a series of zeros.  The count law's
        # log-weight n·ln Λ − ln Γ(αn + 1) is concave in n, so past its table
        # the pmf only falls: once it is 0 there, so is every later term.
        dist = count_distribution(spec, t)
        end = 1 + err.terms_used
        if err.partial_sum == 0.0 and end >= dist.support_size and dist.pmf(end) == 0.0:
            return 0.0
        raise


def planar_density_const_rate(alpha: float, lam: float, c: float, t: float, x, y):
    """The constant-rate expression
    λ E_{α,1}((λ/c)w) / (2πc E_{α,1}(λt) w), w = √(c²t² − x² − y²),
    at scalar or array points (broadcast together), every one of which
    must lie in the open disk.

    At α = 1 this is exactly the classical damped-wave density; for
    α < 1 it differs from the mixture law (see the verification
    harness's law-comparison check).
    """
    ct = _law_radius(c, t)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"rate must be finite and >= 0, got {lam}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_inside(_in_disk(c, t, x, y), f"point must lie in the open disk, ct={ct}", x, y)
    w2 = c * c * t * t - (x * x + y * y)
    out = np.zeros(w2.shape)
    if lam > 0.0:
        w = np.sqrt(w2.ravel())
        ml = MLParams(alpha, 1.0)
        out.flat = _ml_ratio(ml, lam * w / c, log_mittag_leffler(ml, lam * t), math.log(lam),
                             _math_log(_TWO_PI * c * w))
    return _shaped(out)


def classical_planar_density(lam: float, c: float, t: float, x, y):
    """Damped-wave (planar telegraph) density
    (λ/2πc) e^{−λt + (λ/c)w} / w at scalar or array points (broadcast
    together); ``nan`` outside the open disk, which the telegraph
    residual's stencil relies on to detect the support boundary."""
    _law_radius(c, t)
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"rate must be finite and >= 0, got {lam}")
    w2 = (c * t) ** 2 - x * x - y * y
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.sqrt(np.where(w2 > 0.0, w2, np.nan))
        val = lam / (2.0 * math.pi * c) * np.exp(-lam * t + lam * w / c) / w
    return _shaped(val)


def projection_wright_spec(alpha: float) -> WrightSeriesSpec:
    """Parameter rows of the Wright series the projected law compacts to:
    upper (1,1), (1,1/2); lower (1/2,1/2), (1,α)."""
    return WrightSeriesSpec(
        upper=((1.0, 1.0), (1.0, 0.5)),
        lower=((0.5, 0.5), (1.0, float(alpha))),
    )


def _on_line(c: float, t: float, x):
    """w = √(c²t² − x²) as a 1-D array for a scalar or array x, every point
    in (−ct, ct)."""
    ct = c * t
    x = np.asarray(x, dtype=float)
    _require_inside(_in_line(c, t, x), f"position must lie in (−ct, ct), ct={ct}", x)
    x = x.ravel()
    return np.sqrt(ct * ct - x * x)


def line_density(spec: FracPoissonSpec, c: float, t: float, x, method: str = "series"):
    """Density of the projection of the planar motion onto a line,
    evaluated at a scalar x or an array of x, every one in (−ct, ct):

        (1/(√π E_{α,1}(Λ))) Σ_k (Λ/ct)^k [Γ(k/2+1)/Γ((k+1)/2)] w^{k−1} / Γ(αk+1)

    with w = √(c²t² − x²). The k = 0 term is the projection of the
    boundary atom, so the series integrates to one on its own.
    ``method`` picks the explicit summation (``"series"``) or the
    compact generalized-Wright evaluation (``"wright"``), each at
    z = Λw/ct for all points in one window-kernel call with
    −ln E_{α,1}(Λ) − ln(√π w) added in the log domain (a density below
    double range is 0.0). They agree to 1e-10 while the log-terms stay
    under about 5e5 nats, and to n*·ln(Λ)·2e-16 beyond.
    """
    _law_radius(c, t)
    if method not in ("series", "wright"):
        raise DomainError(f"unknown line-density method {method!r}")
    alpha = _frac_alpha(spec, "line_density")
    lam = cumulative_rate(spec.rate, t)
    w = _on_line(c, t, x)
    if lam == 0.0:
        return _shaped(1.0 / (math.pi * w), x)
    z = np.maximum(lam * w / (c * t), _TINY)
    # Both methods take the count law's window sum, not log_mittag_leffler's
    # closed form: the series' log-terms round as the window's do (see log_terms).
    log_prefix = -_LOG_SQRT_PI - _math_log(w) - count_distribution(spec, t).log_normalizer
    if method == "wright":
        return _shaped(np.exp(log_wright_series(projection_wright_spec(alpha), z) + log_prefix), x)
    lnz = _math_log(z)

    # The Mittag-Leffler log-term k·ln z − ln Γ(αk + 1) is formed as in
    # E_{α,1}, so at large counts its rounding cancels against log_norm's.
    def log_terms(rows, k):
        return (log_prefix[rows, None]
                + (log_gamma_pos(k / 2.0 + 1.0) - log_gamma_pos((k + 1.0) / 2.0))
                + (k * lnz[rows, None] - log_gamma_pos(alpha * k + 1.0)))

    log_density = _log_window_sum(log_terms, z, _peak_guess(z, alpha, 1.0), alpha,
                                  "projection series")[0]
    return _shaped(np.exp(log_density), x)


def classical_line_density(lam: float, c: float, t: float, x):
    """Classical projected density at constant rate and α = 1:
    e^{−λt} Σ_k (λ/2c)^k w^{k−1} / Γ((k+1)/2)², an independent series
    evaluation used to cross-check the general projection at α = 1.
    Takes a scalar x or an array of x, every one in (−ct, ct); one
    window-kernel call, its terms peaking near k = λw/c."""
    _law_radius(c, t)
    if not 0.0 <= lam < math.inf:
        raise DomainError(f"rate must be finite and >= 0, got {lam}")
    w = _on_line(c, t, x)
    if lam == 0.0:
        return _shaped(1.0 / (math.pi * w), x)
    z = np.maximum(lam * w / c, _TINY)
    ln_half_z = _math_log(z / 2.0)
    log_w = _math_log(w)

    def log_terms(rows, k):
        return (-lam * t + k * ln_half_z[rows, None] - 2.0 * log_gamma_pos((k + 1.0) / 2.0)
                - log_w[rows, None])

    log_density = _log_window_sum(log_terms, z, _peak_guess(z, 1.0, 1.0), 1.0,
                                  "projected classical series")[0]
    return _shaped(np.exp(log_density), x)


def flight_exponent(d: int, n: int, variant: str) -> float:
    if int(d) != d or d < 3:
        raise DomainError(f"flight dimension must be an integer >= 3, got {d}")
    if int(n) != n or n < 0:
        raise DomainError(f"count must be a nonnegative integer, got {n}")
    if variant == "Y":
        return (n + 1) * (d / 2.0 - 1.0)
    if variant == "X":
        return ((n + 1) * (d - 1.0) - 1.0) / 2.0
    raise DomainError(f"variant must be 'X' or 'Y', got {variant!r}")


def flight_marginal(d: int, n: int, c: float, t: float, r: float, variant: str = "Y") -> float:
    """Planar marginal of the d-dimensional random flight after n changes
    of direction: a (c²t² − r²)^{a−1} / (π (ct)^{2a}) with the
    variant-specific exponent a (the printed Gamma-ratio prefactor
    Γ(a+1)/Γ(a) equals a).  Formed as a (1 − (r/ct)²)^{a−1} / (π (ct)²):
    ``ct ** (2a)`` alone leaves the double range at large a."""
    ct = _require_radius(c, t, r)
    a = flight_exponent(d, n, variant)
    q = r / ct
    return a * (1.0 - q * q) ** (a - 1.0) / (math.pi * ct * ct)


def flight_unconditional(spec: FlightCountSpec, c: float, t: float, r):
    """Unconditional planar flight law (Y-projection): with γ = d/2 − 1
    and Q = (c²t² − r²)^γ / (ct)^{2γ},

        (c²t² − r²)^{γ−1} / (π (ct)^{2γ}) · E_{γ,γ}(ΛQ) / E_{γ,γ+1}(Λ),

    at a scalar radius or an array of radii, every one in [0, ct).
    """
    r = np.asarray(r, dtype=float)
    ct = _require_radius(c, t, r)
    norm_params = _ml_params(spec)
    gamma_order = norm_params.alpha
    lam = cumulative_rate(spec.rate, t)
    radii = r.ravel().tolist()
    if lam == 0.0:
        # Only the n = 0 conditional survives.
        out = np.array([flight_marginal(spec.d, 0, c, t, ri, variant="Y") for ri in radii])
    else:
        w2 = [ct * ct - ri * ri for ri in radii]
        q = np.array([v**gamma_order / ct ** (2.0 * gamma_order) for v in w2])
        head = ((gamma_order - 1.0) * _math_log(np.array(w2)) - math.log(math.pi)
                - 2.0 * gamma_order * math.log(ct))
        out = _ml_ratio(MLParams(gamma_order, gamma_order), lam * q,
                        log_mittag_leffler(norm_params, lam), head)
    return _shaped(out, r)


def flight_mixture_density(spec: FlightCountSpec, c: float, t: float, r: float,
                           variant: str = "Y") -> float:
    """Term-by-term mixture Σ_{n≥0} f^d(r; n)·P{N_d = n}, summed at rel_tol
    1e-14 with at most 200 terms; the independent cross-check for
    :func:`flight_unconditional` (Y-variant) and the only evaluation
    offered for the X-variant, whose collapsed form is not available."""
    return _count_mixture(spec, c, t, r,
                          lambda n: flight_marginal(spec.d, n, c, t, r, variant=variant),
                          0, 200, 3, "flight mixture")
