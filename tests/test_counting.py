"""Counting-family laws: rates, pmf variants, pgf, and exact sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from fracmotion.counting import (
    CountDistribution,
    FlightCountSpec,
    FracPoissonSpec,
    RateFunction,
    StateDependentSpec,
    count_distribution,
    cumulative_rate,
    pgf,
    pmf,
    weighted_pmf,
)
from fracmotion.specfun import (
    ConvergenceError,
    DomainError,
    MLParams,
    RangeOverflowError,
    _log_ml_window,
    log_gamma_pos,
    mittag_leffler,
)

ALPHA_GRID = (0.3, 0.5, 0.7, 1.0)
LAMBDA_GRID = (0.1, 1.0, 5.0, 20.0)


def const_spec(alpha: float, lam: float) -> FracPoissonSpec:
    return FracPoissonSpec(alpha, RateFunction.constant(lam))


# ---------------------------------------------------------------------------
# Cumulative rates


def test_cumulative_rate_constant():
    assert cumulative_rate(RateFunction.constant(3.0), 2.0) == pytest.approx(6.0, abs=0)


def test_cumulative_rate_power():
    # lambda(s) = 2s integrates to t^2.
    assert cumulative_rate(RateFunction.power(2.0, 1.0), 3.0) == pytest.approx(9.0, rel=1e-14)


def test_cumulative_rate_piecewise():
    rate = RateFunction.piecewise([1.0, 2.0], [3.0, 1.0])
    assert cumulative_rate(rate, 0.5) == pytest.approx(1.5)
    assert cumulative_rate(rate, 1.5) == pytest.approx(3.5)
    # Rate is zero past the last breakpoint.
    assert cumulative_rate(rate, 5.0) == 4.0
    assert cumulative_rate(rate, 10.0) == pytest.approx(4.0)


def test_cumulative_rate_is_nondecreasing_and_zero_at_zero():
    rate = RateFunction.piecewise([0.5, 1.0, 4.0], [0.0, 2.5, 0.5])
    assert cumulative_rate(rate, 0.0) == 0.0
    grid = np.linspace(0.0, 5.0, 40)
    values = [cumulative_rate(rate, t) for t in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_cumulative_rate_rejects_nan_time_and_lambda_past_the_double_range():
    with pytest.raises(DomainError):
        cumulative_rate(RateFunction.constant(1.0), math.nan)
    # float ** raised a bare OverflowError here, and const:1e308 gave inf.
    for rate in (RateFunction.power(1.0, 1e308), RateFunction.constant(1e308)):
        with pytest.raises(RangeOverflowError, match="exceeds double range"):
            cumulative_rate(rate, 10.0)
        with pytest.raises(RangeOverflowError, match="exceeds double range"):
            pmf(FracPoissonSpec(0.5, rate), 10.0, 0)
    with pytest.raises(RangeOverflowError):
        cumulative_rate(RateFunction.constant(1.0), math.inf)


def test_cumulative_rate_at_infinite_time_of_a_rate_that_stops():
    rate = RateFunction.piecewise([1.0, 2.0], [2.0, 1.0])
    assert cumulative_rate(rate, math.inf) == 3.0
    spec = FracPoissonSpec(0.5, rate)
    assert pmf(spec, math.inf, 2) == pmf(spec, 2.0, 2) > 0.0
    # A zero rate adds 0 over an infinite span, not 0 * inf.
    assert cumulative_rate(RateFunction.piecewise([1.0, math.inf], [2.0, 0.0]), math.inf) == 2.0
    assert cumulative_rate(RateFunction.constant(0.0), math.inf) == 0.0
    assert cumulative_rate(RateFunction.power(0.0, 1.0), math.inf) == 0.0


def test_rate_validation():
    with pytest.raises(DomainError):
        RateFunction.constant(-1.0)
    with pytest.raises(DomainError):
        RateFunction.power(1.0, -1.0)
    with pytest.raises(DomainError):
        RateFunction.piecewise([2.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        RateFunction.piecewise([1.0], [-0.5])
    with pytest.raises(DomainError):
        cumulative_rate(RateFunction.constant(1.0), -0.1)


@pytest.mark.parametrize("make", [
    lambda x: RateFunction.constant(x),
    lambda x: RateFunction.power(x, 0.5),
    lambda x: RateFunction.power(1.0, x),
    lambda x: RateFunction.piecewise([1.0], [x]),
], ids=["const", "power-scale", "power-exponent", "piecewise-value"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rate_rejects_nan_and_infinite_parameters(make, bad):
    with pytest.raises(DomainError):
        make(bad)


@pytest.mark.parametrize("breakpoints", [[math.nan], [math.nan, 2.0], [1.0, math.nan]])
def test_piecewise_rejects_nan_breakpoints(breakpoints):
    with pytest.raises(DomainError):
        RateFunction.piecewise(breakpoints, [1.0] * len(breakpoints))


def test_equal_rates_share_count_tables():
    slow_table = count_distribution(FracPoissonSpec(0.5, RateFunction.constant(1.0)), 1.0)
    assert count_distribution(FracPoissonSpec(0.5, RateFunction.constant(1.0)), 1.0) is slow_table
    fast_table = count_distribution(FracPoissonSpec(0.5, RateFunction.constant(5.0)), 1.0)
    assert fast_table is not slow_table
    # P{N=0} = 1/E_{1/2,1}(5), about 6.9e-12 (the rate-1 table has 0.1996).
    assert fast_table.pmf(0) == pytest.approx(pmf(const_spec(0.5, 5.0), 1.0, 0), rel=1e-8)


# ---------------------------------------------------------------------------
# pmf of the base family


def test_pmf_alpha_one_is_poisson():
    spec = const_spec(1.0, 2.0)
    assert pmf(spec, 1.0, 0) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_pmf_at_zero_is_reciprocal_normalizer():
    for alpha, lam in [(0.5, 1.0), (0.7, 3.0), (1.0, 2.0)]:
        spec = const_spec(alpha, lam)
        expected = 1.0 / mittag_leffler(MLParams(alpha, 1.0), lam)
        assert pmf(spec, 1.0, 0) == pytest.approx(expected, rel=1e-12)


def test_pmf_derived_point():
    # 1 / (Gamma(1.5) E_{0.5,1}(1)); frozen 50-digit reference.
    assert pmf(const_spec(0.5, 1.0), 1.0, 1) == pytest.approx(
        0.225271242628657455193007, rel=1e-11
    )


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_one_time_rule_for_every_entry_point(t):
    # count_distribution(spec, 0.0) gave pmf(0) = 1 where pmf raised, and
    # at t = nan it raised ConvergenceError.
    spec = const_spec(0.5, 1.0)
    for call in (lambda: count_distribution(spec, t), lambda: CountDistribution(spec, t),
                 lambda: pmf(spec, t, 0), lambda: pgf(spec, t, 0.5)):
        with pytest.raises(DomainError, match="time must be > 0"):
            call()


def test_pmf_and_the_line_law_read_the_cached_law_without_a_table():
    from fracmotion.densities import line_density

    spec = const_spec(0.2, 7.125)  # a law no other test caches
    misses = count_distribution.cache_info().misses
    peak = round(7.125**5 / 0.2)
    value = pmf(spec, 1.0, peak)
    dist = count_distribution(spec, 1.0)
    assert count_distribution.cache_info().misses == misses + 1
    assert value == min(1.0, dist.pmf(peak)) > 0.0
    line_density(spec, 1.0, 1.0, 0.0)
    assert count_distribution.cache_info().misses == misses + 1
    assert "_cum" not in vars(dist)
    dist.cdf(peak)
    assert "_cum" in vars(dist)


def test_alpha_02_lambda_50_law_and_table_stay_small():
    # The window sum and the table form their 1.94e6 log-weights a piece at
    # a time into one array: 15.5 MB.  Measured peak: 18.1 MB (124 MB when
    # each was formed whole).
    import tracemalloc

    tracemalloc.start()
    try:
        dist = CountDistribution(const_spec(0.2, 50.0), 1)
        assert dist.support_size - dist.n_lo == 1_592_723
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_pmf_validation():
    spec = const_spec(0.5, 1.0)
    with pytest.raises(DomainError):
        pmf(spec, 0.0, 1)
    with pytest.raises(DomainError):
        pmf(spec, 1.0, -1)
    with pytest.raises(DomainError):
        pmf(spec, 1.0, 1.5)
    with pytest.raises(DomainError):
        FracPoissonSpec(0.0, RateFunction.constant(1.0))
    with pytest.raises(DomainError):
        FracPoissonSpec(1.2, RateFunction.constant(1.0))


@pytest.mark.parametrize("alpha", ALPHA_GRID)
@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_pmf_normalization_grid(alpha, lam):
    dist = count_distribution(const_spec(alpha, lam), 1.0)
    total = dist.cdf(dist.support_size - 1)
    assert abs(total - 1.0) <= 1e-10


@given(
    alpha=st.floats(min_value=0.3, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=10.0),
    n=st.integers(min_value=0, max_value=200),
)
@settings(deadline=None, max_examples=60)
def test_pmf_alpha_one_matches_scipy_poisson(alpha, lam, n):
    value = pmf(const_spec(1.0, lam), 1.0, n)
    assert value == pytest.approx(scipy.stats.poisson.pmf(n, lam), rel=1e-12, abs=1e-300)
    # and every pmf value is a probability
    frac = pmf(const_spec(alpha, lam), 1.0, n)
    assert 0.0 <= frac <= 1.0


# ---------------------------------------------------------------------------
# Weighted-Poisson view


def test_weighted_pmf_unit_weights_is_poisson():
    for n in range(6):
        assert weighted_pmf(lambda k: 1.0, 1.0, n) == pytest.approx(
            scipy.stats.poisson.pmf(n, 1.0), rel=1e-13
        )


def test_weighted_pmf_reproduces_fractional_family():
    alpha = 0.5
    w = lambda k: math.exp(math.lgamma(k + 1.0) - math.lgamma(alpha * k + 1.0))
    spec = const_spec(alpha, 1.0)
    for n in range(8):
        assert weighted_pmf(w, 1.0, n) == pytest.approx(pmf(spec, 1.0, n), rel=1e-12)


def test_weighted_pmf_two_term_normalizer():
    w = lambda k: 1.0 if k <= 1 else 0.0
    assert weighted_pmf(w, 1.0, 0) == pytest.approx(0.5, rel=1e-13)
    assert weighted_pmf(w, 1.0, 5) == 0.0


def _xlogy_weighted_pmf(weights, lambda_t, n):
    """weighted_pmf as it was formed with scipy's xlogy(k, lambda_t)."""
    from scipy.special import xlogy

    from fracmotion.specfun import positive_series

    def terms(k):
        w = np.array([float(weights(i)) for i in k.tolist()])
        p = np.exp(xlogy(k, lambda_t) - lambda_t - log_gamma_pos(k + 1.0))
        return np.where((w >= 0.0) & (w < math.inf), w * p, np.nan)

    kept = positive_series(terms, 1e-15, 100000, "reference",
                           first_stop=math.floor(lambda_t) + 1)
    return float(terms(np.array([n]))[0]) / math.fsum(kept)


def test_weighted_pmf_is_bit_identical_to_the_xlogy_form():
    import warnings

    # At 0.6242375350000001 numpy's log is one ulp off libm's, which xlogy
    # and math.log share.
    lambdas = [0.0, 1e-300, 1e-3, 0.5, 0.6242375350000001, 1.0, 2.5, 7.0, 13.3, 29.9, 50.0]
    for weights in (lambda k: 1.0, lambda k: 1.0 / (k + 1.0), lambda k: k % 3 + 0.5):
        for lambda_t in lambdas:
            for n in (0, 1, 2, 5, 17, 40, 77):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = weighted_pmf(weights, lambda_t, n)
                assert got == _xlogy_weighted_pmf(weights, lambda_t, n), (lambda_t, n)
    assert weighted_pmf(lambda k: 1.0, 0.0, 0) == 1.0
    assert weighted_pmf(lambda k: 1.0, 0.0, 3) == 0.0


def test_weighted_pmf_rejects_bad_weights():
    with pytest.raises(DomainError):
        weighted_pmf(lambda k: 0.0, 1.0, 0)
    with pytest.raises(DomainError):
        weighted_pmf(lambda k: -1.0, 1.0, 0)
    with pytest.raises(DomainError):
        weighted_pmf(lambda k: 1.0 if k < 3 else math.nan, 1.0, 0)
    for lambda_t in (math.inf, math.nan, -1.0):
        with pytest.raises(DomainError):
            weighted_pmf(lambda k: 1.0, lambda_t, 0)


def test_weighted_pmf_ignores_weights_past_the_stop():
    # At lambda_t = 1 the normalizer settles near k = 18; the invalid
    # weights from k = 40 on are evaluated only as block overshoot.
    w = lambda k: 1.0 if k < 40 else -1.0
    for n in range(6):
        assert weighted_pmf(w, 1.0, n) == pytest.approx(
            scipy.stats.poisson.pmf(n, 1.0), rel=1e-13
        )


# ---------------------------------------------------------------------------
# State-dependent family


def test_state_dependent_constant_orders_reduce_to_base():
    sd = StateDependentSpec((0.5,), RateFunction.constant(1.0))
    base = const_spec(0.5, 1.0)
    for j in range(8):
        assert pmf(sd, 1.0, j) == pytest.approx(pmf(base, 1.0, j), rel=1e-10)


def test_state_dependent_all_one_is_poisson():
    sd = StateDependentSpec((1.0, 1.0), RateFunction.constant(2.0))
    for j in range(8):
        assert pmf(sd, 1.0, j) == pytest.approx(
            scipy.stats.poisson.pmf(j, 2.0), rel=1e-10
        )


def test_state_dependent_mixed_orders_against_series_oracle():
    # alpha_0 = 1, alpha_j = 0.5 beyond; frozen 200-term 50-digit reference.
    sd = StateDependentSpec((1.0, 0.5), RateFunction.constant(1.0))
    assert pmf(sd, 1.0, 0) == pytest.approx(
        0.3149011083683383573142941, rel=1e-10
    )
    assert pmf(sd, 1.0, 1) == pytest.approx(
        0.1928299221108632029615303, rel=1e-10
    )


def test_state_dependent_normalization():
    sd = StateDependentSpec((1.0, 0.3, 0.7), RateFunction.constant(5.0))
    total = math.fsum(pmf(sd, 1.0, j) for j in range(400))
    assert abs(total - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# Flight-adapted family


def test_flight_count_d4_closed_form():
    spec = FlightCountSpec(4, RateFunction.constant(1.0))
    # 1 / (Gamma(2) E_{1,2}(1)) = 1/(e-1)
    assert pmf(spec, 1.0, 0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)
    # d=4 pmf is Lambda^n/(n+1)! times the normalizer
    for n in range(6):
        expected = 1.0 / (math.factorial(n + 1) * (math.e - 1.0))
        assert pmf(spec, 1.0, n) == pytest.approx(expected, rel=1e-12)


def test_flight_count_d3_derived_point():
    spec = FlightCountSpec(3, RateFunction.constant(2.0))
    # 2 / (Gamma(2) E_{0.5,1.5}(2)); frozen 50-digit reference.
    assert pmf(spec, 1.0, 1) == pytest.approx(
        0.03705731411651382665642842, rel=1e-11
    )


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0, 20.0])
def test_flight_count_normalization(d, lam):
    dist = count_distribution(FlightCountSpec(d, RateFunction.constant(lam)), 1.0)
    assert abs(dist.cdf(dist.support_size - 1) - 1.0) <= 1e-10


def test_state_dependent_table_pmf_past_its_support():
    dist = count_distribution(StateDependentSpec((0.5, 0.7), RateFunction.constant(1.0)), 1.0)
    assert dist.support_size < 600
    assert dist.pmf(600) == 0.0


@pytest.mark.parametrize("spec", [
    const_spec(0.5, 0.0),
    StateDependentSpec((0.5, 0.7), RateFunction.constant(0.0)),
    FlightCountSpec(3, RateFunction.constant(0.0)),
    FlightCountSpec(6, RateFunction.constant(0.0)),
], ids=["fractional", "state-dependent", "flight-d3", "flight-d6"])
def test_pmf_at_zero_rate(spec):
    assert pmf(spec, 1.0, 0) == 1.0
    assert pmf(spec, 1.0, 1) == 0.0
    assert pmf(spec, 1.0, 7) == 0.0


# ---------------------------------------------------------------------------
# One log-weight for the fractional and flight laws against the two it
# replaced, frozen here as the bit-for-bit reference.


def _window_log_ml(params, lam: float) -> float:
    # The count laws sum their normalizer over the window that holds their
    # table, never by log_mittag_leffler's closed form at large Lambda.
    return float(_log_ml_window(params, np.array([lam]))[0][0])


def reference_log_terms(spec, t: float):
    """(log-weight, log-normalizer) of the fractional and flight laws as
    each family computed them with its own function and Lambda = 0 branch."""
    lam = cumulative_rate(spec.rate, t)
    if isinstance(spec, FracPoissonSpec):
        if lam == 0.0:
            return (lambda n: np.where(np.asarray(n) == 0, 0.0, -np.inf)), 0.0
        log_lam = math.log(lam)

        def log_weight_frac(n):
            n = np.asarray(n, dtype=float)
            return n * log_lam - log_gamma_pos(spec.alpha * n + 1.0)

        return log_weight_frac, _window_log_ml(MLParams(spec.alpha, 1.0), lam)
    gamma_order = spec.d / 2.0 - 1.0
    if lam == 0.0:
        return (lambda n: np.where(np.asarray(n) == 0, -log_gamma_pos(gamma_order + 1.0),
                                   -np.inf)), -log_gamma_pos(gamma_order + 1.0)
    log_lam = math.log(lam)

    def log_weight_flight(n):
        n = np.asarray(n, dtype=float)
        return n * log_lam - log_gamma_pos((n + 1.0) * gamma_order + 1.0)

    return log_weight_flight, _window_log_ml(MLParams(gamma_order, gamma_order + 1.0), lam)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# At alpha = 0.2, Lambda = 50 the table starts near n = 1.56e9, more counts
# than the table loop of the test below can walk one at a time, so alpha = 0.2
# stops at Lambda = 5 there; test_alpha_02_lambda_50_table_matches_reference
# checks Lambda = 50 over the counts its table holds.
MERGED_LOG_WEIGHT_SPECS = [
    const_spec(alpha, lam)
    for alpha in (0.2, 0.5, 1.0)
    for lam in (0.0, 1e-3, 1.0, 5.0 if alpha == 0.2 else 50.0)
] + [
    FlightCountSpec(d, RateFunction.constant(lam))
    for d in range(3, 9)
    for lam in (0.0, 1e-3, 1.0, 50.0)
]


def _spec_id(spec):
    order = f"alpha={spec.alpha}" if isinstance(spec, FracPoissonSpec) else f"d={spec.d}"
    return f"{order}-lam={spec.rate.params[0]}"


@pytest.mark.parametrize("spec", MERGED_LOG_WEIGHT_SPECS, ids=_spec_id)
def test_merged_log_weight_matches_per_family_reference(spec):
    ref_weight, ref_norm = reference_log_terms(spec, 1.0)
    lam = cumulative_rate(spec.rate, 1.0)
    dist = CountDistribution(spec, 1.0)
    log_weight, log_norm = dist.log_weight, dist.log_normalizer
    # Only the fractional law at Lambda = 0 moved its normalizer: from 0.0
    # to -ln Gamma(1), the Lanczos value 8.9e-16, which its weight at n = 0
    # carries too, so the normalized log-weights still agree.
    if lam > 0.0 or isinstance(spec, FlightCountSpec):
        assert _bits([log_norm]) == _bits([ref_norm])
    n = np.arange(100_000)
    # 0 * ln(Lambda) may be -0.0 in the reference; array_equal takes it as 0.0.
    assert np.array_equal(log_weight(n) - log_norm, ref_weight(n) - ref_norm)
    for k in (0, 1, 2, 7, 100, 1000, 99_999):
        ref = min(1.0, float(np.exp(ref_weight(k) - ref_norm)))
        assert _bits([pmf(spec, 1.0, k)]) == _bits([ref])
    table = [dist.pmf(k) for k in range(dist.support_size)]
    assert _bits(table) == _bits(np.exp(ref_weight(np.arange(dist.support_size)) - ref_norm))


def test_alpha_02_lambda_50_table_matches_reference():
    spec = const_spec(0.2, 50.0)
    ref_weight, ref_norm = reference_log_terms(spec, 1.0)
    dist = CountDistribution(spec, 1.0)
    assert _bits([dist.log_normalizer]) == _bits([ref_norm])
    held = np.arange(dist.n_lo, dist.support_size)
    assert 1.5e9 < dist.n_lo and held.size < 2_000_000
    assert _bits([dist.pmf(k) for k in held[::1000].tolist()]) == _bits(
        np.exp(ref_weight(held[::1000]) - ref_norm))
    for k in (0, 1000, dist.n_lo - 1, dist.support_size + 5):
        assert _bits([dist.pmf(k)]) == _bits([min(1.0, float(np.exp(ref_weight(k) - ref_norm)))])
    assert dist.cdf(dist.n_lo - 1) == 0.0
    # The pmf sums to 1 + 2.4e-8 here (the normalizer's rounding); the table
    # is normalized by its own sum.
    assert dist.cdf(dist.support_size - 1) == 1.0
    draws = dist.sample_many(np.array([1e-9, 0.5, 1.0 - 1e-9]))
    assert np.all((dist.n_lo <= draws) & (draws < dist.support_size))


def test_alpha_02_lambda_10_table_is_its_window():
    # The table used to start at n = 0 and hold 510 976 counts.
    dist = CountDistribution(const_spec(0.2, 10.0), 1.0)
    assert dist.support_size - dist.n_lo < 30_000
    assert dist.n_lo > 480_000
    assert abs(dist.cdf(dist.support_size - 1) - 1.0) <= 1e-10


def test_flight_spec_validation():
    with pytest.raises(DomainError):
        FlightCountSpec(2, RateFunction.constant(1.0))


# ---------------------------------------------------------------------------
# Generating function


def test_pgf_endpoints():
    spec = const_spec(0.5, 1.0)
    assert pgf(spec, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert pgf(spec, 1.0, 0.0) == pytest.approx(pmf(spec, 1.0, 0), rel=1e-12)


def test_pgf_poisson_case():
    spec = const_spec(1.0, 2.0)
    assert pgf(spec, 1.0, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_pgf_monotone_and_convex():
    spec = const_spec(0.6, 2.0)
    u = np.linspace(0.0, 1.0, 41)
    g = np.array([pgf(spec, 1.0, v) for v in u])
    first = np.diff(g)
    second = np.diff(g, 2)
    assert np.all(first >= -1e-14)
    assert np.all(second >= -1e-14)


def test_pgf_validation():
    with pytest.raises(DomainError):
        pgf(const_spec(0.5, 1.0), 1.0, 1.5)
    with pytest.raises(DomainError, match="got -0.25"):
        pgf(const_spec(0.5, 1.0), 1.0, np.array([0.5, -0.25, 1.0]))
    with pytest.raises(DomainError):
        pgf(StateDependentSpec((0.5, 0.7), RateFunction.constant(1.0)), 1.0, 0.5)


@pytest.mark.parametrize("d,lam", [(3, 2.0), (4, 1.5), (7, 0.4), (5, 0.0)])
def test_flight_pgf_is_the_generating_function_of_its_count_law(d, lam):
    spec = FlightCountSpec(d, RateFunction.constant(lam))
    dist = count_distribution(spec, 1.2)
    n = np.arange(dist.support_size)
    probs = np.array([dist.pmf(k) for k in n.tolist()])
    for u in (0.0, 0.3, 0.75, 1.0):
        assert pgf(spec, 1.2, u) == pytest.approx(math.fsum(u**n * probs), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("alpha,lam", [(0.5, 1.0), (0.3, 4.0), (1.0, 2.0), (0.7, 0.0)])
def test_pgf_array_matches_point_calls(alpha, lam):
    spec = const_spec(alpha, lam)
    u = np.linspace(0.0, 1.0, 33).reshape(3, 11)
    got = pgf(spec, 1.1, u)
    assert got.shape == u.shape
    expected = [pgf(spec, 1.1, float(v)) for v in u.ravel()]
    assert all(type(v) is float for v in expected)
    assert got.ravel().view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# Sampling


def test_sample_count_inverse_cdf_definition():
    spec = const_spec(0.5, 1.0)
    p0 = pmf(spec, 1.0, 0)
    dist = count_distribution(spec, 1.0)
    assert dist.sample(p0 * 0.5) == 0
    assert dist.sample(p0 * 1.01) == 1


def test_sample_count_is_deterministic():
    spec = const_spec(0.7, 2.0)
    draws_a = [count_distribution(spec, 1.0).sample(u) for u in (0.1, 0.5, 0.9, 0.999)]
    draws_b = [CountDistribution(spec, 1.0).sample(u) for u in (0.1, 0.5, 0.9, 0.999)]
    assert draws_a == draws_b


def test_sample_count_rejects_bad_uniforms():
    dist = count_distribution(const_spec(0.5, 1.0), 1.0)
    assert dist.sample(0.0) == dist.n_lo
    with pytest.raises(DomainError):
        dist.sample(1.0)


def test_poisson_sample_mean():
    dist = count_distribution(const_spec(1.0, 2.0), 1.0)
    rng = np.random.default_rng(20240817)
    draws = dist.sample_many(rng.random(1_000_000))
    sigma = math.sqrt(2.0) / 1000.0
    assert abs(draws.mean() - 2.0) <= 3.0 * sigma


def test_fractional_sample_chi_square():
    spec = const_spec(0.5, 1.0)
    dist = count_distribution(spec, 1.0)
    rng = np.random.default_rng(7)
    draws = dist.sample_many(rng.random(1_000_000))
    states = np.arange(9)
    observed = np.array([(draws == k).sum() for k in states], dtype=float)
    observed = np.append(observed, (draws > 8).sum())
    expected = np.array([pmf(spec, 1.0, int(k)) for k in states]) * draws.size
    expected = np.append(expected, draws.size - expected.sum())
    stat, p = scipy.stats.chisquare(observed, expected)
    assert p > 0.001, (stat, p)


def test_count_distribution_huge_normalizer():
    # E_{0.3,1}(20) overflows double range; the log-domain path must not.
    dist = count_distribution(const_spec(0.3, 20.0), 1.0)
    assert abs(dist.cdf(dist.support_size - 1) - 1.0) <= 1e-10
    assert dist.sample(0.5) > 10000


def test_uniform_above_representable_table_gives_last_positive_count():
    # At alpha=0.5, Lambda=1 the table's CDF ends at 0.9999999999999997: a
    # uniform above it must not grow the table to its size cap, and both
    # sampling methods must give the same draw.
    dist = CountDistribution(const_spec(0.5, 1.0), 1.0)
    u = float(np.nextafter(1.0, 0.0))
    n = dist.sample(u)
    assert dist.support_size < 10_000
    assert dist.pmf(n) > 0.0
    assert n == dist.support_size - 1
    assert dist.sample_many(np.array([0.5, u])).tolist() == [dist.sample(0.5), n]


@pytest.mark.parametrize("spec", [
    const_spec(0.5, 1.0), const_spec(0.5, 10.0), const_spec(0.2, 5.0), const_spec(0.2, 10.0),
    StateDependentSpec((0.5, 0.8, 0.3), RateFunction.constant(4.0)),
    FlightCountSpec(7, RateFunction.constant(30.0)),
], ids=["a0.5-l1", "a0.5-l10", "a0.2-l5", "a0.2-l10", "state-dependent", "flight-d7"])
def test_table_ends_at_exactly_one(spec):
    dist = CountDistribution(spec, 1.0)
    assert dist.cdf(dist.support_size - 1) == 1.0
    assert dist.cdf(dist.support_size + 100) == 1.0
    top = float(np.nextafter(1.0, 0.0))
    assert dist.n_lo <= dist.sample(top) < dist.support_size
    # The pmf's running sum follows the table to the normalizer's rounding.
    held = np.arange(dist.n_lo, dist.support_size)
    running = np.cumsum(dist.pmf(held))
    assert np.max(np.abs(running - [dist.cdf(int(n)) for n in held])) < 4e-12


def test_zero_rate_all_mass_at_zero():
    dist = count_distribution(const_spec(0.5, 0.0), 1.0)
    assert dist.pmf(0) == 1.0
    assert dist.sample(0.999999) == 0


@given(
    alpha=st.floats(min_value=0.3, max_value=1.0),
    lam=st.floats(min_value=0.01, max_value=8.0),
)
@settings(deadline=None, max_examples=40)
def test_sampling_table_normalization_property(alpha, lam):
    dist = CountDistribution(const_spec(alpha, lam), 1.0)
    assert abs(dist.cdf(dist.support_size - 1) - 1.0) <= 1e-10


@pytest.mark.parametrize("alphas,lam,message", [
    # The tail needs the window of E_{0.2,1.4}(60), about 3e6 terms; the
    # normalizers E_{0.2,1}(60) and E_{0.5,1}(60) take the closed form.
    ((0.5, 0.2), 60.0, r"E_\{0.2,1.4\} at z=60.0 needs a window of 3.055e\+06 terms"),
    # Each window fits, but the head count n = 0 (log-weight -50) lies
    # within 60 nats of the tail's peak (-12.3 near n = 1.56e9), so the
    # table must run from 0, and that would not fit.
    ((1.0, 0.2), 50.0, r"state-dependent count table at z=50.0 needs a window of 1.563e\+09"),
], ids=["normalizer-window", "table"])
def test_window_past_the_cap_raises_before_allocating(alphas, lam, message):
    # Nothing of the refused size (24 MB, 12.5 GB) may be allocated; the
    # second case first sums E_{0.2,1.4}(50) over its 1.94e6-term window,
    # whose peak is bounded in test_log_ml_memory_and_value_at_alpha_02_z_50.
    import tracemalloc

    spec = StateDependentSpec(alphas, RateFunction.constant(lam))
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match=message):
            CountDistribution(spec, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1e6 if lam == 60.0 else 215e6)


def test_state_dependent_table_starts_at_its_window():
    # One order 0.1 for every state: the fractional law, whose mass sits in
    # a 72 128-count window near n = 1.5e6, 153 000 nats above n = 0.
    import tracemalloc

    rate = RateFunction.constant(3.3)
    tracemalloc.start()
    try:
        dist = CountDistribution(StateDependentSpec((0.1,), rate), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # 129 MB when the table ran from n = 0
    frac = CountDistribution(FracPoissonSpec(0.1, rate), 1.0)
    assert (dist.n_lo, dist.support_size) == (frac.n_lo, frac.support_size)
    assert dist.n_lo > 1_000_000
    held = np.arange(frac.n_lo - 2, frac.support_size + 2)
    np.testing.assert_allclose(dist.pmf(held), frac.pmf(held), rtol=1e-9)
    assert [dist.cdf(int(n)) for n in held] == [frac.cdf(int(n)) for n in held]
    us = np.random.default_rng(5).random(1000)
    assert np.array_equal(dist.sample_many(us), frac.sample_many(us))


@pytest.mark.parametrize("alphas,lam,from_zero", [
    ((0.3, 0.5, 0.9), 2.0, True),  # the peak is a head state
    ((1.0, 0.5), 60.0, True),  # n = 0 sits 54.3 nats under the peak near n = 7 200
    ((1.0, 0.5), 100.0, False),  # n = 0 sits 93.8 nats under it
    ((0.9, 0.7, 0.5), 100.0, False),
])
def test_state_dependent_table_holds_every_count_near_the_peak(alphas, lam, from_zero):
    spec = StateDependentSpec(alphas, RateFunction.constant(lam))
    dist = CountDistribution(spec, 1.0)
    n_lo, n_hi = dist.n_lo, dist.n_hi
    assert (n_lo == 0) == from_zero
    lw = dist.log_weight(np.arange(n_hi + 200))
    near = np.flatnonzero(lw >= lw.max() - 60.0)
    assert n_lo <= near[0] and near[-1] < n_hi
    assert n_lo < dist.support_size <= n_hi
