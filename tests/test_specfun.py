"""Special-function evaluators against frozen high-precision references.

The fixture ``tests/data/specfun_oracle.csv`` was generated once by
``scripts/make_specfun_oracle.py`` (mpmath, 50 significant digits) and
is committed; these tests never call mpmath themselves.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracmotion.specfun import (
    ConvergenceError,
    DomainError,
    MLParams,
    RangeOverflowError,
    WrightSeriesSpec,
    bessel_j,
    chi2_sf,
    gamma_pos,
    kolmogorov_sf,
    log_gamma_pos,
    log_mittag_leffler,
    mittag_leffler,
    positive_series,
    wright_series,
)
from fracmotion.specfun import _SERIES_BLOCK as BLOCK
from fracmotion.specfun import _LANCZOS_C, _LANCZOS_G, _LOG_SQRT_TWO_PI, _log_ml_window

ORACLE_PATH = Path(__file__).parent / "data" / "specfun_oracle.csv"

with open(ORACLE_PATH) as _fh:
    ORACLE_ROWS = list(csv.DictReader(_fh))

# Per-function relative tolerances. The Bessel ascending series loses
# digits to cancellation as x grows, hence the split at x = 10.
RELTOL = {
    "gamma": 1e-12,
    "log_gamma": 1e-12,
    "mittag_leffler": 1e-11,
    "log_mittag_leffler": 1e-12,
    # Past z^(1/alpha) = 40: alpha = 0.2 and the flight orders (gamma, gamma),
    # (gamma, gamma + 1), all taking the leading exponential.
    "log_mittag_leffler_far": 1e-15,
    "bessel_j_small": 1e-12,
    "bessel_j_large": 1e-10,
    "wright_projection": 1e-11,
}


def projection_wright_spec(alpha: float) -> WrightSeriesSpec:
    """Parameter rows of the Wright series entering the projected law."""
    return WrightSeriesSpec(
        upper=((1.0, 1.0), (1.0, 0.5)),
        lower=((0.5, 0.5), (1.0, alpha)),
    )


def _evaluate(row):
    fn = row["function"]
    x = float(row["x"])
    if fn == "gamma":
        return gamma_pos(x), RELTOL[fn]
    if fn == "log_gamma":
        return log_gamma_pos(x), RELTOL[fn]
    if fn == "mittag_leffler":
        return mittag_leffler(MLParams(float(row["p1"]), float(row["p2"])), x), RELTOL[fn]
    if fn in ("log_mittag_leffler", "log_mittag_leffler_far"):
        return log_mittag_leffler(MLParams(float(row["p1"]), float(row["p2"])), x), RELTOL[fn]
    if fn == "bessel_j":
        tol = RELTOL["bessel_j_small"] if x <= 10.0 else RELTOL["bessel_j_large"]
        return bessel_j(float(row["p1"]), x), tol
    if fn == "wright_projection":
        return wright_series(projection_wright_spec(float(row["p1"])), x), RELTOL[fn]
    raise AssertionError(f"unknown oracle row {fn}")


@pytest.mark.parametrize(
    "row",
    ORACLE_ROWS,
    ids=[f"{r['function']}[{r['p1']},{r['p2']}]({r['x']})" for r in ORACLE_ROWS],
)
def test_against_oracle(row):
    got, tol = _evaluate(row)
    want = float(row["value"])
    assert got == pytest.approx(want, rel=tol)


def test_oracle_has_enough_mittag_leffler_coverage():
    n_ml = sum(1 for r in ORACLE_ROWS if r["function"] == "mittag_leffler")
    assert n_ml >= 40


# ---------------------------------------------------------------------------
# Exact identities


def test_gamma_known_values():
    assert gamma_pos(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_pos(2.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma_pos(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma_pos(5.0) == pytest.approx(24.0, rel=1e-13)


def test_mittag_leffler_exponential_point():
    assert mittag_leffler(MLParams(1.0, 1.0), 1.0) == pytest.approx(math.e, rel=1e-12)
    # E_{1,2}(z) = (e^z - 1) / z
    assert mittag_leffler(MLParams(1.0, 2.0), 2.0) == pytest.approx(
        (math.e**2 - 1.0) / 2.0, rel=1e-12
    )


def test_mittag_leffler_at_zero_is_reciprocal_gamma():
    assert mittag_leffler(MLParams(0.6, 0.6), 0.0) == pytest.approx(
        1.0 / gamma_pos(0.6), rel=1e-13
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [720.0, 1e300, 1e308, math.inf])
def test_bessel_past_the_double_range_raises_without_a_numpy_warning(x):
    # The terms overflowed, with numpy's overflow and invalid-value warnings.
    with pytest.raises(ConvergenceError, match="leave the double range"):
        bessel_j(1.0, x, 1e-9)


def test_bessel_rejects_nan():
    with pytest.raises(DomainError, match="x >= 0"):
        bessel_j(1.0, math.nan)


def test_bessel_at_zero_and_at_a_zero_crossing():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(2.0, 0.0) == 0.0
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at x = pi; the series
    # result only carries round-off noise there.
    assert abs(bessel_j(0.5, math.pi)) < 1e-14


def test_wright_series_leading_term():
    # At z = 0 only the k = 0 term survives: Gamma(1)^2 / (Gamma(1/2) Gamma(1)).
    spec = projection_wright_spec(0.7)
    assert wright_series(spec, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)


# ---------------------------------------------------------------------------
# Error taxonomy


def test_domain_errors():
    with pytest.raises(DomainError):
        gamma_pos(0.0)
    with pytest.raises(DomainError):
        gamma_pos(-3.2)
    with pytest.raises(DomainError):
        log_gamma_pos(-1.0)
    with pytest.raises(DomainError):
        mittag_leffler(MLParams(0.5, 1.0), -0.1)
    with pytest.raises(DomainError):
        mittag_leffler(MLParams(-0.5, 1.0), 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(MLParams(0.5, 0.0), 1.0)
    with pytest.raises(DomainError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_j(1.0, -1.0)
    with pytest.raises(DomainError):
        # Zero weight on an upper row.
        wright_series(WrightSeriesSpec(upper=((1.0, 0.0),), lower=((1.0, 1.0),)), 1.0)
    with pytest.raises(DomainError):
        # k = 0 denominator argument sits exactly on a Gamma pole.
        wright_series(WrightSeriesSpec(upper=((1.0, 1.0),), lower=((0.0, 1.0),)), 1.0)
    with pytest.raises(DomainError):
        bessel_j(1.0, 1.0, rel_tol=0.0)
    with pytest.raises(DomainError):
        bessel_j(1.0, 1.0, rel_tol=1.0)


def test_overflow_is_reported_not_returned():
    with pytest.raises(RangeOverflowError):
        gamma_pos(172.0)
    with pytest.raises(RangeOverflowError):
        mittag_leffler(MLParams(0.3, 1.0), 20.0)
    # ... while the log-domain companion handles the same point.
    assert log_mittag_leffler(MLParams(0.3, 1.0), 20.0) > 700.0


def test_bessel_cancellation_guard():
    # At x = 40 the alternating series cannot reach 1e-12; the evaluator
    # must refuse rather than return digits it does not have.
    with pytest.raises(ConvergenceError):
        bessel_j(0.0, 40.0)
    # With an honest tolerance the same point evaluates fine.
    loose = bessel_j(0.0, 40.0, rel_tol=1e-3)
    assert abs(loose) < 1.0


# ---------------------------------------------------------------------------
# Structural properties


@given(x=st.floats(min_value=0.05, max_value=80.0))
def test_gamma_recurrence(x):
    assert gamma_pos(x + 1.0) == pytest.approx(x * gamma_pos(x), rel=5e-12)


@given(x=st.floats(min_value=0.05, max_value=169.0))
def test_log_gamma_consistent_with_gamma(x):
    assert log_gamma_pos(x) == pytest.approx(math.log(gamma_pos(x)), abs=1e-11, rel=1e-11)


def two_pass_log_gamma(x):
    """log_gamma_pos before its single pass: masks for both sides of 0.5,
    the Lanczos sum above, the reflection below, in that order."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
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
        out[small] = np.log(math.pi / np.sin(math.pi * xs)) - two_pass_log_gamma(1.0 - xs)
    return float(out[0]) if np.ndim(x) == 0 else out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


ORACLE_GAMMA_X = [float(r["x"]) for r in ORACLE_ROWS if r["function"] in ("gamma", "log_gamma")]
ABOVE_HALF = np.array([0.5, 0.5000000001, 1.0, 2.0, 171.6, 1e15, 1e300,
                       *(x for x in ORACLE_GAMMA_X if x >= 0.5), *np.linspace(0.5, 200.0, 1001)])
MIXED = np.array([1e-300, 1e-8, 0.1, 0.25, 0.4999999999, *ABOVE_HALF, *ORACLE_GAMMA_X])


@pytest.mark.parametrize("x", [
    ABOVE_HALF, ABOVE_HALF[:1], ABOVE_HALF[:1001].reshape(7, 143), MIXED, MIXED[::-1],
    np.array([]), np.array([np.nan]), np.array([np.nan, 2.0]), np.array([0.3, np.nan, 4.0]),
    np.array(2.5), np.array(0.2), np.array(np.nan),
    *ORACLE_GAMMA_X, 0.5, 1e300, math.nan,
], ids=lambda x: f"{type(x).__name__}{np.shape(x)}")
def test_log_gamma_single_pass_keeps_every_bit(x):
    got = log_gamma_pos(x)
    assert type(got) is (float if np.ndim(x) == 0 else np.ndarray)
    assert same_bits(got, two_pass_log_gamma(x))
    # Against the general path of the package itself: an argument below 0.5
    # appended to the same values routes them through the masks.
    forced = log_gamma_pos(np.append(np.ravel(x), 0.25))[:-1]
    assert same_bits(np.ravel(got), forced)


@given(z=st.floats(min_value=0.0, max_value=30.0))
def test_exponential_reduction(z):
    # alpha = beta = 1 collapses the Mittag-Leffler series to exp.
    assert mittag_leffler(MLParams(1.0, 1.0), z) == pytest.approx(math.exp(z), rel=1e-10)


@settings(deadline=None)
@given(
    alpha=st.floats(min_value=0.3, max_value=1.0),
    beta=st.floats(min_value=0.3, max_value=3.0),
    z1=st.floats(min_value=0.0, max_value=5.0),
    z2=st.floats(min_value=0.0, max_value=5.0),
)
def test_mittag_leffler_monotone_in_z(alpha, beta, z1, z2):
    lo, hi = sorted((z1, z2))
    p = MLParams(alpha, beta)
    assert mittag_leffler(p, lo) <= mittag_leffler(p, hi) * (1.0 + 1e-12)


@settings(deadline=None)
@given(
    alpha=st.floats(min_value=0.3, max_value=1.0),
    z=st.floats(min_value=0.0, max_value=5.0),
)
def test_log_evaluator_agrees_inside_double_range(alpha, z):
    p = MLParams(alpha, 1.0)
    assert log_mittag_leffler(p, z) == pytest.approx(
        math.log(mittag_leffler(p, z)), abs=1e-10
    )


@settings(deadline=None)
@given(
    alpha=st.floats(min_value=0.3, max_value=1.0),
    beta=st.floats(min_value=0.5, max_value=2.0),
    z=st.floats(min_value=0.0, max_value=5.0),
)
def test_wright_reduces_to_mittag_leffler(alpha, beta, z):
    # 1Psi1 with upper row (1,1) and lower row (beta, alpha) is exactly
    # E_{alpha,beta}: Gamma(1+k)/k! = 1.
    spec = WrightSeriesSpec(upper=((1.0, 1.0),), lower=((beta, alpha),))
    assert wright_series(spec, z) == pytest.approx(
        mittag_leffler(MLParams(alpha, beta), z), rel=1e-10
    )


@given(
    nu=st.floats(min_value=1.0, max_value=5.0),
    x=st.floats(min_value=0.5, max_value=10.0),
)
def test_bessel_three_term_recurrence(nu, x):
    lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
    rhs = 2.0 * nu / x * bessel_j(nu, x)
    scale = abs(bessel_j(nu - 1.0, x)) + abs(bessel_j(nu + 1.0, x)) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-11 * max(scale, 1e-3)


# ---------------------------------------------------------------------------
# The positive-series kernel


def reference_stop(values, rel_tol, first_stop=0):
    """Number of kept terms under the kernel's rule, by a plain scalar
    loop; None when the sequence never stops."""
    partial = 0.0
    prev = math.inf
    for k, term in enumerate(values):
        partial += term
        if k >= first_stop and term <= prev and term <= rel_tol * partial and partial > 0.0:
            return k + 1
        prev = term
    return None


def series_of(values):
    arr = np.asarray(values, dtype=float)
    return lambda k: arr[k]


@settings(deadline=None, max_examples=200)
@given(
    digits=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                              st.integers(min_value=0, max_value=18)),
                    min_size=3 * BLOCK, max_size=3 * BLOCK),
    rel_tol=st.sampled_from([1e-2, 1e-6, 1e-12]),
    first_stop=st.integers(min_value=0, max_value=2 * BLOCK),
)
def test_kernel_matches_scalar_loop(digits, rel_tol, first_stop):
    values = [m * 10.0 ** -e for m, e in digits]
    n_kept = reference_stop(values, rel_tol, first_stop)
    if n_kept is None:
        with pytest.raises(ConvergenceError) as exc:
            positive_series(series_of(values), rel_tol, len(values), "test", first_stop)
        assert exc.value.terms_used == len(values)
        assert exc.value.partial_sum == math.fsum(values)
        return
    kept = positive_series(series_of(values), rel_tol, len(values), "test", first_stop)
    assert kept.size == n_kept
    assert math.fsum(kept) == math.fsum(values[:n_kept])


@settings(deadline=None)
@given(
    stop=st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1]),
    leading=st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=3 * BLOCK,
                     max_size=3 * BLOCK),
    garbage=st.sampled_from([-1.0, math.nan, math.inf, 1e308]),
)
def test_kernel_stops_at_block_edges_and_ignores_the_overshoot(stop, leading, garbage):
    # Terms in [1, 2] never satisfy the rule at rel_tol 1e-3 over fewer
    # than 500 terms; a zero at ``stop`` does. Everything past it is
    # invalid and must neither be kept nor validated.
    values = leading[:stop] + [0.0] + [garbage] * (3 * BLOCK - stop - 1)
    assert reference_stop(values, 1e-3) == stop + 1
    kept = positive_series(series_of(values), 1e-3, len(values), "test")
    assert kept.tolist() == values[: stop + 1]
    assert math.fsum(kept) == math.fsum(leading[:stop])


def test_kernel_does_not_stop_on_leading_zeros():
    # Underflowed terms on the rising side of a series are not convergence.
    values = [0.0] * (BLOCK + 5) + [1.0, 2.0, 1.0, 1e-9] + [0.0] * BLOCK
    kept = positive_series(series_of(values), 1e-6, len(values), "test", first_stop=5)
    assert kept.size == reference_stop(values, 1e-6, 5) == BLOCK + 9
    assert math.fsum(kept) == 4.0 + 1e-9


def test_kernel_term_cap_raises_with_partial_sum():
    with pytest.raises(ConvergenceError, match="flat series did not converge in 150 terms") as exc:
        positive_series(lambda k: np.ones(k.size), 1e-12, 150, "flat series")
    assert exc.value.terms_used == 150
    assert exc.value.partial_sum == 150.0


@pytest.mark.parametrize("bad,error", [(-1.0, DomainError), (math.nan, DomainError),
                                       (1e308, RangeOverflowError),
                                       (math.inf, RangeOverflowError)])
@pytest.mark.parametrize("at", [0, BLOCK - 1, BLOCK, BLOCK + 3])
def test_kernel_validates_kept_terms(bad, error, at):
    values = [1.0] * (3 * BLOCK)
    values[at] = bad
    with pytest.raises(error, match=f"k={at}|term {at}"):
        positive_series(series_of(values), 1e-12, len(values), "test")


# ---------------------------------------------------------------------------
# Array-valued log_mittag_leffler against the one-point implementation


def reference_log_ml(params, z, tail_nats=60.0):
    """The one-point log_mittag_leffler as it was before it took arrays,
    frozen here as the bit-for-bit reference. Returns (value, doublings of
    the window)."""
    alpha, beta = params
    if z == 0.0:
        return -log_gamma_pos(beta), 0
    lnz = math.log(z)

    def log_term(n):
        return n * lnz - log_gamma_pos(alpha * n + beta)

    n_peak = max(0.0, (z ** (1.0 / alpha) - beta) / alpha)
    lt_peak = log_term(n_peak)
    n_hi = max(16.0, 2.0 * n_peak + 16.0)
    doublings = 0
    while log_term(n_hi) > lt_peak - tail_nats:
        n_hi *= 2.0
        doublings += 1
    n = np.arange(int(n_hi) + 2, dtype=float)
    lt = n * lnz - log_gamma_pos(alpha * n + beta)
    m = lt.max()
    return float(m + math.log(math.fsum(np.exp(lt - m)))), doublings


ML_ORDERS = [(a, b) for a in (0.2, 0.5, 0.75, 1.0) for b in (a, 1.0)]
ML_ZS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-12, 0.01, 0.3, 1.0,
         1.7, 2.5, 4.0, 5.0, 7.5]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("alpha,beta", ML_ORDERS)
def test_log_ml_array_is_bit_identical_to_one_point_reference(alpha, beta):
    # The window sum, which log_mittag_leffler takes below z^(1/alpha) = 40.
    # At alpha = 0.2 the window grows like z^5: z = 7.5 already needs 250 000 terms.
    zs = ML_ZS + ([12.0, 20.0, 60.0, 150.0] if alpha >= 0.5 else [])
    expected = [reference_log_ml((alpha, beta), z) for z in zs]
    assert any(d > 0 for _, d in expected)  # some windows double
    got = _log_ml_window(MLParams(alpha, beta), np.array(zs))[0]
    assert bits(got) == bits([v for v, _ in expected])
    for z, (value, _) in zip(zs, expected):
        one = _log_ml_window(MLParams(alpha, beta), np.array([z]))[0]
        assert bits(one) == bits([value])
    public = log_mittag_leffler(MLParams(alpha, beta), np.array(zs))
    near = np.array(zs) ** (1.0 / alpha) < 40.0
    assert near.sum() >= 10
    assert bits(public[near]) == bits(got[near])
    for z, value in zip(zs, public.tolist()):
        one = log_mittag_leffler(MLParams(alpha, beta), z)
        assert type(one) is float and bits([one]) == bits([value])


@pytest.fixture(scope="module")
def many_points():
    # 3 000 points of 18-60 terms each span several default chunks too.
    zs = np.random.default_rng(3).random(3000) * 4.0
    zs[::7] = 0.0
    return zs, bits([reference_log_ml((0.5, 1.0), z)[0] for z in zs.tolist()])


@pytest.mark.parametrize("chunk", [1, 17, 40, 1 << 15])
def test_log_ml_chunking_does_not_change_bits(chunk, many_points, monkeypatch):
    from fracmotion import specfun

    zs, expected = many_points
    monkeypatch.setattr(specfun, "_ML_CHUNK", chunk)
    assert bits(log_mittag_leffler(MLParams(0.5, 1.0), zs)) == expected


def test_log_ml_keeps_the_input_shape():
    zs = np.array([[0.0, 2.0, 1e-310], [3.0, 0.0, 0.5]])
    got = log_mittag_leffler(MLParams(0.75, 0.75), zs)
    assert got.shape == zs.shape
    assert bits(got.ravel()) == bits([reference_log_ml((0.75, 0.75), z)[0]
                                      for z in zs.ravel().tolist()])
    assert log_mittag_leffler(MLParams(0.5, 1.0), np.empty(0)).shape == (0,)


# ---------------------------------------------------------------------------
# The leading exponential past z^(1/alpha) = 40


def _log1mexp(x: float) -> float:
    """ln(1 - e^-x) for x > 0."""
    return math.log1p(-math.exp(-x))


# (alpha, beta, ln E_{alpha,beta}(z)) in closed form.
CLOSED_FORMS = [
    (1.0, 1.0, lambda z: z),
    (1.0, 2.0, lambda z: z + _log1mexp(z) - math.log(z)),
    (0.5, 1.0, lambda z: z * z + math.log(math.erfc(-z))),
]


@pytest.mark.parametrize("alpha,beta,exact", CLOSED_FORMS, ids=["E11", "E12", "E_half1"])
def test_leading_exponential_matches_closed_forms(alpha, beta, exact):
    zs = [40.0 ** alpha, 41.5 ** alpha, 50.0 ** alpha, 60.0 ** alpha, 200.0 ** alpha,
          1e4 ** alpha]
    got = log_mittag_leffler(MLParams(alpha, beta), np.array(zs))
    window = _log_ml_window(MLParams(alpha, beta), np.array(zs))[0]
    for z, g, w in zip(zs, got.tolist(), window.tolist()):
        want = exact(z)
        assert abs(g - want) <= 2.2e-16 * abs(want)
        assert abs(g - want) <= abs(w - want)


ML_FAR_ORDERS = [(a, b) for a in (0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 1.9)
                 for b in (a, 1.0, a + 1.0)]


@pytest.mark.parametrize("alpha,beta", ML_FAR_ORDERS)
def test_leading_exponential_agrees_with_window_across_the_threshold(alpha, beta):
    roots = np.array([39.0, 39.99, 40.0, 40.01, 41.0, 60.0, 200.0])
    zs = roots ** alpha
    got = log_mittag_leffler(MLParams(alpha, beta), zs)
    window = _log_ml_window(MLParams(alpha, beta), zs)[0]
    assert np.allclose(got, window, rtol=2e-15, atol=0.0)
    # Below the threshold the window itself is returned.
    assert bits(got[:2]) == bits(window[:2])


@pytest.mark.parametrize("alpha,beta", [(1.0, 10.0), (0.5, 5.0), (2.0, 1.0), (4.0, 4.0),
                                        (4.0, 5.0), (6.0, 7.0)])
def test_orders_outside_the_expansion_keep_the_window(alpha, beta):
    # beta > alpha + 1 lets the algebraic part reach 1e-10 at z^(1/alpha) = 40
    # (E_{1,10}); from alpha = 2 on further exponentials reach the positive axis.
    zs = np.array([45.0, 100.0]) ** alpha
    got = log_mittag_leffler(MLParams(alpha, beta), zs)
    assert bits(got) == bits(_log_ml_window(MLParams(alpha, beta), zs)[0])


def test_e_1_10_keeps_its_algebraic_part():
    # E_{1,10}(z) = (e^z - sum_{k<9} z^k/k!) / z^9: the leading exponential
    # alone would be 1.3e-10 off at z = 40.
    z = 40.0
    poly = math.fsum(z**k / math.factorial(k) for k in range(9))
    exact = z + math.log1p(-poly * math.exp(-z)) - 9.0 * math.log(z)
    assert log_mittag_leffler(MLParams(1.0, 10.0), z) == pytest.approx(exact, rel=4e-16)


def test_leading_exponential_up_to_the_double_range():
    # ln E_{1,1}(z) = z at every finite z, far past any window the cap allows.
    assert log_mittag_leffler(MLParams(1.0, 1.0), 1e308) == 1e308
    for alpha, z in [(0.5, 1e200), (0.2, 1e70), (1.0, math.inf)]:
        with pytest.raises(RangeOverflowError, match="exceeds double range"):
            log_mittag_leffler(MLParams(alpha, 1.0), np.array([1.0, z]))


def test_log_ml_rejects_any_negative_element():
    with pytest.raises(DomainError, match="-0.5"):
        log_mittag_leffler(MLParams(0.5, 1.0), np.array([1.0, 0.0, -0.5, 2.0]))


def test_log_ml_memory_on_the_wide_alpha_02_windows():
    # The alpha = 0.2, const:5 planar grid summed by the window (the count
    # table's route): z = 5 w with w in [0.95, 1] needs windows of about
    # 78 000 terms per point.
    import tracemalloc

    z = 5.0 * np.sqrt(1.0 - np.linspace(0.0, 0.3, 20) ** 2)
    tracemalloc.start()
    try:
        _log_ml_window(MLParams(0.2, 0.2), z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_log_ml_memory_and_value_at_alpha_02_z_50():
    # The window sum of the count table at alpha = 0.2, const:50:
    # n* = 50^5 / 0.2 ~ 1.6e9: the window about the peak holds 1.94e6 terms
    # where the walk from k = 0 needed 3.1e9.  They are formed _ML_CHUNK at a
    # time into one array of 15.5 MB.  Measured peak: 17 859 160 bytes
    # (143 316 249 when the whole row was formed at once).
    import tracemalloc

    tracemalloc.start()
    try:
        value = float(_log_ml_window(MLParams(0.2, 1.0), np.array([50.0]))[0][0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    # E_{a,1}(z) ~ exp(z^(1/a)) / a at large z; log-terms near 6e9 nats
    # leave about 1e-6 of rounding in the log.
    assert abs(value - (50.0**5 + math.log(5.0))) < 1e-5


@pytest.mark.parametrize("z", [10.0, 50.0])
def test_window_stays_near_its_60_nat_width(z):
    _, lo, hi = _log_ml_window(MLParams(0.2, 1.0), np.array([z]))
    n_star = z**5 / 0.2
    # Curvature -alpha/n: 60 nats either side is sqrt(2 * 60 * n / alpha).
    assert hi[0] - lo[0] == pytest.approx(2.0 * math.sqrt(120.0 * n_star / 0.2), rel=0.01)
    assert lo[0] < n_star < hi[0]


# ---------------------------------------------------------------------------
# Goodness-of-fit tails against scipy, the oracle they replace.


def test_chi2_sf_matches_scipy():
    from scipy import stats

    worst = 0.0
    for dof in range(1, 101):
        x = np.geomspace(0.01 * dof, 10.0 * dof, 60)
        ref = stats.chi2.sf(x, dof)
        got = np.array([chi2_sf(v, dof) for v in x])
        worst = max(worst, float(np.max(np.abs(got - ref) / ref)))
    assert worst <= 1e-12


def test_chi2_sf_edges_and_domain():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(-1.0, 3) == 1.0
    assert chi2_sf(math.inf, 3) == 0.0
    # dof = 2: Q(1, x/2) = exp(-x/2), through the continued fraction.
    assert chi2_sf(40.0, 2) == pytest.approx(math.exp(-20.0), rel=1e-13)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            chi2_sf(1.0, bad)
    with pytest.raises(DomainError):
        chi2_sf(math.nan, 3)


def _ks_grid(n, lo, hi):
    """d on a grid of n*d^2 over [lo, hi)."""
    return np.sqrt(np.linspace(lo, hi, 40, endpoint=False) / n)


@pytest.mark.parametrize("n", [100_000, 100_001, 400_000])
def test_kolmogorov_sf_matches_scipy_where_scipy_takes_pelz_good(n):
    from scipy import stats

    d = _ks_grid(n, 0.05, 2.2)
    if n <= 100_000:  # scipy takes the Durbin matrix method there
        d = d[n * d**1.5 > 1.4]
    assert d.size >= 20
    for v in d:
        ref = float(stats.kstwo.sf(v, n))
        assert kolmogorov_sf(n, v) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [100_000, 250_000])
def test_kolmogorov_sf_tracks_twice_smirnov_where_scipy_takes_it(n):
    from scipy import special

    # Measured worst: 1.9e-6 at n*d^2 = 2.2. Past n*d^2 ~ 12 (p ~ 1e-10)
    # 1 - P{D_n <= d} keeps only absolute accuracy.
    for v in np.sqrt(np.array([2.2, 3.0, 5.0, 8.0, 12.0]) / n):
        ref = 2.0 * special.smirnov(n, v)
        assert kolmogorov_sf(n, v) == pytest.approx(ref, rel=1e-5, abs=0.0)


def test_kolmogorov_sf_matches_durbin_near_one():
    from scipy import stats

    n = 100_000
    for v in np.linspace(0.02, 1.0, 8) * (1.4 / n) ** (2.0 / 3.0):  # n*d^1.5 <= 1.4
        assert abs(kolmogorov_sf(n, v) - float(stats.kstwo.sf(v, n))) <= 1e-9


def test_kolmogorov_sf_edges_and_domain():
    assert kolmogorov_sf(100_000, 0.0) == 1.0
    assert kolmogorov_sf(100_000, 1.0) == 0.0
    assert kolmogorov_sf(100_000, 1e-6) == 1.0  # q underflows: P{D_n <= d} = 0
    for bad in (0, -3, 2.5):
        with pytest.raises(DomainError):
            kolmogorov_sf(bad, 0.01)
    with pytest.raises(DomainError):
        kolmogorov_sf(100_000, math.nan)
