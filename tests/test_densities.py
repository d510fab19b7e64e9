"""Closed-form density evaluators: conditional, planar, projected, flight."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from fracmotion.counting import (
    FlightCountSpec,
    FracPoissonSpec,
    RateFunction,
    StateDependentSpec,
    count_distribution,
    pgf,
)
from fracmotion.densities import (
    classical_line_density,
    classical_planar_density,
    conditional_density,
    flight_exponent,
    flight_marginal,
    flight_mixture_density,
    flight_unconditional,
    line_density,
    mixture_density,
    planar_density_const_rate,
    planar_law,
    projection_wright_spec,
)
from fracmotion.specfun import (
    ConvergenceError,
    DomainError,
    MLParams,
    mittag_leffler,
    wright_series,
)

E1 = math.e  # E_{1,1}(1)


def const_spec(alpha: float, lam: float) -> FracPoissonSpec:
    return FracPoissonSpec(alpha, RateFunction.constant(lam))


def bits(values) -> list:
    """The IEEE-754 bit patterns of ``values``, for bit-for-bit comparisons."""
    return np.asarray(values, dtype=float).ravel().view(np.int64).tolist()


def polar_mass(radial_density, c: float, t: float, n_nodes: int = 256) -> float:
    """2π ∫ r f(r) dr over the open disk via the r = ct·sin φ substitution
    (kills the inverse-square-root edge singularity of every law here)."""
    x, wts = leggauss(n_nodes)
    phi = 0.25 * math.pi * (x + 1.0)
    wq = 0.25 * math.pi * wts
    r = c * t * np.sin(phi)
    vals = np.array([radial_density(float(v)) for v in r])
    return float(np.sum(wq * 2.0 * math.pi * r * vals * c * t * np.cos(phi)))


def line_mass(density, c: float, t: float, n_nodes: int = 256) -> float:
    """∫ over (−ct, ct) via x = ct·sin ψ (same edge-singularity treatment)."""
    xg, wts = leggauss(n_nodes)
    psi = 0.5 * math.pi * xg
    wq = 0.5 * math.pi * wts
    x = c * t * np.sin(psi)
    vals = np.array([density(float(v)) for v in x])
    return float(np.sum(wq * vals * c * t * np.cos(psi)))


# ---------------------------------------------------------------------------
# Conditional density given n changes


def test_conditional_two_changes_at_origin():
    # n=2: f_2(0) = 2·(c²t²)^0 / (2π(ct)²) = 1/π at c=t=1.
    assert conditional_density(2, 1.0, 1.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_conditional_rejects_zero_changes():
    with pytest.raises(DomainError):
        conditional_density(0, 1.0, 1.0, 0.5)


def test_conditional_rejects_radius_outside_disk():
    with pytest.raises(DomainError):
        conditional_density(3, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        conditional_density(3, 1.0, 1.0, 1.7)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_conditional_integrates_to_one(n):
    mass = polar_mass(lambda r: conditional_density(n, 2.0, 0.5, r), 2.0, 0.5)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_conditional_one_change_diverges_at_boundary():
    # n=1 has an integrable (c²t²−r²)^{−1/2} edge; still finite inside.
    near = conditional_density(1, 1.0, 1.0, 1.0 - 1e-12)
    assert near > 1e4


# ---------------------------------------------------------------------------
# Unconditional planar law (closed form vs term-by-term mixture)


def test_planar_classical_origin_value():
    # α=1, λ=c=t=1 at the origin: (1/2π)e^{−1+1} = 1/(2π).
    law = planar_law(const_spec(1.0, 1.0), 1.0, 1.0)
    assert law.ac_density(0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)


def test_planar_singular_weight_is_reciprocal_normalizer():
    law = planar_law(const_spec(0.5, 1.0), 1.0, 1.0)
    expected = 1.0 / mittag_leffler(MLParams(0.5, 1.0), 1.0)
    assert law.singular_weight == pytest.approx(expected, rel=1e-13)
    law1 = planar_law(const_spec(1.0, 1.0), 1.0, 1.0)
    assert law1.singular_weight == pytest.approx(1.0 / E1, rel=1e-14)


def test_classical_planar_density_scalar_array_and_outside():
    r = np.linspace(0.0, 1.5, 13)  # ct = 1.2 falls between grid points
    got = classical_planar_density(2.0, 1.5, 0.8, r, 0.0)
    inside = r < 1.2
    assert np.all(np.isnan(got[~inside]))
    expected = [classical_planar_density(2.0, 1.5, 0.8, float(v), 0.0) for v in r[inside]]
    assert all(type(v) is float for v in expected)
    assert bits(got[inside]) == bits(expected)
    assert math.isnan(classical_planar_density(2.0, 1.5, 0.8, 0.9, -0.9))


def test_planar_matches_classical_at_alpha_one():
    law = planar_law(const_spec(1.0, 2.0), 1.5, 0.8)
    for r in np.linspace(0.0, 1.19, 20):
        expected = classical_planar_density(2.0, 1.5, 0.8, float(r), 0.0)
        assert law.ac_density(float(r), 0.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_planar_closed_form_equals_mixture(alpha, lam):
    spec = const_spec(alpha, lam)
    law = planar_law(spec, 1.0, 1.0)
    for r in np.linspace(0.0, 0.995, 25):
        mix = mixture_density(spec, 1.0, 1.0, float(r))
        assert law.ac_density(float(r), 0.0) == pytest.approx(mix, rel=1e-12)


def scalar_mixture(spec, c, t, r, rel_tol=1e-14, max_terms=500):
    """The per-term loop that ``mixture_density`` summed before the
    shared series kernel: same terms, same stop rule."""
    dist = count_distribution(spec, t)
    terms, partial, prev = [], 0.0, math.inf
    for n in range(1, max_terms + 1):
        term = conditional_density(n, c, t, r) * dist.pmf(n)
        terms.append(term)
        partial += term
        if term <= prev and term <= rel_tol * partial:
            return math.fsum(terms)
        prev = term
    raise AssertionError("reference mixture did not settle")


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_mixture_density_is_bit_identical_to_scalar_loop(alpha):
    # The verify suite's law-agreement configurations.
    spec = const_spec(alpha, 1.0)
    for r in np.linspace(0.0, 0.995, 40):
        assert mixture_density(spec, 1.0, 1.0, float(r)) == scalar_mixture(spec, 1.0, 1.0, float(r))


def test_underflowed_leading_terms_do_not_end_a_series():
    # At alpha = 0.2, Lambda = 5 the count law peaks near n = 15 000, so
    # the leading terms of both series underflow to zero. The line series
    # must sum on to the peak (value from a 50-digit mpmath sum over
    # 11 500 <= k < 20 000); the 500-term planar mixture cannot reach it and
    # must say so.
    spec = const_spec(0.2, 5.0)
    assert line_density(spec, 1.0, 1.0, 0.0) == pytest.approx(49.86658804613258, rel=1e-13)
    with pytest.raises(ConvergenceError):
        mixture_density(spec, 1.0, 1.0, 0.3)


@pytest.mark.parametrize("lam", [0.0, 5e-324])
def test_mixture_density_is_zero_where_every_term_is_zero(lam):
    # No switch at Lambda = 0; at the smallest subnormal Lambda the n = 1
    # term underflows and the pmf of every n >= 2 is 0.
    assert mixture_density(const_spec(0.5, lam), 1.0, 1.0, 0.3) == 0.0


def test_mixture_density_keeps_a_subnormal_value():
    assert mixture_density(const_spec(0.5, 1e-310), 1.0, 1.0, 0.3) == 1.8825845699433e-311


@pytest.mark.parametrize("method", ["series", "wright"])
def test_line_density_below_double_range_is_zero(method):
    # At alpha = 0.2, Lambda = 5 the density at |x| >= 0.35 is below the double
    # range. The per-point sums this replaced raised there (every term had
    # underflowed), and the Wright form overflowed at x = 0 because it summed
    # before normalizing.
    x = np.linspace(-0.99, 0.99, 21)
    got = line_density(const_spec(0.2, 5.0), 1.0, 1.0, x, method=method)
    assert np.all(got[np.abs(x) >= 0.35] == 0.0)
    assert np.all(got[np.abs(x) < 0.35] > 0.0)
    assert got[10] == pytest.approx(49.86658804613258, rel=1e-13)


@pytest.mark.parametrize("alpha,lam", [(0.5, 1.0), (1.0, 2.0), (0.7, 0.5)])
def test_planar_total_mass_is_one(alpha, lam):
    law = planar_law(const_spec(alpha, lam), 1.0, 1.0)
    ac = polar_mass(lambda r: law.ac_density(r, 0.0), 1.0, 1.0)
    assert ac + law.singular_weight == pytest.approx(1.0, abs=1e-10)


def test_planar_zero_outside_support_and_radially_symmetric():
    law = planar_law(const_spec(0.6, 1.0), 1.0, 1.0)
    assert law.ac_density(1.0, 0.0) == 0.0
    assert law.ac_density(2.0, 3.0) == 0.0
    for r, theta in [(0.3, 0.7), (0.8, 2.1), (0.99, 4.0)]:
        on_axis = law.ac_density(r, 0.0)
        rotated = law.ac_density(r * math.cos(theta), r * math.sin(theta))
        assert rotated == pytest.approx(on_axis, rel=1e-13)


def test_planar_zero_rate_is_pure_atom():
    law = planar_law(const_spec(0.5, 0.0), 1.0, 1.0)
    assert law.singular_weight == 1.0
    assert law.ac_density(0.3, 0.1) == 0.0


def test_planar_law_with_inhomogeneous_rate():
    # Only Λ(t) matters: power rate with Λ(1) = 1 must reproduce const:1.
    spec_pow = FracPoissonSpec(0.5, RateFunction.power(2.0, 1.0))  # Λ(t)=t²
    spec_const = const_spec(0.5, 1.0)
    law_pow = planar_law(spec_pow, 1.0, 1.0)
    law_const = planar_law(spec_const, 1.0, 1.0)
    for r in (0.0, 0.4, 0.9):
        assert law_pow.ac_density(r, 0.0) == pytest.approx(
            law_const.ac_density(r, 0.0), rel=1e-13
        )


# ---------------------------------------------------------------------------
# The separate constant-rate expression


def test_const_rate_form_matches_classical_at_alpha_one():
    for r in np.linspace(0.0, 0.95, 20):
        got = planar_density_const_rate(1.0, 1.0, 1.0, 1.0, float(r), 0.0)
        expected = classical_planar_density(1.0, 1.0, 1.0, float(r), 0.0)
        assert got == pytest.approx(expected, rel=1e-12)


def test_const_rate_form_origin_alpha_half():
    # w = ct at the origin: λ E_{α,1}(λt) / (2πc·ct·E_{α,1}(λt)) = 1/(2π·ct·c)·λ...
    # with λ=c=t=1 everything cancels to 1/(2π).
    got = planar_density_const_rate(0.5, 1.0, 1.0, 1.0, 0.0, 0.0)
    assert got == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-13)


def test_const_rate_form_differs_from_mixture_below_alpha_one():
    # A genuinely different function for α<1 — the difference is structural,
    # not a numerical artifact, and must stay visibly large.
    spec = const_spec(0.5, 1.0)
    r = 0.3
    mix = mixture_density(spec, 1.0, 1.0, r)
    single = planar_density_const_rate(0.5, 1.0, 1.0, 1.0, r, 0.0)
    assert abs(single - mix) / mix > 0.1


def test_const_rate_form_domain_errors():
    with pytest.raises(DomainError):
        planar_density_const_rate(0.5, 1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        planar_density_const_rate(1.5, 1.0, 1.0, 1.0, 0.1, 0.0)


# ---------------------------------------------------------------------------
# Line projection


def test_line_zero_rate_is_arcsine_density():
    spec = const_spec(0.5, 0.0)
    for x in (-0.7, 0.0, 0.5):
        expected = 1.0 / (math.pi * math.sqrt(1.0 - x * x))
        assert line_density(spec, 1.0, 1.0, x) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("alpha,lam", [(0.5, 1.0), (0.7, 2.0), (1.0, 1.0)])
def test_line_series_and_wright_paths_agree(alpha, lam):
    spec = const_spec(alpha, lam)
    for x in np.linspace(-0.95, 0.95, 15):
        series = line_density(spec, 1.0, 1.0, float(x), method="series")
        wright = line_density(spec, 1.0, 1.0, float(x), method="wright")
        assert wright == pytest.approx(series, rel=1e-10)


def test_line_alpha_one_matches_classical_series():
    spec = const_spec(1.0, 1.5)
    for x in np.linspace(-0.9, 0.9, 12):
        got = line_density(spec, 1.0, 1.0, float(x))
        expected = classical_line_density(1.5, 1.0, 1.0, float(x))
        assert got == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("alpha,lam", [(0.5, 1.0), (1.0, 2.0)])
def test_line_density_integrates_to_one(alpha, lam):
    spec = const_spec(alpha, lam)
    density = lambda x: line_density(spec, 1.0, 1.0, x)  # noqa: E731
    assert line_mass(density, 1.0, 1.0) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("method", ["series", "wright"])
@pytest.mark.parametrize("alpha,lam", [(0.5, 1.0), (0.7, 2.0), (1.0, 1.5), (0.6, 0.0)])
def test_line_density_array_matches_point_calls(alpha, lam, method):
    spec = FracPoissonSpec(alpha, RateFunction.power(lam, 0.5))
    x = np.linspace(-1.25, 1.25, 24).reshape(4, 6)
    got = line_density(spec, 1.3, 0.97, x, method=method)
    assert got.shape == x.shape
    expected = [line_density(spec, 1.3, 0.97, float(v), method=method) for v in x.ravel()]
    assert all(type(v) is float for v in expected)
    assert bits(got) == bits(expected)
    assert line_density(spec, 1.3, 0.97, np.empty(0), method=method).shape == (0,)


@pytest.mark.parametrize("lam", [0.0, 1.0, 3.5])
def test_classical_line_density_array_matches_point_calls(lam):
    x = np.linspace(-1.1, 1.1, 25)
    got = classical_line_density(lam, 0.8, 1.4, x)
    expected = [classical_line_density(lam, 0.8, 1.4, float(v)) for v in x]
    assert all(type(v) is float for v in expected)
    assert bits(got) == bits(expected)


def test_line_projection_consistent_with_planar_law():
    # Marginalizing the planar law over y (plus the projected atom) must
    # reproduce the projection series.
    spec = const_spec(0.7, 1.0)
    law = planar_law(spec, 1.0, 1.0)
    xg, wts = leggauss(200)
    for x in (0.0, 0.3, 0.8):
        b = math.sqrt(1.0 - x * x)
        psi = 0.5 * math.pi * xg
        wq = 0.5 * math.pi * wts
        y = b * np.sin(psi)
        vals = np.array([law.ac_density(x, float(v)) for v in y])
        ac_part = float(np.sum(wq * vals * b * np.cos(psi)))
        atom_part = law.singular_weight / (math.pi * b)
        expected = line_density(spec, 1.0, 1.0, x)
        assert ac_part + atom_part == pytest.approx(expected, rel=1e-6)


def test_line_wright_spec_rows():
    spec = projection_wright_spec(0.7)
    assert spec.upper == ((1.0, 1.0), (1.0, 0.5))
    assert spec.lower == ((0.5, 0.5), (1.0, 0.7))
    # k=0 term of the compact form is 1/Γ(1/2) = 1/√π.
    assert wright_series(spec, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)


def test_line_domain_errors():
    spec = const_spec(0.5, 1.0)
    with pytest.raises(DomainError):
        line_density(spec, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        line_density(spec, 1.0, 1.0, -1.2)
    with pytest.raises(DomainError):
        line_density(spec, 1.0, 1.0, 0.5, method="quadrature")
    with pytest.raises(DomainError, match="quadrature"):
        line_density(const_spec(0.5, 0.0), 1.0, 1.0, 0.2, method="quadrature")
    with pytest.raises(DomainError, match="got 1.0"):
        line_density(spec, 1.0, 1.0, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(DomainError, match="got -1.5"):
        classical_line_density(1.0, 1.0, 1.0, np.array([[0.2, -1.5]]))


FLIGHT_SPEC = FlightCountSpec(4, RateFunction.constant(1.0))
STATE_SPEC = StateDependentSpec((0.5, 0.7), RateFunction.constant(1.0))


@pytest.mark.parametrize("spec", [FLIGHT_SPEC, STATE_SPEC], ids=["flight", "state-dependent"])
def test_planar_and_line_densities_need_a_fractional_spec(spec):
    hint = "flight_unconditional" if spec is FLIGHT_SPEC else "FracPoissonSpec"
    with pytest.raises(DomainError, match=hint):
        planar_law(spec, 1.0, 1.0)
    with pytest.raises(DomainError, match=hint):
        line_density(spec, 1.0, 1.0, 0.3)


# ---------------------------------------------------------------------------
# Random-flight marginals and their mixture


def test_flight_exponents():
    assert flight_exponent(4, 0, "Y") == pytest.approx(1.0)
    assert flight_exponent(4, 1, "Y") == pytest.approx(2.0)
    assert flight_exponent(3, 0, "X") == pytest.approx(0.5)
    assert flight_exponent(5, 2, "X") == pytest.approx(5.5)
    with pytest.raises(DomainError):
        flight_exponent(2, 0, "Y")
    with pytest.raises(DomainError):
        flight_exponent(4, 0, "Z")


def test_flight_marginal_d4_examples():
    # d=4, n=0 (a=1): uniform on the disk, 1/(π c²t²).
    assert flight_marginal(4, 0, 1.0, 1.0, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)
    # d=4, n=1 (a=2) at the origin: 2(c²t²)/(π(ct)⁴) = 2/π at ct=1.
    assert flight_marginal(4, 1, 1.0, 1.0, 0.0) == pytest.approx(2.0 / math.pi, rel=1e-14)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("variant", ["Y", "X"])
def test_flight_marginal_integrates_to_one(d, n, variant):
    mass = polar_mass(lambda r: flight_marginal(d, n, 1.0, 2.0, r, variant), 1.0, 2.0)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_flight_unconditional_d4_closed_form():
    # d=4 (γ=1): E_{1,1}(x)=e^x and E_{1,2}(Λ)=(e^Λ−1)/Λ give
    # (Λ/(π c²t²)) e^{ΛQ} / (e^Λ − 1), Q = (c²t²−r²)/(ct)².
    spec = FlightCountSpec(4, RateFunction.constant(1.0))
    for r in np.linspace(0.0, 0.99, 30):
        q = 1.0 - r * r
        expected = math.exp(q) / (math.pi * (math.e - 1.0))
        assert flight_unconditional(spec, 1.0, 1.0, float(r)) == pytest.approx(
            expected, rel=1e-13
        )
    # Origin value e/(π(e−1)).
    assert flight_unconditional(spec, 1.0, 1.0, 0.0) == pytest.approx(
        math.e / (math.pi * (math.e - 1.0)), rel=1e-14
    )


@pytest.mark.parametrize("d", [3, 4, 5])
def test_flight_unconditional_equals_mixture(d):
    spec = FlightCountSpec(d, RateFunction.constant(1.0))
    for r in np.linspace(0.0, 0.99, 15):
        mix = flight_mixture_density(spec, 1.0, 1.0, float(r))
        assert flight_unconditional(spec, 1.0, 1.0, float(r)) == pytest.approx(
            mix, rel=1e-12
        )


def test_flight_d4_closed_form_at_large_rate():
    # Lambda = 100: E_{1,1}(Lambda Q) takes the leading exponential wherever
    # Lambda Q >= 40, and E_{1,2}(Lambda) does too.
    lam = 100.0
    spec = FlightCountSpec(4, RateFunction.constant(lam))
    r = np.linspace(0.0, 0.99, 25)
    q = 1.0 - r * r
    expected = np.exp(math.log(lam / math.pi) + lam * q - lam - math.log1p(-math.exp(-lam)))
    assert np.allclose(flight_unconditional(spec, 1.0, 1.0, r), expected, rtol=1e-13, atol=0.0)


def test_flight_d10_at_large_rate_keeps_the_window(monkeypatch):
    # gamma = 4: further exponentials reach the positive axis, so every
    # Mittag-Leffler value of the law is a window sum, even at
    # Lambda^(1/4) = 45.
    from fracmotion import specfun

    windowed = []
    window = specfun._log_ml_window

    def counted(params, zs):
        windowed.append(zs.size)
        return window(params, zs)

    monkeypatch.setattr(specfun, "_log_ml_window", counted)
    spec = FlightCountSpec(10, RateFunction.constant(45.0**4))
    r = np.linspace(0.0, 0.99, 12)
    got = flight_unconditional(spec, 1.0, 1.0, r)
    assert sum(windowed) == r.size + 1
    monkeypatch.setattr(specfun, "_log_ml_window", window)
    for ri, value in zip(r.tolist(), got.tolist()):
        assert value == pytest.approx(flight_mixture_density(spec, 1.0, 1.0, ri), rel=1e-12)


def test_flight_unconditional_total_mass():
    spec = FlightCountSpec(5, RateFunction.constant(2.0))
    mass = polar_mass(lambda r: flight_unconditional(spec, 1.0, 1.0, r), 1.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_flight_zero_rate_reduces_to_single_marginal():
    spec = FlightCountSpec(4, RateFunction.constant(0.0))
    for r in (0.0, 0.5, 0.9):
        assert flight_unconditional(spec, 1.0, 1.0, r) == pytest.approx(
            flight_marginal(4, 0, 1.0, 1.0, r), rel=1e-14
        )


def test_flight_domain_errors():
    spec = FlightCountSpec(4, RateFunction.constant(1.0))
    with pytest.raises(DomainError):
        flight_unconditional(spec, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        flight_marginal(4, 0, 1.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# Property checks


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.3, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=5.0),
    r=st.floats(min_value=0.0, max_value=0.999),
)
def test_planar_density_nonnegative_inside_disk(alpha, lam, r):
    law = planar_law(const_spec(alpha, lam), 1.0, 1.0)
    assert law.ac_density(r, 0.0) >= 0.0
    assert 0.0 <= law.singular_weight <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.4, max_value=1.0),
    lam=st.floats(min_value=0.1, max_value=3.0),
    x=st.floats(min_value=-0.99, max_value=0.99),
)
def test_line_density_positive_and_symmetric(alpha, lam, x):
    spec = const_spec(alpha, lam)
    val = line_density(spec, 1.0, 1.0, x)
    assert val > 0.0
    assert line_density(spec, 1.0, 1.0, -x) == pytest.approx(val, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=3, max_value=8),
    n=st.integers(min_value=0, max_value=20),
    r=st.floats(min_value=0.0, max_value=0.999),
)
def test_flight_marginal_nonnegative(d, n, r):
    assert flight_marginal(d, n, 1.0, 1.0, r, "Y") >= 0.0
    assert flight_marginal(d, n, 1.0, 1.0, r, "X") >= 0.0


# ---------------------------------------------------------------------------
# Array-valued evaluators equal their one-point calls bit for bit


def same_bits(array_values, point_values):
    return (np.asarray(array_values, dtype=float).view(np.int64).tolist()
            == np.asarray(point_values, dtype=float).view(np.int64).tolist())


@pytest.mark.parametrize("alpha,rate", [(0.5, RateFunction.constant(1.0)),
                                        (0.2, RateFunction.constant(5.0)),
                                        (1.0, RateFunction.power(2.0, 0.5)),
                                        (0.7, RateFunction.constant(0.0))])
def test_planar_ac_density_array_matches_point_calls(alpha, rate):
    law = planar_law(FracPoissonSpec(alpha, rate), 1.3, 0.9)
    # Points inside and outside the disk (radius 1.17), with a 2-D shape.
    x = np.linspace(-1.4, 1.4, 24).reshape(4, 6)
    y = 0.3
    got = law.ac_density(x, y)
    assert got.shape == x.shape
    expected = [law.ac_density(float(v), y) for v in x.ravel()]
    assert all(type(v) is float for v in expected)
    assert same_bits(got.ravel(), expected)
    assert np.all(got[np.hypot(x, y) >= 1.17] == 0.0)
    assert law.ac_density(np.empty(0), 0.0).shape == (0,)


@pytest.mark.parametrize("alpha,lam", [(0.5, 1.0), (0.8, 3.0), (1.0, 0.0)])
def test_planar_const_rate_array_matches_point_calls(alpha, lam):
    r = np.linspace(0.0, 1.15, 30)
    got = planar_density_const_rate(alpha, lam, 1.3, 0.9, r, 0.2)
    expected = [planar_density_const_rate(alpha, lam, 1.3, 0.9, float(v), 0.2) for v in r]
    assert same_bits(got, expected)


def test_planar_const_rate_rejects_any_point_outside_the_disk():
    r = np.array([0.1, 0.5, 1.0, 0.2])
    with pytest.raises(DomainError, match=r"\(1.0, 0.0\)"):
        planar_density_const_rate(0.5, 1.0, 1.0, 1.0, r, 0.0)


@pytest.mark.parametrize("d,lam", [(3, 2.0), (4, 1.0), (6, 0.5), (5, 0.0)])
def test_flight_unconditional_array_matches_point_calls(d, lam):
    spec = FlightCountSpec(d, RateFunction.constant(lam))
    r = np.linspace(0.0, 0.999, 25)
    got = flight_unconditional(spec, 1.0, 1.0, r)
    expected = [flight_unconditional(spec, 1.0, 1.0, float(v)) for v in r]
    assert same_bits(got, expected)
    with pytest.raises(DomainError, match="got 1.0"):
        flight_unconditional(spec, 1.0, 1.0, np.array([0.5, 1.0]))


# The evaluators that take a raw rate λ rather than a RateFunction.
RAW_RATE_LAWS = {
    "planar-const": lambda lam: planar_density_const_rate(0.5, lam, 1.0, 1.0, 0.5, 0.0),
    "classical-planar": lambda lam: classical_planar_density(lam, 1.0, 1.0, 0.5, 0.0),
    "classical-line": lambda lam: classical_line_density(lam, 1.0, 1.0, 0.5),
}


@pytest.mark.parametrize("law", list(RAW_RATE_LAWS.values()), ids=list(RAW_RATE_LAWS))
@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
def test_raw_rate_evaluators_reject_a_rate_that_is_not_finite_and_nonnegative(law, lam):
    with pytest.raises(DomainError, match="rate must be finite and >= 0"):
        law(lam)


# ---------------------------------------------------------------------------
# The bits of the Mittag-Leffler ratio laws where Λ^{1/α} < 40, as the
# per-point evaluation of the scalar formulas gave them: any change to the
# order of their log-domain sums shows here as a changed last digit.

C, P, W = RateFunction.constant, RateFunction.power, RateFunction.piecewise

# (α, rate, c, t, singular weight, ((r, ac_density(r, 0)), ...))
PLANAR_PINS = [
    (0.5, C(1.0), 1.0, 1.0, "0.19964144074771742",
     ((0.0, "0.3541629179845952"), (0.3, "0.32533783309007275"), (0.9, "0.194630675304825"))),
    (0.2, C(2.0), 1.0, 1.0, "2.532833109818846e-15",
     ((0.0, "25.464790894703317"), (0.5, "1.233359154388542e-06"))),
    (0.8, P(2.0, 0.5), 1.5, 1.2, "0.1073344848317075",
     ((0.1, "0.12473510336586943"), (1.0, "0.09499813870001843"))),
    (1.0, C(3.0), 1.0, 1.0, "0.049787068367863944", ((0.25, "0.44831552055088"),)),
    (0.35, W((0.5, 3.0), (2.0, 1.0)), 2.0, 2.0, "3.8975847246572077e-07",
     ((1.5, "0.025321443526337067"), (3.9, "1.8993379876627012e-07"))),
]

# (α, λ, c, t, x, y, planar_density_const_rate)
CONST_RATE_PINS = [
    (0.5, 1.0, 1.0, 1.0, 0.0, 0.0, "0.15915494309189535"),
    (0.5, 1.0, 1.0, 1.0, 0.6, 0.3, "0.12666677898229023"),
    (0.2, 2.5, 1.0, 1.0, 0.1, 0.0, "0.035448036139661215"),
    (0.9, 4.0, 2.0, 0.75, 1.2, -0.4, "0.07254539322083381"),
    (1.0, 3.0, 1.0, 1.0, 0.0, 0.5, "0.3688565255637349"),
    (0.35, 0.7, 1.3, 2.0, 2.5, 0.0, "0.005225776133435705"),
]

# (d, rate, c, t, ((r, flight_unconditional), ...))
FLIGHT_PINS = [
    (3, C(2.0), 1.0, 1.0, ((0.0, "1.2883627623718037"), (0.5, "0.4742991965509526"),
                           (0.99, "0.04032210084578246"))),
    (4, C(1.0), 1.0, 1.0, ((0.3, "0.4602181142512129"),)),
    (7, P(3.0, 0.5), 1.0, 1.3, ((0.2, "0.48612554406756114"), (1.2, "0.024744129711744868"))),
    (10, C(5.0), 2.0, 1.0, ((1.0, "0.1341405500314505"),)),
]

# (spec, t, ((u, pgf), ...))
PGF_PINS = [
    (const_spec(0.5, 1.0), 1.0, ((0.0, "0.19964144074771759"), (0.3, "0.29022859133061873"),
                                 (0.75, "0.599557517739304"))),
    (const_spec(0.2, 2.0), 1.0, ((0.5, "2.9945811311682324e-14"), (0.99, "0.20839532478660983"))),
    (FracPoissonSpec(0.8, P(2.0, 0.5)), 1.2, ((0.4, "0.24171846219083284"),)),
    (FlightCountSpec(3, C(2.0)), 1.0, ((0.6, "0.10905433636703339"),)),
    (FlightCountSpec(6, C(4.0)), 1.5, ((0.1, "0.6522094203529873"), (0.9, "0.9552189131748012"))),
]


@pytest.mark.parametrize("alpha,rate,c,t,weight,points", PLANAR_PINS)
def test_planar_law_keeps_its_pinned_bits(alpha, rate, c, t, weight, points):
    law = planar_law(FracPoissonSpec(alpha, rate), c, t)
    assert repr(law.singular_weight) == weight
    assert [repr(law.ac_density(r, 0.0)) for r, _ in points] == [v for _, v in points]


@pytest.mark.parametrize("alpha,lam,c,t,x,y,value", CONST_RATE_PINS)
def test_planar_density_const_rate_keeps_its_pinned_bits(alpha, lam, c, t, x, y, value):
    assert repr(planar_density_const_rate(alpha, lam, c, t, x, y)) == value


@pytest.mark.parametrize("d,rate,c,t,points", FLIGHT_PINS)
def test_flight_unconditional_keeps_its_pinned_bits(d, rate, c, t, points):
    spec = FlightCountSpec(d, rate)
    assert [repr(flight_unconditional(spec, c, t, r)) for r, _ in points] == [v for _, v in points]


@pytest.mark.parametrize("spec,t,points", PGF_PINS)
def test_pgf_keeps_its_pinned_bits(spec, t, points):
    assert [repr(pgf(spec, t, u)) for u, _ in points] == [v for _, v in points]


# ---------------------------------------------------------------------------
# One rule for c, t and ct


def every_law(c, t):
    """A call of each law at (c, t), at a point that lies in the support of
    every law wherever c·t is at least 0.1."""
    spec, flight = const_spec(0.5, 1.0), FlightCountSpec(4, RateFunction.constant(1.0))
    return {
        "conditional": lambda: conditional_density(2, c, t, 0.0),
        "planar": lambda: planar_law(spec, c, t),
        "mixture": lambda: mixture_density(spec, c, t, 0.0),
        "planar-const": lambda: planar_density_const_rate(0.5, 1.0, c, t, 0.0, 0.0),
        "classical-planar": lambda: classical_planar_density(1.0, c, t, 0.0, 0.0),
        "line": lambda: line_density(spec, c, t, 0.0),
        "classical-line": lambda: classical_line_density(1.0, c, t, 0.0),
        "flight-marginal": lambda: flight_marginal(4, 1, c, t, 0.0),
        "flight": lambda: flight_unconditional(flight, c, t, 0.0),
        "flight-mixture": lambda: flight_mixture_density(flight, c, t, 0.0),
    }


def every_sampler(c, t):
    from fracmotion.motion import MotionConfig, conditioned_chunks, flight_radii_batch

    return {
        "motion-config": lambda: MotionConfig(c, t, const_spec(0.5, 1.0)),
        "conditioned-chunks": lambda: conditioned_chunks(2, c, t, 3, 0),
        "flight-radii": lambda: flight_radii_batch(4, 1, c, t, "Y", 3, 0),
    }


def message(call) -> str:
    with pytest.raises(DomainError) as excinfo:
        call()
    return str(excinfo.value)


@pytest.mark.parametrize("c,t,expected", [
    (math.nan, 1.0, "speed c must be finite and positive, got nan"),
    (-1.0, 1.0, "speed c must be finite and positive, got -1.0"),
    (math.inf, 1.0, "speed c must be finite and positive, got inf"),
    (1.0, 0.0, "horizon t must be finite and positive, got 0.0"),
    (1.0, math.inf, "horizon t must be finite and positive, got inf"),
    (1e200, 1e200, "support radius c*t must be finite and positive, got inf"),
    (1e-200, 1e-200, "support radius c*t must be finite and positive, got 0.0"),
])
def test_samplers_laws_and_checks_share_one_speed_horizon_rule(c, t, expected):
    from fracmotion.verify import run_check

    calls = {**every_sampler(c, t), **every_law(c, t),
             "run-check": lambda: run_check("law", 0.5, 1.0, c, t, 10, 0)}
    assert {name: message(call) for name, call in calls.items()} == {
        name: expected for name in calls}


@pytest.mark.parametrize("c,t", [(1e308, 1.0), (1e-160, 1.0), (1e-160, 1e-160), (1.0, 1e-320)])
def test_laws_alone_refuse_a_ct_whose_square_is_not_a_normal_double(c, t):
    # The samplers take such a ct: their endpoints stay within it.
    for call in every_sampler(c, t).values():
        call()
    expected = f"(c*t)^2 must be a positive normal double, got c*t={c * t}"
    assert {name: message(call) for name, call in every_law(c, t).items()} == {
        name: expected for name in every_law(c, t)}


@pytest.mark.parametrize("law,call,where", [
    ("conditional", lambda: conditional_density(1, 1.0, 1.0, 1.0), "[0, ct)"),
    ("flight", lambda: flight_unconditional(FlightCountSpec(4, RateFunction.constant(1.0)),
                                           1.0, 1.0, np.array([0.2, -0.5])), "[0, ct)"),
    ("line", lambda: line_density(const_spec(0.5, 1.0), 1.0, 1.0, [[0.0, -1.0]]), "(−ct, ct)"),
    ("planar-const",
     lambda: planar_density_const_rate(0.5, 1.0, 1.0, 1.0, 0.3, np.array([0.2, 1.0])),
     "open disk"),
])
def test_a_point_off_the_support_is_named_by_one_helper(law, call, where):
    got = {"conditional": "1.0", "flight": "-0.5", "line": "-1.0",
           "planar-const": "(0.3, 1.0)"}[law]
    text = message(call)
    assert where in text and text.endswith(f", ct=1.0, got {got}")
