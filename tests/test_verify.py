"""Verification harness: Caputo scheme, PDE residuals, GOF power, reports."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from fracmotion.counting import FracPoissonSpec, RateFunction
from fracmotion.densities import classical_planar_density, planar_law
from fracmotion.motion import (
    EndpointArrays,
    MotionConfig,
    conditioned_chunks,
    endpoint_arrays,
    endpoint_blocks,
)
from fracmotion.specfun import DomainError, MLParams, mittag_leffler
from fracmotion.verify import (
    CheckResult,
    VerificationReport,
    caputo_l1,
    disk_mass,
    eigenfunction_residual,
    empirical_cf,
    law_agreement,
    mc_gof,
    pgf_ode_residual,
    run_check,
    telegraph_residual,
)


def const_spec(alpha: float, lam: float) -> FracPoissonSpec:
    return FracPoissonSpec(alpha, RateFunction.constant(lam))


@pytest.fixture(scope="module")
def classical_batch():
    cfg = MotionConfig(c=1.0, t=1.0, count_spec=const_spec(1.0, 1.0))
    return endpoint_arrays(cfg, 100_000, seed=314)


# ---------------------------------------------------------------------------
# The L1 scheme on the grid of step h over [0, 1]


def nodes(h: float) -> np.ndarray:
    return h * np.arange(round(1.0 / h) + 1)


def test_grid_uniform_constructor():
    # A step h spans [0, 1] with 1/h + 1 nodes, and the checks report it.
    deriv = caputo_l1(nodes(0.25), 0.25, 1.0)
    assert deriv.shape == (5,)
    assert np.allclose(deriv[1:], 1.0, rtol=0.0, atol=1e-15)
    assert pgf_ode_residual(const_spec(0.5, 1.0), 1.0, h=0.25).details["h"] == 0.25
    assert eigenfunction_residual(0.5, 1.0, 1.0, h=0.25).details["h"] == 0.25


def test_grid_validation():
    # h must be positive with 1/h an integer >= 2.
    for h in (0.0, -0.5, 1.0, 0.3, 2.0, math.inf, math.nan, 1e-320):
        with pytest.raises(DomainError):
            caputo_l1(np.zeros(5), h, 0.5)
        with pytest.raises(DomainError):
            eigenfunction_residual(0.5, 1.0, 1.0, h=h)
        with pytest.raises(DomainError):
            pgf_ode_residual(const_spec(0.5, 1.0), 1.0, h=h)


def test_caputo_of_constant_vanishes():
    h = 1.0 / 64.0
    deriv = caputo_l1(np.full(65, 4.2), h, 0.5)
    assert float(np.max(np.abs(deriv))) == 0.0


def test_caputo_of_identity_alpha_half():
    # d^{1/2} w = 2√(w/π); L1 error bound 10·h^{3/2} on [0,1].
    h = 1.0 / 512.0
    w = nodes(h)
    deriv = caputo_l1(w, h, 0.5)
    exact = 2.0 * np.sqrt(w / math.pi)
    err = float(np.max(np.abs(deriv - exact)))
    assert err <= 10.0 * h ** 1.5


@pytest.mark.parametrize("alpha,mu", [(0.5, 1.0), (0.8, 2.0)])
def test_caputo_eigenprofile_residual(alpha, mu):
    # E_{α,1}(μ w^α) is the μ-eigenfunction of d^α (away from the w=0
    # boundary layer of the scheme).
    h = 1.0 / 512.0
    w = nodes(h)
    f = np.array([mittag_leffler(MLParams(alpha, 1.0), mu * v**alpha) for v in w])
    deriv = caputo_l1(f, h, alpha)
    cut = w >= w[-1] / 16.0
    resid = float(np.max(np.abs(deriv[cut] - mu * f[cut])))
    assert resid <= 50.0 * h ** (2.0 - alpha)


def test_caputo_alpha_one_is_backward_difference():
    h = 1.0 / 128.0
    f = np.sin(nodes(h))
    deriv = caputo_l1(f, h, 1.0)
    manual = np.diff(f) / h
    assert np.allclose(deriv[1:], manual, rtol=0.0, atol=1e-13)


def test_caputo_validation():
    with pytest.raises(DomainError):
        caputo_l1(np.zeros(5), 0.25, 1.2)
    with pytest.raises(DomainError):
        caputo_l1(np.zeros(5), 0.25, 0.0)
    with pytest.raises(DomainError):
        caputo_l1(np.zeros(3), 0.25, 0.5)


# ---------------------------------------------------------------------------
# Eigenfunction identity of the planar density profile


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_eigenfunction_residual_passes(alpha):
    check = eigenfunction_residual(alpha, 1.0, 1.0)
    assert check.passed
    assert check.statistic <= 50.0 * (1.0 / 512.0) ** (2.0 - alpha)


def test_eigenfunction_classical_limit():
    check = eigenfunction_residual(1.0, 1.0, 1.0)
    assert check.passed
    assert check.statistic <= 10.0 / 512.0


def test_eigenfunction_zero_rate_residual_is_exactly_zero():
    check = eigenfunction_residual(0.5, 0.0, 1.0)
    assert check.passed
    assert check.statistic == 0.0


def test_eigenfunction_wrong_eigenvalue_fails():
    check = eigenfunction_residual(0.5, 1.0, 1.0, eigenvalue_factor=2.0)
    assert not check.passed
    assert "negative-control" in check.name


def test_eigenfunction_refinement_order():
    # Halving h must shrink the residual by at least 2^{1.5-α}.
    alpha = 0.5
    coarse = eigenfunction_residual(alpha, 1.0, 1.0, h=1.0 / 256.0)
    fine = eigenfunction_residual(alpha, 1.0, 1.0, h=1.0 / 512.0)
    assert coarse.statistic / fine.statistic >= 2.0 ** (1.5 - alpha)


# ---------------------------------------------------------------------------
# Generating-function fractional ODE


def test_pgf_ode_residual_passes():
    check = pgf_ode_residual(const_spec(0.5, 1.0), 1.0)
    assert check.passed
    # Residual also meets the coarser 20·h bound quoted for the identity.
    assert check.statistic <= 20.0 / 512.0


def test_pgf_ode_classical_limit():
    check = pgf_ode_residual(const_spec(1.0, 1.0), 1.0)
    assert check.passed
    assert check.statistic <= 10.0 / 512.0


def test_pgf_ode_zero_rate_residual_zero():
    check = pgf_ode_residual(const_spec(0.5, 0.0), 1.0)
    assert check.statistic == 0.0


def test_pgf_ode_perturbed_order_fails():
    check = pgf_ode_residual(const_spec(0.5, 1.0), 1.0, derivative_alpha=0.75)
    assert not check.passed


def test_pgf_ode_refinement_order():
    alpha = 0.8
    spec = const_spec(alpha, 1.0)
    coarse = pgf_ode_residual(spec, 1.0, h=1.0 / 256.0)
    fine = pgf_ode_residual(spec, 1.0, h=1.0 / 512.0)
    assert coarse.statistic / fine.statistic >= 2.0 ** (1.5 - alpha)


# ---------------------------------------------------------------------------
# Telegraph PDE residual


def test_telegraph_residual_passes():
    check = telegraph_residual(1.0, 1.0)
    assert check.passed
    assert check.tolerance == pytest.approx(100.0 / 256.0**2)
    assert check.details["interior_points"] > 100_000


def test_telegraph_zero_rate_marked_not_applicable():
    check = telegraph_residual(0.0, 1.0)
    assert check.passed
    assert check.details["status"] == "not-applicable"


def test_telegraph_non_solution_fails():
    squared = lambda x, y, t: classical_planar_density(1.0, 1.0, t, x, y) ** 2  # noqa: E731
    check = telegraph_residual(1.0, 1.0, density=squared)
    assert not check.passed
    assert "negative-control" in check.name


@pytest.mark.parametrize("lam,c", [(1.0, 1.0), (2.5, 0.7)])
def test_classical_density_on_the_telegraph_grid_keeps_its_bits(lam, c):
    # The array expression the telegraph check evaluated before it moved
    # into densities; the stencil magnifies a one-ulp change by 1/h^2.
    def old_grid(t, x, y):
        w2 = (c * t) ** 2 - x * x - y * y
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.sqrt(np.where(w2 > 0.0, w2, np.nan))
            return lam / (2.0 * math.pi * c) * np.exp(-lam * t + lam * w / c) / w

    h = 1.0 / 256.0
    axis = h * np.arange(-int(2.0 * c / h), int(2.0 * c / h) + 1)
    x, y = axis[::3, None], axis[None, :]
    for t in (2.0 - h, 2.0, 2.0 + h):
        got = classical_planar_density(lam, c, t, x, y)
        want = old_grid(t, x, y)
        assert np.isnan(want).any()
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_telegraph_refinement_order():
    coarse = telegraph_residual(1.0, 1.0, h=1.0 / 128.0)
    fine = telegraph_residual(1.0, 1.0, h=1.0 / 256.0)
    assert coarse.statistic / fine.statistic >= math.sqrt(2.0)


def test_telegraph_rejects_thin_margin():
    with pytest.raises(DomainError):
        telegraph_residual(1.0, 1.0, cone_margin=1.0 / 256.0)


@pytest.mark.parametrize("negative", [False, True])
def test_telegraph_bands_do_not_change_the_result(negative, monkeypatch):
    from fracmotion import verify

    squared = lambda x, y, t: classical_planar_density(1.0, 1.0, t, x, y) ** 2  # noqa: E731
    density = squared if negative else None
    results = []
    # One row per band, uneven bands, and the whole 257 x 257 grid at once.
    for band in (1, 1000, 257 * 257):
        monkeypatch.setattr(verify, "_TELEGRAPH_BAND", band)
        check = telegraph_residual(1.0, 1.0, h=1.0 / 64.0, density=density)
        results.append((check.statistic, check.details))
    assert results[0] == results[1] == results[2]


def full_square_telegraph(lam, c, t, h, density=None, cone_margin=None):
    """telegraph_residual's entry from the density and the stencil at every
    point of the square at once."""
    name = "telegraph-pde" if density is None else "telegraph-pde-negative-control"
    if density is None:
        density = lambda xx, yy, tt: classical_planar_density(lam, c, tt, xx, yy)  # noqa: E731
    if cone_margin is None:
        cone_margin = max(5.0 * h * max(1.0, c), 0.05 * c * t)
    n_side = int(math.floor(c * t / h))
    axis = h * np.arange(-n_side, n_side + 1)
    x, y = axis[:, None], axis[None, :]
    p_lo, p_mid, p_hi = (density(x, y, tt) for tt in (t - h, t, t + h))
    lap = np.full_like(p_mid, np.nan)
    lap[1:-1, 1:-1] = (
        p_mid[2:, 1:-1] + p_mid[:-2, 1:-1] + p_mid[1:-1, 2:] + p_mid[1:-1, :-2]
        - 4.0 * p_mid[1:-1, 1:-1]
    ) / (h * h)
    resid = ((p_hi - 2.0 * p_mid + p_lo) / (h * h) + 2.0 * lam * ((p_hi - p_lo) / (2.0 * h))
             - c * c * lap)
    mask = np.sqrt(x * x + y * y) <= c * (t - h) - cone_margin
    assert not np.isnan(resid[mask]).any()
    statistic = float(np.max(np.abs(resid[mask])) / np.max(np.abs(c * c * lap[mask])))
    interior = int(np.count_nonzero(mask))
    return {
        "check": name,
        "statistic": statistic,
        "tolerance": 100.0 * h * h,
        "pass": statistic <= 100.0 * h * h,
        "details": {"lambda": lam, "c": c, "t": t, "h": h, "interior_points": interior,
                    "excluded_points": mask.size - interior, "cone_margin": cone_margin},
    }


@pytest.mark.parametrize("lam,c,t,h,margin", [
    (3.0, 0.7, 1.3, 1.0 / 128.0, None),
    (3.0, 1.5, 1.3, 1.0 / 128.0, None),
    (3.0, 0.7, 1.3, 1.0 / 64.0, None),
    (3.0, 0.7, 1.3, 1.0 / 128.0, 5.0 / 128.0),
    # The disk's edge on the grid point y = 0.59 of the middle row, where
    # floor(radius / h) rounds to 58: that column is a guard column's.
    (1.0, 1.0, 1.0, 1.0 / 100.0, 0.4),
])
def test_telegraph_disk_columns_give_the_full_square_entry(lam, c, t, h, margin):
    # Each band evaluates only the columns that can hold a disk point; the
    # entry is the one of the whole square, bit for bit.
    got = telegraph_residual(lam, c, t, h, cone_margin=margin).to_dict()
    assert got == full_square_telegraph(lam, c, t, h, cone_margin=margin)


def test_telegraph_negative_control_gives_the_full_square_entry():
    squared = lambda x, y, t: classical_planar_density(1.0, 1.0, t, x, y) ** 2  # noqa: E731
    got = telegraph_residual(1.0, 1.0, density=squared).to_dict()
    assert got == full_square_telegraph(1.0, 1.0, 2.0, 1.0 / 256.0, density=squared)
    assert not got["pass"]


def test_telegraph_default_check_memory():
    import tracemalloc

    tracemalloc.start()
    try:
        check = telegraph_residual(1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.statistic == 4.982455980943118e-4
    assert peak < 16e6


def test_telegraph_bands_keep_the_default_check_small():
    import tracemalloc

    tracemalloc.start()
    try:
        telegraph_residual(1.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


@pytest.mark.parametrize("c", [8.0 + 2.0**-40, 20.0, 1e5, 1e200, 1e308])
def test_telegraph_grid_past_the_cap_is_refused_before_it_is_laid_out(c, monkeypatch):
    # c = 20 took 16.5 s, c = 1e5 would lay out a 5e7-step axis, c = 1e200
    # overflowed numpy's array size and c = 1e308 could not be an integer.
    from fracmotion import verify

    monkeypatch.setattr(verify.np, "arange", None)
    with pytest.raises(DomainError, match="exceeds the cap of 4096"):
        telegraph_residual(1.0, c)


def test_telegraph_cap_admits_its_last_square(monkeypatch):
    from fracmotion import verify

    monkeypatch.setattr(verify, "_TELEGRAPH_MAX_STEPS", 128)  # c <= 0.25 at the defaults
    assert telegraph_residual(1.0, 0.25).details["excluded_points"] > 0
    with pytest.raises(DomainError, match="130 steps"):
        telegraph_residual(1.0, 0.25 + 2.0**-8)


def test_telegraph_margin_leaving_no_interior_is_rejected():
    with pytest.raises(DomainError, match="no interior points"):
        telegraph_residual(1.0, 1.0, cone_margin=10.0)


# ---------------------------------------------------------------------------
# Monte-Carlo goodness of fit


def test_mc_gof_passes_on_matched_law(classical_batch):
    law = planar_law(const_spec(1.0, 1.0), 1.0, 1.0)
    entries = {e.name: e for e in mc_gof([classical_batch], law)}
    assert entries["mc-singular-mass"].passed
    assert entries["mc-radial-chi2"].passed
    assert entries["mc-angle-ks"].passed


def test_mc_gof_detects_mismatched_law(classical_batch):
    wrong = planar_law(const_spec(0.7, 1.0), 1.0, 1.0)
    entries = {e.name: e for e in mc_gof([classical_batch], wrong)}
    assert not entries["mc-radial-chi2"].passed


def test_mc_gof_merges_thin_bins(classical_batch):
    law = planar_law(const_spec(1.0, 1.0), 1.0, 1.0)
    entries = {e.name: e for e in mc_gof([classical_batch], law, bins=2000)}
    assert entries["mc-radial-chi2"].details["bins_merged"] > 0
    assert entries["mc-radial-chi2"].passed


def test_mc_gof_requires_enough_samples():
    law = planar_law(const_spec(1.0, 1.0), 1.0, 1.0)
    cfg = MotionConfig(c=1.0, t=1.0, count_spec=const_spec(1.0, 1.0))
    with pytest.raises(DomainError):
        mc_gof(endpoint_blocks(cfg, 1000, seed=0), law)


def test_mc_gof_p_values_match_scipy(classical_batch):
    from scipy import stats

    law = planar_law(const_spec(1.0, 1.0), 1.0, 1.0)
    entries = {e.name: e for e in mc_gof([classical_batch], law)}
    radial = entries["mc-radial-chi2"]
    ref = stats.chi2.sf(radial.details["chi2"], radial.details["bins"] - 1)
    assert radial.statistic == pytest.approx(ref, rel=1e-12)
    theta = np.mod(np.arctan2(classical_batch.y, classical_batch.x), 2.0 * math.pi)
    ks = stats.kstest(theta / (2.0 * math.pi), "uniform")
    angle = entries["mc-angle-ks"]
    assert angle.details["ks"] == ks.statistic
    assert angle.statistic == pytest.approx(ks.pvalue, rel=1e-13)


@pytest.mark.parametrize("n", [100_000, 100_001, 400_000])
def test_ks_uniform_matches_kstest(n):
    from scipy import stats

    from fracmotion.verify import _ks_uniform

    u = np.random.default_rng(n).random(n)
    pelz_good = 0
    # Powers of u bend the law away from uniform, so D covers every branch.
    for power in (1.0, 1.0015, 1.003, 1.006, 1.01):
        d, p = _ks_uniform(u**power)
        ref = stats.kstest(u**power, "uniform")
        assert d == pytest.approx(ref.statistic, rel=1e-13, abs=0.0)
        if n * d * d >= 2.2:  # scipy: 2*smirnov
            assert p == pytest.approx(ref.pvalue, rel=1e-5, abs=0.0)
        elif n <= 100_000 and n * d**1.5 <= 1.4:  # scipy: Durbin's matrix
            assert abs(p - ref.pvalue) <= 1e-9
        else:
            assert p == pytest.approx(ref.pvalue, rel=1e-13, abs=0.0)
            pelz_good += 1
    assert pelz_good >= 2


@pytest.mark.parametrize("alpha,lam,law_alpha,bins", [
    (1.0, 1.0, 1.0, 50), (0.5, 1.0, 0.5, 50), (1.0, 1.0, 0.7, 50), (0.5, 2.0, 0.5, 2000)])
def test_mc_gof_over_blocks_equals_mc_gof_over_one_batch(alpha, lam, law_alpha, bins):
    # Reducing each block as it arrives gives every entry's bits.
    cfg = MotionConfig(c=1.3, t=0.8, count_spec=const_spec(alpha, lam))
    law = planar_law(const_spec(law_alpha, lam), 1.3, 0.8)
    n_samples = 7 * 2**14 + 123
    streamed = mc_gof(endpoint_blocks(cfg, n_samples, seed=77), law, bins=bins)
    whole = mc_gof([endpoint_arrays(cfg, n_samples, seed=77)], law, bins=bins)
    assert [e.to_dict() for e in streamed] == [e.to_dict() for e in whole]


def one_pass_ks_statistic(u):
    """D of the two-sided KS test from one array of steps k/n."""
    u = np.sort(u)
    steps = np.arange(0.0, u.size + 1) / u.size
    return max((steps[1:] - u).max(), (u - steps[:-1]).max())


@pytest.mark.parametrize("n", [100_000, 6 * 2**14, 6 * 2**14 + 1])
def test_ks_uniform_in_chunks_gives_the_one_pass_statistic(n):
    from fracmotion.verify import _ks_uniform

    u = np.random.default_rng(n).random(n) ** 1.003
    assert _ks_uniform(u.copy())[0] == one_pass_ks_statistic(u)


def batch_on_the_rim(n_singular: int, n_moving: int, seed: int = 5) -> EndpointArrays:
    """Singular endpoints on the unit circle, then moving ones inside it."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * math.pi * rng.random(n_singular + n_moving)
    r = np.ones(theta.size)
    r[n_singular:] = np.sqrt(rng.random(n_moving))
    n = np.zeros(theta.size, dtype=np.int64)
    n[n_singular:] = 1
    return EndpointArrays(x=r * np.cos(theta), y=r * np.sin(theta), n=n)


@pytest.mark.parametrize("lam,n_singular,n_moving,z", [
    (0.0, 100_000, 0, 0.0),  # singular weight 1
    (0.0, 99_999, 1, -math.inf),
    (40.0, 0, 100_000, 0.0),  # singular weight 0.0 in double precision
    (40.0, 1, 99_999, math.inf),
])
def test_singular_mass_with_zero_variance_is_exact_agreement(lam, n_singular, n_moving, z):
    law = planar_law(const_spec(0.5, lam), 1.0, 1.0)
    assert law.singular_weight in (0.0, 1.0)
    entry = mc_gof([batch_on_the_rim(n_singular, n_moving)], law)[0]
    assert entry.name == "mc-singular-mass"
    assert entry.details["z"] == z and entry.statistic == abs(z)
    assert entry.passed == (z == 0.0)


@pytest.mark.parametrize("n_moving", [0, 3])
def test_radial_test_without_two_merged_bins_is_not_applicable(n_moving):
    law = planar_law(const_spec(0.5, 1e-9), 1.0, 1.0)
    radial = mc_gof([batch_on_the_rim(100_000 - n_moving, n_moving)], law)[1]
    assert radial.name == "mc-radial-chi2"
    assert radial.passed and radial.statistic == 1.0
    assert radial.details["status"] == "not-applicable"
    assert radial.details["nonsingular_samples"] == n_moving
    assert radial.details["bins"] == (1 if n_moving else 0)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["mc", "cf"])
def test_monte_carlo_rows_peak_allocation_is_bounded(name):
    # At 2**18 samples the mc row keeps the angles (2.1 MB), joined once for
    # the sort (4.2 MB), and the cf row its complex buffer (4.2 MB), each
    # with one sampler block or chunk; holding whole batches took 14.9 and
    # 10.5 MB.
    run_check(name, 0.5, 1.0, 1.0, 1.0, 100_000, 1)  # count table and rules
    assert traced_peak(run_check, name, 0.5, 1.0, 1.0, 1.0, 2**18, 20260815) < 6e6


# ---------------------------------------------------------------------------
# Conditional characteristic function


@pytest.fixture(scope="module")
def cf_chunks():
    return list(conditioned_chunks(2, 1.0, 1.0, 100_000, seed=99))


@pytest.mark.parametrize("n_samples,seed,c,t", [
    (100_000, 20260815, 1.0, 1.0), (3276 * 40 + 1, 77, 1.5, 0.8)])
def test_cf_row_equals_empirical_cf_of_the_whole_batch(n_samples, seed, c, t):
    # The row writes each chunk's phases into the buffer the whole batch fills.
    (row,) = run_check("cf", 0.5, 1.0, c, t, n_samples, seed)
    x, y = (np.concatenate(col) for col in zip(*conditioned_chunks(2, c, t, n_samples, seed)))
    assert row.to_dict() == empirical_cf([(x, y)], n_samples, 2, 1.0, 0.0, c, t).to_dict()


def test_cf_zero_frequency_is_exact(cf_chunks):
    check = empirical_cf(cf_chunks, 100_000, 2, 0.0, 0.0, 1.0, 1.0)
    assert check.details["analytic"] == 1.0
    assert check.statistic <= 1e-12


def test_cf_matches_bessel_form(cf_chunks):
    check = empirical_cf(cf_chunks, 100_000, 2, 1.0, 0.0, 1.0, 1.0)
    assert check.passed
    assert check.details["analytic"] == pytest.approx(0.8801012, abs=1e-7)


def test_cf_high_frequency_decays(cf_chunks):
    check = empirical_cf(cf_chunks, 100_000, 2, 30.0, 0.0, 1.0, 1.0)
    assert abs(check.details["analytic"]) < 0.05
    assert check.passed


def test_cf_validation(cf_chunks):
    with pytest.raises(DomainError):
        empirical_cf(cf_chunks, 100_000, 0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        empirical_cf(cf_chunks[:1], 100, 2, 1.0, 0.0, 1.0, 1.0)


def test_cf_rejects_chunks_short_of_n_samples(cf_chunks):
    # The phases left unwritten would each add exp(0) = 1 to the mean.
    with pytest.raises(DomainError, match="chunks hold 3276 endpoints, but n_samples is 100000"):
        empirical_cf(cf_chunks[:1], 100_000, 2, 1.0, 0.0, 1.0, 1.0)


def test_cf_rejects_chunks_past_n_samples(cf_chunks):
    with pytest.raises(DomainError, match="chunks hold 200000 endpoints, but n_samples is 100000"):
        empirical_cf(cf_chunks + cf_chunks, 100_000, 2, 1.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Law agreement and quadrature mass


def test_law_agreement_asserts_mixture_identity():
    check = law_agreement(const_spec(0.5, 1.0), 1.0, 1.0)
    assert check.passed
    assert check.statistic <= 1e-10
    assert check.details["const_rate_form_max_rel_diff"] > 0.1
    assert check.details["disk_mass_error"] <= 1e-8


def test_law_agreement_at_zero_rate_is_not_applicable():
    # Lambda = 0 leaves no absolutely continuous part and every mixture term is 0.
    check = law_agreement(const_spec(0.5, 0.0), 1.0, 1.0)
    assert check.passed and check.statistic == 0.0
    assert check.details["status"] == "not-applicable"
    assert check.details["singular_weight"] == 1.0


def test_law_agreement_classical_forms_coincide():
    check = law_agreement(const_spec(1.0, 1.0), 1.0, 1.0)
    assert check.passed
    assert check.details["const_rate_form_max_rel_diff"] <= 1e-10


def test_gauss_legendre_rule_is_cached_and_read_only():
    from numpy.polynomial.legendre import leggauss

    from fracmotion.verify import _gauss_legendre

    nodes, wts = _gauss_legendre(32)
    assert _gauss_legendre(32)[0] is nodes
    assert not nodes.flags.writeable and not wts.flags.writeable
    ref_nodes, ref_wts = leggauss(32)
    assert nodes.tolist() == ref_nodes.tolist() and wts.tolist() == ref_wts.tolist()


@pytest.mark.parametrize("n_nodes", [32, 256])
def test_gauss_legendre_data_matches_leggauss_without_lapack(n_nodes, monkeypatch):
    from numpy.polynomial.legendre import leggauss

    from fracmotion.verify import _gauss_legendre

    ref_nodes, ref_wts = leggauss(n_nodes)

    def no_lapack(*args, **kwargs):
        raise AssertionError("the frozen rule called LAPACK")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    _gauss_legendre.cache_clear()
    try:
        nodes, wts = _gauss_legendre(n_nodes)
    finally:
        _gauss_legendre.cache_clear()
    for got, ref in ((nodes, ref_nodes), (wts, ref_wts)):
        assert got.shape == ref.shape == (n_nodes,)
        assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(np.abs(ref)))


def test_bin_masses_match_a_per_bin_loop():
    from numpy.polynomial.legendre import leggauss

    from fracmotion.verify import _bin_masses

    c, t = 1.3, 0.9
    law = planar_law(const_spec(0.5, 1.0), c, t)
    edges = np.linspace(0.0, c * t, 51)
    calls = []

    def profile(r):
        calls.append(np.shape(r))
        return law.ac_density(r, 0.0)

    got = _bin_masses(profile, c, t, edges)
    assert calls == [(50, 32)]
    # The per-bin loop the masses were computed by before.
    x, wts = leggauss(32)
    phi_edges = np.arcsin(np.clip(edges / (c * t), 0.0, 1.0))
    expected = []
    for a, b in zip(phi_edges[:-1], phi_edges[1:]):
        phi = 0.5 * (b - a) * x + 0.5 * (a + b)
        w = 0.5 * (b - a) * wts
        r = c * t * np.sin(phi)
        vals = np.array([law.ac_density(float(v), 0.0) for v in r])
        expected.append(np.sum(w * 2.0 * math.pi * r * vals * c * t * np.cos(phi)))
    assert got.tolist() == expected


def test_disk_mass_of_uniform_density():
    # f ≡ 1/(π(ct)²) integrates to one.
    ct = 1.5
    mass = disk_mass(lambda r: np.full_like(np.asarray(r, dtype=float), 1.0 / (math.pi * ct**2)),
                     1.5, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Report plumbing


def test_check_result_coerces_numpy_scalars():
    check = CheckResult(
        name="demo",
        statistic=np.float64(0.5),
        tolerance=np.float64(1.0),
        passed=np.bool_(True),
        details={"z": np.float64(1.5), "flags": np.array([True, False])},
    )
    assert isinstance(check.statistic, float)
    assert isinstance(check.passed, bool)
    assert check.details == {"z": 1.5, "flags": [True, False]}
    json.dumps(check.to_dict())


def test_report_entry_schema():
    entry = CheckResult("demo", 1.0, 2.0, True, {"k": 1}).to_dict()
    assert set(entry) == {"check", "statistic", "tolerance", "pass", "details"}


def test_report_json_keeps_entry_order_and_sorts_keys():
    checks = [
        CheckResult("b-check", 0.1, 1.0, True, {"n": 2}),
        CheckResult("a-check", 0.9, 0.5, False, {}),
    ]
    payload = json.loads(VerificationReport(checks=checks, manifest={"seed": 7}).to_json())
    assert [entry["check"] for entry in payload["checks"]] == ["b-check", "a-check"]
    assert payload["all_passed"] is False
    assert list(payload["checks"][0]) == sorted(payload["checks"][0])


# ---------------------------------------------------------------------------
# Suites


def test_default_suite_peak_allocation_is_bounded():
    # Each Monte-Carlo batch is dropped before the next is drawn, and the
    # goodness-of-fit temporaries are reused: the peak is about one batch
    # (2.5 MB of columns) and its checks' working set.
    import tracemalloc

    from fracmotion.verify import run_default_suite

    tracemalloc.start()
    try:
        report = run_default_suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 8e6


def test_run_check_rejects_an_unknown_name():
    with pytest.raises(DomainError, match="unknown check 'nope'"):
        run_check("nope", 0.5, 1.0, 1.0, 1.0, 100_000, 1)


@pytest.mark.parametrize("name,c,t", [
    # Telegraph runs at t = 2 and eigenfunction at t = 1/c, whatever t is given.
    ("telegraph", 2.0, 1e308), ("telegraph", 1.0, math.nan),
    ("eigenfunction", 2.0, 1e308), ("eigenfunction", 1.0, 0.0),
])
def test_run_check_refuses_only_the_speed_and_horizon_the_check_reads(name, c, t):
    (entry,) = run_check(name, 0.5, 1.0, c, t, 100_000, 1)
    assert entry.passed


@pytest.mark.parametrize("name,c,t,expected", [
    ("telegraph", 1e308, 1.0, "support radius c*t must be finite and positive, got inf"),
    ("eigenfunction", 1e-310, 1.0, "horizon t must be finite and positive, got inf"),
    ("eigenfunction", 0.0, 1.0, "speed c must be finite and positive, got 0.0"),
    ("pgf", 1e300, 1e10, "support radius c*t must be finite and positive, got inf"),
])
def test_run_check_applies_the_rule_to_the_speed_and_horizon_the_check_reads(name, c, t,
                                                                             expected):
    # (c, 2) for telegraph, (c, 1/c) for eigenfunction, (c, t) for pgf.
    with pytest.raises(DomainError, match=f"^{expected.replace('*', '[*]')}$"):
        run_check(name, 0.5, 1.0, c, t, 100_000, 1)
