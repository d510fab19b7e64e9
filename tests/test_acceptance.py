"""Release acceptance: eight end-to-end criteria, one per test.

Each test exercises a full slice of the package (oracle fixtures, counting
normalization, mixture identities, Monte-Carlo reconciliation, projections,
flight laws, PDE residuals, CLI determinism), prints a single
``[PASS]``/``[FAIL]`` line with the pinned tolerance and measured runtime,
and then asserts.  Run with ``pytest -s tests/test_acceptance.py`` to see
the scoreboard.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from pathlib import Path

import numpy as np
import scipy.stats
from numpy.polynomial.legendre import leggauss

from fracmotion.cli import main
from fracmotion.counting import (
    FlightCountSpec,
    FracPoissonSpec,
    RateFunction,
    count_distribution,
    pmf,
    weighted_pmf,
)
from fracmotion.densities import (
    classical_line_density,
    flight_exponent,
    flight_mixture_density,
    flight_unconditional,
    line_density,
    mixture_density,
    planar_law,
)
from fracmotion.motion import MotionConfig, endpoint_blocks, flight_radii_batch
from fracmotion.specfun import MLParams, mittag_leffler
from fracmotion.verify import (
    disk_mass,
    eigenfunction_residual,
    mc_gof,
    pgf_ode_residual,
    run_negative_controls,
    telegraph_residual,
)

ORACLE_PATH = Path(__file__).parent / "data" / "specfun_oracle.csv"
SEED = 20260815


def const_spec(alpha: float, lam: float) -> FracPoissonSpec:
    return FracPoissonSpec(alpha, RateFunction.constant(lam))


def record(number: int, label: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number} ({label}): {detail}")
    return ok


def test_criterion_1_mittag_leffler_oracle():
    start = time.perf_counter()
    with open(ORACLE_PATH) as fh:
        rows = [r for r in csv.DictReader(fh) if r["function"] == "mittag_leffler"]
    errs = []
    for row in rows:
        params = MLParams(float(row["p1"]), float(row["p2"]))
        got = mittag_leffler(params, float(row["x"]))
        want = float(row["value"])
        errs.append(abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    max_err = max(errs)
    ok = len(rows) >= 40 and max_err <= 1e-10 and elapsed < 1.0
    assert record(
        1, "special-function oracle",
        ok,
        f"{len(rows)} points, max rel err {max_err:.2e} (tol 1e-10), "
        f"{elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_counting_normalization():
    start = time.perf_counter()
    alphas, lams = (0.3, 0.5, 0.7, 1.0), (0.1, 1.0, 5.0, 20.0)
    norm_err = 0.0
    for alpha, lam in itertools.product(alphas, lams):
        dist = count_distribution(const_spec(alpha, lam), 1.0)
        norm_err = max(norm_err, abs(dist.cdf(dist.support_size - 1) - 1.0))
    poisson_err = 0.0
    for lam in lams:
        spec = const_spec(1.0, lam)
        for n in range(31):
            want = scipy.stats.poisson.pmf(n, lam)
            poisson_err = max(poisson_err, abs(pmf(spec, 1.0, n) - want) / want)
    alpha = 0.5
    weight = lambda k: math.exp(math.lgamma(k + 1.0) - math.lgamma(alpha * k + 1.0))  # noqa: E731
    spec = const_spec(alpha, 1.0)
    weighted_err = max(
        abs(weighted_pmf(weight, 1.0, n) - pmf(spec, 1.0, n)) / pmf(spec, 1.0, n)
        for n in range(9)
    )
    elapsed = time.perf_counter() - start
    ok = (norm_err <= 1e-10 and poisson_err <= 1e-12 and weighted_err <= 1e-12
          and elapsed < 1.0)
    assert record(
        2, "counting normalization",
        ok,
        f"16-point grid |sum-1| {norm_err:.2e} (tol 1e-10), Poisson reduction "
        f"{poisson_err:.2e} (tol 1e-12), weighted equivalence {weighted_err:.2e} "
        f"(tol 1e-12), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_3_mixture_identity():
    start = time.perf_counter()
    radii = np.linspace(0.02, 0.98, 50)
    worst_pointwise = 0.0
    worst_mass = 0.0
    for alpha, lam in itertools.product((0.5, 1.0), (0.5, 2.0)):
        spec = const_spec(alpha, lam)
        law = planar_law(spec, 1.0, 1.0)
        for r in radii:
            closed = law.ac_density(float(r), 0.0)
            mixed = mixture_density(spec, 1.0, 1.0, float(r))
            worst_pointwise = max(worst_pointwise, abs(closed - mixed) / closed)
        mass = disk_mass(lambda r: np.vectorize(law.ac_density)(r, 0.0), 1.0, 1.0)
        worst_mass = max(worst_mass, abs(mass - (1.0 - law.singular_weight)))
    elapsed = time.perf_counter() - start
    ok = worst_pointwise <= 1e-10 and worst_mass <= 1e-8 and elapsed < 10.0
    assert record(
        3, "mixture identity",
        ok,
        f"closed vs mixture rel err {worst_pointwise:.2e} (tol 1e-10) on 50 radii "
        f"x 4 specs, disk-mass err {worst_mass:.2e} (tol 1e-8), "
        f"{elapsed:.1f}s (budget 10s)",
    )


def test_criterion_4_monte_carlo_reconciliation():
    start = time.perf_counter()
    lines = []
    all_ok = True
    for alpha in (1.0, 0.5):
        spec = const_spec(alpha, 1.0)
        cfg = MotionConfig(c=1.0, t=1.0, count_spec=spec)
        # Each block is reduced as it is drawn, so the batch is never whole.
        entries = mc_gof(endpoint_blocks(cfg, 1_000_000, seed=SEED), planar_law(spec, 1.0, 1.0))
        all_ok &= all(e.passed for e in entries)
        by_name = {e.name: e for e in entries}
        lines.append(
            f"alpha={alpha}: singular z={by_name['mc-singular-mass'].statistic:.2f}, "
            f"chi2 p={by_name['mc-radial-chi2'].statistic:.3f}, "
            f"KS p={by_name['mc-angle-ks'].statistic:.3f}"
        )
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 120.0
    assert record(
        4, "Monte-Carlo reconciliation",
        ok,
        f"1e6 endpoints each; {'; '.join(lines)} (z tol 3, p tol 0.001), "
        f"{elapsed:.0f}s (budget 120s)",
    )


def test_criterion_5_projection_identity():
    start = time.perf_counter()
    spec = const_spec(0.7, 1.0)
    law = planar_law(spec, 1.0, 1.0)
    xg, wts = leggauss(200)
    psi = 0.5 * math.pi * xg
    wq = 0.5 * math.pi * wts
    proj_err = 0.0
    for x in np.linspace(-0.92, 0.92, 20):
        b = math.sqrt(1.0 - x * x)
        y = b * np.sin(psi)
        vals = np.array([law.ac_density(float(x), float(v)) for v in y])
        marginal = float(np.sum(wq * vals * b * np.cos(psi)))
        marginal += law.singular_weight / (math.pi * b)
        want = line_density(spec, 1.0, 1.0, float(x))
        proj_err = max(proj_err, abs(marginal - want) / want)
    classical_err = 0.0
    for x in np.linspace(-0.95, 0.95, 20):
        got = line_density(const_spec(1.0, 1.0), 1.0, 1.0, float(x))
        want = classical_line_density(1.0, 1.0, 1.0, float(x))
        classical_err = max(classical_err, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = proj_err <= 1e-6 and classical_err <= 1e-10 and elapsed < 30.0
    assert record(
        5, "line projection identity",
        ok,
        f"y-integral + projected atom rel err {proj_err:.2e} (tol 1e-6) at 20 "
        f"abscissae, classical-form rel err {classical_err:.2e} (tol 1e-10), "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_criterion_6_flight_laws():
    start = time.perf_counter()
    lam = 1.0
    spec4 = FlightCountSpec(d=4, rate=RateFunction.constant(lam))
    closed_err = 0.0
    for r in np.linspace(0.0, 0.99, 50):
        q = 1.0 - r * r
        want = lam * math.exp(lam * q) / (math.pi * (math.exp(lam) - 1.0))
        got = flight_unconditional(spec4, 1.0, 1.0, float(r))
        closed_err = max(closed_err, abs(got - want) / want)
    mixture_err = 0.0
    for d in (3, 4, 5):
        spec = FlightCountSpec(d=d, rate=RateFunction.constant(2.0))
        for r in np.linspace(0.03, 0.97, 25):
            got = flight_unconditional(spec, 1.0, 1.0, float(r))
            want = flight_mixture_density(spec, 1.0, 1.0, float(r))
            mixture_err = max(mixture_err, abs(got - want) / want)
    worst_p = 1.0
    for d, n, variant in ((4, 2, "Y"), (3, 0, "X")):
        radii = flight_radii_batch(d, n, 1.0, 1.0, variant, 100_000, seed=SEED)
        a = flight_exponent(d, n, variant)
        quantiles = np.linspace(0.0, 1.0, 51)
        edges = np.sqrt(1.0 - (1.0 - quantiles) ** (1.0 / a))
        counts, _ = np.histogram(radii, bins=edges)
        worst_p = min(worst_p, float(scipy.stats.chisquare(counts).pvalue))
    elapsed = time.perf_counter() - start
    ok = (closed_err <= 1e-12 and mixture_err <= 1e-10 and worst_p > 0.001
          and elapsed < 60.0)
    assert record(
        6, "flight laws",
        ok,
        f"d=4 closed-form rel err {closed_err:.2e} (tol 1e-12) on 50 radii, "
        f"mixture rel err {mixture_err:.2e} (tol 1e-10) for d in {{3,4,5}}, "
        f"sampler chi2 min p {worst_p:.3f} (tol 0.001) at 1e5, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_7_analytic_identities():
    start = time.perf_counter()
    h_pde, h_caputo = 1.0 / 256.0, 1.0 / 512.0
    telegraph = telegraph_residual(1.0, 1.0, h=h_pde)
    parts = [telegraph.passed and telegraph.statistic <= 100.0 * h_pde**2]
    resid_bits = [f"telegraph {telegraph.statistic:.2e} (tol {100.0 * h_pde**2:.2e})"]
    for alpha in (0.5, 0.8):
        bound = 50.0 * h_caputo ** (2.0 - alpha)
        eig = eigenfunction_residual(alpha, 1.0, 1.0)
        ode = pgf_ode_residual(const_spec(alpha, 1.0), 1.0)
        parts.append(eig.passed and eig.statistic <= bound)
        parts.append(ode.passed and ode.statistic <= bound)
        resid_bits.append(
            f"alpha={alpha}: eigen {eig.statistic:.2e} / pgf {ode.statistic:.2e} "
            f"(tol {bound:.2e})"
        )
    negatives = run_negative_controls(seed=SEED, n_samples=100_000)
    controls_fail = bool(negatives.checks) and not any(
        c.passed for c in negatives.checks
    )
    parts.append(controls_fail)
    elapsed = time.perf_counter() - start
    ok = all(parts) and elapsed < 60.0
    assert record(
        7, "analytic identities",
        ok,
        f"{'; '.join(resid_bits)}; {len(negatives.checks)} negative controls all "
        f"fail: {controls_fail}, {elapsed:.0f}s (budget 60s)",
    )


def test_criterion_8_simulation_determinism(tmp_path):
    start = time.perf_counter()
    paths = {name: tmp_path / f"{name}.csv" for name in ("first", "second", "prefix")}
    for name, samples in (("first", 20000), ("second", 20000), ("prefix", 10000)):
        rc = main(["simulate", "--alpha", "0.5", "--rate", "const:1",
                   "--samples", str(samples), "--seed", str(SEED),
                   "--out", str(paths[name])])
        assert rc == 0
    first = paths["first"].read_bytes()
    rerun_same = first == paths["second"].read_bytes()
    # Sample i depends on (seed, i) only: a shorter run is a prefix of a
    # longer one, across the sampler's 4 096-sample blocks.
    header_and_rows = first.splitlines(keepends=True)[:10001]
    prefix_same = paths["prefix"].read_bytes() == b"".join(header_and_rows)
    elapsed = time.perf_counter() - start
    ok = rerun_same and prefix_same
    assert record(
        8, "simulation determinism",
        ok,
        f"20000 rows byte-identical across reruns: {rerun_same}, first 10000 "
        f"rows identical to a 10000-sample run: {prefix_same}, {elapsed:.1f}s",
    )
