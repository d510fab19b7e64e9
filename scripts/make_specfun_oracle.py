#!/usr/bin/env python3
"""Regenerate the frozen special-function reference values.

Every value is computed with mpmath at 50 significant digits, using
plain high-precision summation (independent of the package's own
double-precision evaluators), and written to
``tests/data/specfun_oracle.csv`` with 30 significant digits -- far more
than double precision can resolve, so the fixture never limits the
comparison tolerance.

The fixture is committed; rerun this script only to extend the grid.
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "specfun_oracle.csv"


def ml_series(alpha, beta, z):
    """E_{alpha,beta}(z) by direct 50-digit summation."""
    alpha, beta, z = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
    total = mp.mpf(0)
    k = 0
    while True:
        term = z**k / mp.gamma(alpha * k + beta)
        total += term
        if k > 4 and term < mp.mpf("1e-60") * total:
            return total
        k += 1
        if k > 200000:
            raise RuntimeError("oracle series did not converge")


def wright_projection_series(alpha, z):
    """The Wright series appearing in the projected one-dimensional law:
    upper rows (1,1),(1,1/2), lower rows (1/2,1/2),(1,alpha)."""
    alpha, z = mp.mpf(alpha), mp.mpf(z)
    total = mp.mpf(0)
    k = 0
    while True:
        term = (
            mp.gamma(1 + k)
            * mp.gamma(1 + k / mp.mpf(2))
            / mp.gamma(mp.mpf(1) / 2 + k / mp.mpf(2))
            / mp.gamma(1 + alpha * k)
            * z**k
            / mp.factorial(k)
        )
        total += term
        if k > 4 and abs(term) < mp.mpf("1e-60") * abs(total):
            return total
        k += 1
        if k > 200000:
            raise RuntimeError("oracle series did not converge")


def rows():
    out = []

    # Gamma on the double-range interior, plus log-Gamma beyond it.
    for x in ["0.1", "0.5", "1.5", "3.7", "7.3", "10.3", "50.5", "120.2", "170.0"]:
        out.append(("gamma", "", "", x, mp.gamma(mp.mpf(x))))
    for x in ["200.0", "1000.0", "12345.6"]:
        out.append(("log_gamma", "", "", x, mp.loggamma(mp.mpf(x))))

    # Mittag-Leffler grid: 60 points, all with values inside double range.
    for alpha in ["0.25", "0.3", "0.5", "0.75", "1.0"]:
        a = mp.mpf(alpha)
        for beta in [mp.mpf(1), a, a + 1, mp.mpf(2)]:
            for z in ["0.1", "1.0", "3.0"]:
                out.append(("mittag_leffler", alpha, mp.nstr(beta, 17), z, ml_series(a, beta, mp.mpf(z))))

    # log E_{alpha,1}(z) at arguments whose value overflows double range.
    for alpha, z in [("0.3", "20.0"), ("0.5", "50.0"), ("0.5", "200.0")]:
        val = mp.log(ml_series(mp.mpf(alpha), mp.mpf(1), mp.mpf(z)))
        out.append(("log_mittag_leffler", alpha, "1.0", z, val))

    # log E_{alpha,beta}(z) past z^(1/alpha) = 40, where log_mittag_leffler
    # takes the leading exponential: alpha = 0.2, and the flight orders
    # (gamma, gamma) and (gamma, gamma + 1) with gamma = d/2 - 1, d = 3, 4, 5.
    for alpha, zs in [("0.2", ["2.1", "3.0", "5.0"]), ("0.5", ["7.0", "15.0"]),
                      ("1.0", ["45.0", "200.0"]), ("1.5", ["300.0", "3000.0"])]:
        a = mp.mpf(alpha)
        betas = [a, mp.mpf(1), a + 1] if alpha == "0.2" else [a, a + 1]
        for beta in betas:
            for z in zs:
                val = mp.log(ml_series(a, beta, mp.mpf(z)))
                out.append(("log_mittag_leffler_far", alpha, mp.nstr(beta, 17), z, val))

    # Bessel J_nu(x), x <= 20 where the ascending series holds full accuracy.
    for nu, x in [
        ("0.0", "0.5"), ("0.0", "1.0"), ("0.0", "5.0"), ("0.0", "10.0"),
        ("0.0", "20.0"), ("1.0", "1.0"), ("1.0", "10.0"), ("1.0", "20.0"),
        ("0.5", "1.0"), ("0.5", "5.0"), ("2.5", "7.5"), ("5.0", "15.0"),
    ]:
        out.append(("bessel_j", nu, "", x, mp.besselj(mp.mpf(nu), mp.mpf(x))))

    # The projection-law Wright series.
    for alpha in ["0.5", "0.7", "1.0"]:
        for z in ["0.25", "0.5", "1.0", "2.0"]:
            out.append(("wright_projection", alpha, "", z, wright_projection_series(alpha, z)))

    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["function", "p1", "p2", "x", "value"])
        for function, p1, p2, x, value in rows():
            writer.writerow([function, p1, p2, x, mp.nstr(value, 30)])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
