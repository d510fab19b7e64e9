#!/usr/bin/env python3
"""Sweep the fractional order and dump law profiles for plotting.

For each alpha in the sweep this writes one CSV with the radial profile
of the planar density, the line-projection density on the same abscissae
and the singular weight carried by the boundary circle, plus a summary
CSV of singular weights and interior mass across the sweep.  Everything
is closed-form evaluation; no sampling is involved.
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

from fracmotion.counting import FracPoissonSpec, RateFunction
from fracmotion.densities import line_density, planar_law


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alphas", type=float, nargs="+",
                        default=[0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    parser.add_argument("--lam", type=float, default=1.0, help="constant rate")
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--t", type=float, default=1.0)
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--out-dir", type=Path, default=Path("profiles"))
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    ct = args.c * args.t
    radii = np.linspace(0.0, 0.995 * ct, args.points)
    summary = []
    for alpha in args.alphas:
        spec = FracPoissonSpec(alpha, RateFunction.constant(args.lam))
        law = planar_law(spec, args.c, args.t)
        out = args.out_dir / f"profile_alpha_{alpha:.2f}.csv"
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["r", "planar_density", "line_density"])
            planar = law.ac_density(radii, 0.0)
            line = line_density(spec, args.c, args.t, radii)
            for r, dens, ld in zip(radii.tolist(), planar.tolist(), line.tolist()):
                writer.writerow([repr(r), repr(dens), repr(ld)])
        summary.append((alpha, law.singular_weight))
        print(f"alpha={alpha:.2f}: singular weight {law.singular_weight:.6f} "
              f"-> {out}")

    with (args.out_dir / "singular_weights.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "singular_weight", "interior_mass"])
        for alpha, weight in summary:
            writer.writerow([repr(alpha), repr(weight), repr(1.0 - weight)])
    print(f"summary -> {args.out_dir / 'singular_weights.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
