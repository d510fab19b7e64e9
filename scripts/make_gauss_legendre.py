#!/usr/bin/env python3
"""Regenerate the frozen Gauss-Legendre rules of ``fracmotion.verify``.

Writes ``src/fracmotion/gauss_legendre.npz`` with the nodes and weights of
numpy's ``leggauss`` at the node counts the verification harness uses,
under the keys ``nodes_<n>`` and ``weights_<n>``. ``leggauss`` solves an
eigenvalue problem through LAPACK, whose first call in a process can take
half a second; the package reads this file instead, and its tests check it
against ``leggauss`` to 2 ulp.

The file is committed; rerun this script only to change the node counts.
Rules computed on another LAPACK build can differ in the last bits, which
moves the ~1e-16 quadrature statistics of the ``law-agreement`` checks.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

NODE_COUNTS = (32, 256)
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "src" / "fracmotion" / "gauss_legendre.npz"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()

    rules = {}
    for n in NODE_COUNTS:
        rules[f"nodes_{n}"], rules[f"weights_{n}"] = leggauss(n)
    np.savez(args.out, **rules)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
