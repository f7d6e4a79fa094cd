#!/usr/bin/env python3
"""Measure how far the factorized dendrimer pipeline scales.

Computes characteristic polynomials and spectra of binary-branching
dendrimers generation by generation.  Per generation it reports the vertex
count, the number of coprime factors the polynomial is kept in and the
largest factor degree, the time of the factored tier recursion, of
expanding the product, and of finding the roots factor by factor, and the
distinct eigenvalue count.  The product graph is never constructed;
everything is assembled from the 3-vertex unit's polynomials.
"""

import argparse
import time

from rootedpoly.factor import dendrimer_factored
from rootedpoly.graph import DendrimerSpec, k1, path
from rootedpoly.oracle import CHARACTERISTIC_STANDARD
from rootedpoly.spectra import roots


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-generations", type=int, default=10)
    parser.add_argument("--skip-spectrum", action="store_true",
                        help="only build the polynomials")
    args = parser.parse_args()

    unit = path(3).with_root(2)
    print(f"{'gen':>4} {'vertices':>9} {'factors':>8} {'max deg':>8} {'factor (s)':>11} "
          f"{'expand (s)':>11} {'roots (s)':>10} {'distinct':>9}")
    for j in range(args.max_generations + 1):
        spec = DendrimerSpec(core=k1(rooted=False), unit=unit,
                             attach_sites=(1, 3), generations=j)
        t0 = time.perf_counter()
        fac = dendrimer_factored(spec, CHARACTERISTIC_STANDARD)
        t1 = time.perf_counter()
        fac.expand()
        t2 = time.perf_counter()
        largest = max((len(f) - 1 for f, _ in fac.factors), default=0)
        row = (f"{j:>4} {fac.degree():>9} {len(fac.factors):>8} {largest:>8} "
               f"{t1 - t0:>11.3f} {t2 - t1:>11.3f}")
        if args.skip_spectrum:
            print(f"{row} {'-':>10} {'-':>9}")
            continue
        rs = roots(fac)
        t3 = time.perf_counter()
        print(f"{row} {t3 - t2:>10.3f} {len(rs.roots):>9}")


if __name__ == "__main__":
    main()
