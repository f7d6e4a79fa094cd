#!/usr/bin/env python3
"""Measure how far the full circuit polynomial scales.

Computes `oracle.circuit_poly` of the complete graph K_n, the cycle C_n and
the k x k grid for every size up to --max-vertices, with the enumeration cap
set to the vertex count.  Per graph it reports the vertex count, the seconds
one call takes and the number of terms of the polynomial.  Complete graphs
are the dense case, where the cycle sums and the cover recursion grow
fastest; cycles and grids are sparse.
"""

import argparse
import time

from rootedpoly.graph import complete, cycle, from_edges
from rootedpoly.oracle import circuit_poly


def grid(k: int):
    """The k x k grid graph, vertices numbered row by row."""
    edges = [(r * k + c + 1, r * k + c + 2) for r in range(k) for c in range(k - 1)]
    edges += [(r * k + c + 1, (r + 1) * k + c + 1) for r in range(k - 1) for c in range(k)]
    return from_edges(k * k, edges)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=11)
    args = parser.parse_args()

    n_max = args.max_vertices
    graphs = [(f"K{n}", complete(n)) for n in range(1, n_max + 1)]
    graphs += [(f"C{n}", cycle(n)) for n in range(3, n_max + 1)]
    graphs += [(f"grid{k}x{k}", grid(k)) for k in range(2, n_max + 1) if k * k <= n_max]
    print(f"{'graph':>9} {'vertices':>9} {'seconds':>9} {'terms':>7}")
    for name, g in graphs:
        t0 = time.perf_counter()
        poly = circuit_poly(g, cap=g.p)
        t1 = time.perf_counter()
        print(f"{name:>9} {g.p:>9} {t1 - t0:>9.4f} {len(poly.terms()):>7}")


if __name__ == "__main__":
    main()
