#!/usr/bin/env python3
"""Measure how far the full circuit polynomial scales, and the matching
polynomial past it.

Computes `oracle.circuit_poly` of the complete graph K_n, the cycle C_n and
the k x k grid for every size up to --max-vertices, with the enumeration cap
set to the vertex count.  Per graph it reports the vertex count, the seconds
one call takes, the number of terms of the polynomial, and, as char_s, the
seconds the simple characteristic polynomial det(x*I - A) takes by the route
of `rootedpoly poly`, `circuit_poly(g, cap, CHARACTERISTIC_STANDARD.simple())`,
which computes it as a determinant and enumerates nothing.  The
last column, spec_s, times the route of `rootedpoly spectrum`,
`simple_circuit_poly` (the full polynomial, then `specialize`), on the same
graph with rational arc weights, which put Fraction coefficients into the
full polynomial.  The columns json_s and text_s time writing the full
polynomial as `rootedpoly poly --full` prints it, with `--format json`
(`cli._poly_json`) and as text (`str`), to set beside the seconds it takes
to compute.  The column peak_kb is the tracemalloc peak, in kB, of one more
call of the full polynomial, made apart from the timed ones: the memory of
the cover sweep's reached sets and of the result.  Complete graphs are the
dense case, where the cycle sums and the cover sweep grow fastest; cycles
and grids are sparse.

A second table times the simple matching-minus polynomial, whatever
--max-vertices is, of the k x 2k grids for k = 2..5 and of ladders of 10 to
80 vertices, each numbered row by row.  Its cycle weights vanish from length
3 on, so the frontier table stops after the 2-cycles.  Per graph it reports
the vertex count, the seconds one call takes, and the number of terms.

A third table times that determinant route, char_s, on the same k x 2k grids,
the 10 x 10 grid, the ladders, and the path and the cycle of 80 vertices,
with the vertex count and the number of terms.

A fourth table times the simple permanental polynomial, perm_s, which
`circuit_poly` computes as a permanent row by row over the sets of columns
taken, on the ladders, on the 3 x 8 grid numbered by rows (grid3x8) and by
columns (grid8x3), and on K_n for n up to --max-vertices, with the vertex
count and the number of terms.  Its cost follows the bandwidth of the row
order, which the route chooses itself, so both numberings of the grid, of
bandwidths 8 and 3, take milliseconds, while the complete graphs, of
bandwidth n - 1, grow fastest.
"""

import argparse
import time
import tracemalloc
from fractions import Fraction

from rootedpoly.cli import _poly_json
from rootedpoly.graph import Graph, complete, cycle, from_edges, path
from rootedpoly.oracle import (CHARACTERISTIC_STANDARD, MATCHING_MINUS, PERMANENTAL, circuit_poly,
                               simple_circuit_poly)

RATIONALS = [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(2, 3), Fraction(-1, 3),
             Fraction(3, 2)]


def grid(rows: int, cols: int):
    """The rows x cols grid graph, vertices numbered row by row."""
    edges = [(r * cols + c + 1, r * cols + c + 2) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c + 1, (r + 1) * cols + c + 1) for r in range(rows - 1) for c in range(cols)]
    return from_edges(rows * cols, edges)


def rational_weights(g: Graph) -> Graph:
    """g with its arcs weighted by RATIONALS in turn, in sorted arc order."""
    return Graph(p=g.p, arcs={arc: RATIONALS[k % len(RATIONALS)] for k, arc in enumerate(sorted(g.arcs))})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=11)
    args = parser.parse_args()

    n_max = args.max_vertices
    graphs = [(f"K{n}", complete(n)) for n in range(1, n_max + 1)]
    graphs += [(f"C{n}", cycle(n)) for n in range(3, n_max + 1)]
    graphs += [(f"grid{k}x{k}", grid(k, k)) for k in range(2, n_max + 1) if k * k <= n_max]
    simple_char = CHARACTERISTIC_STANDARD.simple()
    print(f"{'graph':>9} {'vertices':>9} {'seconds':>9} {'terms':>7} {'char_s':>9} {'spec_s':>9}"
          f" {'json_s':>9} {'text_s':>9} {'peak_kb':>9}")
    for name, g in graphs:
        rational = rational_weights(g)
        t0 = time.perf_counter()
        poly = circuit_poly(g, cap=g.p)
        t1 = time.perf_counter()
        circuit_poly(g, g.p, simple_char)
        t2 = time.perf_counter()
        simple_circuit_poly(rational, CHARACTERISTIC_STANDARD, g.p)
        t3 = time.perf_counter()
        _poly_json(poly)
        t4 = time.perf_counter()
        str(poly)
        t5 = time.perf_counter()
        tracemalloc.start()
        circuit_poly(g, cap=g.p)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{name:>9} {g.p:>9} {t1 - t0:>9.4f} {len(poly.terms()):>7} {t2 - t1:>9.4f} {t3 - t2:>9.4f}"
              f" {t4 - t3:>9.4f} {t5 - t4:>9.4f} {peak / 1024:>9.1f}")

    graphs = [(f"grid{k}x{2 * k}", grid(k, 2 * k)) for k in range(2, 6)]
    graphs += [(f"ladder{n}", grid(n // 2, 2)) for n in (10, 20, 40, 80)]
    matching = MATCHING_MINUS.simple()
    print(f"\n{'graph':>9} {'vertices':>9} {'matching_s':>10} {'terms':>7}")
    for name, g in graphs:
        t0 = time.perf_counter()
        poly = circuit_poly(g, g.p, matching)
        t1 = time.perf_counter()
        print(f"{name:>9} {g.p:>9} {t1 - t0:>10.4f} {len(poly.terms()):>7}")

    graphs = [*graphs[:4], ("grid10x10", grid(10, 10)), *graphs[4:], ("P80", path(80)), ("C80", cycle(80))]
    print(f"\n{'graph':>9} {'vertices':>9} {'char_s':>10} {'terms':>7}")
    for name, g in graphs:
        t0 = time.perf_counter()
        poly = circuit_poly(g, g.p, simple_char)
        t1 = time.perf_counter()
        print(f"{name:>9} {g.p:>9} {t1 - t0:>10.4f} {len(poly.terms()):>7}")

    graphs = [(f"ladder{n}", grid(n // 2, 2)) for n in (10, 20, 40, 80)]
    graphs += [("grid3x8", grid(3, 8)), ("grid8x3", grid(8, 3))]
    graphs += [(f"K{n}", complete(n)) for n in range(1, n_max + 1)]
    permanental = PERMANENTAL.simple()
    print(f"\n{'graph':>9} {'vertices':>9} {'perm_s':>10} {'terms':>7}")
    for name, g in graphs:
        t0 = time.perf_counter()
        poly = circuit_poly(g, g.p, permanental)
        t1 = time.perf_counter()
        print(f"{name:>9} {g.p:>9} {t1 - t0:>10.4f} {len(poly.terms()):>7}")


if __name__ == "__main__":
    main()
