#!/usr/bin/env python3
"""Build a pair of isospectral reciprocal rooted products.

The core is a six-vertex tree (a five-vertex path with a twig on the middle
vertex) whose two parts have three vertices each.  Attaching an edge to one
part and nothing to the other, in both of the two possible ways, yields two
non-isomorphic nine-vertex trees with the same characteristic polynomial.
"""

from rootedpoly.factor import (bipartite_delta, mu_squares, restricted_product_poly,
                               restricted_spectral_form)
from rootedpoly.graph import (complete, delete_root, from_edges, k1,
                              restricted_rooted_product)
from rootedpoly.oracle import CHARACTERISTIC_STANDARD, circuit_poly
from rootedpoly.poly import Poly
from rootedpoly.spectra import roots

MODE = CHARACTERISTIC_STANDARD


def main():
    tree = from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    tree = tree.with_parts((1, 2, 1, 2, 1, 2))
    twig = complete(2).with_root(1)
    bare = k1()

    first, _ = restricted_rooted_product(tree, bare, twig)
    second, _ = restricted_rooted_product(tree, twig, bare)
    p_first = circuit_poly(first, 9, MODE.simple())
    p_second = circuit_poly(second, 9, MODE.simple())

    print("core tree:           ", circuit_poly(tree, mode=MODE.simple()))
    print("first product:       ", p_first)
    print("reciprocal product:  ", p_second)
    print("identical:           ", p_first == p_second)

    delta = bipartite_delta(tree, MODE)
    ph1 = circuit_poly(bare, mode=MODE.simple())
    ph2 = circuit_poly(twig, mode=MODE.simple())
    pl2 = circuit_poly(delete_root(twig), mode=MODE.simple())
    via_expansion = restricted_product_poly(delta, ph1, Poly.one(), ph2, pl2)
    print("via expansion:       ", via_expansion, "(equal:", via_expansion == p_first, ")")

    mu = mu_squares(delta)
    print("squared core roots:  ", [round(v.real, 6) for v in mu.root_set.expanded()])
    numeric = restricted_spectral_form(mu.root_set, ph1, Poly.one(), ph2, pl2, 3, 3)
    print("via squared roots:   ", numeric)

    print("\nspectrum of both products:")
    for value, mult in roots(p_first).roots:
        print(f"  {value.real:+.6f}  multiplicity {mult}")


if __name__ == "__main__":
    main()
