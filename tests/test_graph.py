import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from _brute import six_vertex_tree
from rootedpoly.graph import (DendrimerSpec, Graph, GraphFormatError, NotBipartiteError,
                              attach_root_loop, bipartition, coalesce, complete, cycle,
                              delete_root, dendrimer, edge_join,
                              graph_from_json, graph_to_json, k1, monodendron,
                              monodendron_star, multiple_coalesce, normalize_parts, path,
                              relabel, restricted_rooted_product, rooted_product, star,
                              strip_all_loops, strip_root_loops)
from rootedpoly.oracle import GENERIC, simple_circuit_poly

TWIG = complete(2).with_root(1)


def graphs_equal(a: Graph, b: Graph) -> bool:
    return (a.p, a.arcs, a.loops) == (b.p, b.arcs, b.loops)


def test_coalesce_two_twigs_is_path():
    got = coalesce(TWIG, TWIG)
    # a 3-vertex path whose middle is the coalescence node (vertex 1)
    assert graphs_equal(got, star(2))
    assert got.root == 1


def test_coalesce_with_single_vertex_is_identity():
    g = path(3).with_root(2)
    assert graphs_equal(coalesce(g, k1()), g)


def test_coalesce_adds_root_loops():
    a = k1(loop=2)
    b = k1(loop=3)
    assert coalesce(a, b).loops == {1: 5}


def test_coalesce_requires_roots():
    with pytest.raises(ValueError, match="root"):
        coalesce(complete(2), TWIG)


def test_multiple_coalesce_three_twigs_is_star():
    got = multiple_coalesce([TWIG, TWIG, TWIG])
    want = star(3)
    assert simple_circuit_poly(got, GENERIC) == simple_circuit_poly(want, GENERIC)
    assert got.p == 4


def test_multiple_coalesce_singleton():
    assert multiple_coalesce([TWIG]) is TWIG


def test_multiple_coalesce_node_count():
    core = path(3).with_root(1)
    got = multiple_coalesce([core, TWIG, TWIG])
    assert got.p == 3 + 2 * (2 - 1)


def test_coalesce_associative_up_to_polynomial():
    a = path(3).with_root(1)
    b = complete(3).with_root(2)
    c = TWIG
    left = coalesce(coalesce(a, b), c)
    right = coalesce(a, coalesce(b, c))
    assert simple_circuit_poly(left, GENERIC, cap=7) == simple_circuit_poly(right, GENERIC, cap=7)


def test_rooted_product_all_single_vertices_is_core():
    core = cycle(4)
    got, maps = rooted_product(core, [k1()] * 4)
    assert graphs_equal(got, core)
    assert maps == [{1: 1}, {1: 2}, {1: 3}, {1: 4}]


def test_rooted_product_on_single_core_vertex_gives_member():
    h = path(3).with_root(2)
    got, maps = rooted_product(k1(rooted=False), [h])
    inverse = {old: new for old, new in maps[0].items()}
    assert graphs_equal(got, relabel(h, inverse))


def test_rooted_product_twig_everywhere_is_path4():
    got, _ = rooted_product(complete(2), [TWIG, TWIG])
    assert simple_circuit_poly(got, GENERIC) == simple_circuit_poly(path(4), GENERIC)


def test_rooted_product_length_mismatch():
    with pytest.raises(ValueError, match="members"):
        rooted_product(complete(2), [TWIG])


def test_rooted_product_merges_loops():
    core = Graph(p=1, loops={1: 2})
    h = k1(loop=Fraction(1, 2))
    got, _ = rooted_product(core, [h])
    assert got.loops == {1: Fraction(5, 2)}


def test_restricted_product_single_vertices_keeps_core():
    t = six_vertex_tree()
    got, _ = restricted_rooted_product(t, k1(), k1())
    assert graphs_equal(got, t)


def test_restricted_product_nine_vertex_tree():
    t = six_vertex_tree()
    got, _ = restricted_rooted_product(t, k1(), TWIG)
    assert got.p == 9
    swapped, _ = restricted_rooted_product(t, TWIG, k1())
    assert swapped.p == 9
    assert not graphs_equal(got, swapped)


def test_restricted_product_requires_parts():
    with pytest.raises(ValueError, match="bipartitioned"):
        restricted_rooted_product(path(4), k1(), k1())


def test_restricted_vertex_count_formula():
    t = star(3).with_parts(bipartition(star(3)))
    h1, h2 = path(3).with_root(1), TWIG
    got, _ = restricted_rooted_product(t, h1, h2)
    parts = normalize_parts(t).parts
    p1, p2 = parts.count(1), parts.count(2)
    assert got.p == t.p + p1 * (h1.p - 1) + p2 * (h2.p - 1)


def test_delete_root_twig():
    assert graphs_equal(delete_root(TWIG), k1(rooted=False))
    assert delete_root(k1()).p == 0


def test_strip_root_loops_no_loops_is_identity():
    assert strip_root_loops(TWIG) == TWIG


def test_strip_all_loops():
    g = Graph(p=1, loops={1: 5})
    assert strip_all_loops(g).loops == {}


def test_attach_root_loop():
    got = attach_root_loop(k1(loop=7), -3)
    assert got.loops == {1: -3}
    assert graphs_equal(attach_root_loop(TWIG, 0), strip_root_loops(TWIG))


def test_edge_join_single_vertices():
    got = edge_join(k1(), k1(), 1)
    assert graphs_equal(got, complete(2))


def test_edge_join_zero_weight_is_disjoint_union():
    got = edge_join(TWIG, TWIG, 0)
    assert got.p == 4 and len(got.arcs) == 4


def test_monodendron_copy_count():
    m = monodendron(path(3).with_root(2), (1, 3), 3)
    # (d**j - 1) / (d - 1) copies of a 3-vertex unit for d = 2, j = 3
    assert m.graph.p == 1 + 2 * 7
    assert len(m.frontier) == 8
    assert m.tiers == 3


def test_monodendron_zero_tiers():
    m = monodendron(TWIG, (2,), 0)
    assert m.graph.p == 1 and m.frontier == (1,)


def test_monodendron_star_identity():
    unit, sites = path(3).with_root(2), (1, 3)
    m2 = monodendron(unit, sites, 2)
    got = monodendron_star(m2, monodendron(unit, sites, 0))
    assert graphs_equal(got.graph, m2.graph) and got.tiers == 2


def test_monodendron_vertex_count_triangle_unit():
    m = monodendron(complete(3).with_root(1), (2, 3), 2)
    assert m.graph.p == 1 + (3 - 1) * (2 ** 2 - 1) // (2 - 1)


def test_dendrimer_attaches_branch_at_every_core_vertex():
    spec = DendrimerSpec(core=complete(2), unit=TWIG, attach_sites=(2,), generations=2)
    got = dendrimer(spec)
    assert got.p == 2 + 2 * 2  # each branch is a 3-vertex path sharing its root


def test_dendrimer_spec_validation():
    with pytest.raises(ValueError, match="root"):
        DendrimerSpec(core=k1(rooted=False), unit=TWIG, attach_sites=(1,), generations=1)
    with pytest.raises(ValueError, match="distinct"):
        DendrimerSpec(core=k1(rooted=False), unit=path(3).with_root(2),
                      attach_sites=(1, 1), generations=1)


def test_bipartition_path_and_star():
    assert sorted([bipartition(path(4)).count(1), bipartition(path(4)).count(2)]) == [2, 2]
    parts = bipartition(star(3))
    assert parts.count(1) == 3 and parts[0] == 2


def test_bipartition_odd_cycle():
    with pytest.raises(NotBipartiteError):
        bipartition(complete(3))


def test_bipartition_tie_break_contains_vertex_one():
    parts = bipartition(path(4))
    assert parts[0] == 1


def test_json_roundtrip():
    g = Graph(p=3, arcs={(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2), (1, 3): 2, (3, 1): 2},
              loops={2: Fraction(-3, 4)}, root=1, parts=(1, 2, 2))
    assert graph_from_json(graph_to_json(g)) == g


def test_json_edges_shorthand():
    doc = {"p": 2, "edges": [{"a": 1, "b": 2, "w": "1/3"}]}
    g = graph_from_json(doc)
    assert g.arc(1, 2) == Fraction(1, 3) and g.arc(2, 1) == Fraction(1, 3)


def test_json_errors():
    with pytest.raises(GraphFormatError, match="'p'"):
        graph_from_json({"arcs": []})
    with pytest.raises(GraphFormatError, match="arcs\\[0\\]"):
        graph_from_json({"p": 2, "arcs": [{"from": 1}]})
    with pytest.raises(GraphFormatError, match="rational"):
        graph_from_json({"p": 2, "arcs": [{"from": 1, "to": 2, "w": "x"}]})
    # only the written form -?num(/den)?: no exponent (Fraction would expand
    # 10**exp first), decimal point, digit separator or surrounding space
    for text in ["1e400", "1E5", "0.5", "1_000", " 3", "3 ", "+3", "1/-2", "1/0", "", "/2"]:
        for doc in ({"p": 2, "arcs": [{"from": 1, "to": 2, "w": text}]},
                    {"p": 2, "edges": [{"a": 1, "b": 2, "w": text}]},
                    {"p": 1, "loops": [{"at": 1, "b": text}]}):
            with pytest.raises(GraphFormatError, match="rational"):
                graph_from_json(doc)
    assert graph_from_json({"p": 1, "loops": [{"at": 1, "b": "-6/4"}]}).loop(1) == Fraction(-3, 2)
    # JSON booleans and floats are no vertex counts or indices
    for doc, where in [({"p": True}, "'p'"),
                       ({"p": 2, "arcs": [{"from": 1, "to": 2.0}]}, "arcs\\[0\\].to"),
                       ({"p": 2, "edges": [{"a": True, "b": 2}]}, "edges\\[0\\].a"),
                       ({"p": 2, "root": True}, "'root'"),
                       ({"p": 2, "edges": [{"a": 1, "b": 2}], "parts": [1, True]}, "parts\\[1\\]"),
                       ({"p": 2, "loops": [{"at": 1.0, "b": 1}]}, "loops\\[0\\].at"),
                       # arcs, edges, loops and parts must be JSON arrays
                       ({"p": 2, "arcs": 5}, "'arcs'"),
                       ({"p": 2, "arcs": None}, "'arcs'"),
                       ({"p": 2, "edges": None}, "'edges'"),
                       ({"p": 2, "edges": {"a": 1}}, "'edges'"),
                       ({"p": 2, "loops": 3}, "'loops'"),
                       ({"p": 2, "loops": "x"}, "'loops'"),
                       ({"p": 2, "parts": 5}, "'parts'")]:
        with pytest.raises(GraphFormatError, match=where):
            graph_from_json(doc)


# strings of the form -?num(/den)? with a nonzero den; leading zeros allowed
RATIONAL_TEXT = st.one_of(st.from_regex(r"-?[0-9]{1,30}(/0*[1-9][0-9]{0,30})?", fullmatch=True),
                          st.builds(lambda n, d: f"{n}/{d}", st.integers(-10 ** 600, 10 ** 600),
                                    st.integers(1, 10 ** 40)))


@given(RATIONAL_TEXT)
@example("-0/7")
@example("007/014")
@example("-000")
@example("9" * 4300)
@example("1/" + "9" * 4300)
def test_rational_weight_equals_fraction_of_its_text(text):
    want = Fraction(text)
    g = graph_from_json({"p": 2, "arcs": [{"from": 1, "to": 2, "w": text}],
                         "edges": [{"a": 1, "b": 2, "w": text}], "loops": [{"at": 2, "b": text}]})
    assert (g.arc(1, 2), g.arc(2, 1), g.loop(2)) == (2 * want, want, want)
    # exact values are stored as int when whole, as Graph normalises them
    assert all(type(w) is (int if w.denominator == 1 else Fraction)
               for w in (*g.arcs.values(), *g.loops.values()))


def test_duplicate_weights_sum_exactly():
    doc = {"p": 3,
           "arcs": [{"from": 1, "to": 2, "w": "1/3"}, {"from": 1, "to": 2, "w": "1/6"},
                    {"from": 2, "to": 3, "w": "2/5"}, {"from": 2, "to": 3, "w": "-2/5"},
                    {"from": 3, "to": 1}, {"from": 3, "to": 1, "w": -3}],
           "edges": [{"a": 1, "b": 2, "w": "-1/2"}, {"a": 3, "b": 1, "w": 5}],
           "loops": [{"at": 1, "b": "1/4"}, {"at": 1, "b": "3/4"}, {"at": 2, "b": 2}, {"at": 2, "b": "-2"},
                     {"at": 3, "b": "5/7"}, {"at": 3, "b": 0}]}
    g = graph_from_json(doc)
    # 1/3 + 1/6 - 1/2 = 0 drops the arc 1 -> 2, as 2/5 - 2/5 drops 2 -> 3 and 2 - 2 the loop at 2
    assert g.arcs == {(2, 1): Fraction(-1, 2), (1, 3): 5, (3, 1): 3}
    assert g.loops == {1: 1, 3: Fraction(5, 7)}
    assert type(g.loops[1]) is int


def test_bad_rational_in_a_file_exit_code(tmp_path, capsys):
    from rootedpoly.cli import EXIT_INPUT, main
    for text in ["1/0", "-3/000", "1" * 4301, "1/" + "1" * 4301]:
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"p": 2, "edges": [{"a": 1, "b": 2, "w": text}]}))
        assert main(["poly", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: edges[0]: bad rational {text!r}\n"


def test_graph_validation():
    with pytest.raises(GraphFormatError, match="out of range"):
        Graph(p=2, arcs={(1, 3): 1})
    with pytest.raises(GraphFormatError, match="self-arc"):
        Graph(p=2, arcs={(1, 1): 1})
    with pytest.raises(GraphFormatError, match="part"):
        Graph(p=2, arcs={(1, 2): 1, (2, 1): 1}, parts=(1, 1))


def test_normalize_parts_swaps_small_first_part():
    g = Graph(p=3, arcs=star(2).arcs, parts=(1, 2, 2))
    assert normalize_parts(g).parts == (2, 1, 1)
    assert normalize_parts(normalize_parts(g)) == normalize_parts(g)
