"""Weighted directed pseudographs and rooted constructions on them.

Vertices are numbered 1..p.  Arcs carry exact rational weights (floats are
tolerated for the numeric pipelines); all self-loops at a vertex are folded
into a single per-vertex weight.  Undirected edges are encoded as symmetric
arc pairs.  Graphs are immutable; every construction returns a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Weight = Union[int, Fraction, float, complex]


class GraphFormatError(ValueError):
    """Raised for malformed graph descriptions (JSON input, bad indices)."""


class NotBipartiteError(ValueError):
    """Raised when a 2-coloring is requested for a graph with an odd cycle."""


def _norm_weight(w: Weight) -> Weight:
    if type(w) is Fraction and w.denominator == 1:
        return w.numerator
    return w


@dataclass(frozen=True)
class Graph:
    """Directed pseudograph with per-vertex loop weights and an optional root."""

    p: int
    arcs: dict[tuple[int, int], Weight] = field(default_factory=dict)
    loops: dict[int, Weight] = field(default_factory=dict)
    root: int | None = None
    parts: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.p < 0:
            raise GraphFormatError(f"vertex count must be nonnegative, got {self.p}")
        arcs = {}
        for (i, j), w in self.arcs.items():
            if i == j:
                raise GraphFormatError(f"self-arc ({i},{i}); use a loop weight instead")
            if not (1 <= i <= self.p and 1 <= j <= self.p):
                raise GraphFormatError(f"arc ({i},{j}) out of range 1..{self.p}")
            w = _norm_weight(w)
            if w != 0:
                arcs[(i, j)] = w
        object.__setattr__(self, "arcs", arcs)
        loops = {}
        for i, b in self.loops.items():
            if not 1 <= i <= self.p:
                raise GraphFormatError(f"loop at vertex {i} out of range 1..{self.p}")
            b = _norm_weight(b)
            if b != 0:
                loops[i] = b
        object.__setattr__(self, "loops", loops)
        if self.root is not None and not 1 <= self.root <= self.p:
            raise GraphFormatError(f"root {self.root} out of range 1..{self.p}")
        if self.parts is not None:
            if len(self.parts) != self.p or any(x not in (1, 2) for x in self.parts):
                raise GraphFormatError("parts must assign 1 or 2 to every vertex")
            for (i, j) in arcs:
                if self.parts[i - 1] == self.parts[j - 1]:
                    raise GraphFormatError(f"arc ({i},{j}) joins two vertices of part {self.parts[i - 1]}")

    # -- small accessors -------------------------------------------------

    def arc(self, i: int, j: int) -> Weight:
        return self.arcs.get((i, j), 0)

    def loop(self, i: int) -> Weight:
        return self.loops.get(i, 0)

    def with_root(self, r: int) -> "Graph":
        return replace(self, root=r)

    def with_parts(self, parts: Sequence[int]) -> "Graph":
        return replace(self, parts=tuple(parts))

    def part_sizes(self) -> tuple[int, int]:
        if self.parts is None:
            raise GraphFormatError("graph has no bipartition")
        return self.parts.count(1), self.parts.count(2)

    def __str__(self) -> str:
        bits = [f"p={self.p}", f"arcs={len(self.arcs)}"]
        if self.loops:
            bits.append(f"loops={sorted(self.loops)}")
        if self.root is not None:
            bits.append(f"root={self.root}")
        if self.parts is not None:
            bits.append(f"parts={self.parts}")
        return "Graph(" + ", ".join(bits) + ")"


# -- small factories -----------------------------------------------------


def k1(loop: Weight = 0, rooted: bool = True) -> Graph:
    return Graph(p=1, loops={1: loop} if loop else {}, root=1 if rooted else None)


def from_edges(n: int, edges: Iterable[tuple[int, int]], weight: Weight = 1) -> Graph:
    """Undirected graph: every edge becomes a symmetric arc pair."""
    arcs: dict[tuple[int, int], Weight] = {}
    for a, b in edges:
        arcs[(a, b)] = weight
        arcs[(b, a)] = weight
    return Graph(p=n, arcs=arcs)


def complete(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphFormatError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def star(leaves: int) -> Graph:
    """Star with center 1 and the given number of leaves."""
    return from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def relabel(g: Graph, mapping: Mapping[int, int]) -> Graph:
    """Apply a vertex permutation given as an old->new index map."""
    if sorted(mapping) != list(range(1, g.p + 1)) or sorted(mapping.values()) != list(range(1, g.p + 1)):
        raise GraphFormatError("relabel mapping must be a permutation of 1..p")
    arcs = {(mapping[i], mapping[j]): w for (i, j), w in g.arcs.items()}
    loops = {mapping[i]: b for i, b in g.loops.items()}
    parts = None
    if g.parts is not None:
        out = [0] * g.p
        for old, new in mapping.items():
            out[new - 1] = g.parts[old - 1]
        parts = tuple(out)
    return Graph(p=g.p, arcs=arcs, loops=loops,
                 root=mapping[g.root] if g.root is not None else None, parts=parts)


# -- coalescence and rooted products ---------------------------------------


def _require_root(g: Graph, what: str) -> int:
    if g.root is None:
        raise ValueError(f"{what} requires a rooted graph")
    return g.root


def coalesce(g: Graph, h: Graph) -> Graph:
    """Identify the two roots into one coalescence node.

    The merged node keeps the sum of both root loop weights and becomes the
    root of the result; h's other vertices are appended after g's.  This is
    the rooted product with h at g's root and a bare vertex elsewhere.
    """
    gamma = [k1()] * g.p
    gamma[_require_root(g, "coalesce") - 1] = h
    product, _ = rooted_product(g, gamma)
    return product


def multiple_coalesce(members: Sequence[Graph]) -> Graph:
    """Left fold of coalesce over one or more rooted graphs."""
    if not members:
        raise ValueError("multiple_coalesce needs at least one member")
    out = members[0]
    _require_root(out, "multiple_coalesce")
    for h in members[1:]:
        out = coalesce(out, h)
    return out


def rooted_product(core: Graph, gamma: Sequence[Graph]) -> tuple[Graph, list[dict[int, int]]]:
    """Attach gamma[k-1] at core vertex k by identifying its root with k.

    Returns the product and, per member, the map from member vertex indices
    to product vertex indices (the member root maps to its core vertex).
    The non-root vertices of each member follow, member by member, after the
    core's.  Every composite graph of this module is grafted here.
    """
    if len(gamma) != core.p:
        raise ValueError(f"gamma has {len(gamma)} members for a core with {core.p} vertices")
    arcs = dict(core.arcs)
    loops = dict(core.loops)
    maps: list[dict[int, int]] = []
    nxt = core.p + 1
    for k, h in enumerate(gamma, start=1):
        rh = _require_root(h, f"rooted_product member at core vertex {k}")
        mapping = {rh: k}
        for v in range(1, h.p + 1):
            if v != rh:
                mapping[v] = nxt
                nxt += 1
        for (i, j), w in h.arcs.items():
            arcs[(mapping[i], mapping[j])] = w
        for v, b in h.loops.items():
            t = mapping[v]
            loops[t] = loops.get(t, 0) + b
        maps.append(mapping)
    product = Graph(p=nxt - 1, arcs=arcs, loops=loops, root=core.root)
    return product, maps


def restricted_rooted_product(core: Graph, h1: Graph, h2: Graph) -> tuple[Graph, list[dict[int, int]]]:
    """Attach h1 at every part-1 vertex and h2 at every part-2 vertex."""
    if core.parts is None:
        raise ValueError("core not bipartitioned")
    core = normalize_parts(core)
    gamma = [h1 if core.parts[v - 1] == 1 else h2 for v in range(1, core.p + 1)]
    return rooted_product(core, gamma)


def normalize_parts(g: Graph) -> Graph:
    """Relabel parts so part 1 is the larger side; ties keep vertex 1 in part 1."""
    if g.parts is None:
        raise GraphFormatError("graph has no bipartition")
    n1, n2 = g.parts.count(1), g.parts.count(2)
    swap = n1 < n2 or (n1 == n2 and g.p > 0 and g.parts[0] == 2)
    if not swap:
        return g
    return replace(g, parts=tuple(3 - x for x in g.parts))


# -- root and loop surgery ---------------------------------------------------


def delete_root(h: Graph) -> Graph:
    """Remove the root vertex with all incident arcs and loops; reindex the rest."""
    r = _require_root(h, "delete_root")
    mapping = {}
    nxt = 1
    for v in range(1, h.p + 1):
        if v != r:
            mapping[v] = nxt
            nxt += 1
    arcs = {(mapping[i], mapping[j]): w for (i, j), w in h.arcs.items() if i != r and j != r}
    loops = {mapping[v]: b for v, b in h.loops.items() if v != r}
    return Graph(p=h.p - 1, arcs=arcs, loops=loops)


def strip_root_loops(h: Graph) -> Graph:
    """Zero the loop weight at the root, keeping everything else."""
    r = _require_root(h, "strip_root_loops")
    loops = {v: b for v, b in h.loops.items() if v != r}
    return replace(h, loops=loops)


def strip_all_loops(g: Graph) -> Graph:
    return replace(g, loops={})


def attach_root_loop(h: Graph, weight: Weight) -> Graph:
    """Replace the root loop weight of a copy of h by the given weight."""
    r = _require_root(h, "attach_root_loop")
    loops = {v: b for v, b in h.loops.items() if v != r}
    if weight != 0:
        loops[r] = weight
    return replace(h, loops=loops)


def edge_join(h1: Graph, h2: Graph, weight_product: Weight) -> Graph:
    """Disjoint union of two rooted graphs joined root-to-root by a 2-cycle.

    The forward arc carries weight_product and the reverse arc weight 1, so
    the joining 2-cycle contributes exactly weight_product.  This is the
    rooted product of h1 and h2 over a 2-vertex core carrying that 2-cycle;
    a zero weight leaves the core without arcs.
    """
    arcs = {(1, 2): weight_product, (2, 1): 1} if weight_product != 0 else {}
    product, _ = rooted_product(Graph(p=2, arcs=arcs), [h1, h2])
    return product


# -- dendrimers ----------------------------------------------------------------


@dataclass(frozen=True)
class DendrimerSpec:
    """Core graph plus the repeating rooted unit and its ordered attach sites."""

    core: Graph
    unit: Graph
    attach_sites: tuple[int, ...]
    generations: int

    def __post_init__(self):
        _require_root(self.unit, "dendrimer unit")
        sites = tuple(self.attach_sites)
        object.__setattr__(self, "attach_sites", sites)
        if len(sites) < 1:
            raise ValueError("at least one attach site is required")
        if len(set(sites)) != len(sites):
            raise ValueError("attach sites must be distinct")
        for s in sites:
            if type(s) is not int or not 1 <= s <= self.unit.p:
                raise ValueError(f"attach site {s!r} out of range")
            if s == self.unit.root:
                raise ValueError("attach sites must exclude the unit root")
        if type(self.generations) is not int or self.generations < 0:
            raise ValueError("generations must be a nonnegative integer")


@dataclass(frozen=True)
class Monodendron:
    """A built branch: its graph, outermost attach sites, and tier count."""

    graph: Graph
    frontier: tuple[int, ...]
    tiers: int


def monodendron(unit: Graph, attach_sites: Sequence[int], tiers: int) -> Monodendron:
    """Build the branch with the given number of tiers of unit copies.

    Tier 0 is a bare rooted single vertex; tier j attaches a fresh copy of the
    unit at each outermost attach site of tier j-1.  A branch with j tiers
    contains (d**j - 1) / (d - 1) unit copies for progressive degree d.
    """
    _require_root(unit, "monodendron unit")
    one_tier = Monodendron(unit, tuple(attach_sites), 1)
    out = Monodendron(k1(), (1,), 0)
    for _ in range(tiers):
        out = monodendron_star(out, one_tier)
    return out


def monodendron_star(a: Monodendron, b: Monodendron) -> Monodendron:
    """Compose two branches: a copy of b is attached at every frontier site of a.

    For branches built from the same unit the result is the canonical branch
    with a.tiers + b.tiers tiers.
    """
    gamma = [k1()] * a.graph.p
    for site in a.frontier:
        gamma[site - 1] = b.graph
    product, maps = rooted_product(a.graph, gamma)
    frontier = tuple(maps[site - 1][s] for site in a.frontier for s in b.frontier)
    return Monodendron(product, frontier, a.tiers + b.tiers)


def dendrimer(spec: DendrimerSpec) -> Graph:
    """Attach the generations-tier branch at every core vertex."""
    m = monodendron(spec.unit, spec.attach_sites, spec.generations)
    product, _ = rooted_product(spec.core, [m.graph] * spec.core.p)
    return product


def f_graph(core: Graph, h: Graph, s: int) -> Graph:
    """Iterated rooted product: step 0 is a single vertex, step 1 the core,
    and each further step attaches a copy of h at every vertex."""
    if s < 0:
        raise ValueError("iteration count must be nonnegative")
    if s == 0:
        return k1(rooted=False)
    out = core
    for _ in range(s - 1):
        out, _ = rooted_product(out, [h] * out.p)
    return out


# -- bipartition ----------------------------------------------------------------


def bipartition(g: Graph) -> tuple[int, ...]:
    """2-color each component by BFS, ignoring loops.

    Part 1 is the larger side; on a tie it is the side containing the lowest
    vertex index.  Raises NotBipartiteError on an odd cycle.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.p + 1)}
    for (i, j) in g.arcs:
        adj[i].add(j)
        adj[j].add(i)
    color = [0] * (g.p + 1)
    parts = [0] * (g.p + 1)
    for start in range(1, g.p + 1):
        if color[start]:
            continue
        color[start] = 1
        queue = [start]
        side = {1: [start], 2: []}
        while queue:
            v = queue.pop(0)
            for u in adj[v]:
                if not color[u]:
                    color[u] = 3 - color[v]
                    side[color[u]].append(u)
                    queue.append(u)
                elif color[u] == color[v]:
                    raise NotBipartiteError(f"odd cycle through vertices {v} and {u}")
        big, small = side[1], side[2]
        if len(big) < len(small) or (len(big) == len(small) and min(small, default=start) < min(big)):
            big, small = small, big
        for v in big:
            parts[v] = 1
        for v in small:
            parts[v] = 2
    return tuple(parts[1:])


# -- JSON interchange -------------------------------------------------------------


def _weight_from_json(value, where: str) -> Weight:
    if isinstance(value, bool):
        raise GraphFormatError(f"{where}: weight must be a number or 'num/den' string")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphFormatError(f"{where}: bad rational {value!r}") from exc
    raise GraphFormatError(f"{where}: weight must be an integer or 'num/den' string")


def _index_from_json(value, where: str) -> int:
    if type(value) is not int:  # bool is a subclass of int, and no vertex index
        raise GraphFormatError(f"{where} must be an integer, got {value!r}")
    return value


def _json_array(data: Mapping, field: str) -> list:
    value = data.get(field, [])
    if not isinstance(value, list):
        raise GraphFormatError(f"'{field}' must be a JSON array, got {value!r}")
    return value


def _weight_to_json(w: Weight):
    if isinstance(w, int):
        return w
    if isinstance(w, Fraction):
        return f"{w.numerator}/{w.denominator}"
    raise GraphFormatError("only exact rational weights can be serialized")


def graph_from_json(data: Mapping) -> Graph:
    """Build a graph from the JSON interchange dict.

    Expected shape: {"p": n, "arcs": [{"from","to","w"}], "loops": [{"at","b"}],
    "edges": [{"a","b","w"}], "root": i, "parts": [1|2,...]}, where "edges"
    is undirected shorthand expanding to two arcs of the same weight.
    """
    if not isinstance(data, Mapping):
        raise GraphFormatError("graph document must be a JSON object")
    if "p" not in data:
        raise GraphFormatError("missing field 'p'")
    p = data["p"]
    if type(p) is not int or p < 0:
        raise GraphFormatError(f"'p' must be a nonnegative integer, got {p!r}")
    arcs: dict[tuple[int, int], Weight] = {}
    for k, entry in enumerate(_json_array(data, "arcs")):
        try:
            i, j = entry["from"], entry["to"]
        except (TypeError, KeyError) as exc:
            raise GraphFormatError(f"arcs[{k}]: need 'from' and 'to'") from exc
        i, j = _index_from_json(i, f"arcs[{k}].from"), _index_from_json(j, f"arcs[{k}].to")
        w = _weight_from_json(entry.get("w", 1), f"arcs[{k}]")
        arcs[(i, j)] = arcs.get((i, j), 0) + w
    for k, entry in enumerate(_json_array(data, "edges")):
        try:
            a, b = entry["a"], entry["b"]
        except (TypeError, KeyError) as exc:
            raise GraphFormatError(f"edges[{k}]: need 'a' and 'b'") from exc
        a, b = _index_from_json(a, f"edges[{k}].a"), _index_from_json(b, f"edges[{k}].b")
        w = _weight_from_json(entry.get("w", 1), f"edges[{k}]")
        arcs[(a, b)] = arcs.get((a, b), 0) + w
        arcs[(b, a)] = arcs.get((b, a), 0) + w
    loops: dict[int, Weight] = {}
    for k, entry in enumerate(_json_array(data, "loops")):
        try:
            at = entry["at"]
        except (TypeError, KeyError) as exc:
            raise GraphFormatError(f"loops[{k}]: need 'at'") from exc
        at = _index_from_json(at, f"loops[{k}].at")
        b = _weight_from_json(entry.get("b", 0), f"loops[{k}]")
        loops[at] = loops.get(at, 0) + b
    root, parts = data.get("root"), data.get("parts")
    try:
        if root is not None:
            root = _index_from_json(root, "'root'")
        if parts is not None:
            parts = tuple(_index_from_json(x, f"parts[{k}]") for k, x in enumerate(_json_array(data, "parts")))
        return Graph(p=p, arcs=arcs, loops=loops, root=root, parts=parts)
    except GraphFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(str(exc)) from exc


def graph_to_json(g: Graph) -> dict:
    """Serialize to the JSON interchange dict (exact weights only)."""
    out: dict = {"p": g.p}
    if g.arcs:
        out["arcs"] = [{"from": i, "to": j, "w": _weight_to_json(w)}
                       for (i, j), w in sorted(g.arcs.items())]
    if g.loops:
        out["loops"] = [{"at": i, "b": _weight_to_json(b)} for i, b in sorted(g.loops.items())]
    if g.root is not None:
        out["root"] = g.root
    if g.parts is not None:
        out["parts"] = list(g.parts)
    return out
