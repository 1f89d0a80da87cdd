"""Small pattern graphs: the name grammar, the pattern-search engine shared by
subgraph tests and rainbow search, and the catalog sets.

The grammar names disjoint unions of eight base graphs:

    pattern := term ('u' term)*
    term    := [count] base
    base    := K2 | P3 | P4 | P5 | P6 | K3 | K1_3 | P4plus

"P4plus" is the 5-vertex tree with degree sequence 1,1,1,2,3.  Explicit
patterns are written "V:<n>;E:a-b,c-d,...".  Patterns never carry isolated
vertices and have at most 12 vertices.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .core import SimpleGraph, induced_subgraph, iter_bits

MAX_PATTERN_VERTICES = 12


def _path(k: int) -> SimpleGraph:
    return SimpleGraph(k, [(i, i + 1) for i in range(k - 1)])


def _star(leaves: int) -> SimpleGraph:
    return SimpleGraph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


BASE_GRAPHS: dict[str, SimpleGraph] = {
    "K2": _path(2),
    "P3": _path(3),
    "P4": _path(4),
    "P5": _path(5),
    "P6": _path(6),
    "K3": SimpleGraph(3, [(0, 1), (1, 2), (0, 2)]),
    "K1_3": _star(3),
    # path 0-1-2-3 with an extra leaf at vertex 2
    "P4plus": SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
}

# display order for canonical names: by (order, edge count, label)
_BASE_ORDER = sorted(BASE_GRAPHS, key=lambda b: (BASE_GRAPHS[b].n, BASE_GRAPHS[b].edge_count, b))

# each base graph is the only connected graph with its degree sequence, so
# a component's sorted degrees name its base exactly
_BASE_BY_DEGREES = {g.degree_sequence(): b for b, g in BASE_GRAPHS.items()}

_TERM_RE = re.compile(r"(\d*)(K1_3|K2|K3|P4plus|P3|P4|P5|P6)")


def disjoint_union(graphs: list[SimpleGraph]) -> SimpleGraph:
    bits: list[int] = []
    for g in graphs:
        bits += [b << len(bits) for b in g.adj_bits]
    return SimpleGraph._from_bits(bits)


class Pattern:
    """A small graph to search for, paired with its canonical grammar name."""

    __slots__ = ("graph", "canonical_name", "plan")

    def __init__(self, graph: SimpleGraph):
        if graph.n > MAX_PATTERN_VERTICES:
            raise ValueError(f"pattern has {graph.n} > {MAX_PATTERN_VERTICES} vertices")
        if graph.n < 2:
            raise ValueError("pattern must have at least 2 vertices")
        if any(graph.degree(v) == 0 for v in range(graph.n)):
            raise ValueError("pattern must not contain isolated vertices")
        self.graph = graph
        self.canonical_name = _canonical_name(graph)
        self.plan = search_plan(graph)

    @property
    def order(self) -> int:
        return self.graph.n

    @property
    def size(self) -> int:
        return self.graph.edge_count

    def component_count(self) -> int:
        return len(self.graph.components())

    def max_degree(self) -> int:
        return self.graph.max_degree()

    def __eq__(self, other) -> bool:
        return isinstance(other, Pattern) and is_isomorphic(self, other)

    def __hash__(self) -> int:
        g = self.graph
        return hash((g.n, g.edge_count, g.degree_sequence()))

    def __repr__(self) -> str:
        return f"Pattern({self.canonical_name!r})"


def parse_pattern(name: str) -> Pattern:
    """Parse a grammar or explicit-edge-list name into a Pattern."""
    name = name.strip()
    if name.startswith("V:"):
        return Pattern(_parse_explicit(name))
    pos = 0
    parts: list[SimpleGraph] = []
    while True:
        match = _TERM_RE.match(name, pos)
        if match is None:
            raise ValueError(f"bad pattern name {name!r} at position {pos}")
        count = int(match.group(1)) if match.group(1) else 1
        if count < 1:
            raise ValueError(f"zero count in pattern name {name!r}")
        parts.extend([BASE_GRAPHS[match.group(2)]] * count)
        pos = match.end()
        if pos == len(name):
            break
        if name[pos] != "u":
            raise ValueError(f"bad pattern name {name!r} at position {pos}")
        pos += 1
    return Pattern(disjoint_union(parts))


def _parse_explicit(name: str) -> SimpleGraph:
    m = re.fullmatch(r"V:(\d+);E:(.*)", name)
    if m is None:
        raise ValueError(f"bad explicit pattern {name!r}")
    n = int(m.group(1))
    edges = []
    spec = m.group(2).strip()
    if spec:
        for item in spec.split(","):
            em = re.fullmatch(r"(\d+)-(\d+)", item.strip())
            if em is None:
                raise ValueError(f"bad edge token {item!r} in {name!r}")
            edges.append((int(em.group(1)), int(em.group(2))))
    return SimpleGraph(n, edges)


def _canonical_name(graph: SimpleGraph) -> str:
    names = []
    for comp in graph.components():
        degrees = tuple(sorted((graph.degree(v) for v in comp), reverse=True))
        if degrees not in _BASE_BY_DEGREES:
            return _explicit_name(graph)
        names.append(_BASE_BY_DEGREES[degrees])
    counts = [(names.count(base), base) for base in _BASE_ORDER]
    return "u".join(f"{c}{base}" if c > 1 else base for c, base in counts if c)


def _explicit_name(graph: SimpleGraph) -> str:
    edges = ",".join(f"{u}-{v}" for u, v in sorted(graph.edges))
    return f"V:{graph.n};E:{edges}"


# ---------------------------------------------------------------------------
# The pattern-search engine: one planner, one backtracker
#
# Every search embeds a pattern injectively into a host given as a vertex
# count and a pair_color(a, b) accessor that returns the color of edge ab,
# or None for a non-edge.  An embedding is accepted when all mapped edge
# colors are pairwise distinct; that is a rainbow copy on colored hosts, and
# a plain subgraph copy when pair_color names each host edge by its
# endpoints.  The plan is one step per pattern vertex: components are
# placed one after another, most-constrained vertex first.  Consecutive
# copies of one base graph are embedded with strictly increasing least image
# vertex, which removes the copy-permutation symmetry without losing any
# distinct image.  The backtracker keeps each step's running least image, so
# this mirror test is one integer compare made before any color lookup: it
# sets the lowest candidate of the step that closes a mirrored component.
# ---------------------------------------------------------------------------


def search_plan(g: SimpleGraph) -> tuple[tuple, ...]:
    """The placement steps of g, one per vertex, in placement order.

    A step is (vertex, its already placed neighbors, whether it starts a
    component, mirror).  mirror is None except on the step that closes a
    copy of the base graph placed just before it; there it is the index of
    the step that closed that previous copy.
    """
    def degrees(c) -> tuple[int, ...]:
        return tuple(sorted((g.degree(v) for v in c), reverse=True))

    comps = sorted(
        g.components(),
        key=lambda c: (-len(c), -sum(g.degree(v) for v in c), degrees(c), min(c)),
    )
    steps: list[tuple] = []
    placed = 0
    for ci, comp in enumerate(comps):
        pending = set(comp)
        while pending:
            # earlier components are not adjacent, so the first pick of a
            # component is its highest-degree vertex
            v = max(
                pending,
                key=lambda u: ((g.adj_bits[u] & placed).bit_count(), g.degree(u), -u),
            )
            pending.remove(v)
            anchors = tuple(iter_bits(g.adj_bits[v] & placed))
            steps.append((v, anchors, len(pending) == len(comp) - 1, None))
            placed |= 1 << v
        # repeated components that are not base graphs only lose this pruning
        d = degrees(comp)
        if ci and d == degrees(comps[ci - 1]) and d in _BASE_BY_DEGREES:
            steps[-1] = steps[-1][:3] + (len(steps) - 1 - len(comp),)
    return tuple(steps)


def embeddings(vertex_count: int, pair_color, plan) -> Iterator[tuple[int, ...]]:
    """Every injective map (symmetry-reduced) with pairwise distinct edge colors."""
    if len(plan) > vertex_count:
        raise ValueError("pattern larger than host")
    nv = vertex_count
    image = [-1] * len(plan)  # pattern vertex -> host vertex
    least = [nv] * len(plan)  # step -> least image in its component so far
    used_vertices: set[int] = set()
    used_colors: set = set()

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(plan):
            yield tuple(image)
            return
        p, anchors, starts, mirror = plan[i]
        below = nv if starts else least[i - 1]
        first = 0
        if mirror is not None:
            # the component's least image must exceed its predecessor's
            if below <= least[mirror]:
                return
            first = least[mirror] + 1
        for cand in range(first, nv):
            if cand in used_vertices:
                continue
            new_colors = []
            ok = True
            for q in anchors:
                c = pair_color(cand, image[q])
                if c is None or c in used_colors or c in new_colors:
                    ok = False
                    break
                new_colors.append(c)
            if not ok:
                continue
            image[p] = cand
            least[i] = cand if cand < below else below
            used_vertices.add(cand)
            used_colors.update(new_colors)
            yield from extend(i + 1)
            used_vertices.remove(cand)
            used_colors.difference_update(new_colors)

    yield from extend(0)


def _as_graph(g) -> SimpleGraph:
    return g.graph if isinstance(g, Pattern) else g


def is_subgraph(g, h) -> bool:
    """True iff g is isomorphic to a (not necessarily induced) subgraph of h."""
    G, H = _as_graph(g), _as_graph(h)
    if G.n > H.n or G.edge_count > H.edge_count:
        return False
    if any(a > b for a, b in zip(G.degree_sequence(), H.degree_sequence())):
        return False
    plan = g.plan if isinstance(g, Pattern) else search_plan(G)

    # an injective map sends distinct pattern edges to distinct host edges,
    # so naming each edge by its endpoints makes the colors distinct
    def pair_color(a: int, b: int):
        return (a, b) if H.has_edge(a, b) else None

    return next(embeddings(H.n, pair_color, plan), None) is not None


def is_isomorphic(g, h) -> bool:
    G, H = _as_graph(g), _as_graph(h)
    if G.n != H.n or G.edge_count != H.edge_count:
        return False
    if G.degree_sequence() != H.degree_sequence():
        return False
    # equal vertex and edge counts turn any subgraph embedding into an isomorphism
    return is_subgraph(g, h)


# ---------------------------------------------------------------------------
# Catalog sets
#
# G_SET: connected graphs whose forbidden-rainbow condition forces an almost
#        spanning k-connected monochromatic subgraph.
# H_SET: the disconnected analogue; H2_SET its two-component members.
# A_SET: union of the two.
# B_SET: the bipartite-host analogue.
#
# Each is the downward closure (order >= 3, no isolated vertices, and the
# per-set component-count rule) of a short list of maximal elements.
# ---------------------------------------------------------------------------

G_SET = "G"
H_SET = "H"
H2_SET = "H2"
A_SET = "A"
B_SET = "B"

_MAXIMAL = {
    G_SET: ["K3", "P6", "P4plus"],
    H_SET: ["P3uP4", "K2uP5", "K2u2P3", "2K2uK3", "2K2uP4plus", "3K2uK1_3"],
    B_SET: ["2P3", "2K2uK1_3"],
}


def _all_subpatterns(g: SimpleGraph) -> list[SimpleGraph]:
    """Every subgraph obtained by keeping a subset of edges, isolated vertices dropped."""
    edge_list = sorted(g.edges)
    out = []
    for r in range(1, len(edge_list) + 1):
        for chosen in combinations(edge_list, r):
            sub = SimpleGraph(g.n, chosen)
            out.append(induced_subgraph(sub, sub.support()))
    return out


def _closure(maximal: list[str], keep) -> tuple[Pattern, ...]:
    found: list[Pattern] = []
    for name in maximal:
        top = parse_pattern(name).graph
        for sub in _all_subpatterns(top):
            if sub.n < 3 or not keep(sub):
                continue
            if not any(is_isomorphic(sub, p.graph) for p in found):
                found.append(Pattern(sub))
    found.sort(key=lambda p: (p.order, p.size, p.canonical_name))
    return tuple(found)


@lru_cache(maxsize=None)
def catalog_members(set_id: str) -> tuple[Pattern, ...]:
    """The members of a catalog set, without isomorphic duplicates."""
    if set_id == G_SET:
        return _closure(_MAXIMAL[G_SET], lambda g: g.is_connected())
    if set_id == H_SET:
        return _closure(_MAXIMAL[H_SET], lambda g: len(g.components()) >= 2)
    if set_id == H2_SET:
        return tuple(p for p in catalog_members(H_SET) if p.component_count() == 2)
    if set_id == A_SET:
        members = list(catalog_members(G_SET)) + list(catalog_members(H_SET))
        members.sort(key=lambda p: (p.order, p.size, p.canonical_name))
        return tuple(members)
    if set_id == B_SET:
        return _closure(_MAXIMAL[B_SET], lambda g: True)
    raise ValueError(f"unknown catalog set {set_id!r}")


def in_set(p: Pattern, set_id: str) -> bool:
    """Decide membership by isomorphism against the precomputed closure."""
    return any(is_isomorphic(p, member) for member in catalog_members(set_id))
