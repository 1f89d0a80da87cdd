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
from math import prod
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


def _check_order(n: int) -> None:
    if n > MAX_PATTERN_VERTICES:
        raise ValueError(f"pattern has {n} > {MAX_PATTERN_VERTICES} vertices")


class Pattern:
    """A small graph to search for, paired with its canonical grammar name."""

    __slots__ = ("graph", "canonical_name", "plan", "size", "_floors")

    def __init__(self, graph: SimpleGraph):
        _check_order(graph.n)
        if graph.n < 2:
            raise ValueError("pattern must have at least 2 vertices")
        if any(graph.degree(v) == 0 for v in range(graph.n)):
            raise ValueError("pattern must not contain isolated vertices")
        self.graph = graph
        self.canonical_name = _canonical_name(graph)
        self.plan = search_plan(graph)
        self.size = graph.edge_count  # read on every rainbow search
        self._floors = None

    @property
    def floors(self) -> tuple[tuple[int, ...], ...]:
        """The plan's automorphism floors (see ``plan_floors``), built on
        first read: only rainbow search asks for them."""
        if self._floors is None:
            self._floors = plan_floors(self.graph, self.plan)
        return self._floors

    @property
    def automorphisms(self) -> int:
        """The number of automorphisms that map every component onto itself.

        By orbit-stabilizer it is the product over plan steps i of the orbit
        of p_i under those fixing p_0 ... p_{i-1}: p_i itself and the later
        steps whose floors list i.  A search with the floors finds each copy
        once, and one with the mirror floor alone this many times.
        """
        orbit = [1] * len(self.plan)
        for steps in self.floors:
            for i in steps:
                orbit[i] += 1
        return prod(orbit)

    @property
    def order(self) -> int:
        return self.graph.n

    def component_count(self) -> int:
        return len(self.graph.components())

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
    terms: list[tuple[int, SimpleGraph]] = []
    while True:
        match = _TERM_RE.match(name, pos)
        if match is None:
            raise ValueError(f"bad pattern name {name!r} at position {pos}")
        count = int(match.group(1)) if match.group(1) else 1
        if count < 1:
            raise ValueError(f"zero count in pattern name {name!r}")
        terms.append((count, BASE_GRAPHS[match.group(2)]))
        pos = match.end()
        if pos == len(name):
            break
        if name[pos] != "u":
            raise ValueError(f"bad pattern name {name!r} at position {pos}")
        pos += 1
    # refuse before building: disjoint_union costs grow with the count
    _check_order(sum(count * base.n for count, base in terms))
    return Pattern(disjoint_union([base for count, base in terms for _ in range(count)]))


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
    _check_order(n)
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
# placed one after another, most-constrained vertex first.  Candidates are
# tried in increasing order, so the search visits solutions in
# lexicographic order of their step images.  The backtracker is one loop
# over a stack of candidate iterators, one per open step, so each map is
# yielded once rather than passed up through a generator frame per step.
#
# Mirror floor: consecutive copies of one base graph are embedded with
# strictly increasing least image vertex, which removes the copy-permutation
# symmetry without losing any distinct image.  A copy's least image exceeds
# L exactly when every image in it does, so every step of a mirrored copy
# starts its candidates above the least image of the copy before it: one
# integer compare made before any color lookup.
#
# Automorphism floors: when the caller passes the pattern's floors, a step
# also starts its candidates above the image of each earlier step whose
# vertex the automorphisms fixing the steps before it, and mapping every
# component to itself, move onto this step's vertex: K3 is placed u < v < w
# and a K1_3's leaves in ascending order.  This is the stabilizer-chain
# symmetry breaking that Puget showed sound for injective searches (IJCAI
# 2005); these automorphisms keep each component's image set, so they keep
# the mirror floor too.  For injective maps the floors keep exactly one map
# per orbit of those automorphisms, the least in step order, so a search
# with them meets each copy once (Pattern.automorphisms counts the rest).
# Each pattern builds its floors once, on its first rainbow search
# (``plan_floors``).
#
# Refutation: a caller may pass a test that proves no map exists.  It costs
# a host cache too, so the search asks it only at its TWIN_DELAY-th node,
# first, and returns there when the test says so.
#
# Twin rule: when the caller passes a way to get the host's twin classes, a
# candidate is skipped if the previous member of its class is unused and not
# below the step's lowest candidate.  The classes cost a pass over the host,
# so a search asks for them only at the TWIN_DELAY-th node, after the
# refutation, and switches the rule on there, in place: open steps prune
# their remaining candidates too, and a short search never pays for the
# classes.  ``embeddings`` proves that neither rule loses the first
# solution.  Rainbow existence search uses both rules and rainbow
# enumeration the floors alone, since the twin rule skips copies that are
# not the first; subgraph tests use neither.
#
# Bitset domains: when the caller passes a way to get the host's per-color
# masks, the same node switches the candidate source, in both search modes.
# From there on each new node builds its candidates as one bitmask, as in
# Ullmann's bit-vector refinement: the vertices at or above the floor that
# are adjacent to every anchor image, less each anchor image's masks of the
# colors already used and, for each pair of anchors, the vertices that see
# both in one color.  Its bits, walked in ascending order, are exactly the
# candidates the scalar checks accept (a used vertex, which the mask keeps,
# fails its set check), so the maps and their order do not change.  Steps
# open at the switch finish on the scalar loop.  A host with more colors
# than core.SEARCH_MASK_COLORS builds no masks and keeps the scalar loop.
# Each map comes with its color set, which the search already holds.
# ---------------------------------------------------------------------------


def search_plan(g: SimpleGraph) -> tuple[tuple, ...]:
    """The placement steps of g, one per vertex, in placement order.

    A step is (vertex, its already placed neighbors, whether it starts a
    component, mirror).  mirror is None except on the steps of a copy of the
    base graph placed just before it; there it is the index of the step that
    closed that previous copy.
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
        # repeated components that are not base graphs only lose this pruning
        d = degrees(comp)
        mirrored = ci > 0 and d == degrees(comps[ci - 1]) and d in _BASE_BY_DEGREES
        mirror = len(steps) - 1 if mirrored else None
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
            steps.append((v, anchors, len(pending) == len(comp) - 1, mirror))
            placed |= 1 << v
    return tuple(steps)


def plan_floors(g: SimpleGraph, plan) -> tuple[tuple[int, ...], ...]:
    """The automorphism floors of a plan of g: for each step j, the earlier
    steps i such that an automorphism of g that fixes p_0 ... p_{i-1} and
    maps every component to itself sends p_i to p_j (p_k is step k's
    vertex).

    Such an automorphism can be the identity off p_j's component, and the
    plan places that component in one run of steps, so each pair is settled
    by a small backtracking search over the rest of that run.
    """
    order = [step[0] for step in plan]
    bounds = [j for j, step in enumerate(plan) if step[2]] + [len(plan)]
    floors: list[tuple[int, ...]] = []
    for start, end in zip(bounds, bounds[1:]):
        run = order[start:end]
        for k, p in enumerate(run):
            floors.append(tuple(start + i for i in range(k) if _moves(g, run, i, p)))
    return tuple(floors)


def _moves(g: SimpleGraph, run: list[int], k: int, target: int) -> bool:
    """Whether an automorphism of the component whose vertices ``run``
    lists in plan order fixes run[:k] and sends run[k] to ``target``."""
    adj = g.adj_bits
    sigma = {v: v for v in run[:k]}

    def extend(m: int, placed: int, images: int) -> bool:
        if m == len(run):
            return True
        v = run[m]
        # the images of v's placed neighbors: exactly w's placed neighbors
        wanted = 0
        for u in iter_bits(adj[v] & placed):
            wanted |= 1 << sigma[u]
        for w in (target,) if m == k else run:
            if images >> w & 1 or (adj[w] & images) != wanted or g.degree(w) != g.degree(v):
                continue
            sigma[v] = w
            if extend(m + 1, placed | 1 << v, images | 1 << w):
                return True
        return False

    fixed = sum(1 << v for v in run[:k])
    return extend(k, fixed, fixed)


# search nodes visited before the refutation, twin classes and color masks
# are asked for: 81 of the 15,000 existence searches of
# micro_crosscheck(6, 3, s, 10) over s < 500 reach it, and a freeness proof
# on a construction passes it at once
TWIN_DELAY = 16


def embeddings(
    vertex_count: int, pair_color, plan, twins=None, color_masks=None, floors=None, refute=None
) -> Iterator[tuple[tuple[int, ...], frozenset]]:
    """Every injective map (symmetry-reduced) with pairwise distinct edge
    colors, with its set of colors, in lexicographic order of step images.
    ``plan`` has at least one step: every ``Pattern`` has two or more
    vertices, and ``is_subgraph`` answers the empty graph itself.  A node
    reads its step from the plan once, and again only when the search
    backtracks to it.

    ``color_masks``, when given, returns the host's per-color adjacency
    masks, as a host's ``search_masks`` does, or None to keep the scalar
    loop.  The search asks for them at its TWIN_DELAY-th node and walks
    each later node's candidate bitmask (see the engine comment above).

    ``refute``, when given, is called at the TWIN_DELAY-th node, before
    anything else is asked for; a true answer must prove that no map
    exists, and the search returns there.

    ``floors`` and ``twins`` prune the search.  Call S the first solution
    of the search without either: the one under the mirror floor alone.
    Neither rule ever skips one of S's images, and both only skip
    candidates, so the pruned search visits a subset of the same tree in
    the same order and meets S first.  The first map yielded is S, and
    none is yielded exactly when none exists.

    ``floors``, when given, is the pattern's ``floors``, and a step's
    candidates start one above the image of each of its floor steps.  Proof
    that S passes: let i be a floor of step j, so an automorphism s of the
    pattern fixes p_0 ... p_{i-1}, sends p_i to p_j and maps every
    component onto itself.  The map T(v) = S(s(v)) is an injection with
    S's image edges, so it is rainbow.  It gives each component S's image
    set, so every least image and the mirror floor hold for it too.  T
    agrees with S before step i and has T(p_i) = S(p_j), so S(p_j) < S(p_i)
    would make T a solution before S.  Hence S(p_i) < S(p_j).

    With the floors and no twins the search yields exactly one map per
    orbit of these automorphisms, the least in step order, so it meets
    every copy once and the search without them meets it
    ``Pattern.automorphisms`` times.  The automorphisms keep the mirror
    floor, as above, and act freely on injections.  A map f that is not
    the least of its orbit breaks a floor: the least is f(s(.)) for some
    s, which first differs from f at a step i, so s fixes p_0 ... p_{i-1}
    and sends p_i to some p_j with j > i (i is a floor of j) and
    f(p_j) < f(p_i).  The least map keeps every floor, by the argument for
    S with its orbit in place of all solutions.

    ``twins``, when given, returns the host's ``twin_prev()`` as ``prev``.
    The search asks for it at its TWIN_DELAY-th node, and from then on skips
    a candidate c when its previous twin c' = prev[c] is unused and at or
    above the step's lowest candidate, which the floors may have raised.
    Proof that S passes: suppose the rule skips S's image c at step i for
    c'.  Neither c nor c' is an image of an earlier step.  The swap (c c')
    is a color-preserving automorphism of the host, so it maps S to another
    rainbow injection S'.  Re-sort each run of identical components by
    least image.  Copies before step i's copy are unchanged.  Step i's copy
    keeps its place: its images all stay at or above the mirror floor, as
    c' is at or above the step's lowest candidate, and its least image only
    falls while the copy that held c' only gains.  So the result agrees
    with S before step i, has c' < c at step i, and passes the mirror
    floor: a solution before S, a contradiction.  The argument looks at one
    skip at a time, so the rule may switch on at any node, even partway
    through a step's candidates.
    """
    size = len(plan)
    if size > vertex_count:
        raise ValueError("pattern larger than host")
    nv = vertex_count
    image = [-1] * size  # pattern vertex -> host vertex
    least = [nv] * size  # step -> least image in its component so far
    used_vertices: set[int] = set()
    used_colors: set = set()
    prev = domain = None
    hooked = twins is not None or color_masks is not None or refute is not None
    delay = TWIN_DELAY if hooked else 0
    if floors is None:
        floors = ((),) * size
    # per open step: its lowest candidate, its candidate iterator, and the
    # colors its current image added
    lowest = [0] * size
    options: list = [None] * size
    added: list = [None] * size
    i = 0
    while True:
        # open step i: one search node
        if delay:
            delay -= 1
            if not delay:
                if refute is not None and refute():
                    return
                if twins is not None:
                    prev = twins()
                masks = None if color_masks is None else color_masks()
                if masks is not None:
                    domain = _candidate_masks(nv, plan, masks, image, used_colors)
        p, anchors, starts, mirror = plan[i]
        # every image of a mirrored copy exceeds its predecessor's least image
        first = 0 if mirror is None else least[mirror] + 1
        for f in floors[i]:
            x = image[plan[f][0]]
            if x >= first:
                first = x + 1
        lowest[i] = first
        # a domain's candidates pass the color checks below, which still
        # read the colors the map takes
        cands = options[i] = iter(range(first, nv)) if domain is None else iter_bits(domain(i, first))
        # place the next candidate of step i, backtracking while none is left
        while True:
            for cand in cands:
                if cand in used_vertices:
                    continue
                if prev is not None and prev[cand] >= first and prev[cand] not in used_vertices:
                    continue
                new_colors = []
                for q in anchors:
                    c = pair_color(cand, image[q])
                    if c is None or c in used_colors or c in new_colors:
                        break
                    new_colors.append(c)
                else:
                    break
            else:
                i -= 1
                if i < 0:
                    return
                p, anchors, starts, _ = plan[i]
                first, cands = lowest[i], options[i]
                used_vertices.remove(image[p])
                used_colors.difference_update(added[i])
                continue
            image[p] = cand
            below = nv if starts else least[i - 1]
            least[i] = cand if cand < below else below
            used_vertices.add(cand)
            used_colors.update(new_colors)
            if i + 1 < size:
                added[i] = new_colors
                break
            yield tuple(image), frozenset(used_colors)
            used_vertices.remove(cand)
            used_colors.difference_update(new_colors)
        i += 1


def _candidate_masks(nv, plan, masks, image, used_colors):
    """``domain(i, first)``: step i's candidate bitmask from ``first`` on,
    read from the search's live ``image`` and ``used_colors``.  Adjacency
    and anchor pairs are built once, here, at the switch."""
    rows = tuple(masks.values())
    adjacent = [0] * nv
    for row in rows:
        adjacent = [a | b for a, b in zip(adjacent, row)]
    pairs = [tuple(combinations(anchors, 2)) for _, anchors, _, _ in plan]
    everything = (1 << nv) - 1

    def domain(i: int, first: int) -> int:
        mask = everything >> first << first
        taken = 0
        for q in plan[i][1]:
            x = image[q]
            mask &= adjacent[x]
            for c in used_colors:
                taken |= masks[c][x]
        for q, r in pairs[i]:
            x, y = image[q], image[r]
            for row in rows:
                taken |= row[x] & row[y]
        return mask & ~taken

    return domain


def _as_graph(g) -> SimpleGraph:
    return g.graph if isinstance(g, Pattern) else g


def is_subgraph(g, h) -> bool:
    """True iff g is isomorphic to a (not necessarily induced) subgraph of h."""
    G, H = _as_graph(g), _as_graph(h)
    if G.n > H.n or G.edge_count > H.edge_count:
        return False
    if not G.n:  # the empty graph has an empty plan, and embeds everywhere
        return True
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
