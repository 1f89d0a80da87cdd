"""Rainbow-copy detection: find injective embeddings of a pattern into a
colored host such that all mapped edge colors are pairwise distinct.

The search is the pattern-search engine in ``patterns`` run on the host's
``pair_color``.  Hosts are complete or complete bipartite, so color
distinctness carries the pruning; edge existence only matters on bipartite
hosts (same-side pairs are non-edges).  Repeated base-graph components are
placed in increasing order of least image, and every step of a mirrored
copy starts above the least image of the copy before it.

Both searches hand the engine the host's ``search_masks``.  At the
engine's ``patterns.TWIN_DELAY``-th node, with no restart, every later node
takes its candidates from one bitmask built from the host's per-color
masks, so a step no longer reads the color of every host vertex.  A host
with more than ``core.SEARCH_MASK_COLORS`` colors builds no masks and stays
on the scalar loop.  Each map comes with its color set from the search,
which ``Embedding.colors`` holds as it is.

Both searches hand the engine the pattern's automorphism floors, which
make it place each rainbow copy once, not once per automorphism of the
pattern: K3 as u < v < w, a star's leaves in ascending order.
``find_rainbow`` also hands it the host's twin classes (vertices that every
other vertex sees in one color), switched on at the same node as the
masks, so it tries a run of unused twins once, not once per member; the
paper's constructions are a few blocks plus a quotient coloring, so this
cuts their freeness proofs by orders of magnitude.  ``enumerate_rainbow``
leaves the twin rule out, because it skips copies that are not the first.
``patterns.embeddings`` proves that the first witness stays the one the
search with the mirror floor alone finds, and that the floors keep one map
per copy.  A host with fewer colors than the pattern has edges has no
rainbow copy, and ``find_rainbow`` answers it without a search.

At the switch node, before the twin classes, ``find_rainbow`` first asks
the host's third cache, its color-pair relations (which colors meet, and
which lie apart, on some two edges), whether any assignment of distinct
colors to the pattern's edges could fit them.  When none can, there is no
copy and the search returns None there; the paper's freeness claims on its
constructions are such color-pair arguments.  A refutation only ends a
search that would find nothing, so every answer and witness stays the one
the search gives.

``find_rainbow_triangle``, which decides Gallai colorings, scans the
per-color masks pair by pair where the host has them, and hands the other
hosts to ``find_rainbow`` with K3.  After vertex 0's row it counts the
host's rainbow triangles from the masks, with one popcount per edge and
none per color, and a count of zero proves the host Gallai with no further
scan.  Nothing here reads the host's storage.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, NamedTuple

from .core import Host, ColoredComplete, _certify, iter_bits
from .patterns import Pattern, embeddings, parse_pattern

_K3 = parse_pattern("K3")

# assignments the color-pair refutation may try before it leaves the
# question to the search.  The registry's refutations try at most 38.  Over
# the paper's constructions with 4-16 colors and every grammar pattern of
# up to six terms, a refutation took at most 51 tries and a found
# assignment at most 1,001; 4,096 tries take about 5 ms.
PAIR_NODES = 4096


class Embedding(NamedTuple):
    """An injective map witnessing a rainbow copy of a pattern in a host."""

    pattern: Pattern
    mapping: tuple[int, ...]  # pattern vertex i -> host (global) vertex
    colors: frozenset[int]

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern.canonical_name,
            "map": list(self.mapping),
            "colors": sorted(self.colors),
        }


def validate_embedding(host: Host, pattern: Pattern, mapping) -> None:
    """Independent soundness check: injective, edges present, colors distinct."""
    g = pattern.graph
    mapping = tuple(mapping)
    if len(mapping) != g.n:
        raise ValueError("mapping length does not match pattern order")
    if len(set(mapping)) != g.n:
        raise ValueError("mapping is not injective")
    nv = host.vertex_count
    if mapping and (min(mapping) < 0 or max(mapping) >= nv):
        raise ValueError("mapping target outside host")
    seen: set[int] = set()
    for u, v in g.edges:
        c = host.pair_color(mapping[u], mapping[v])
        if c is None:
            raise ValueError(f"pattern edge ({u},{v}) maps to a non-edge")
        if c in seen:
            raise ValueError(f"color {c} repeated")
        seen.add(c)


def find_rainbow(host: Host, pattern: Pattern) -> Embedding | None:
    """One rainbow embedding of the pattern, or None when none exists.

    A copy needs one color per pattern edge, so a host that declares or
    uses fewer colors is rainbow-free with no search.  Otherwise the search
    is exhaustive up to twin swaps and pattern automorphisms, or stops at
    its switch node where ``_refuted_by_pairs`` proves that no copy exists,
    so None certifies rainbow-freeness; a found map is the first one of the
    search with the mirror floor alone, which is also
    ``enumerate_rainbow``'s.
    """
    nv = host.vertex_count
    if pattern.order > nv:
        raise ValueError("pattern larger than host")
    if pattern.size > host.m or pattern.size > len(host.used_colors()):
        return None
    found = embeddings(
        nv,
        host.pair_color,
        pattern.plan,
        host.twin_prev,
        host.search_masks,
        pattern.floors,
        lambda: _refuted_by_pairs(host, pattern),
    )
    for mapping, colors in found:
        _certify(validate_embedding, host, pattern, mapping)
        return Embedding(pattern, mapping, colors)
    return None


def _refuted_by_pairs(host: Host, pattern: Pattern) -> bool:
    """Whether the host's ``_color_pairs`` prove the pattern rainbow-free.

    A rainbow copy gives each pattern edge its own used color, such that
    two edges that meet get colors that meet in the host and two disjoint
    edges get colors that lie apart, as the map is injective.  So no such
    assignment means no copy.  The assignment is searched edge by edge in
    plan order, and a color is skipped while its previous twin is unused:
    swapping the two maps the assignments that use it onto those that use
    the twin.  False when the host has no relations, when an assignment is
    found, or when PAIR_NODES tries do not settle it.
    """
    relations = host._color_pairs()
    if relations is None:
        return False
    ends = [{p, q} for p, anchors, _, _ in pattern.plan for q in anchors]
    # for each edge, per earlier edge: 0 (meets) or 1 (apart), the index
    # of the relation their colors need
    needs = [[int(not e & f) for f in ends[:i]] for i, e in enumerate(ends)]
    colors = [0] * len(ends)
    budget = PAIR_NODES

    def assign(i: int, free: int) -> bool:
        nonlocal budget
        if i == len(ends):
            return True
        allowed = free
        for c, need in zip(colors, needs[i]):
            allowed &= relations[c][need]
        for c in iter_bits(allowed):
            if relations[c][2] & free:
                continue
            budget -= 1
            colors[i] = c
            if budget < 0 or assign(i + 1, free ^ 1 << c):
                return True
        return False

    return not assign(0, sum(1 << c for c in relations))


def enumerate_rainbow(host: Host, pattern: Pattern) -> Iterator[Embedding]:
    """Rainbow embeddings, one per rainbow copy, in lexicographic order of
    step images.  Each stands for ``pattern.automorphisms`` rainbow maps,
    its compositions with the automorphisms that map every component onto
    itself, which a search with the mirror floor alone yields.  (Repeated
    components that are not base graphs get no mirror floor, so such a copy
    appears once per order of those components.)"""
    found = embeddings(
        host.vertex_count,
        host.pair_color,
        pattern.plan,
        color_masks=host.search_masks,
        floors=pattern.floors,
    )
    for mapping, colors in found:
        yield Embedding(pattern, mapping, colors)


def find_rainbow_triangle(host: ColoredComplete) -> Embedding | None:
    """The lexicographically first rainbow triangle (i < j < k) of a
    complete host, or None when there is none (the host is Gallai).

    With M the host's ``search_masks`` and c the color of ij, the k that
    make ijk rainbow are those outside ``M_c[i] | M_c[j] | OR_d (M_d[i] &
    M_d[j])``, since k must see i and j in two distinct colors other than
    c; the lowest of them above j is the least such k.  For each i in
    order, the j > i are walked one color class M_c[i] at a time, and the
    least j that has such a k gives the first triangle at i.  Once vertex
    0's row has none, ``_rainbow_triangles`` counts them all, and a count
    of zero ends the scan: the host is Gallai.  A host with
    more than ``SEARCH_MASK_COLORS`` colors builds no masks, and
    ``find_rainbow`` answers it with the same triangle: K3's floors place
    it as i < j < k, and the first map of the search with the mirror floor
    alone is the lexicographically first one.  A host that uses fewer than
    three colors has no rainbow triangle and is answered with no scan.

    Every scan returns from inside its loop.  A host past the color gate
    has n >= 3.  At n = 3 its one triangle is rainbow.  Above that, row 1
    either returns None on a count of zero or has a triangle ahead, which
    a later row finds, as row 0 had none.
    """
    n = host.n
    if len(host.used_colors()) < 3:
        return None
    masks = host.search_masks()
    if masks is None:
        return find_rainbow(host, _K3)
    full = (1 << n) - 1
    by_color = list(masks.values())
    for i in range(n - 2):
        if i == 1 and not _rainbow_triangles(by_color, n):
            return None
        seen = [(by_vertex[i], by_vertex) for by_vertex in by_color]
        first = None
        for mine, by_vertex in seen:
            js = mine >> i  # the j > i that i sees in this color, ascending
            while js:
                low = js & -js
                js ^= low
                j = i + low.bit_length() - 1
                bad = mine | by_vertex[j]
                for at_i, other in seen:
                    bad |= at_i & other[j]
                free = (full ^ bad) >> (j + 1)
                if free:
                    if first is None or j < first[0]:
                        first = (j, j + (free & -free).bit_length())
                    break
        if first is not None:
            j, k = first
            colors = frozenset((host.color(i, j), host.color(i, k), host.color(j, k)))
            return Embedding(_K3, (i, j, k), colors)


def _rainbow_triangles(by_color, n: int) -> int:
    """The number of rainbow triangles of K_n colored with the per-color
    masks ``by_color``.

    Count the corners of triangles whose two edges differ in color: with
    d_a(v) the a-degree of v, vertex v has ``sum_{a<b} d_a(v) d_b(v)`` of
    them, so all vertices have ``S = ((n-1)^2 n - sum_{v,a} d_a(v)^2) / 2``.
    A monochromatic triangle has no such corner, a two-colored one 2 and a
    rainbow one 3, so with T1 monochromatic triangles out of C(n, 3) there
    are ``S - 2 C(n, 3) + 2 T1`` rainbow ones.  Each monochromatic triangle
    is counted at its three edges uv (u < v) of color c, as the common
    c-neighbors ``M_c[u] & M_c[v]``.
    """
    squares = mono = 0
    for rows in by_color:
        for u, row in enumerate(rows):
            squares += row.bit_count() ** 2
            above = row >> u + 1
            while above:
                low = above & -above
                above ^= low
                mono += (row & rows[u + low.bit_length()]).bit_count()
    return ((n - 1) ** 2 * n - squares) // 2 - 2 * comb(n, 3) + 2 * (mono // 3)
