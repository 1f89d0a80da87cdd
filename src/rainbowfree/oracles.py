"""Naive brute-force oracles.

These are exhaustive, with only shortcuts that carry a one-line proof: they
re-derive answers by enumeration and share no search or graph code with the
production implementations they cross-check (not even ``core.flood`` or a
graph's derived ``edges``: they read only the stored adjacency bits, and
components, edge lists and bit listing are written out here), so one bug
cannot hide on both sides.  Each shortcut's proof is in its function's
docstring.  Everything here is only meant for micro-scale inputs.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .core import Host, SimpleGraph


def _members(mask: int) -> list[int]:
    """The set bits of ``mask``, by testing every position."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _component(adj_bits, rest: int) -> int:
    """The vertices that the lowest vertex of the non-empty set ``rest``
    reaches inside ``rest``: take reached vertices off a frontier one at a
    time, adding their unreached neighbors in ``rest``, until the frontier is
    empty.  ``rest`` induces a connected graph when this is all of it."""
    reach = frontier = rest & -rest
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj_bits[low.bit_length() - 1] & rest & ~reach
        reach |= new
        frontier |= new
    return reach


def oracle_rainbow_exists(host: Host, pattern) -> bool:
    """Try every injection of the pattern vertices into the host."""
    g = pattern.graph if hasattr(pattern, "graph") else pattern
    nv = host.vertex_count
    if g.n > nv:
        raise ValueError("pattern larger than host")
    adj = g.adj_bits
    edges = [(u, v) for u, v in combinations(range(g.n), 2) if adj[u] >> v & 1]
    pair_color = host.pair_color
    for image in permutations(range(nv), g.n):
        colors = set()
        for u, v in edges:
            c = pair_color(image[u], image[v])
            if c is None or c in colors:
                break
            colors.add(c)
        else:
            return True
    return False


def oracle_vertex_connectivity(g: SimpleGraph) -> int:
    """Minimum size of a disconnecting vertex set, by ascending enumeration.

    On a graph that is not complete only the cut sizes below the minimum
    degree delta are tried, and delta is the answer when none of them
    separates (kappa <= delta, Whitney 1932): a vertex v of degree delta
    has a non-neighbor, since delta = n - 1 would make the graph complete,
    and removing v's neighbors cuts v off from it."""
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    delta = min(map(int.bit_count, g.adj_bits))
    if delta == n - 1:  # complete, one vertex included
        return delta
    full = (1 << n) - 1
    for size in range(delta):
        for cut in combinations(range(n), size):
            rest = full
            for v in cut:
                rest &= ~(1 << v)
            if _component(g.adj_bits, rest) != rest:
                return size
    return delta


def oracle_is_k_connected_bits(adj_bits, subset: int, k: int) -> bool:
    """k-connectivity of an induced subgraph: at least k+1 vertices and no
    (k-1)-subset whose removal disconnects the rest."""
    size = subset.bit_count()
    if size < k + 1:
        return False
    for cut in combinations(_members(subset), k - 1):
        rest = subset
        for v in cut:
            rest &= ~(1 << v)
        if _component(adj_bits, rest) != rest:
            return False
    return True


def oracle_largest_k_connected(g: SimpleGraph, k: int) -> int:
    """Optimum order by full subset enumeration, largest subsets first.

    A subset with a vertex v of fewer than k neighbors inside it is skipped
    before its cuts are tried (kappa <= delta, Whitney 1932): v's neighbors,
    with other vertices added up to k - 1, leave v cut off from at least one
    other vertex.  So only subsets of the vertices of degree at least k are
    enumerated: a vertex of smaller degree has fewer than k neighbors in
    every subset, and the skip would reject every subset that holds it."""
    adj = g.adj_bits
    eligible = [v for v in range(g.n) if adj[v].bit_count() >= k]
    for size in range(len(eligible), k, -1):
        for verts in combinations(eligible, size):
            subset = 0
            for v in verts:
                subset |= 1 << v
            for v in verts:
                if (adj[v] & subset).bit_count() < k:
                    break
            else:
                if oracle_is_k_connected_bits(adj, subset, k):
                    return size
    return 0


def oracle_longest_path_order(g: SimpleGraph) -> int:
    """Longest path order by extending every path, one explicit stack of
    (last vertex, visited bitmask, order) per start vertex.

    It stops once a path has as many vertices as the largest component: no
    path leaves its component, so none is longer."""
    left = (1 << g.n) - 1
    bound = 0
    while left:
        comp = _component(g.adj_bits, left)
        bound = max(bound, comp.bit_count())
        left &= ~comp
    adj = g.adj_bits
    best = 0
    for v in range(g.n):
        stack = [(v, 1 << v, 1)]
        while stack:
            last, seen, order = stack.pop()
            if order > best:
                best = order
                if best == bound:
                    return best
            rest = adj[last] & ~seen
            while rest:
                low = rest & -rest
                rest ^= low
                stack.append((low.bit_length() - 1, seen | low, order + 1))
    return best


def realizable_degree_sequences(n: int) -> set[tuple[int, ...]]:
    """All sorted-non-increasing degree sequences of simple graphs on n
    vertices, by enumerating every edge subset.

    Invariant: after each edge (u, v), ``vectors`` holds the degree vectors
    of every subset of the edges seen so far -- each old subset without
    (u, v), and each with it, which bumps u and v by one.  Subsets with the
    same vector share one entry, so n = 7 (2^21 edge subsets) stays under a
    second.
    """
    if n < 1:
        raise ValueError("n must be positive")
    vectors = {(0,) * n}
    for u, v in combinations(range(n), 2):
        bumped = set()
        for vec in vectors:
            bump = list(vec)
            bump[u] += 1
            bump[v] += 1
            bumped.add(tuple(bump))
        vectors |= bumped
    return {tuple(sorted(vec, reverse=True)) for vec in vectors}
