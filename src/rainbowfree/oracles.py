"""Naive brute-force oracles.

Deliberately simple and slow: these re-derive answers by exhaustive
enumeration and share no search or graph code with the production
implementations they cross-check (not even ``core.flood``: connectivity and
bit listing are written out here), so one bug cannot hide on both sides.
Everything here is only meant for micro-scale inputs.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .core import Host, SimpleGraph


def _members(mask: int) -> list[int]:
    """The set bits of ``mask``, by testing every position."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _connected(adj_bits, rest: int) -> bool:
    """Whether the non-empty vertex set ``rest`` induces a connected graph:
    take reached vertices off a frontier one at a time, adding their
    unreached neighbors in ``rest``, until the frontier is empty."""
    reach = frontier = rest & -rest
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj_bits[low.bit_length() - 1] & rest & ~reach
        reach |= new
        frontier |= new
    return reach == rest


def oracle_rainbow_exists(host: Host, pattern) -> bool:
    """Try every injection of the pattern vertices into the host."""
    g = pattern.graph if hasattr(pattern, "graph") else pattern
    nv = host.vertex_count
    if g.n > nv:
        raise ValueError("pattern larger than host")
    for image in permutations(range(nv), g.n):
        colors = set()
        ok = True
        for u, v in g.edges:
            c = host.pair_color(image[u], image[v])
            if c is None or c in colors:
                ok = False
                break
            colors.add(c)
        if ok:
            return True
    return False


def oracle_vertex_connectivity(g: SimpleGraph) -> int:
    """Minimum size of a disconnecting vertex set, by ascending enumeration."""
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    if n == 1:
        return 0
    if g.edge_count == n * (n - 1) // 2:
        return n - 1
    full = (1 << n) - 1
    for size in range(0, n - 1):
        for cut in combinations(range(n), size):
            rest = full
            for v in cut:
                rest &= ~(1 << v)
            if not _connected(g.adj_bits, rest):
                return size
    return n - 1


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
        if not _connected(adj_bits, rest):
            return False
    return True


def oracle_largest_k_connected(g: SimpleGraph, k: int) -> int:
    """Optimum order by full subset enumeration."""
    best = 0
    for size in range(g.n, k, -1):
        for verts in combinations(range(g.n), size):
            subset = 0
            for v in verts:
                subset |= 1 << v
            if oracle_is_k_connected_bits(g.adj_bits, subset, k):
                best = size
                break
        if best:
            break
    return best


def oracle_longest_path_order(g: SimpleGraph) -> int:
    """Longest path order by plain recursive extension (no memoization)."""
    best = 1 if g.n else 0
    adj = [set(_members(b)) for b in g.adj_bits]

    def extend(last: int, visited: set[int]) -> None:
        nonlocal best
        best = max(best, len(visited))
        for w in adj[last]:
            if w not in visited:
                visited.add(w)
                extend(w, visited)
                visited.remove(w)

    for v in range(g.n):
        extend(v, {v})
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
