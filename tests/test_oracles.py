"""The stack-based path oracle, the degree-bounded subset enumeration and
the degree-bounded vertex connectivity oracle against the plain references
they replaced: the recursive path extension, the unfiltered enumeration and
the ascending cut enumeration up to n - 2, kept here as test-only copies.
All three must give the same answer on every labeled graph of at most 5
vertices, on the color classes of sampled 3-colorings of K6 and on seeded
random graphs of 6-9 vertices.  The degree-sequence enumeration finds as
many graphical sequences as OEIS A004251 lists."""

import random
from itertools import combinations

from rainbowfree.core import SimpleGraph, _random_complete, restrict
from rainbowfree.oracles import (
    oracle_is_k_connected_bits,
    oracle_largest_k_connected,
    oracle_longest_path_order,
    oracle_vertex_connectivity,
    realizable_degree_sequences,
)

KS = (1, 2, 3)


def recursive_longest_path_order(g: SimpleGraph) -> int:
    """Longest path order by plain recursive extension (no memoization)."""
    best = 1 if g.n else 0
    adj = [{v for v in range(g.n) if b >> v & 1} for b in g.adj_bits]

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


def unfiltered_largest_k_connected(g: SimpleGraph, k: int) -> int:
    """Optimum order by full subset enumeration, every subset's cuts tried."""
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


def plain_vertex_connectivity(g: SimpleGraph) -> int:
    """Minimum size of a disconnecting vertex set, every cut size below
    n - 1 tried in ascending order."""
    n = g.n
    if n == 1:
        return 0
    if g.edge_count == n * (n - 1) // 2:
        return n - 1
    for size in range(0, n - 1):
        for cut in combinations(range(n), size):
            rest = [v for v in range(n) if v not in cut]
            reach, frontier = {rest[0]}, [rest[0]]
            while frontier:
                u = frontier.pop()
                for w in rest:
                    if w not in reach and g.adj_bits[u] >> w & 1:
                        reach.add(w)
                        frontier.append(w)
            if len(reach) < len(rest):
                return size
    return n - 1


def _agree(g: SimpleGraph) -> None:
    assert oracle_longest_path_order(g) == recursive_longest_path_order(g), g.adj_bits
    if g.n:
        assert oracle_vertex_connectivity(g) == plain_vertex_connectivity(g), g.adj_bits
    for k in KS:
        want = unfiltered_largest_k_connected(g, k)
        assert oracle_largest_k_connected(g, k) == want, (g.adj_bits, k)


def test_every_labeled_graph_up_to_five_vertices():
    graphs = 0
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            _agree(SimpleGraph(n, [p for i, p in enumerate(pairs) if chosen >> i & 1]))
            graphs += 1
    assert graphs == 1 + 1 + 2 + 8 + 64 + 1024


def test_color_classes_of_sampled_k6_colorings():
    # the six-vertex graphs, isolated vertices included, that a sampled
    # crosscheck of 3-colored K6 hosts hands the oracles
    rng = random.Random(37)
    for _ in range(300):
        host = _random_complete(rng, 6, 3)
        for c in sorted(host.used_colors()):
            _agree(restrict(host, {c}))


def test_seeded_random_graphs_of_six_to_nine_vertices():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(6, 9)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        _agree(SimpleGraph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))


def test_realizable_degree_sequence_counts_match_oeis():
    counts = [len(realizable_degree_sequences(n)) for n in range(1, 7)]
    assert counts == [1, 2, 4, 11, 31, 102]  # OEIS A004251
