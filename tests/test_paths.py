import hashlib
import json
import random
import time
import tracemalloc
from functools import partial
from itertools import combinations, islice

import pytest

from rainbowfree import paths
from rainbowfree.constructions import gen_F1, gen_F3, gen_R1
from rainbowfree.core import (
    ColoredBipartite,
    ColoredComplete,
    SimpleGraph,
    _induced_bits,
    _random_complete,
    ceil_div,
    components,
    iter_bits,
    restrict,
)
from rainbowfree.oracles import oracle_longest_path_order
from rainbowfree.paths import (
    _longest_cycle,
    _longest_cycle_bits,
    _longest_path,
    _longest_path_bits,
    check_mono_path_quota,
    kano_li_floor,
    longest_mono_cycle,
    longest_mono_path,
    validate_cycle,
    validate_path,
)


def test_every_class_of_at_most_six_vertices_matches_the_level_search():
    # every labeled graph on at most 6 vertices, as color 1 of a 2-coloring
    # of K_n (n <= 6), the classes that the K6 cross-checks run: the path
    # search in host labels answers with the level search's witness on the
    # host's own masks, exactly, whole and with each target order
    checked = 0
    for n in range(2, 7):
        pairs = list(combinations(range(n), 2))
        for edges in range(1, 1 << len(pairs)):
            host = ColoredComplete(n, 2, [2 - (edges >> i & 1) for i in range(len(pairs))])
            adj = restrict(host, {1}).adj_bits
            path, exact = _longest_path_bits(adj, None)
            assert exact and longest_mono_path(host, 1) == (1, tuple(path), True), host._colors
            target = 2 + edges % (n - 1)
            path, exact = _longest_path_bits(adj, target)
            want = (1, tuple(path), True) if len(path) >= target else None
            assert exact and paths._mono_path_of_order(host, 1, target) == (want, True), host._colors
            checked += 1
    assert checked == sum(2 ** (n * (n - 1) // 2) - 1 for n in range(2, 7)) == 33_861


def test_longest_path_mono_k4():
    host = ColoredComplete(4, 1, [1] * 6)
    w = longest_mono_path(host, 1)
    assert w.order == 4 and w.exact


def test_longest_path_single_color_edge():
    w = longest_mono_path(gen_R1(9, 4).host, 4)
    assert w.order == 2


def test_longest_path_f1_color_class():
    # color 1 spans K_{3,6}: the longest alternating path has order 7
    w = longest_mono_path(gen_F1(12, 6, 4).host, 1)
    assert w.order == 7 and w.exact


def test_longest_path_unused_color_errors():
    host = ColoredComplete(4, 2, [1] * 6)
    with pytest.raises(ValueError):
        longest_mono_path(host, 2)


def test_longest_path_agrees_with_recursion():
    rng = random.Random(22)
    for _ in range(150):
        m = rng.randint(1, 3)
        # the path oracle is exponential on dense classes with no path as
        # long as their largest component; keep the single-color (complete)
        # hosts small
        n = rng.randint(4, 7) if m == 1 else rng.randint(4, 10)
        host = _random_complete(rng, n, m)
        for c in sorted(host.used_colors()):
            w = longest_mono_path(host, c)
            validate_path(host, w)
            assert w.exact
            assert w.order == oracle_longest_path_order(restrict(host, {c}))


def test_quota_mono_host():
    host = ColoredComplete(6, 1, [1] * 15)
    res = check_mono_path_quota(host, [6])
    assert res.ok and res.witness.order == 6


def test_quota_zero_entry_is_immediate():
    host = ColoredComplete(6, 2, [1] * 15)
    res = check_mono_path_quota(host, [8, 0])
    assert res.ok and res.color == 2 and res.witness.order == 0


def test_quota_two_entry_needs_an_edge():
    host = ColoredComplete(4, 2, [1, 1, 1, 1, 1, 2])
    res = check_mono_path_quota(host, [4, 2])
    assert res.ok
    if res.color == 2:
        assert res.witness.order == 2


def test_quota_rejects_oversized_sum():
    host = ColoredComplete(5, 2, [1] * 10)
    with pytest.raises(ValueError):
        check_mono_path_quota(host, [9, 4])  # 13 > n + 2m - 2 = 7


def test_quota_refuses_bipartite_hosts():
    # the quota statement is a theorem about K_n; K_{1,5} in one color has
    # no path of order 6 although 6 <= n + 2m - 2
    host = ColoredBipartite(1, 5, 1, [1] * 5)
    with pytest.raises(ValueError, match="K_n"):
        check_mono_path_quota(host, [6])


def test_quota_random_instances():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(5, 12)
        m = rng.randint(1, 4)
        host = _random_complete(rng, n, m)
        total = n + 2 * m - 2
        cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
        quotas = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        res = check_mono_path_quota(host, quotas)
        assert res.ok, (n, m, quotas, host._colors)
        if res.witness.order >= 2:
            validate_path(host, res.witness)
            assert res.witness.order >= quotas[res.color - 1]


def test_cycle_mono_k5():
    host = ColoredComplete(5, 1, [1] * 10)
    w = longest_mono_cycle(host, 1)
    assert w.length == 5


def test_cycle_two_triangles_plus_cross():
    # color 1: two disjoint triangles; color 2: the K_{3,3} between them
    host = ColoredComplete.from_function(
        6, 2, lambda u, v: 1 if (u < 3) == (v < 3) else 2
    )
    assert longest_mono_cycle(host, 1).length == 3
    assert longest_mono_cycle(host, 2).length == 6
    color, best = kano_li_floor(host)
    assert best.length >= ceil_div(6, 2)


def test_one_color_complete_hosts_are_hamiltonian():
    # a complete class goes to the depth-first route at any order, where the
    # first path and cycle are 0, 1, ... with no backtracking
    for n in (17, 23, 40):
        host = ColoredComplete(n, 1, [1] * (n * (n - 1) // 2))
        for w in (longest_mono_path(host, 1), longest_mono_cycle(host, 1)):
            assert w.vertices == tuple(range(n)) and w.exact
    # far beyond the interpreter's recursion limit
    n = 1500
    adj = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    assert _longest_path(adj, None) == _longest_cycle(adj) == (list(range(n)), True)
    assert _longest_path(adj, 30) == (list(range(30)), True)


def test_cycle_degenerate_edge():
    host = ColoredComplete(4, 2, [2, 1, 1, 1, 1, 1])
    w = longest_mono_cycle(host, 2)
    assert w.length == 2  # a lone edge counts as a degenerate 2-cycle


def test_path_and_cycle_above_64_vertices():
    # on 70 vertices the levels' vertex sets and endpoint bitsets pass 64 bits
    n = 70
    path = ColoredComplete.from_function(n, 2, lambda u, v: 1 if abs(u - v) == 1 else 2)
    w = longest_mono_path(path, 1)
    assert w.order == n and w.exact
    c = longest_mono_cycle(path, 1)
    assert c.vertices == (0, 1) and c.exact  # no cycle: a lone edge
    ring = ColoredComplete.from_function(
        n, 2, lambda u, v: 1 if abs(u - v) in (1, n - 1) else 2
    )
    c = longest_mono_cycle(ring, 1)
    assert c.length == n and c.exact


def oracle_longest_cycle_length(g: SimpleGraph) -> int:
    """Longest cycle length (0 when acyclic) by recursive extension."""
    best = 0
    adj = [{w for w in range(g.n) if b >> w & 1} for b in g.adj_bits]

    def extend(anchor: int, last: int, visited: set[int]) -> None:
        nonlocal best
        if len(visited) >= 3 and anchor in adj[last]:
            best = max(best, len(visited))
        for w in adj[last]:
            if w > anchor and w not in visited:
                visited.add(w)
                extend(anchor, w, visited)
                visited.remove(w)

    for v in range(g.n):
        extend(v, v, {v})
    return best


def test_validators_refuse_vertices_out_of_range():
    host = ColoredComplete(5, 1, [1] * 10)
    validate_path(host, paths.PathWitness(1, (0, 4), True))
    validate_cycle(host, paths.CycleWitness(1, (0, 2, 4), True))
    for verts in ((0, 5), (5, 0), (-1, 0), (3, -1), (5,), (-1,)):
        with pytest.raises(ValueError, match="^path vertex out of range$"):
            validate_path(host, paths.PathWitness(1, verts, True))
    for verts in ((0, 1, 5), (5, 0, 1), (-1, 0, 1), (0, 1, -1), (0, 5), (-1, 0)):
        with pytest.raises(ValueError, match="^cycle vertex out of range$"):
            validate_cycle(host, paths.CycleWitness(1, verts, True))


def test_validators_refuse_repeats_and_pairs_of_another_color():
    # K5 with the pair (0,3) in color 2: a cycle closes its ring, a path and
    # a two-vertex cycle do not
    host = ColoredComplete.from_function(5, 2, lambda u, v: 2 if {u, v} == {0, 3} else 1)
    validate_path(host, paths.PathWitness(1, (0, 1, 2, 3), True))
    validate_cycle(host, paths.CycleWitness(1, (0, 1, 2, 4), True))
    validate_cycle(host, paths.CycleWitness(2, (0, 3), True))
    for kind, check, record in (
        ("path", validate_path, paths.PathWitness),
        ("cycle", validate_cycle, paths.CycleWitness),
    ):
        with pytest.raises(ValueError, match=f"^repeated vertex in {kind}$"):
            check(host, record(1, (0, 1, 0), True))
        with pytest.raises(ValueError, match=r"^pair \(3,0\) is not an edge of color 1$"):
            check(host, record(1, (1, 3, 0), True))
    with pytest.raises(ValueError, match=r"^pair \(3,0\) is not an edge of color 1$"):
        validate_cycle(host, paths.CycleWitness(1, (0, 1, 2, 3), True))


def test_validate_cycle_refuses_fewer_than_two_vertices():
    host = ColoredComplete(5, 1, [1] * 10)
    validate_cycle(host, paths.CycleWitness(1, (0, 1), True))
    for verts in ((0,), ()):
        with pytest.raises(ValueError):
            validate_cycle(host, paths.CycleWitness(1, verts, True))


def test_cycle_agrees_with_recursion():
    rng = random.Random(26)
    for _ in range(120):
        host = _random_complete(rng, rng.randint(4, 9), rng.randint(1, 3))
        for c in sorted(host.used_colors()):
            w = longest_mono_cycle(host, c)
            validate_cycle(host, w)
            truth = oracle_longest_cycle_length(restrict(host, {c}))
            if truth >= 3:
                assert w.length == truth
            else:
                assert w.length == 2


def test_kano_li_floor_random():
    rng = random.Random(27)
    for _ in range(150):
        n = rng.randint(6, 12)
        m = rng.randint(2, 3)
        host = _random_complete(rng, n, m)
        color, best = kano_li_floor(host)  # raises on a floor violation
        if ceil_div(n, m) >= 3:
            assert best.length >= ceil_div(n, m)


def test_golden_path_and_cycle_witnesses():
    # witnesses must stay byte-identical when the search changes, inexact
    # (state-capped) answers included
    rng = random.Random(31)
    hosts = [_random_complete(rng, n, m) for n, m in [(10, 2), (12, 3), (14, 2), (16, 3), (17, 3)]]
    hosts += [gen_R1(18, 6).host, gen_F3(12, 12, 6).host]
    witnesses = []
    for host in hosts:
        for c in sorted(host.used_colors()):
            witnesses.append(
                [longest_mono_path(host, c).to_json(), longest_mono_cycle(host, c).to_json()]
            )
    assert any(not w["exact"] for pair in witnesses for w in pair)
    digest = hashlib.sha256(json.dumps(witnesses, sort_keys=True).encode()).hexdigest()
    assert digest == "af8c9f18963d2c708d9d17b6081fb5d075cd7e58ef7d6771290361753b13576d"


def _all_paths(nbrs):
    """Every path of a graph given as sorted neighbour lists, as a vertex
    sequence (each path once per direction), by plain depth-first search."""
    out = []

    def grow(path, seen):
        out.append(tuple(path))
        for w in nbrs[path[-1]]:
            if w not in seen:
                seen.add(w)
                path.append(w)
                grow(path, seen)
                path.pop()
                seen.remove(w)

    for v in sorted(nbrs):
        grow([v], {v})
    return out


def test_witness_is_lexicographically_first():
    # the path witness is the least vertex sequence among the longest paths,
    # a quota witness the least path of the quota's order, and the cycle
    # witness the least longest cycle written from its least vertex
    rng = random.Random(32)
    checked = 0
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(3, 7) if m == 1 else rng.randint(3, 9)
        host = _random_complete(rng, n, m)
        for c in sorted(host.used_colors()):
            nbrs = {}
            for u, v in combinations(range(n), 2):
                if host.pair_color(u, v) == c:
                    nbrs.setdefault(u, []).append(v)
                    nbrs.setdefault(v, []).append(u)
            for v in nbrs:
                nbrs[v].sort()
            paths = _all_paths(nbrs)
            longest = max(map(len, paths))
            w = longest_mono_path(host, c)
            assert w.exact
            assert w.vertices == min(p for p in paths if len(p) == longest)
            for a in range(2, longest + 1):
                quotas = [a + 1 if i < c else a for i in range(1, m + 1)]
                if sum(quotas) > n + 2 * m - 2:
                    continue
                res = check_mono_path_quota(host, quotas)
                assert res.color == c
                assert res.witness.vertices == min(p for p in paths if len(p) == a)
            cycles = [p for p in paths if len(p) >= 3 and p[0] == min(p) and p[0] in nbrs[p[-1]]]
            cw = longest_mono_cycle(host, c)
            assert cw.exact
            if cycles:
                length = max(map(len, cycles))
                assert cw.vertices == min(p for p in cycles if len(p) == length)
            else:
                least = min(nbrs)
                assert cw.vertices == (least, nbrs[least][0])
            checked += 1
    assert checked > 300


def _random_adj(rng, q, p):
    adj = [0] * q
    for u, v in combinations(range(q), 2):
        if rng.random() < p:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def test_cycle_levels_run_on_the_core_alone(monkeypatch):
    # 20-vertex classes: a random graph on 17-19 vertices with pendant
    # vertices hung on it, labels shuffled.  Where a core component can reach
    # the cap the levels answer over the 2-core alone.  An anchor's core
    # states are among its states on the whole class, so an exact whole-class
    # answer comes back unchanged and a capped one never comes back shorter
    rng = random.Random(53)
    levels = paths._longest_cycle_bits
    seen, routed = [], 0
    monkeypatch.setattr(paths, "_longest_cycle_bits", lambda adj: seen.append(len(adj)) or levels(adj))
    for _ in range(12):
        q = rng.randint(17, 19)
        core = _random_adj(rng, q, rng.choice([0.2, 0.3, 0.5]))
        edges = [(u, v) for u, v in combinations(range(q), 2) if core[u] >> v & 1]
        edges += [(rng.randrange(w), w) for w in range(q, 20)]
        perm = list(range(20))
        rng.shuffle(perm)
        adj = _edges_adj(20, [(perm[u], perm[v]) for u, v in edges])
        seen.clear()
        (cycle, exact), (whole, whole_exact) = _longest_cycle(adj), levels(adj)
        assert seen in ([], [paths._two_core(adj).bit_count()])
        routed += bool(seen)
        if whole_exact:
            assert (cycle, exact) == (whole, True)
        else:
            assert len(cycle) >= len(whole)
    assert routed


def test_golden_capped_searches():
    # where the state cap stops a search decides both the witness and its
    # exact flag; classes of 18-22 vertices put the cap on either side of it,
    # for whole path searches, target-limited ones and per cycle anchor
    rng = random.Random(41)
    results = []
    for q, p in [(18, 0.5), (19, 0.35), (20, 0.5), (21, 0.3), (22, 0.25), (20, 0.2)]:
        adj = _random_adj(rng, q, p)
        for path, exact in (
            _longest_path_bits(adj, None),
            _longest_path_bits(adj, q // 2),
            _longest_cycle_bits(adj),
        ):
            results.append([path, exact])
    flags = [exact for _, exact in results]
    for kind in range(3):
        assert {True, False} == set(flags[kind::3])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "88a7cb11e20e0ab1a7ae5889e548e39d0a2a18e7573f687d214b9f50c3db0d0d"


def test_capped_search_memory():
    # a capped search on 20 vertices reaches about 400,000 (set, endpoint)
    # pairs; keeping one entry per set, not per pair, holds it near 10 MB
    adj = _random_adj(random.Random(5), 20, 0.5)
    tracemalloc.start()
    try:
        path, exact = _longest_path_bits(adj, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(path) == 7 and not exact
    assert peak < 20 * 2**20


def test_dense_capped_lattice_memory():
    # on the lattice a level is one int of 2^20 bits per endpoint, whatever
    # the density: a dense 20-vertex class stays under the same bound
    adj = _random_adj(random.Random(6), 20, 0.8)
    for search in (
        lambda: _longest_path_bits(adj, None),
        lambda: _longest_path_bits(adj, 12),
        lambda: _longest_cycle_bits(adj),
    ):
        tracemalloc.start()
        try:
            path, exact = search()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path and not exact
        assert peak < 20 * 2**20


def _plain_next_level(adj, level, allowed):
    """The next level by its definition: each set grows by every vertex of
    ``allowed`` outside it that is adjacent to one of its endpoints, and
    that vertex ends a path through the grown set; vertices in ascending
    order."""
    nxt = {}
    for mask, ends in level.items():
        reach = 0
        for v in range(len(adj)):
            if ends >> v & 1:
                reach |= adj[v]
        for w in range(len(adj)):
            if reach >> w & 1 and allowed >> w & 1 and not mask >> w & 1:
                nxt[mask | 1 << w] = nxt.get(mask | 1 << w, 0) | 1 << w
    return nxt


def _plain_levels(adj, level, allowed, limit=None):
    """(levels, capped): ``level`` and the plain expansions after it, until
    one is empty, ``limit`` levels are out, or the (set, endpoint) pairs
    pass ``paths._STATE_CAP`` short of ``limit``, which capped=True marks;
    the level that passed the cap is the last one kept."""
    levels, states = [level], paths._pairs(level.values())
    while limit is None or len(levels) < limit:
        if states > paths._STATE_CAP:
            return levels, True
        level = _plain_next_level(adj, level, allowed)
        if not level:
            break
        levels.append(level)
        states += paths._pairs(level.values())
    return levels, False


def _plain_least_path(adj, levels, path, order):
    """Extend ``path`` to the lexicographically least path of ``order``
    vertices through a set of ``levels[order - 1]``, each set holding
    ``path``: step by step, the least endpoint next to the last vertex
    placed among the sets' remainders, which then drop it."""
    i = order - 1
    sets = list(levels[i])
    while len(path) < order:
        ends = 0
        for mask in sets:
            ends |= levels[i][mask]
        if path:
            ends &= adj[path[-1]]
        low = ends & -ends
        path.append(low.bit_length() - 1)
        sets = [mask ^ low for mask in sets if levels[i][mask] & low]
        i -= 1
    return path


def _reference_path(adj, target):
    """The level search's (witness, exact) for a path of order ``target``
    (None: a longest path), on vertex-set maps under the state cap."""
    levels, capped = _plain_levels(adj, {1 << v: 1 << v for v in range(len(adj))}, -1, target)
    return _plain_least_path(adj, levels, [], len(levels)), not capped


def _reference_cycle(adj):
    """The level search's (witness, exact) for a longest cycle: per anchor,
    the levels through larger vertices, each anchor under its own cap, and
    the least path of the largest size that closes next to the anchor."""
    q = len(adj)
    best, exact = [], True
    for anchor in range(q):
        if q - anchor < 3 or q - anchor <= len(best):
            break
        levels, capped = _plain_levels(adj, {1 << anchor: 1 << anchor}, -1 << anchor + 1)
        if capped:
            exact = False
            levels.pop()  # a level over the cap is not read
        for size in range(len(levels), max(2, len(best)), -1):
            if any(ends & adj[anchor] for ends in levels[size - 1].values()):
                best = _plain_least_path(adj, levels, [anchor], size)
                break
    return best, exact


def _decode(level, lo, base):
    """A lattice level as the map from each vertex set to its endpoints: the
    index of a set is the set shifted down by ``lo``, less ``base``."""
    out = {}
    for v, sets in level.items():
        for index in iter_bits(sets):
            mask = index << lo | base
            out[mask] = out.get(mask, 0) | 1 << v
    return out


def _encode(level, lo):
    out = {}
    for mask, ends in level.items():
        for v in iter_bits(ends):
            out[v] = out.get(v, 0) | 1 << (mask >> lo)
    return out


def test_lattice_levels_match_a_plain_expansion():
    # each lattice level decodes to the plain expansion's sets and
    # endpoints, with its pair count.  From every start and from anchored
    # cycle starts (only larger-indexed vertices allowed)
    for k in range(6):
        missing = paths._missing(k)
        assert len(missing) == k
        for j, sets in enumerate(missing):
            assert sets == sum(1 << s for s in range(1 << k) if not s >> j & 1)
    rng = random.Random(44)
    for q in (1, 2, 3, 7, 8, 11, 12, 19, 20):
        adj = _random_adj(rng, q, rng.choice([0.2, 0.35, 0.5]))
        starts = [(0, 0, {1 << v: 1 << v for v in range(q)})]
        starts += [(a + 1, 1 << a, {1 << a: 1 << a}) for a in sorted({0, q // 3, q - 1})]
        for lo, base, level in starts:
            allowed = -1 << lo
            missing = paths._missing(q - (lo > 0))
            while level:
                want = _plain_next_level(adj, level, allowed)
                got = paths._next_lattice(adj, lo, missing, _encode(level, lo))
                assert _decode(got, lo, base) == want
                assert paths._pairs(got.values()) == paths._pairs(want.values())
                # a prefix of a level is a level too; it keeps the test small
                level = dict(islice(want.items(), 150))


def test_the_cap_binds_only_past_its_bound(monkeypatch):
    # a search that makes exactly _STATE_CAP (set, endpoint) pairs is exact;
    # with one pair more the cap stops it at its last level, which a path
    # search still reads
    rng = random.Random(50)
    for q in (6, 9, 12):
        adj = _random_adj(rng, q, 0.5)
        level, total = {1 << v: 1 << v for v in range(q)}, 0
        while level:
            total += paths._pairs(level.values())
            level = _plain_next_level(adj, level, -1)
        monkeypatch.setattr(paths, "_STATE_CAP", total)
        path, exact = _longest_path_bits(adj, None)
        assert exact
        monkeypatch.setattr(paths, "_STATE_CAP", total - 1)
        assert _longest_path_bits(adj, None) == (path, False)


def _level_boundaries(adj, level, allowed):
    """The cumulative (set, endpoint) pairs of the plain expansion from
    ``level``, one count per level."""
    counts, total = [], 0
    while level:
        total += paths._pairs(level.values())
        counts.append(total)
        level = _plain_next_level(adj, level, allowed)
    return counts


def test_the_cap_binds_at_every_level_boundary(monkeypatch):
    # the levels count their pairs only once a binomial bound on them passes
    # the cap.  At every level boundary of the plain expansion, and one pair
    # short of it, the lattice searches still stop where a count of every
    # level would: whole paths, target-limited paths, and cycles at each
    # anchor's boundaries
    rng = random.Random(55)
    pairs = paths._pairs
    recounts = []
    monkeypatch.setattr(paths, "_pairs", lambda ints: recounts.append(1) or pairs(ints))
    partway = False
    for q, p in [(6, 0.5), (9, 0.5), (12, 0.35), (16, 0.2), (20, 0.1)]:
        adj = _random_adj(rng, q, p)
        target = q // 2
        whole = _level_boundaries(adj, {1 << v: 1 << v for v in range(q)}, -1)
        anchors = {c for a in range(q - 2) for c in _level_boundaries(adj, {1 << a: 1 << a}, -1 << a + 1)}
        for counts, search, reference in (
            (whole, partial(_longest_path_bits, adj, None), partial(_reference_path, adj, None)),
            (whole[:target], partial(_longest_path_bits, adj, target), partial(_reference_path, adj, target)),
            (sorted(anchors), partial(_longest_cycle_bits, adj), partial(_reference_cycle, adj)),
        ):
            for cap in (c - d for c in counts for d in (0, 1)):
                monkeypatch.setattr(paths, "_STATE_CAP", cap)
                recounts.clear()
                got = search()
                # the bound passed the cap after some levels went uncounted
                partway |= counts is whole and 0 < len(recounts) < len(got[0])
                assert got == reference(), (q, cap)
    assert partway


def test_the_levels_recount_on_few_levels(monkeypatch):
    # at the real cap the binomial bound keeps the count off most levels: a
    # 17-vertex class whose whole-path lattice runs all 17 levels reads its
    # pairs on fewer than a third of them
    adj = _random_adj(random.Random(0), 17, 0.3)
    pairs = paths._pairs
    recounts = []
    monkeypatch.setattr(paths, "_pairs", lambda ints: recounts.append(1) or pairs(ints))
    path, exact = _longest_path_bits(adj, None)
    assert (len(path), exact) == (17, True)
    assert 3 * len(recounts) < len(path)


def _support_of(adj):
    """The vertices with an edge (vertex 0 when none has one): those a
    path search runs on."""
    return [v for v, a in enumerate(adj) if a] or [0]


def _relabeled_class(host, color):
    """One color class relabeled in order onto its support."""
    masks = host.color_masks(color)
    return _induced_bits(masks, _support_of(masks))


def _levels_on_support(levels, adj, *args):
    """The level search ``levels`` on the support of ``adj`` relabeled,
    its (path, exact) with the path mapped back."""
    support = _support_of(adj)
    path, exact = levels(_induced_bits(adj, support), *args)
    return [support[i] for i in path], exact


def test_missing_sets_are_built_once_per_search(monkeypatch):
    built = []
    shared = set()
    missing, next_lattice = paths._missing, paths._next_lattice

    def count_builds(k):
        built.append(k)
        return missing(k)

    def note_anchor(adj, lo, sets, level):
        shared.add((lo, id(sets)))
        return next_lattice(adj, lo, sets, level)

    monkeypatch.setattr(paths, "_missing", count_builds)
    monkeypatch.setattr(paths, "_next_lattice", note_anchor)
    # every cycle anchor of a 17-vertex class shares one build, indexed
    # without the anchor
    host = _random_complete(random.Random(45), 17, 2)
    assert len(restrict(host, {1}).support()) == 17
    longest_mono_cycle(host, 1)
    assert built == [16]
    assert len({lo for lo, _ in shared}) > 1 and len({i for _, i in shared}) == 1
    # a class the depth-first route answers builds none; its level search one
    built.clear()
    host = _random_complete(random.Random(47), 15, 2)
    adj = _relabeled_class(host, 1)
    assert len(adj) == 15
    assert longest_mono_path(host, 1).exact
    assert built == []
    _longest_path_bits(adj, None)
    assert built == [15]
    # above _LATTICE_ORDER the depth-first search answers alone and builds
    # none.  A class's order counts its vertices with an edge, so the
    # 21-vertex path adjacency, which has one isolated vertex, is a
    # 20-vertex class whose levels build their sets; with an edge at that
    # vertex it is a 21-vertex class
    built.clear()
    rng = random.Random(48)
    _longest_path_bits(_random_adj(rng, 20, 0.3), 5)
    _longest_cycle_bits(_random_adj(rng, 20, 0.3))
    assert built == [20, 19]
    adj = _random_adj(rng, 21, 0.3)
    _longest_cycle(_random_adj(rng, 21, 0.3))
    assert built == [20, 19]
    _longest_path(adj, 5)
    assert adj.count(0) == 1 and built == [20, 19, 20]
    v = adj.index(0)
    w = (v + 1) % 21
    adj[v], adj[w] = 1 << w, adj[w] | 1 << v
    _longest_path(adj, 5)
    assert built == [20, 19, 20]


def test_lattice_matches_the_map_levels(monkeypatch):
    # the kernel boundary: on the same adjacency, the lattice search and
    # vertex-set map levels read by a least-path reader give the same
    # (witness, exact), for whole, target-limited and cycle searches.  A cap
    # of 2,000 pairs stops them on 9-20 vertices; under the real cap the map
    # levels take about 0.5 s from 15 vertices on, and
    # test_golden_capped_searches pins those
    rng = random.Random(49)
    cases = []
    for _ in range(300):
        q = rng.randint(1, 20)
        adj = _random_adj(rng, q, rng.choice([0.1, 0.2, 0.35, 0.5, 0.65, 0.8]))
        cases.append((adj, rng.randint(1, q)))

    for cap in (2_000, paths._STATE_CAP):
        monkeypatch.setattr(paths, "_STATE_CAP", cap)
        run = [(adj, target) for adj, target in cases if cap == 2_000 or len(adj) <= 14]
        capped = set()
        for adj, target in run:
            got = [_longest_path_bits(adj, None), _longest_path_bits(adj, target), _longest_cycle_bits(adj)]
            want = [_reference_path(adj, None), _reference_path(adj, target), _reference_cycle(adj)]
            assert got == want, (cap, adj, target)
            capped |= {(kind, len(adj)) for kind, (_, exact) in enumerate(got) if not exact}
        if cap == 2_000:
            assert {kind for kind, q in capped if q >= 18} == {0, 1, 2}


def _random_class(rng, q):
    """Adjacency bitmasks of a random graph on q vertices, relabeled at
    random: dense or sparse, pendant-heavy, disconnected, or without a
    Hamilton cycle (unbalanced bipartite, two cliques at a cut vertex)."""
    shape = rng.choice(["random", "pendants", "split", "bipartite", "blocks"])
    if shape == "random":
        edges = [e for e in combinations(range(q), 2) if rng.random() < rng.choice([0.15, 0.3, 0.5])]
    elif shape == "pendants":
        k = rng.randint(1, max(1, q // 2))
        edges = [e for e in combinations(range(k), 2) if rng.random() < 0.5]
        edges += [(rng.randrange(v), v) for v in range(max(k, 1), q)]
    elif shape == "split":
        a = rng.randint(1, q - 1) if q > 1 else 1
        edges = [
            (u, v) for u, v in combinations(range(q), 2)
            if (u < a) == (v < a) and rng.random() < 0.5
        ]
    elif shape == "bipartite":
        # the largest component is unbalanced bipartite, and a path on the
        # vertices left over can be longer than its longest path
        a, b = rng.randint(1, 3), rng.randint(4, 8)
        edges = [(u, v) for u in range(a) for v in range(a, min(q, a + b)) if rng.random() < 0.8]
        edges += [(v - 1, v) for v in range(a + b + 1, q)]
    else:
        a = rng.randint(1, q - 1) if q > 1 else 1
        edges = [
            (u, v) for u, v in combinations(range(q), 2)
            if (u <= a and v <= a) or (u >= a and v >= a)
        ]
    perm = list(range(q))
    rng.shuffle(perm)
    adj = [0] * q
    for u, v in edges:
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    return adj


def test_depth_first_route_matches_the_level_search():
    # where the cap cannot bind, the depth-first answer is the level search's
    # (witness, exact), for whole, target-limited and cycle searches alike.
    # A path search runs on the vertices with an edge, so the levels that
    # answer for it run there too
    rng = random.Random(42)
    for _ in range(400):
        q = rng.choice([2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16])
        adj = _random_class(rng, q)
        if q <= paths._PATH_UNCAPPED:
            for target in (None, 2, 3, q // 2, q):
                want = _levels_on_support(_longest_path_bits, adj, target)
                assert _longest_path(adj, target) == want, (adj, target)
        assert _longest_cycle(adj) == _longest_cycle_bits(adj), adj


def test_depth_first_route_stops_where_the_cap_can_bind(monkeypatch):
    # a path search on q vertices makes at most q * 2^(q-1) (set, endpoint)
    # pairs and a cycle anchor (q-1) * 2^(q-2) + 1, so the cap cannot bind on
    # 15 and 16 vertices and can on 16 and 17
    cap = paths._STATE_CAP
    assert 15 * 2**14 <= cap < 16 * 2**15
    assert 15 * 2**14 + 1 <= cap < 16 * 2**15 + 1
    assert (paths._PATH_UNCAPPED, paths._CYCLE_UNCAPPED) == (15, 16)
    searched = []
    first_path = paths._first_path
    monkeypatch.setattr(
        paths, "_first_path", lambda adj, *rest: searched.append(len(adj)) or first_path(adj, *rest)
    )
    for q in (15, 16):
        line = [(1 << v - 1 if v else 0) | (1 << v + 1 if v + 1 < q else 0) for v in range(q)]
        assert _longest_path(line, None) == (list(range(q)), True)
    for q in (16, 17):
        ring = [1 << (v - 1) % q | 1 << (v + 1) % q for v in range(q)]
        assert _longest_cycle(ring) == (list(range(q)), True)
    assert searched == [15, 16]
    # on 16 vertices the level search does reach the cap, and its inexact
    # answer stands
    dense = [((1 << 16) - 1) ^ (1 << v) for v in range(16)]
    dense[0] ^= 1 << 15
    dense[15] ^= 1
    path, exact = _longest_path(dense, None)
    assert not exact and (path, exact) == _longest_path_bits(dense, None)
    assert searched == [15, 16]


def test_kano_li_floor_matches_every_color():
    # colors whose 2-core cannot beat the best cycle so far are skipped; the
    # answer is still the first color with the longest cycle
    rng = random.Random(43)
    for _ in range(200):
        host = _random_complete(rng, rng.randint(3, 14), rng.randint(1, 4))
        cycles = [longest_mono_cycle(host, c) for c in sorted(host.used_colors())]
        best = max(cycles, key=lambda w: w.length)
        assert kano_li_floor(host) == (best.color, best)


def test_kano_li_floor_peels_each_color_once(monkeypatch):
    # the core that decides whether a color is searched is the core the
    # cycle search runs on, so each used color is peeled exactly once
    calls = []
    two_core = paths._two_core

    def counted(adj):
        calls.append(adj)
        return two_core(adj)

    monkeypatch.setattr(paths, "_two_core", counted)
    rng = random.Random(45)
    for _ in range(300):
        host = _random_complete(rng, 6, 3)
        calls.clear()
        kano_li_floor(host)
        assert len(calls) == len(host.used_colors()), host._colors


def test_kano_li_floor_refuses_bipartite_hosts():
    # the floor is a theorem about K_n; on K_{2,4} in one color it would read
    # a 4-cycle against a floor of 6
    host = ColoredBipartite(2, 4, 1, [1] * 8)
    with pytest.raises(ValueError, match="K_n"):
        kano_li_floor(host)


def test_search_above_the_lattice_keeps_the_exact_answers(monkeypatch):
    # above the lattice the depth-first search answers alone, allowed
    # _STATE_CAP pushes, each into a state the levels count too: with the
    # cap at 2,000 pairs, wherever the level search is exact on a seeded
    # class of 21-40 vertices, the whole, target-limited and cycle searches
    # return its witness, exact
    monkeypatch.setattr(paths, "_STATE_CAP", 2_000)
    rng = random.Random(54)
    compared = [0, 0, 0]
    for _ in range(60):
        q = rng.randint(21, 40)
        adj = _random_adj(rng, q, rng.choice([0.05, 0.08, 0.1, 0.15, 0.2, 0.3]))
        target = rng.randint(2, q)
        for kind, (want, route) in enumerate([
            (_reference_path(adj, None), partial(_longest_path, adj, None)),
            (_reference_path(adj, target), partial(_longest_path, adj, target)),
            (_reference_cycle(adj), partial(_longest_cycle, adj)),
        ]):
            if want[1]:
                assert route() == want, (kind, adj, target)
                compared[kind] += 1
    assert min(compared) >= 10 and max(compared) < 60


def _cliques_at_a_vertex(base, sizes):
    """(edges, next vertex) of cliques of ``sizes`` vertices sharing the
    vertex ``base``, their other vertices numbered on from it."""
    edges, nxt = [], base + 1
    for size in sizes:
        edges += combinations([base, *range(nxt, nxt + size - 1)], 2)
        nxt += size - 1
    return edges, nxt


def test_above_the_lattice_only_a_search_the_cap_can_bind_has_a_budget(monkeypatch):
    # with the cap at 1,000 pairs (the uncapped orders stay 15 and 16),
    # searches above the lattice where the cap cannot bind finish, however
    # many pushes they take: three copies of two K7 at a cut vertex (13-vertex
    # core components, no Hamilton cycle) take more than the cap, and five
    # 6-vertex spiders (960 pairs) cannot.  Other searches are allowed
    # _STATE_CAP pushes and return what they met, inexact, as on three K8 at
    # a vertex (22 vertices, no Hamilton path or cycle)
    monkeypatch.setattr(paths, "_STATE_CAP", 1_000)
    blocks, spiders = [], []
    for base in (0, 13, 26):
        blocks += _cliques_at_a_vertex(base, [7, 7])[0]
    for c in range(0, 30, 6):
        spiders += [(c, c + 1), (c + 1, c + 2), (c, c + 3), (c + 3, c + 4), (c, c + 5)]
    heavy = _edges_adj(22, _cliques_at_a_vertex(0, [8, 8, 8])[0])
    cases = [
        (_edges_adj(39, blocks), True, True),
        (_edges_adj(30, spiders), False, True),
        (heavy, True, False),
        (heavy, False, False),
    ]
    for adj, cycle, free in cases:
        kept = paths._two_core(adj) if cycle else (1 << len(adj)) - 1
        comps = components(adj, kept)
        order = max(map(int.bit_count, comps))
        unbounded = paths._first_path(adj, comps, order, cycle, 0)
        budgeted = paths._first_path(adj, comps, order, cycle, 1_001)
        got = _longest_cycle(adj) if cycle else _longest_path(adj, None)
        assert unbounded[1] and got == (unbounded if free else budgeted), (cycle, free)
        assert budgeted[1] == (free and not cycle), (cycle, free)


def test_r1_classes_above_the_lattice():
    # each color class of gen_R1(100, 4) has a 66- or 67-vertex component.
    # Color 3's path search meets its component's order, a certified stop;
    # color 1's cycle search runs out of pushes and returns the longest
    # cycle it met, validated and inexact, in seconds (the level search
    # returned 8 vertices after 16 s)
    host = gen_R1(100, 4).host
    w = longest_mono_path(host, 3)
    assert w.order == 67 and w.exact
    start = time.perf_counter()
    c = longest_mono_cycle(host, 1)
    assert time.perf_counter() - start < 15
    validate_cycle(host, c)
    assert c.length >= 39 and not c.exact


def _side_by_side(rng, q, largest):
    """Adjacency bitmasks of ``_random_class`` parts of at most ``largest``
    vertices side by side, q in all, relabeled at random: a disconnected
    class whose components have at most ``largest`` vertices.  Half the
    parts after the first are as large as it, so that several components
    tie for the largest."""
    adj, start = [0] * q, 0
    perm = list(range(q))
    rng.shuffle(perm)
    first = rng.randint(8, largest)
    while start < q:
        size = first if not start or rng.random() < 0.5 else rng.randint(1, largest)
        size = min(q - start, size)
        for v, nbrs in enumerate(_random_class(rng, size)):
            for w in iter_bits(nbrs):
                adj[perm[start + v]] |= 1 << perm[start + w]
        start += size
    return adj


def test_depth_first_route_on_small_components():
    # the cap cannot bind on a class of 16-26 vertices whose components are
    # small enough, and there the depth-first answer (budgeted up to 20
    # vertices, with no lattice to fall back on above) is the level
    # search's (witness, exact)
    rng = random.Random(51)
    for i in range(100):
        q = rng.randint(16, 26)
        largest = paths._PATH_UNCAPPED if i % 2 else paths._CYCLE_UNCAPPED
        adj = _side_by_side(rng, q, largest)
        if largest == paths._PATH_UNCAPPED:
            for target in (None, 2, q // 2):
                assert _longest_path(adj, target) == _reference_path(adj, target), (adj, target)
        assert _longest_cycle(adj) == _reference_cycle(adj), adj


def _edges_adj(q, edges):
    adj = [0] * q
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def test_component_rule_and_push_budget_pick_the_route(monkeypatch):
    # F3(12,12,6) color 1 and two disjoint 12-cycles have 24 vertices in
    # 12-vertex components, and a bowtie beside a 5-cycle ties two 5-vertex
    # core components, the first without a Hamilton cycle: the depth-first
    # route answers all of them, the level search patched to raise
    host = gen_F3(12, 12, 6).host
    f3 = _relabeled_class(host, 1)
    ring = [(v, (v + 1) % 12) for v in range(12)]
    two_rings = _edges_adj(24, ring + [(u + 12, v + 12) for u, v in ring])
    bowtie = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    pentagon = [(v, (v + 1) % 5) for v in range(5)]
    ties = [
        _edges_adj(10, first + [(u + 5, v + 5) for u, v in second])
        for first, second in [(bowtie, pentagon), (pentagon, bowtie)]
    ]
    want = [(_reference_path(adj, None), _reference_cycle(adj)) for adj in [f3, two_rings]]
    want_ties = [_longest_cycle_bits(adj) for adj in ties]
    assert [cycle for cycle, _ in want_ties] == [[5, 6, 7, 8, 9], [0, 1, 2, 3, 4]]
    witnesses = longest_mono_path(host, 1), longest_mono_cycle(host, 1)

    def refuse(*args):
        raise AssertionError("the level search ran")

    monkeypatch.setattr(paths, "_longest_path_bits", refuse)
    monkeypatch.setattr(paths, "_longest_cycle_bits", refuse)
    for adj, (path, cycle) in zip([f3, two_rings], want):
        assert (_longest_path(adj, None), _longest_cycle(adj)) == (path, cycle)
    assert [_longest_cycle(adj) for adj in ties] == want_ties
    assert (longest_mono_path(host, 1), longest_mono_cycle(host, 1)) == witnesses
    # a 16-clique with a pendant vertex at each of its vertices: the cap
    # cannot bind on its 2-core, the clique, whose Hamilton cycle is found
    # without the levels
    clique = _edges_adj(32, [*combinations(range(16), 2), *((v, v + 16) for v in range(16))])
    assert _longest_cycle(clique) == (list(range(16)), True)
    monkeypatch.undo()
    # a connected 16-vertex class can reach the cap, so it goes to the levels
    monkeypatch.setattr(paths, "_first_path", refuse)
    line = _edges_adj(16, [(v, v + 1) for v in range(15)])
    assert _longest_path(line, None) == (list(range(16)), True)
    # on R1(18,6) colors 1 and 2 the search gives up at its push budget and
    # the lattice answers; without the budget it would find that witness
    monkeypatch.undo()
    first_path, budget = paths._first_path, paths._PUSH_BUDGET
    tries = []
    monkeypatch.setattr(
        paths, "_first_path", lambda adj, *rest: tries.append(first_path(adj, *rest)) or tries[-1]
    )
    r1 = gen_R1(18, 6).host
    for color in (1, 2):
        adj = _relabeled_class(r1, color)
        assert len(adj) <= paths._LATTICE_ORDER
        for route, levels in (
            (partial(_longest_path, adj, None), partial(_longest_path_bits, adj, None)),
            (partial(_longest_cycle, adj), partial(_longest_cycle_bits, adj)),
        ):
            tries.clear()
            got = route()
            assert [finished for _, finished in tries] == [False] and got == levels()
            monkeypatch.setattr(paths, "_PUSH_BUDGET", [0] * len(budget))
            tries.clear()
            assert route() == got and tries == [(got[0], True)]
            monkeypatch.setattr(paths, "_PUSH_BUDGET", budget)


def _searched_path(adj, target):
    """The depth-first search's path as ``_longest_path`` asks for it, on
    the vertices with an edge."""
    comps = components(adj, sum(1 << v for v in _support_of(adj)))
    bound = max(map(int.bit_count, comps))
    if target is not None:
        bound = min(bound, target)
    return paths._first_path(adj, comps, bound, False, 0)[0]


def _searched_cycle(adj):
    """The depth-first search's cycle as ``_longest_cycle`` asks for it."""
    core = paths._two_core(adj)
    if not core:
        return []
    comps = components(adj, core)
    return paths._first_path(adj, comps, max(map(int.bit_count, comps)), True, 0)[0]


def test_depth_first_search_is_the_level_search(monkeypatch):
    # with no push budget the depth-first search always answers, and where
    # the level search is exact the two have the same witness: on every
    # labeled graph of at most 5 vertices, for whole and target-limited path
    # searches and cycle searches, and on seeded random classes of 6-20
    # vertices, where the routes must agree with the levels too
    monkeypatch.setattr(paths, "_PUSH_BUDGET", [0] * len(paths._PUSH_BUDGET))
    graphs = []
    for q in range(1, 6):
        pairs = list(combinations(range(q), 2))
        for edges in range(1 << len(pairs)):
            graphs.append(_edges_adj(q, [pairs[i] for i in iter_bits(edges)]))
    rng = random.Random(52)
    for _ in range(150):
        # above 16 vertices only sparse classes, whose lattice is cheap
        q = rng.randint(6, 20)
        if q <= 16 and rng.random() < 0.7:
            graphs.append(_random_class(rng, q))
        else:
            graphs.append(_random_adj(rng, q, rng.choice([0.1, 0.15])))
    for adj in graphs:
        for target in (None, 1, 2, 3):
            want = _levels_on_support(_longest_path_bits, adj, target)
            if want[1]:
                assert _searched_path(adj, target) == want[0], (adj, target)
            assert _longest_path(adj, target) == want, (adj, target)
        want = _longest_cycle_bits(adj)
        if want[1]:
            assert _searched_cycle(adj) == want[0], adj
        assert _longest_cycle(adj) == want, adj


def test_classes_without_a_spanning_path_skip_the_levels(monkeypatch):
    # the search keeps its longest path, so on K6-scale classes with no
    # Hamilton path (K1_3, a spider) or no Hamilton cycle in the 2-core (a
    # bowtie with a tail at its centre) the answer comes without the levels
    spider = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)]
    bowtie = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5)]
    classes = [_edges_adj(4, [(0, 1), (0, 2), (0, 3)]), _edges_adj(6, spider), _edges_adj(6, bowtie)]
    want = [(_longest_path_bits(adj, None), _longest_cycle_bits(adj)) for adj in classes]
    assert [len(path) for (path, _), _ in want] == [3, 5, 5]
    assert [cycle for _, (cycle, _) in want] == [[], [], [0, 1, 2]]

    def refuse(*args):
        raise AssertionError("the level search ran")

    monkeypatch.setattr(paths, "_longest_path_bits", refuse)
    monkeypatch.setattr(paths, "_longest_cycle_bits", refuse)
    for adj, (path, cycle) in zip(classes, want):
        assert (_longest_path(adj, None), _longest_cycle(adj)) == (path, cycle)


def test_class_masks_refuse_unused_and_undeclared_colors():
    # a class is the host's own color masks, on K_n and K_{s,t} hosts
    # alike, and colors that are unused or outside 1..m are refused with
    # their own messages
    rng = random.Random(53)
    hosts = [_random_complete(rng, rng.randint(2, 12), rng.randint(1, 4)) for _ in range(60)]
    for _ in range(60):
        s, t, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
        hosts.append(ColoredBipartite(s, t, m, [rng.randint(1, m) for _ in range(s * t)]))
    for host in hosts:
        for c in range(1, host.m + 1):
            g = restrict(host, {c})
            if not g.support():
                with pytest.raises(ValueError, match=f"color {c} is unused"):
                    paths._class_masks(host, c)
                continue
            assert paths._class_masks(host, c) == g.adj_bits
        for c in (0, host.m + 1):
            with pytest.raises(ValueError, match=rf"color {c} outside declared range 1\.\.{host.m}$"):
                paths._class_masks(host, c)
    assert any(len(host.used_colors()) < host.m for host in hosts)


def test_classes_in_host_labels_answer_as_on_their_support():
    # K_16-K_24 and K_{s,t} hosts (16-24 vertices) whose color 1 misses some
    # vertices: the path, target-limited path and cycle searches in host
    # labels give the level search's witness on the class relabeled onto
    # its support, mapped back (the cycle where that search is exact)
    rng = random.Random(55)
    hosts = []
    for i in range(24):
        n, m, p = rng.randint(16, 24), rng.randint(2, 3), rng.choice([0.15, 0.3, 0.5, 0.8])
        if i % 2:
            s = rng.randint(6, n - 6)
            left = set(rng.sample(range(s), rng.randint(2, min(s, 8))))
            right = set(rng.sample(range(n - s), rng.randint(2, min(n - s, 8))))
            hosts.append(ColoredBipartite.from_function(
                s, n - s, m,
                lambda u, v: 1 if u in left and v in right and rng.random() < p else rng.randint(2, m),
            ))
        else:
            inside = set(rng.sample(range(n), rng.randint(6, 16)))
            hosts.append(ColoredComplete(n, m, [
                1 if u in inside and v in inside and rng.random() < p else rng.randint(2, m)
                for u, v in combinations(range(n), 2)
            ]))
    compared = 0
    for host in hosts:
        if 1 not in host.used_colors():
            continue
        adj = host.color_masks(1)
        assert 0 < len(_support_of(adj)) < host.vertex_count
        path, exact = _levels_on_support(_longest_path_bits, adj, None)
        assert longest_mono_path(host, 1) == (1, tuple(path), exact)
        for target in (rng.randint(2, len(path)), len(path) + 1):
            found, exact = _levels_on_support(_longest_path_bits, adj, target)
            want = (1, tuple(found), True) if len(found) >= target else None
            assert paths._mono_path_of_order(host, 1, target) == (want, exact)
        cycle, exact = _levels_on_support(_longest_cycle_bits, adj)
        if exact and cycle:
            assert longest_mono_cycle(host, 1) == (1, tuple(cycle), True)
            compared += 1
    assert compared >= 12


def _pushes_to_answer(adj, comps, bound, cycle):
    """The fewest pushes with which ``_first_path`` answers: the least budget
    it does not stop at, less one."""
    budget = 1
    while not paths._first_path(adj, comps, bound, cycle, budget)[1]:
        budget += 1
    return budget - 1


def test_a_search_that_meets_its_bound_pushes_only_where_it_can():
    # the starts that can reach the bound go first, so a K4 on the least
    # vertices costs no push when a 6-cycle beside it meets the bound, for a
    # path and a cycle search alike: with only its own start the 6-cycle
    # takes four pushes too
    k4_and_ring = _edges_adj(10, [*combinations(range(4), 2), *((4 + v, 4 + (v + 1) % 6) for v in range(6))])
    comps = components(k4_and_ring, (1 << 10) - 1)
    for cycle in (False, True):
        assert _pushes_to_answer(k4_and_ring, comps, 6, cycle) == 4
        assert _pushes_to_answer(k4_and_ring, comps[1:], 6, cycle) == 4
    assert paths._first_path(k4_and_ring, comps, 6, True, 0) == ([4, 5, 6, 7, 8, 9], True)
    # of two 6-vertex core components, a triangle and a square at a cut
    # vertex, then a 6-cycle, a cycle search tries only their least vertices
    # before the hit: eleven pushes from 0, four from 6
    blocks = [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (4, 5), (1, 5)]
    ties = _edges_adj(12, blocks + [(6 + v, 6 + (v + 1) % 6) for v in range(6)])
    comps = components(ties, (1 << 12) - 1)
    assert _pushes_to_answer(ties, comps, 6, True) == 15
    assert paths._first_path(ties, comps, 6, True, 0) == ([6, 7, 8, 9, 10, 11], True)
    # a cycle search pushes no vertex of the last level that cannot close
    # the cycle: from 0, 1, 2, 3, 4 the last vertex 5 is not next to 0, and
    # the cycle 0, 1, 2, 3, 5, 4 takes five pushes, not six
    pentagon_and_ear = _edges_adj(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (3, 5), (4, 5)])
    assert _pushes_to_answer(pentagon_and_ear, [(1 << 6) - 1], 6, True) == 5
    assert paths._first_path(pentagon_and_ear, [(1 << 6) - 1], 6, True, 0) == ([0, 1, 2, 3, 5, 4], True)
