import hashlib
import random
from itertools import combinations
from math import comb

import networkx as nx
import pytest

from rainbowfree import connectivity
from rainbowfree.claims import _random_graph
from rainbowfree.connectivity import (
    CertificationError,
    _find_cut_below_k,
    _peel_to_kcore,
    _split_flow,
    best_monochromatic,
    best_two_colored,
    gyarfas_floor,
    is_k_connected,
    largest_k_connected,
    mader_extract,
    verify_order_cap,
    vertex_connectivity,
)
from rainbowfree.constructions import gen_F1, gen_R1, gen_counterexample_4t
from rainbowfree.core import (
    ColoredBipartite,
    ColoredComplete,
    SimpleGraph,
    _ColoredHost,
    _random_complete,
    ceil_div,
    components,
    flood,
    induced_subgraph,
    iter_bits,
    restrict,
)
from rainbowfree.oracles import (
    _component,
    oracle_is_k_connected_bits,
    oracle_largest_k_connected,
    oracle_vertex_connectivity,
)


def complete(n):
    return SimpleGraph(n, combinations(range(n), 2))


def random_graph(rng, n, p):
    return SimpleGraph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def test_kappa_known_values():
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])) == 2
    k33 = SimpleGraph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert vertex_connectivity(k33) == 3
    assert vertex_connectivity(SimpleGraph(1, [])) == 0
    assert vertex_connectivity(SimpleGraph(4, [(0, 1)])) == 0


def test_kappa_rejects_empty():
    with pytest.raises(ValueError):
        vertex_connectivity(SimpleGraph(0, []))


def test_is_k_connected_examples():
    assert is_k_connected(complete(4), 3)
    assert not is_k_connected(SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 2)
    # order requirement: K3 is 2-connected but not 3-connected
    assert is_k_connected(complete(3), 2)
    assert not is_k_connected(complete(3), 3)
    with pytest.raises(ValueError):
        is_k_connected(complete(3), 0)


def test_r1_color2_restriction_is_3_connected():
    g = restrict(gen_R1(9, 4).host, {2})
    assert g.edge_count == 12
    support = g.support()
    assert len(support) == 6
    assert is_k_connected(induced_subgraph(g, support), 3)


def test_kappa_agrees_with_brute_force():
    rng = random.Random(12)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6, 0.9]))
        assert vertex_connectivity(g) == oracle_vertex_connectivity(g)


def test_is_k_connected_agrees_with_brute_force():
    rng = random.Random(13)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.6, 0.9]))
        for k in (1, 2, 3, 4):
            assert is_k_connected(g, k) == oracle_is_k_connected_bits(g.adj_bits, (1 << g.n) - 1, k)


def test_largest_k_connected_r1_examples():
    host = gen_R1(9, 4).host
    rep = largest_k_connected(host, {1}, 1)
    assert (rep.lower, rep.upper, rep.exact) == (6, 6, True)
    assert rep.witness == (0, 1, 2, 3, 4, 5)


def test_largest_k_connected_mono_k6():
    host = ColoredComplete(6, 1, [1] * 15)
    rep = largest_k_connected(host, {1}, 5)
    assert rep.lower == 6


def test_largest_exact_agrees_with_enumeration():
    rng = random.Random(14)
    for _ in range(120):
        n, m = rng.randint(3, 9), rng.randint(1, 3)
        host = _random_complete(rng, n, m)
        used = sorted(host.used_colors())
        masks = [{c} for c in used] + ([set(used[:2])] if len(used) >= 2 else [])
        for mask in masks:
            for k in (1, 2, 3):
                rep = largest_k_connected(host, mask, k)
                want = oracle_largest_k_connected(restrict(host, mask), k)
                assert rep.exact is True
                assert rep.lower == rep.upper == len(rep.witness) == want


def test_largest_exact_agrees_with_enumeration_n12():
    rng = random.Random(45)
    for _ in range(3):
        host = _random_complete(rng, 12, 3)
        for k in (2, 3):
            rep = largest_k_connected(host, {1}, k)
            want = oracle_largest_k_connected(restrict(host, {1}), k)
            assert rep.lower == want and rep.upper == want


def test_uncapped_search_is_exact():
    # the search has no depth cap, so every answer is exact
    rng = random.Random(15)
    for _ in range(60):
        host = _random_complete(rng, rng.randint(4, 10), rng.randint(1, 3))
        for k in (1, 2):
            rep = largest_k_connected(host, {1}, k)
            want = oracle_largest_k_connected(restrict(host, {1}), k)
            assert rep.exact is True
            assert rep.lower == rep.upper == len(rep.witness) == want


def colored_by(n, edges):
    """K_n with the given edges in color 1 and every other pair in color 2."""
    edges = set(edges)
    return ColoredComplete.from_function(n, 2, lambda u, v: 1 if (u, v) in edges else 2)


def glued_chain(k, blocks):
    """Color 1 is a chain of K_{k+2} blocks, consecutive blocks sharing k - 1
    vertices, on k + 2 + 3(blocks - 1) vertices: every shared set is a cut
    below k, so the largest k-connected subgraph is one block."""
    n = k + 2 + 3 * (blocks - 1)
    return colored_by(
        n, (e for b in range(blocks) for e in combinations(range(3 * b, 3 * b + k + 2), 2))
    )


def test_triangle_chain_is_exact():
    # color 1 is a chain of 22 triangles, consecutive ones sharing a cut
    # vertex; the search splits off one triangle per level, 22 levels deep
    triangles = 22
    host = colored_by(
        2 * triangles + 1,
        (e for i in range(triangles) for e in combinations(range(2 * i, 2 * i + 3), 2)),
    )
    rep = largest_k_connected(host, {1}, 2)
    assert (rep.lower, rep.upper, rep.exact) == (3, 3, True)
    assert is_k_connected(induced_subgraph(restrict(host, {1}), rep.witness), 2)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_deep_glued_chains_are_exact(k):
    # 150 blocks on 451-453 vertices, so the cut splits nest about 150 deep
    host = glued_chain(k, 150)
    rep = largest_k_connected(host, {1}, k)
    assert (rep.lower, rep.upper, rep.exact) == (k + 2, k + 2, True)
    first = rep.witness[0]
    assert first % 3 == 0 and rep.witness == tuple(range(first, first + k + 2))


def test_largest_agrees_with_networkx_k_components():
    # networkx shares no code with the search.  Its k_components (3.6.1)
    # sometimes misses a k-component; where it reports less, the witness
    # must be k-connected by networkx's own node_connectivity
    rng = random.Random(22)
    hosts = [_random_complete(rng, rng.randint(12, 18), rng.randint(2, 4)) for _ in range(30)]
    hosts.append(glued_chain(2, 24))  # 73 vertices
    agree = total = 0
    for host in hosts:
        g = restrict(host, {1})
        G = to_networkx(g)
        components = nx.k_components(G)
        for k in (1, 2, 3, 4):
            rep = largest_k_connected(host, {1}, k)
            assert rep.exact and rep.lower == rep.upper == len(rep.witness)
            want = max((len(c) for c in components.get(k, [])), default=0)
            assert rep.lower >= want, (host.n, k)
            if rep.lower > want:
                assert nx.node_connectivity(G.subgraph(rep.witness)) >= k
            agree += rep.lower == want
            total += 1
    assert agree >= 0.95 * total, (agree, total)


def test_monotone_in_k_and_mask():
    rng = random.Random(16)
    for _ in range(40):
        host = _random_complete(rng, 8, 3)
        used = sorted(host.used_colors())
        o1 = largest_k_connected(host, {used[0]}, 1).lower
        o2 = largest_k_connected(host, {used[0]}, 2).lower
        assert o2 <= o1
        if len(used) >= 2:
            wide = largest_k_connected(host, set(used[:2]), 2).lower
            assert wide >= o2


def test_best_monochromatic_r1():
    host = gen_R1(9, 4).host
    color, rep = best_monochromatic(host, 2)
    assert color in (1, 2, 3)
    assert rep.lower == 6


def test_best_monochromatic_spanning_for_mono_host():
    host = ColoredComplete(7, 1, [1] * 21)
    color, rep = best_monochromatic(host, 1)
    assert color == 1 and rep.lower == 7


def test_best_two_colored_counterexample_bounded():
    host = gen_counterexample_4t(1, 20).host
    for mask in combinations(sorted(host.used_colors()), 2):
        assert verify_order_cap(host, mask, 4, 18).ok
    # and the cap is tight for the decisive masks: order 18 is reachable
    rep = largest_k_connected(host, {1, 3}, 4)
    assert rep.lower <= 18


def test_mask_loops_stop_at_a_spanning_witness(monkeypatch):
    # ties go to the first mask, so stopping at the first witness that spans
    # the host, and searching each later mask with a floor one above the
    # best witness so far, returns the (mask, report) of running every mask
    def every_mask(host, masks, k):
        best = None
        for mask in masks:
            rep = largest_k_connected(host, mask, k)
            if best is None or rep.lower > best[1].lower:
                best = (mask, rep)
        return best

    ruled_out, looked = [], set()
    search = connectivity._max_k_connected

    def counted(adj_bits, active, k, floor):
        found = search(adj_bits, active, k, floor)
        ruled_out.append(floor > 0 and not found)
        return found

    color_masks = _ColoredHost.color_masks

    def seen(host, *colors):  # the loop reads the masks of each mask it reaches
        looked.add(frozenset(colors))
        return color_masks(host, *colors)

    monkeypatch.setattr(connectivity, "_max_k_connected", counted)
    monkeypatch.setattr(_ColoredHost, "color_masks", seen)
    rng = random.Random(72)
    searches = stopped = skipped = 0
    for i in range(120):
        n, m, k = rng.randint(4, 40), rng.randint(1, 12), rng.randint(1, 4)
        if i % 2:
            s = rng.randint(1, n - 1)
            colors = [rng.randint(1, m) for _ in range(s * (n - s))]
            host = ColoredBipartite(s, n - s, m, colors)
        else:
            host = _random_complete(rng, n, m)
        used = sorted(host.used_colors())
        singles = [(c,) for c in used]
        for masks, best in (
            (singles, best_monochromatic),
            (sorted(singles + list(combinations(used, 2))), best_two_colored),
        ):
            mask, rep = every_mask(host, masks, k)
            ruled_out.clear()
            looked.clear()
            assert best(host, k) == (mask[0] if best is best_monochromatic else frozenset(mask), rep)
            looked.discard(frozenset(masks[0]))  # searched first, with no floor
            searches += 1
            stopped += frozenset(masks[-1]) not in looked
            skipped += any(ruled_out)
    assert stopped > searches // 4 and searches - stopped > searches // 4
    assert skipped > searches // 4, skipped


def test_order_cap_detects_violations():
    host = ColoredComplete(6, 1, [1] * 15)
    res = verify_order_cap(host, {1}, 2, 4)
    assert not res.ok
    assert len(res.counterexample) > 4


def test_order_cap_refuses_k_below_one():
    host = ColoredComplete(5, 2, [1] * 10)
    with pytest.raises(ValueError, match="k must be at least 1"):
        verify_order_cap(host, {1}, 0, 3)


def test_mask_loops_refuse_k_below_one():
    host = ColoredComplete(5, 2, [1] * 10)
    for best in (best_monochromatic, best_two_colored):
        with pytest.raises(ValueError, match="k must be at least 1"):
            best(host, 0)


def test_order_cap_agrees_with_subset_enumeration():
    # the enumeration the exact search replaced, on the independent oracle
    rng = random.Random(10)
    for i in range(200):
        n, m, k = rng.randint(4, 9), rng.randint(1, 3), rng.randint(1, 3)
        if i % 4:
            host = _random_complete(rng, n, m)
        else:
            s = rng.randint(1, n - 1)
            host = ColoredBipartite(s, n - s, m, [rng.randint(1, m) for _ in range(s * (n - s))])
        mask = {c for c in range(1, m + 1) if rng.random() < 0.6} or {m}
        g = restrict(host, mask)
        kconn = [S for S in range(1 << n) if oracle_is_k_connected_bits(g.adj_bits, S, k)]
        for cap in range(n + 1):
            res = verify_order_cap(host, mask, k, cap)
            assert res.ok == all(S.bit_count() <= cap for S in kconn), (i, cap)
            if res.ok:
                above = sum(S.bit_count() > cap for S in range(1 << n))
                assert res.subsets_checked == above and res.counterexample is None
            else:
                witness = sum(1 << v for v in res.counterexample)
                assert len(res.counterexample) == oracle_largest_k_connected(g, k)
                assert oracle_is_k_connected_bits(g.adj_bits, witness, k)


def test_order_caps_scale():
    # enumerating the subsets above the cap took about 20 s per host at t = 3
    # and did not finish at t = 6
    above_188 = sum(comb(200, r) for r in range(189, 201))
    for t, n, checked in ((3, 60, 5_985_198), (6, 200, above_188)):
        host = gen_counterexample_4t(t, n).host
        for mask in combinations(sorted(host.used_colors()), 2):
            res = verify_order_cap(host, mask, 4 * t, n - 2 * t)
            assert res.ok and res.subsets_checked == checked, (t, mask)


def test_mader_k9():
    g = complete(9)  # average degree 8, target ceil(8/4) = 2
    sub = mader_extract(g)
    assert is_k_connected(sub, 2)
    assert sub.n == 9


def test_mader_star():
    g = SimpleGraph(10, [(0, i) for i in range(1, 10)])  # alpha = 1.8, target 1
    sub = mader_extract(g)
    assert is_k_connected(sub, 1)


def test_mader_random_certified():
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randint(6, 30), rng.choice([0.3, 0.5, 0.8]))
        if g.edge_count == 0:
            with pytest.raises(ValueError):
                mader_extract(g)
            continue
        k = ceil_div(g.edge_count, 2 * g.n)
        sub = mader_extract(g)
        assert is_k_connected(sub, k)


def test_gyarfas_floor_f1():
    color, comp = gyarfas_floor(gen_F1(12, 6, 4).host)
    assert len(comp) == 9


def test_gyarfas_floor_two_colored_spans():
    rng = random.Random(18)
    for _ in range(30):
        host = _random_complete(rng, rng.randint(4, 10), 2)
        if len(host.used_colors()) < 2:
            continue
        color, comp = gyarfas_floor(host)
        assert len(comp) >= host.n  # a monochromatic spanning tree exists


def test_gyarfas_floor_random_three_colorings():
    rng = random.Random(19)
    for _ in range(120):
        host = _random_complete(rng, 12, 3)
        if len(host.used_colors()) < 2:
            continue
        color, comp = gyarfas_floor(host)
        assert len(comp) >= ceil_div(12, 2)


def test_gyarfas_floor_needs_two_colors():
    with pytest.raises(ValueError):
        gyarfas_floor(ColoredComplete(5, 1, [1] * 10))


def to_networkx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges)
    return G


def test_kappa_and_cuts_agree_with_networkx_medium():
    # networkx shares no code with the bitset kernel, so it reaches past the
    # n <= 9 brute-force oracle
    rng = random.Random(21)
    for n in (20, 28, 36, 44, 52, 60):
        for p in (0.2, 0.4, 0.7):
            g = random_graph(rng, n, p)
            kappa = nx.node_connectivity(to_networkx(g))
            assert vertex_connectivity(g) == kappa, (n, p)
            full = (1 << n) - 1
            for k in range(max(1, kappa - 1), kappa + 2):
                assert is_k_connected(g, k) == (kappa >= k), (n, p, k)
                cut = _find_cut_below_k(g.adj_bits, full, k)
                if cut is not None:
                    rest = full & ~cut
                    low = (rest & -rest).bit_length() - 1
                    assert cut.bit_count() < k
                    assert flood(g.adj_bits, rest, low) != rest


def cut_by_every_flow(adj_bits, active, k):
    """The cut driver without its safe-set closure: a flow from each of k
    anchors to each of its non-neighbors."""
    for v in iter_bits(active):
        if (adj_bits[v] & active).bit_count() < k:
            return adj_bits[v] & active
    for v in list(iter_bits(active))[:k]:
        for u in iter_bits(active & ~adj_bits[v] & ~(1 << v)):
            f, cut = _split_flow(adj_bits, active, v, u, k)
            if f < k:
                return cut
    return None


def test_floods_and_k1_cuts_agree_with_the_oracle_component():
    # flood walks each frontier bit by bit, and the cut driver decides k = 1
    # with one flood: on seeded random graphs, whole and on proper active
    # subsets, each vertex floods its oracle component, components() lists
    # them by least vertex, and the k = 1 cut is exactly 0 or None
    rng = random.Random(43)
    isolated = split = connected = proper = 0
    for _ in range(600):
        n = rng.randint(1, 24)
        g = random_graph(rng, n, rng.uniform(0.0, 0.4))
        full = (1 << n) - 1
        for active in (full, sum(1 << v for v in range(n) if rng.random() < 0.7)):
            if not active:
                continue
            want, rest = [], active
            while rest:
                want.append(_component(g.adj_bits, rest))
                rest &= ~want[-1]
            assert components(g.adj_bits, active) == want, (g, active)
            for v in iter_bits(active):
                assert flood(g.adj_bits, active, v) == next(c for c in want if c >> v & 1)
            if active.bit_count() < 2:
                continue
            cut = _find_cut_below_k(g.adj_bits, active, 1)
            assert cut == (None if len(want) == 1 else 0) and type(cut) in (int, type(None))
            isolated += any(c.bit_count() == 1 for c in want)
            split += len(want) > 2
            connected += cut is None
            proper += active != full
    assert min(isolated, split, connected, proper) > 100


def test_skipped_flows_keep_the_first_cut():
    rng = random.Random(22)
    cuts = skips = 0
    for _ in range(300):
        n = rng.randint(6, 30)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        active = sum(1 << v for v in range(n) if rng.random() < 0.9)
        for k in range(1, min(8, active.bit_count())):
            cut = _find_cut_below_k(g.adj_bits, active, k)
            assert cut == cut_by_every_flow(g.adj_bits, active, k), (g, active, k)
            cuts += cut is not None
            v = (active & -active).bit_length() - 1
            around = g.adj_bits[v] & active
            skips += any(
                (g.adj_bits[u] & around).bit_count() >= k
                for u in iter_bits(active & ~around & ~(1 << v))
            )
    assert cuts > 200 and skips > 200


def closure_without_flows(adj_bits, active, v, k):
    """The safe set of anchor v before any flow: v's neighbors, then every
    vertex with k safe neighbors, repeated until nothing joins."""
    safe = adj_bits[v] & active
    grown = True
    while grown:
        grown = False
        for u in iter_bits(active & ~safe & ~(1 << v)):
            if (adj_bits[u] & safe).bit_count() >= k:
                safe |= 1 << u
                grown = True
    return safe


def test_safe_set_closure_keeps_the_first_cut():
    # sparser graphs than above, where vertices two or more steps from an
    # anchor join its safe set through other non-neighbors: the driver still
    # returns the cut of the first failing pair, and the propagation
    # certifies vertices that k common neighbors alone would not
    rng = random.Random(46)
    cuts = none = propagated = 0
    for _ in range(300):
        n = rng.randint(8, 40)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        active = sum(1 << v for v in range(n) if rng.random() < 0.9)
        for k in range(2, min(7, active.bit_count())):
            cut = _find_cut_below_k(g.adj_bits, active, k)
            assert cut == cut_by_every_flow(g.adj_bits, active, k), (g, active, k)
            cuts += cut is not None
            none += cut is None
            v = (active & -active).bit_length() - 1
            around = g.adj_bits[v] & active
            safe = closure_without_flows(g.adj_bits, active, v, k)
            propagated += sum(
                (g.adj_bits[u] & around).bit_count() < k for u in iter_bits(safe & ~around)
            )
    assert cuts > 200 and none > 200 and propagated > 200, (cuts, none, propagated)


def hypercube(d):
    edges = [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1]
    return SimpleGraph(1 << d, edges)


def test_closure_flow_counts(monkeypatch):
    # the safe-set closure certifies Q6 at k = 2 and every golden Mader
    # graph without a flow, and the networkx descent with at most 229 flows;
    # with k common neighbors as the only skip they took 84, 79 and 2,921
    flows = []

    def counted(*args):
        flows.append(args)
        return _split_flow(*args)

    monkeypatch.setattr(connectivity, "_split_flow", counted)
    assert is_k_connected(hypercube(6), 2) and not flows
    rng = random.Random(44)
    drawn = 0
    while drawn < len(GOLDEN_MADER):
        g = _random_graph(rng, rng.randint(8, 30), rng.choice([0.3, 0.5, 0.8]))
        if g.edge_count:
            mader_extract(g)
            drawn += 1
    assert not flows
    rng = random.Random(21)
    for n in (20, 28, 36, 44, 52, 60):
        for p in (0.2, 0.4, 0.7):
            vertex_connectivity(random_graph(rng, n, p))
    assert 0 < len(flows) <= 229


def planted_cut_cases():
    """200 (graph, active, k) cases: two dense sides joined through a small
    separator plus a few leaked edges, so about a third have a cut below k."""
    rng = random.Random(20181115)
    count = 0
    while count < 200:
        n = rng.randint(12, 32)
        order = list(range(n))
        rng.shuffle(order)
        sep = rng.randint(1, 5)
        split = rng.randint(sep + 3, n - 3)
        S, A = set(order[:sep]), set(order[sep:split])
        p = rng.choice([0.5, 0.7, 0.9])
        leak = rng.choice([0.0, 0.01, 0.03])
        edges = []
        for u, v in combinations(range(n), 2):
            crossing = (u in A) != (v in A) and u not in S and v not in S
            if rng.random() < (leak if crossing else p):
                edges.append((u, v))
        g = SimpleGraph(n, edges)
        k = rng.randint(sep, sep + 2)
        active = 0
        for v in range(n):
            if rng.random() < 0.95:
                active |= 1 << v
        active = _peel_to_kcore(g.adj_bits, active, k)
        if active.bit_count() >= k + 1:
            count += 1
            yield g, active, k


def planted_blocks(rng):
    """Dense blocks of 3-12 vertices (edge density 0.6-1.0) in a chain,
    consecutive blocks joined by 0-3 edges, plus up to two random chords."""
    blocks, n = [], 0
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(3, 12)
        blocks.append(range(n, n + size))
        n += size
    edges = set()
    for block in blocks:
        p = rng.uniform(0.6, 1.0)
        edges.update(e for e in combinations(block, 2) if rng.random() < p)
    for a, b in zip(blocks, blocks[1:]):
        for _ in range(rng.randint(0, 3)):
            edges.add((rng.choice(a), rng.choice(b)))
    for _ in range(rng.randint(0, 2)):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return SimpleGraph(n, edges)


def split_cases():
    """The first 300 planted-block graphs of seed 1500 whose first peel, at
    degree > e/n, still leaves a cut below k = ceil(e/2n): mader_extract
    has to split them."""
    rng = random.Random(1500)
    count = 0
    while count < 300:
        g = planted_blocks(rng)
        n, e = g.n, g.edge_count
        S = _peel_to_kcore(g.adj_bits, (1 << n) - 1, e // n + 1)
        if _find_cut_below_k(g.adj_bits, S, ceil_div(e, 2 * n)) is not None:
            count += 1
            yield g


# Recorded with the dict-network flow kernel this bitset kernel replaced.
# Every maximum flow leaves the same residual-reachable set, so the cut of
# the first failing anchor pair must not move.
GOLDEN_CUTS = (
    32772, None, None, None, 4194320, 8192, None, None, 160, None, 1040, 16, 199360,
    None, 142622724, None, 768, None, 2099200, 8388611, None, None, 128, None, None,
    4689, None, None, None, 66688, None, 524288, 98356, 68, None, 34603008, None,
    16388, 4164, 2338, None, None, 2086, 2, None, None, 139268, 131328, 76, 256,
    None, None, None, 0, None, None, 17, 21520, None, None, None, None, None, None,
    None, None, None, 131136, None, None, None, None, None, 130, 33566721, None,
    None, 65536, 50495488, None, 10, None, 32768, None, 35393, 4096, 160, None,
    1049092, 64, None, None, 137, None, None, None, None, None, None, None, None,
    None, 1, 2097444, 98592, None, None, None, None, None, None, 1245185, None,
    None, None, 8192, None, None, 151011584, 50331648, None, None, None, None, None,
    None, None, 329728, None, None, None, None, 166, None, None, 46153737, 33557792,
    None, 32809, None, None, None, None, 16384, 8332, None, None, 272, 4128, 4096,
    None, None, None, None, None, 1025, None, None, 204929, 16642, 50305, None,
    None, None, None, None, None, None, None, None, None, 83886146, None, None,
    None, None, None, None, None, 37904, 17306144, None, None, None, 16, None, None,
    6210, None, None, None, None, None, 1048576, None, 2, None, 16, None, None,
)
GOLDEN_MADER = (  # (order, edges, sha256 prefix of the sorted edge list)
    (21, 170, "f3b16c662090"),
    (25, 154, "d6dbe87c6171"),
    (13, 41, "84e701c1b50b"),
    (18, 53, "1261fe060570"),
    (8, 20, "a78811e553c7"),
    (10, 23, "64029782203f"),
    (14, 34, "e1aa8fad4fd3"),
    (12, 41, "bdddb8597fbb"),
    (24, 215, "d006a5c942e7"),
    (29, 212, "d5519130e712"),
    (14, 45, "e7c903f6b5db"),
    (29, 326, "848659f17cc0"),
    (13, 65, "b3bf2a8ca1c4"),
    (16, 99, "fa23d696cd37"),
    (27, 185, "6d47dc56ee66"),
    (15, 37, "28d472b0adfe"),
    (25, 87, "b07354a3c27d"),
    (9, 25, "0625f974e5a1"),
    (14, 39, "0cc567e07dd0"),
    (23, 206, "cff7dbd2b54c"),
    (28, 187, "822c8f794292"),
    (24, 216, "a2ec12c25a16"),
    (29, 199, "c900376e9dd9"),
    (17, 41, "900d46eaeeea"),
    (21, 70, "ea6802a1e684"),
    (13, 24, "fd9aadd7734e"),
    (9, 31, "51b7f1c265c3"),
    (16, 103, "089d5b0c0318"),
    (5, 6, "61fb0d268f95"),
    (20, 158, "17c0374f5c44"),
    (14, 40, "e49da2d4db66"),
    (14, 68, "9584174470ca"),
    (24, 93, "eec3541b8bce"),
    (16, 67, "a76b78ef9cfd"),
    (21, 72, "7c454ef30da5"),
    (30, 238, "2d36d700bdcd"),
    (16, 63, "9c58f53a4151"),
    (21, 166, "8e54b03462bb"),
    (25, 95, "ed62f89c596d"),
    (30, 353, "59a6c72d530f"),
    (14, 49, "cab270bc92fd"),
    (9, 14, "b60246f0df0f"),
    (26, 169, "70217cc7e650"),
    (22, 183, "974bcab9a215"),
    (13, 59, "4939424adc95"),
    (10, 18, "f75d7738366f"),
    (18, 116, "1cda4c320b31"),
    (28, 204, "6fa04280ea77"),
    (24, 133, "b5d13bf0b6ed"),
    (11, 27, "a73e940d0987"),
)

# Recorded with the extraction the single loop replaced, whose split loop
# fell back to a min-degree sweep and a branch and bound; one (order,
# edges, sha256 prefix of the sorted edge list) per split case.
GOLDEN_MADER_SPLITS = (
    (11, 37, "7a0cda6d885a"), (13, 68, "61f58aac3ce4"), (11, 46, "7800b9d9564e"),
    (7, 21, "c2cd794859f6"), (10, 45, "2a881430eadb"), (11, 48, "d704a22931b9"),
    (12, 59, "e85c2919baad"), (22, 88, "c17933f3786e"), (8, 12, "ba5ca001fa39"),
    (10, 39, "0fa9fa7cdae9"), (8, 19, "bc3c489bc01d"), (12, 40, "2ea7b94eceb7"),
    (11, 30, "a0277d89e53b"), (9, 31, "c9cb1a63fdad"), (11, 44, "d94d2e53ecc0"),
    (9, 35, "709b28154ad8"), (7, 15, "6fb25813052e"), (15, 40, "5398987403d8"),
    (7, 17, "422d7107b676"), (7, 15, "57fef9fcd903"), (17, 64, "f2cf3cfc2af9"),
    (7, 14, "4cf6b5b71ab8"), (9, 28, "df685ce604af"), (12, 65, "10803e3d3e7d"),
    (6, 14, "c3aa70144fb5"), (12, 54, "095fec08501b"), (9, 28, "7e3d7dde42d8"),
    (12, 50, "4041797b1a7c"), (10, 41, "cd4009664f87"), (11, 45, "b050355ffe16"),
    (14, 42, "60952ed6f4a2"), (11, 47, "c946807ddd3f"), (18, 63, "8e8debdc528d"),
    (12, 65, "3bd8f601f352"), (11, 49, "008f5b34420d"), (9, 30, "d0929e03983e"),
    (21, 81, "05e4b9df1533"), (7, 14, "83521b22cc24"), (12, 55, "f6509405a0ee"),
    (21, 94, "efb943eb300f"), (11, 39, "ce027c865852"), (10, 40, "5fa791f51920"),
    (18, 76, "343dcd16146c"), (12, 66, "af6e1a742150"), (5, 9, "b139ba4e0122"),
    (6, 15, "834403c8d06a"), (10, 45, "2a881430eadb"), (8, 25, "b10dd37824b4"),
    (11, 54, "e9c63fa68184"), (10, 41, "26564299a1ab"), (11, 46, "2cf51be3786b"),
    (10, 27, "c8398984a989"), (9, 35, "709b28154ad8"), (12, 50, "831380b15579"),
    (12, 55, "8930af497987"), (11, 50, "6eb74580a0e7"), (8, 23, "d936f169f05c"),
    (8, 28, "d71733957207"), (11, 52, "8f97950e6e77"), (17, 54, "cd4fa2d75976"),
    (11, 53, "eae39deb3acc"), (24, 118, "9baa9845e696"), (11, 54, "378d047d13aa"),
    (10, 34, "e52a9f48fced"), (11, 38, "385ab00ee437"), (7, 16, "e329c338a0bf"),
    (11, 52, "499ab852e6a3"), (10, 41, "06883d099af4"), (12, 65, "cacced0980c0"),
    (12, 57, "13a6f589c518"), (12, 51, "3056cd0e70e2"), (12, 45, "6a3017119bea"),
    (18, 73, "fc2fb2ef3fee"), (10, 44, "d80802dfdd83"), (11, 53, "fe9e4fd7d5de"),
    (7, 16, "4a4e8f44cff4"), (10, 43, "57cedfdfda28"), (12, 64, "178efaefef50"),
    (7, 20, "d4409a173ec2"), (10, 44, "a6bf943a10fc"), (12, 57, "3cb354efed7a"),
    (12, 36, "f29348fa76d2"), (11, 51, "5087c402ef75"), (10, 39, "3a9949fe263b"),
    (8, 24, "e7e04eb81249"), (12, 37, "88e4d214a209"), (17, 58, "4f66ef444b79"),
    (8, 28, "d71733957207"), (10, 32, "7357779b9471"), (12, 43, "c63944e3eae7"),
    (5, 10, "d02d8214d0cc"), (8, 26, "ed42e21490a6"), (7, 20, "fba0c7daf250"),
    (7, 21, "c2cd794859f6"), (10, 43, "64a25633322c"), (11, 40, "2ebc74047f49"),
    (14, 40, "b654fb38442a"), (12, 49, "0b8464133f08"), (11, 51, "a8e473789152"),
    (7, 18, "bc8da4741407"), (10, 31, "9d36b75d202c"), (5, 10, "d02d8214d0cc"),
    (11, 48, "2e7e416b982d"), (9, 28, "8becd9ffaa63"), (12, 63, "81ae47762fe2"),
    (24, 97, "c432216fa410"), (16, 53, "e86fde2ec89f"), (8, 26, "de2b518764ae"),
    (11, 52, "2d4a1e45e7f0"), (10, 37, "48bcc153396c"), (9, 36, "0f1330faca56"),
    (22, 112, "8e3b263741bd"), (9, 34, "3528fcad45a3"), (10, 45, "2a881430eadb"),
    (11, 41, "7f733823b441"), (9, 32, "9a799a8616d8"), (9, 31, "e764df3e5471"),
    (12, 60, "48098e471967"), (12, 55, "30af7e6712f1"), (10, 40, "2ff74120e0d9"),
    (11, 42, "bd2d8ea5aa91"), (12, 64, "9a184bb40b55"), (20, 79, "0105bfaca8ba"),
    (15, 45, "9341ab996636"), (20, 76, "d7229cd665a5"), (11, 45, "71d85e9ef3e1"),
    (17, 47, "1ac9576cf053"), (8, 27, "26ace34c3b95"), (12, 52, "8fe23050ddc5"),
    (12, 65, "f472849ac1aa"), (11, 54, "1a20fc3db02d"), (6, 13, "843176eae166"),
    (10, 43, "96bd94178848"), (11, 52, "e94f9f610d4b"), (24, 116, "e1187c063895"),
    (13, 34, "02bf0d889f52"), (10, 19, "0c26e0a9e123"), (11, 50, "210e4c8a17ec"),
    (11, 53, "41f3db4eddca"), (23, 100, "c2d7cf0a4e9b"), (12, 60, "efcc9ef36879"),
    (12, 54, "fcb00c95ed16"), (11, 48, "99224185b94b"), (12, 55, "a753eb39ea34"),
    (10, 40, "59ab1a5a0acd"), (34, 130, "62a1aa100e13"), (13, 37, "7d0ce9d8fa20"),
    (18, 59, "9b7c1532e1a5"), (7, 20, "312e8a7fe8ff"), (8, 21, "3fbdd3823dfe"),
    (12, 41, "9dfb3058e2ef"), (9, 23, "1c2e020c2b86"), (10, 39, "e83eabf2b7f8"),
    (24, 98, "adaf3057e346"), (21, 81, "e6cf172c6de4"), (6, 15, "834403c8d06a"),
    (12, 60, "2efe5b1b312b"), (18, 55, "afd98cf6df63"), (6, 15, "834403c8d06a"),
    (11, 43, "cc64827c77f9"), (18, 59, "7ea1397f8523"), (9, 21, "7fe3592574d1"),
    (6, 15, "834403c8d06a"), (10, 38, "83081ef7b523"), (11, 46, "72bfdbbbb800"),
    (17, 73, "fbbaf54d72dd"), (18, 51, "2098eeb91f9d"), (12, 60, "2d2ff01bfac5"),
    (29, 116, "e021033e940c"), (10, 39, "0feb55d13e4a"), (7, 20, "1ffa9d0443e9"),
    (8, 25, "1c2c9b5f5b6d"), (23, 105, "bf19c88c8845"), (10, 35, "24cc0b048e39"),
    (11, 50, "134812f17d88"), (11, 49, "09863357956c"), (11, 52, "8ffe9bcd7d56"),
    (10, 35, "245245fcf538"), (5, 9, "2bd05c6ac800"), (4, 5, "70b9eb98493d"),
    (8, 26, "a661c080fe5e"), (12, 59, "eb81f67d84a5"), (8, 25, "491a78ac3adf"),
    (22, 86, "dc392db7496f"), (12, 63, "d1041ce85312"), (10, 36, "a3f8d1bebda9"),
    (12, 48, "aa038b5eb5b2"), (11, 39, "f98df0f613ef"), (12, 57, "02320a942e2b"),
    (10, 40, "3da74eb774e6"), (11, 33, "73ad59d790e6"), (8, 28, "d71733957207"),
    (9, 31, "836e9eaab615"), (10, 32, "79930286ffdb"), (11, 51, "1a6c1903e40f"),
    (12, 58, "29f52f1a6889"), (10, 45, "2a881430eadb"), (7, 20, "173ab4ecae90"),
    (10, 44, "2da2290d0a79"), (12, 60, "de2ae3d82e51"), (10, 37, "3d04c4cbbfff"),
    (6, 13, "122b7b5cf4aa"), (12, 50, "772f139b56f1"), (8, 25, "aff957b31c7f"),
    (6, 15, "834403c8d06a"), (27, 97, "2d7b4c0826a1"), (18, 70, "cc4950a24098"),
    (13, 35, "a9402abebd4c"), (12, 55, "29939f3a1b02"), (12, 48, "f470a1220f7a"),
    (11, 52, "a0c008bbfb15"), (12, 55, "d637c301f342"), (5, 10, "d02d8214d0cc"),
    (8, 26, "ecacbca820d8"), (10, 40, "21702603babe"), (10, 38, "aef81581c6da"),
    (9, 29, "f1803d8a5efa"), (11, 54, "81147bab0bf3"), (11, 33, "2abd49ed696c"),
    (13, 39, "e4ebff7b8f8d"), (12, 50, "3551e07b54c3"), (12, 51, "3fad01df925f"),
    (10, 29, "515cdaf88653"), (11, 53, "380869bd4777"), (12, 44, "ae1b08b27e2b"),
    (8, 28, "d71733957207"), (10, 45, "2a881430eadb"), (21, 55, "5773af3f3c24"),
    (9, 26, "69aca3b4b3c5"), (12, 46, "276c397a06d2"), (12, 55, "690fe50b9b5e"),
    (23, 96, "fe36f37209ab"), (10, 44, "2da2290d0a79"), (12, 60, "2a0fea2883ef"),
    (10, 34, "21fe399474de"), (7, 19, "d4afe5f2433f"), (4, 6, "8cf7c838487f"),
    (23, 101, "b0639e31a04c"), (15, 52, "6d38b40e415e"), (11, 43, "ac7b11f20bf3"),
    (13, 37, "05e8061c2e0f"), (11, 54, "0740733c2f1c"), (7, 20, "1ffa9d0443e9"),
    (6, 15, "834403c8d06a"), (7, 20, "d4409a173ec2"), (12, 45, "a5bf230b51e7"),
    (8, 21, "e4d129166ebb"), (11, 48, "71edb8a6abee"), (7, 19, "417890045703"),
    (28, 105, "34f7f7eee99e"), (6, 13, "006f15d09dc0"), (13, 38, "ddacbf05eaeb"),
    (9, 34, "4a1542235cea"), (11, 53, "c2dab785bc9a"), (10, 20, "3327159af434"),
    (16, 48, "fbd7db90a6ed"), (11, 33, "69393b233b27"), (5, 10, "d02d8214d0cc"),
    (11, 46, "5a971cb5828c"), (20, 79, "b9d649d38fc7"), (12, 64, "41f411c5591f"),
    (10, 32, "290c5029a3e2"), (12, 60, "0607daf2e4e8"), (10, 45, "2a881430eadb"),
    (10, 43, "c4778ed25b4d"), (6, 14, "f1d61e89ab6d"), (8, 28, "d71733957207"),
    (12, 63, "2394b271bddd"), (12, 65, "beb183bbe7c8"), (11, 36, "ef29ead5436f"),
    (8, 26, "8a9f06a5943f"), (12, 46, "89836a21ead2"), (28, 105, "91a7bee2cd9e"),
    (11, 48, "c732693f5498"), (12, 61, "de5763363665"), (11, 36, "a168f499ea9a"),
    (10, 44, "7093432b263e"), (22, 95, "778bcfd66b49"), (21, 77, "f52ca9124902"),
    (12, 66, "af6e1a742150"), (20, 79, "4a5c23a703d5"), (16, 66, "f33ef2a6e0d4"),
    (12, 59, "7c7f5b979400"), (8, 26, "48a4b50e62c5"), (12, 64, "b15225b4b134"),
    (11, 41, "3b59b092da25"), (10, 34, "34a330cd05d4"), (8, 26, "b2a355fadc0b"),
    (11, 40, "d5b858fef1d9"), (10, 34, "cb982c00a3ee"), (12, 54, "1e258cea419b"),
    (9, 26, "67ce44bf2e3b"), (11, 52, "330676a107be"), (10, 45, "2a881430eadb"),
    (20, 86, "dcc7398f4120"), (11, 40, "814509209962"), (10, 43, "9d080655b0ab"),
    (11, 37, "e18c4e822501"), (11, 47, "2ee4d35a5cb9"), (11, 46, "c8f00f30dec8"),
)


def test_golden_cuts():
    got = [_find_cut_below_k(g.adj_bits, a, k) for g, a, k in planted_cut_cases()]
    assert got == list(GOLDEN_CUTS)


def test_golden_mader_witnesses():
    # the first 50 graphs the mader-random claim draws with seed 44
    rng = random.Random(44)
    got = []
    while len(got) < len(GOLDEN_MADER):
        n = rng.randint(8, 30)
        p = rng.choice([0.3, 0.5, 0.8])
        g = _random_graph(rng, n, p)
        if g.edge_count == 0:
            continue
        sub = mader_extract(g)
        digest = hashlib.sha256(repr(sorted(sub.edges)).encode()).hexdigest()[:12]
        got.append((sub.n, sub.edge_count, digest))
    assert got == list(GOLDEN_MADER)


def test_golden_mader_split_witnesses():
    got = []
    for g in split_cases():
        sub = mader_extract(g)
        digest = hashlib.sha256(repr(sorted(sub.edges)).encode()).hexdigest()[:12]
        got.append((sub.n, sub.edge_count, digest))
    assert got == list(GOLDEN_MADER_SPLITS)


def test_mader_meets_the_theorem_bound():
    # with k = ceil(e/2n), the output H is k-connected and keeps the
    # invariant of Diestel's proof against the input's n and e:
    # n*||H|| >= e*(|H| - k + 1) and |H| >= 2k - 1
    rng = random.Random(1501)
    graphs = [
        random_graph(rng, rng.randint(2, 40), rng.uniform(0.02, 0.95))
        for _ in range(200)
    ]
    graphs += [planted_blocks(rng) for _ in range(200)]
    for g in graphs:
        n, e = g.n, g.edge_count
        if e == 0:
            continue
        k = ceil_div(e, 2 * n)
        sub = mader_extract(g)
        assert is_k_connected(sub, k)
        assert n * sub.edge_count >= e * (sub.n - k + 1) and sub.n >= 2 * k - 1


def test_split_flow_reroutes_around_a_used_vertex():
    # s=0 p=1 u=2 q=3 t=4: the first, shortest path s-p-u-q-t must be undone
    # at u (its unit arc reversed) to reach flow 2 via s-5-6-q-t and s-p-7-8-t
    g = SimpleGraph(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 3), (1, 7), (7, 8), (8, 4)],
    )
    assert _split_flow(g.adj_bits, (1 << 9) - 1, 0, 4, 3) == (2, 0b100010)
    assert _split_flow(g.adj_bits, (1 << 9) - 1, 0, 4, 2) == (2, None)


def common_neighbor_pairs():
    """(graph, active, s, t, limit, kappa) cases where length-two paths
    carry part of the flow: seeded random graphs, each with a non-adjacent
    pair s, t given exactly 0, k - 1, k and k + 1 common neighbours inside
    the active set, and limits below, at and above kappa, the pair's local
    connectivity in the induced graph."""
    rng = random.Random(47)
    for _ in range(120):
        n = rng.randint(8, 24)
        k = rng.randint(1, 5)
        p = rng.uniform(0.1, 0.6)
        for common in sorted({0, k - 1, k, k + 1}):
            s, t, *others = rng.sample(range(n), n)
            edges = {e for e in combinations(range(n), 2) if rng.random() < p}
            edges.discard((min(s, t), max(s, t)))
            for x in others:
                pair = [(min(s, x), max(s, x)), (min(t, x), max(t, x))]
                if x in others[:common]:
                    edges.update(pair)
                elif edges.issuperset(pair):
                    edges.discard(rng.choice(pair))
            g = SimpleGraph(n, edges)
            active = 1 << s | 1 << t
            for i, x in enumerate(others):
                if i < common or rng.random() < 0.8:
                    active |= 1 << x
            G = to_networkx(g).subgraph(iter_bits(active))
            kappa = nx.node_connectivity(G, s, t)
            for limit in sorted({1, common, kappa - 1, kappa, kappa + 1} - {-1, 0}):
                yield g, active, s, t, limit, kappa


# sha256 of the (flow, cut) of every common_neighbor_pairs case, recorded
# with a kernel that placed the length-two paths before its first search
COMMON_NEIGHBOR_FLOWS = "6d43e7710219730bce456ce9cb78aa3abb6423b7689eca666e715ef998bf0ce2"


def test_split_flow_through_common_neighbors():
    # the flow is the local connectivity capped at the limit, a cut comes
    # back exactly below the limit, has that many vertices and separates s
    # from t, and every answer is the recorded one
    got = []
    capped = partial = above = 0
    for g, active, s, t, limit, kappa in common_neighbor_pairs():
        flow, cut = _split_flow(g.adj_bits, active, s, t, limit)
        got.append((flow, cut))
        assert flow == min(kappa, limit), (g, active, s, t, limit)
        assert (cut is None) == (flow == limit)
        if cut is not None:
            rest = active & ~cut
            assert cut & ~active == 0 and cut.bit_count() == flow
            assert rest >> s & 1 and rest >> t & 1
            assert not flood(g.adj_bits, rest, s) >> t & 1
        common = (g.adj_bits[s] & g.adj_bits[t] & active).bit_count()
        capped += common >= limit
        partial += 0 < common < limit
        above += limit > kappa
    assert capped > 500 and partial > 500 and above > 300, (capped, partial, above)
    assert hashlib.sha256(repr(got).encode()).hexdigest() == COMMON_NEIGHBOR_FLOWS
