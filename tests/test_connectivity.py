import hashlib
import random
from itertools import combinations

import networkx as nx
import pytest

from rainbowfree.claims import _random_graph
from rainbowfree.connectivity import (
    DEPTH_CAP,
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
    ColoredComplete,
    SimpleGraph,
    _random_complete,
    ceil_div,
    flood,
    induced_subgraph,
    restrict,
)
from rainbowfree.oracles import (
    oracle_is_k_connected,
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
            assert is_k_connected(g, k) == oracle_is_k_connected(g, k)


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
                assert rep.lower == want and rep.upper == want


def test_largest_exact_agrees_with_enumeration_n12():
    rng = random.Random(45)
    for _ in range(3):
        host = _random_complete(rng, 12, 3)
        for k in (2, 3):
            rep = largest_k_connected(host, {1}, k)
            want = oracle_largest_k_connected(restrict(host, {1}), k)
            assert rep.lower == want and rep.upper == want


def test_uncapped_search_is_exact():
    # below n = k + 21 the depth cap cannot bind, so every answer is exact
    rng = random.Random(15)
    for _ in range(60):
        host = _random_complete(rng, rng.randint(4, 10), rng.randint(1, 3))
        for k in (1, 2):
            rep = largest_k_connected(host, {1}, k)
            want = oracle_largest_k_connected(restrict(host, {1}), k)
            assert rep.exact is True
            assert rep.lower == rep.upper == want


def test_depth_cap_reports_bounds():
    # color 1 is a chain of 22 triangles, consecutive ones sharing a cut
    # vertex; splitting off one triangle per level runs past DEPTH_CAP = 20
    triangles = DEPTH_CAP + 2
    chain = {
        frozenset(e)
        for i in range(triangles)
        for e in ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 2))
    }
    host = ColoredComplete.from_function(
        2 * triangles + 1, 2, lambda u, v: 1 if frozenset((u, v)) in chain else 2
    )
    rep = largest_k_connected(host, {1}, 2)
    assert rep.exact is False
    assert rep.lower == 3 <= rep.upper
    assert is_k_connected(induced_subgraph(restrict(host, {1}), rep.witness), 2)


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


def test_order_cap_detects_violations():
    host = ColoredComplete(6, 1, [1] * 15)
    res = verify_order_cap(host, {1}, 2, 4)
    assert not res.ok
    assert len(res.counterexample) > 4


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


def test_split_flow_reroutes_around_a_used_vertex():
    # s=0 p=1 u=2 q=3 t=4: the first, shortest path s-p-u-q-t must be undone
    # at u (its unit arc reversed) to reach flow 2 via s-5-6-q-t and s-p-7-8-t
    g = SimpleGraph(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 3), (1, 7), (7, 8), (8, 4)],
    )
    assert _split_flow(g.adj_bits, (1 << 9) - 1, 0, 4, 3) == (2, 0b100010)
    assert _split_flow(g.adj_bits, (1 << 9) - 1, 0, 4, 2) == (2, None)
