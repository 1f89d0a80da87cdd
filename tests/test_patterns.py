import random
import time
import tracemalloc
from itertools import combinations, permutations, product

import pytest

from rainbowfree.claims import build_registry
from rainbowfree.core import SimpleGraph
from rainbowfree.patterns import (
    A_SET,
    B_SET,
    G_SET,
    H2_SET,
    H_SET,
    catalog_members,
    is_isomorphic,
    is_subgraph,
    parse_pattern,
    plan_floors,
)


def names(set_id):
    return sorted(p.canonical_name for p in catalog_members(set_id))


def test_parse_basic_paths():
    p3 = parse_pattern("P3")
    assert p3.order == 3 and p3.size == 2


def test_parse_disjoint_union_with_triangle():
    p = parse_pattern("2K2uK3")
    assert p.order == 7 and p.size == 5
    assert p.component_count() == 3


def test_parse_star_union():
    p = parse_pattern("3K2uK1_3")
    assert p.order == 10
    assert p.size == 6
    assert max(p.graph.degree_sequence()) == 3
    assert p.component_count() == 4


def test_parse_p4plus_degree_sequence():
    p = parse_pattern("P4plus")
    assert p.graph.degree_sequence() == (3, 2, 1, 1, 1)


def test_parse_count_inside_plus_name():
    # 'u' inside "P4plus" must not be taken as a separator
    p = parse_pattern("K2uP4plus")
    assert p.order == 7 and p.component_count() == 2


def test_parse_explicit():
    p = parse_pattern("V:5;E:0-1,0-2,0-3,0-4")
    assert p.graph.degree_sequence() == (4, 1, 1, 1, 1)


def test_parse_rejects_garbage():
    for bad in ("", "Q7", "K2u", "0K2", "uK2", "V:3;E:0-3"):
        with pytest.raises(ValueError):
            parse_pattern(bad)


def test_pattern_rejects_isolated_vertices():
    with pytest.raises(ValueError):
        parse_pattern("V:3;E:0-1")


def test_canonical_name_sorts_terms():
    assert parse_pattern("K3u2K2").canonical_name == "2K2uK3"
    assert parse_pattern("P4uK2uP4").canonical_name == "K2u2P4"


def test_canonical_name_of_relabeled_bases():
    assert parse_pattern("V:4;E:0-3,3-1,1-2").canonical_name == "P4"
    rng = random.Random(2)
    for base in ("K2", "P3", "P4", "P5", "P6", "K3", "K1_3", "P4plus"):
        g = parse_pattern(base).graph
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = ",".join(f"{perm[u]}-{perm[v]}" for u, v in sorted(g.edges))
            assert parse_pattern(f"V:{g.n};E:{edges}").canonical_name == base
    assert parse_pattern("V:7;E:5-6,0-1,1-2,2-0,3-4").canonical_name == "2K2uK3"


def test_canonical_name_keeps_explicit_non_base_components():
    c4 = "V:4;E:0-1,0-3,1-2,2-3"
    k14 = "V:5;E:0-1,0-2,0-3,0-4"
    assert parse_pattern("V:4;E:0-1,1-2,2-3,3-0").canonical_name == c4
    assert parse_pattern(k14).canonical_name == k14
    # one non-base component makes the whole name explicit
    assert parse_pattern("V:6;E:0-1,1-2,2-3,3-0,4-5").canonical_name == (
        "V:6;E:0-1,0-3,1-2,2-3,4-5"
    )


def test_is_subgraph_examples():
    assert is_subgraph(parse_pattern("P3"), parse_pattern("P4plus"))
    assert not is_subgraph(parse_pattern("K3"), parse_pattern("P6"))
    assert is_subgraph(parse_pattern("K2uP3"), parse_pattern("K2u2P3"))
    # the empty graph, whose plan has no steps, embeds in every graph
    assert is_subgraph(SimpleGraph(0, []), parse_pattern("K2")) and is_isomorphic(
        SimpleGraph(0, []), SimpleGraph(0, [])
    )


def oracle_is_subgraph(small: SimpleGraph, big: SimpleGraph) -> bool:
    """Subgraph containment by trying every vertex injection."""
    if small.n > big.n:
        return False
    for image in permutations(range(big.n), small.n):
        if all(big.has_edge(image[u], image[v]) for u, v in small.edges):
            return True
    return False


def test_is_subgraph_vs_injection_oracle():
    rng = random.Random(4)
    pool = ["K2", "P3", "K3", "P4", "K1_3", "2K2", "K2uP3", "P5", "P4plus", "2P3"]
    for _ in range(120):
        a = parse_pattern(rng.choice(pool)).graph
        b = parse_pattern(rng.choice(pool)).graph
        if b.n > 7:
            continue
        assert is_subgraph(a, b) == oracle_is_subgraph(a, b)
    for _ in range(60):
        n = rng.randint(2, 7)
        h = SimpleGraph(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        )
        # repeated components exercise the mirror-symmetry pruning
        g = parse_pattern(
            rng.choice(["K2", "P3", "K3", "P4", "2K2", "3K2", "2P3", "K2u2P3"])
        ).graph
        assert is_subgraph(g, h) == oracle_is_subgraph(g, h)


def test_mirror_floor_on_every_step_of_a_repeated_copy():
    # each later copy points at the step that closed the copy before it
    mirrors = [step[3] for step in parse_pattern("3P3").plan]
    assert mirrors == [None] * 3 + [2] * 3 + [5] * 3
    mirrors = [step[3] for step in parse_pattern("K2u2P3").plan]
    assert mirrors == [None] * 3 + [2] * 3 + [None] * 2


def test_is_subgraph_reflexive_and_monotone():
    for name in ("K3", "P4plus", "K2u2P3"):
        p = parse_pattern(name)
        assert is_subgraph(p, p)
    g, h = parse_pattern("P3"), parse_pattern("P5")
    assert is_subgraph(g, h)
    assert g.order <= h.order and g.size <= h.size


def test_is_subgraph_transitive():
    rng = random.Random(44)
    pool = ["K2", "P3", "K3", "P4", "K1_3", "2K2", "K2uP3", "P5", "P4plus", "P6", "2P3"]
    hits = 0
    for _ in range(300):
        a, b, c = (parse_pattern(rng.choice(pool)) for _ in range(3))
        if is_subgraph(a, b) and is_subgraph(b, c):
            assert is_subgraph(a, c), (a.canonical_name, b.canonical_name, c.canonical_name)
            hits += 1
    assert hits > 20


def test_g_set_exact():
    assert names(G_SET) == sorted(
        ["K3", "P3", "P4", "P5", "P6", "K1_3", "P4plus"]
    )


def test_h2_set_exact():
    expected = [
        "P3uP4",
        "2P3",
        "K2uP4",
        "K2uP3",
        "2K2",
        "K2uP5",
        "K2uK3",
        "K2uP4plus",
        "K2uK1_3",
    ]
    assert names(H2_SET) == sorted(expected)


def test_b_set_exact():
    expected = [
        "P3",
        "K1_3",
        "2K2",
        "K2uP3",
        "K2uK1_3",
        "2P3",
        "3K2",
        "2K2uP3",
        "2K2uK1_3",
    ]
    assert names(B_SET) == sorted(expected)


def test_h_set_membership_examples():
    assert parse_pattern("P3uP4") in catalog_members(H_SET)
    assert parse_pattern("K2u2P3") in catalog_members(H_SET)
    assert parse_pattern("K3uP3") not in catalog_members(H2_SET)
    assert parse_pattern("2P4") not in catalog_members(H2_SET)
    assert parse_pattern("2P4") not in catalog_members(H_SET)
    assert parse_pattern("K3uP3") not in catalog_members(H_SET)


def test_h2_subset_of_h():
    h = {p.canonical_name for p in catalog_members(H_SET)}
    h2 = {p.canonical_name for p in catalog_members(H2_SET)}
    assert h2 < h
    assert all(p.component_count() == 2 for p in catalog_members(H2_SET))


def test_a_set_is_union():
    a = {p.canonical_name for p in catalog_members(A_SET)}
    g = {p.canonical_name for p in catalog_members(G_SET)}
    h = {p.canonical_name for p in catalog_members(H_SET)}
    assert a == g | h


def test_h_members_small_degree_and_few_components():
    for p in catalog_members(H_SET):
        assert max(p.graph.degree_sequence()) <= 3
        assert 2 <= p.component_count() <= 4


def test_downward_closure_into_a():
    # every order>=3 subpattern of an H member lands in A
    from rainbowfree.patterns import _all_subpatterns, Pattern

    for p in catalog_members(H_SET):
        for sub in _all_subpatterns(p.graph):
            if sub.n >= 3:
                assert Pattern(sub) in catalog_members(A_SET), (p.canonical_name, sub)


def test_no_isomorphic_duplicates():
    for set_id in (G_SET, H_SET, H2_SET, A_SET, B_SET):
        members = catalog_members(set_id)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                assert not is_isomorphic(members[i].graph, members[j].graph)


def test_is_isomorphic_basic():
    a = SimpleGraph(3, [(0, 1), (1, 2)])
    b = SimpleGraph(3, [(0, 2), (2, 1)])
    assert is_isomorphic(a, b)
    c = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_isomorphic(a, c)


@pytest.mark.parametrize("name", ["V:10000000;E:0-1", "8000K2", "100000K2", "K3u100000P6"])
def test_oversized_pattern_refused_before_building(name):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="> 12 vertices"):
            parse_pattern(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def registry_patterns():
    """The patterns of the registry's -free- and -found- claims."""
    names = {claim.id.split("-")[2] for claim in build_registry() if "-free-" in claim.id or "-found-" in claim.id}
    # the one explicit pattern in the registry is the four-edge star
    return [parse_pattern("V:5;E:0-1,0-2,0-3,0-4" if name == "K1_4" else name) for name in names]


def component_automorphisms(g: SimpleGraph):
    """Every automorphism of g that maps each component onto itself, by
    trying every permutation of each component's vertices."""
    choices = []
    for comp in g.components():
        vertices = sorted(comp)
        edges = {(u, v) for u, v in g.edges if u in comp}
        choices.append([
            dict(zip(vertices, images))
            for images in permutations(vertices)
            if all(g.has_edge(images[vertices.index(u)], images[vertices.index(v)]) for u, v in edges)
        ])
    for parts in product(*choices):
        sigma = {}
        for part in parts:
            sigma.update(part)
        yield sigma


def test_floors_are_the_stabilizer_chain_orbits():
    # step j's floors are exactly the steps i whose vertex p_i an
    # automorphism fixing p_0 ... p_{i-1} moves onto p_j: each floor has a
    # certificate, and each certificate gives a floor
    patterns = {p.canonical_name: p for set_id in (A_SET, B_SET) for p in catalog_members(set_id)}
    patterns.update((p.canonical_name, p) for p in registry_patterns())
    assert len(patterns) == 33
    pairs = 0
    for pat in patterns.values():
        g = pat.graph
        order = [step[0] for step in pat.plan]
        group = list(component_automorphisms(g))
        assert all(all(g.has_edge(s[u], s[v]) for u, v in g.edges) for s in group)
        orbits = []
        for j, p in enumerate(order):
            orbits.append(tuple(
                i for i in range(j)
                if any(
                    s[order[i]] == p and all(s[q] == q for q in order[:i])
                    for s in group
                )
            ))
        assert pat.floors == tuple(orbits), pat
        pairs += sum(map(len, orbits))
    assert pairs > 60


# two identical components that are not base graphs: two paws (a triangle
# with a pendant edge), which the mirror floor does not order
TWO_PAWS = "V:8;E:0-1,1-2,2-0,2-3,4-5,5-6,6-4,6-7"


def test_automorphisms_count_the_component_group():
    # orbit-stabilizer: the product of the floors' orbit sizes is the order
    # of the group of automorphisms that map every component onto itself
    pats = [p for set_id in (A_SET, B_SET) for p in catalog_members(set_id)]
    pats.append(parse_pattern(TWO_PAWS))
    for pat in pats:
        assert pat.automorphisms == sum(1 for _ in component_automorphisms(pat.graph)), pat
    counts = {name: parse_pattern(name).automorphisms for name in ("K3", "K1_3", "4K2", "P4plus")}
    assert counts == {"K3": 6, "K1_3": 6, "4K2": 16, "P4plus": 2}
    assert parse_pattern(TWO_PAWS).automorphisms == 4


def test_floors_known_patterns():
    assert parse_pattern("K3").floors == ((), (0,), (0, 1))
    # the center first, then the leaves in ascending order
    assert parse_pattern("K1_3").floors == ((), (), (1,), (1, 2))
    # each K2 is placed in ascending order; the mirror floor orders the copies
    assert parse_pattern("4K2").floors == ((), (0,), (), (2,), (), (4,), (), (6,))
    # once the first vertex of P4plus is placed, only its two leaves swap
    assert parse_pattern("P4plus").floors == ((), (), (), (), (3,))


def test_floors_are_quick_on_the_most_symmetric_patterns():
    # a search that listed automorphisms would take 11! steps on the star
    for name in ("V:12;E:" + ",".join(f"0-{v}" for v in range(1, 12)), "3K2uK1_3"):
        pat = parse_pattern(name)
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            plan_floors(pat.graph, pat.plan)
            timings.append(time.perf_counter() - start)
        assert min(timings) < 0.005, (name, timings)

