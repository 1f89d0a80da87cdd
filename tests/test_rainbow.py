import hashlib
import json
import random
import time
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from test_twins import mirror_only

from rainbowfree.claims import run_claims
from rainbowfree.constructions import (
    gen_F1,
    gen_F2,
    gen_F3,
    gen_R1,
    gen_R2,
    gen_counterexample_4t,
)
from rainbowfree.core import (
    SEARCH_MASK_COLORS,
    ColoredBipartite,
    ColoredComplete,
    _random_complete,
)
from rainbowfree.gallai import is_gallai, sample_gallai
from rainbowfree.oracles import oracle_rainbow_exists
from rainbowfree.patterns import BASE_GRAPHS, is_subgraph, parse_pattern
from rainbowfree import patterns, rainbow
from rainbowfree.rainbow import (
    enumerate_rainbow,
    find_rainbow,
    find_rainbow_triangle,
    validate_embedding,
)


def mono_k(n, m=1):
    return ColoredComplete(n, m, [1] * (n * (n - 1) // 2))


def rainbow_copies(host, pat):
    """The image edge sets of the rainbow embeddings: the rainbow copies of
    pat, counted up to its automorphisms."""
    return {
        frozenset(frozenset((emb.mapping[u], emb.mapping[v])) for u, v in pat.graph.edges)
        for emb in enumerate_rainbow(host, pat)
    }


def test_find_k2uk3_in_r1():
    host = gen_R1(9, 4).host
    emb = find_rainbow(host, parse_pattern("K2uK3"))
    assert emb is not None
    validate_embedding(host, emb.pattern, emb.mapping)
    assert len(emb.colors) == 4


def test_r2_has_no_rainbow_k2up6():
    assert find_rainbow(gen_R2(12, 6).host, parse_pattern("K2uP6")) is None


def test_monochromatic_host_has_no_rainbow_p3():
    assert find_rainbow(mono_k(5), parse_pattern("P3")) is None


def test_pattern_larger_than_host_errors():
    with pytest.raises(ValueError):
        find_rainbow(mono_k(4), parse_pattern("P6"))


def test_too_few_colors_answer_without_a_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(rainbow, "embeddings", no_search)
    # declares 3 colors, fewer than the 4 edges of 2P3
    assert find_rainbow(_random_complete(random.Random(1), 8, 3), parse_pattern("2P3")) is None
    # declares 9 colors and uses 2
    assert find_rainbow(ColoredComplete(6, 9, [1, 2] * 7 + [1]), parse_pattern("K3")) is None
    assert find_rainbow(ColoredBipartite(3, 3, 5, [4] * 9), parse_pattern("P3")) is None
    # a refusal still comes first
    with pytest.raises(ValueError, match="larger"):
        find_rainbow(mono_k(4), parse_pattern("P6"))


def test_f1_rainbow_p4_free():
    assert find_rainbow(gen_F1(12, 6, 4).host, parse_pattern("P4")) is None


def test_f3_rainbow_star4_free():
    host = gen_F3(12, 12, 4).host
    assert find_rainbow(host, parse_pattern("V:5;E:0-1,0-2,0-3,0-4")) is None


def test_triangle_scan_matches_generic_search():
    rng = random.Random(5)
    tri = parse_pattern("K3")
    for _ in range(200):
        host = _random_complete(rng, rng.randint(3, 8), rng.randint(2, 4))
        fast = find_rainbow_triangle(host)
        slow = find_rainbow(host, tri)
        assert (fast is None) == (slow is None)
        if fast is not None:
            validate_embedding(host, tri, fast.mapping)


def first_rainbow_triangle(host):
    """The naive reference: the first triple i < j < k, in lexicographic
    order, whose three edges have three colors, with those colors."""
    for i, j, k in combinations(range(host.n), 3):
        colors = {host.color(i, j), host.color(i, k), host.color(j, k)}
        if len(colors) == 3:
            return (i, j, k), colors
    return None


def recolored_gallai(rng, n, m, seed, off_zero=False):
    """sample_gallai(n, m, seed) with one random pair recolored in the fresh
    color m + 1, so each rainbow triangle of the result uses that pair.
    With ``off_zero`` the pair's ends see vertex 0 in one color, so none of
    them has vertex 0."""
    gallai = sample_gallai(n, m, seed)
    pairs = list(combinations(range(n), 2))
    colors = [gallai.color(a, b) for a, b in pairs]
    spots = [
        i
        for i, (a, b) in enumerate(pairs)
        if not off_zero or a and gallai.color(0, a) == gallai.color(0, b)
    ]
    colors[rng.choice(spots)] = m + 1
    return ColoredComplete(n, m + 1, colors)


def test_rainbow_triangle_count_matches_a_triple_count():
    rng = random.Random(49)
    hosts = [
        _random_complete(rng, n, m) for n in range(3, 11) for m in range(1, 7) for _ in range(3)
    ]
    hosts += [recolored_gallai(rng, rng.randint(3, 30), rng.randint(1, 15), s) for s in range(80)]
    counts = []
    for host in hosts:
        expected = sum(
            len({host.color(i, j), host.color(i, k), host.color(j, k)}) == 3
            for i, j, k in combinations(range(host.n), 3)
        )
        counts.append(rainbow._rainbow_triangles(list(host.search_masks().values()), host.n))
        assert counts[-1] == expected
    assert 0 in counts and max(counts) > 1


def test_triangle_scan_returns_the_first_triangle():
    rng = random.Random(30)
    hosts = [
        _random_complete(rng, rng.randint(3, 12), rng.randint(2, 5)) for _ in range(400)
    ]
    hosts += [sample_gallai(rng.randint(2, 16), rng.randint(1, 5), s) for s in range(100)]
    hosts += [_random_complete(rng, rng.randint(3, 12), 2) for _ in range(50)]
    # a pair off vertex 0 recolored: vertex 0's row has no rainbow triangle,
    # so the scan counts them and, where there are some, goes on
    other = random.Random(31)
    off_zero = []
    for s in range(80):
        m = other.randint(2, 15)  # vertex 0 sees two vertices in one color
        off_zero.append(recolored_gallai(other, other.randint(m + 2, 40), m, s, True))
    firsts = [first_rainbow_triangle(host) for host in off_zero]
    assert all(first is None or first[0][0] > 0 for first in firsts)
    assert 0 < firsts.count(None) < len(firsts)
    for host in hosts + off_zero:
        found = find_rainbow_triangle(host)
        assert (found and (found.mapping, found.colors)) == first_rainbow_triangle(host)
        # the masks stay cached for the host's later color-class scans
        assert (host._masks is None) == (len(host.used_colors()) < 3)
    # more colors than SEARCH_MASK_COLORS: the pattern engine answers on its
    # scalar loop and builds no masks
    many = [_random_complete(rng, rng.randint(10, 12), 40) for _ in range(40)]
    many += [sample_gallai(rng.randint(18, 30), 20, s) for s in range(20)]
    # sampled Gallai hosts with one pair recolored in a color of its own:
    # most gain rainbow triangles, some stay Gallai
    for s in range(30):
        many.append(recolored_gallai(rng, rng.randint(20, 60), rng.randint(17, 40), s))
    for host in many:
        assert len(host.used_colors()) > SEARCH_MASK_COLORS
        found = find_rainbow_triangle(host)
        assert (found and (found.mapping, found.colors)) == first_rainbow_triangle(host)
        assert is_gallai(host) == (found is None)
        assert host._masks is None


def test_vertex_0_row_answers_before_the_count(monkeypatch):
    count = rainbow._rainbow_triangles

    def no_count(by_color, n):
        raise AssertionError("counted")

    # a rainbow triangle at vertex 0 is found with no count
    monkeypatch.setattr(rainbow, "_rainbow_triangles", no_count)
    host = _random_complete(random.Random(7), 400, 4)
    found = find_rainbow_triangle(host)
    assert found.mapping[0] == 0
    validate_embedding(host, parse_pattern("K3"), found.mapping)

    # a Gallai host is proved so by one count
    calls = []

    def counted(by_color, n):
        calls.append(n)
        return count(by_color, n)

    monkeypatch.setattr(rainbow, "_rainbow_triangles", counted)
    assert find_rainbow_triangle(sample_gallai(400, 6, 3)) is None
    assert calls == [400]


def test_two_colored_host_has_no_rainbow_triangle():
    rng = random.Random(6)
    for _ in range(50):
        host = _random_complete(rng, rng.randint(3, 9), 2)
        assert find_rainbow_triangle(host) is None


def count_lookups(monkeypatch):
    """A list that gains one item per pair_color call on any host."""
    calls = []
    for cls in (ColoredComplete, ColoredBipartite):
        def counted(self, a, b, pair_color=cls.pair_color):
            calls.append(1)
            return pair_color(self, a, b)

        monkeypatch.setattr(cls, "pair_color", counted)
    return calls


def test_two_colored_k200_is_triangle_free_at_one_lookup_per_edge(monkeypatch):
    # past the switch node each step's candidates come from the color masks,
    # so the proof reads one color per second vertex it places, plus those
    # of the scalar nodes before the switch.  The floors place K3 as
    # u < v < w, so the second vertex lies above the first: 200 * 199 / 2 =
    # 19,900 pairs (23,642 lookups in all, against 43,662 without floors);
    # a search on the scalar loop throughout reads about 200 more per pair
    host = _random_complete(random.Random(200), 200, 2)
    calls = count_lookups(monkeypatch)
    assert host.twin_prev() is None
    assert find_rainbow(host, parse_pattern("K3")) is None
    assert len(calls) <= 25_000


def test_rainbow_claims_prove_each_copy_once(monkeypatch):
    # the floors settle a rainbow copy once, not once per automorphism of
    # its pattern: the 23 -free-/-found- claims read 3,610 colors at seed
    # 0, against 7,016 with the mirror floor alone
    calls = count_lookups(monkeypatch)
    reports = run_claims("*-free-*") + run_claims("*-found-*")
    assert len(reports) == 23 and all(r.status == "pass" for r in reports)
    assert len(calls) <= 3_800


def test_counterexample_is_rainbow_triangle_free():
    assert find_rainbow_triangle(gen_counterexample_4t(1, 20).host) is None


def test_rainbow_triangle_found_on_k3():
    host = ColoredComplete(3, 3, [1, 2, 3])
    emb = find_rainbow_triangle(host)
    assert emb is not None and emb.colors == {1, 2, 3}


def test_detector_agrees_with_injection_oracle():
    rng = random.Random(7)
    pats = [parse_pattern(s) for s in ("P3", "K3", "P4", "2K2", "K1_3", "K2uP3")]
    for _ in range(150):
        n = rng.randint(4, 7)
        host = _random_complete(rng, n, rng.randint(2, 4))
        for pat in pats:
            if pat.order > n:
                continue
            assert (find_rainbow(host, pat) is not None) == oracle_rainbow_exists(
                host, pat
            ), (host._colors, pat.canonical_name)


def test_repeated_non_base_components_agree_with_oracle():
    # two C4s: repeated components that are not base graphs get no mirror
    # pruning, and the search must still agree with the injection oracle
    pat = parse_pattern("V:8;E:0-1,1-2,2-3,0-3,4-5,5-6,6-7,4-7")
    assert all(mirror is None for _, _, _, mirror in pat.plan)
    rng = random.Random(11)
    hosts = [_random_complete(rng, 8, m) for m in (6, 8, 10, 12)]
    # plant a rainbow copy on a shuffled vertex set of a 7-color host
    colors = {}
    image = rng.sample(range(8), 8)
    for c, (u, v) in enumerate(pat.graph.edges, start=8):
        colors[frozenset((image[u], image[v]))] = c
    hosts.append(
        ColoredComplete.from_function(
            8, 15, lambda a, b: colors.get(frozenset((a, b)), rng.randint(1, 7))
        )
    )
    found = 0
    for host in hosts:
        emb = find_rainbow(host, pat)
        assert (emb is not None) == oracle_rainbow_exists(host, pat), host._colors
        found += emb is not None
    assert 0 < found < len(hosts)


def test_count_zero_iff_free():
    rng = random.Random(8)
    pats = [parse_pattern(s) for s in ("P3", "K3", "2K2")]
    for _ in range(60):
        host = _random_complete(rng, rng.randint(4, 7), rng.randint(2, 3))
        for pat in pats:
            assert (not rainbow_copies(host, pat)) == (find_rainbow(host, pat) is None)


def test_count_up_to_automorphism_on_known_host():
    # K4 colored with a proper 3-edge-coloring: every triangle is rainbow,
    # and each of the three perfect matchings is monochromatic
    host = ColoredComplete(4, 3, [1, 2, 3, 3, 2, 1])
    assert len(rainbow_copies(host, parse_pattern("K3"))) == 4
    assert len(rainbow_copies(host, parse_pattern("2K2"))) == 0


def test_monotonicity_under_subpattern():
    rng = random.Random(9)
    pairs = [("P3", "P4"), ("P3", "K1_3"), ("K2uP3", "K2uP4"), ("2K2", "2K2uK3")]
    for _ in range(40):
        host = _random_complete(rng, 7, 3)
        for small, big in pairs:
            ps, pb = parse_pattern(small), parse_pattern(big)
            assert is_subgraph(ps, pb)
            if find_rainbow(host, ps) is None:
                assert find_rainbow(host, pb) is None


def test_count_matches_injection_oracle():
    # repeated components are where the mirror rule prunes: the count of
    # distinct image edge sets must match trying every injection
    rng = random.Random(41)
    pats = [parse_pattern(s) for s in ("2K2", "3K2", "2P3", "K2uP3")]
    for _ in range(20):
        n = rng.randint(6, 7)
        host = _random_complete(rng, n, rng.randint(3, 5))
        for pat in pats:
            images = set()
            for mapping in permutations(range(n), pat.order):
                colors = [host.pair_color(mapping[u], mapping[v]) for u, v in pat.graph.edges]
                if len(set(colors)) == len(colors):
                    images.add(
                        frozenset(frozenset((mapping[u], mapping[v])) for u, v in pat.graph.edges)
                    )
            assert rainbow_copies(host, pat) == images, (host._colors, pat.canonical_name)
            # the floors and the mirror floor leave one map per copy
            assert sum(1 for _ in enumerate_rainbow(host, pat)) == len(images)


def test_enumerate_yields_valid_embeddings():
    host = gen_R1(9, 4).host
    tri = parse_pattern("K3")
    seen = 0
    for emb in enumerate_rainbow(host, tri):
        validate_embedding(host, tri, emb.mapping)
        assert emb.colors == {1, 2, 3}
        seen += 1
    assert seen > 0


def test_embedding_validator_rejects_bad_maps():
    host = ColoredComplete(4, 3, [1, 2, 3, 3, 2, 1])
    tri = parse_pattern("K3")
    with pytest.raises(ValueError):
        validate_embedding(host, tri, (0, 0, 1))  # not injective
    with pytest.raises(ValueError):
        validate_embedding(host, tri, (0, 1, 9))  # outside host
    host2 = ColoredComplete(3, 1, [1, 1, 1])
    with pytest.raises(ValueError):
        validate_embedding(host2, tri, (0, 1, 2))  # repeated colors


# witnesses must stay byte-identical when the search changes
GOLDEN_FOUND_MAPS = {
    "R1-found-K2uK3": [0, 1, 2, 3, 6],
    "R1m5-found-K2uK3": [2, 3, 0, 4, 8],
    "R2-found-K2uK3": [3, 8, 0, 1, 2],
    "R1m5-found-K2uP5": [4, 5, 8, 0, 1, 2, 3],
    "R2-found-K2uP5": [4, 5, 3, 0, 1, 2, 8],
    "R1m5-found-K2uP4plus": [4, 5, 3, 2, 0, 1, 8],
    "R2-found-K2uP4plus": [4, 5, 2, 1, 0, 3, 8],
    "F2-found-3K2": [0, 13, 6, 14, 12, 15],
}

GOLDEN_ENUMERATIONS = [
    ("R1(9,4)", "3K2", 4128, "6d9e7c211d25124ae6a4243e33fefe4b779f5d065e70d2926b26d1ee3a739f1f"),
    ("R1(9,4)", "2P3", 864, "0172dd92445ce8e241d076b54d97d6275d885f06d5d84007fcfc595302fb1446"),
    (
        "F2(13,6,5)",
        "2K2uK1_3",
        41472,
        "6961110dbd737fce00c4548d7e329f5a6ecb9acc040403ac8dfd0367fe41feab",
    ),
]


def test_golden_witnesses():
    reports = run_claims("*-found-*")
    assert {r.claim_id: r.witness["map"] for r in reports} == GOLDEN_FOUND_MAPS
    r1, k3 = gen_R1(9, 4).host, parse_pattern("K3")
    assert sum(1 for _ in mirror_only(r1, k3)) == 162
    assert sum(1 for _ in enumerate_rainbow(r1, k3)) == 27 and 27 * k3.automorphisms == 162
    f3, star = gen_F3(12, 12, 6).host, parse_pattern("K1_3")
    assert sum(1 for _ in mirror_only(f3, star)) == 7776
    assert sum(1 for _ in enumerate_rainbow(f3, star)) == 1296
    assert 1296 * star.automorphisms == 7776
    # enumeration order on patterns with repeated components, where the
    # mirror rule applies: sha256 of the ordered mappings, with their counts
    hosts = {"R1(9,4)": r1, "F2(13,6,5)": gen_F2(13, 6, 5).host}
    for label, name, count, digest in GOLDEN_ENUMERATIONS:
        maps = [list(mapping) for mapping in mirror_only(hosts[label], parse_pattern(name))]
        assert len(maps) == count, name
        assert hashlib.sha256(json.dumps(maps).encode()).hexdigest() == digest, name


# ---------------------------------------------------------------------------
# Color-pair refutation
# ---------------------------------------------------------------------------


def scanned_color_pairs(host):
    """``_color_pairs`` by the definition: every pair of edges of two
    colors is compared, and each color's previous twin is the last earlier
    color that the two relations cannot tell apart outside the pair."""
    edges = {}
    for u, v in combinations(range(host.vertex_count), 2):
        c = host.pair_color(u, v)
        if c is not None:
            edges.setdefault(c, []).append({u, v})
    meets = dict.fromkeys(edges, 0)
    apart = dict.fromkeys(edges, 0)
    for a, b in permutations(edges, 2):
        for e in edges[a]:
            for f in edges[b]:
                if e & f:
                    meets[a] |= 1 << b
                else:
                    apart[a] |= 1 << b

    def alike(a, c):
        return all(
            (rel[a] >> x & 1) == (rel[c] >> x & 1)
            for rel in (meets, apart)
            for x in edges
            if x not in (a, c)
        )

    out = {}
    for c in sorted(edges):
        twins = [a for a in out if alike(a, c)]
        out[c] = (meets[c], apart[c], 1 << twins[-1] if twins else 0)
    return out


def skewed_host(rng, complete):
    """A random K_n (n <= 7) or K_{s,t} (s + t <= 8) with up to 6 colors,
    drawn with uneven weights so that some colors are rare."""
    m = rng.randint(2, 6)
    weights = [rng.random() ** 3 for _ in range(m)]
    if complete:
        n = rng.randint(4, 7)
        return ColoredComplete(n, m, rng.choices(range(1, m + 1), weights, k=n * (n - 1) // 2))
    s = rng.randint(1, 4)
    t = rng.randint(1, 8 - s)
    return ColoredBipartite(s, t, m, rng.choices(range(1, m + 1), weights, k=s * t))


def grammar_patterns(edges, order):
    """Every grammar pattern with at most ``edges`` edges and ``order``
    vertices."""
    out = []
    for r in range(1, edges + 1):
        for terms in combinations_with_replacement(BASE_GRAPHS, r):
            bases = [BASE_GRAPHS[b] for b in terms]
            if sum(g.edge_count for g in bases) <= edges and sum(g.n for g in bases) <= order:
                out.append(parse_pattern("u".join(terms)))
    return out


def test_color_pairs_match_a_scan_of_edge_pairs():
    rng = random.Random(48)
    hosts = [skewed_host(rng, complete) for _ in range(100) for complete in (True, False)]
    hosts += [_random_complete(rng, rng.randint(8, 14), rng.randint(1, 8)) for _ in range(30)]
    hosts += [gen_R1(18, 6).host, gen_R2(12, 6).host, gen_F2(13, 6, 5).host, gen_F3(12, 12, 6).host]
    twins = 0
    for host in hosts:
        pairs = host._color_pairs()
        assert pairs == scanned_color_pairs(host), (host, host._colors)
        twins += any(twin for _, _, twin in pairs.values())
    assert twins > 20
    # a host with more than SEARCH_MASK_COLORS colors has no masks to build from
    many = _random_complete(rng, 10, 40)
    assert many._color_pairs() is None and many._masks is None


def test_pair_refutations_agree_with_the_injection_oracle():
    rng = random.Random(28)
    hosts = [skewed_host(rng, complete) for _ in range(300) for complete in (True, False)]
    pats = grammar_patterns(6, 8)
    refuted = 0
    for host in hosts:
        for pat in pats:
            if pat.order > host.vertex_count or pat.size > len(host.used_colors()):
                continue
            if rainbow._refuted_by_pairs(host, pat):
                refuted += 1
                assert not oracle_rainbow_exists(host, pat), (host, host._colors, pat)
    assert refuted > 100


def six_k2_host(n):
    """Colors 1-4 at random away from vertex 0, and 5 and 6 only at vertex
    0: the two cannot both sit on a matching, and no vertices are twins."""
    rng = random.Random(1)
    return ColoredComplete.from_function(
        n, 6, lambda u, v: 5 + v % 2 if u == 0 else rng.randint(1, 4)
    )


def test_six_k2_family_is_refuted_by_color_pairs_at_n_200():
    # the search alone took 0.9 s at n = 14 and 111 s at n = 20
    six_k2 = parse_pattern("6K2")
    for n in (14, 20, 200):
        host = six_k2_host(n)
        start = time.perf_counter()
        assert find_rainbow(host, six_k2) is None
        assert time.perf_counter() - start < 1.0, n
        # a refuted search never asks for the twin classes
        assert host._twins is None


def test_registry_freeness_is_refuted_before_the_twin_classes():
    cases = [(gen_R1(18, 6).host, name) for name in ("K3uP3", "K1_3uP3", "P4plusuP3", "P5uP3")]
    cases += [(gen_R2(12, 6).host, name) for name in ("K2uP6", "2P4")]
    cases += [(gen_F2(13, 6, 5).host, name) for name in ("4K2", "K2u2P3")]
    cases += [(gen_F3(12, 12, 6).host, name) for name in ("V:5;E:0-1,0-2,0-3,0-4", "P3uK1_3")]
    for host, name in cases:
        assert rainbow._refuted_by_pairs(host, parse_pattern(name)), name
        assert find_rainbow(host, parse_pattern(name)) is None
        assert host._twins is None, name


def test_undecided_pairs_leave_the_answer_to_the_search(monkeypatch):
    # K1_3uP4 needs its three forced colors on pairwise meeting edges, a
    # star; the host has them on a triangle, which every pair allows
    rng = random.Random(3)
    triangle = {(0, 1): 4, (1, 2): 5, (0, 2): 6}
    host = ColoredComplete.from_function(
        12, 6, lambda u, v: triangle.get((u, v)) or rng.randint(1, 3)
    )
    pat = parse_pattern("K1_3uP4")
    assert not rainbow._refuted_by_pairs(host, pat)
    # the engine with the host's twins and masks but no refutation
    plan, floors = pat.plan, pat.floors
    searched = patterns.embeddings(
        host.vertex_count, host.pair_color, plan, host.twin_prev, host.search_masks, floors
    )
    assert next(searched, None) is None
    assert find_rainbow(host, pat) is None
    # running out of tries is undecided too, and the search still answers
    host = gen_R2(12, 6).host
    pat = parse_pattern("2P4")
    monkeypatch.setattr(rainbow, "PAIR_NODES", 1)
    assert not rainbow._refuted_by_pairs(host, pat)
    assert find_rainbow(host, pat) is None and host._twins is not None
