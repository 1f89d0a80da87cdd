import hashlib
import json
import random
from itertools import permutations

import pytest

from rainbowfree.claims import run_claims
from rainbowfree.constructions import (
    gen_F1,
    gen_F2,
    gen_F3,
    gen_R1,
    gen_R2,
    gen_counterexample_4t,
)
from rainbowfree.core import ColoredComplete
from rainbowfree.oracles import oracle_rainbow_exists
from rainbowfree.patterns import is_subgraph, parse_pattern
from rainbowfree.rainbow import (
    count_rainbow,
    enumerate_rainbow,
    find_rainbow,
    find_rainbow_triangle,
    is_rainbow_free,
    validate_embedding,
)


def mono_k(n, m=1):
    return ColoredComplete(n, m, [1] * (n * (n - 1) // 2))


def random_host(rng, n, m):
    return ColoredComplete(n, m, [rng.randint(1, m) for _ in range(n * (n - 1) // 2)])


def test_find_k2uk3_in_r1():
    host = gen_R1(9, 4).host
    emb = find_rainbow(host, parse_pattern("K2uK3"))
    assert emb is not None
    validate_embedding(host, emb.pattern, emb.mapping)
    assert len(emb.colors) == 4


def test_r2_has_no_rainbow_k2up6():
    assert is_rainbow_free(gen_R2(12, 6).host, parse_pattern("K2uP6"))


def test_monochromatic_host_has_no_rainbow_p3():
    assert find_rainbow(mono_k(5), parse_pattern("P3")) is None


def test_pattern_larger_than_host_errors():
    with pytest.raises(ValueError):
        find_rainbow(mono_k(4), parse_pattern("P6"))


def test_f1_rainbow_p4_free():
    assert is_rainbow_free(gen_F1(12, 6, 4).host, parse_pattern("P4"))


def test_f3_rainbow_star4_free():
    host = gen_F3(12, 12, 4).host
    assert is_rainbow_free(host, parse_pattern("V:5;E:0-1,0-2,0-3,0-4"))


def test_triangle_scan_matches_generic_search():
    rng = random.Random(5)
    tri = parse_pattern("K3")
    for _ in range(200):
        host = random_host(rng, rng.randint(3, 8), rng.randint(2, 4))
        fast = find_rainbow_triangle(host)
        slow = find_rainbow(host, tri)
        assert (fast is None) == (slow is None)
        if fast is not None:
            validate_embedding(host, tri, fast.mapping)


def test_two_colored_host_has_no_rainbow_triangle():
    rng = random.Random(6)
    for _ in range(50):
        host = random_host(rng, rng.randint(3, 9), 2)
        assert find_rainbow_triangle(host) is None


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
        host = random_host(rng, n, rng.randint(2, 4))
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
    hosts = [random_host(rng, 8, m) for m in (6, 8, 10, 12)]
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
        host = random_host(rng, rng.randint(4, 7), rng.randint(2, 3))
        for pat in pats:
            assert (count_rainbow(host, pat) == 0) == is_rainbow_free(host, pat)


def test_count_up_to_automorphism_on_known_host():
    # K4 colored with a proper 3-edge-coloring: every triangle is rainbow,
    # and each of the three perfect matchings is monochromatic
    host = ColoredComplete(4, 3, [1, 2, 3, 3, 2, 1])
    assert count_rainbow(host, parse_pattern("K3")) == 4
    assert count_rainbow(host, parse_pattern("2K2")) == 0


def test_monotonicity_under_subpattern():
    rng = random.Random(9)
    pairs = [("P3", "P4"), ("P3", "K1_3"), ("K2uP3", "K2uP4"), ("2K2", "2K2uK3")]
    for _ in range(40):
        host = random_host(rng, 7, 3)
        for small, big in pairs:
            ps, pb = parse_pattern(small), parse_pattern(big)
            assert is_subgraph(ps, pb)
            if is_rainbow_free(host, ps):
                assert is_rainbow_free(host, pb)


def test_count_matches_injection_oracle():
    # repeated components are where the mirror rule prunes: the count of
    # distinct image edge sets must match trying every injection
    rng = random.Random(41)
    pats = [parse_pattern(s) for s in ("2K2", "3K2", "2P3", "K2uP3")]
    for _ in range(20):
        n = rng.randint(6, 7)
        host = random_host(rng, n, rng.randint(3, 5))
        for pat in pats:
            images = set()
            for mapping in permutations(range(n), pat.order):
                colors = [host.pair_color(mapping[u], mapping[v]) for u, v in pat.graph.edges]
                if len(set(colors)) == len(colors):
                    images.add(
                        frozenset(frozenset((mapping[u], mapping[v])) for u, v in pat.graph.edges)
                    )
            assert count_rainbow(host, pat) == len(images), (host._colors, pat.canonical_name)


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
    k3 = parse_pattern("K3")
    assert sum(1 for _ in enumerate_rainbow(gen_R1(9, 4).host, k3)) == 162
    star = parse_pattern("K1_3")
    assert sum(1 for _ in enumerate_rainbow(gen_F3(12, 12, 6).host, star)) == 7776
    # enumeration order on patterns with repeated components, where the
    # mirror rule applies: sha256 of the ordered mappings, with their counts
    hosts = {"R1(9,4)": gen_R1(9, 4).host, "F2(13,6,5)": gen_F2(13, 6, 5).host}
    for label, name, count, digest in GOLDEN_ENUMERATIONS:
        maps = [list(e.mapping) for e in enumerate_rainbow(hosts[label], parse_pattern(name))]
        assert len(maps) == count, name
        assert hashlib.sha256(json.dumps(maps).encode()).hexdigest() == digest, name
