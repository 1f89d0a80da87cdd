"""Twin classes, the twin rule and the bitset domains of the rainbow search,
checked on seeded blow-ups against the injection oracle, the quotient
oracle and the full (unpruned, scalar) search."""

import random
import tracemalloc
from math import perm

from test_patterns import TWO_PAWS, component_automorphisms

from rainbowfree.claims import _HOSTS, build_registry
from rainbowfree.constructions import gen_F2, gen_F3, gen_R1
from rainbowfree.core import ColoredBipartite, ColoredComplete, Host, _random_complete
from rainbowfree.oracles import oracle_rainbow_exists
from rainbowfree import patterns
from rainbowfree.patterns import A_SET, B_SET, catalog_members, parse_pattern
from rainbowfree.rainbow import enumerate_rainbow, find_rainbow

# repeated components are where the mirror floor meets the twin rule
PATTERNS = [
    parse_pattern(name)
    for name in (
        "P3", "K3", "P4", "K1_3", "K2uP3", "P3uK1_3",
        "2K2", "3K2", "4K2", "2P3", "K2u2P3", "2P4", "3P3",
    )
]

# injections tried by the injection oracle, at most, per comparison
INJECTION_LIMIT = 20_000

# the twin rule from the first node, and switched on at the default delay
# (the longer searches here reach it)
DELAYS = (1, patterns.TWIN_DELAY)


def oracle_rainbow_exists_quotient(host: Host, pattern) -> bool:
    """Decide a rainbow copy on the host's quotient by twin classes.

    Two vertices share a class when every other vertex sees both in one
    color, or neither; classes are found by comparing ``pair_color`` rows.
    Each pattern vertex goes to a class, no class takes more pattern
    vertices than it holds, and an edge's color is read from the quotient:
    the one color between two classes, or the color inside a class.  An
    injection picks distinct class members, so a rainbow class map exists
    exactly when a rainbow copy does.  Pattern vertices are assigned in
    index order, and a branch stops at its first missing or repeated color.
    """
    g = pattern.graph if hasattr(pattern, "graph") else pattern
    nv = host.vertex_count
    if g.n > nv:
        raise ValueError("pattern larger than host")
    if g.edge_count > len(host.used_colors()):
        return False  # a rainbow copy needs one color per edge
    color = host.pair_color
    classes: list[list[int]] = []
    for v in range(nv):
        for members in classes:
            u = members[0]
            if all(color(u, w) == color(v, w) for w in range(nv) if w not in (u, v)):
                members.append(v)
                break
        else:
            classes.append([v])
    # between classes any members will do; inside one, its first and last
    # members, which coincide (pair_color None) for a single vertex
    quotient = [[color(a[0], b[-1]) for b in classes] for a in classes]
    room = [len(members) for members in classes]
    earlier = [[u for u in range(v) if g.has_edge(u, v)] for v in range(g.n)]
    place = [-1] * g.n

    def extend(v: int, used: frozenset) -> bool:
        if v == g.n:
            return True
        for a in range(len(classes)):
            if not room[a]:
                continue
            new = [quotient[a][place[u]] for u in earlier[v]]
            if None in new or len(set(new)) < len(new) or used.intersection(new):
                continue
            place[v] = a
            room[a] -= 1
            found = extend(v + 1, used.union(new))
            room[a] += 1
            if found:
                return True
        return False

    return extend(0, frozenset())


def _blocks(rng, count):
    """A random block for each of ``count`` vertices: a blow-up whose blocks
    are scattered over the vertex numbering."""
    k = rng.randint(1, count)
    return [rng.randrange(k) for _ in range(count)]


def _recolor(rng, colors, m, exceptional):
    pairs = sorted(colors)
    for _ in range(exceptional):
        colors[rng.choice(pairs)] = rng.randint(1, m)


def blow_up_complete(rng, exceptional):
    """K_n with one random color per pair of blocks (and one inside each
    block), then ``exceptional`` random edges recolored."""
    n, m = rng.randint(4, 12), rng.randint(2, 6)
    block = _blocks(rng, n)
    quotient = {}
    colors = {}
    for u in range(n):
        for v in range(u + 1, n):
            key = tuple(sorted((block[u], block[v])))
            colors[u, v] = quotient.setdefault(key, rng.randint(1, m))
    _recolor(rng, colors, m, exceptional)
    return ColoredComplete.from_function(n, m, lambda u, v: colors[u, v])


def blow_up_bipartite(rng, exceptional):
    """K_{s,t} with one random color per pair of blocks across the sides,
    then ``exceptional`` random edges recolored."""
    s, t, m = rng.randint(2, 8), rng.randint(2, 8), rng.randint(2, 6)
    u_block, v_block = _blocks(rng, s), _blocks(rng, t)
    quotient = {}
    colors = {}
    for u in range(s):
        for v in range(t):
            key = (u_block[u], v_block[v])
            colors[u, v] = quotient.setdefault(key, rng.randint(1, m))
    _recolor(rng, colors, m, exceptional)
    return ColoredBipartite.from_function(s, t, m, lambda u, v: colors[u, v])


def naive_twin_prev(host):
    """twin_prev() by the definition: compare pair_color rows of every pair."""
    nv = host.vertex_count
    color = host.pair_color
    prev = [-1] * nv
    for v in range(nv):
        for u in range(v - 1, -1, -1):
            if all(color(u, w) == color(v, w) for w in range(nv) if w not in (u, v)):
                prev[v] = u
                break
    return tuple(prev) if max(prev) >= 0 else None


def blow_ups(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        make = blow_up_complete if i % 2 == 0 else blow_up_bipartite
        yield make(rng, rng.choice((0, 0, 1, 2, 4)))


def test_twin_prev_matches_definition():
    rng = random.Random(60)
    hosts = list(blow_ups(61, 120))
    for _ in range(60):
        n = rng.randint(2, 8)
        hosts.append(_random_complete(rng, n, 3))
        s, t = rng.randint(1, 4), rng.randint(1, 4)
        hosts.append(ColoredBipartite(s, t, 2, [rng.randint(1, 2) for _ in range(s * t)]))
    with_twins = 0
    for host in hosts:
        assert host.twin_prev() == naive_twin_prev(host), (host, host._colors)
        with_twins += host.twin_prev() is not None
    assert 0 < with_twins < len(hosts)


def test_twin_prev_small_cases():
    assert ColoredComplete(5, 1, [1] * 10).twin_prev() == (-1, 0, 1, 2, 3)
    # a proper 3-edge-coloring of K4 has no twins
    assert ColoredComplete(4, 3, [1, 2, 3, 3, 2, 1]).twin_prev() is None
    # K_{1,1}: the two sides' only vertices are twins, with no third vertex
    assert ColoredBipartite(1, 1, 1, [1]).twin_prev() == (-1, 0)
    # same-side vertices of K_{2,2} with equal rows; across sides never
    assert ColoredBipartite(2, 2, 2, [1, 2, 1, 2]).twin_prev() == (-1, 0, -1, -1)


def one_factorization(n):
    """The round-robin proper coloring of K_n (n even) by n - 1 colors: every
    vertex sees every color once, and no two vertices are twins."""
    def color(u, v):
        return (2 * u if v == n - 1 else u + v) % (n - 1) + 1
    return ColoredComplete.from_function(n, n - 1, color)


def test_twin_classes_cost_linear_memory_on_many_colors():
    # per-color masks of the first two hosts peak at 6.3 MB and 45 MB; the
    # classes keep O(n) numbers and build none
    n = 300
    hosts = [
        one_factorization(n),
        ColoredComplete(n // 2, n * n, range(1, (n // 2) * (n // 2 - 1) // 2 + 1)),
        ColoredComplete.from_function(n, 7, lambda u, v: (u + v) % 7 + 1),
    ]
    for host, classes in zip(hosts, (None, None, 7)):
        # a short search settles before the delay and never pays the pass
        assert find_rainbow(host, parse_pattern("P3")) is not None
        assert host._twins is None
        tracemalloc.start()
        try:
            prev = host.twin_prev()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (host, peak)
        assert host._masks is None
        assert (prev and prev.count(-1)) == classes


def test_many_colors_keep_the_scalar_loop(monkeypatch):
    # from the first node on the search may switch to bitset domains, but a
    # host with more colors than SEARCH_MASK_COLORS builds no masks
    monkeypatch.setattr(patterns, "TWIN_DELAY", 1)
    host = one_factorization(300)
    assert find_rainbow(host, parse_pattern("3K2uK1_3")) is not None
    assert host._masks is None


def mirror_only(host, pat, colors=False):
    """The maps of the search with the mirror floor as its only symmetry
    rule, with their color sets when ``colors``."""
    found = patterns.embeddings(
        host.vertex_count, host.pair_color, pat.plan, color_masks=host.search_masks
    )
    return found if colors else (mapping for mapping, _ in found)


def _color_calls(host, pat, twins, floors=None):
    """The first map of one existence search, and its pair_color calls in order."""
    calls = []

    def color(a, b):
        calls.append((a, b))
        return host.pair_color(a, b)

    found = patterns.embeddings(host.vertex_count, color, pat.plan, twins, floors=floors)
    return next(found, None), calls


def _is_subsequence(short, long):
    rest = iter(long)
    return all(item in rest for item in short)


def test_long_search_switches_on_twin_classes():
    host = _HOSTS["R1"][1]().host
    pat = parse_pattern("P5uP3")
    first, pruned = _color_calls(host, pat, host.twin_prev)
    assert first is None
    # 397 lookups against 11,316 for the full search
    assert len(pruned) <= 409 and len(pruned) * 10 < len(_color_calls(host, pat, None)[1])
    assert host._twins is not None and host._masks is None


def test_twin_rule_switches_on_without_replaying_the_search():
    # the rule only skips candidates, so the pruned search makes a subsequence
    # of the full search's lookups; replaying its first nodes would not
    cases = [(_HOSTS["R1"][1]().host, parse_pattern("P5uP3"))]
    cases += [(host, pat) for host in blow_ups(63, 40) for pat in PATTERNS[-4:]]
    reached = 0
    for host, pat in cases:
        if pat.order > host.vertex_count:
            continue
        asked = []

        def twins():
            asked.append(True)
            return host.twin_prev()

        pruned = _color_calls(host, pat, twins)[1]
        reached += bool(asked)
        assert _is_subsequence(pruned, _color_calls(host, pat, None)[1]), (host, pat)
    assert reached > 100


def test_twin_cache_ignored_by_equality_and_hash():
    a = ColoredComplete(6, 2, [1, 1, 2, 2, 1] * 3)
    b = ColoredComplete(6, 2, [1, 1, 2, 2, 1] * 3)
    a.twin_prev()
    assert a == b and hash(a) == hash(b)
    assert a._twins is not None and b._twins is None


def test_blow_ups_agree_with_oracles_and_full_search(monkeypatch):
    mismatches = []
    comparisons = injection_checks = found = 0
    for host in blow_ups(62, 80):
        nv = host.vertex_count
        for pat in PATTERNS:
            if pat.order > nv:
                continue
            witnesses = set()
            for delay in DELAYS:
                monkeypatch.setattr(patterns, "TWIN_DELAY", delay)
                emb = find_rainbow(host, pat)
                witnesses.add(emb and emb.mapping)
            fast = emb is not None
            quotient = oracle_rainbow_exists_quotient(host, pat)
            comparisons += 1
            found += fast
            if len(witnesses) > 1:
                mismatches.append(("delay", host._colors, pat.canonical_name))
            if fast != quotient:
                mismatches.append(("quotient", host._colors, pat.canonical_name))
            if fast or quotient:
                # when neither finds a copy, the full search proves freeness
                # slowly and the oracles above already agree on the answer
                full = next(mirror_only(host, pat), None)
                if (emb and emb.mapping) != full:
                    mismatches.append(("witness", host._colors, pat.canonical_name))
                listed = next(enumerate_rainbow(host, pat), None)
                if (listed and listed.mapping) != full:
                    mismatches.append(("enumeration", host._colors, pat.canonical_name))
            if perm(nv, pat.order) <= INJECTION_LIMIT:
                injection_checks += 1
                if fast != oracle_rainbow_exists(host, pat):
                    mismatches.append(("injection", host._colors, pat.canonical_name))
    assert mismatches == []
    assert comparisons > 600 and injection_checks > 200
    assert 0.1 < found / comparisons < 0.9


# Hosts where a twin lies below the mirror floor (found by a seeded search
# over small blow-ups; about one host in 10,000 is like this).  In the K7
# host, 0 and 4 are twins with every edge colored 3.  The first rainbow 2P3
# places its second copy's leaf at 4 while the first copy's least image is 1,
# so 4 must be tried even though its twin 0 is unused: 0 is below the floor.
# A floor set only on the step that closes a copy, or a twin rule that
# ignores the floor, loses this witness.
FLOOR_CASES = [
    (ColoredComplete(7, 4, (3, 3, 3, 3, 3, 3, 2, 2, 3, 1, 2, 4, 3, 2, 4, 3, 2, 4, 3, 3, 2)),
     "2P3", (2, 1, 5, 4, 3, 6)),
    (ColoredBipartite(5, 5, 4, (3, 3, 3, 3, 3, 2, 4, 4, 4, 4, 2, 4, 4, 4, 4, 3, 3, 3, 3, 3,
                                1, 1, 1, 1, 1)),
     "2P3", (5, 1, 6, 3, 7, 4)),
    (ColoredBipartite(6, 6, 6, (2, 1, 3, 3, 2, 1, 2, 1, 3, 3, 2, 1, 5, 4, 6, 6, 5, 4, 5, 4,
                                6, 6, 5, 4, 2, 1, 3, 3, 2, 1, 5, 4, 6, 6, 5, 4)),
     "3P3", (6, 0, 7, 10, 2, 11, 3, 8, 4)),
]


def test_twin_rule_respects_the_mirror_floor(monkeypatch):
    for host, name, first in FLOOR_CASES:
        pat = parse_pattern(name)
        assert host.twin_prev() is not None
        assert next(mirror_only(host, pat)) == first
        for delay in DELAYS:
            monkeypatch.setattr(patterns, "TWIN_DELAY", delay)
            assert find_rainbow(host, pat).mapping == first, (host, name, delay)


def test_enumeration_is_the_same_at_every_switch_node(monkeypatch):
    # the bitset domains switch on at the delay's node; a delay above the
    # search size keeps every node on the scalar loop
    names = ("P3", "K3", "P4", "K1_3", "2K2", "2P3", "2P4", "3P3")
    cases = [(host, names) for host in blow_ups(64, 24)]
    cases += [(host, (name,)) for host, name, _ in FLOOR_CASES]
    for host, names in cases:
        for pat in map(parse_pattern, names):
            if pat.order > host.vertex_count:
                continue
            runs, floored = [], []
            for delay in DELAYS + (10**9,):
                monkeypatch.setattr(patterns, "TWIN_DELAY", delay)
                runs.append(list(mirror_only(host, pat, colors=True)))
                floored.append([(emb.mapping, emb.colors) for emb in enumerate_rainbow(host, pat)])
            assert runs[0] == runs[1] == runs[2], (host._colors, pat.canonical_name)
            assert floored[0] == floored[1] == floored[2], (host._colors, pat.canonical_name)
            assert _is_subsequence(floored[0], runs[0])
            assert len(runs[0]) == len(floored[0]) * pat.automorphisms
            for mapping, colors in runs[0]:
                edges = pat.graph.edges
                assert colors == {host.pair_color(mapping[u], mapping[v]) for u, v in edges}
        assert host._masks is not None


def test_every_delay_keeps_the_first_map_and_repeats_none(monkeypatch):
    host, pat = FLOOR_CASES[0][0], parse_pattern("P3")
    first = next(mirror_only(host, pat))
    for delay in range(1, 40):
        monkeypatch.setattr(patterns, "TWIN_DELAY", delay)
        found = patterns.embeddings(host.vertex_count, host.pair_color, pat.plan, host.twin_prev)
        maps = [mapping for mapping, _ in found]
        assert maps[0] == first and len(maps) == len(set(maps)), delay


def test_each_copy_expands_to_its_mirror_only_maps():
    # composing each enumerated map with every automorphism that maps each
    # component onto itself gives every map of the mirror-only search once
    cases = [
        (gen_R1(9, 4).host, ("K3", "3K2", "2P3")),
        (gen_F2(13, 6, 5).host, ("2K2uK1_3",)),
        (gen_F3(12, 12, 6).host, ("K1_3",)),
        # enough colors for the eight edges of the two paws
        (_random_complete(random.Random(70), 9, 12), (TWO_PAWS,)),
    ]
    names = tuple(p.canonical_name for p in PATTERNS)
    cases += [(host, names) for host in blow_ups(69, 10)]
    groups = {}
    expanded_maps = 0
    for host, names in cases:
        for name in names:
            pat = parse_pattern(name)
            if pat.order > host.vertex_count:
                continue
            if name not in groups:
                groups[name] = list(component_automorphisms(pat.graph))
            group = groups[name]
            maps = list(mirror_only(host, pat))
            expanded = [
                tuple(emb.mapping[s[v]] for v in range(pat.order))
                for emb in enumerate_rainbow(host, pat)
                for s in group
            ]
            assert len(expanded) == len(maps) and set(expanded) == set(maps), (host, name)
            expanded_maps += len(maps)
    assert expanded_maps > 100_000


def test_quotient_oracle_decides_every_registry_rainbow_claim():
    decided = {}
    for claim in build_registry():
        for kind, expect in (("-free-", False), ("-found-", True)):
            label, _, name = claim.id.partition(kind)
            if name and label in _HOSTS:
                # the one explicit pattern in the registry is the four-edge star
                pat = parse_pattern("V:5;E:0-1,0-2,0-3,0-4" if name == "K1_4" else name)
                host = _HOSTS[label][1]().host
                decided[claim.id] = oracle_rainbow_exists_quotient(host, pat) == expect
    assert sum(1 for cid in decided if "-free-" in cid) == 15
    assert len(decided) == 23
    assert all(decided.values()), decided


def _catalog():
    members = {p.canonical_name: p for set_id in (A_SET, B_SET) for p in catalog_members(set_id)}
    return list(members.values())


def _small_hosts(seed, count):
    """Seeded colorings of K_n (n = 3-7) and K_{s,t} (s, t = 2-4), 2-5 colors."""
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(2, 5)
        if i % 2 == 0:
            yield _random_complete(rng, rng.randint(3, 7), m)
        else:
            s, t = rng.randint(2, 4), rng.randint(2, 4)
            yield ColoredBipartite(s, t, m, [rng.randint(1, m) for _ in range(s * t)])


def test_floors_keep_the_first_map(monkeypatch):
    # find_rainbow, with floors, twins and masks, returns the first map of
    # the search with the mirror floor alone
    catalog = _catalog()
    hosts = [(host, (patterns.TWIN_DELAY,)) for host in _small_hosts(66, 2000)]
    hosts += [(host, DELAYS) for host in blow_ups(67, 40)]
    compared = found = floored = 0
    for host, delays in hosts:
        nv = host.vertex_count
        colors = len(host.used_colors())
        for pat in catalog:
            if pat.order > nv:
                continue
            # a rainbow copy needs one color per edge, so a host with fewer
            # colors has no first map, and the slow full proof is skipped
            plain = None
            if pat.size <= colors:
                plain = next(patterns.embeddings(nv, host.pair_color, pat.plan), None)
            for delay in delays:
                monkeypatch.setattr(patterns, "TWIN_DELAY", delay)
                emb = find_rainbow(host, pat)
                assert (emb and emb.mapping) == (plain and plain[0]), (host, pat, delay)
            compared += 1
            found += plain is not None
            floored += any(pat.floors)
    assert compared > 20_000 and 0.2 < found / compared < 0.8
    assert floored > compared // 2


def test_floors_prune_without_replaying_the_search(monkeypatch):
    # like the twin rule, the floors only skip candidates: the floored
    # search makes a subsequence of the floorless search's lookups
    monkeypatch.setattr(patterns, "TWIN_DELAY", 1)
    cases = [(_HOSTS["R1"][1]().host, parse_pattern("P5uP3"))]
    cases += [(host, pat) for host in blow_ups(68, 20) for pat in PATTERNS]
    pruned = 0
    for host, pat in cases:
        if pat.order > host.vertex_count:
            continue
        first, full = _color_calls(host, pat, None)
        for twins in (None, host.twin_prev):
            floored = _color_calls(host, pat, twins, pat.floors)
            assert floored[0] == first and _is_subsequence(floored[1], full), (host, pat)
            pruned += len(floored[1]) < len(full)
    assert pruned > 200
