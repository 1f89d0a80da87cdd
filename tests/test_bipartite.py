import json
import random

import pytest

from rainbowfree import bipartite
from rainbowfree.bipartite import (
    BipartiteStructure,
    RainbowStarPresent,
    classify_k13_free,
    gen_type_b,
    validate_type_b,
    verify_background_spanning_kconn,
)
from rainbowfree.cli import main
from rainbowfree.connectivity import CertificationError, is_k_connected
from rainbowfree.constructions import gen_F1
from rainbowfree.core import ColoredBipartite, dump_coloring, flood, restrict
from rainbowfree.patterns import parse_pattern
from rainbowfree.rainbow import find_rainbow


def test_three_color_host_is_case_a():
    # blocks on colors 2,3 with background 1: no vertex sees three colors
    host = ColoredBipartite.from_function(
        4, 4, 3, lambda u, v: (u // 2 + 2) if u // 2 == v // 2 else 1
    )
    structure = classify_k13_free(host)
    assert structure.case == "A"
    assert structure.colors_used == {1, 2, 3}


def test_f1_is_case_a():
    # a V vertex of F1 sees all m colors, so F1 is star-free only for m <= 2
    assert classify_k13_free(gen_F1(12, 6, 2).host).case == "A"
    with pytest.raises(RainbowStarPresent, match=r"at \(12, 0, 3, 6\)"):
        classify_k13_free(gen_F1(12, 6, 4).host)


def test_classify_rejects_rainbow_star():
    # 5 colors and every U vertex sees all of them: plenty of rainbow stars
    host = ColoredBipartite.from_function(5, 5, 5, lambda u, v: (u + v) % 5 + 1)
    with pytest.raises(RainbowStarPresent):
        classify_k13_free(host)


def test_three_color_star_is_rejected(tmp_path, capsys):
    # the freeness check runs at every color count, case A included
    host = ColoredBipartite.from_function(3, 3, 3, lambda u, v: v + 1)
    with pytest.raises(RainbowStarPresent):
        classify_k13_free(host)
    path = str(tmp_path / "star.txt")
    dump_coloring(host, path)
    assert main(["bipartite", "classify", path]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "RainbowStarPresent"


def _edge_count(host, color):
    return sum(map(int.bit_count, host.color_masks(color))) // 2


def _swept(host):
    """The classification by a sweep over candidate backgrounds, most edges
    first: blocks are read off each candidate and the first that validates
    wins, None if none does.  The reference for the one-pass classifier on
    hosts without a rainbow K_{1,3}."""
    used = host.used_colors()
    if len(used) <= 4:
        return BipartiteStructure("A", used)
    for b in sorted(used, key=lambda c: (-_edge_count(host, c), c)):
        block_colors = sorted(used - {b})
        seen = [[c for c in block_colors if host.color_masks(c)[x]] for x in range(host.vertex_count)]
        if any(len(cs) > 1 for cs in seen):
            continue
        block_of = [cs[0] if cs else block_colors[0] for cs in seen]
        u_parts = {c: tuple(u for u in range(host.s) if block_of[u] == c) for c in block_colors}
        v_parts = {
            c: tuple(v for v in range(host.t) if block_of[host.s + v] == c) for c in block_colors
        }
        if validate_type_b(host, b, u_parts, v_parts) is None:
            renumbering = {b: 1, **{c: i + 2 for i, c in enumerate(block_colors)}}
            return BipartiteStructure(
                "B",
                used,
                b,
                renumbering,
                {renumbering[c]: p for c, p in u_parts.items()},
                {renumbering[c]: p for c, p in v_parts.items()},
            )
    return None


def _perturbed(rng, host):
    """A copy of ``host`` with up to two edges recolored at random."""
    colors = [host.color(u, v) for u in range(host.s) for v in range(host.t)]
    for _ in range(rng.randint(0, 2)):
        colors[rng.randrange(len(colors))] = rng.randint(1, host.m)
    return ColoredBipartite(host.s, host.t, host.m, colors)


def test_star_check_agrees_with_rainbow_search():
    # the refusal is find_rainbow's first rainbow K_{1,3}, and every other
    # answer is the candidate sweep's
    rng = random.Random(9)
    k13 = parse_pattern("K1_3")
    hosts = []
    for _ in range(150):
        s, t, m = rng.randint(3, 7), rng.randint(3, 7), rng.randint(2, 5)
        hosts.append(ColoredBipartite(s, t, m, [rng.randint(1, m) for _ in range(s * t)]))
    for seed in range(40):
        hosts.append(_perturbed(rng, gen_type_b(9, 8, rng.randint(5, 6), seed=seed).host))
    # planted hosts from pure blocks to nearly all background
    for prob in (0.0, 0.3, 0.9):
        for seed in range(440):
            m = rng.randint(5, 7)
            s, t = rng.randint(m - 1, 10), rng.randint(m - 1, 10)
            host = gen_type_b(s, t, m, seed=seed, background_prob=prob).host
            hosts.append(_perturbed(rng, host))
    # many colors, so the star check adds up many supports
    for seed in range(100):
        m = rng.randint(9, 12)
        s, t = rng.randint(m - 1, 14), rng.randint(m - 1, 14)
        hosts.append(_perturbed(rng, gen_type_b(s, t, m, seed=seed).host))
    raised = planted = 0
    for host in hosts:
        emb = find_rainbow(host, k13)
        try:
            structure = classify_k13_free(host)
        except RainbowStarPresent as exc:
            raised += 1
            assert emb is not None and str(exc) == f"rainbow K_{{1,3}} at {emb.mapping}"
        else:
            assert emb is None and structure == _swept(host)
            planted += structure.case == "B"
    assert len(hosts) >= 1500
    assert 0 < raised < len(hosts) and planted > 0


def test_case_b_is_certified_once(monkeypatch):
    calls = []
    validate = bipartite.validate_type_b

    def counted(*args):
        calls.append(args[1])
        return validate(*args)

    monkeypatch.setattr(bipartite, "validate_type_b", counted)
    # block color 2 has more edges than the background in the last host
    hosts = [gen_type_b(9, 8, 6, seed=seed).host for seed in range(10)]
    hosts.append(gen_type_b(10, 10, 5, [7, 1, 1, 1], [7, 1, 1, 1], background_prob=0.0).host)
    assert _edge_count(hosts[-1], 2) > _edge_count(hosts[-1], 1)
    for host in hosts:
        calls.clear()
        structure = classify_k13_free(host)
        assert structure.case == "B" and calls == [1] == [structure.background]
    calls.clear()
    assert classify_k13_free(gen_F1(12, 6, 2).host).case == "A" and calls == []


def test_certificate_failure_is_refused(tmp_path, capsys, monkeypatch):
    # a structure the validator rejects is an internal certificate failure
    host = gen_type_b(9, 8, 6, seed=0).host
    monkeypatch.setattr(bipartite, "validate_type_b", lambda *args: "refused")
    with pytest.raises(CertificationError):
        classify_k13_free(host)
    path = str(tmp_path / "b.txt")
    dump_coloring(host, path)
    assert main(["bipartite", "classify", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "CertificationError"


def test_classify_rejects_tiny_sides():
    host = ColoredBipartite(2, 3, 1, [1] * 6)
    with pytest.raises(ValueError):
        classify_k13_free(host)


def test_gen_type_b_is_rainbow_star_free():
    for seed in range(20):
        gen = gen_type_b(10, 9, 6, seed=seed)
        assert find_rainbow(gen.host, parse_pattern("K1_3")) is None


def test_gen_type_b_pure_blocks_still_star_free():
    gen = gen_type_b(10, 10, 5, seed=0, background_prob=0.0)
    host = gen.host
    assert find_rainbow(host, parse_pattern("K1_3")) is None
    assert classify_k13_free(host).case == "B"


def test_gen_type_b_uses_all_colors():
    for seed in range(10):
        host = gen_type_b(8, 8, 5, seed=seed, background_prob=0.9).host
        assert len(host.used_colors()) == 5


def test_gen_type_b_rejects_bad_sizes():
    with pytest.raises(ValueError):
        gen_type_b(10, 10, 6, u_sizes=[2, 2, 2, 2])  # wrong count
    with pytest.raises(ValueError):
        gen_type_b(10, 10, 6, u_sizes=[6, 1, 1, 1, 1], v_sizes=[2, 2, 2, 2, 1])  # sums ok but then...
    with pytest.raises(ValueError):
        gen_type_b(10, 10, 4)  # m < 5


def test_classify_roundtrip_recovers_planted():
    rng = random.Random(21)
    for trial in range(40):
        m = rng.choice([5, 6, 7, 8])
        s = rng.randint(m - 1, 12)
        t = rng.randint(m - 1, 12)
        gen = gen_type_b(s, t, m, seed=trial)
        structure = classify_k13_free(gen.host)
        assert structure.case == "B"
        assert structure.renumbering[structure.background] == 1
        for c in range(2, m + 1):
            assert structure.u_parts[c] == gen.parts[f"U{c}"]
            assert structure.v_parts[c] == gen.parts[f"V{c}"]


def test_validator_accepts_recovered_structure():
    gen = gen_type_b(9, 9, 5, seed=7)
    host = gen.host
    u_parts = {c: gen.parts[f"U{c}"] for c in range(2, 6)}
    v_parts = {c: gen.parts[f"V{c}"] for c in range(2, 6)}
    assert validate_type_b(host, 1, u_parts, v_parts) is None


def test_validator_rejects_wrong_structures():
    gen = gen_type_b(9, 9, 5, seed=7)
    host = gen.host
    u_parts = {c: gen.parts[f"U{c}"] for c in range(2, 6)}
    v_parts = {c: gen.parts[f"V{c}"] for c in range(2, 6)}
    # swap two V blocks: block law breaks
    swapped = dict(v_parts)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    assert validate_type_b(host, 1, u_parts, swapped) is not None
    # drop a vertex: cover breaks
    broken = dict(u_parts)
    broken[2] = broken[2][1:] if len(broken[2]) > 1 else ()
    assert validate_type_b(host, 1, broken, v_parts) is not None


def test_background_spanning_witness():
    for seed, k in ((0, 1), (1, 2), (2, 3)):
        m = k + 4
        gen = gen_type_b(m + 2, m + 1, m, seed=seed)
        w = verify_background_spanning_kconn(gen.host, k)
        assert w.ok
        g = restrict(gen.host, {w.color})
        assert is_k_connected(g, k)
        assert all(g.degree(v) >= 1 for v in range(g.n))  # spanning


def test_background_spanning_preconditions():
    gen = gen_type_b(8, 8, 5, seed=0)
    with pytest.raises(ValueError):
        verify_background_spanning_kconn(gen.host, 2)  # m = k + 3 < k + 4
    # a 6-colored host with a short side trips the min-side precondition
    # before any structure is attempted
    short = ColoredBipartite.from_function(4, 8, 6, lambda u, v: (u + v) % 6 + 1)
    with pytest.raises(ValueError):
        verify_background_spanning_kconn(short, 1)


def test_background_removal_leaves_connected():
    # direct check of the k-connectivity certificate on small hosts
    from itertools import combinations

    k = 2
    gen = gen_type_b(7, 7, 6, seed=3)
    g = restrict(gen.host, {1})
    full = (1 << g.n) - 1
    for cut in combinations(range(g.n), k - 1):
        rest = full
        for v in cut:
            rest &= ~(1 << v)
        start = (rest & -rest).bit_length() - 1
        assert flood(g.adj_bits, rest, start) == rest
