import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from rainbowfree.constructions import gen_F1, gen_F3, gen_R1
from rainbowfree.core import ColoredComplete, SimpleGraph, ceil_div, restrict
from rainbowfree.oracles import oracle_longest_cycle_length, oracle_longest_path_order
from rainbowfree.paths import (
    check_eg_path_bound,
    check_mono_path_quota,
    color_degree_averages,
    kano_li_floor,
    longest_mono_cycle,
    longest_mono_path,
    validate_cycle,
    validate_path,
)


def random_host(rng, n, m):
    return ColoredComplete(n, m, [rng.randint(1, m) for _ in range(n * (n - 1) // 2)])


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
        # the recursion oracle is exponential on dense classes; keep the
        # single-color (complete) hosts small
        n = rng.randint(4, 7) if m == 1 else rng.randint(4, 10)
        host = random_host(rng, n, m)
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


def test_quota_random_instances():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(5, 12)
        m = rng.randint(1, 4)
        host = random_host(rng, n, m)
        total = n + 2 * m - 2
        cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
        quotas = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        res = check_mono_path_quota(host, quotas)
        assert res.ok, (n, m, quotas, host._colors)
        if res.witness.order >= 2:
            validate_path(host, res.witness)
            assert res.witness.order >= quotas[res.color - 1]


def test_degree_average_identity():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randint(3, 12)
        m = rng.randint(1, 4)
        host = random_host(rng, n, m)
        avgs = color_degree_averages(host)
        assert sum(avgs) == Fraction(n - 1)


def test_eg_path_bound_examples():
    k4 = SimpleGraph(4, combinations(range(4), 2))
    w = check_eg_path_bound(k4, 3)
    assert w.order == 4
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert check_eg_path_bound(c6, 2).order == 3


def test_eg_path_bound_rejects_sparse():
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(ValueError):
        check_eg_path_bound(c6, 3)  # needs > 6 edges
    with pytest.raises(ValueError):
        check_eg_path_bound(c6, 1)


def test_eg_path_bound_random():
    rng = random.Random(25)
    found = 0
    for _ in range(300):
        n = rng.randint(4, 12)
        g = SimpleGraph(
            n, [e for e in combinations(range(n), 2) if rng.random() < 0.6]
        )
        for k in range(2, 7):
            if 2 * g.edge_count > (k - 1) * g.n:
                w = check_eg_path_bound(g, k)
                assert w.order == k + 1
                found += 1
    assert found > 100


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


def test_cycle_degenerate_edge():
    host = ColoredComplete(4, 2, [2, 1, 1, 1, 1, 1])
    w = longest_mono_cycle(host, 2)
    assert w.length == 2  # a lone edge counts as a degenerate 2-cycle


def test_path_and_cycle_above_64_vertices():
    # the packed search state needs a 7-bit endpoint field on 70 vertices
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


def test_cycle_agrees_with_recursion():
    rng = random.Random(26)
    for _ in range(120):
        host = random_host(rng, rng.randint(4, 9), rng.randint(1, 3))
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
        host = random_host(rng, n, m)
        color, best = kano_li_floor(host)  # raises on a floor violation
        if ceil_div(n, m) >= 3:
            assert best.length >= ceil_div(n, m)


def test_golden_path_and_cycle_witnesses():
    # witnesses must stay byte-identical when the search changes, inexact
    # (state-capped) answers included
    rng = random.Random(31)
    hosts = [random_host(rng, n, m) for n, m in [(10, 2), (12, 3), (14, 2), (16, 3), (17, 3)]]
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
