import hashlib
import io
import json
import random
import tracemalloc
from itertools import combinations_with_replacement

import pytest

from rainbowfree.bipartite import gen_type_b
from rainbowfree.constructions import (
    corollary_sequence,
    eg_realizable,
    gen_F1,
    gen_F2,
    gen_F3,
    gen_R1,
    gen_R2,
    gen_counterexample_4t,
    gen_intro_example,
    realize_degree_sequence,
)
from rainbowfree.core import write_coloring
from rainbowfree.gallai import is_gallai, sample_gallai


def dumps(host):
    buf = io.StringIO()
    write_coloring(host, buf)
    return buf.getvalue()


def test_r1_layout():
    gen = gen_R1(9, 4)
    host = gen.host
    v1, v2, v3 = gen.parts["V1"], gen.parts["V2"], gen.parts["V3"]
    assert (len(v1), len(v2), len(v3)) == (3, 3, 3)
    assert {host.color(u, v) for u in v1 for v in v2} == {1}
    assert {host.color(u, v) for u in v2 for v in v3} == {2}
    assert {host.color(u, v) for u, v in combinations_with_replacement(v2, 2) if u != v} == {2}
    assert {host.color(u, v) for u in v3 for v in v1} == {3}
    assert host.color(0, 1) == 4  # the matching edge
    assert host.color(0, 2) == 1 and host.color(1, 2) == 1
    assert sorted(host.used_colors()) == [1, 2, 3, 4]


def test_r2_star_layout():
    host = gen_R2(12, 6).host
    assert host.color(0, 1) == 4
    assert host.color(0, 2) == 5
    assert host.color(0, 3) == 6
    assert host.color(1, 2) == 1
    assert sorted(host.used_colors()) == [1, 2, 3, 4, 5, 6]


def test_r_generators_reject_bad_parameters():
    with pytest.raises(ValueError):
        gen_R1(9, 3)  # m < 4
    with pytest.raises(ValueError):
        gen_R1(9, 5)  # matching does not fit in V1
    with pytest.raises(ValueError):
        gen_R2(9, 6)  # star does not fit in V1


def test_generators_are_deterministic():
    assert dumps(gen_R1(12, 5).host) == dumps(gen_R1(12, 5).host)
    assert dumps(gen_F3(12, 12, 6).host) == dumps(gen_F3(12, 12, 6).host)
    assert dumps(gen_counterexample_4t(1, 20).host) == dumps(
        gen_counterexample_4t(1, 20).host
    )


def test_intro_example_layout():
    gen = gen_intro_example(10, 3)
    host = gen.host
    v1, v2, v3 = gen.parts["V1"], gen.parts["V2"], gen.parts["V3"]
    assert (len(v1), len(v2), len(v3)) == (8, 1, 1)
    assert host.color(v1[0], v2[0]) == 1
    assert host.color(v2[0], v3[0]) == 1
    assert host.color(v1[0], v3[0]) == 2
    assert host.color(v1[0], v1[1]) == 3
    assert is_gallai(host)


def test_intro_example_rejects_degenerate_k():
    for k in (1, 2):
        with pytest.raises(ValueError):
            gen_intro_example(10, k)
    with pytest.raises(ValueError):
        gen_intro_example(4, 3)  # n < k + 2


def test_intro_example_rainbow_triangle_free_larger():
    assert is_gallai(gen_intro_example(12, 5).host)


def test_f1_sizes_and_colors():
    gen = gen_F1(12, 6, 4)
    host = gen.host
    for i in range(1, 5):
        part = gen.parts[f"U{i}"]
        assert len(part) == 3
        assert {host.color(u, v) for u in part for v in range(6)} == {i}


def test_f1_remainder_to_last_part():
    gen = gen_F1(13, 6, 4)
    assert len(gen.parts["U4"]) == 4


def test_f2_layout():
    gen = gen_F2(13, 6, 5)
    host = gen.host
    u1, u2, u = gen.parts["U1"], gen.parts["U2"], gen.parts["u"][0]
    assert len(u1) == 6 and len(u2) == 6
    assert {host.color(x, v) for x in u1 for v in range(6)} == {1}
    assert {host.color(x, v) for x in u2 for v in range(6)} == {2}
    assert {host.color(u, v) for v in range(6)} == {3, 4, 5}
    assert sorted(host.used_colors()) == [1, 2, 3, 4, 5]


def test_f2_needs_enough_right_vertices():
    with pytest.raises(ValueError):
        gen_F2(13, 2, 5)  # t < m - 2


def test_f3_block_structure():
    gen = gen_F3(12, 12, 6)
    host = gen.host
    alpha = gen.spec["alpha"]
    assert alpha == 4
    for i in range(3, 7):
        ui, vi = gen.parts[f"U{i}"], gen.parts[f"V{i}"]  # local side indices
        assert {host.color(u, v) for u in ui for v in vi} == {i}
    # cross-split pairs carry color 1, same-side distinct pairs color 2
    assert {host.color(u, v) for u in gen.parts["U3"] for v in gen.parts["V5"]} == {1}
    assert {host.color(u, v) for u in gen.parts["U3"] for v in gen.parts["V4"]} == {2}
    assert sorted(host.used_colors()) == [1, 2, 3, 4, 5, 6]


def test_f3_m4_has_empty_second_color():
    host = gen_F3(12, 12, 4).host
    assert sorted(host.used_colors()) == [1, 3, 4]


def test_eg_realizable_examples():
    assert eg_realizable((3, 3, 3, 3))
    assert eg_realizable((2, 2, 1, 1))
    assert not eg_realizable((3, 3, 1, 1))
    assert not eg_realizable((1, 1, 1))  # odd sum


def test_eg_rejects_bad_sequences():
    with pytest.raises(ValueError):
        eg_realizable((1, 2))  # increasing
    with pytest.raises(ValueError):
        eg_realizable((4, 1, 1))  # degree too large
    with pytest.raises(ValueError):
        eg_realizable(())


def test_realize_small_examples():
    assert realize_degree_sequence((1, 1)).edge_count == 1
    assert realize_degree_sequence((2, 2, 2)).edge_count == 3
    g = realize_degree_sequence((2, 2, 1, 1))
    assert g.degree_sequence() == (2, 2, 1, 1)


def test_realize_rejects_unrealizable():
    with pytest.raises(ValueError):
        realize_degree_sequence((3, 3, 1, 1))


def test_counterexample_structure():
    rng = random.Random(0)
    for t, n in ((1, 20), (2, 40), (1, 11)):
        gen = gen_counterexample_4t(t, n)
        host = gen.host
        v1, v2, v3 = gen.parts["V1"], gen.parts["V2"], gen.parts["V3"]
        assert (len(v1), len(v2), len(v3)) == (n - 6 * t, 4 * t, 2 * t)
        assert sorted(host.used_colors()) == [1, 2, 3]
        # inside V2, color-1 degrees split 2t/2t-1 and color-2 complements them
        deg1 = {v: sum(1 for w in v2 if w != v and host.color(v, w) == 1) for v in v2}
        assert sorted(deg1.values(), reverse=True) == list(corollary_sequence(t))
        for v in v2:
            deg2 = sum(1 for w in v2 if w != v and host.color(v, w) == 2)
            assert deg1[v] + deg2 == 4 * t - 1
        # V3 sees color 3 everywhere
        x = v3[0]
        others = [w for w in range(n) if w != x]
        assert {host.color(x, w) for w in rng.sample(others, min(8, len(others)))} == {3}
        # vertices of V2 join V1 in their designated color
        for v in gen.parts["V2_color1_degree_2t"]:
            assert host.color(v, v1[0]) == 1
        for v in gen.parts["V2_color1_degree_2t_minus_1"]:
            assert host.color(v, v1[0]) == 2
        assert is_gallai(host)


def test_counterexample_rejects_small_n():
    with pytest.raises(ValueError):
        gen_counterexample_4t(1, 10)
    with pytest.raises(ValueError):
        gen_counterexample_4t(0, 20)


def _fingerprint(make, *args) -> str:
    """The host text, parts and spec of one call, or its refusal message."""
    try:
        gen = make(*args)
    except ValueError as exc:
        return f"ValueError: {exc}\n"
    return dumps(gen.host) + json.dumps(gen.describe()) + "\n"


def _type_b_calls():
    """Seeded gen_type_b calls: planted sizes, near-even defaults, refusals."""
    rng = random.Random(10)
    calls = []
    for _ in range(60):
        m = rng.randint(5, 8)
        u_sizes = [rng.randint(1, 4) for _ in range(m - 1)]
        v_sizes = [rng.randint(1, 4) for _ in range(m - 1)]
        prob = rng.choice((0.0, 0.5, 0.9, 1.0, rng.random()))
        calls.append((sum(u_sizes), sum(v_sizes), m, u_sizes, v_sizes, rng.randrange(1000), prob))
    for s in range(1, 12):
        for m in range(4, 9):
            calls.append((s, 2 * s, m, None, None, s + m))
    for u_sizes, v_sizes in (
        ([2, 2, 2, 2], None),
        ([6, 1, 1, 1, 1], [2, 2, 2, 2, 1]),
        ([6, 1, 1, 1, 0], [2, 2, 2, 2, 2]),
        ([5, 1, 1, 1, 1], [3, 2, 2, 2, 2]),
    ):
        calls.append((10, 10, 6, u_sizes, v_sizes))
    return calls


# sha256 of the concatenated fingerprints of each generator over its grid
GOLDEN_GENERATORS = {
    "R1": "6c25984b3531c7811f5836b6616779c29cb475a55823429e9aeb26d6ce38d625",
    "R2": "cdcbc7b1d4d879c8874f2ce429653e53825849d3691b8d661d073636af872546",
    "intro": "4f7791826516fc27d63067c17236b4e86c6abc50be8c6a891c72d65629a72834",
    "F1": "b7fddd58bed559908f95e38bb6746f2f9f6ca620faed658a36766c837fd6f9eb",
    "F2": "f427286d5defb243630f6df21efd6eabaae22a1368dfbc0369349a9adcd5571f",
    "F3": "a1965c8a04124df264945e362898bf82eab9a14e97b8d27e31d95d5ad2cb1a18",
    "counter4t": "6f7e32e0d425d6ee2d711f0b15517884f7b89370e548a36dd087e44f08619371",
    "type-b": "ee66eb6fc1dc6ee744dbd4215d765c7f92d32b045fe33ad734a7d2a24e5396be",
}


def _generator_grid():
    bipartite = [(s, t, m) for s in range(1, 14) for t in range(1, 14) for m in range(10)]
    return {
        "R1": [(gen_R1, (n, m)) for n in range(1, 40) for m in range(3, 10)],
        "R2": [(gen_R2, (n, m)) for n in range(1, 40) for m in range(3, 10)],
        "intro": [(gen_intro_example, (n, k)) for n in range(1, 40) for k in range(1, 12)],
        "F1": [(gen_F1, args) for args in bipartite],
        "F2": [(gen_F2, args) for args in bipartite],
        "F3": [(gen_F3, args) for args in bipartite],
        "counter4t": [(gen_counterexample_4t, (t, n)) for t in range(4) for n in range(1, 45)],
        "type-b": [(gen_type_b, args) for args in _type_b_calls()],
    }


def test_golden_generators():
    for label, calls in _generator_grid().items():
        text = "".join(_fingerprint(make, *args) for make, args in calls)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_GENERATORS[label], label


@pytest.mark.parametrize(
    "make, args",
    [
        (gen_R1, (10**6, 4)),
        (gen_R2, (10**6, 4)),
        (gen_intro_example, (10**6, 5)),
        (gen_F1, (10**6, 3, 3)),
        (gen_F1, (3, 10**6, 3)),
        (gen_F2, (10**6, 3, 3)),
        (gen_F3, (10**6, 10**6, 6)),
        (gen_counterexample_4t, (1, 10**6)),
        (gen_type_b, (2001, 8000, 5)),
        (gen_type_b, (10, 10, 10**6)),
        (sample_gallai, (12000, 3, 0)),
    ],
    ids=lambda x: getattr(x, "__name__", None) or repr(x),
)
def test_oversized_generator_refused_before_allocation(make, args):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            make(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
