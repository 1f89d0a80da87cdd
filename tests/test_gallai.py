import hashlib
import json
import random
import time
import tracemalloc
from itertools import combinations, product

import pytest

from rainbowfree import CertificationError, gallai
from rainbowfree.cli import main
from rainbowfree.connectivity import is_k_connected, largest_k_connected
from rainbowfree.constructions import gen_counterexample_4t, gen_intro_example
from rainbowfree.core import (
    ColoredComplete,
    _random_complete,
    dump_coloring,
    induced_subgraph,
    restrict,
)
from rainbowfree.gallai import (
    NotGallaiError,
    gallai_partition,
    is_gallai,
    sample_gallai,
    validate_gallai_partition,
    verify_two_color_2connected,
    verify_two_color_3connected,
)


def test_two_colored_hosts_are_gallai():
    rng = random.Random(20)
    for _ in range(40):
        assert is_gallai(_random_complete(rng, rng.randint(3, 9), 2))


def test_rainbow_k3_is_not_gallai():
    assert not is_gallai(ColoredComplete(3, 3, [1, 2, 3]))


def test_counterexample_is_gallai():
    assert is_gallai(gen_counterexample_4t(1, 20).host)


def test_partition_two_part_split():
    # all cross edges colored 1 regardless of interiors
    host = ColoredComplete.from_function(
        6, 3, lambda u, v: 2 if (u < 3 and v < 3) else (3 if (u >= 3 and v >= 3) else 1)
    )
    part = gallai_partition(host)
    assert validate_gallai_partition(host, part.parts) is None
    assert len(part.parts) >= 2


def test_partition_counterexample():
    host = gen_counterexample_4t(1, 20).host
    part = gallai_partition(host)
    assert validate_gallai_partition(host, part.parts) is None


def test_partition_intro_example():
    host = gen_intro_example(10, 3).host
    part = gallai_partition(host)
    assert validate_gallai_partition(host, part.parts) is None
    assert {c for _, _, c in part.cross_colors} <= {1, 2}


def test_partition_monochromatic_host():
    host = ColoredComplete(5, 1, [1] * 10)
    part = gallai_partition(host)
    assert validate_gallai_partition(host, part.parts) is None


def test_partition_rejects_non_gallai():
    with pytest.raises(NotGallaiError):
        gallai_partition(ColoredComplete(3, 3, [1, 2, 3]))


# sha256 of the JSON list of gallai_partition's to_json() answers: on the
# 150 sampled hosts and the four registry Gallai constructions, and on every
# Gallai coloring of the exhaustive test's (n, m)
GOLDEN_PARTITIONS = {
    "samples": "b0070dac1ee71c665412592855297d8c77803f37e3eb2dd9b6afb83310690807",
    "exhaustive": "9801b2e1547fdf9b20a95ff1271a2cbcb7364b11da6cb2cb73f32ea910f152d0",
}


def _digest(partitions) -> str:
    return hashlib.sha256(json.dumps(partitions).encode()).hexdigest()


def test_partition_certificate_catches_a_misrecognized_host(tmp_path, capsys, monkeypatch):
    # with recognition patched to pass a rainbow triangle, the components
    # outside the first disconnecting pair are mixed, and the one validation
    # refuses them with its reason
    host = ColoredComplete(4, 3, [1, 1, 1, 1, 2, 3])
    monkeypatch.setattr(gallai, "is_gallai", lambda host: True)
    with pytest.raises(CertificationError, match=r"^parts 1,2 see colors \[1, 2\]$"):
        gallai_partition(host)
    path = str(tmp_path / "g.txt")
    dump_coloring(host, path)
    assert main(["gallai", "partition", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "CertificationError"


def test_partition_on_samples():
    hosts = [sample_gallai(8, 3, seed) for seed in range(150)]
    hosts += [
        gen_intro_example(10, 3).host,
        gen_intro_example(12, 5).host,
        gen_counterexample_4t(1, 20).host,
        gen_counterexample_4t(2, 40).host,
    ]
    partitions = []
    for host in hosts:
        part = gallai_partition(host)
        assert validate_gallai_partition(host, part.parts) is None
        partitions.append(part.to_json())
    assert _digest(partitions) == GOLDEN_PARTITIONS["samples"]


def test_partition_certifies_every_small_gallai_coloring():
    # exhaustive over all colorings: on every Gallai host the components
    # outside the first disconnecting color pair pass the one validation
    partitions = []
    for n, m in ((3, 3), (4, 3), (4, 5), (5, 3)):
        for colors in product(range(1, m + 1), repeat=n * (n - 1) // 2):
            host = ColoredComplete(n, m, list(colors))
            if is_gallai(host):
                part = gallai_partition(host)
                assert validate_gallai_partition(host, part.parts) is None, (n, m, colors)
                partitions.append(part.to_json())
    assert _digest(partitions) == GOLDEN_PARTITIONS["exhaustive"]


def test_partition_coarsening_soundness():
    # merging all parts of one connected component of a single cross-color's
    # quotient keeps every part pair monochromatic
    for seed in range(40):
        host = sample_gallai(9, 3, seed)
        part = gallai_partition(host)
        l = len(part.parts)
        for a in sorted({c for _, _, c in part.cross_colors}):
            quotient = {i: set() for i in range(l)}
            for i, j, c in part.cross_colors:
                if c == a:
                    quotient[i].add(j)
                    quotient[j].add(i)
            seen: set[int] = set()
            groups = []
            for i in range(l):
                if i in seen:
                    continue
                stack, comp = [i], {i}
                while stack:
                    x = stack.pop()
                    for y in quotient[x]:
                        if y not in comp:
                            comp.add(y)
                            stack.append(y)
                seen |= comp
                groups.append(sorted(comp))
            if len(groups) < 2:
                continue
            merged = [
                sorted(v for i in grp for v in part.parts[i]) for grp in groups
            ]
            assert validate_gallai_partition(host, merged) is None


def test_validator_catches_bad_partitions():
    host = gen_intro_example(10, 3).host
    assert validate_gallai_partition(host, [list(range(10))]) is not None
    assert validate_gallai_partition(host, [[0, 1], [2, 3]]) is not None  # no cover
    assert (
        validate_gallai_partition(host, [[0], [0], list(range(1, 10))]) is not None
    )  # overlap


def test_validator_flags_three_cross_colors():
    # star-like: vertex 0 sees 1, vertex pairs inside see 2, one odd edge 3
    host = ColoredComplete.from_function(
        4, 3, lambda u, v: 3 if (u, v) == (1, 2) else (1 if u == 0 else 2)
    )
    assert validate_gallai_partition(host, [[0], [1], [2], [3]]) is not None


def test_sampler_gallai_and_color_exact():
    for seed in range(300):
        n = 4 + seed % 6
        m = 1 + seed % 4
        host = sample_gallai(n, m, seed)
        assert is_gallai(host), seed
        assert len(host.used_colors()) == min(m, n - 1), seed


def twinless_gallai(rng, n, parts):
    """A Gallai coloring of K_n without twins: a random 2-coloring of
    K_parts in colors 1 and 2 between contiguous parts, and a random
    coloring in colors 3 and 4 inside each part."""
    part = [v * parts // n for v in range(n)]
    top = {pair: rng.randint(1, 2) for pair in combinations(range(parts), 2)}
    colors = [
        top[part[u], part[v]] if part[u] != part[v] else rng.randint(3, 4)
        for u, v in combinations(range(n), 2)
    ]
    return ColoredComplete(n, 4, colors)


def test_recognition_scales_past_a_thousand_vertices():
    # after vertex 0's row the rainbow-triangle count makes one popcount
    # per edge on n-bit masks: 0.2-0.35 s at n = 1,000, masks included, on
    # a 2-vCPU host, where the triple loop took 30 s; sample_gallai has 3
    # twin classes there, the second host none
    twinless = twinless_gallai(random.Random(31), 1000, 10)
    assert twinless.twin_prev() is None
    for host in (sample_gallai(1000, 4, 1), twinless):
        start = time.perf_counter()
        assert is_gallai(host)
        assert time.perf_counter() - start < 5


def test_recognition_and_partition_scale_on_many_colors():
    # 20 colors is more than SEARCH_MASK_COLORS, so no masks are built and
    # the pattern engine's twin rule carries the search: 0.9-1.4 s for
    # is_gallai and 0.6-1.0 s for the partition at n = 2,000 on a 2-vCPU
    # host, where the triple loop took 15 s at n = 1,000
    host = sample_gallai(2000, 20, 1)
    start = time.perf_counter()
    assert is_gallai(host)
    assert time.perf_counter() - start < 5
    start = time.perf_counter()
    gallai_partition(host)  # validated before it returns
    assert time.perf_counter() - start < 5


def test_sampler_deterministic():
    a = sample_gallai(9, 3, 123)
    b = sample_gallai(9, 3, 123)
    assert a == b
    assert a != sample_gallai(9, 3, 124)


# sha256 of repr(host._colors): the sampler's output and its rng draw order
GOLDEN_SAMPLES = {
    (2, 1, 0): "28cb03b06c288e88c6a880eeba293bf9c9bb9fa586128586459a486a511f832f",
    (9, 3, 123): "82ca3dbeff57aced60fd7a145e1d980f1150e402e881a95b2e3b2f7f8cec1f9f",
    (40, 5, 7): "603abdb0a6373dc02a227ca681389b28a0b878ccc74d14922182227da9f32690",
    (200, 4, 1): "01c465272f42e7877e138d8d6062c303f41e16308af82d7febdd27f6bd858ce6",
    (257, 12, 99): "46a77c26e62a98fc852822af1139249583b5ff2f29c13b2f695ad882f5899a35",
}


def test_sampler_golden_colors():
    for args, digest in GOLDEN_SAMPLES.items():
        colors = sample_gallai(*args)._colors
        assert hashlib.sha256(repr(colors).encode()).hexdigest() == digest, args


def test_sampler_memory_stays_near_the_color_array():
    # the colors of K_1500 are 1.1 M entries, about 9 MB per flat copy;
    # keying them by vertex-pair tuples peaked at 116 MB
    tracemalloc.start()
    try:
        host = sample_gallai(1500, 4, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(host.used_colors()) == 4
    assert peak < 40 << 20


def test_sampler_single_color():
    host = sample_gallai(6, 1, 0)
    assert host.used_colors() == {1}


def test_lemma_verifiers_on_intro():
    host = gen_intro_example(10, 3).host
    w2 = verify_two_color_2connected(host)
    assert w2.ok and w2.order == 10
    g = restrict(host, w2.mask)
    assert is_k_connected(g, 2)
    w3 = verify_two_color_3connected(host)
    assert w3.ok and w3.order >= 9
    sub = induced_subgraph(restrict(host, w3.mask), w3.vertices)
    assert is_k_connected(sub, 3)


def test_lemma_verifiers_on_samples():
    for seed in range(120):
        host = sample_gallai(9, 3, 1000 + seed)
        assert verify_two_color_2connected(host).ok
        w3 = verify_two_color_3connected(host)
        assert w3.ok and w3.order >= 8


# sha256 of (ok, order, sorted mask, vertices) from both lemma verifiers on
# 240 sampled hosts (n = 7..30) and four constructions; 25 of the hosts have
# no 3-connected two-colored class on all n vertices, only on n - 1
GOLDEN_TWO_COLOR = "22c291106a651268adbd2b98eefe670ee1a93f0044603a9e155625e7f481b1ec"


def test_golden_two_color_witnesses():
    hosts = [sample_gallai(7 + seed % 24, 3, seed) for seed in range(240)]
    hosts += [
        gen_intro_example(10, 3).host,
        gen_intro_example(12, 5).host,
        gen_counterexample_4t(1, 20).host,
        gen_counterexample_4t(2, 40).host,
    ]
    rows = []
    short = 0
    for host in hosts:
        for verify in (verify_two_color_2connected, verify_two_color_3connected):
            w = verify(host)
            rows.append([w.ok, w.order, sorted(w.mask), list(w.vertices)])
        short += rows[-1][1] == host.n - 1
    assert short == 25
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == GOLDEN_TWO_COLOR


def every_mask_witness(host, k, drop):
    """The two-color search without a floor: largest_k_connected of each
    mask in color order, and the first that reaches n - drop vertices."""
    for mask in combinations(sorted(host.used_colors()), 2):
        rep = largest_k_connected(host, mask, k)
        if rep.lower >= host.n - drop:
            return True, k, frozenset(mask), rep.witness
    return False, k, frozenset(), ()


def test_floored_two_color_witnesses_match_every_mask():
    # the floor n - drop prunes a class that cannot reach that order, and a
    # class that can still returns its largest k-connected set
    rng = random.Random(46)
    hosts = [sample_gallai(rng.randint(7, 12), 3, seed) for seed in range(1000)]
    hosts += [
        gen_intro_example(10, 3).host,
        gen_intro_example(12, 5).host,
        gen_counterexample_4t(1, 20).host,
        gen_counterexample_4t(2, 40).host,
    ]
    later = 0
    for host in hosts:
        for verify, k, drop in (
            (verify_two_color_2connected, 2, 0),
            (verify_two_color_3connected, 3, 1),
        ):
            want = every_mask_witness(host, k, drop)
            assert verify(host)[:4] == want, (host, k)
            later += want[2] != frozenset(sorted(host.used_colors())[:2])
    assert later > 200, later


def test_lemma_verifiers_reject_two_colors():
    host = ColoredComplete(8, 2, [1 + (i % 2) for i in range(28)])
    with pytest.raises(ValueError):
        verify_two_color_2connected(host)


def test_lemma_verifiers_reject_small_n():
    host = sample_gallai(6, 3, 0)
    if len(host.used_colors()) == 3:
        with pytest.raises(ValueError):
            verify_two_color_2connected(host)
