import io
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rainbowfree
from rainbowfree.core import (
    ColoredBipartite,
    ColoredComplete,
    ColoringFormatError,
    SimpleGraph,
    _random_complete,
    components,
    induced_subgraph,
    read_coloring,
    restrict,
    write_coloring,
)


def mono_k(n, color=1, m=1):
    return ColoredComplete(n, m, [color] * (n * (n - 1) // 2))


def test_used_colors_monochromatic():
    assert mono_k(4).used_colors() == {1}


def test_color_lookup_symmetric():
    host = ColoredComplete(3, 2, [1, 2, 1])
    assert host.color(0, 1) == 1
    assert host.color(1, 0) == 1
    assert host.color(0, 2) == 2
    assert host.color(2, 1) == 1


def test_restrict_monochromatic_k4():
    g = restrict(mono_k(4), {1})
    assert g.edge_count == 6
    assert g.is_connected()


def test_restrict_rejects_empty_mask():
    with pytest.raises(ValueError):
        restrict(mono_k(4), set())


def test_restrict_rejects_out_of_range_color():
    with pytest.raises(ValueError):
        restrict(mono_k(4), {5})


def _random_color_partition(rng, used):
    r = rng.randint(1, len(used))
    masks = [set() for _ in range(r)]
    for c in used:
        masks[rng.randrange(r)].add(c)
    return [mk for mk in masks if mk]


def test_mask_partition_splits_edges():
    rng = random.Random(0)
    for _ in range(30):
        n, m = rng.randint(3, 8), rng.randint(2, 4)
        host = _random_complete(rng, n, m)
        masks = _random_color_partition(rng, sorted(host.used_colors()))
        pieces = [restrict(host, mk).edges for mk in masks]
        assert sum(len(p) for p in pieces) == n * (n - 1) // 2
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                assert not (pieces[i] & pieces[j])
    for _ in range(30):
        s, t, m = rng.randint(2, 6), rng.randint(2, 6), rng.randint(2, 4)
        host = ColoredBipartite(s, t, m, [rng.randint(1, m) for _ in range(s * t)])
        masks = _random_color_partition(rng, sorted(host.used_colors()))
        pieces = [restrict(host, mk).edges for mk in masks]
        assert sum(len(p) for p in pieces) == s * t
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                assert not (pieces[i] & pieces[j])


def test_bipartite_global_indexing():
    host = ColoredBipartite(2, 2, 2, [1, 2, 2, 1])
    assert host.pair_color(0, 2) == 1
    assert host.pair_color(0, 3) == 2
    assert host.pair_color(1, 2) == 2
    assert host.pair_color(0, 1) is None  # same side
    assert host.pair_color(2, 3) is None
    g = restrict(host, {1})
    assert g.edges == {(0, 2), (1, 3)}


def test_out_of_range_vertices_raise():
    for host in (mono_k(5), ColoredBipartite(2, 3, 1, [1] * 6)):
        for u, v in ((0, 5), (5, 0), (-1, 2), (2, -1), (-1, -1), (5, 5)):
            with pytest.raises(ValueError):
                host.pair_color(u, v)
    for u, v in ((0, 5), (5, 0), (-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            mono_k(5).color(u, v)
    for u, v in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            ColoredBipartite(2, 3, 1, [1] * 6).color(u, v)


def test_out_of_range_colors_raise_naming_the_first():
    for m in (1, 3):
        for bad in (0, m + 1):
            colors = [1, bad, m + 1, 0, 1, 1]
            with pytest.raises(ValueError, match=rf"^color {bad} out of range 1\.\.{m}$"):
                ColoredComplete(4, m, colors)
            with pytest.raises(ValueError, match=rf"^color {bad} out of range 1\.\.{m}$"):
                ColoredBipartite(2, 3, m, colors)


def test_color_bits_skip_unused_colors():
    rng = random.Random(8)
    for host in _random_hosts(rng, 40):
        unused = set(range(1, host.m + 2)) - host.used_colors()
        assert unused  # the host declares at most m colors
        nv = host.vertex_count
        for colors in (set(), unused, unused | host.used_colors(), {*unused, rng.randint(1, host.m)}):
            want = [0] * nv
            for c in colors:
                want = [a | b for a, b in zip(want, host.color_masks(c))]
            assert host.color_masks(*colors) == tuple(want)


def test_colors_equal_the_pair_order():
    rng = random.Random(9)
    for host in _random_hosts(rng, 40):
        nv = host.vertex_count
        want = dict(zip(host._pairs(), host._colors))
        assert len(want) == len(host._colors)
        for a in range(nv):
            assert host.pair_color(a, a) is None
            row = [want.get((min(a, b), max(a, b)), 0) for b in range(nv)]
            assert host._row(a) == row
            for b in range(nv):
                if a != b:
                    assert host.pair_color(a, b) == (row[b] or None)
        for (u, v), c in want.items():
            if isinstance(host, ColoredComplete):
                assert host.color(u, v) == host.color(v, u) == c
            else:
                assert host.color(u, v - host.s) == c


def test_random_complete_draws_as_randint_does():
    # the draw is randint(1, m) written out: the same colors pair by pair, and
    # the generator left in the same state, for m at and between powers of two
    for m in (1, 2, 3, 4, 5, 7, 8):
        for n in (2, 6, 12):
            for seed in range(50):
                drawn, ref = random.Random(seed), random.Random(seed)
                host = _random_complete(drawn, n, m)
                want = [ref.randint(1, m) for _ in range(n * (n - 1) // 2)]
                assert list(host._colors) == want, (m, n, seed)
                assert drawn.getstate() == ref.getstate(), (m, n, seed)


def test_read_fixed_example():
    host = read_coloring(io.StringIO("Kn 3 2\n1 2\n1\n"))
    assert isinstance(host, ColoredComplete)
    assert host.color(0, 1) == 1
    assert host.color(0, 2) == 2
    assert host.color(1, 2) == 1


def test_read_bipartite_example():
    host = read_coloring(io.StringIO("Kst 2 2 2\n1 2\n2 1\n"))
    assert isinstance(host, ColoredBipartite)
    assert host.color(0, 0) == 1
    assert host.color(1, 0) == 2


def test_read_ignores_comments_and_blank_lines():
    text = "# a comment\n\nKn 3 2\n# another\n1 2\n\n1\n"
    host = read_coloring(io.StringIO(text))
    assert host.color(1, 2) == 1


# a malformed file and the message it is refused with
MALFORMED = {
    "": "empty input",
    "Kx 3 2\n1 2\n1\n": "unknown header kind 'Kx'",
    "Kn 3\n1 2\n1\n": "malformed header: Kn 3",
    "Kn 3 2\n1 2\n": "expected 2 data rows, got 1",
    "Kn 3 2\n1 2 2\n1\n": "row 1: expected 2 entries, got 3",
    "Kn 3 2\n1 3\n1\n": "color 3 out of range 1..2",
    "Kn 3 2\n1 x\n1\n": "bad color token 'x'",
    # sizes that are not positive reach the host's size check
    "Kn 0 2\n": "n must be in 2..10000, got 0",
    "Kst -2 -3 2\n": "both sides must be non-empty",
    "Kst -2 3 2\n1 1 1\n": "both sides must be non-empty",
    "Kst 2 0 2\n": "both sides must be non-empty",
    "Kst 2 -3 2\n": "both sides must be non-empty",
    "Kn 2.5 2\n1\n": "bad header token '2.5'",
    "Kst 2 2 x\n1 1\n1 1\n": "bad header token 'x'",
}


@pytest.mark.parametrize("text", MALFORMED)
def test_read_rejects_malformed(text):
    with pytest.raises(ColoringFormatError, match=f"^{re.escape(MALFORMED[text])}$"):
        read_coloring(io.StringIO(text))


@pytest.mark.parametrize("text", ["Kn 100000000 2\n1\n", "Kst 100000 100000 2\n1 2\n"])
def test_oversized_header_refused_before_allocation(text):
    # the rows a header promises are counted, never listed
    tracemalloc.start()
    try:
        with pytest.raises(ColoringFormatError, match="data rows"):
            read_coloring(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 10


def test_reader_memory_stays_near_the_color_array():
    # K_1500's 1.1 M colors take about 9 MB as one flat tuple; keeping every
    # token of the file until the host was built peaked at 77 MB
    host = _random_complete(random.Random(0), 1500, 30)
    buf = io.StringIO()
    write_coloring(host, buf)
    buf.seek(0)
    tracemalloc.start()
    try:
        read = read_coloring(buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read == host
    assert peak < 40 << 20


def test_roundtrip_is_identity():
    rng = random.Random(1)
    for _ in range(20):
        n, m = rng.randint(2, 9), rng.randint(1, 5)
        host = _random_complete(rng, n, m)
        buf = io.StringIO()
        write_coloring(host, buf)
        assert read_coloring(io.StringIO(buf.getvalue())) == host
    for _ in range(20):
        s, t, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
        host = ColoredBipartite(s, t, m, [rng.randint(1, m) for _ in range(s * t)])
        buf = io.StringIO()
        write_coloring(host, buf)
        assert read_coloring(io.StringIO(buf.getvalue())) == host


def test_write_read_write_fixpoint():
    host = ColoredComplete(4, 3, [1, 2, 3, 1, 2, 3])
    buf1 = io.StringIO()
    write_coloring(host, buf1)
    buf2 = io.StringIO()
    write_coloring(read_coloring(io.StringIO(buf1.getvalue())), buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_simple_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 3)])


def test_induced_subgraph_relabels():
    g = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    h = induced_subgraph(g, [1, 2, 3])
    assert h.n == 3
    assert h.edges == {(0, 1), (1, 2)}
    # every vertex is the identity map: the graph itself, not a copy
    assert induced_subgraph(g, [4, 3, 2, 1, 0, 2]) is g
    assert induced_subgraph(g, range(4)) != g


def test_components():
    g = SimpleGraph(5, [(0, 1), (2, 3)])
    comps = g.components()
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]


def _random_hosts(rng, count):
    for _ in range(count):
        n, m = rng.randint(2, 9), rng.randint(1, 4)
        yield _random_complete(rng, n, m)
        s, t = rng.randint(1, 6), rng.randint(1, 6)
        yield ColoredBipartite(s, t, m, [rng.randint(1, m) for _ in range(s * t)])


def test_restrict_matches_pair_color_filter():
    rng = random.Random(3)
    for host in _random_hosts(rng, 40):
        nv = host.vertex_count
        mask = set(rng.sample(range(1, host.m + 1), rng.randint(1, host.m)))
        g = restrict(host, mask)
        want = {
            (a, b)
            for a in range(nv)
            for b in range(a + 1, nv)
            if host.pair_color(a, b) in mask
        }
        assert g.n == nv
        assert g.edges == want
        assert g.edge_count == len(want)
        assert g.adj_bits == tuple(
            sum(1 << b for b in range(nv) if host.pair_color(a, b) in mask)
            for a in range(nv)
        )
        # the per-color masks behind restrict, on global vertex numbering
        for c in range(1, host.m + 1):
            assert host.color_masks(c) == tuple(
                sum(1 << b for b in range(nv) if host.pair_color(a, b) == c)
                for a in range(nv)
            )
        counts = {
            c: sum(b.bit_count() for b in host.color_masks(c)) // 2
            for c in range(1, host.m + 1)
        }
        assert host.used_colors() == {c for c, k in counts.items() if k}


def test_induced_subgraph_matches_edge_filter():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 10)
        g = SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        verts = sorted(rng.sample(range(n), rng.randint(0, n)))
        index = {v: i for i, v in enumerate(verts)}
        h = induced_subgraph(g, reversed(verts))
        assert h == SimpleGraph(
            len(verts),
            [(index[u], index[v]) for u, v in g.edges if u in index and v in index],
        )


def test_restricted_graph_equals_constructed_graph():
    rng = random.Random(5)
    for host in _random_hosts(rng, 20):
        for c in sorted(host.used_colors()):
            g = restrict(host, {c})
            built = SimpleGraph(g.n, [(b, a) for a, b in sorted(g.edges)])
            assert built == g and hash(built) == hash(g)
            assert built != SimpleGraph(g.n + 1, g.edges)


def test_components_of_active_set_by_least_vertex():
    g = SimpleGraph(7, [(0, 5), (5, 2), (1, 6), (3, 4)])
    assert components(g.adj_bits, 0b1111111) == [0b100101, 0b1000010, 0b11000]
    # dropping vertex 5 splits the path 0-5-2
    assert components(g.adj_bits, 0b1011111) == [0b1, 0b1000010, 0b100, 0b11000]
    assert components(g.adj_bits, 0) == []


def test_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(rainbowfree.__file__).parents[1]))
    code = "import rainbowfree, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0
