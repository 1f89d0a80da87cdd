import io
import random

import pytest

from rainbowfree.core import (
    ColoredBipartite,
    ColoredComplete,
    ColoringFormatError,
    SimpleGraph,
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
        host = ColoredComplete(n, m, [rng.randint(1, m) for _ in range(n * (n - 1) // 2)])
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


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "Kx 3 2\n1 2\n1\n",  # unknown kind
        "Kn 3\n1 2\n1\n",  # short header
        "Kn 3 2\n1 2\n",  # missing row
        "Kn 3 2\n1 2 2\n1\n",  # extra entry
        "Kn 3 2\n1 3\n1\n",  # color out of range
        "Kn 3 2\n1 x\n1\n",  # non-numeric
    ],
)
def test_read_rejects_malformed(text):
    with pytest.raises(ColoringFormatError):
        read_coloring(io.StringIO(text))


def test_roundtrip_is_identity():
    rng = random.Random(1)
    for _ in range(20):
        n, m = rng.randint(2, 9), rng.randint(1, 5)
        host = ColoredComplete(n, m, [rng.randint(1, m) for _ in range(n * (n - 1) // 2)])
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


def test_components():
    g = SimpleGraph(5, [(0, 1), (2, 3)])
    comps = g.components()
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]


def _random_hosts(rng, count):
    for _ in range(count):
        n, m = rng.randint(2, 9), rng.randint(1, 4)
        yield ColoredComplete(n, m, [rng.randint(1, m) for _ in range(n * (n - 1) // 2)])
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
        assert host.color_counts() == {c: k for c, k in counts.items() if k}
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
