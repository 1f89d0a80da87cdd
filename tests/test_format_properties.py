"""Property tests for the coloring file format: random hosts round-trip
through write/read, and mutated files are refused with ColoringFormatError."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowfree.core import (
    ColoredBipartite,
    ColoredComplete,
    ColoringFormatError,
    read_coloring,
    write_coloring,
)


@st.composite
def hosts(draw):
    m = draw(st.integers(1, 4))

    def colors(count):
        return draw(st.lists(st.integers(1, m), min_size=count, max_size=count))

    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        return ColoredComplete(n, m, colors(n * (n - 1) // 2))
    s, t = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return ColoredBipartite(s, t, m, colors(s * t))


def _text(host) -> str:
    buf = io.StringIO()
    write_coloring(host, buf)
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(hosts(), st.booleans())
def test_roundtrip_keeps_equality_and_hash(host, build_masks):
    if build_masks:
        host.color_masks(1)  # hosts with and without their masks built
    back = read_coloring(io.StringIO(_text(host)))
    assert back == host and host == back
    assert hash(back) == hash(host)
    assert _text(back) == _text(host)


def _mutate(rows, kind, data):
    """Apply one named mutation to the token rows of a valid file."""
    header, body = rows[0], rows[1:]
    m = int(header[-1])
    if kind == "drop-token":
        row = data.draw(st.sampled_from(rows))
        del row[data.draw(st.integers(0, len(row) - 1))]
    elif kind == "extra-token":
        data.draw(st.sampled_from(rows)).append("1")
    elif kind == "color-range":
        row = data.draw(st.sampled_from(body))
        bad = data.draw(st.sampled_from([0, -1, m + 1]))
        row[data.draw(st.integers(0, len(row) - 1))] = str(bad)
    elif kind == "drop-row":
        rows.remove(data.draw(st.sampled_from(body)))
    elif kind == "extra-row":
        rows.append(list(data.draw(st.sampled_from(body))))
    elif kind == "header-kind":
        header[0] = data.draw(st.sampled_from(["K", "kn", "KST", "Knn", "G"]))
    elif kind == "non-integer":
        row = data.draw(st.sampled_from(rows))
        i = data.draw(st.integers(1 if row is header else 0, len(row) - 1))
        row[i] = data.draw(st.sampled_from(["x", "1.5", "--1", "0x1", "two"]))
    return "\n".join(" ".join(row) for row in rows) + "\n"


MUTATIONS = [
    "drop-token",
    "extra-token",
    "color-range",
    "drop-row",
    "extra-row",
    "header-kind",
    "non-integer",
]


@pytest.mark.parametrize("kind", MUTATIONS)
@settings(max_examples=40, deadline=None)
@given(host=hosts(), data=st.data())
def test_mutated_file_is_refused(kind, host, data):
    rows = [line.split() for line in _text(host).splitlines()]
    text = _mutate(rows, kind, data)
    with pytest.raises(ColoringFormatError):
        read_coloring(io.StringIO(text))
