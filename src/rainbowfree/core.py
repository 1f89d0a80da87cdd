"""Edge-colored complete / complete-bipartite graphs, color masks, the
bitset graph layer, and file I/O.

Colors are dense integers 1..m.  Vertices are 0-indexed.  For a bipartite
host the two sides share one global vertex numbering: the left side U is
0..s-1 and the right side V is s..s+t-1.  A SimpleGraph is its adjacency
bitmasks, and every graph helper here works on them.  A host builds its
per-color adjacency masks lazily, in one pass on first use, and every
color-class scan reads them.  All objects are immutable after construction
(the masks are assigned once, complete) and so safe to share between threads.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Iterator, TextIO, Union

MAX_VERTICES = 10_000


class ColoringFormatError(ValueError):
    """Raised when a coloring file is malformed."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimpleGraph:
    """Immutable simple graph on vertices 0..n-1 (no loops, no multi-edges),
    stored as one adjacency bitmask per vertex."""

    __slots__ = ("n", "adj_bits", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        bits = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        self.n = n
        self.adj_bits = tuple(bits)
        self._edges = None

    @classmethod
    def _from_bits(cls, adj_bits: Iterable[int]) -> "SimpleGraph":
        """Wrap symmetric, loop-free adjacency bitmasks without re-checking."""
        g = cls.__new__(cls)
        g.adj_bits = tuple(adj_bits)
        g.n = len(g.adj_bits)
        g._edges = None
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (u, v) with u < v, derived once on first read."""
        if self._edges is None:
            bits = self.adj_bits
            self._edges = frozenset(
                (u, v) for u in range(self.n) for v in iter_bits(bits[u]) if u < v
            )
        return self._edges

    @property
    def edge_count(self) -> int:
        return sum(b.bit_count() for b in self.adj_bits) // 2

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted non-increasing."""
        return tuple(sorted((self.degree(v) for v in range(self.n)), reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (self.adj_bits[u] >> v) & 1 == 1

    def max_degree(self) -> int:
        return max((b.bit_count() for b in self.adj_bits), default=0)

    def support(self) -> tuple[int, ...]:
        """Vertices incident to at least one edge."""
        return tuple(v for v in range(self.n) if self.adj_bits[v])

    def components(self) -> list[frozenset[int]]:
        """Connected components, each as a vertex set, ordered by least vertex."""
        full = (1 << self.n) - 1
        return [frozenset(iter_bits(c)) for c in components(self.adj_bits, full)]

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        full = (1 << self.n) - 1
        return flood(self.adj_bits, full, 0) == full

    def __eq__(self, other) -> bool:
        return isinstance(other, SimpleGraph) and self.adj_bits == other.adj_bits

    def __hash__(self) -> int:
        return hash(self.adj_bits)

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={sorted(self.edges)})"


def flood(adj_bits, active: int, start: int) -> int:
    """Bit set of vertices reachable from ``start`` inside ``active``."""
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj_bits[v]
        nxt &= active & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def components(adj_bits, active: int) -> list[int]:
    """Connected components of the graph induced on ``active``, as bit sets,
    ordered by least vertex."""
    out = []
    while active:
        comp = flood(adj_bits, active, (active & -active).bit_length() - 1)
        out.append(comp)
        active &= ~comp
    return out


def induced_subgraph(g: SimpleGraph, vertices: Iterable[int]) -> SimpleGraph:
    """Induced subgraph relabeled onto 0..k-1 following sorted vertex order."""
    verts = sorted(set(vertices))
    keep = sum(1 << v for v in verts)
    index = {v: i for i, v in enumerate(verts)}
    bits = []
    for v in verts:
        b = 0
        for w in iter_bits(g.adj_bits[v] & keep):
            b |= 1 << index[w]
        bits.append(b)
    return SimpleGraph._from_bits(bits)


def _tri_index(n: int, u: int, v: int) -> int:
    # row-major upper triangle, u < v
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


class _ColoredHost:
    """The color range ``m``, the flat tuple of ``want`` edge colors and its
    per-color masks; subclasses check their sizes and define ``_key``."""

    __slots__ = ("m", "_colors", "_masks")

    def __init__(self, m: int, colors: Iterable[int], want: int):
        if m < 1:
            raise ValueError("m must be at least 1")
        colors = tuple(colors)
        if len(colors) != want:
            raise ValueError(f"expected {want} edge colors, got {len(colors)}")
        for c in colors:
            if not (1 <= c <= m):
                raise ValueError(f"color {c} out of range 1..{m}")
        self.m = m
        self._colors = colors
        self._masks = None

    def used_colors(self) -> frozenset[int]:
        """The exact set of colors appearing on at least one edge."""
        return frozenset(self._colors)

    def color_counts(self) -> dict[int, int]:
        return dict(Counter(self._colors))

    def color_masks(self, c: int) -> tuple[int, ...]:
        """Adjacency bitmasks, one per global vertex, of the edges colored ``c``.

        All colors are built in one edge pass on first use and kept; the
        finished dict is assigned once, so no thread sees a partial one.
        """
        masks = self._masks
        if masks is None:
            rows = {col: [0] * self.vertex_count for col in self.used_colors()}
            for u, v, col in self.edge_iter():
                row = rows[col]
                row[u] |= 1 << v
                row[v] |= 1 << u
            masks = {col: tuple(row) for col, row in rows.items()}
            self._masks = masks
        return masks.get(c) or (0,) * self.vertex_count

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class ColoredComplete(_ColoredHost):
    """An edge-coloring of K_n by colors 1..m, stored as a flat triangular array."""

    __slots__ = ("n",)

    def __init__(self, n: int, m: int, colors: Iterable[int]):
        if not (2 <= n <= MAX_VERTICES):
            raise ValueError(f"n must be in 2..{MAX_VERTICES}, got {n}")
        self.n = n
        super().__init__(m, colors, n * (n - 1) // 2)

    @classmethod
    def from_function(cls, n: int, m: int, fn) -> "ColoredComplete":
        """Build from ``fn(u, v) -> color`` called on every pair u < v."""
        return cls(n, m, (fn(u, v) for u, v in combinations(range(n), 2)))

    @property
    def vertex_count(self) -> int:
        return self.n

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no loop edges")
        if u > v:
            u, v = v, u
        return self._colors[_tri_index(self.n, u, v)]

    def pair_color(self, u: int, v: int) -> int | None:
        """Color of the edge uv, or None when uv is not an edge (u == v)."""
        if u == v:
            return None
        return self.color(u, v)

    def edge_iter(self) -> Iterator[tuple[int, int, int]]:
        # combinations() walks the pairs in the row-major order of _colors
        for (u, v), c in zip(combinations(range(self.n), 2), self._colors):
            yield u, v, c

    def _key(self) -> tuple:
        return (self.n, self.m, self._colors)

    def __repr__(self) -> str:
        return f"ColoredComplete(n={self.n}, m={self.m})"


class ColoredBipartite(_ColoredHost):
    """An edge-coloring of K_{s,t} by colors 1..m.

    Local indices: u in 0..s-1 on the left, v in 0..t-1 on the right.
    Global indices (used by :func:`restrict`, ``color_masks`` and the rainbow
    detector) are 0..s-1 for U and s..s+t-1 for V.
    """

    __slots__ = ("s", "t")

    def __init__(self, s: int, t: int, m: int, colors: Iterable[int]):
        if s < 1 or t < 1:
            raise ValueError("both sides must be non-empty")
        if s + t > MAX_VERTICES:
            raise ValueError("host too large")
        self.s = s
        self.t = t
        super().__init__(m, colors, s * t)

    @classmethod
    def from_function(cls, s: int, t: int, m: int, fn) -> "ColoredBipartite":
        """Build from ``fn(u, v) -> color`` on local indices u < s, v < t."""
        return cls(s, t, m, (fn(u, v) for u in range(s) for v in range(t)))

    @property
    def vertex_count(self) -> int:
        return self.s + self.t

    def color(self, u: int, v: int) -> int:
        """Color of the edge between left vertex u and right vertex v (local)."""
        if not (0 <= u < self.s and 0 <= v < self.t):
            raise ValueError("local index out of range")
        return self._colors[u * self.t + v]

    def pair_color(self, a: int, b: int) -> int | None:
        """Color of the edge between global vertices a, b; None if same side."""
        if a > b:
            a, b = b, a
        if a < self.s <= b:
            return self._colors[a * self.t + (b - self.s)]
        return None

    def edge_iter(self) -> Iterator[tuple[int, int, int]]:
        """Yield (global u, global v, color) for every edge."""
        for u in range(self.s):
            base = u * self.t
            for v in range(self.t):
                yield u, self.s + v, self._colors[base + v]

    def _key(self) -> tuple:
        return (self.s, self.t, self.m, self._colors)

    def __repr__(self) -> str:
        return f"ColoredBipartite(s={self.s}, t={self.t}, m={self.m})"


Host = Union[ColoredComplete, ColoredBipartite]


def normalize_mask(host: Host, mask: Iterable[int]) -> frozenset[int]:
    """Validate a color mask against a host: non-empty, colors within 1..m."""
    out = frozenset(mask)
    if not out:
        raise ValueError("empty color mask")
    for c in out:
        if not (1 <= c <= host.m):
            raise ValueError(f"mask color {c} outside declared range 1..{host.m}")
    return out


def color_bits(host: Host, colors) -> list[int]:
    """Adjacency bitmasks, over the host's global vertices, of the edges
    whose color is in ``colors`` (which may be empty)."""
    bits = [0] * host.vertex_count
    for c in colors:
        bits = [a | b for a, b in zip(bits, host.color_masks(c))]
    return bits


def restrict(host: Host, mask: Iterable[int]) -> SimpleGraph:
    """The spanning subgraph keeping exactly the edges whose color is in ``mask``.

    The result lives on all of the host's (global) vertices; vertices whose
    incident colors all fall outside the mask become isolated.
    """
    return SimpleGraph._from_bits(color_bits(host, normalize_mask(host, mask)))


# ---------------------------------------------------------------------------
# File format
#
#   complete:   "Kn <n> <m>" then n-1 rows; row i (1-based) lists
#               c(i-1, j) for j = i..n-1.
#   bipartite:  "Kst <s> <t> <m>" then s rows of t colors (row u, column v).
#
# '#' begins a comment line; blank lines are ignored.
# ---------------------------------------------------------------------------


def _data_rows(stream: TextIO) -> list[list[str]]:
    rows = []
    for line in stream:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped.split())
    return rows


def _parse_color(token: str, m: int) -> int:
    try:
        c = int(token)
    except ValueError:
        raise ColoringFormatError(f"bad color token {token!r}") from None
    if not (1 <= c <= m):
        raise ColoringFormatError(f"color {c} out of range 1..{m}")
    return c


def read_coloring(stream: TextIO) -> Host:
    """Parse a coloring file into a ColoredComplete or ColoredBipartite."""
    rows = _data_rows(stream)
    if not rows:
        raise ColoringFormatError("empty input")
    header = rows[0]
    body = rows[1:]
    try:
        if header[0] == "Kn":
            if len(header) != 3:
                raise ColoringFormatError(f"malformed header: {' '.join(header)}")
            n, m = int(header[1]), int(header[2])
            if len(body) != max(n - 1, 0):
                raise ColoringFormatError(
                    f"expected {n - 1} data rows, got {len(body)}"
                )
            colors = []
            for i, row in enumerate(body, start=1):
                want = n - i
                if len(row) != want:
                    raise ColoringFormatError(
                        f"row {i}: expected {want} entries, got {len(row)}"
                    )
                colors.extend(_parse_color(tok, m) for tok in row)
            return ColoredComplete(n, m, colors)
        if header[0] == "Kst":
            if len(header) != 4:
                raise ColoringFormatError(f"malformed header: {' '.join(header)}")
            s, t, m = int(header[1]), int(header[2]), int(header[3])
            if len(body) != s:
                raise ColoringFormatError(f"expected {s} data rows, got {len(body)}")
            colors = []
            for u, row in enumerate(body):
                if len(row) != t:
                    raise ColoringFormatError(
                        f"row {u + 1}: expected {t} entries, got {len(row)}"
                    )
                colors.extend(_parse_color(tok, m) for tok in row)
            return ColoredBipartite(s, t, m, colors)
    except ValueError as exc:
        if isinstance(exc, ColoringFormatError):
            raise
        raise ColoringFormatError(str(exc)) from None
    raise ColoringFormatError(f"unknown header kind {header[0]!r}")


def write_coloring(host: Host, stream: TextIO) -> None:
    """Serialize a host in the canonical file format (read/write round-trips)."""
    if isinstance(host, ColoredComplete):
        stream.write(f"Kn {host.n} {host.m}\n")
        for u in range(host.n - 1):
            stream.write(
                " ".join(str(host.color(u, v)) for v in range(u + 1, host.n)) + "\n"
            )
    elif isinstance(host, ColoredBipartite):
        stream.write(f"Kst {host.s} {host.t} {host.m}\n")
        for u in range(host.s):
            stream.write(" ".join(str(host.color(u, v)) for v in range(host.t)) + "\n")
    else:
        raise TypeError(f"not a colored host: {host!r}")


def load_coloring(path) -> Host:
    with open(path, "r", encoding="utf-8") as f:
        return read_coloring(f)


def dump_coloring(host: Host, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        write_coloring(host, f)
