"""Edge-colored complete / complete-bipartite graphs, color masks, the
bitset graph layer, and file I/O.

Colors are dense integers 1..m.  Vertices are 0-indexed.  For a bipartite
host the two sides share one global vertex numbering: the left side U is
0..s-1 and the right side V is s..s+t-1.  A SimpleGraph is its adjacency
bitmasks, and every graph helper here works on them.  A host builds its
per-color adjacency masks lazily, in one pass on first use, and every
color-class scan reads them; its twin classes are found from its rows, and
its color-pair relations from its masks, on first use too.  All objects are
immutable after construction: the masks, twin classes and relations are
each assigned once, complete.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, combinations, product, repeat
from operator import mul, or_
from typing import Iterable, Iterator, TextIO, Union

MAX_VERTICES = 10_000


class ColoringFormatError(ValueError):
    """Raised when a coloring file is malformed."""


class CertificationError(RuntimeError):
    """An internal certificate failed: a bug trap, since the underlying
    statements are theorems on every valid input."""


def _certify(validate, *args) -> None:
    """Run an independent validator on an answer the library produced; its
    objection, a ValueError or a returned reason, is the library's fault, so
    it is raised as CertificationError with the same message."""
    try:
        reason = validate(*args)
    except ValueError as exc:
        reason = str(exc)
    if reason is not None:
        raise CertificationError(reason)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _support(adj_bits) -> int:
    """The bitset of the vertices with an edge: rows of a symmetric
    adjacency OR to it."""
    return reduce(or_, adj_bits, 0)


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
        return sum(map(int.bit_count, self.adj_bits)) // 2

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees sorted non-increasing."""
        return tuple(sorted((self.degree(v) for v in range(self.n)), reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (self.adj_bits[u] >> v) & 1 == 1

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
    """Bit set of vertices reachable from ``start`` inside ``active``.  Each
    frontier is walked lowest bit first inline: on the small graphs that
    call this most, an ``iter_bits`` generator per frontier costs more than
    the walk."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj_bits[low.bit_length() - 1]
        frontier = nxt & active & ~seen
        seen |= frontier
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


def _induced_bits(adj_bits, verts) -> tuple[int, ...]:
    """Adjacency bitmasks of the subgraph induced on the ascending vertices
    ``verts``, relabeled onto 0..len(verts)-1 in that order."""
    bit = {1 << v: 1 << i for i, v in enumerate(verts)}
    keep = sum(bit)
    out = []
    for v in verts:
        nbrs, row = adj_bits[v] & keep, 0
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            row |= bit[low]
        out.append(row)
    return tuple(out)


def induced_subgraph(g: SimpleGraph, vertices: Iterable[int]) -> SimpleGraph:
    """Induced subgraph relabeled onto 0..k-1 following sorted vertex order;
    ``g`` itself when that is every vertex, as the map is then the identity."""
    verts = sorted(set(vertices))
    if verts == list(range(g.n)):
        return g
    return SimpleGraph._from_bits(_induced_bits(g.adj_bits, verts))


# The most colors a host may use for the pattern search to build its color
# masks: they hold one n-bit int per color and vertex, against 8 bytes per
# pair for the host's own colors.  At 16 colors they took 0.66-0.93x the host
# on random K_n colorings and 1.06-1.64x on balanced K_{n/2,n/2} ones
# (n = 300-1,000); at 64 colors 3.4x on K_300, and a one-factorization of
# K_300 (299 colors) would need 17x.
SEARCH_MASK_COLORS = 16


def _tri_offsets(n: int) -> list[int]:
    """Per vertex a, the offset with pair a < b at ``offset[a] + b`` in the
    row-major upper triangle of K_n."""
    return [a * (2 * n - a - 3) // 2 - 1 for a in range(n)]


class _ColoredHost:
    """The color range ``m``, the flat tuple of ``want`` edge colors, its
    used colors, per-color masks, twin classes and color-pair relations;
    subclasses check their sizes and define ``_key``, which equality and
    hashing read (never the caches)."""

    __slots__ = ("m", "_colors", "_used", "_masks", "_twins", "_relations")

    def __init__(self, m: int, colors: Iterable[int], want: int):
        if m < 1:
            raise ValueError("m must be at least 1")
        colors = tuple(colors)
        if len(colors) != want:
            raise ValueError(f"expected {want} edge colors, got {len(colors)}")
        if min(colors) < 1 or max(colors) > m:  # want >= 1 on every host
            bad = next(c for c in colors if not (1 <= c <= m))
            raise ValueError(f"color {bad} out of range 1..{m}")
        self.m = m
        self._colors = colors
        self._used = None
        self._masks = None
        self._twins = None
        self._relations = None

    def used_colors(self) -> frozenset[int]:
        """The exact set of colors appearing on at least one edge, built on
        first use and kept."""
        used = self._used
        if used is None:
            used = self._used = frozenset(self._colors)
        return used

    def color_masks(self, *colors: int) -> tuple[int, ...]:
        """Adjacency bitmasks, one per global vertex, of the edges whose
        color is in ``colors`` (which may be none); colors the host does not
        use add nothing, and one used color's masks are returned as kept.

        All colors are built in one edge pass on first use and kept; the
        finished dict is assigned once, complete.
        """
        masks = self._all_masks()
        found = [masks[c] for c in colors if c in masks]
        if not found:
            return (0,) * self.vertex_count
        bits = found[0]
        for more in found[1:]:
            bits = tuple(map(or_, bits, more))
        return bits

    def search_masks(self) -> dict[int, tuple[int, ...]] | None:
        """Every used color's ``color_masks``, or None, building none, when
        the host uses more than SEARCH_MASK_COLORS colors (counted only when
        it declares more)."""
        if self.m > SEARCH_MASK_COLORS and len(self.used_colors()) > SEARCH_MASK_COLORS:
            return None
        return self._all_masks()

    def _all_masks(self) -> dict[int, tuple[int, ...]]:
        masks = self._masks
        if masks is None:
            nv = self.vertex_count
            bit = [1 << v for v in range(nv)]
            rows = {col: [0] * nv for col in self.used_colors()}
            for (u, v), col in zip(self._pairs(), self._colors):
                row = rows[col]
                row[u] |= bit[v]
                row[v] |= bit[u]
            masks = {col: tuple(row) for col, row in rows.items()}
            self._masks = masks
        return masks

    def twin_prev(self) -> tuple[int, ...] | None:
        """The twin classes, as the previous member of each vertex's class
        (-1 for the least), or None when every class is a single vertex.

        u and v are twins when every other vertex w has
        ``pair_color(u, w) == pair_color(v, w)``, so swapping them is a
        color-preserving automorphism.  One pass over the rows keeps two
        numbers per vertex and nothing per color, so the classes take O(n)
        memory beyond the host however many colors it uses, and build no
        color masks.  Computed once from the colors, never from generator
        metadata, and assigned once.
        """
        if self._twins is None:
            self._twins = self._twin_classes()
        return self._twins or None

    def _color_pairs(self) -> dict[int, tuple[int, int, int]] | None:
        """For each used color a, the bit sets (bit b for color b) of the
        used colors b != a that have an edge meeting some a-edge, and of
        those that have an edge disjoint from some a-edge, then the bit of
        a's previous twin under these relations (0 for none); None, building
        nothing, when the host has no ``search_masks``.  Built once, and
        assigned once."""
        if self._relations is None:
            masks = self.search_masks()
            self._relations = () if masks is None else _color_relations(masks)
        return self._relations or None

    def _twin_classes(self) -> tuple[int, ...]:
        # Twins see one multiset of colors, and their rows agree outside the
        # pair.  Per vertex keep a hash of that multiset (``seen``, a key
        # twins share) and a sum of its row weighted by position (``weight``),
        # so that taking out the pair's own entries tests a pair in O(1).
        nv = self.vertex_count
        pos = [hash((w, -1)) for w in range(nv)]
        seen = []
        weight = []
        for v in range(nv):
            row = self._row(v)
            weight.append(sum(map(mul, pos, row)))
            row.sort()
            seen.append(hash(tuple(row)))

        # The least vertex p of a group takes its twins out; the others are
        # split by the color they see p in, which twins share, so no group
        # is compared pair by pair.
        groups: dict[int, list[int]] = {}
        for v in range(nv):
            groups.setdefault(seen[v], []).append(v)
        todo = [group for group in groups.values() if len(group) > 1]
        prev = [-1] * nv
        while todo:
            p, *rest = todo.pop()
            row = self._row(p)
            last = p
            parts: dict[int, list[int]] = {}
            for v in rest:
                c = row[v]
                if weight[p] - pos[v] * c == weight[v] - pos[p] * c:
                    row[p], row[v] = c, 0  # v's row has the pair's entries swapped
                    twin = row == self._row(v)
                    row[p], row[v] = 0, c
                    if twin:
                        prev[v] = last
                        last = v
                        continue
                parts.setdefault(c, []).append(v)
            todo.extend(part for part in parts.values() if len(part) > 1)
        return tuple(prev) if max(prev) >= 0 else ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _color_relations(masks: dict[int, tuple[int, ...]]) -> dict[int, tuple[int, int, int]]:
    """``_color_pairs`` from a host's ``search_masks``, with O(n m^2) bitset
    operations and no pass over the edges.  Colors a and b meet when some
    vertex has edges of both.  An a-edge uv is no b-edge, so it misses
    |E_b| - deg_b(u) - deg_b(v) of them: a and b lie apart when some
    a-neighbor v of some u has deg_b(v) < |E_b| - deg_b(u).  Two colors are
    twins when both relations agree on them outside the pair, so swapping
    them keeps the relations; twins form classes, like twin vertices."""
    meets = dict.fromkeys(masks, 0)
    apart = dict.fromkeys(masks, 0)
    touched = {c: _support(rows) for c, rows in masks.items()}
    for a, b in combinations(masks, 2):
        if touched[a] & touched[b]:
            meets[a] |= 1 << b
            meets[b] |= 1 << a
    for b, rows in masks.items():
        degree = [row.bit_count() for row in rows]
        size = sum(degree) // 2
        below = [0] * (max(degree) + 2)  # below[d]: the vertices of b-degree < d
        for v, d in enumerate(degree):
            below[d + 1] |= 1 << v
        for d in range(1, len(below)):
            below[d] |= below[d - 1]
        todo = [a for a in masks if a != b and not apart[b] >> a & 1]
        for u, d in enumerate(degree):
            if not todo:
                break
            far = below[min(size - d, len(below) - 1)] if d < size else 0
            for a in [a for a in todo if masks[a][u] & far]:
                todo.remove(a)
                apart[a] |= 1 << b
                apart[b] |= 1 << a
    out: dict[int, tuple[int, int, int]] = {}
    for c in sorted(masks):
        twin = 0
        for a in reversed(list(out)):  # the nearest earlier twin
            differ = (meets[a] ^ meets[c]) | (apart[a] ^ apart[c])
            if not differ & ~(1 << a | 1 << c):
                twin = 1 << a
                break
        out[c] = (meets[c], apart[c], twin)
    return out


class ColoredComplete(_ColoredHost):
    """An edge-coloring of K_n by colors 1..m, stored as a flat triangular
    array: pair a < b sits at ``_offsets[a] + b``."""

    __slots__ = ("n", "_offsets")

    def __init__(self, n: int, m: int, colors: Iterable[int]):
        if not (2 <= n <= MAX_VERTICES):
            raise ValueError(f"n must be in 2..{MAX_VERTICES}, got {n}")
        self.n = n
        super().__init__(m, colors, n * (n - 1) // 2)
        self._offsets = _tri_offsets(n)

    @classmethod
    def from_function(cls, n: int, m: int, fn) -> "ColoredComplete":
        """Build from ``fn(u, v) -> color`` called on every pair u < v."""
        return cls(n, m, (fn(u, v) for u, v in combinations(range(n), 2)))

    @property
    def vertex_count(self) -> int:
        return self.n

    def color(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if u < 0 or v >= self.n:
            raise ValueError(f"vertex out of range 0..{self.n - 1}")
        if u == v:
            raise ValueError("no loop edges")
        return self._colors[self._offsets[u] + v]

    def pair_color(self, u: int, v: int) -> int | None:
        """Color of the edge uv, or None when uv is not an edge (u == v)."""
        if u > v:
            u, v = v, u
        if u < 0 or v >= self.n:
            raise ValueError(f"vertex out of range 0..{self.n - 1}")
        if u == v:
            return None
        return self._colors[self._offsets[u] + v]

    def _row(self, v: int) -> list:
        """The color of vw for every vertex w (0 for w = v), read by slices."""
        colors, off = self._colors, self._offsets
        row = [colors[o + v] for o in off[:v]]
        row.append(0)
        row += colors[off[v] + v + 1:off[v] + self.n]
        return row

    def _pairs(self) -> Iterator[tuple[int, int]]:
        # combinations() walks the pairs in the row-major order of _colors
        return combinations(range(self.n), 2)

    def _key(self) -> tuple:
        return (self.n, self.m, self._colors)

    def __repr__(self) -> str:
        return f"ColoredComplete(n={self.n}, m={self.m})"


def _random_complete(rng, n: int, m: int) -> ColoredComplete:
    """A coloring of K_n drawn from the ``random.Random`` ``rng``, one color
    per pair in the order of the flat array, as ``randint(1, m)`` draws it:
    ``getrandbits(m.bit_length())``, drawn again while it is at least m, plus
    1.  The colors and the state left in ``rng`` are the same."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    draw, k = rng.getrandbits, m.bit_length()
    colors = []
    for _ in range(n * (n - 1) // 2):
        r = draw(k)
        while r >= m:
            r = draw(k)
        colors.append(r + 1)
    return ColoredComplete(n, m, colors)


def _require_complete(host) -> None:
    """Refuse a host that is not a coloring of K_n, for the statements that
    are theorems about K_n only."""
    if not isinstance(host, ColoredComplete):
        raise ValueError(f"needs a coloring of K_n, got {type(host).__name__}")


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
        if a < 0 or b >= self.s + self.t:
            raise ValueError(f"vertex out of range 0..{self.s + self.t - 1}")
        if a < self.s <= b:
            return self._colors[a * self.t + (b - self.s)]
        return None

    def _row(self, a: int) -> list:
        """The color of aw for every global vertex w (0 on a's own side),
        read by slices."""
        s, t, colors = self.s, self.t, self._colors
        if a < s:
            return [0] * s + list(colors[a * t:(a + 1) * t])
        return list(colors[a - s::t]) + [0] * t

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """The global (u, v) of every edge, in the order of ``_colors``."""
        return product(range(self.s), range(self.s, self.s + self.t))

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


def restrict(host: Host, mask: Iterable[int]) -> SimpleGraph:
    """The spanning subgraph keeping exactly the edges whose color is in ``mask``.

    The result lives on all of the host's (global) vertices; vertices whose
    incident colors all fall outside the mask become isolated.
    """
    return SimpleGraph._from_bits(host.color_masks(*normalize_mask(host, mask)))


# ---------------------------------------------------------------------------
# File format: a header "<kind> <sizes> <m>", then the host's flat color
# array in rows.  '#' begins a comment line; blank lines are ignored.
#
#   complete:   "Kn <n> <m>" then n-1 rows; row i (1-based) lists
#               c(i-1, j) for j = i..n-1.
#   bipartite:  "Kst <s> <t> <m>" then s rows of t colors (row u, column v).
# ---------------------------------------------------------------------------

# kind -> host class, its size attributes in header order, and the count and
# widths of its data rows from those sizes
_KINDS = {
    "Kn": (ColoredComplete, ("n",), lambda n: (n - 1, range(n - 1, 0, -1))),
    "Kst": (ColoredBipartite, ("s", "t"), lambda s, t: (s, repeat(t, s))),
}


def _ints(tokens: list[str], what: str) -> list[int]:
    """The tokens as integers; the first that is not one is refused by name."""
    try:
        return list(map(int, tokens))
    except ValueError:
        for token in tokens:
            try:
                int(token)
            except ValueError:
                raise ColoringFormatError(f"bad {what} token {token!r}") from None
        raise


def _row_colors(rows: list[str], widths: Iterable[int]) -> Iterator[list[int]]:
    """Each data row's integers, once the row's width is checked."""
    for i, (row, want) in enumerate(zip(rows, widths), start=1):
        tokens = row.split()
        if len(tokens) != want:
            raise ColoringFormatError(f"row {i}: expected {want} entries, got {len(tokens)}")
        yield _ints(tokens, "color")


def read_coloring(stream: TextIO) -> Host:
    """Parse a coloring file into a ColoredComplete or ColoredBipartite.

    Checked in this order, each failure a ColoringFormatError: the header's
    kind, field count and integers; the number of data rows, counted, never
    listed, unless some size is not positive; then, in the host's
    constructor, its sizes, m >= 1, each row's width and integers as the
    host takes the row, and the colors' range 1..m."""
    lines = [line for line in map(str.strip, stream) if line and line[0] != "#"]
    if not lines:
        raise ColoringFormatError("empty input")
    header, body = lines[0].split(), lines[1:]
    if header[0] not in _KINDS:
        raise ColoringFormatError(f"unknown header kind {header[0]!r}")
    cls, names, layout = _KINDS[header[0]]
    if len(header) != len(names) + 2:
        raise ColoringFormatError(f"malformed header: {' '.join(header)}")
    *sizes, m = _ints(header[1:], "header")
    try:
        count, widths = layout(*sizes)
        if min(sizes) > 0 and len(body) != count:
            raise ColoringFormatError(f"expected {count} data rows, got {len(body)}")
        return cls(*sizes, m, chain.from_iterable(_row_colors(body, widths)))
    except ValueError as exc:
        if isinstance(exc, ColoringFormatError):
            raise
        raise ColoringFormatError(str(exc)) from None


def write_coloring(host: Host, stream: TextIO) -> None:
    """Serialize a host in the canonical file format (read/write round-trips):
    its header, then its flat color array cut at the rows' widths."""
    for kind, (cls, names, layout) in _KINDS.items():
        if isinstance(host, cls):
            break
    else:
        raise TypeError(f"not a colored host: {host!r}")
    sizes = [getattr(host, name) for name in names]
    stream.write(" ".join(map(str, (kind, *sizes, host.m))) + "\n")
    colors, start = host._colors, 0
    for width in layout(*sizes)[1]:
        stream.write(" ".join(map(str, colors[start:start + width])) + "\n")
        start += width


def load_coloring(path) -> Host:
    with open(path, "r", encoding="utf-8") as f:
        return read_coloring(f)


def dump_coloring(host: Host, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        write_coloring(host, f)
