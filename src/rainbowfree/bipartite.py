"""Structure of rainbow-K_{1,3}-free colorings of complete bipartite hosts.

With at most four colors nothing more can be said (case A); with five or
more, one partition of each side into non-empty blocks exists such that
block pair (U_i, V_i) uses colors {1, i} and every other edge has the
background color 1, after renumbering.  The classifier recovers such a
structure, validates it independently, and stores the renumbering map.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .core import MAX_VERTICES, CertificationError, ColoredBipartite, _certify, _support
from .core import iter_bits, restrict
from .connectivity import is_k_connected
from .constructions import Generated, _blocks, _split_sizes


class RainbowStarPresent(ValueError):
    """The host is not rainbow-K_{1,3}-free."""


class BipartiteStructure(NamedTuple):
    case: str  # "A" or "B"
    colors_used: frozenset[int]
    background: int | None = None  # original color id (case B)
    renumbering: dict | None = None  # original color -> renumbered color
    u_parts: dict | None = None  # renumbered color (2..m) -> tuple of U indices
    v_parts: dict | None = None

    def to_json(self) -> dict:
        out = {"case": self.case, "colors_used": sorted(self.colors_used)}
        if self.case == "B":
            out["background"] = self.background
            out["renumbering"] = {str(k): v for k, v in sorted(self.renumbering.items())}
            out["u_parts"] = {str(k): list(v) for k, v in sorted(self.u_parts.items())}
            out["v_parts"] = {str(k): list(v) for k, v in sorted(self.v_parts.items())}
        return out


def _require_bipartite(host) -> None:
    if not isinstance(host, ColoredBipartite):
        raise ValueError(f"needs a coloring of K_{{s,t}}, got {type(host).__name__}")


def validate_type_b(host: ColoredBipartite, background: int, u_parts, v_parts) -> str | None:
    """Independent check of the case-B laws (original color ids); None = valid."""
    u_of = {}
    for c, part in u_parts.items():
        if not part:
            return f"empty U part for color {c}"
        for u in part:
            if u in u_of:
                return "U parts overlap"
            u_of[u] = c
    v_of = {}
    for c, part in v_parts.items():
        if not part:
            return f"empty V part for color {c}"
        for v in part:
            if v in v_of:
                return "V parts overlap"
            v_of[v] = c
    if set(u_of) != set(range(host.s)) or set(v_of) != set(range(host.t)):
        return "parts do not cover a side"
    if set(u_parts) != set(v_parts):
        return "U and V block colors differ"
    for u in range(host.s):
        for v in range(host.t):
            c = host.color(u, v)
            if u_of[u] == v_of[v]:
                if c not in (background, u_of[u]):
                    return f"block ({u_of[u]}) edge ({u},{v}) colored {c}"
            elif c != background:
                return f"cross-block edge ({u},{v}) colored {c}"
    return None


def _least(bits: int) -> int:
    """The index of the lowest set bit of a non-zero bitset."""
    return (bits & -bits).bit_length() - 1


def classify_k13_free(host: ColoredBipartite) -> BipartiteStructure:
    """Classify a rainbow-K_{1,3}-free host into case A (<= 4 colors) or a
    certified case-B block structure (>= 5 colors).  Any host with a rainbow
    K_{1,3} raises RainbowStarPresent, whatever its color count.

    Each color's support is the OR of its masks, the vertices with an edge
    of that color.  A counter sliced into three bitsets (seen once, twice,
    three times or more) adds the supports up, so the vertices that see
    three colors come out as one bitset.  The least of them is a rainbow
    star, whose witness adds the least neighbor of each of its first three
    colors by least neighbor, ascending: find_rainbow's first rainbow
    K_{1,3}.  In case B every vertex has an edge to another block, so the
    background is the one color whose support is every vertex (a block
    color is seen only inside its block), and each block is its color's
    support, split by side; a vertex that sees no block color joins the
    first block color's.  The validator certifies the result once, and its
    reason for a refusal is the CertificationError's message.
    """
    _require_bipartite(host)
    if min(host.s, host.t) < 3:
        raise ValueError("both sides must have at least 3 vertices")
    used = host.used_colors()
    masks = {c: host.color_masks(c) for c in used}
    supports = {c: _support(rows) for c, rows in masks.items()}
    ones = twos = threes = 0
    for seen in supports.values():
        threes |= twos & seen
        twos |= ones & seen
        ones |= seen
    if threes:
        v = _least(threes)
        firsts = sorted(_least(rows[v]) for rows in masks.values() if rows[v])
        raise RainbowStarPresent(f"rainbow K_{{1,3}} at {(v, *firsts[:3])}")
    if len(used) <= 4:
        return BipartiteStructure("A", used)
    full = (1 << host.vertex_count) - 1
    everywhere = [c for c in used if supports[c] == full]
    everywhere.sort(key=lambda c: _least(masks[c][0]))  # vertex 0's order
    if len(everywhere) != 1:
        raise CertificationError(f"no single background: every vertex sees colors {everywhere}")
    b = everywhere[0]
    block_colors = sorted(used - {b})
    blocks = {c: supports[c] for c in block_colors}
    blocks[block_colors[0]] |= full ^ twos  # the vertices that see b alone
    side = (1 << host.s) - 1
    u_parts = {c: tuple(iter_bits(bits & side)) for c, bits in blocks.items()}
    v_parts = {c: tuple(iter_bits(bits >> host.s)) for c, bits in blocks.items()}
    _certify(validate_type_b, host, b, u_parts, v_parts)
    renumbering = {b: 1}
    for i, c in enumerate(block_colors):
        renumbering[c] = i + 2
    return BipartiteStructure(
        "B",
        used,
        background=b,
        renumbering=renumbering,
        u_parts={renumbering[c]: p for c, p in u_parts.items()},
        v_parts={renumbering[c]: p for c, p in v_parts.items()},
    )


def gen_type_b(
    s: int,
    t: int,
    m: int,
    u_sizes=None,
    v_sizes=None,
    seed: int = 0,
    background_prob: float = 0.5,
) -> Generated:
    """A random case-B host: each side is cut into consecutive blocks U_i,
    V_i for i = 2..m of the given part sizes (near-even by default).  Each
    edge of a block pair (U_i, V_i) is colored i or background 1 (probability
    background_prob), everything else background.  After the random fill,
    every block vertex is guaranteed at least one edge of its own color, so
    classification recovers the planted partition exactly; that repair also
    keeps all m colors in use.
    """
    if m < 5:
        raise ValueError("m must be at least 5")
    blocks = m - 1
    sides = [
        (s, None if u_sizes is None else list(u_sizes)),
        (t, None if v_sizes is None else list(v_sizes)),
    ]
    given = [sizes for _, sizes in sides if sizes is not None]
    if any(len(sizes) != blocks for sizes in given):
        raise ValueError(f"need {blocks} part sizes per side")
    # decided before any default split is built: a near-even split of fewer
    # vertices than blocks has empty parts, and otherwise sums to its side
    if any(x < 1 for sizes in given for x in sizes) or any(
        sizes is None and blocks > side for side, sizes in sides
    ):
        raise ValueError("part sizes must be positive")
    if any(sizes is not None and sum(sizes) != side for side, sizes in sides):
        raise ValueError("part sizes must sum to the side sizes")
    if s + t > MAX_VERTICES:  # the host's own check comes after the s x t grid
        raise ValueError("host too large")
    u_sizes, v_sizes = (
        _split_sizes(side, blocks) if sizes is None else sizes for side, sizes in sides
    )
    rng = random.Random(seed)

    u_block, u_parts = _blocks(u_sizes)
    v_block, v_parts = _blocks(v_sizes)
    grid = [[1] * t for _ in range(s)]
    for u in range(s):
        for v in range(t):
            if u_block[u] == v_block[v] and rng.random() >= background_prob:
                grid[u][v] = u_block[u] + 2
    # repair: every block vertex keeps at least one edge of its block color
    for c, us, vs in zip(range(2, m + 1), u_parts, v_parts):
        for u in us:
            if all(grid[u][v] != c for v in vs):
                grid[u][vs[0]] = c
        for v in vs:
            if all(grid[u][v] != c for u in us):
                grid[us[0]][v] = c
    host = ColoredBipartite(s, t, m, [grid[u][v] for u in range(s) for v in range(t)])
    parts = {f"U{i + 2}": part for i, part in enumerate(u_parts)}
    parts.update({f"V{i + 2}": part for i, part in enumerate(v_parts)})
    return Generated(
        host,
        parts,
        {
            "id": "type-b",
            "s": s,
            "t": t,
            "m": m,
            "seed": seed,
            "background": 1,
            "background_prob": background_prob,
        },
    )


class SpanningWitness(NamedTuple):
    ok: bool
    k: int
    color: int
    order: int
    reason: str | None = None

    def to_json(self) -> dict:
        return self._asdict()


def verify_background_spanning_kconn(host: ColoredBipartite, k: int) -> SpanningWitness:
    """Certify that the background color spans a k-connected subgraph.

    Hypotheses: rainbow-K_{1,3}-free, at least k + 4 colors used, and
    min(s, t) >= m - 1.  Existence is a theorem under these hypotheses;
    a failed check comes back as a falsification report.
    """
    _require_bipartite(host)
    if k < 1:
        raise ValueError("k must be at least 1")
    used = host.used_colors()
    m = len(used)
    if m < k + 4:
        raise ValueError(f"needs at least k + 4 = {k + 4} colors, host uses {m}")
    if min(host.s, host.t) < m - 1:
        raise ValueError("min(s, t) must be at least m - 1")
    structure = classify_k13_free(host)  # raises on a rainbow star
    b = structure.background
    g = restrict(host, {b})
    if is_k_connected(g, k):
        return SpanningWitness(True, k, b, g.n)
    return SpanningWitness(
        False, k, b, g.n, "background subgraph is not spanning k-connected"
    )
