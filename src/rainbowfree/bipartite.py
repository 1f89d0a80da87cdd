"""Structure of rainbow-K_{1,3}-free colorings of complete bipartite hosts.

With at most four colors nothing more can be said (case A); with five or
more, one partition of each side into non-empty blocks exists such that
block pair (U_i, V_i) uses colors {1, i} and every other edge has the
background color 1, after renumbering.  The classifier recovers such a
structure, validates it independently, and stores the renumbering map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import ColoredBipartite, restrict
from .connectivity import CertificationError, _find_cut_below_k
from .constructions import Generated, _intervals, _split_sizes


class RainbowStarPresent(ValueError):
    """The host is not rainbow-K_{1,3}-free."""


@dataclass(frozen=True)
class BipartiteStructure:
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


def _require_star_free(host: ColoredBipartite):
    """Raise RainbowStarPresent at the first vertex seeing three colors; the
    witness adds the least neighbor of each of the first three colors met,
    ascending, which is find_rainbow's first rainbow K_{1,3}."""
    rows = [host.color_masks(c) for c in host.used_colors()]
    for v in range(host.vertex_count):
        firsts = sorted((row[v] & -row[v]).bit_length() - 1 for row in rows if row[v])
        if len(firsts) >= 3:
            raise RainbowStarPresent(f"rainbow K_{{1,3}} at {(v, *firsts[:3])}")


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


def classify_k13_free(host: ColoredBipartite) -> BipartiteStructure:
    """Classify a rainbow-K_{1,3}-free host into case A (<= 4 colors) or a
    certified case-B block structure (>= 5 colors).  Any host with a rainbow
    K_{1,3} raises RainbowStarPresent, whatever its color count.

    Recovery sweeps every candidate background color b: in a genuine case-B
    coloring each vertex sees at most one non-background color, which names
    its block, so the sweep is complete and the validator guards the result.
    """
    if min(host.s, host.t) < 3:
        raise ValueError("both sides must have at least 3 vertices")
    _require_star_free(host)
    used = host.used_colors()
    if len(used) <= 4:
        return BipartiteStructure("A", used)
    counts = host.color_counts()
    candidates = sorted(used, key=lambda c: (-counts[c], c))
    for b in candidates:
        structure = _recover_blocks(host, b, used)
        if structure is not None:
            return structure
    raise CertificationError(
        "no background color certifies; contradicts the structure theorem"
    )


def _recover_blocks(host, b: int, used) -> BipartiteStructure | None:
    block_colors = sorted(used - {b})
    rows = [(c, host.color_masks(c)) for c in block_colors]
    # each global vertex's one non-background color, else the default block
    default = block_colors[0]
    block_of = []
    for x in range(host.vertex_count):
        seen = [c for c, row in rows if row[x]]
        if len(seen) > 1:
            return None
        block_of.append(seen[0] if seen else default)
    u_parts = {c: tuple(u for u in range(host.s) if block_of[u] == c) for c in block_colors}
    v_block = block_of[host.s:]
    v_parts = {c: tuple(v for v in range(host.t) if v_block[v] == c) for c in block_colors}
    if validate_type_b(host, b, u_parts, v_parts) is not None:
        return None
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
    """A random case-B host: blocks (U_i, V_i) for i = 2..m, each block edge
    colored i or background 1 (probability background_prob), everything else
    background.  After the random fill, every block vertex is guaranteed at
    least one edge of its own color, so classification recovers the planted
    partition exactly; that repair also keeps all m colors in use.
    """
    if m < 5:
        raise ValueError("m must be at least 5")
    blocks = m - 1
    u_sizes = list(u_sizes) if u_sizes is not None else _split_sizes(s, blocks)
    v_sizes = list(v_sizes) if v_sizes is not None else _split_sizes(t, blocks)
    if len(u_sizes) != blocks or len(v_sizes) != blocks:
        raise ValueError(f"need {blocks} part sizes per side")
    if any(x < 1 for x in u_sizes + v_sizes):
        raise ValueError("part sizes must be positive")
    if sum(u_sizes) != s or sum(v_sizes) != t:
        raise ValueError("part sizes must sum to the side sizes")
    rng = random.Random(seed)

    ub, vb = _intervals(u_sizes), _intervals(v_sizes)
    u_block = [i + 2 for i, (lo, hi) in enumerate(ub) for _ in range(hi - lo)]
    v_block = [i + 2 for i, (lo, hi) in enumerate(vb) for _ in range(hi - lo)]
    grid = [[1] * t for _ in range(s)]
    for u in range(s):
        for v in range(t):
            if u_block[u] == v_block[v] and rng.random() >= background_prob:
                grid[u][v] = u_block[u]
    # repair: every block vertex keeps at least one edge of its block color
    for i, (ulo, uhi) in enumerate(ub):
        vlo, vhi = vb[i]
        c = i + 2
        for u in range(ulo, uhi):
            if all(grid[u][v] != c for v in range(vlo, vhi)):
                grid[u][vlo] = c
        for v in range(vlo, vhi):
            if all(grid[u][v] != c for u in range(ulo, uhi)):
                grid[ulo][v] = c
    host = ColoredBipartite(s, t, m, [grid[u][v] for u in range(s) for v in range(t)])
    parts = {}
    for i, (lo, hi) in enumerate(ub):
        parts[f"U{i + 2}"] = tuple(range(lo, hi))
    for i, (lo, hi) in enumerate(vb):
        parts[f"V{i + 2}"] = tuple(range(lo, hi))
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


@dataclass(frozen=True)
class SpanningWitness:
    ok: bool
    k: int
    color: int
    order: int
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "k": self.k,
            "color": self.color,
            "order": self.order,
            "reason": self.reason,
        }


def verify_background_spanning_kconn(host: ColoredBipartite, k: int) -> SpanningWitness:
    """Certify that the background color spans a k-connected subgraph.

    Hypotheses: rainbow-K_{1,3}-free, at least k + 4 colors used, and
    min(s, t) >= m - 1.  Existence is a theorem under these hypotheses;
    a failed check comes back as a falsification report.
    """
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
    full = (1 << g.n) - 1
    if _find_cut_below_k(g.adj_bits, full, k) is None:
        return SpanningWitness(True, k, b, g.n)
    return SpanningWitness(
        False, k, b, g.n, "background subgraph is not spanning k-connected"
    )
