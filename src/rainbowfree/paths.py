"""Longest monochromatic paths and cycles, the per-color path-quota check,
and the classical density bound for long paths.

Exact searches run a BFS over (visited set, endpoint) states on the
non-isolated vertices of one color class.  Both the path and the cycle
search build each level with the one level expansion ``_expand``, the only
place search states are created, and read witnesses back with
``_walk_back``.  Within EXACT_LIMIT support vertices the state space fits
under the cap and results are exact; beyond that the search may stop at the
cap and the witness is flagged inexact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Host, SimpleGraph, ceil_div, induced_subgraph, restrict
from .connectivity import CertificationError

EXACT_LIMIT = 14
# 2^EXACT_LIMIT * EXACT_LIMIT < _STATE_CAP, so searches on supports within
# the limit always exhaust their state space and stay exact
_STATE_CAP = 400_000


@dataclass(frozen=True)
class PathWitness:
    color: int | None  # None for witnesses in an uncolored graph
    vertices: tuple[int, ...]
    exact: bool

    @property
    def order(self) -> int:
        return len(self.vertices)

    def to_json(self) -> dict:
        return {
            "color": self.color,
            "order": self.order,
            "vertices": list(self.vertices),
            "exact": self.exact,
        }


@dataclass(frozen=True)
class CycleWitness:
    color: int
    vertices: tuple[int, ...]
    exact: bool

    @property
    def length(self) -> int:
        return len(self.vertices)

    def to_json(self) -> dict:
        return {
            "color": self.color,
            "length": self.length,
            "vertices": list(self.vertices),
            "exact": self.exact,
        }


def validate_path(host: Host, witness: PathWitness) -> None:
    """Independent check: distinct vertices, consecutive pairs edges of the color."""
    verts = witness.vertices
    if len(set(verts)) != len(verts):
        raise ValueError("repeated vertex in path")
    for a, b in zip(verts, verts[1:]):
        c = host.pair_color(a, b)
        if c is None or (witness.color is not None and c != witness.color):
            raise ValueError(f"pair ({a},{b}) is not an edge of color {witness.color}")


def validate_cycle(host: Host, witness: CycleWitness) -> None:
    verts = witness.vertices
    if len(set(verts)) != len(verts):
        raise ValueError("repeated vertex in cycle")
    if len(verts) >= 3:
        ring = list(verts) + [verts[0]]
    else:
        ring = list(verts)  # degenerate: a single edge
    for a, b in zip(ring, ring[1:]):
        if host.pair_color(a, b) != witness.color:
            raise ValueError(f"pair ({a},{b}) is not an edge of color {witness.color}")


def _complete(adj) -> bool:
    full = (1 << len(adj)) - 1
    return all(a == full ^ (1 << v) for v, a in enumerate(adj))


def _expand(adj, frontier, parents, allowed: int, vbits: int) -> list[int]:
    """The next BFS level: every state not yet in ``parents`` that extends a
    frontier state by an edge to an unvisited vertex in ``allowed``.  A state
    packs the visited mask above an endpoint field ``vbits`` wide."""
    vmask = (1 << vbits) - 1
    nxt = []
    for state in frontier:
        mask, last = state >> vbits, state & vmask
        outs = adj[last] & ~mask & allowed
        while outs:
            low = outs & -outs
            outs ^= low
            ns = ((mask | low) << vbits) | (low.bit_length() - 1)
            if ns not in parents:
                parents[ns] = state
                nxt.append(ns)
    return nxt


def _walk_back(parents, state: int, vbits: int) -> list[int]:
    """The path ending in ``state``, read from its start along ``parents``."""
    vmask = (1 << vbits) - 1
    path = []
    while state != -1:
        path.append(state & vmask)
        state = parents[state]
    path.reverse()
    return path


def _longest_path_bits(adj, target: int | None):
    """(best path as vertex list, exact) for adjacency bitmasks over 0..q-1.

    BFS over (mask, endpoint) states with parent pointers; stops early once
    a path of order ``target`` appears.  exact=False means the state cap cut
    the search short of exhausting the space.  The longest path found is
    the first state of the last level reached.
    """
    q = len(adj)
    if _complete(adj):
        # complete class (or none): any vertex order is a Hamilton path
        return list(range(q if target is None else min(q, target))), True
    vbits = (q - 1).bit_length()
    frontier = [((1 << v) << vbits) | v for v in range(q)]
    parents = dict.fromkeys(frontier, -1)
    order = 1
    exact = True
    while target is None or order < target:
        if len(parents) > _STATE_CAP:
            exact = False
            break
        nxt = _expand(adj, frontier, parents, -1, vbits)
        if not nxt:
            break
        frontier = nxt
        order += 1
    return _walk_back(parents, frontier[0], vbits), exact


def _compact(g: SimpleGraph):
    """(support, adjacency bitmasks of g relabeled onto 0..len(support)-1)."""
    support = g.support()
    return support, induced_subgraph(g, support).adj_bits


def _color_class(host: Host, color: int):
    if not (1 <= color <= host.m):
        raise ValueError(f"color {color} outside declared range 1..{host.m}")
    support, adj = _compact(restrict(host, {color}))
    if not support:
        raise ValueError(f"color {color} is unused")
    return support, adj


def longest_mono_path(host: Host, color: int) -> PathWitness:
    """A longest path within one color class; exact whenever the search space
    was exhausted (guaranteed for supports of at most EXACT_LIMIT vertices)."""
    support, adj = _color_class(host, color)
    path, exact = _longest_path_bits(adj, None)
    witness = PathWitness(color, tuple(support[i] for i in path), exact)
    validate_path(host, witness)
    return witness


def _mono_path_of_order(host: Host, color: int, order: int):
    """(witness or None, conclusive).  None+True means provably absent."""
    support, adj = _color_class(host, color)
    path, exact = _longest_path_bits(adj, order)
    if len(path) >= order:
        witness = PathWitness(color, tuple(support[i] for i in path[:order]), True)
        validate_path(host, witness)
        return witness, True
    return None, exact


@dataclass(frozen=True)
class QuotaWitness:
    ok: bool
    color: int | None
    witness: PathWitness | None
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "color": self.color,
            "witness": self.witness.to_json() if self.witness else None,
            "reason": self.reason,
        }


def check_mono_path_quota(host: Host, quotas) -> QuotaWitness:
    """Given per-color path quotas a_1..a_m with sum <= n + 2m - 2, find some
    color i holding a monochromatic path of order >= a_i.

    Quotas of 0 or 1 are vacuously met (empty / single-vertex path); a quota
    of 2 is met by any edge of that color.  Existence is a theorem whenever
    the precondition holds, so a False report is a falsification.
    """
    quotas = list(quotas)
    m = host.m
    if len(quotas) != m:
        raise ValueError(f"expected {m} quotas, got {len(quotas)}")
    if any(a < 0 for a in quotas):
        raise ValueError("quotas must be non-negative")
    n = host.vertex_count
    if sum(quotas) > n + 2 * m - 2:
        raise ValueError(f"quota sum {sum(quotas)} exceeds n + 2m - 2 = {n + 2 * m - 2}")
    used = host.used_colors()
    order = sorted(range(m), key=lambda i: (quotas[i], i))
    inconclusive = False
    for i in order:
        a = quotas[i]
        color = i + 1
        if a == 0:
            return QuotaWitness(True, color, PathWitness(color, (), True))
        if a == 1:
            return QuotaWitness(True, color, PathWitness(color, (0,), True))
        if color not in used:
            continue
        found, conclusive = _mono_path_of_order(host, color, a)
        if found is not None:
            return QuotaWitness(True, color, found)
        if not conclusive:
            inconclusive = True
    if inconclusive:
        raise CertificationError("quota search hit the state cap before deciding")
    return QuotaWitness(False, None, None, "no color met its quota")


def color_degree_averages(host: Host) -> list[Fraction]:
    """Average color-degree per declared color, as exact fractions.

    On a complete host these sum to exactly n - 1.
    """
    counts = host.color_counts()
    n = host.vertex_count
    return [Fraction(2 * counts.get(c, 0), n) for c in range(1, host.m + 1)]


def check_eg_path_bound(g: SimpleGraph, k: int) -> PathWitness:
    """A path of order k + 1 in a graph with more than (k-1)n/2 edges.

    Classical density bound; k >= 2 and the strict edge-count inequality are
    preconditions, and non-existence would be a theorem breach.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if 2 * g.edge_count <= (k - 1) * g.n:
        raise ValueError(
            f"need |E| > (k-1)n/2 = {(k - 1) * g.n / 2}, got {g.edge_count}"
        )
    support, adj = _compact(g)
    path, exact = _longest_path_bits(adj, k + 1)
    if len(path) < k + 1:
        if exact:
            raise CertificationError("density bound violated: no such path found")
        raise CertificationError("path search exceeded the state cap")
    verts = tuple(support[i] for i in path[: k + 1])
    return PathWitness(None, verts, True)


def _longest_cycle_bits(adj, target: int | None):
    """Longest cycle (vertex list, length >= 3) for adjacency bitmasks.

    Anchors each search at the least cycle vertex and extends paths through
    larger-indexed vertices only, closing back to the anchor.  The first
    state of a level that closes a longer cycle gives the witness.
    """
    q = len(adj)
    if q >= 3 and _complete(adj):
        return list(range(q)), True  # complete class: Hamilton cycle
    best: list[int] = []
    exact = True
    vbits = (q - 1).bit_length()
    vmask = (1 << vbits) - 1
    for anchor in range(q):
        if target is not None and len(best) >= target:
            break
        if q - anchor < 3 or q - anchor <= len(best):
            break
        allowed = ~((1 << (anchor + 1)) - 1)
        start = ((1 << anchor) << vbits) | anchor
        parents = {start: -1}
        frontier = [start]
        size = 1
        while frontier:
            if len(parents) > _STATE_CAP:
                exact = False
                break
            if size >= 3 and size > len(best):
                for state in frontier:
                    if (adj[state & vmask] >> anchor) & 1:
                        best = _walk_back(parents, state, vbits)
                        break
            frontier = _expand(adj, frontier, parents, allowed, vbits)
            size += 1
    return best, exact


def longest_mono_cycle(host: Host, color: int) -> CycleWitness:
    """Longest cycle in one color class; a lone edge counts as a degenerate
    cycle of length 2 (an unused color is rejected, so length 1 never occurs)."""
    support, adj = _color_class(host, color)
    cycle, exact = _longest_cycle_bits(adj, None)
    if cycle:
        witness = CycleWitness(color, tuple(support[i] for i in cycle), exact)
    else:
        v = support[0]
        w = support[(adj[0] & -adj[0]).bit_length() - 1]
        witness = CycleWitness(color, (v, w), exact)
    validate_cycle(host, witness)
    return witness


def kano_li_floor(host: Host):
    """Best monochromatic cycle over all used colors, asserted to have length
    at least ceil(n/m) whenever that floor is itself at least 3 (below that
    the degenerate-cycle convention would dominate, so nothing is enforced).
    """
    best: CycleWitness | None = None
    for c in sorted(host.used_colors()):
        w = longest_mono_cycle(host, c)
        if best is None or w.length > best.length:
            best = w
    bound = ceil_div(host.vertex_count, host.m)
    if bound >= 3 and best.length < bound:
        raise CertificationError(
            f"longest monochromatic cycle {best.length} below floor {bound}"
        )
    return best.color, best
