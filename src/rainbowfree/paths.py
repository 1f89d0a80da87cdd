"""Longest monochromatic paths and cycles, and the per-color path-quota
check.

Exact searches run on the non-isolated vertices of one color class, one
level per path order (Bellman; Held and Karp, 1962).  A level maps each
vertex set that some path covers to the bitset of that set's path
endpoints.  Both the path and the cycle search take the lookup tables of
``_level_tables`` once, at their start (none above ``_TABLE_ORDER`` = 22
vertices), grow their levels with the one cap loop ``_levels``, and
rebuild the witness from them with ``_least_path``.  A set grows by every
allowed vertex outside it next to one of its endpoints; with tables that
is two lookups per set in place of two bit loops, with the same bits in
the same ascending order, so each level keeps its keys, values and
insertion order.  The levels count (vertex set, endpoint) pairs against
``_STATE_CAP``; a search the cap stops is flagged inexact, at the same
level with or without tables.  On supports of at most ``_PATH_UNCAPPED``
vertices (paths) or ``_CYCLE_UNCAPPED`` (cycles) the cap cannot bind, and
there one lexicographic depth-first search, ``_first_path``, answers
first: it stops at the first path whose order meets an upper bound, which
is the level search's witness.  Only when it finds none do the levels run
(on the 2-core, for a cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Host,
    SimpleGraph,
    _require_complete,
    ceil_div,
    components,
    induced_subgraph,
    iter_bits,
    restrict,
)
from .connectivity import CertificationError, _peel_to_kcore

# Supports of at most EXACT_LIMIT vertices always get exact answers, for
# paths and cycles alike; the two bounds below are the largest orders where
# the state count makes that certain
EXACT_LIMIT = 14
# The cap counts (vertex set, endpoint) pairs, each endpoint bit of a level
# entry once
_STATE_CAP = 400_000
# A path search on q vertices makes at most q * 2^(q-1) pairs, and a cycle
# search at most (q-1) * 2^(q-2) + 1 per anchor.  Up to these orders (15 and
# 16) the cap cannot bind, so the searches are exact
_PATH_UNCAPPED = max(q for q in range(1, 64) if q << (q - 1) <= _STATE_CAP)
_CYCLE_UNCAPPED = max(q for q in range(2, 64) if ((q - 1) << (q - 2)) + 1 <= _STATE_CAP)
# The largest class whose level search gets lookup tables (two of at most
# 2^11 entries); above it the tables would outgrow the few levels the cap
# lets such a search build
_TABLE_ORDER = 22


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
    """Independent check: distinct host vertices, consecutive pairs edges of
    the color."""
    verts = witness.vertices
    if len(set(verts)) != len(verts):
        raise ValueError("repeated vertex in path")
    if not all(0 <= v < host.vertex_count for v in verts):
        raise ValueError("path vertex out of range")
    for a, b in zip(verts, verts[1:]):
        c = host.pair_color(a, b)
        if c is None or (witness.color is not None and c != witness.color):
            raise ValueError(f"pair ({a},{b}) is not an edge of color {witness.color}")


def validate_cycle(host: Host, witness: CycleWitness) -> None:
    """Independent check: at least two distinct vertices, consecutive pairs
    and the closing pair edges of the color (two vertices: one lone edge)."""
    verts = witness.vertices
    if len(verts) < 2:
        raise ValueError("a cycle witness needs at least 2 vertices")
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


def _level_tables(adj):
    """(h, lo, hi, lo_bits, hi_bits): lookup tables over the low h =
    ceil(q/2) vertices of a class and over the high q - h, or None when the
    class has more than ``_TABLE_ORDER`` vertices.

    ``lo[s]`` is the OR of ``adj`` over the vertices of an h-bit subset s,
    and ``lo_bits[s]`` its bits as an ascending tuple of bit values;
    ``hi[s]`` and ``hi_bits[s]`` are the same for the subset ``s << h`` of
    the high vertices, with the bits already shifted.  Each table doubles
    per vertex: the subsets holding vertex i follow those below it, and i
    is their largest bit, so it goes last in each tuple.
    """
    q = len(adj)
    if q > _TABLE_ORDER:
        return None
    h = (q + 1) // 2

    def half(first, last):
        ors, bits = [0], [()]
        for v in range(first, last):
            a, b = adj[v], (1 << v,)
            ors += [x | a for x in ors]
            bits += [t + b for t in bits]
        return ors, bits

    lo, lo_bits = half(0, h)
    hi, hi_bits = half(h, q)
    return h, lo, hi, lo_bits, hi_bits


def _next_level(adj, level: dict, allowed: int, tables) -> dict:
    """The level after ``level``, a map from each vertex set reached to the
    bitset of its endpoints: the paths through exactly that set end there.

    A vertex v in ``allowed`` outside ``mask`` extends some path of ``mask``
    when it is adjacent to one of its endpoints, and then v ends a path
    through ``mask | v``.  That pair is reached only from ``mask``, so every
    (set, endpoint) pair is made once.  ``tables`` is what
    ``_level_tables(adj)`` returned.  When it is None the neighbours of the
    endpoints are ORed one endpoint at a time, and the new endpoints are
    taken lowest bit first.  With tables the OR is two lookups, one per
    half of the endpoint bitset, and the new endpoints are the low half's
    tuple followed by the high half's: the same bits in the same ascending
    order.  So both ways make the same level, with the same keys, values
    and insertion order.

    The witness is the lexicographically least path of the last level
    reached, which is the path a breadth-first search over (set, endpoint)
    pairs reports first: listed in order of discovery, such a level is
    sorted by the least path reaching each pair, by induction on the level.
    The levels stop at the same order under the cap, because the pairs are
    the cap's unit, and ``_least_path`` rebuilds that least path from them,
    so the witness does not depend on the order of any level.
    """
    nxt: dict = {}
    get = nxt.get
    if tables is None:
        for mask, ends in level.items():
            reach = 0
            while ends:
                low = ends & -ends
                ends ^= low
                reach |= adj[low.bit_length() - 1]
            reach &= allowed & ~mask
            while reach:
                low = reach & -reach
                reach ^= low
                grown = mask | low
                nxt[grown] = get(grown, 0) | low
        return nxt
    h, lo, hi, lo_bits, hi_bits = tables
    half = (1 << h) - 1
    for mask, ends in level.items():
        reach = (lo[ends & half] | hi[ends >> h]) & allowed & ~mask
        for low in lo_bits[reach & half]:
            grown = mask | low
            nxt[grown] = get(grown, 0) | low
        for low in hi_bits[reach >> h]:
            grown = mask | low
            nxt[grown] = get(grown, 0) | low
    return nxt


def _pairs(level: dict) -> int:
    """The (set, endpoint) pairs of a level, the unit of the state cap."""
    return sum(map(int.bit_count, level.values()))


def _levels(adj, first: dict, allowed: int, tables, limit: int | None = None):
    """(levels, exact): the levels grown from ``first`` by ``_next_level``
    until one is empty, ``limit`` levels exist, or the (set, endpoint) pairs
    pass ``_STATE_CAP``.  exact=False means the cap stopped them, and then
    the last level is the one that passed it.
    """
    levels = [first]
    states = _pairs(first)
    while limit is None or len(levels) < limit:
        if states > _STATE_CAP:
            return levels, False
        nxt = _next_level(adj, levels[-1], allowed, tables)
        if not nxt:
            break
        levels.append(nxt)
        states += _pairs(nxt)
    return levels, True


def _least_path(adj, levels, path: list[int], order: int) -> list[int]:
    """Extend ``path`` to the lexicographically least path of ``order``
    vertices through a set of ``levels[order - 1]``.

    ``levels[i]`` maps the sets of i + 1 vertices to their path endpoints;
    every set contains the vertices ``path`` holds at the call (none for a
    path search, the anchor for a cycle search).  ``sets`` holds the
    remainders: top-level sets less the vertices placed since.  A path
    through a remainder, read backwards from one of its endpoints, completes
    the prefix (for a cycle it ends next to the anchor, where its
    anchor-rooted path started).  So the next vertex is the least remainder
    endpoint next to the last vertex placed, and the remainders that end
    there drop it.  What is left of such a remainder has an endpoint next to
    the vertex just placed, so every step has a choice.
    """
    i = order - 1
    sets = list(levels[i])
    while len(path) < order:
        level = levels[i]
        ends = 0
        for mask in sets:
            ends |= level[mask]
        if path:
            ends &= adj[path[-1]]
        low = ends & -ends
        path.append(low.bit_length() - 1)
        sets = [mask ^ low for mask in sets if level[mask] & low]
        i -= 1
    return path


def _longest_path_bits(adj, target: int | None):
    """(best path as vertex list, exact) for adjacency bitmasks over 0..q-1.

    Builds the levels of paths of 1, 2, ... vertices from every start and
    stops early once a path of order ``target`` appears.  exact=False means
    the state cap cut the search short of exhausting the space.  The path
    returned is the lexicographically least of the last level reached.
    """
    first = {1 << v: 1 << v for v in range(len(adj))}
    levels, exact = _levels(adj, first, -1, _level_tables(adj), target)
    return _least_path(adj, levels, [], len(levels)), exact


def _first_path(adj, starts: int, order: int, close: int) -> list[int] | None:
    """The lexicographically least path of ``order`` >= 2 vertices that
    starts in ``starts`` and ends in ``close``, or None if there is none.

    A depth-first search tries starts and then neighbours in ascending
    order, so the first such path it completes is the least one.  Whether a
    (vertex set, endpoint) state extends to one does not depend on the order
    the set was covered in, so a state whose extensions all failed is dead
    and is never expanded again.  The dead states are kept as the levels
    are, one endpoint bitset per vertex set.  The search keeps its own
    stack, so a path may be as long as the class.
    """
    dead: dict[int, int] = {}
    get = dead.get
    for v in iter_bits(starts):
        path = [v]
        mask, nbrs, left = 1 << v, adj[v] & ~(1 << v), order - 1
        below = []  # (vertex set, untried neighbours) of each state under the top
        while True:
            if left == 1:
                nbrs &= close
                if nbrs:
                    path.append((nbrs & -nbrs).bit_length() - 1)
                    return path
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                grown = mask | low
                if not get(grown, 0) & low:
                    below.append((mask, nbrs))
                    v = low.bit_length() - 1
                    path.append(v)
                    mask, nbrs, left = grown, adj[v] & ~grown, left - 1
                    break
            else:
                # every way on from this state failed
                if not below:
                    break
                dead[mask] = get(mask, 0) | 1 << path.pop()
                mask, nbrs = below.pop()
                left += 1
    return None


def _longest_path(adj, target: int | None):
    """``_longest_path_bits(adj, target)``, answered by ``_first_path``
    where the cap cannot bind and on a complete class, where the first path
    is 0, 1, ... with no backtracking.

    No path is longer than the largest component, so a path of that order,
    or of ``target`` if smaller, is as long as the last level the level
    search would build, and the least such path is that search's witness.
    It lies in a component at least that large.  Only if there is none do
    the levels run.
    """
    q = len(adj)
    if q > _PATH_UNCAPPED and not _complete(adj):
        return _longest_path_bits(adj, target)
    comps = components(adj, (1 << q) - 1)
    order = max(map(int.bit_count, comps))
    if target is not None:
        order = min(order, target)
    if order >= 2:
        starts = 0
        for comp in comps:
            if comp.bit_count() >= order:
                starts |= comp
        path = _first_path(adj, starts, order, -1)
        if path is not None:
            return path, True
    return _longest_path_bits(adj, target)


def _color_class(host: Host, color: int):
    """(support, adjacency bitmasks of the class relabeled onto
    0..len(support)-1)."""
    if not (1 <= color <= host.m):
        raise ValueError(f"color {color} outside declared range 1..{host.m}")
    g = restrict(host, {color})
    support = g.support()
    if not support:
        raise ValueError(f"color {color} is unused")
    return support, induced_subgraph(g, support).adj_bits


def longest_mono_path(host: Host, color: int) -> PathWitness:
    """A longest path within one color class; exact whenever the search space
    was exhausted, which is certain for supports of at most ``_PATH_UNCAPPED``
    vertices."""
    support, adj = _color_class(host, color)
    path, exact = _longest_path(adj, None)
    witness = PathWitness(color, tuple(support[i] for i in path), exact)
    validate_path(host, witness)
    return witness


def _mono_path_of_order(host: Host, color: int, order: int):
    """(witness or None, conclusive).  None+True means provably absent."""
    support, adj = _color_class(host, color)
    path, exact = _longest_path(adj, order)
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
    of 2 is met by any edge of that color.  Existence is a theorem about K_n
    whenever the precondition holds, so a False report is a falsification;
    other hosts are refused.
    """
    _require_complete(host)
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


def _longest_cycle_bits(adj):
    """Longest cycle (vertex list, length >= 3) for adjacency bitmasks.

    Anchors each search at the least cycle vertex and grows paths from it
    through larger-indexed vertices only; a level whose paths can end next
    to the anchor closes a cycle of its size.  Each anchor has its own state
    cap, and a level over the cap is not read.  The witness is the
    lexicographically least anchor-rooted path of the largest closing size,
    from the first anchor that reaches it.
    """
    q = len(adj)
    best: list[int] = []
    exact = True
    tables = _level_tables(adj)
    for anchor in range(q):
        if q - anchor < 3 or q - anchor <= len(best):
            break
        allowed = ~((1 << (anchor + 1)) - 1)
        levels, done = _levels(adj, {1 << anchor: 1 << anchor}, allowed, tables)
        if not done:
            exact = False
            levels.pop()
        for size in range(len(levels), max(2, len(best)), -1):
            if any(ends & adj[anchor] for ends in levels[size - 1].values()):
                best = _least_path(adj, levels, [anchor], size)
                break
    return best, exact


def _two_core(adj) -> int:
    """The bitset of the 2-core, the vertices of the graph's cycles and of
    the paths between them."""
    return _peel_to_kcore(adj, (1 << len(adj)) - 1, 2)


def _longest_cycle(adj):
    """``_longest_cycle_bits(adj)``, answered by ``_first_path`` where the
    cap cannot bind and on a complete class, where the first cycle is 0, 1,
    ... with no backtracking.

    Every cycle lies in the 2-core.  A Hamilton cycle of the core is a
    longest cycle, and the least one written from the core's least vertex is
    the level search's witness.  Only if the core has none do the levels
    run, on the core relabeled in order, which keeps their witness.
    """
    if len(adj) > _CYCLE_UNCAPPED and not _complete(adj):
        return _longest_cycle_bits(adj)
    verts = list(iter_bits(_two_core(adj)))
    if not verts:
        return [], True
    core = adj
    if len(verts) < len(adj):
        core = induced_subgraph(SimpleGraph._from_bits(adj), verts).adj_bits
    cycle = _first_path(core, 1, len(core), core[0])
    if cycle is None:
        cycle = _longest_cycle_bits(core)[0]
    return [verts[i] for i in cycle], True


def _cycle_witness(host: Host, color: int, support, adj) -> CycleWitness:
    cycle, exact = _longest_cycle(adj)
    if cycle:
        witness = CycleWitness(color, tuple(support[i] for i in cycle), exact)
    else:
        v = support[0]
        w = support[(adj[0] & -adj[0]).bit_length() - 1]
        witness = CycleWitness(color, (v, w), exact)
    validate_cycle(host, witness)
    return witness


def longest_mono_cycle(host: Host, color: int) -> CycleWitness:
    """Longest cycle in one color class; a lone edge counts as a degenerate
    cycle of length 2 (an unused color is rejected, so length 1 never occurs)."""
    return _cycle_witness(host, color, *_color_class(host, color))


def kano_li_floor(host: Host):
    """Best monochromatic cycle over all used colors of a coloring of K_n,
    asserted to have length at least ceil(n/m) whenever that floor is itself
    at least 3 (below that the degenerate-cycle convention would dominate,
    so nothing is enforced).  Other hosts are refused: the floor is a
    theorem about K_n.

    A color whose 2-core is no larger than the best cycle so far is not
    searched: it holds no longer cycle, and ties keep the first color.
    """
    _require_complete(host)
    best: CycleWitness | None = None
    for c in sorted(host.used_colors()):
        support, adj = _color_class(host, c)
        if best is not None and _two_core(adj).bit_count() <= best.length:
            continue
        w = _cycle_witness(host, c, support, adj)
        if best is None or w.length > best.length:
            best = w
    bound = ceil_div(host.vertex_count, host.m)
    if bound >= 3 and best.length < bound:
        raise CertificationError(
            f"longest monochromatic cycle {best.length} below floor {bound}"
        )
    return best.color, best
