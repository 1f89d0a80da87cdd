"""Longest monochromatic paths and cycles, and the per-color path-quota
check.

A search takes one color class as the host's own adjacency masks, in host
labels, and runs on the vertices with an edge (for a cycle, the 2-core),
over (vertex set, endpoint) states: some path through exactly that set
ends there (Bellman; Held and Karp, 1962).  One lexicographic depth-first
search, ``_first_path``, expands each state once, keeps the longest path it
meets and stops at an upper bound on the order, so a search that finishes
is exact and its answer is the level search's witness.

On classes of up to ``_LATTICE_ORDER`` = 20 vertices a level search backs
it up, one level per path order.  A level is one int per endpoint over the
subset lattice, bit S set when S is such a set; ``_next_lattice`` grows it
by whole-int ORs, ANDs and shifts, ``_levels`` keeps a binomial bound on
the (set, endpoint) pairs and counts them against ``_STATE_CAP`` only once
the bound passes it, and ``_lattice_path`` reads back the lexicographically
least path of the last level.  The lattice is indexed by vertex, so
``_on_lattice`` relabels the set a level search runs on onto 0..q-1 and
maps its path back, the one relabel of a class.

``_route`` chooses between the two, for paths and cycles alike.  Where the
cap cannot bind on the search, it runs: on up to 20 vertices under a push
budget worth about one lattice search, after which the levels answer, and
above that unbounded.  Elsewhere the levels answer on classes of up to 20
vertices, and above that the search answers alone, allowed as many pushes
as the cap allows states; one that runs out returns the longest path or
cycle it met, flagged inexact.
"""

from __future__ import annotations

from functools import partial
from math import comb
from typing import NamedTuple

from .core import CertificationError, Host, _certify, _induced_bits, _require_complete
from .core import _support, ceil_div, components, iter_bits
from .connectivity import _peel_to_kcore

# The cap counts (vertex set, endpoint) pairs, each endpoint bit of a level
# entry once, over the levels of a search (of an anchor, for a cycle); the
# levels read the count only where a bound on it passes the cap
_STATE_CAP = 400_000
# A path search on q vertices makes at most q * 2^(q-1) pairs, and a cycle
# search at most (q-1) * 2^(q-2) + 1 per anchor.  Up to these orders (15 and
# 16) the cap cannot bind, so the searches are exact
_PATH_UNCAPPED = max(q for q in range(1, 64) if q << (q - 1) <= _STATE_CAP)
_CYCLE_UNCAPPED = max(q for q in range(2, 64) if ((q - 1) << (q - 2)) + 1 <= _STATE_CAP)
# The largest class with a level search: a level there is one int of up to
# 2^q bits per endpoint, 2.5 MB in all at q = 20, and a search holds about
# four such (10.5 MB measured); at q = 21 each would double.  Above it only
# the depth-first search runs
_LATTICE_ORDER = 20
# A depth-first search whose fallback is a lattice search over the k-bit
# sets (k = q for a path, q - 1 for a cycle's anchor) gives up after
# _PUSH_BUDGET[k] pushes.  Measured (2 vCPUs, CPython 3.11.7): a push costs
# 0.8-2 us, failed tries, dead ends and backtracking included, and a lattice
# search 0.07-0.13 us * 2^k on half-dense classes, so the budget is worth
# about one lattice search there.  Sparse classes have cheaper lattices
# (about 0.02 us * 2^k at q = 16): over 400 random G(q, p) classes of 10-20
# vertices, p = 0.1-0.5, a search that gave up cost at most 3.3 times the
# level search (1.46 against 0.44 ms, a sparse 14-vertex path class) and
# 2.5 times for cycles
_PUSH_BUDGET = [32 + (1 << k >> 4) for k in range(_LATTICE_ORDER + 1)]


class PathWitness(NamedTuple):
    color: int
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


class CycleWitness(NamedTuple):
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


def _validate_walk(host: Host, witness, kind: str) -> None:
    """Distinct host vertices, consecutive pairs edges of the color, and
    for a cycle of 3 or more vertices its closing pair too."""
    verts = witness.vertices
    if len(set(verts)) != len(verts):
        raise ValueError(f"repeated vertex in {kind}")
    if verts and (min(verts) < 0 or max(verts) >= host.vertex_count):
        raise ValueError(f"{kind} vertex out of range")
    if kind == "cycle" and len(verts) >= 3:
        verts = (*verts, verts[0])
    color, pair_color = witness.color, host.pair_color
    for a, b in zip(verts, verts[1:]):
        if pair_color(a, b) != color:
            raise ValueError(f"pair ({a},{b}) is not an edge of color {color}")


def validate_path(host: Host, witness: PathWitness) -> None:
    """Independent check: distinct host vertices, consecutive pairs edges of
    the color."""
    _validate_walk(host, witness, "path")


def validate_cycle(host: Host, witness: CycleWitness) -> None:
    """Independent check: at least two distinct vertices, consecutive pairs
    and the closing pair edges of the color (two vertices: one lone edge)."""
    if len(witness.vertices) < 2:
        raise ValueError("a cycle witness needs at least 2 vertices")
    _validate_walk(host, witness, "cycle")


def _complete(adj) -> bool:
    """Whether the vertices with an edge are pairwise adjacent."""
    support = _support(adj)
    return all(a == support ^ 1 << v for v, a in enumerate(adj) if a)


def _missing(k: int) -> list[int]:
    """Per vertex j < k, the indicator of the sets of the k-vertex subset
    lattice that miss j: bit S is set when S has no bit j.  Its bits run in
    blocks of 2^j, set and clear in turn, so each doubling copies them."""
    out = []
    for j in range(k):
        sets, width = (1 << (1 << j)) - 1, 2 << j
        while width < 1 << k:
            sets |= sets << width
            width <<= 1
        out.append(sets)
    return out


def _next_lattice(adj, lo: int, missing: list[int], level: dict) -> dict:
    """The level after ``level`` over the subset lattice of the vertices
    lo..q-1: the paths one vertex longer.

    A level maps each endpoint v to an int whose bit S is set when some
    path through exactly the vertex set S << lo (with the anchor, for a
    cycle search) ends at v.  A vertex w extends the paths ending next to
    it, the OR of its neighbours' ints, through the sets that miss w, and
    adding w to such a set adds 2^(w - lo) to its index.  So each
    (set, endpoint) pair of the next level is made once.
    """
    ends = 0
    for v in level:
        ends |= 1 << v
    nxt = {}
    for w in range(lo, len(adj)):
        nbrs = adj[w] & ends
        reach = 0
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            reach |= level[low.bit_length() - 1]
        reach &= missing[w - lo]
        if reach:
            nxt[w] = reach << (1 << w - lo)
    return nxt


def _pairs(ints) -> int:
    """The set bits of ``ints``: over a level's ints, or their union over
    the levels, its (set, endpoint) pairs, the unit of the state cap."""
    return sum(map(int.bit_count, ints))


def _levels(
    grow, level: dict, union: list[int], width: int, size: int, limit: int | None = None
):
    """Yield (level, capped) for ``level`` and each level ``grow`` makes from
    the one before, until one is empty or fills the lattice, its sets hold
    ``limit`` vertices, or the (set, endpoint) pairs pass ``_STATE_CAP``.
    capped=True marks the level that passed the cap short of ``limit``, the
    last one: the cap stopped the search there.  ``union[v]`` ORs the ints
    of v in every level yielded, the capped one included.

    The sets of ``level`` hold ``size`` of the ``width`` lattice vertices,
    and each later level's one more; after a level of ``width``-vertex sets
    the next is empty, so it is not grown.  The pairs are counted only where
    they could pass the cap.  The first level has ``len(level)``, one set
    per endpoint, and a later one at most ``len(level) * comb(width - 1,
    size - 1)``, the sets of its size through each endpoint.  While this
    running bound is at most the cap, so is the count.  Once it passes, the
    count is read exactly from ``union``: the levels hold sets of distinct
    sizes, so its bits are their pairs, and the bound goes on from that
    count.  So at every level the count is either read or known to be at
    most the cap, and the level that is capped is the first whose count
    passes the cap, as when every level is counted.
    """
    states = len(level)
    while True:
        for v, sets in level.items():
            union[v] |= sets
        done = limit is not None and size >= limit
        if states > _STATE_CAP and not done:
            states = _pairs(union)
        capped = states > _STATE_CAP and not done
        yield level, capped
        if done or capped or size == width:
            return
        level = grow(level)
        if not level:
            return
        size += 1
        states += len(level) * comb(width - 1, size - 1)


def _lattice_path(
    adj, union: list[int], sets: int, path: list[int], order: int, lo: int
) -> list[int]:
    """Extend ``path`` to the lexicographically least path of ``order``
    vertices through a set of the lattice indicator ``sets``.

    Every set holds the vertices ``path`` holds at the call (none for a path
    search, the anchor for a cycle search, which the lattice leaves out).
    ``sets`` holds the remainders: those sets less the vertices placed
    since.  A path through a remainder, read backwards from one of its
    endpoints, completes the prefix (for a cycle it ends next to the
    anchor, where its anchor-rooted path started).  ``union[v]`` ORs the
    ints of v in every level; the levels hold sets of distinct sizes, and
    the remainders all have one size, so ``sets & union[v]`` are the
    remainders with a path ending at v in their own level.  The next vertex
    is the least such v next to the last vertex placed, and removing it
    from those remainders shifts them down by 2^(v - lo).  What is left of
    such a remainder has an endpoint next to v, so every step has a choice.
    """
    while len(path) < order:
        for v in iter_bits(adj[path[-1]] if path else (1 << len(adj)) - 1):
            hit = sets & union[v]
            if hit:
                break
        path.append(v)
        sets = hit >> (1 << v - lo)
    return path


def _longest_path_bits(adj, target: int | None):
    """(best path as vertex list, exact) for adjacency bitmasks over 0..q-1.

    Builds the lattice levels of paths of 1, 2, ... vertices from every
    start and stops early once a path of order ``target`` appears.
    exact=False means the state cap cut the search short of exhausting the
    space.  The path returned is the lexicographically least of the last
    level reached.
    """
    q = len(adj)
    union = [0] * q
    order = 0
    grow = partial(_next_lattice, adj, 0, _missing(q))
    for level, capped in _levels(grow, {v: 1 << (1 << v) for v in range(q)}, union, q, 1, target):
        order += 1
    top = 0
    for sets in level.values():
        top |= sets
    return _lattice_path(adj, union, top, [], order, 0), not capped


def _first_path(adj, comps, bound: int, cycle: bool, budget: int) -> tuple[list[int], bool]:
    """(path, finished) over the components ``comps`` (bitsets), where no
    path or cycle has more than ``bound`` vertices.  A finished search
    returns the level search's witness: for a path the lexicographically
    least longest path, for a cycle the least longest path of at least 3
    vertices that starts at a vertex, its anchor, runs through larger
    vertices of the anchor's component, and ends next to the anchor (or
    none).  A search that gives up at its ``budget``-th push (0: no budget)
    returns the best such path it met, unfinished.

    A depth-first search from each start tries neighbours in ascending
    order, so the paths from one start come in lexicographic order, and it
    keeps the first longest one it meets.  It stops at a path of ``bound``
    vertices.  Whether a (vertex set, endpoint) state extends to a longer
    path does not depend on the order its set was covered in, and a prefix
    that reaches the state later is larger, so a state already searched is
    never expanded again.  A state cannot recur while the search is under
    it, as the sets grow down the stack, so it is marked when the search
    leaves it; the marks map each vertex set to a bitset of its marked
    endpoints.  A vertex with no way on is a dead end: its one path is
    read without a push.  At the last level a cycle search tries only the
    vertices that close it.  The search keeps its own stack, so a path may
    be as long as the class.

    The starts that can reach ``bound`` go first, in ascending order: every
    vertex of a component that large, for a path, and its least vertex, for
    a cycle.  So a search that meets the bound makes the pushes of a search
    over those starts alone.  The other starts follow in ascending order,
    so the best path is replaced by a longer one or by one as long from a
    smaller start, and a start is skipped when it cannot be either.
    """
    first = rest = 0
    for comp in comps:
        if comp.bit_count() < bound:
            rest |= comp
        elif cycle:
            low = comp & -comp
            first |= low
            rest |= comp ^ low
        else:
            first |= comp
    best: list[int] = []
    marked: dict[int, int] = {}
    get = marked.get
    pushes = 0
    for group in (first, rest):
        while group:
            start = group & -group
            group ^= start
            v = start.bit_length() - 1
            for walk in comps:
                if walk & start:
                    break
            if cycle:
                walk &= -start
            need = max(3 if cycle else 1, len(best) + (not best or best[0] < v))
            if walk.bit_count() < need:
                continue
            path = [v]
            if need == 1:  # a path search's first start: a lone vertex is a path
                best, need = [v], 2
                if bound == 1:
                    return best, True
            around = adj[v] if cycle else -1
            mask, nbrs, left = start, adj[v] & walk, bound - 1
            below = []  # (vertex set, untried neighbours) of each state under the top
            while True:
                if left == 1:
                    nbrs &= around
                    if nbrs:
                        path.append((nbrs & -nbrs).bit_length() - 1)
                        return path, True
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
                    grown = mask | low
                    if get(grown, 0) & low:
                        continue
                    w = low.bit_length() - 1
                    ahead = adj[w] & walk & ~grown
                    if not ahead:
                        # a dead end: its one path stops at w, read without a push
                        if len(path) >= need - 1 and around & low:
                            best = path + [w]
                            need = len(best) + 1
                        continue
                    pushes += 1
                    if pushes == budget:
                        return best, False
                    below.append((mask, nbrs))
                    path.append(w)
                    if len(path) >= need and around & low:
                        best, need = path[:], len(path) + 1
                    mask, nbrs, left = grown, ahead, left - 1
                    break
                else:
                    # every way on from this state was searched
                    if not below:
                        break
                    marked[mask] = get(mask, 0) | 1 << path.pop()
                    mask, nbrs = below.pop()
                    left += 1
    return best, True


def _route(adj, kept: int, target: int | None, cycle: bool):
    """(path, exact) by ``_first_path`` over the components of ``kept``,
    the vertices a search can use, or None where the lattice levels answer.
    ``adj`` is the class in host labels, and the class's order the number
    of its vertices with an edge.  No answer is longer than the largest
    component, or than ``target``, so the search stops at one of that
    order, as the levels do.

    A search is free when the cap cannot bind on it: a path search when
    its components' c * 2^(c-1) (set, endpoint) pairs sum to at most
    ``_STATE_CAP``, which needs each to have at most ``_PATH_UNCAPPED``
    vertices and holds unread on at most that many (c * 2^(c-1) is
    superadditive); a cycle search when every component has at most
    ``_CYCLE_UNCAPPED``, as an anchor's states stay in its component; and
    either on a complete class, where the first path takes its vertices in
    ascending order with no backtracking.

    A free search runs.  On q vertices in ``kept`` with q at most
    ``_LATTICE_ORDER`` it gives up after ``_PUSH_BUDGET[q - cycle]``
    pushes, about one lattice search, and the levels, exact there, answer;
    above that it is unbounded.  Where the search is not free the levels
    answer on classes of at most ``_LATTICE_ORDER`` vertices, run on
    ``kept`` relabeled (a cycle's 2-core: an anchor's core states are among
    its states on the class, so an exact answer keeps its witness).  Above
    that the search answers, allowed ``_STATE_CAP`` pushes: each enters a
    distinct (set, endpoint) pair that the levels count too (for a cycle,
    all anchors' together), so it finishes wherever they would be exact,
    and one that runs out returns its longest path or cycle, inexact.
    """
    comps = components(adj, kept)
    q = kept.bit_count()
    largest = max(map(int.bit_count, comps))
    order = largest if target is None else min(largest, target)
    if cycle:
        free = largest <= _CYCLE_UNCAPPED
    else:
        free = q <= _PATH_UNCAPPED or (
            largest <= _PATH_UNCAPPED
            and sum(c << c - 1 for c in map(int.bit_count, comps)) <= _STATE_CAP
        )
    if free or _complete(adj):
        budget = _PUSH_BUDGET[q - cycle] if q <= _LATTICE_ORDER else 0
        path, finished = _first_path(adj, comps, order, cycle, budget)
        if finished:
            return path, True
    elif len(adj) - adj.count(0) > _LATTICE_ORDER:
        return _first_path(adj, comps, order, cycle, _STATE_CAP + 1)
    return None


def _on_lattice(adj, kept: int, levels):
    """(path, exact) by the level search ``levels`` on the vertices of
    ``kept`` relabeled in order onto 0..q-1, the path mapped back; the
    relabel keeps the lexicographic order of paths, so their witness."""
    verts = list(iter_bits(kept))
    path, exact = levels(_induced_bits(adj, verts))
    return [verts[i] for i in path], exact


def _longest_path(adj, target: int | None):
    """(path, exact): the lexicographically least longest path, or with
    ``target`` the least path of that order where there is one.  It runs on
    the vertices with an edge (vertex 0 when none has one), where every
    path of two or more vertices lies."""
    kept = _support(adj) or 1
    return _route(adj, kept, target, False) or _on_lattice(
        adj, kept, partial(_longest_path_bits, target=target)
    )


def _class_masks(host: Host, color: int) -> tuple[int, ...]:
    """The host's adjacency bitmasks of one color, refusing a color outside
    1..m or unused."""
    if not (1 <= color <= host.m):
        raise ValueError(f"color {color} outside declared range 1..{host.m}")
    masks = host.color_masks(color)
    if not any(masks):
        raise ValueError(f"color {color} is unused")
    return masks


def longest_mono_path(host: Host, color: int) -> PathWitness:
    """A longest path within one color class; exact whenever the search space
    was exhausted, which is certain for supports of at most ``_PATH_UNCAPPED``
    vertices."""
    path, exact = _longest_path(_class_masks(host, color), None)
    witness = PathWitness(color, tuple(path), exact)
    _certify(validate_path, host, witness)
    return witness


def _mono_path_of_order(host: Host, color: int, order: int):
    """(witness or None, conclusive).  None+True means provably absent."""
    path, exact = _longest_path(_class_masks(host, color), order)
    if len(path) >= order:
        witness = PathWitness(color, tuple(path), True)
        _certify(validate_path, host, witness)
        return witness, True
    return None, exact


class QuotaWitness(NamedTuple):
    ok: bool
    color: int | None
    witness: PathWitness | None
    reason: str | None = None

    def to_json(self) -> dict:
        return {**self._asdict(), "witness": self.witness.to_json() if self.witness else None}


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


def _longest_cycle_bits(adj):
    """Longest cycle (vertex list, length >= 3) for adjacency bitmasks.

    Anchors each search at the least cycle vertex and grows paths from it
    through larger-indexed vertices only; a level whose paths can end next
    to the anchor closes a cycle of its size.  Each anchor has its own state
    cap, and a level over the cap is not read.  The witness is the
    lexicographically least anchor-rooted path of the largest closing size,
    from the first anchor that reaches it.  An anchor's lattice sets are
    indexed without it and the vertices below it, so all anchors share one
    ``_missing`` build.  The union of an anchor's levels holds the capped
    level too; its sets are larger than any remainder the witness is read
    from, so the readback never meets them.
    """
    q = len(adj)
    best: list[int] = []
    exact = True
    missing = _missing(q - 1)
    for anchor in range(q):
        if q - anchor < 3 or q - anchor <= len(best):
            break
        lo, around = anchor + 1, adj[anchor]
        union = [0] * q
        closing = None
        size = 0
        grow = partial(_next_lattice, adj, lo, missing)
        for level, capped in _levels(grow, {anchor: 1}, union, q - lo, 0):
            if capped:
                exact = False
                break
            size += 1
            sets = 0  # the sets whose paths close a cycle
            for v, vsets in level.items():
                if around >> v & 1:
                    sets |= vsets
            if sets and size > max(2, len(best)):
                closing = size, sets
        if closing:
            best = _lattice_path(adj, union, closing[1], [anchor], closing[0], lo)
    return best, exact


def _two_core(adj) -> int:
    """The bitset of the 2-core, the vertices of the graph's cycles and of
    the paths between them."""
    return _peel_to_kcore(adj, (1 << len(adj)) - 1, 2)


def _longest_cycle(adj, kept=None):
    """(longest cycle, exact): the least anchor-rooted cycle of the largest
    length, from the least anchor that reaches it.  Every cycle lies in one
    component of the 2-core, so the search and the levels run there; a
    caller that has the core already passes it as ``kept``."""
    if kept is None:
        kept = _two_core(adj)
    if not kept:
        return [], True
    return _route(adj, kept, None, True) or _on_lattice(adj, kept, _longest_cycle_bits)


def _cycle_witness(host: Host, color: int, adj, kept=None) -> CycleWitness:
    """The longest cycle of the class ``adj``, or with none its least edge;
    ``kept`` is the class's 2-core where the caller has peeled it."""
    cycle, exact = _longest_cycle(adj, kept)
    if not cycle:
        v = next(v for v, a in enumerate(adj) if a)
        cycle = v, (adj[v] & -adj[v]).bit_length() - 1
    witness = CycleWitness(color, tuple(cycle), exact)
    _certify(validate_cycle, host, witness)
    return witness


def longest_mono_cycle(host: Host, color: int) -> CycleWitness:
    """Longest cycle in one color class; a lone edge counts as a degenerate
    cycle of length 2 (an unused color is rejected, so length 1 never occurs)."""
    return _cycle_witness(host, color, _class_masks(host, color))


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
        adj = host.color_masks(c)
        kept = _two_core(adj)
        if best is not None and kept.bit_count() <= best.length:
            continue
        w = _cycle_witness(host, c, adj, kept)
        if best is None or w.length > best.length:
            best = w
    bound = ceil_div(host.vertex_count, host.m)
    if bound >= 3 and best.length < bound:
        raise CertificationError(
            f"longest monochromatic cycle {best.length} below floor {bound}"
        )
    return best.color, best
