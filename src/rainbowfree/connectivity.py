"""Vertex connectivity, largest k-connected subgraphs under a color mask,
dense-subgraph extraction, and the largest-monochromatic-component floor.

Conventions: kappa(K_r) = r - 1, and "k-connected" requires at least k + 1
vertices.  Local connectivity between non-adjacent vertices is a maximum
flow on the vertex-split network with unit vertex capacities (Even 1975),
found by augmenting paths directly on the adjacency bitmasks: no network is
built, the residual is one bitset of vertices on a path plus each such
vertex's path predecessor and successor.  Every maximum flow leaves the
same residual-reachable set, so the minimum cut read from it does not
depend on which augmenting paths were taken.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .core import (
    CertificationError,
    Host,
    SimpleGraph,
    ceil_div,
    components,
    flood,
    induced_subgraph,
    iter_bits,
    normalize_mask,
    ColoredComplete,
    _support,
)


class ConnectivityReport(NamedTuple):
    """Witness and certified bounds for the largest k-connected subgraph."""

    k: int
    mask: frozenset[int]
    witness: tuple[int, ...]
    lower: int
    upper: int
    exact: bool

    def to_json(self) -> dict:
        return {**self._asdict(), "mask": sorted(self.mask), "witness": list(self.witness)}


class OrderCapResult(NamedTuple):
    """Outcome of refuting k-connected subgraphs above a cap: the number of
    vertex subsets of order above max(cap, optimum), which the exact answer
    rules out, and a largest k-connected set when the cap fails."""

    ok: bool
    subsets_checked: int
    counterexample: tuple[int, ...] | None = None


# ---------------------------------------------------------------------------
# bitmask primitives
# ---------------------------------------------------------------------------


def _peel_to_kcore(adj_bits, active: int, k: int) -> int:
    """Drop vertices of in-set degree < k until stable.

    Sound reduction: a k-connected subgraph of order > k has minimum degree
    >= k, which only shrinks when restricting to a subset.
    """
    changed = True
    while changed:
        changed = False
        rest = active
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj_bits[low.bit_length() - 1] & active).bit_count() < k:
                active ^= low
                changed = True
    return active


def _split_flow(adj_bits, active: int, s: int, t: int, limit: int):
    """Max vertex-disjoint s-t paths (capped at limit) in the induced graph.

    s and t must be distinct, non-adjacent, inside active.  The flow lives on
    the vertex-split network (v_in -> v_out of capacity 1, an unbounded arc
    v_out -> u_in per edge) without building it: the residual is the bitset
    ``used`` of vertices carrying flow plus their flow predecessor ``prv``
    and successor ``nxt``.  Each breadth-first search keeps the layers of
    reached in- and out-copies as bitsets and expands them with one OR of
    adjacency masks per vertex.  Returns (flow, cut): cut is None when the
    cap stopped the search, otherwise the minimum vertex cut
    {v : v_in reached, v_out not reached} left by the final, failed search.
    """
    prv: dict[int, int] = {}
    nxt: dict[int, int] = {}
    used = 0
    flow = 0
    tbit = 1 << t
    while flow < limit:
        reached_in, reached_out = 0, 1 << s
        front = reached_out
        layers = []  # layers[i]: out-copies whose arcs reached in-layer i
        while front:
            layers.append(front)
            # unbounded edge arcs, and the reversed unit arc of used vertices
            reach = front & used
            rest = front
            while rest:
                low = rest & -rest
                rest ^= low
                reach |= adj_bits[low.bit_length() - 1]
            reach &= active & ~reached_in
            reached_in |= reach
            if reach & tbit:
                break
            # unused vertices cross their unit arc; a used one can only
            # cancel the flow arc that enters it
            front = reach & ~used
            rest = reach & used
            while rest:
                low = rest & -rest
                rest ^= low
                front |= 1 << prv[low.bit_length() - 1]
            front &= ~reached_out
            reached_out |= front
        else:  # t_in unreachable: the flow is maximum
            return flow, reached_in & ~reached_out & active
        # walk back from t_in; a node is (vertex, is out-copy).  u_in was
        # first reached from layer i, through u's reversed unit arc or from
        # a neighbor's out-copy; an out-copy's own arc in is unique.
        path = [(t, False)]
        u = t
        for i in range(len(layers) - 1, 0, -1):
            out = layers[i]
            if used >> u & 1 and out >> u & 1:
                w = u
            else:
                below = adj_bits[u] & out
                w = (below & -below).bit_length() - 1
            u = nxt[w] if used >> w & 1 else w
            path += ((w, True), (u, False))
        path.append((s, True))
        path.reverse()
        for (a, a_out), (b, _) in zip(path, path[1:]):
            if a == b:  # a unit arc, forward or reversed
                used ^= 1 << a
            elif a_out:
                nxt[a], prv[b] = b, a
            # a reversed edge arc needs no write: the arcs next to it on the
            # path overwrite nxt and prv at both of its ends
        flow += 1
    return flow, None


def _find_cut_below_k(adj_bits, active: int, k: int) -> int | None:
    """A vertex cut of size < k of the induced graph, or None if k-connected.

    The caller guarantees active has at least k + 1 vertices.  Checking
    pairs from k fixed vertices to each of their non-neighbors suffices
    (Esfahanian and Hakimi 1984): any cut with fewer than k vertices misses
    one of the k anchors, which then lies in one component while some
    non-neighbor lies in another.  Per anchor v, a safe set that no cut
    below k avoiding v separates from v starts as v's neighbors; a vertex u
    with k safe neighbors joins, as such a cut avoiding u misses one of
    them, which lies on u's side.  When none joins, the least unsafe vertex
    is flowed, and joins at flow k.  A failing pair never joins, so the
    first failing pair, and its cut, are those of flowing every pair.

    k = 1 takes one flood instead: the only cut of size below 1 is the
    empty set, which separates the induced graph exactly when it is
    disconnected, so the answer is 0 or None.  The degree scan has nothing
    to add there, as an isolated vertex among two or more disconnects it.
    """
    if k == 1:
        low = active & -active
        return None if flood(adj_bits, active, low.bit_length() - 1) == active else 0
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        around = adj_bits[low.bit_length() - 1] & active
        if around.bit_count() < k:
            # its neighborhood separates it from the rest (non-empty by size)
            return around
    rest = active
    for _ in range(k):  # the k least vertices are the anchors
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        safe = adj_bits[v] & active
        todo = check = active & ~safe & ~low
        while todo:
            while check:  # a vertex that joins re-checks only its neighbors
                ubit = check & -check
                check ^= ubit
                u = ubit.bit_length() - 1
                if (adj_bits[u] & safe).bit_count() >= k:
                    safe |= ubit
                    todo ^= ubit
                    check |= adj_bits[u] & todo
            if todo:
                ubit = todo & -todo
                u = ubit.bit_length() - 1
                f, cut = _split_flow(adj_bits, active, v, u, k)
                if f < k:
                    return cut
                safe |= ubit
                todo ^= ubit
                check = adj_bits[u] & todo
    return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def vertex_connectivity(g: SimpleGraph) -> int:
    """Exact kappa(g); kappa(K_r) = r - 1 by convention.

    A descent on the cut driver: kappa is at most the minimum degree, every
    cut ``_find_cut_below_k`` returns separates g, and when it finds none
    below ``best`` the graph is best-connected.  K_r, one vertex and
    disconnected graphs need no case of their own.
    """
    if g.n == 0:
        raise ValueError("empty graph has no connectivity")
    full = (1 << g.n) - 1
    best = min(map(int.bit_count, g.adj_bits))
    while best > 0:
        cut = _find_cut_below_k(g.adj_bits, full, best)
        if cut is None:
            break
        best = cut.bit_count()
    return best


def is_k_connected(g: SimpleGraph, k: int) -> bool:
    """True iff g has at least k + 1 vertices and kappa(g) >= k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if g.n < k + 1:
        return False
    full = (1 << g.n) - 1
    return _find_cut_below_k(g.adj_bits, full, k) is None


def _max_k_connected(adj_bits, active0: int, k: int, floor: int) -> int:
    """The largest k-connected induced subgraph inside active0 of at least
    ``floor`` vertices, as a bitmask (0 if there is none).

    An exhaustive branch and bound over cut splits, seeded by k-core
    peeling.  A k-connected T inside S survives the peel, and at a cut X of
    S with |X| < k, T - X stays connected, so T lies in one side c | X (c a
    component of S - X).  Each side is smaller than S, so the search ends,
    and sets at or above a floor are visited in the same order whatever it
    is.  A peeled set below the floor is pruned, and the floor rises above
    each set found.  Exponential in the worst case (k = 1 is components).
    """
    best = 0
    floor = max(floor, k + 1)
    seen: set[int] = set()
    stack = [active0]
    while stack:
        S = _peel_to_kcore(adj_bits, stack.pop(), k)
        size = S.bit_count()
        if size < floor or S in seen:
            continue
        seen.add(S)
        cut = _find_cut_below_k(adj_bits, S, k)
        if cut is None:
            best, floor = S, size + 1
            continue
        comps = components(adj_bits, S & ~cut)
        comps.sort(key=lambda c: (c.bit_count(), -c))
        stack.extend(comp | cut for comp in comps)
    return best


def largest_k_connected(host: Host, mask, k: int) -> ConnectivityReport:
    """Largest vertex set whose mask-restricted induced graph is k-connected.

    A k-connected subgraph on a vertex set S exists iff the induced
    color-masked graph on S is k-connected, since adding edges never
    destroys k-connectivity.  The search is exhaustive, so the report is
    exact: ``lower == upper == len(witness)``.
    """
    return _masked_search(host, mask, k, 0)


def _masked_search(host: Host, mask, k: int, floor: int) -> ConnectivityReport:
    """``largest_k_connected`` searched with ``floor``: a report with an
    empty witness when no set reaches it."""
    if k < 1:
        raise ValueError("k must be at least 1")
    mask = normalize_mask(host, mask)
    adj_bits = host.color_masks(*mask)
    found = _max_k_connected(adj_bits, (1 << len(adj_bits)) - 1, k, floor)
    witness = tuple(iter_bits(found))
    return ConnectivityReport(k, mask, witness, len(witness), len(witness), exact=True)


def _best_over_masks(host: Host, masks, k: int):
    """(mask, report) with the largest witness; ties go to the first mask,
    so each later mask searches with a floor one above the best witness so
    far, and the loop stops at the first witness that spans the host.
    ``masks`` is never empty, since every host colors at least one edge."""
    best: tuple[tuple[int, ...], ConnectivityReport] | None = None
    for mask in masks:
        rep = _masked_search(host, mask, k, best[1].lower + 1 if best else 0)
        if best is None or rep.lower:
            best = (mask, rep)
            if rep.lower == host.vertex_count:
                break
    return best


def best_monochromatic(host: Host, k: int):
    """Maximize largest_k_connected over single colors; ties go to the
    smallest color id."""
    (color,), rep = _best_over_masks(host, [(c,) for c in sorted(host.used_colors())], k)
    return color, rep


def best_two_colored(host: Host, k: int):
    """Maximize largest_k_connected over color masks of size at most two."""
    used = sorted(host.used_colors())
    masks = sorted([(c,) for c in used] + list(combinations(used, 2)))
    mask, rep = _best_over_masks(host, masks, k)
    return frozenset(mask), rep


def verify_order_cap(host: Host, mask, k: int, cap: int) -> OrderCapResult:
    """Certify that no k-connected subgraph under ``mask`` has order > cap.

    ``largest_k_connected`` answers exactly, and its witness is the
    counterexample.  ``subsets_checked`` counts the subsets that answer
    rules out: every one of order cap + 1 .. n when the cap holds.
    """
    rep = largest_k_connected(host, mask, k)
    n = host.vertex_count
    ok = rep.upper <= cap
    return OrderCapResult(
        ok=ok,
        subsets_checked=sum(comb(n, r) for r in range(max(cap, rep.upper) + 1, n + 1)),
        counterexample=None if ok else rep.witness,
    )


def mader_extract(g: SimpleGraph) -> SimpleGraph:
    """A k-connected subgraph, k = ceil(e/2n), of a graph with n vertices and
    e > 0 edges (Mader; Diestel's proof, Graph Theory, Prop. 1.4.3).

    With gamma = e/n > 2(k - 1), every set S the loop keeps satisfies
    (*) n*||S|| >= e*(|S| - k + 1) and |S| >= 2k - 1, as the whole graph
    does.  No set of 2k - 1 vertices meets the edge bound (it needs
    gamma*k > 2k(k - 1) edges and has at most (2k - 1)(k - 1); for k = 1, a
    single vertex has no edges), so S has at least 2k vertices.
    - Deleting a vertex of degree <= gamma keeps (*), so the first peel does.
    - At a cut X with x = |X| < k, the r sides c | X (c a component of
      S - X) hold every edge of S, so by (*) their margins ||side|| -
      gamma*(|side| - k + 1) sum to at least (r - 1)*D, with
      D = ||X|| + gamma*(k - 1 - x) >= 0.  A side of at most 2k - 2
      vertices has at most |c|(|c| - 1)/2 + |c|*x <= |c|(3k - 4)/2 <
      gamma*|c| edges outside X, so its margin is below D.  Not every side
      is that small: S would then hold at most
      x(x - 1)/2 + (|S| - x)(2k - 3 + x)/2 <= 2(k - 1)(|S| - k + 1) edges,
      too few for (*) as |S| >= 2k.  So the sides of at least 2k - 1
      vertices have margins summing to at least 0, and one of them keeps (*).
    The loop peels, then keeps the densest side satisfying (*) at each cut;
    CertificationError reports a bug if no side does.  S shrinks at every
    step and keeps 2k >= k + 1 vertices, so it ends k-connected.
    """
    if g.n == 0 or g.edge_count == 0:
        raise ValueError("average degree must be positive")
    n, e = g.n, g.edge_count
    k = ceil_div(e, 2 * n)
    bits = g.adj_bits
    S = _peel_to_kcore(bits, (1 << n) - 1, e // n + 1)
    while True:
        cut = _find_cut_below_k(bits, S, k)
        if cut is None:
            return induced_subgraph(g, iter_bits(S))
        best = None  # (edges, size, side) of the densest, then largest, then least side
        for c in components(bits, S & ~cut):
            side = c | cut
            size = side.bit_count()
            edges = sum((bits[v] & side).bit_count() for v in iter_bits(side)) // 2
            if size >= 2 * k - 1 and n * edges >= e * (size - k + 1):
                # edges/size against the best density, cross-multiplied
                if best is None or (edges * best[1], size, -side) > (best[0] * size, best[1], -best[2]):
                    best = (edges, size, side)
        if best is None:
            raise CertificationError(f"no side keeps Mader's bound (n={n}, e={e})")
        S = best[2]


def gyarfas_floor(host: Host):
    """Largest monochromatic connected component, with its floor asserted:
    order >= ceil(n/(m-1)) on complete hosts and >= ceil((s+t)/m) on
    bipartite hosts.  Violation raises CertificationError (a theorem breach).
    """
    used = sorted(host.used_colors())
    if len(used) < 2:
        raise ValueError("host must use at least 2 colors")
    best_color, best_comp = -1, 0
    for c in used:
        adj = host.color_masks(c)
        for comp in components(adj, _support(adj)):
            if comp.bit_count() > best_comp.bit_count():
                best_color, best_comp = c, comp
    n = host.vertex_count
    if isinstance(host, ColoredComplete):
        bound = ceil_div(n, host.m - 1)  # m >= 2 since two colors are used
    else:
        bound = ceil_div(n, host.m)
    order = best_comp.bit_count()
    if order < bound:
        raise CertificationError(
            f"largest monochromatic component has order {order} < floor {bound}"
        )
    return best_color, tuple(iter_bits(best_comp))
