"""Deterministic generators for the extremal colorings, plus degree-sequence
realizability (Erdos-Gallai test and largest-first realization).

Every construction is a blow-up.  ``_blocks`` cuts the vertices (each side
of a bipartite host) into consecutive blocks, a quotient coloring gives
each pair of blocks one color, and a listed set of exceptional edges
overrides it: R1's matching and R2's star inside V1, F2's special vertex,
and the realized degree sequence inside the counterexample's V2.

Every generator returns a :class:`Generated` wrapper carrying the host and
the named vertex-set partition as metadata; the host itself never stores
part names.  Generators reject degenerate parameter choices instead of
emitting silently-wrong hosts, and refuse more than MAX_VERTICES vertices
before allocating anything per vertex.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .core import MAX_VERTICES, ColoredBipartite, ColoredComplete, Host, SimpleGraph


class Generated(NamedTuple):
    """A generated host together with its construction metadata."""

    host: Host
    parts: dict[str, tuple[int, ...]]
    spec: dict

    def describe(self) -> dict:
        return {"spec": self.spec, "parts": {k: list(v) for k, v in self.parts.items()}}


def _blocks(sizes) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Consecutive blocks of the given sizes from vertex 0: the block index of
    each vertex, and the vertices of each block."""
    ends = list(accumulate(sizes, initial=0))
    if ends[-1] > MAX_VERTICES:
        raise ValueError("host too large")
    block_of = [i for i, size in enumerate(sizes) for _ in range(size)]
    return block_of, tuple(tuple(range(lo, hi)) for lo, hi in zip(ends, ends[1:]))


def _split_sizes(total: int, parts: int) -> list[int]:
    """Near-even split; the remainder goes to the last part."""
    base = total // parts
    sizes = [base] * parts
    sizes[-1] += total - base * parts
    return sizes


def gen_intro_example(n: int, k: int) -> Generated:
    """Three-part Gallai coloring whose best k-connected two-colored subgraph
    has order exactly n - floor((k-1)/2).

    Parts: |V1| = n-k+1, |V2| = ceil((k-1)/2), |V3| = floor((k-1)/2).
    Colors: V1-V2 and V2-V3 are 1, V1-V3 is 2, all interiors are 3.
    Requires k >= 3 so that V3 is non-empty and all three colors appear.
    """
    if k < 3:
        raise ValueError("k must be at least 3 (smaller k leaves empty parts)")
    if n < k + 2:
        raise ValueError("n must be at least k + 2")
    block, parts = _blocks((n - k + 1, k // 2, (k - 1) // 2))
    quotient = ((3, 1, 2), (1, 3, 1), (2, 1, 3))
    host = ColoredComplete.from_function(n, 3, lambda u, v: quotient[block[u]][block[v]])
    return Generated(
        host,
        dict(zip(("V1", "V2", "V3"), parts)),
        {"id": "intro", "n": n, "k": k, "m": 3},
    )


def _r_base(n: int, m: int, construction: str, shape: str, edge) -> Generated:
    """Parts V1, V2, V3 with |V2| = |V3| = floor(n/3).  V1 and V1-V2 are
    color 1, V2 and V2-V3 color 2, V3 and V1-V3 color 3, except the edges
    edge(0), edge(1), ... inside V1, which carry colors 4..m."""
    if m < 4:
        raise ValueError("m must be at least 4")
    third = n // 3
    if third < 1:
        raise ValueError("n too small for three parts")
    extra = m - 3
    # the edges run along V1, so the last one has the largest endpoint
    if edge(extra - 1)[1] >= n - 2 * third:
        raise ValueError(
            f"V1 of size {n - 2 * third} cannot host a rainbow {shape} of {extra} edges"
        )
    special = {edge(i): 4 + i for i in range(extra)}
    block, parts = _blocks((n - 2 * third, third, third))
    quotient = ((1, 1, 3), (1, 2, 2), (3, 2, 3))

    def color(u: int, v: int) -> int:
        # from_function passes u < v, the order of every special key
        return special.get((u, v)) or quotient[block[u]][block[v]]

    host = ColoredComplete.from_function(n, m, color)
    return Generated(
        host,
        dict(zip(("V1", "V2", "V3"), parts)),
        {"id": construction, "n": n, "m": m},
    )


def gen_R1(n: int, m: int) -> Generated:
    """Three-part coloring with a rainbow matching (colors 4..m) inside V1."""
    return _r_base(n, m, "R1", "matching", lambda i: (2 * i, 2 * i + 1))


def gen_R2(n: int, m: int) -> Generated:
    """Three-part coloring with a rainbow star (colors 4..m) inside V1."""
    return _r_base(n, m, "R2", "star", lambda i: (0, 1 + i))


def gen_F1(s: int, t: int, m: int) -> Generated:
    """Bipartite coloring with U cut into m parts, part i colored i toward V."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if s < m:
        raise ValueError("s must be at least m")
    block, parts = _blocks(_split_sizes(s, m))
    host = ColoredBipartite.from_function(s, t, m, lambda u, v: block[u] + 1)
    named = {f"U{i + 1}": part for i, part in enumerate(parts)}
    return Generated(host, named, {"id": "F1", "s": s, "t": t, "m": m})


def gen_F2(s: int, t: int, m: int) -> Generated:
    """Bipartite coloring: U = U1 + U2 + {u}; U1-V is color 1, U2-V color 2,
    and the special vertex u cycles through colors 3..m toward V.

    Keeping colors 1 and 2 away from u pins the largest monochromatic
    component at exactly max(|U1|,|U2|) + t.
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    if s < 3:
        raise ValueError("s must be at least 3")
    if t < m - 2:
        raise ValueError("t must be at least m - 2 so colors 3..m all appear")
    half = (s - 1) // 2
    block, parts = _blocks((s - 1 - half, half, 1))

    def color(u: int, v: int) -> int:
        return block[u] + 1 if block[u] < 2 else 3 + (v % (m - 2))

    host = ColoredBipartite.from_function(s, t, m, color)
    return Generated(
        host,
        dict(zip(("U1", "U2", "u"), parts)),
        {"id": "F2", "s": s, "t": t, "m": m},
    )


def gen_F3(s: int, t: int, m: int) -> Generated:
    """Bipartite coloring on m-2 blocks per side: block diagonal (U_i, V_i)
    gets color i, pairs crossing the alpha-split get color 1, all remaining
    pairs color 2, where alpha = floor((m-2)/2) + 2.

    For m = 4 the color-2 class is empty (there are no distinct same-side
    block pairs); from m >= 5 on, all m colors appear.
    """
    if m < 4:
        raise ValueError("m must be at least 4")
    if s < m - 2 or t < m - 2:
        raise ValueError("both sides must have at least m - 2 vertices")
    alpha = (m - 2) // 2 + 2  # blocks are labelled 3..m; low side is 3..alpha
    u_block, u_parts = _blocks(_split_sizes(s, m - 2))
    v_block, v_parts = _blocks(_split_sizes(t, m - 2))

    def color(u: int, v: int) -> int:
        i, j = u_block[u] + 3, v_block[v] + 3
        if i == j:
            return i
        return 1 if (i <= alpha) != (j <= alpha) else 2

    host = ColoredBipartite.from_function(s, t, m, color)
    named = {f"U{i + 3}": part for i, part in enumerate(u_parts)}
    named.update({f"V{i + 3}": part for i, part in enumerate(v_parts)})
    return Generated(host, named, {"id": "F3", "s": s, "t": t, "m": m, "alpha": alpha})


# ---------------------------------------------------------------------------
# degree sequences
# ---------------------------------------------------------------------------


def validate_degree_sequence(d) -> tuple[int, ...]:
    d = tuple(d)
    if not d:
        raise ValueError("empty degree sequence")
    n = len(d)
    for i, x in enumerate(d):
        if x < 0:
            raise ValueError("degrees must be non-negative")
        if x >= n:
            raise ValueError(f"degree {x} too large for {n} vertices")
        if i and d[i - 1] < x:
            raise ValueError("sequence must be non-increasing")
    return d


def eg_realizable(d) -> bool:
    """Erdos-Gallai test: even sum and, for every prefix length k,
    sum(d_1..d_k) <= k(k-1) + sum(min(k, d_i) for i > k)."""
    d = validate_degree_sequence(d)
    if sum(d) % 2 != 0:
        return False
    n = len(d)
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        tail = sum(min(k, d[i]) for i in range(k, n))
        if prefix > k * (k - 1) + tail:
            return False
    return True


def realize_degree_sequence(d) -> SimpleGraph:
    """Largest-degree-first realization; vertex i ends with degree d[i].

    Laying off a largest degree leaves a graphic sequence graphic (Havel
    1955, Hakimi 1962), so each vertex taken finds its ``need`` partners.
    """
    d = validate_degree_sequence(d)
    if not eg_realizable(d):
        raise ValueError("degree sequence is not realizable")
    n = len(d)
    remaining = list(d)
    edges = []
    for _ in range(n):
        v = max(range(n), key=lambda i: (remaining[i], -i))
        need = remaining[v]
        if need == 0:
            break
        remaining[v] = 0
        partners = sorted(
            (i for i in range(n) if i != v and remaining[i] > 0),
            key=lambda i: (-remaining[i], i),
        )[:need]
        for p in partners:
            remaining[p] -= 1
            edges.append((v, p))
    return SimpleGraph(n, edges)


def corollary_sequence(t: int) -> tuple[int, ...]:
    """2t entries equal to 2t followed by 2t entries equal to 2t - 1."""
    if t < 1:
        raise ValueError("t must be positive")
    return tuple([2 * t] * (2 * t) + [2 * t - 1] * (2 * t))


def gen_counterexample_4t(t: int, n: int) -> Generated:
    """Gallai 3-coloring of K_n with no 4t-connected subgraph of order
    > n - 2t using at most two colors.

    Parts: |V1| = n - 6t, |V2| = 4t, |V3| = 2t.  V2 carries a two-colored
    K_{4t}: color 1 on a realization of the (2t x 2t, 2t x (2t-1)) degree
    sequence and color 2 on its complement.  The 2t vertices of color-1
    degree 2t join V1 in color 1, the other 2t in color 2; every remaining
    edge has color 3.  The floor n >= 10t + 1 keeps V1 strictly larger than
    V2 + V3 so the size comparisons below the cap stay strict.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if n < 10 * t + 1:
        raise ValueError("n must be at least 10t + 1")
    # V2 is two blocks: the 2t vertices of color-1 degree 2t, then the rest
    block, (v1, high, low, v3) = _blocks((n - 6 * t, 2 * t, 2 * t, 2 * t))
    quotient = ((3, 1, 2, 3), (1, 0, 0, 3), (2, 0, 0, 3), (3, 3, 3, 3))
    inner = realize_degree_sequence(corollary_sequence(t))
    base = high[0]

    def color(u: int, v: int) -> int:
        # 0 marks the pairs inside V2, colored by the realization
        return quotient[block[u]][block[v]] or (1 if inner.has_edge(u - base, v - base) else 2)

    host = ColoredComplete.from_function(n, 3, color)
    return Generated(
        host,
        {
            "V1": v1,
            "V2": high + low,
            "V3": v3,
            "V2_color1_degree_2t": high,
            "V2_color1_degree_2t_minus_1": low,
        },
        {"id": "counter4t", "t": t, "n": n, "k": 4 * t, "m": 3},
    )
