"""Deterministic generators for the extremal colorings, plus degree-sequence
realizability (Erdos-Gallai test and largest-first realization).

Every generator returns a :class:`Generated` wrapper carrying the host and
the named vertex-set partition as metadata; the host itself never stores
part names.  Generators reject degenerate parameter choices instead of
emitting silently-wrong hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .core import ColoredBipartite, ColoredComplete, Host, SimpleGraph


@dataclass(frozen=True)
class Generated:
    """A generated host together with its construction metadata."""

    host: Host
    parts: dict[str, tuple[int, ...]]
    spec: dict

    def describe(self) -> dict:
        return {"spec": self.spec, "parts": {k: list(v) for k, v in self.parts.items()}}


def _three_parts(n: int, sizes: tuple[int, int, int]):
    a, b, c = sizes
    v1 = tuple(range(a))
    v2 = tuple(range(a, a + b))
    v3 = tuple(range(a + b, a + b + c))
    assert a + b + c == n
    return v1, v2, v3


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
    sizes = (n - k + 1, (k - 1 + 1) // 2, (k - 1) // 2)
    v1, v2, v3 = _three_parts(n, sizes)
    part_of = {}
    for p, verts in enumerate((v1, v2, v3)):
        for v in verts:
            part_of[v] = p
    cross = {(0, 1): 1, (1, 2): 1, (0, 2): 2}

    def color(u: int, v: int) -> int:
        pu, pv = part_of[u], part_of[v]
        if pu == pv:
            return 3
        return cross[(min(pu, pv), max(pu, pv))]

    host = ColoredComplete.from_function(n, 3, color)
    return Generated(
        host,
        {"V1": v1, "V2": v2, "V3": v3},
        {"id": "intro", "n": n, "k": k, "m": 3},
    )


def _r_base(n: int, m: int, construction: str) -> Generated:
    if m < 4:
        raise ValueError("m must be at least 4")
    third = n // 3
    sizes = (n - 2 * third, third, third)
    if sizes[1] < 1:
        raise ValueError("n too small for three parts")
    v1, v2, v3 = _three_parts(n, sizes)
    extra = m - 3  # edges inside V1 carrying colors 4..m
    if construction == "R1":
        if len(v1) // 2 < extra:
            raise ValueError(
                f"V1 of size {len(v1)} cannot host a rainbow matching of {extra} edges"
            )
        special = {(2 * i, 2 * i + 1): 4 + i for i in range(extra)}
    else:
        if len(v1) < extra + 1:
            raise ValueError(
                f"V1 of size {len(v1)} cannot host a rainbow star of {extra} edges"
            )
        special = {(0, 1 + i): 4 + i for i in range(extra)}
    part_of = {}
    for p, verts in enumerate((v1, v2, v3)):
        for v in verts:
            part_of[v] = p
    interior = {0: 1, 1: 2, 2: 3}
    cross = {(0, 1): 1, (1, 2): 2, (0, 2): 3}

    def color(u: int, v: int) -> int:
        pu, pv = part_of[u], part_of[v]
        if pu == pv:
            if pu == 0:
                key = (u, v) if u < v else (v, u)
                if key in special:
                    return special[key]
            return interior[pu]
        return cross[(min(pu, pv), max(pu, pv))]

    host = ColoredComplete.from_function(n, m, color)
    return Generated(
        host,
        {"V1": v1, "V2": v2, "V3": v3},
        {"id": construction, "n": n, "m": m},
    )


def gen_R1(n: int, m: int) -> Generated:
    """Three-part coloring with a rainbow matching (colors 4..m) inside V1."""
    return _r_base(n, m, "R1")


def gen_R2(n: int, m: int) -> Generated:
    """Three-part coloring with a rainbow star (colors 4..m) inside V1."""
    return _r_base(n, m, "R2")


def _split_sizes(total: int, parts: int) -> list[int]:
    """Near-even split; the remainder goes to the last part."""
    base = total // parts
    sizes = [base] * parts
    sizes[-1] += total - base * parts
    return sizes


def _intervals(sizes) -> list[tuple[int, int]]:
    """Consecutive half-open ranges (lo, hi) of the given sizes, from 0."""
    ends = list(accumulate(sizes, initial=0))
    return list(zip(ends, ends[1:]))


def gen_F1(s: int, t: int, m: int) -> Generated:
    """Bipartite coloring with U cut into m parts, part i colored i toward V."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if s < m:
        raise ValueError("s must be at least m")
    bounds = _intervals(_split_sizes(s, m))

    def color(u: int, v: int) -> int:
        for i, (lo, hi) in enumerate(bounds):
            if lo <= u < hi:
                return i + 1
        raise AssertionError

    host = ColoredBipartite.from_function(s, t, m, color)
    parts = {f"U{i + 1}": tuple(range(lo, hi)) for i, (lo, hi) in enumerate(bounds)}
    return Generated(host, parts, {"id": "F1", "s": s, "t": t, "m": m})


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
    u1 = tuple(range(s - 1 - half))
    u2 = tuple(range(len(u1), s - 1))
    special = s - 1

    def color(u: int, v: int) -> int:
        if u < len(u1):
            return 1
        if u < s - 1:
            return 2
        return 3 + (v % (m - 2))

    host = ColoredBipartite.from_function(s, t, m, color)
    return Generated(
        host,
        {"U1": u1, "U2": u2, "u": (special,)},
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
    parts = m - 2
    if s < parts or t < parts:
        raise ValueError("both sides must have at least m - 2 vertices")
    alpha = (m - 2) // 2 + 2  # blocks are indexed 3..m; low side is 3..alpha

    ub = _intervals(_split_sizes(s, parts))
    vb = _intervals(_split_sizes(t, parts))

    def block_of(x: int, bounds) -> int:
        for i, (lo, hi) in enumerate(bounds):
            if lo <= x < hi:
                return i + 3
        raise AssertionError

    def color(u: int, v: int) -> int:
        bu, bv = block_of(u, ub), block_of(v, vb)
        if bu == bv:
            return bu
        if (bu <= alpha) != (bv <= alpha):
            return 1
        return 2

    host = ColoredBipartite.from_function(s, t, m, color)
    named = {}
    for i, (lo, hi) in enumerate(ub):
        named[f"U{i + 3}"] = tuple(range(lo, hi))
    for i, (lo, hi) in enumerate(vb):
        named[f"V{i + 3}"] = tuple(range(lo, hi))
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
    """Largest-degree-first realization; vertex i ends with degree d[i]."""
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
        if len(partners) < need:
            raise ValueError("degree sequence is not realizable")  # unreachable post-test
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
    v1 = tuple(range(n - 6 * t))
    v2 = tuple(range(n - 6 * t, n - 2 * t))
    v3 = tuple(range(n - 2 * t, n))
    inner = realize_degree_sequence(corollary_sequence(t))
    # local index i in V2 has color-1 degree 2t for i < 2t, else 2t - 1
    high = set(range(2 * t))
    base = v2[0]

    def color(u: int, v: int) -> int:
        u_in2 = base <= u < base + 4 * t
        v_in2 = base <= v < base + 4 * t
        if u_in2 and v_in2:
            return 1 if inner.has_edge(u - base, v - base) else 2
        if u_in2 or v_in2:
            w = u - base if u_in2 else v - base
            other = v if u_in2 else u
            if other < len(v1):
                return 1 if w in high else 2
        return 3

    host = ColoredComplete.from_function(n, 3, color)
    return Generated(
        host,
        {
            "V1": v1,
            "V2": v2,
            "V3": v3,
            "V2_color1_degree_2t": tuple(v2[i] for i in range(2 * t)),
            "V2_color1_degree_2t_minus_1": tuple(v2[i] for i in range(2 * t, 4 * t)),
        },
        {"id": "counter4t", "t": t, "n": n, "k": 4 * t, "m": 3},
    )
