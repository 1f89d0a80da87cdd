"""Gallai colorings: recognition, partition extraction, a structured random
sampler, and the two-colored highly-connected witness searches, which take
``connectivity.largest_k_connected`` of each two-color class.

A Gallai coloring is a rainbow-triangle-free coloring of a complete graph.
Every such coloring admits a partition of the vertices into l >= 2 parts
with at most two colors on cross-part edges and exactly one color between
each pair of parts; the extractor below recovers one and re-checks it with
an independent validator before returning.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from .core import (
    MAX_VERTICES,
    ColoredComplete,
    _require_complete,
    components,
    iter_bits,
)
from .core import _tri_offsets
from .connectivity import CertificationError, largest_k_connected
from .rainbow import find_rainbow_triangle


class NotGallaiError(ValueError):
    """The host contains a rainbow triangle."""


class GallaiPartition(NamedTuple):
    parts: tuple[tuple[int, ...], ...]
    cross_colors: tuple[tuple[int, int, int], ...]  # (part i, part j, color)

    def to_json(self) -> dict:
        return {
            "parts": [list(p) for p in self.parts],
            "cross_colors": [list(x) for x in self.cross_colors],
        }


def is_gallai(host: ColoredComplete) -> bool:
    _require_complete(host)
    return find_rainbow_triangle(host) is None


def validate_gallai_partition(host: ColoredComplete, parts) -> str | None:
    """Independent check of the partition contract; None means valid."""
    parts = [tuple(p) for p in parts]
    if len(parts) < 2:
        return "fewer than 2 parts"
    seen: set[int] = set()
    for p in parts:
        if not p:
            return "empty part"
        if seen & set(p):
            return "parts overlap"
        seen |= set(p)
    if seen != set(range(host.n)):
        return "parts do not cover the vertex set"
    all_cross: set[int] = set()
    for (i, pa), (j, pb) in combinations(enumerate(parts), 2):
        colors = {host.color(u, v) for u in pa for v in pb}
        if len(colors) != 1:
            return f"parts {i},{j} see colors {sorted(colors)}"
        all_cross |= colors
    if len(all_cross) > 2:
        return f"more than two cross colors: {sorted(all_cross)}"
    return None


def _merge_until_monochromatic(host: ColoredComplete, parts: list[int]) -> list[int]:
    """Merge part pairs showing mixed cross colors until stable (bitmask parts)."""
    changed = True
    while changed and len(parts) >= 2:
        changed = False
        for i, j in combinations(range(len(parts)), 2):
            P, Q = parts[i], parts[j]
            # monochromatic iff all of P sees all of Q in one edge's color
            masks = host.color_masks(host.color(next(iter_bits(P)), next(iter_bits(Q))))
            if any(masks[u] & Q != Q for u in iter_bits(P)):
                parts = [p for idx, p in enumerate(parts) if idx not in (i, j)]
                parts.append(P | Q)
                changed = True
                break
    return parts


def _parts_to_partition(host: ColoredComplete, parts: list[int]) -> GallaiPartition:
    ordered = sorted(parts, key=lambda p: (p & -p))
    tuples = tuple(tuple(iter_bits(p)) for p in ordered)
    cross = []
    for i, j in combinations(range(len(ordered)), 2):
        u = next(iter_bits(ordered[i]))
        v = next(iter_bits(ordered[j]))
        cross.append((i, j, host.color(u, v)))
    return GallaiPartition(tuples, tuple(cross))


def gallai_partition(host: ColoredComplete) -> GallaiPartition:
    """Extract a partition with monochromatic part pairs and <= 2 cross colors.

    Candidate parts come from the connected components of the graph of edges
    colored outside a chosen pair {i, j}; mixed part pairs get merged.  Every
    candidate is re-checked by the independent validator before returning.
    When {i, j} are the cross colors of a Gallai partition, each component
    lies inside one of its parts and no merge joins two of them, so some pair
    always certifies; the final raise is a certificate failure.
    """
    _require_complete(host)
    if not is_gallai(host):
        raise NotGallaiError("host contains a rainbow triangle")
    used = sorted(host.used_colors())
    if len(used) == 1:
        parts = [1, ((1 << host.n) - 1) & ~1]
        result = _parts_to_partition(host, parts)
        if validate_gallai_partition(host, result.parts) is None:
            return result
        raise CertificationError("single-color split failed validation")
    full = (1 << host.n) - 1
    for i, j in combinations(used, 2):
        parts = components(host.color_masks(*(set(used) - {i, j})), full)
        if len(parts) < 2:
            continue
        parts = _merge_until_monochromatic(host, parts)
        if len(parts) < 2:
            continue
        result = _parts_to_partition(host, parts)
        if validate_gallai_partition(host, result.parts) is None:
            return result
    raise CertificationError("failed to certify a partition on a Gallai host")


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def sample_gallai(n: int, m: int, seed: int) -> ColoredComplete:
    """A random Gallai coloring of K_n, deterministic per seed.

    Built by recursive substitution: a quotient on l >= 3 parts is colored
    with two cross colors, and parts recurse on disjoint shares of the
    remaining colors (reusing a cross color when their share is empty).
    Exactly min(m, n - 1) colors appear, so the result is Gallai by
    construction and uses all m colors whenever m <= n - 1.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if m < 1:
        raise ValueError("m must be at least 1")
    if n > MAX_VERTICES:
        raise ValueError(f"n must be in 2..{MAX_VERTICES}, got {n}")
    rng = random.Random(seed)
    target = min(m, n - 1)
    # ColoredComplete's flat color list: pair a < b sits at offset[a] + b
    colors = [0] * (n * (n - 1) // 2)
    offset = _tri_offsets(n)

    def fill(verts: list[int], required: list[int]) -> None:
        if len(verts) <= 1:
            return
        if len(required) == 1:
            c = required[0]
            for a, b in combinations(verts, 2):
                colors[offset[a] + b if a < b else offset[b] + a] = c
            return
        upper = min(5, len(verts), len(verts) - len(required) + 2)
        l = rng.randint(3, upper)
        shuffled = verts[:]
        rng.shuffle(shuffled)
        cuts = sorted(rng.sample(range(1, len(verts)), l - 1))
        groups = []
        prev = 0
        for cut in cuts + [len(verts)]:
            groups.append(shuffled[prev:cut])
            prev = cut
        c1, c2 = rng.sample(required, 2)
        for gi, gj in combinations(range(l), 2):
            if (gi, gj) == (0, 1):
                c = c1
            elif (gi, gj) == (0, 2):
                c = c2
            else:
                c = rng.choice((c1, c2))
            for a in groups[gi]:
                for b in groups[gj]:
                    colors[offset[a] + b if a < b else offset[b] + a] = c
        rest = [c for c in required if c != c1 and c != c2]
        rng.shuffle(rest)
        capacity = [len(g) - 1 for g in groups]
        shares: list[list[int]] = [[] for _ in groups]
        for c in rest:
            open_groups = [
                gi for gi in range(l) if len(shares[gi]) < capacity[gi]
            ]
            shares[rng.choice(open_groups)].append(c)
        for gi, group in enumerate(groups):
            req = shares[gi]
            if len(group) >= 2 and not req:
                req = [rng.choice((c1, c2))]
            fill(group, req)

    fill(list(range(n)), list(range(1, target + 1)))
    return ColoredComplete(n, m, colors)


# ---------------------------------------------------------------------------
# two-colored highly connected witnesses
# ---------------------------------------------------------------------------


class TwoColorWitness(NamedTuple):
    ok: bool
    k: int
    mask: frozenset[int]
    vertices: tuple[int, ...]
    reason: str | None = None

    @property
    def order(self) -> int:
        return len(self.vertices)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "k": self.k,
            "mask": sorted(self.mask),
            "order": self.order,
            "vertices": list(self.vertices),
            "reason": self.reason,
        }


def _two_color_witness(host: ColoredComplete, k: int, drop: int, reason: str):
    """The first two-color mask, in color order, whose class holds a
    k-connected subgraph on at least n - drop vertices, with the largest
    such subgraph as witness."""
    _require_complete(host)
    used = sorted(host.used_colors())
    if len(used) != 3:
        raise ValueError(f"exactly 3 colors required, host uses {len(used)}")
    if host.n < 7:
        raise ValueError("n must be at least 7")
    if not is_gallai(host):
        raise NotGallaiError("host contains a rainbow triangle")
    for mask in combinations(used, 2):
        rep = largest_k_connected(host, mask, k)
        if rep.lower >= host.n - drop:
            return TwoColorWitness(True, k, frozenset(mask), rep.witness)
    return TwoColorWitness(False, k, frozenset(), (), reason)


def verify_two_color_2connected(host: ColoredComplete) -> TwoColorWitness:
    """Search for a spanning 2-connected subgraph using at most two colors.

    Existence is a theorem for Gallai 3-colorings with n >= 7; a returned
    failure is therefore a falsification report, not an exception.
    """
    return _two_color_witness(
        host, 2, 0, "no spanning 2-connected two-colored subgraph"
    )


def verify_two_color_3connected(host: ColoredComplete) -> TwoColorWitness:
    """Search for a 3-connected subgraph of order >= n - 1 using <= 2 colors."""
    return _two_color_witness(
        host, 3, 1, "no 3-connected two-colored subgraph of order >= n-1"
    )
