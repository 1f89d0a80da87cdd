"""Gallai colorings: recognition, partition extraction, a structured random
sampler, and the two-colored highly-connected witness searches, which run
the largest k-connected search of ``connectivity`` on each two-color class
with the order asked for as its floor.

A Gallai coloring is a rainbow-triangle-free coloring of a complete graph.
Every such coloring admits a partition of the vertices into l >= 2 parts
with at most two colors on cross-part edges and exactly one color between
each pair of parts.  The extractor below returns the components outside
the first disconnecting color pair as the parts, certified once by an
independent validator.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from .core import MAX_VERTICES, ColoredComplete, _certify, _require_complete, _tri_offsets
from .core import components, iter_bits
from .connectivity import _masked_search
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


def gallai_partition(host: ColoredComplete) -> GallaiPartition:
    """Extract a partition with monochromatic part pairs and <= 2 cross colors.

    The parts are the connected components of the graph H of the colors
    outside the first pair {i, j} of used colors, in ``combinations``
    order, that leaves two or more of them; a host with one color, which
    has no pair, is split as [{0}, rest].  The independent validator
    certifies the result once.

    Proof that these parts need no merging.  Let A != B be components of H.
    An A-B edge has color i or j, since an edge of any other color would
    put its ends in one component.  Take a, a' in A joined by an H-edge of
    color d outside {i, j}, and any b in B.  If c(ab) != c(a'b), then d,
    c(ab) and c(a'b) are three distinct colors and aa'b is a rainbow
    triangle; so all of A, connected in H, sees b in one color.  By
    symmetry all of B sees a in one color, so A-B is monochromatic, and the
    cross colors lie in {i, j}.  Some pair leaves two or more components by
    Gallai's theorem (Gallai 1967; Gyarfas-Simonyi 2004): every edge whose
    color is outside a Gallai partition's <= 2 cross colors lies inside a
    part.  A failed certificate therefore means the host was not Gallai
    after all, and raises CertificationError with the validator's reason.
    """
    _require_complete(host)
    if not is_gallai(host):
        raise NotGallaiError("host contains a rainbow triangle")
    full = (1 << host.n) - 1
    parts = [1, full ^ 1]
    used = sorted(host.used_colors())
    for i, j in combinations(used, 2):
        split = components(host.color_masks(*(set(used) - {i, j})), full)
        if len(split) >= 2:
            parts = split
            break
    parts = tuple(sorted(tuple(iter_bits(p)) for p in parts))
    _certify(validate_gallai_partition, host, parts)
    pairs = combinations(range(len(parts)), 2)
    cross = tuple((i, j, host.color(parts[i][0], parts[j][0])) for i, j in pairs)
    return GallaiPartition(parts, cross)


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
        rep = _masked_search(host, mask, k, host.n - drop)
        if rep.lower:
            return TwoColorWitness(True, k, rep.mask, rep.witness)
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
