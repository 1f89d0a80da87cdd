"""Rainbow-copy detection: find injective embeddings of a pattern into a
colored host such that all mapped edge colors are pairwise distinct.

The search is the pattern-search engine in ``patterns`` run on the host's
``pair_color``.  Hosts are complete or complete bipartite, so color
distinctness carries the pruning; edge existence only matters on bipartite
hosts (same-side pairs are non-edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import Host, ColoredComplete
from .patterns import Pattern, embeddings, parse_pattern

_K3 = None


def _triangle() -> Pattern:
    global _K3
    if _K3 is None:
        _K3 = parse_pattern("K3")
    return _K3


@dataclass(frozen=True)
class Embedding:
    """An injective map witnessing a rainbow copy of a pattern in a host."""

    pattern: Pattern
    mapping: tuple[int, ...]  # pattern vertex i -> host (global) vertex
    colors: frozenset[int]

    def image_edges(self) -> frozenset[tuple[int, int]]:
        m = self.mapping
        return frozenset(tuple(sorted((m[u], m[v]))) for u, v in self.pattern.graph.edges)

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern.canonical_name,
            "map": list(self.mapping),
            "colors": sorted(self.colors),
        }


def validate_embedding(host: Host, pattern: Pattern, mapping) -> None:
    """Independent soundness check: injective, edges present, colors distinct."""
    g = pattern.graph
    mapping = tuple(mapping)
    if len(mapping) != g.n:
        raise ValueError("mapping length does not match pattern order")
    if len(set(mapping)) != g.n:
        raise ValueError("mapping is not injective")
    nv = host.vertex_count
    if any(not (0 <= x < nv) for x in mapping):
        raise ValueError("mapping target outside host")
    seen: set[int] = set()
    for u, v in g.edges:
        c = host.pair_color(mapping[u], mapping[v])
        if c is None:
            raise ValueError(f"pattern edge ({u},{v}) maps to a non-edge")
        if c in seen:
            raise ValueError(f"color {c} repeated")
        seen.add(c)


def find_rainbow(host: Host, pattern: Pattern) -> Embedding | None:
    """One rainbow embedding of the pattern, or None when none exists.

    The search is exhaustive, so None certifies rainbow-freeness.
    """
    for mapping in embeddings(host.vertex_count, host.pair_color, pattern.plan):
        emb = Embedding(pattern, mapping, _mapped_colors(host, pattern, mapping))
        validate_embedding(host, pattern, mapping)
        return emb
    return None


def _mapped_colors(host, pattern, mapping) -> frozenset[int]:
    return frozenset(
        host.pair_color(mapping[u], mapping[v]) for u, v in pattern.graph.edges
    )


def enumerate_rainbow(host: Host, pattern: Pattern) -> Iterator[Embedding]:
    """All rainbow embeddings (one per search branch, symmetry-reduced)."""
    for mapping in embeddings(host.vertex_count, host.pair_color, pattern.plan):
        yield Embedding(pattern, mapping, _mapped_colors(host, pattern, mapping))


def is_rainbow_free(host: Host, pattern: Pattern) -> bool:
    return find_rainbow(host, pattern) is None


def count_rainbow(host: Host, pattern: Pattern) -> int:
    """Number of rainbow copies, counted up to automorphisms of the pattern
    (two embeddings with the same image edge set are the same copy)."""
    images = set()
    for mapping in embeddings(host.vertex_count, host.pair_color, pattern.plan):
        emb = Embedding(pattern, mapping, frozenset())
        images.add(emb.image_edges())
    return len(images)


def find_rainbow_triangle(host: ColoredComplete) -> Embedding | None:
    """Optimized triple scan for a rainbow K3 in a complete host."""
    n = host.n
    color = host.color
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            cij = color(i, j)
            for k in range(j + 1, n):
                cik = color(i, k)
                if cik == cij:
                    continue
                cjk = color(j, k)
                if cjk != cij and cjk != cik:
                    return Embedding(
                        _triangle(), (i, j, k), frozenset((cij, cik, cjk))
                    )
    return None
