"""Micro-scale cross-checking of the fast operations against naive oracles.

Enumerates every coloring of K_n with m colors when the space is small
enough (m^C(n,2) at most the sample budget), otherwise checks a seeded
random sample of that size.  Any disagreement is reported with the exact
coloring that produced it.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import combinations, product, starmap
from typing import NamedTuple

from .core import ColoredComplete, _random_complete, restrict
from .connectivity import largest_k_connected, vertex_connectivity
from .oracles import (
    oracle_largest_k_connected,
    oracle_longest_path_order,
    oracle_rainbow_exists,
    oracle_vertex_connectivity,
)
from .paths import longest_mono_path
from .patterns import Pattern, parse_pattern
from .rainbow import find_rainbow

SAMPLE_BUDGET = 100_000
# The largest n checked.  The oracles' worst case grows factorially in n: a
# color class with no spanning path, K_(n-2) with two pendants at one vertex,
# makes the path oracle extend every path, which took 4.5-6.9 ms per host at
# n = 9, 36-59 ms at n = 10 and 0.36-0.49 s at n = 11 (2 vCPUs, CPython
# 3.11.7).  Random hosts cost far less: 200 sampled K_10 hosts took
# 0.21-0.28 s in all (m = 3 and 2)
MAX_ORDER = 10


@lru_cache(maxsize=None)
def _patterns(full: bool) -> tuple[Pattern, ...]:
    """The patterns checked in full or sampled mode, parsed once per process."""
    names = ("P3", "K3", "P4", "2K2", "K1_3") if full else ("P3", "K3", "2K2")
    return tuple(map(parse_pattern, names))


class CrosscheckReport(NamedTuple):
    """Counts and mismatches of one cross-check run."""

    max_n: int
    max_m: int
    mode: str  # "full" or "sampled"
    colorings: int
    comparisons: int
    mismatches: list
    millis: int
    seed: int

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "max_n": self.max_n,
            "max_m": self.max_m,
            "mode": self.mode,
            "colorings": self.colorings,
            "comparisons": self.comparisons,
            "mismatches": self.mismatches[:10],
            "ok": self.ok,
            "millis": self.millis,
            "seed": self.seed,
        }


def _memo(memo: dict, oracle, g, *args):
    """``oracle(g, *args)``, computed once per exact graph ``g`` and ``args``
    in ``memo``.  The graph oracles are pure functions of their input, and
    sampled hosts repeat the same labeled color classes many times over."""
    key = (oracle, g.adj_bits, *args)
    answer = memo.get(key)
    if answer is None:
        answer = memo[key] = oracle(g, *args)
    return answer


def _check_host(host: ColoredComplete, patterns, ks, lkc_masks, memo) -> tuple[int, list]:
    """(comparisons made, mismatches found) on one host."""
    mismatches: list = []

    def note(head, *answers):
        # the coloring goes after the head, read only for a mismatch
        colors = starmap(host.pair_color, combinations(range(host.n), 2))
        mismatches.append((*head, tuple(colors), *answers))

    for pat in patterns:
        fast = find_rainbow(host, pat) is not None  # it validates its witness
        slow = oracle_rainbow_exists(host, pat)
        if fast != slow:
            note(("rainbow", pat.canonical_name), fast, slow)
    used = sorted(host.used_colors())
    per_color = {c: restrict(host, {c}) for c in used}
    for c in used:
        g = per_color[c]
        fast = vertex_connectivity(g)
        slow = _memo(memo, oracle_vertex_connectivity, g)
        if fast != slow:
            note(("kappa", c), fast, slow)
        wit = longest_mono_path(host, c)
        slow_len = _memo(memo, oracle_longest_path_order, g)
        if not wit.exact or wit.order != slow_len:
            note(("path", c), wit.order, slow_len)
    comparisons = len(patterns) + 2 * len(used)
    for mask in lkc_masks:
        mask = frozenset(mask).intersection(per_color)
        if not mask:
            continue
        # a single color's graph is the one built above
        g = per_color[min(mask)] if len(mask) == 1 else restrict(host, mask)
        comparisons += len(ks)
        for k in ks:
            rep = largest_k_connected(host, mask, k)
            slow = _memo(memo, oracle_largest_k_connected, g, k)
            if not rep.exact or rep.lower != slow or rep.upper != slow:
                note(("lkc", sorted(mask), k), rep.lower, slow)
    return comparisons, mismatches


def micro_crosscheck(max_n: int, max_m: int, seed: int = 0, budget: int = SAMPLE_BUDGET) -> CrosscheckReport:
    """Cross-check rainbow detection, vertex connectivity, exact
    largest-k-connected search, and longest monochromatic paths against
    brute-force oracles over all (or ``budget`` sampled) colorings.  Each
    oracle answer is kept for the rest of the call, so a color class seen
    again is checked against the kept answer; the fast side runs on every
    host."""
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if max_n > MAX_ORDER:
        raise ValueError(f"max_n must be at most {MAX_ORDER}")
    if max_m < 1:
        raise ValueError("max_m must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    n, m = max_n, max_m
    pairs = n * (n - 1) // 2
    start = time.monotonic()
    full = m**pairs <= budget
    patterns = [p for p in _patterns(full) if p.order <= n]
    if full:
        ks = [1, 2, 3]
        two = [{1, 2}] if m >= 2 else []
        hosts = (ColoredComplete(n, m, colors) for colors in product(range(1, m + 1), repeat=pairs))
        checks = ((host, [{c} for c in sorted(host.used_colors())] + two) for host in hosts)
    else:
        ks = [1, 2]
        rng = random.Random(seed)
        # rotate the heavier largest-k-connected check across colors
        checks = ((_random_complete(rng, n, m), [{(i % m) + 1}]) for i in range(budget))
    colorings = comparisons = 0
    mismatches: list = []
    memo: dict = {}
    for host, masks in checks:
        count, found = _check_host(host, patterns, ks, masks, memo)
        colorings += 1
        comparisons += count
        mismatches += found
    millis = int((time.monotonic() - start) * 1000)
    mode = "full" if full else "sampled"
    return CrosscheckReport(n, m, mode, colorings, comparisons, mismatches, millis, seed)
