"""Claim registry: each entry binds a generated host (or seeded sampler) to
one checkable property and its expected outcome, so the whole battery can
run as a batch with reproducible seeds.

Sampled claims default to 1000 seeds; per-claim seeds derive from the master
seed through a fixed counter so reports are reproducible.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass
from fnmatch import fnmatch
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Callable

from .bipartite import classify_k13_free, gen_type_b, verify_background_spanning_kconn
from .connectivity import (
    best_monochromatic,
    best_two_colored,
    gyarfas_floor,
    is_k_connected,
    mader_extract,
    verify_order_cap,
)
from .constructions import (
    corollary_sequence,
    eg_realizable,
    gen_F1,
    gen_F2,
    gen_F3,
    gen_R1,
    gen_R2,
    gen_counterexample_4t,
    gen_intro_example,
    realize_degree_sequence,
)
from .core import ColoredBipartite, ColoredComplete, SimpleGraph, ceil_div
from .gallai import (
    gallai_partition,
    is_gallai,
    sample_gallai,
    validate_gallai_partition,
    verify_two_color_2connected,
    verify_two_color_3connected,
)
from .oracles import realizable_degree_sequences
from .paths import check_mono_path_quota, color_degree_averages, kano_li_floor
from .patterns import parse_pattern
from .rainbow import enumerate_rainbow, find_rainbow

DEFAULT_SAMPLES = 1000


@dataclass(frozen=True)
class Claim:
    id: str
    provenance: str  # human-readable statement of what is being checked
    expected: bool  # expected truth value of the property
    run: Callable[[int], tuple[bool, object]]  # seed -> (holds, witness)


@dataclass
class RunReport:
    claim_id: str
    status: str  # pass / fail / error
    witness: object
    millis: int
    seed: int

    def to_json(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "witness": self.witness,
            "millis": self.millis,
            "seed": self.seed,
        }


def _rainbow_claim(cid, provenance, make_host, pattern_name, expect_free):
    pat = parse_pattern(pattern_name)

    def run(seed):
        emb = find_rainbow(make_host().host, pat)
        if emb is None:
            return expect_free, "rainbow-free"
        return not expect_free, emb.to_json()

    return Claim(cid, provenance, True, run)


def _claim(cid, provenance, fn, expected=True):
    return Claim(cid, provenance, expected, fn)


# ---------------------------------------------------------------------------
# individual claim bodies (the registry at the bottom wires them together)
# ---------------------------------------------------------------------------


def _r1_triangle_colors(seed):
    host = gen_R1(9, 4).host
    triangles = list(enumerate_rainbow(host, parse_pattern("K3")))
    bad = [e.to_json() for e in triangles if e.colors != frozenset({1, 2, 3})]
    return (len(triangles) > 0 and not bad), {
        "rainbow_triangles": len(triangles),
        "off_palette": bad,
    }


def _f3_star_colors(seed):
    host = gen_F3(12, 12, 6).host
    stars = list(enumerate_rainbow(host, parse_pattern("K1_3")))
    bad = [e.to_json() for e in stars if not {1, 2} <= e.colors]
    return (len(stars) > 0 and not bad), {"rainbow_stars": len(stars), "missing_12": bad}


def _mono_size(make_host, expect):
    def run(seed):
        color, rep = best_monochromatic(make_host().host, k=1, mode="exact")
        return rep.lower == expect, {"color": color, "order": rep.lower, "expected": expect}

    return run


def _component_floor(make_host, expect):
    def run(seed):
        color, comp = gyarfas_floor(make_host().host)
        return len(comp) == expect, {"color": color, "order": len(comp), "expected": expect}

    return run


def _intro_two_colored(seed):
    gen = gen_intro_example(10, 3)
    mask, rep = best_two_colored(gen.host, k=3, mode="exact")
    want = 10 - (3 - 1) // 2
    return rep.lower == want, {"mask": sorted(mask), "order": rep.lower, "expected": want}


def _counterexample_claim(t, n):
    def run(seed):
        gen = gen_counterexample_4t(t, n)
        host = gen.host
        k = 4 * t
        cap = n - 2 * t
        if not is_gallai(host):
            return False, "not a Gallai coloring"
        part = gallai_partition(host)
        err = validate_gallai_partition(host, part.parts)
        if err:
            return False, {"partition_error": err}
        results = {}
        for mask in combinations(sorted(host.used_colors()), 2):
            res = verify_order_cap(host, mask, k, cap)
            results[str(sorted(mask))] = res.subsets_checked
            if not res.ok:
                return False, {
                    "mask": sorted(mask),
                    "counterexample": list(res.counterexample),
                }
        return True, {"cap": cap, "k": k, "subsets_checked": results}

    return run


def _counterexample_degrees(t, n):
    def run(seed):
        gen = gen_counterexample_4t(t, n)
        host = gen.host
        v2 = gen.parts["V2"]
        base = v2[0]
        deg1 = {
            v: sum(
                1
                for w in v2
                if w != v and host.color(v, w) == 1
            )
            for v in v2
        }
        high = sorted(v for v in v2 if deg1[v] == 2 * t)
        low = sorted(v for v in v2 if deg1[v] == 2 * t - 1)
        ok = len(high) == 2 * t and len(low) == 2 * t
        # complementary statement for color 2 inside V2
        deg2 = {
            v: sum(1 for w in v2 if w != v and host.color(v, w) == 2) for v in v2
        }
        ok = ok and all(deg2[v] == 2 * t - 1 for v in high)
        ok = ok and all(deg2[v] == 2 * t for v in low)
        return ok, {"degree_2t": len(high), "degree_2t_minus_1": len(low), "base": base}

    return run


def _lemma_sample_claim(k, samples=DEFAULT_SAMPLES):
    verify = verify_two_color_2connected if k == 2 else verify_two_color_3connected

    def run(seed):
        rng_base = seed
        failures = []
        for i in range(samples):
            host = sample_gallai(9, 3, rng_base + i)
            w = verify(host)
            if not w.ok or (k == 2 and w.order != 9) or (k == 3 and w.order < 8):
                failures.append(i)
        hosts = [
            gen_intro_example(10, 3).host,
            gen_intro_example(12, 5).host,
            gen_counterexample_4t(1, 20).host,
            gen_counterexample_4t(2, 40).host,
        ]
        for j, host in enumerate(hosts):
            w = verify(host)
            n = host.n
            if not w.ok or (k == 2 and w.order != n) or (k == 3 and w.order < n - 1):
                failures.append(f"construction-{j}")
        return not failures, {"samples": samples, "failures": failures}

    return run


def _typeb_roundtrip(seed):
    rng = random.Random(seed)
    failures = []
    for i in range(200):
        m = rng.choice([5, 6, 7, 8])
        s = rng.randint(8, 12)  # m - 1 <= 7, so blocks always fit
        t = rng.randint(8, 12)
        gen = gen_type_b(s, t, m, seed=seed * 1009 + i)
        structure = classify_k13_free(gen.host)
        if structure.case != "B":
            failures.append((i, "not case B"))
            continue
        for c in range(2, m + 1):
            if structure.u_parts[c] != gen.parts[f"U{c}"] or structure.v_parts[
                c
            ] != gen.parts[f"V{c}"]:
                failures.append((i, c))
                break
    return not failures, {"hosts": 200, "failures": failures[:5]}


def _case_a_hosts(seed):
    rng = random.Random(seed)
    failures = []
    for i in range(200):
        s, t = rng.randint(4, 10), rng.randint(4, 10)
        if i % 2 == 0:
            # random 2-coloring: a rainbow star needs three colors
            host = ColoredBipartite(
                s, t, 2, [rng.randint(1, 2) for _ in range(s * t)]
            )
        else:
            # block layout on 3..4 colors: every vertex still sees <= 2 colors
            m = rng.choice([3, 4])
            blocks = m - 1
            u_block = [min(u * blocks // s, blocks - 1) for u in range(s)]
            v_block = [min(v * blocks // t, blocks - 1) for v in range(t)]
            colors = []
            for u in range(s):
                for v in range(t):
                    if u_block[u] == v_block[v]:
                        colors.append(u_block[u] + 2)
                    else:
                        colors.append(1)
            host = ColoredBipartite(s, t, m, colors)
        structure = classify_k13_free(host)
        if structure.case != "A":
            failures.append(i)
    return not failures, {"hosts": 200, "failures": failures[:5]}


def _background_spanning(seed):
    rng = random.Random(seed)
    failures = []
    for i in range(100):
        k = (i % 3) + 1
        m = rng.randint(k + 4, k + 6)
        s = rng.randint(m - 1, m + 4)
        t = rng.randint(m - 1, m + 4)
        gen = gen_type_b(s, t, m, seed=seed * 7919 + i)
        w = verify_background_spanning_kconn(gen.host, k)
        if not w.ok:
            failures.append(i)
    return not failures, {"hosts": 100, "failures": failures[:5]}


def _quota_random(seed, samples=DEFAULT_SAMPLES):
    rng = random.Random(seed)
    failures = []
    for i in range(samples):
        n = rng.randint(5, 12)
        m = rng.randint(1, 4)
        colors = [rng.randint(1, m) for _ in range(n * (n - 1) // 2)]
        host = ColoredComplete(n, m, colors)
        total = n + 2 * m - 2
        cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
        quotas = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        result = check_mono_path_quota(host, quotas)
        if not result.ok:
            failures.append((i, n, m, quotas))
        if sum(color_degree_averages(host)) != Fraction(n - 1):
            failures.append((i, "degree identity"))
    return not failures, {"samples": samples, "failures": failures[:5]}


def _kano_li_random(seed):
    rng = random.Random(seed)
    failures = []
    for i in range(300):
        n = rng.randint(6, 12)
        m = rng.randint(2, 3)
        colors = [rng.randint(1, m) for _ in range(n * (n - 1) // 2)]
        host = ColoredComplete(n, m, colors)
        if ceil_div(n, m) < 3:
            continue
        color, witness = kano_li_floor(host)  # raises on violation
        if witness.length < ceil_div(n, m):
            failures.append(i)
    return not failures, {"samples": 300, "failures": failures[:5]}


def _random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return SimpleGraph(n, edges)


def _mader_random(seed):
    rng = random.Random(seed)
    failures = []
    tried = 0
    for i in range(500):
        n = rng.randint(8, 30)
        p = rng.choice([0.3, 0.5, 0.8])
        g = _random_graph(rng, n, p)
        if g.edge_count == 0:
            continue
        tried += 1
        k = ceil_div(g.edge_count, 2 * g.n)
        sub = mader_extract(g)  # raises CertificationError on failure
        if not is_k_connected(sub, k):
            failures.append(i)
    return not failures, {"extractions": tried, "failures": failures[:5]}


def _floors_everywhere(seed):
    rng = random.Random(seed)
    hosts = [
        gen_R1(9, 4).host,
        gen_R2(12, 6).host,
        gen_R1(12, 5).host,
        gen_F1(12, 6, 4).host,
        gen_F2(13, 6, 5).host,
        gen_F3(12, 12, 6).host,
        gen_intro_example(10, 3).host,
        gen_counterexample_4t(1, 20).host,
    ]
    for i in range(200):
        n = rng.randint(4, 12)
        m = rng.randint(2, 4)
        hosts.append(
            ColoredComplete(n, m, [rng.randint(1, m) for _ in range(n * (n - 1) // 2)])
        )
    checked = 0
    for host in hosts:
        if len(host.used_colors()) < 2:
            continue
        gyarfas_floor(host)  # raises on violation
        checked += 1
    return True, {"hosts_checked": checked}


def _degseq_small(seed):
    failures = []
    for n in range(2, 7):
        truth = realizable_degree_sequences(n)
        for raw in combinations_with_replacement(range(n - 1, -1, -1), n):
            seq = tuple(sorted(raw, reverse=True))
            if eg_realizable(seq) != (seq in truth):
                failures.append(seq)
            elif seq in truth:
                g = realize_degree_sequence(seq)
                if g.degree_sequence() != seq:
                    failures.append(seq)
    return not failures, {"max_n": 6, "failures": failures[:5]}


def _degseq_corollary(seed):
    failures = []
    for t in range(1, 6):
        seq = corollary_sequence(t)
        if not eg_realizable(seq):
            failures.append(t)
            continue
        g = realize_degree_sequence(seq)
        if g.degree_sequence() != tuple(sorted(seq, reverse=True)):
            failures.append(t)
    return not failures, {"t_range": [1, 5], "failures": failures}


def _r1_no_asms(seed):
    host = gen_R1(9, 4).host
    color, rep = best_monochromatic(host, k=1, mode="exact")
    return rep.lower >= host.n - 1, {"best_order": rep.lower}


def _gallai_sampler_check(seed):
    failures = []
    for i in range(200):
        n = 4 + (i % 7)
        m = 1 + (i % 4)
        host = sample_gallai(n, m, seed + i)
        if not is_gallai(host):
            failures.append((i, "rainbow triangle"))
        if len(host.used_colors()) != min(m, n - 1):
            failures.append((i, "color count"))
    return not failures, {"samples": 200, "failures": failures[:5]}


def build_registry() -> list[Claim]:
    """All registered claims, in a stable order."""
    claims: list[Claim] = []
    add = claims.append

    # R1 rainbow-freeness (the exclusion list) and found-copies
    for pat in ("K3uP3", "K1_3uP3", "P4plusuP3", "P5uP3"):
        add(
            _rainbow_claim(
                f"R1-free-{pat}",
                f"R1(9,4) admits no rainbow {pat}",
                lambda: gen_R1(9, 4),
                pat,
                expect_free=True,
            )
        )
        add(
            _rainbow_claim(
                f"R1m6-free-{pat}",
                f"R1(18,6) admits no rainbow {pat}",
                lambda: gen_R1(18, 6),
                pat,
                expect_free=True,
            )
        )
    add(
        _rainbow_claim(
            "R1-found-K2uK3",
            "R1(9,4) contains a rainbow K2uK3",
            lambda: gen_R1(9, 4),
            "K2uK3",
            expect_free=False,
        )
    )
    for pat in ("K2uK3", "K2uP5", "K2uP4plus"):
        add(
            _rainbow_claim(
                f"R1m5-found-{pat}",
                f"R1(12,5) contains a rainbow {pat}",
                lambda: gen_R1(12, 5),
                pat,
                expect_free=False,
            )
        )
        add(
            _rainbow_claim(
                f"R2-found-{pat}",
                f"R2(12,6) contains a rainbow {pat}",
                lambda: gen_R2(12, 6),
                pat,
                expect_free=False,
            )
        )
    add(
        _rainbow_claim(
            "R2-free-K2uP6",
            "R2(12,6) admits no rainbow K2uP6",
            lambda: gen_R2(12, 6),
            "K2uP6",
            expect_free=True,
        )
    )
    add(
        _rainbow_claim(
            "R2-free-2P4",
            "R2(12,6) admits no rainbow 2P4",
            lambda: gen_R2(12, 6),
            "2P4",
            expect_free=True,
        )
    )
    add(
        _claim(
            "R1-rainbow-triangles-use-123",
            "every rainbow triangle in R1(9,4) uses exactly colors 1,2,3",
            _r1_triangle_colors,
        )
    )

    # construction sizes
    add(
        _claim(
            "R1-largest-mono-6",
            "largest monochromatic 1-connected subgraph of R1(9,4) has order 6",
            _mono_size(lambda: gen_R1(9, 4), 6),
        )
    )
    add(
        _claim(
            "R2-largest-mono-8",
            "largest monochromatic 1-connected subgraph of R2(12,6) has order 8",
            _mono_size(lambda: gen_R2(12, 6), 8),
        )
    )
    add(
        _claim(
            "R1-no-asms",
            "R1(9,4) has a spanning-size monochromatic connected subgraph",
            _r1_no_asms,
            expected=False,
        )
    )
    add(
        _claim(
            "F1-floor-9",
            "largest monochromatic component of F1(12,6,4) has order 9",
            _component_floor(lambda: gen_F1(12, 6, 4), 9),
        )
    )
    add(
        _claim(
            "F2-largest-mono-12",
            "largest monochromatic 1-connected subgraph of F2(13,6,5) has order 12",
            _mono_size(lambda: gen_F2(13, 6, 5), 12),
        )
    )
    add(
        _claim(
            "F3-largest-mono-12",
            "largest monochromatic 1-connected subgraph of F3(12,12,6) has order 12",
            _mono_size(lambda: gen_F3(12, 12, 6), 12),
        )
    )

    # bipartite rainbow-freeness
    add(
        _rainbow_claim(
            "F1-free-P4",
            "F1(12,6,4) admits no rainbow P4",
            lambda: gen_F1(12, 6, 4),
            "P4",
            expect_free=True,
        )
    )
    add(
        _rainbow_claim(
            "F2-free-4K2",
            "F2(13,6,5) admits no rainbow 4K2",
            lambda: gen_F2(13, 6, 5),
            "4K2",
            expect_free=True,
        )
    )
    add(
        _rainbow_claim(
            "F2-free-K2u2P3",
            "F2(13,6,5) admits no rainbow K2u2P3",
            lambda: gen_F2(13, 6, 5),
            "K2u2P3",
            expect_free=True,
        )
    )
    add(
        _rainbow_claim(
            "F2-found-3K2",
            "F2(13,6,5) contains a rainbow 3K2",
            lambda: gen_F2(13, 6, 5),
            "3K2",
            expect_free=False,
        )
    )
    add(
        _rainbow_claim(
            "F3-free-K1_4",
            "F3(12,12,6) admits no rainbow four-edge star",
            lambda: gen_F3(12, 12, 6),
            "V:5;E:0-1,0-2,0-3,0-4",
            expect_free=True,
        )
    )
    add(
        _rainbow_claim(
            "F3-free-P3uK1_3",
            "F3(12,12,6) admits no rainbow P3uK1_3",
            lambda: gen_F3(12, 12, 6),
            "P3uK1_3",
            expect_free=True,
        )
    )
    add(
        _claim(
            "F3-stars-use-1-and-2",
            "every rainbow three-edge star in F3(12,12,6) uses colors 1 and 2",
            _f3_star_colors,
        )
    )

    # intro example and the 4t counterexample
    add(
        _claim(
            "intro-two-colored-order-9",
            "intro(10,3): best 3-connected two-colored subgraph has order 9",
            _intro_two_colored,
        )
    )
    add(
        _claim(
            "counter4t-t1",
            "counter4t(1,20): Gallai, and every 2-color mask caps 4-connected order at 18",
            _counterexample_claim(1, 20),
        )
    )
    add(
        _claim(
            "counter4t-t2",
            "counter4t(2,40): Gallai, and every 2-color mask caps 8-connected order at 36",
            _counterexample_claim(2, 40),
        )
    )
    add(
        _claim(
            "counter4t-t1-degrees",
            "counter4t(1,20): the two-colored block has the prescribed degree split",
            _counterexample_degrees(1, 20),
        )
    )
    add(
        _claim(
            "counter4t-t2-degrees",
            "counter4t(2,40): the two-colored block has the prescribed degree split",
            _counterexample_degrees(2, 40),
        )
    )

    # Gallai toolkit
    add(
        _claim(
            "gallai-sampler-valid",
            "sampled Gallai colorings are rainbow-triangle-free and use min(m, n-1) colors",
            _gallai_sampler_check,
        )
    )
    add(
        _claim(
            "gallai-2conn-sampled",
            "1000 Gallai 3-colorings of K9 plus constructions all span a "
            "2-connected two-colored subgraph",
            _lemma_sample_claim(2),
        )
    )
    add(
        _claim(
            "gallai-3conn-sampled",
            "1000 Gallai 3-colorings of K9 plus constructions all hold a "
            "3-connected two-colored subgraph of order >= n-1",
            _lemma_sample_claim(3),
        )
    )

    # bipartite structure
    add(
        _claim(
            "typeb-roundtrip",
            "200 planted block hosts classify as case B with the partition recovered",
            _typeb_roundtrip,
        )
    )
    add(
        _claim(
            "caseA-small-palette",
            "200 rainbow-star-free hosts on <= 4 colors classify as case A",
            _case_a_hosts,
        )
    )
    add(
        _claim(
            "background-spanning-kconn",
            "100 block hosts with >= k+4 colors: background color spans k-connected",
            _background_spanning,
        )
    )

    # paths, cycles, degree sequences, dense extraction, floors
    add(
        _claim(
            "path-quota-random",
            "1000 random colorings meet some per-color path quota; color-degree "
            "averages sum to n-1 exactly",
            _quota_random,
        )
    )
    add(
        _claim(
            "cycle-floor-random",
            "300 random colorings: longest monochromatic cycle meets ceil(n/m)",
            _kano_li_random,
        )
    )
    add(
        _claim(
            "mader-random",
            "500 random graphs: extracted subgraph is ceil(avg_degree/4)-connected",
            _mader_random,
        )
    )
    add(
        _claim(
            "component-floors-everywhere",
            "largest monochromatic component meets its floor on constructions "
            "and random hosts",
            _floors_everywhere,
        )
    )
    add(
        _claim(
            "degseq-vs-enumeration",
            "realizability test agrees with exhaustive graph enumeration to n=6",
            _degseq_small,
        )
    )
    add(
        _claim(
            "degseq-two-level",
            "the (2t x 2t, 2t x 2t-1) sequences realize for t=1..5",
            _degseq_corollary,
        )
    )
    return claims


def run_claims(
    pattern: str = "*",
    seed: int = 0,
    registry: list[Claim] | None = None,
) -> list[RunReport]:
    """Run every claim whose id matches the glob; unknown patterns error."""
    registry = registry if registry is not None else build_registry()
    selected = [
        (idx, claim) for idx, claim in enumerate(registry) if fnmatch(claim.id, pattern)
    ]
    if not selected:
        raise ValueError(f"no claim matches {pattern!r}")

    def execute(item):
        idx, claim = item
        derived = seed * 1_000_003 + idx
        start = time.monotonic()
        try:
            holds, witness = claim.run(derived)
            status = "pass" if holds == claim.expected else "fail"
        except Exception:
            status = "error"
            witness = traceback.format_exc(limit=3)
        millis = int((time.monotonic() - start) * 1000)
        return RunReport(claim.id, status, witness, millis, derived)

    return [execute(item) for item in selected]
