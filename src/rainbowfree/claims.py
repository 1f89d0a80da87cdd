"""Claim registry: each entry binds a generated host (or seeded sampler) to
one checkable property, which passes if and only if it holds, so the whole
battery can run as a batch with reproducible seeds.

Each sampled claim states its own count, from 100 to 1000 samples; per-claim
seeds derive from the master seed through a fixed counter so reports are
reproducible.
"""

from __future__ import annotations

import fnmatch
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    _blocks,
    _split_sizes,
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
from .core import ColoredBipartite, SimpleGraph, _random_complete, ceil_div
from .gallai import (
    NotGallaiError,
    gallai_partition,
    is_gallai,
    sample_gallai,
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


# label -> (title, generator) of the constructions the rainbow claims run on
_HOSTS = {
    "R1": ("R1(9,4)", lambda: gen_R1(9, 4)),
    "R1m6": ("R1(18,6)", lambda: gen_R1(18, 6)),
    "R1m5": ("R1(12,5)", lambda: gen_R1(12, 5)),
    "R2": ("R2(12,6)", lambda: gen_R2(12, 6)),
    "F1": ("F1(12,6,4)", lambda: gen_F1(12, 6, 4)),
    "F2": ("F2(13,6,5)", lambda: gen_F2(13, 6, 5)),
    "F3": ("F3(12,12,6)", lambda: gen_F3(12, 12, 6)),
}


@lru_cache(maxsize=len(_HOSTS))
def _host(label):
    """The construction named ``label``, built once per process: hosts are
    immutable, and the caches they fill are deterministic."""
    return _HOSTS[label][1]().host


def _rainbow_claim(cid, provenance, label, pattern_name, expect_free):
    pat = parse_pattern(pattern_name)

    def run(seed):
        emb = find_rainbow(_host(label), pat)
        if emb is None:
            return expect_free, "rainbow-free"
        return not expect_free, emb.to_json()

    return Claim(cid, provenance, run)


def _free(label, pattern):
    provenance = f"{_HOSTS[label][0]} admits no rainbow {pattern}"
    return _rainbow_claim(f"{label}-free-{pattern}", provenance, label, pattern, True)


def _found(label, pattern):
    provenance = f"{_HOSTS[label][0]} contains a rainbow {pattern}"
    return _rainbow_claim(f"{label}-found-{pattern}", provenance, label, pattern, False)


# ---------------------------------------------------------------------------
# individual claim bodies (the registry at the bottom wires them together)
# ---------------------------------------------------------------------------


# enumerate_rainbow yields each copy once; these two witnesses count rainbow
# maps, the copies times the pattern's automorphisms
def _r1_triangle_colors(seed):
    host = _host("R1")
    k3 = parse_pattern("K3")
    triangles = list(enumerate_rainbow(host, k3))
    bad = [e.to_json() for e in triangles if e.colors != frozenset({1, 2, 3})]
    return (len(triangles) > 0 and not bad), {
        "rainbow_triangles": len(triangles) * k3.automorphisms,
        "off_palette": bad,
    }


def _f3_star_colors(seed):
    host = _host("F3")
    star = parse_pattern("K1_3")
    stars = list(enumerate_rainbow(host, star))
    bad = [e.to_json() for e in stars if not {1, 2} <= e.colors]
    return (len(stars) > 0 and not bad), {
        "rainbow_stars": len(stars) * star.automorphisms,
        "missing_12": bad,
    }


def _largest_mono(label, expect):
    def run(seed):
        color, rep = best_monochromatic(_host(label), k=1)
        return rep.lower == expect, {"color": color, "order": rep.lower, "expected": expect}

    return Claim(
        f"{label}-largest-mono-{expect}",
        f"largest monochromatic 1-connected subgraph of {_HOSTS[label][0]} has order {expect}",
        run,
    )


def _f1_floor(seed):
    color, comp = gyarfas_floor(_host("F1"))
    return len(comp) == 9, {"color": color, "order": len(comp), "expected": 9}


def _intro_two_colored(seed):
    gen = gen_intro_example(10, 3)
    mask, rep = best_two_colored(gen.host, k=3)
    want = 10 - (3 - 1) // 2
    return rep.lower == want, {"mask": sorted(mask), "order": rep.lower, "expected": want}


def _counterexample_claim(t, n):
    k = 4 * t
    cap = n - 2 * t

    def run(seed):
        host = gen_counterexample_4t(t, n).host
        try:
            gallai_partition(host)  # validated before it returns
        except NotGallaiError:
            return False, "not a Gallai coloring"
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

    return Claim(
        f"counter4t-t{t}",
        f"counter4t({t},{n}): Gallai, and every 2-color mask caps "
        f"{k}-connected order at {cap}",
        run,
    )


def _counterexample_degrees(t, n):
    def run(seed):
        gen = gen_counterexample_4t(t, n)
        host = gen.host
        v2 = gen.parts["V2"]
        base = v2[0]
        inside = sum(1 << v for v in v2)
        ones, twos = host.color_masks(1), host.color_masks(2)
        deg1 = {v: (ones[v] & inside).bit_count() for v in v2}
        high = sorted(v for v in v2 if deg1[v] == 2 * t)
        low = sorted(v for v in v2 if deg1[v] == 2 * t - 1)
        ok = len(high) == 2 * t and len(low) == 2 * t
        # complementary statement for color 2 inside V2
        deg2 = {v: (twos[v] & inside).bit_count() for v in v2}
        ok = ok and all(deg2[v] == 2 * t - 1 for v in high)
        ok = ok and all(deg2[v] == 2 * t for v in low)
        return ok, {"degree_2t": len(high), "degree_2t_minus_1": len(low), "base": base}

    return Claim(
        f"counter4t-t{t}-degrees",
        f"counter4t({t},{n}): the two-colored block has the prescribed degree split",
        run,
    )


def _sampled(key, count, case):
    """The run of a sampled claim: one rng seeded by the claim's seed, and
    ``case(rng, seed, i)`` for each i < count.  A case returns its failures
    (empty when the sample holds), or None when the sample does not apply;
    the witness counts the samples that applied and keeps five failures."""

    def run(seed):
        rng = random.Random(seed)
        applied, failures = 0, []
        for i in range(count):
            found = case(rng, seed, i)
            if found is not None:
                applied += 1
                failures += found
        return not failures, {key: applied, "failures": failures[:5]}

    return run


def _gallai_sampler_case(rng, seed, i):
    n, m = 4 + i % 7, 1 + i % 4
    host = sample_gallai(n, m, seed + i)
    failures = [] if is_gallai(host) else [(i, "rainbow triangle")]
    if len(host.used_colors()) != min(m, n - 1):
        failures.append((i, "color count"))
    return failures


def _lemma_sample_claim(k):
    verify = verify_two_color_2connected if k == 2 else verify_two_color_3connected

    def holds(host):  # k = 2 spans the host, k = 3 misses at most one vertex
        w = verify(host)
        return w.ok and w.order >= host.n - (k - 2)

    def case(rng, seed, i):
        # each host's seed comes from the claim's own rng, so the k = 2 and
        # k = 3 claims, whose derived seeds are consecutive, share no host
        return [] if holds(sample_gallai(9, 3, rng.getrandbits(64))) else [i]

    sampled = _sampled("samples", DEFAULT_SAMPLES, case)

    def run(seed):
        _, witness = sampled(seed)
        failures = witness["failures"]
        gens = (
            gen_intro_example(10, 3),
            gen_intro_example(12, 5),
            gen_counterexample_4t(1, 20),
            gen_counterexample_4t(2, 40),
        )
        failures += [f"construction-{j}" for j, gen in enumerate(gens) if not holds(gen.host)]
        del failures[5:]
        return not failures, witness

    return run


def _typeb_case(rng, seed, i):
    m = rng.choice([5, 6, 7, 8])
    s, t = rng.randint(8, 12), rng.randint(8, 12)  # m - 1 <= 7, so blocks always fit
    gen = gen_type_b(s, t, m, seed=seed * 1009 + i)
    structure = classify_k13_free(gen.host)
    if structure.case != "B":
        return [(i, "not case B")]
    for c in range(2, m + 1):
        want = (gen.parts[f"U{c}"], gen.parts[f"V{c}"])
        if (structure.u_parts[c], structure.v_parts[c]) != want:
            return [(i, c)]
    return []


def _small_palette_case(rng, seed, i):
    s, t = rng.randint(4, 10), rng.randint(4, 10)
    if i % 2 == 0:
        # random 2-coloring: a rainbow star needs three colors
        host = ColoredBipartite(s, t, 2, [rng.randint(1, 2) for _ in range(s * t)])
    else:
        # gen_type_b's block layout on 3..4 colors: every vertex sees <= 2 colors
        m = rng.choice([3, 4])
        u_block, _ = _blocks(_split_sizes(s, m - 1))
        v_block, _ = _blocks(_split_sizes(t, m - 1))
        host = ColoredBipartite.from_function(
            s, t, m, lambda u, v: u_block[u] + 2 if u_block[u] == v_block[v] else 1
        )
    return [] if classify_k13_free(host).case == "A" else [i]


def _background_case(rng, seed, i):
    k = i % 3 + 1
    m = rng.randint(k + 4, k + 6)
    s, t = rng.randint(m - 1, m + 4), rng.randint(m - 1, m + 4)
    gen = gen_type_b(s, t, m, seed=seed * 7919 + i)
    return [] if verify_background_spanning_kconn(gen.host, k).ok else [i]


def _quota_case(rng, seed, i):
    n, m = rng.randint(4, 12), rng.randint(1, 4)
    host = _random_complete(rng, n, m)
    total = n + 2 * m - 2
    cuts = sorted(rng.randint(0, total) for _ in range(m - 1))
    quotas = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    res = check_mono_path_quota(host, quotas)
    ok = res.ok and not 2 <= res.witness.order < quotas[res.color - 1]
    failures = [] if ok else [(i, n, m, quotas)]
    if sum(color_degree_averages(host)) != Fraction(n - 1):
        failures.append((i, "degree identity"))
    return failures


def _cycle_floor_case(rng, seed, i):
    n, m = rng.randint(6, 12), rng.randint(2, 3)
    host = _random_complete(rng, n, m)
    floor = ceil_div(n, m)
    # kano_li_floor raises on a violation
    return [] if floor < 3 or kano_li_floor(host)[1].length >= floor else [i]


def _random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return SimpleGraph(n, edges)


def _mader_case(rng, seed, i):
    n = rng.randint(8, 30)
    g = _random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
    if g.edge_count == 0:
        return None
    sub = mader_extract(g)  # raises CertificationError on failure
    return [] if is_k_connected(sub, ceil_div(g.edge_count, 2 * g.n)) else [i]


def _floors_everywhere(seed):
    rng = random.Random(seed)
    hosts = [_host(label) for label in ("R1", "R2", "R1m5", "F1", "F2", "F3")]
    hosts += [gen_intro_example(10, 3).host, gen_counterexample_4t(1, 20).host]
    hosts += [_random_complete(rng, rng.randint(4, 12), rng.randint(2, 4)) for _ in range(200)]
    checked = 0
    for host in hosts:
        if len(host.used_colors()) >= 2:
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
    host = _host("R1")
    color, rep = best_monochromatic(host, k=1)
    return rep.lower < host.n - 1, {"best_order": rep.lower}


def build_registry() -> list[Claim]:
    """All registered claims, in a stable order.  A claim's index seeds it,
    so new claims go at the end."""
    r1_free = ("K3uP3", "K1_3uP3", "P4plusuP3", "P5uP3")
    r_found = ("K2uK3", "K2uP5", "K2uP4plus")
    return [
        # R1/R2 rainbow-freeness (the exclusion list) and found copies
        *[c for pat in r1_free for c in (_free("R1", pat), _free("R1m6", pat))],
        _found("R1", "K2uK3"),
        *[c for pat in r_found for c in (_found("R1m5", pat), _found("R2", pat))],
        _free("R2", "K2uP6"),
        _free("R2", "2P4"),
        Claim(
            "R1-rainbow-triangles-use-123",
            "every rainbow triangle in R1(9,4) uses exactly colors 1,2,3",
            _r1_triangle_colors,
        ),
        # construction sizes
        _largest_mono("R1", 6),
        _largest_mono("R2", 8),
        Claim(
            "R1-no-asms",
            "R1(9,4) has no spanning-size monochromatic connected subgraph",
            _r1_no_asms,
        ),
        Claim(
            "F1-floor-9",
            "largest monochromatic component of F1(12,6,4) has order 9",
            _f1_floor,
        ),
        _largest_mono("F2", 12),
        _largest_mono("F3", 12),
        # bipartite rainbow-freeness
        _free("F1", "P4"),
        _free("F2", "4K2"),
        _free("F2", "K2u2P3"),
        _found("F2", "3K2"),
        _rainbow_claim(
            "F3-free-K1_4",
            "F3(12,12,6) admits no rainbow four-edge star",
            "F3",
            "V:5;E:0-1,0-2,0-3,0-4",
            True,
        ),
        _free("F3", "P3uK1_3"),
        Claim(
            "F3-stars-use-1-and-2",
            "every rainbow three-edge star in F3(12,12,6) uses colors 1 and 2",
            _f3_star_colors,
        ),
        # intro example and the 4t counterexample
        Claim(
            "intro-two-colored-order-9",
            "intro(10,3): best 3-connected two-colored subgraph has order 9",
            _intro_two_colored,
        ),
        _counterexample_claim(1, 20),
        _counterexample_claim(2, 40),
        _counterexample_degrees(1, 20),
        _counterexample_degrees(2, 40),
        # Gallai toolkit
        Claim(
            "gallai-sampler-valid",
            "sampled Gallai colorings are rainbow-triangle-free and use min(m, n-1) colors",
            _sampled("samples", 200, _gallai_sampler_case),
        ),
        Claim(
            "gallai-2conn-sampled",
            "1000 Gallai 3-colorings of K9 plus constructions all span a "
            "2-connected two-colored subgraph",
            _lemma_sample_claim(2),
        ),
        Claim(
            "gallai-3conn-sampled",
            "1000 Gallai 3-colorings of K9 plus constructions all hold a "
            "3-connected two-colored subgraph of order >= n-1",
            _lemma_sample_claim(3),
        ),
        # bipartite structure
        Claim(
            "typeb-roundtrip",
            "200 planted block hosts classify as case B with the partition recovered",
            _sampled("hosts", 200, _typeb_case),
        ),
        Claim(
            "caseA-small-palette",
            "200 rainbow-star-free hosts on <= 4 colors classify as case A",
            _sampled("hosts", 200, _small_palette_case),
        ),
        Claim(
            "background-spanning-kconn",
            "100 block hosts with >= k+4 colors: background color spans k-connected",
            _sampled("hosts", 100, _background_case),
        ),
        # paths, cycles, degree sequences, dense extraction, floors
        Claim(
            "path-quota-random",
            "1000 random colorings meet some per-color path quota; color-degree "
            "averages sum to n-1 exactly",
            _sampled("samples", DEFAULT_SAMPLES, _quota_case),
        ),
        Claim(
            "cycle-floor-random",
            "300 random colorings: longest monochromatic cycle meets ceil(n/m)",
            _sampled("samples", 300, _cycle_floor_case),
        ),
        Claim(
            "mader-random",
            "500 random graphs: extracted subgraph is ceil(avg_degree/4)-connected",
            _sampled("extractions", 500, _mader_case),
        ),
        Claim(
            "component-floors-everywhere",
            "largest monochromatic component meets its floor on constructions "
            "and random hosts",
            _floors_everywhere,
        ),
        Claim(
            "degseq-vs-enumeration",
            "realizability test agrees with exhaustive graph enumeration to n=6",
            _degseq_small,
        ),
        Claim(
            "degseq-two-level",
            "the (2t x 2t, 2t x 2t-1) sequences realize for t=1..5",
            _degseq_corollary,
        ),
    ]


def run_claims(
    pattern: str = "*",
    seed: int = 0,
    registry: list[Claim] | None = None,
) -> list[RunReport]:
    """Run every claim whose id matches the glob; unknown patterns error."""
    registry = registry if registry is not None else build_registry()
    matched = set(fnmatch.filter([claim.id for claim in registry], pattern))
    selected = [(idx, claim) for idx, claim in enumerate(registry) if claim.id in matched]
    if not selected:
        raise ValueError(f"no claim matches {pattern!r}")
    reports = []
    for idx, claim in selected:
        derived = seed * 1_000_003 + idx
        start = time.monotonic()
        try:
            holds, witness = claim.run(derived)
            status = "pass" if holds else "fail"
        except Exception:
            status, witness = "error", traceback.format_exc(limit=3)
        millis = int((time.monotonic() - start) * 1000)
        reports.append(RunReport(claim.id, status, witness, millis, derived))
    return reports
