import fnmatch
import hashlib
import json

import random

import pytest

from rainbowfree import CertificationError, claims, crosscheck
from rainbowfree.claims import Claim, _sampled, build_registry, run_claims
from rainbowfree.connectivity import ConnectivityReport
from rainbowfree.constructions import gen_F3
from rainbowfree.core import ColoredBipartite, _random_complete
from rainbowfree.crosscheck import micro_crosscheck
from rainbowfree.paths import PathWitness
from rainbowfree.patterns import parse_pattern
from rainbowfree.rainbow import enumerate_rainbow

# A claim's seed derives from its index, so the order is part of the output.
REGISTRY_IDS = [
    "R1-free-K3uP3", "R1m6-free-K3uP3", "R1-free-K1_3uP3", "R1m6-free-K1_3uP3",
    "R1-free-P4plusuP3", "R1m6-free-P4plusuP3", "R1-free-P5uP3", "R1m6-free-P5uP3",
    "R1-found-K2uK3", "R1m5-found-K2uK3", "R2-found-K2uK3", "R1m5-found-K2uP5",
    "R2-found-K2uP5", "R1m5-found-K2uP4plus", "R2-found-K2uP4plus", "R2-free-K2uP6",
    "R2-free-2P4", "R1-rainbow-triangles-use-123", "R1-largest-mono-6",
    "R2-largest-mono-8", "R1-no-asms", "F1-floor-9", "F2-largest-mono-12",
    "F3-largest-mono-12", "F1-free-P4", "F2-free-4K2", "F2-free-K2u2P3",
    "F2-found-3K2", "F3-free-K1_4", "F3-free-P3uK1_3", "F3-stars-use-1-and-2",
    "intro-two-colored-order-9", "counter4t-t1", "counter4t-t2",
    "counter4t-t1-degrees", "counter4t-t2-degrees", "gallai-sampler-valid",
    "gallai-2conn-sampled", "gallai-3conn-sampled", "typeb-roundtrip",
    "caseA-small-palette", "background-spanning-kconn", "path-quota-random",
    "cycle-floor-random", "mader-random", "component-floors-everywhere",
    "degseq-vs-enumeration", "degseq-two-level",
]  # fmt: skip
# sha256 of the canonical JSON of run_claims("*", 0) without timings
REGISTRY_DIGEST = "448a4c1561f4e0860b0aec17e8f619517b28a106169aae2cdd9b2d44cb760818"


def test_registry_ids_unique_and_provenanced():
    registry = build_registry()
    ids = [c.id for c in registry]
    assert len(ids) == len(set(ids))
    assert all(c.provenance for c in registry)


def test_reports_reproducible():
    a = run_claims("R2-*", seed=5)
    b = run_claims("R2-*", seed=5)
    assert [(r.claim_id, r.status, r.seed) for r in a] == [
        (r.claim_id, r.status, r.seed) for r in b
    ]


def test_expected_fail_claim_passes():
    reports = run_claims("R1-no-asms")
    assert reports[0].status == "pass"


def test_runner_statuses_and_derived_seeds():
    def boom(seed):
        raise RuntimeError("boom")

    registry = [
        Claim("holds", "always", lambda seed: (True, seed)),
        Claim("fails", "never", lambda seed: (False, seed)),
        Claim("raises", "crashes", boom),
    ]
    reports = run_claims("*", seed=3, registry=registry)
    assert [(r.claim_id, r.status, r.seed) for r in reports] == [
        ("holds", "pass", 3 * 1_000_003),
        ("fails", "fail", 3 * 1_000_003 + 1),
        ("raises", "error", 3 * 1_000_003 + 2),
    ]
    assert reports[1].witness == 3 * 1_000_003 + 1
    assert "Traceback" in reports[2].witness and "RuntimeError: boom" in reports[2].witness
    # a filtered run keeps each claim's index in the table, and so its seed
    (report,) = run_claims("raises", seed=3, registry=registry)
    assert report.seed == 3 * 1_000_003 + 2


def test_literal_ids_and_globs_select_as_fnmatch_does():
    # a literal id is selected by equality, a glob by fnmatch; both pick
    # exactly what fnmatch.filter picks from the registry's ids, in
    # registry order, and a pattern that picks none is refused
    registry = [claim._replace(run=lambda seed: (True, None)) for claim in build_registry()]
    ids = [claim.id for claim in registry]
    globs = ["*", "R1-*", "R?-free-*", "[FR]2-*", "*-[!f]*", "gallai-?conn-sampled", "[R]1-no-asms"]
    for pattern in ids + globs:
        want = fnmatch.filter(ids, pattern)
        assert want
        assert [r.claim_id for r in run_claims(pattern, registry=registry)] == want, pattern
    for pattern in ["R1", "r1-no-asms", "R1-no-asms ", "R1-no-asm?x", "[x]1-no-asms"]:
        assert not fnmatch.filter(ids, pattern)
        with pytest.raises(ValueError, match=r"^no claim matches "):
            run_claims(pattern, registry=registry)


def test_sampled_counts_applied_samples_and_keeps_five_failures():
    draws = []

    def case(rng, seed, i):
        draws.append(rng.random())
        if i % 3 == 0:
            return None  # does not apply, and its failure is never seen
        return [(seed, i)] if i % 3 == 1 else []

    holds, witness = _sampled("tried", 30, case)(7)
    assert not holds
    assert witness == {"tried": 20, "failures": [(7, 1), (7, 4), (7, 7), (7, 10), (7, 13)]}
    rng = random.Random(7)
    assert draws == [rng.random() for _ in range(30)]
    assert _sampled("tried", 4, lambda rng, seed, i: [])(0) == (True, {"tried": 4, "failures": []})


def test_sampled_gallai_claims_share_no_host(monkeypatch):
    # the two claims' derived seeds are consecutive, so seeding host i with
    # seed + i would check the same hosts twice
    seeds = {}
    sample_gallai = claims.sample_gallai

    def recorded(n, m, seed):
        seeds.setdefault(current, []).append(seed)
        return sample_gallai(n, m, seed)

    monkeypatch.setattr(claims, "DEFAULT_SAMPLES", 40)
    monkeypatch.setattr(claims, "sample_gallai", recorded)
    registry = build_registry()
    for current in ("gallai-2conn-sampled", "gallai-3conn-sampled"):
        (report,) = run_claims(current, registry=registry)
        assert report.status == "pass" and report.witness["samples"] == 40
    two, three = (seeds[c] for c in ("gallai-2conn-sampled", "gallai-3conn-sampled"))
    assert len(set(two)) == len(set(three)) == 40
    assert not set(two) & set(three)


def test_violated_floors_fail_and_name_the_host(monkeypatch):
    # a floor that raises is reported as the claim failing on that host, not
    # as an error: F1(12,6,4) is the only 18-vertex host of the floors claim,
    # and the fourth of the cycle claim's samples is its fourth call
    gyarfas_floor, kano_li_floor = claims.gyarfas_floor, claims.kano_li_floor
    calls = []

    def broken_gyarfas(host):
        if host.vertex_count == 18:
            raise CertificationError("floor violated")
        return gyarfas_floor(host)

    def broken_kano_li(host):
        calls.append(host)
        if len(calls) == 4:
            raise CertificationError("floor violated")
        return kano_li_floor(host)

    monkeypatch.setattr(claims, "gyarfas_floor", broken_gyarfas)
    monkeypatch.setattr(claims, "kano_li_floor", broken_kano_li)
    floors, cycles = run_claims("component-floors-everywhere"), run_claims("cycle-floor-random")
    assert floors[0].status == "fail"
    assert floors[0].witness == {"hosts_checked": 208, "failures": [["F1", 18, 4]]}
    assert cycles[0].status == "fail"
    assert cycles[0].witness == {"samples": 300, "failures": [3]}


def test_star_counts_match_the_enumeration():
    star = parse_pattern("K1_3")
    rng = random.Random(13)
    hosts = [_random_complete(rng, rng.randint(4, 10), rng.randint(1, 6)) for _ in range(40)]
    for _ in range(40):
        s, t, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        hosts.append(ColoredBipartite(s, t, m, [rng.randint(1, m) for _ in range(s * t)]))
    hosts.append(gen_F3(12, 12, 6).host)
    missed = 0
    for host in hosts:
        stars = list(enumerate_rainbow(host, star)) if host.vertex_count >= 4 else []
        missing = sum(not {1, 2} <= e.colors for e in stars)
        assert claims._star_counts(host) == (len(stars), missing), host
        missed += 0 < missing < len(stars)
    assert missed > 10


def test_star_claim_lists_the_stars_that_miss_colors_1_and_2(monkeypatch):
    # F3(12,12,6) with its color-1 edges recolored 3: the claim fails, and
    # lists the failing stars of the enumeration, in its order
    f3 = gen_F3(12, 12, 6).host
    host = ColoredBipartite.from_function(
        12, 12, 6, lambda u, v: 3 if f3.color(u, v) == 1 else f3.color(u, v)
    )
    monkeypatch.setattr(claims, "_host", lambda label: host)
    star = parse_pattern("K1_3")
    stars = list(enumerate_rainbow(host, star))
    bad = [e.to_json() for e in stars if not {1, 2} <= e.colors]
    report = run_claims("F3-stars-use-1-and-2")[0]
    assert report.status == "fail" and bad
    copies = len(stars) * star.automorphisms
    assert report.witness == {"rainbow_stars": copies, "missing_12": bad}


def test_construction_claims_pass():
    reports = run_claims("*")
    assert [r.claim_id for r in reports] == REGISTRY_IDS
    for r in reports:
        assert r.status == "pass", (r.claim_id, r.witness)
    records = [{k: v for k, v in r.to_json().items() if k != "millis"} for r in reports]
    text = json.dumps(records, sort_keys=True, separators=(",", ":"), default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == REGISTRY_DIGEST
    # default=str is never called: a set or record left in a witness would raise
    assert json.dumps(records, sort_keys=True, separators=(",", ":")) == text


def test_crosscheck_small_full_spaces():
    r = micro_crosscheck(4, 2)
    assert r.ok and r.mode == "full" and r.colorings == 64
    r = micro_crosscheck(3, 3)
    assert r.ok and r.mode == "full" and r.colorings == 27


def test_crosscheck_sampled_mode():
    r = micro_crosscheck(6, 3, seed=11, budget=400)
    assert r.ok and r.mode == "sampled" and r.colorings == 400


# micro_crosscheck reports without millis, recorded before the oracles'
# degree bounds: the bounds change no count
CROSSCHECK_REPORTS = [
    ((6, 3, 0, 10), "sampled", 10, 110),
    ((6, 3, 1, 10), "sampled", 10, 110),
    ((6, 3, 2, 10), "sampled", 10, 106),
    ((6, 3, 3, 10), "sampled", 10, 110),
    ((4, 2, 5, 100_000), "full", 64, 1142),
    ((3, 3, 5, 100_000), "full", 27, 417),
    ((4, 3, 5, 100_000), "full", 729, 15804),
]


def test_crosscheck_reports_are_unchanged():
    for (n, m, seed, budget), mode, colorings, comparisons in CROSSCHECK_REPORTS:
        report = micro_crosscheck(n, m, seed, budget=budget).to_json()
        del report["millis"]
        assert report == {
            "max_n": n,
            "max_m": m,
            "mode": mode,
            "colorings": colorings,
            "comparisons": comparisons,
            "mismatches": [],
            "ok": True,
            "seed": seed,
        }


def test_crosscheck_reaches_the_largest_orders():
    # the oracles stop at a proven bound, so sampled K_9 and K_8 colorings
    # finish in well under a second
    r = micro_crosscheck(9, 2, seed=1, budget=200)
    assert r.ok and r.mode == "sampled" and r.colorings == 200
    r = micro_crosscheck(8, 3, seed=1, budget=200)
    assert r.ok and r.mode == "sampled" and r.colorings == 200


def test_crosscheck_samples_k10_colorings():
    # n = 10 is the largest order the oracles finish on every host
    for m in (2, 3):
        r = micro_crosscheck(10, m, seed=2, budget=60)
        assert r.ok and r.mode == "sampled" and r.colorings == 60, r.mismatches[:3]


def test_crosscheck_reports_the_coloring_of_a_mismatch(monkeypatch):
    # a wrong oracle answer is reported as its kind and key, the host's
    # colors, then the fast and slow answers
    monkeypatch.setattr(crosscheck, "oracle_longest_path_order", lambda g: 0)
    r = micro_crosscheck(3, 1)
    assert r.mismatches == [("path", 1, (1, 1, 1), 3, 0)]
    monkeypatch.setattr(crosscheck, "oracle_largest_k_connected", lambda g, k: -1)
    r = micro_crosscheck(3, 1)
    assert r.mismatches[1:] == [("lkc", [1], k, (1, 1, 1), 3 if k < 3 else 0, -1) for k in (1, 2, 3)]


def test_crosscheck_reports_a_wrong_fast_answer_of_every_kind(monkeypatch):
    # each fast answer made wrong in turn is reported under its own kind and
    # key.  Of the 8 colorings of K3 with 2 colors, 6 hold a rainbow P3, they
    # use 14 color classes, and their 32 (mask, k) checks find a k-connected
    # set wherever k is 1, or is 2 on a triangle
    wrong = [
        ("find_rainbow", lambda host, pat: None, ("rainbow", "P3", (1, 1, 2), False, True), 6),
        ("vertex_connectivity", lambda g: -1, ("kappa", 1, (1, 1, 1), -1, 2), 14),
        ("longest_mono_path", lambda host, c: PathWitness(c, (0,), True), ("path", 1, (1, 1, 1), 1, 3), 14),
        (
            "largest_k_connected",
            lambda host, mask, k: ConnectivityReport(k, frozenset(mask), (), 0, 0, True),
            ("lkc", [1], 1, (1, 1, 1), 0, 3),
            32,
        ),
    ]
    for name, answer, head, count in wrong:
        with monkeypatch.context() as patch:
            patch.setattr(crosscheck, name, answer)
            r = micro_crosscheck(3, 2)
        assert r.ok is False and r.mismatches[0] == head and len(r.mismatches) == count, name


def test_crosscheck_refuses_orders_its_oracles_cannot_finish():
    # the oracles' cost grows factorially in n; the refusal comes before the
    # size of the coloring space is computed
    for n in (11, 10**5):
        with pytest.raises(ValueError, match="max_n must be at most 10"):
            micro_crosscheck(n, 1)
