"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its wall time.  Run with ``pytest tests/test_acceptance.py -v -s``.

All expected values are pinned exactly (tolerance 0 after the stated
rounding); sampled criteria demand zero failures at full sample counts.
Criteria 1-4, 6 and 7 run their claims from the registry (``claims.py``),
and so does criterion 5 for the two-level sequences (t = 1..5).  Criterion 8
runs the registry's path-quota claim under its own seed.  Criteria 5
(its enumeration up to n = 7), 9 and 11 keep their own bodies because they
are stricter than the registry's copies (more sizes, samples or hosts);
criterion 10 is the oracle cross-check.
"""

import random
import time
from itertools import combinations, combinations_with_replacement

from rainbowfree.claims import build_registry, run_claims
from rainbowfree.connectivity import gyarfas_floor, is_k_connected, mader_extract
from rainbowfree.constructions import (
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
from rainbowfree.core import SimpleGraph, _random_complete, ceil_div
from rainbowfree.crosscheck import micro_crosscheck
from rainbowfree.gallai import sample_gallai
from rainbowfree.oracles import realizable_degree_sequences


class budget:
    """Context manager: times a criterion, prints its PASS/FAIL line, and
    enforces the stated wall-time budget."""

    def __init__(self, name, seconds=None):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        limit = f" (budget {self.seconds:.0f}s)" if self.seconds else ""
        print(f"[{status}] {self.name}: {elapsed:.2f}s{limit}")
        if exc_type is None and self.seconds is not None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        return False


def run_registry(*ids):
    """Run the named registry claims at master seed 0; all must pass."""
    registry = build_registry()
    for cid in ids:
        (report,) = run_claims(cid, 0, registry)
        assert report.status == "pass", (cid, report.witness)


def test_criterion_01_construction_sizes():
    with budget("1 construction sizes", 5):
        run_registry(
            "R1-largest-mono-6", "R2-largest-mono-8", "F1-floor-9",
            "F2-largest-mono-12", "F3-largest-mono-12",
        )  # fmt: skip


def test_criterion_02_rainbow_freeness_suite():
    with budget("2 rainbow-freeness suite", 10):
        run_registry(
            "R2-free-K2uP6",
            "R1-free-K3uP3", "R1-free-K1_3uP3", "R1-free-P4plusuP3", "R1-free-P5uP3",
            "R1-found-K2uK3", "R1m5-found-K2uK3", "R2-found-K2uK3",
            "R1m5-found-K2uP5", "R2-found-K2uP5",
            "R1m5-found-K2uP4plus", "R2-found-K2uP4plus",
            "F1-free-P4", "F3-free-K1_4", "F2-free-4K2", "F2-free-K2u2P3",
        )  # fmt: skip


def test_criterion_03_counterexample_caps():
    # each claim also checks the host is Gallai and validates its partition
    with budget("3 counterexample two-color caps", 30):
        run_registry("counter4t-t1", "counter4t-t2")


def test_criterion_04_two_color_witnesses_sampled():
    with budget("4 two-color witness sampling", 120):
        run_registry("gallai-2conn-sampled", "gallai-3conn-sampled")


def test_criterion_05_degree_sequences():
    with budget("5 degree-sequence module", 60):
        for n in range(1, 8):
            truth = realizable_degree_sequences(n)
            for raw in combinations_with_replacement(range(n - 1, -1, -1), n):
                seq = tuple(sorted(raw, reverse=True))
                assert eg_realizable(seq) == (seq in truth), (n, seq)
                if seq in truth:
                    assert realize_degree_sequence(seq).degree_sequence() == seq
        run_registry("degseq-two-level")


def test_criterion_06_structure_roundtrip():
    with budget("6 block-structure round-trip", 60):
        run_registry("typeb-roundtrip", "caseA-small-palette")


def test_criterion_07_background_spanning():
    with budget("7 background spanning k-connected", 60):
        run_registry("background-spanning-kconn")


def test_criterion_08_path_quotas():
    with budget("8 path quotas and degree identity", 300):
        (claim,) = [c for c in build_registry() if c.id == "path-quota-random"]
        holds, witness = claim.run(808)
        assert holds, witness
        assert witness["samples"] == 1000  # the registry's count, as before


def test_criterion_09_dense_subgraph_extraction():
    with budget("9 dense-subgraph extraction", 300):
        rng = random.Random(909)
        done = 0
        while done < 500:
            n = rng.randint(5, 30)
            p = rng.choice([0.3, 0.5, 0.8])
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            g = SimpleGraph(n, edges)
            if g.edge_count == 0:
                continue
            k = ceil_div(g.edge_count, 2 * g.n)
            sub = mader_extract(g)  # raises CertificationError on failure
            assert is_k_connected(sub, k), (n, p)
            done += 1


def test_criterion_10_oracle_crosschecks():
    with budget("10 oracle cross-checks", 600):
        r = micro_crosscheck(5, 2)
        assert r.ok and r.mode == "full" and r.colorings == 2**10, r.mismatches[:3]
        r = micro_crosscheck(4, 3)
        assert r.ok and r.mode == "full" and r.colorings == 3**6, r.mismatches[:3]
        r = micro_crosscheck(6, 3, seed=10)
        assert r.ok and r.mode == "sampled" and r.colorings == 100_000, r.mismatches[:3]


def test_criterion_11_component_floors():
    with budget("11 monochromatic component floors", 60):
        hosts = [
            gen_R1(9, 4).host,
            gen_R2(12, 6).host,
            gen_R1(12, 5).host,
            gen_F1(12, 6, 4).host,
            gen_F2(13, 6, 5).host,
            gen_F3(12, 12, 6).host,
            gen_intro_example(10, 3).host,
            gen_intro_example(12, 5).host,
            gen_counterexample_4t(1, 20).host,
            gen_counterexample_4t(2, 40).host,
        ]
        rng = random.Random(111)
        for _ in range(300):
            n, m = rng.randint(4, 12), rng.randint(2, 4)
            hosts.append(_random_complete(rng, n, m))
        for seed in range(100):
            hosts.append(sample_gallai(rng.randint(5, 10), 3, seed))
        checked = 0
        for host in hosts:
            if len(host.used_colors()) < 2:
                continue
            gyarfas_floor(host)  # raises CertificationError on a violation
            checked += 1
        assert checked >= 300
