"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its wall time.  Run with ``pytest tests/test_acceptance.py -v -s``.

All expected values are pinned exactly (tolerance 0 after the stated
rounding); sampled criteria demand zero failures at full sample counts.
Every criterion except 10 runs a statement of the claim registry
(``claims.py``), either by id or through the claim's factory at this
suite's scale and seed.  Criteria 1-4, 6 and 7 run registry claims by id at
master seed 0, criterion 8 runs the registry's path-quota claim at seed 808,
and criteria 5, 9 and 11 build their claim at more sizes, samples or hosts
than the registry does.  Criterion 10 is the oracle cross-check.
"""

import time

from rainbowfree.claims import (
    build_registry,
    component_floors,
    degseq_vs_enumeration,
    mader_random,
    run_claims,
)
from rainbowfree.crosscheck import micro_crosscheck


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


def run_at(claim, seed):
    """Run one claim at the given seed; it must hold.  Returns its witness."""
    holds, witness = claim.run(seed)
    assert holds, (claim.id, witness)
    return witness


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
        assert run_at(degseq_vs_enumeration(7), 0)["max_n"] == 7
        run_registry("degseq-two-level")


def test_criterion_06_structure_roundtrip():
    with budget("6 block-structure round-trip", 60):
        run_registry("typeb-roundtrip", "caseA-small-palette")


def test_criterion_07_background_spanning():
    with budget("7 background spanning k-connected", 60):
        run_registry("background-spanning-kconn")


def test_criterion_08_path_quotas():
    with budget("8 path quotas", 300):
        (claim,) = [c for c in build_registry() if c.id == "path-quota-random"]
        assert run_at(claim, 808)["samples"] == 1000  # the registry's count, as before


def test_criterion_09_dense_subgraph_extraction():
    with budget("9 dense-subgraph extraction", 300):
        # no graph of the 500 is edgeless, so each one is extracted
        assert run_at(mader_random(5, 500), 909)["extractions"] == 500


def test_criterion_10_oracle_crosschecks():
    with budget("10 oracle cross-checks", 600):
        r = micro_crosscheck(5, 2)
        assert r.ok and r.mode == "full" and r.colorings == 2**10, r.mismatches[:3]
        r = micro_crosscheck(4, 3)
        assert r.ok and r.mode == "full" and r.colorings == 3**6, r.mismatches[:3]
        r = micro_crosscheck(6, 3, seed=10)
        assert r.ok and r.mode == "sampled" and r.colorings == 100_000, r.mismatches[:3]


def test_criterion_11_component_floors():
    labels = ("R1", "R2", "R1m5", "F1", "F2", "F3", "intro", "intro12",
              "counter4t-t1", "counter4t-t2")  # fmt: skip
    with budget("11 monochromatic component floors", 60):
        # one of the 300 random hosts uses a single color and is skipped
        assert run_at(component_floors(labels, 300, 100), 111)["hosts_checked"] == 409
