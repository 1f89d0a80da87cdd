from rainbowfree.claims import build_registry, run_claims
from rainbowfree.crosscheck import micro_crosscheck


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


def test_construction_claims_pass():
    reports = run_claims("*")
    assert len(reports) == len(build_registry())
    for r in reports:
        assert r.status == "pass", (r.claim_id, r.witness)


def test_crosscheck_small_full_spaces():
    r = micro_crosscheck(4, 2)
    assert r.ok and r.mode == "full" and r.colorings == 64
    r = micro_crosscheck(3, 3)
    assert r.ok and r.mode == "full" and r.colorings == 27


def test_crosscheck_sampled_mode():
    r = micro_crosscheck(6, 3, seed=11, budget=400)
    assert r.ok and r.mode == "sampled" and r.colorings == 400
