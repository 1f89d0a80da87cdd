"""The result records: each prints as ``Type(field=value, ...)``, serializes
through its own ``to_json`` (``describe`` for ``Generated``) to a payload
that ``json.dumps`` writes with no ``default=``, its keys in the stated
order, refuses field assignment, and hashes equal when equal; a record with
a dict or list field refuses ``hash()``.  They are NamedTuples, so all of
this but the JSON comes from the tuple."""

import json

import pytest

from rainbowfree.bipartite import BipartiteStructure, SpanningWitness
from rainbowfree.claims import Claim, RunReport
from rainbowfree.connectivity import ConnectivityReport, OrderCapResult
from rainbowfree.constructions import Generated
from rainbowfree.core import ColoredComplete
from rainbowfree.crosscheck import CrosscheckReport
from rainbowfree.gallai import GallaiPartition, TwoColorWitness
from rainbowfree.paths import CycleWitness, PathWitness, QuotaWitness
from rainbowfree.patterns import parse_pattern
from rainbowfree.rainbow import Embedding

# a builder (two calls give equal, distinct records), the repr, the JSON
# (None for the records without one), and whether the fields hash
RECORDS = [
    (
        lambda: Embedding(parse_pattern("K3"), (0, 2, 1), frozenset({1, 2, 3})),
        "Embedding(pattern=Pattern('K3'), mapping=(0, 2, 1), colors=frozenset({1, 2, 3}))",
        {"pattern": "K3", "map": [0, 2, 1], "colors": [1, 2, 3]},
        True,
    ),
    (
        lambda: ConnectivityReport(2, frozenset({1}), (0, 1, 2), 3, 3, True),
        "ConnectivityReport(k=2, mask=frozenset({1}), witness=(0, 1, 2), lower=3, upper=3, exact=True)",
        {"k": 2, "mask": [1], "witness": [0, 1, 2], "lower": 3, "upper": 3, "exact": True},
        True,
    ),
    (
        lambda: OrderCapResult(True, 7),
        "OrderCapResult(ok=True, subsets_checked=7, counterexample=None)",
        None,
        True,
    ),
    (
        lambda: Generated(ColoredComplete(3, 2, [1, 1, 2]), {"A": (0, 1)}, {"kind": "toy"}),
        "Generated(host=ColoredComplete(n=3, m=2), parts={'A': (0, 1)}, spec={'kind': 'toy'})",
        {"spec": {"kind": "toy"}, "parts": {"A": [0, 1]}},
        False,  # dict fields, as before
    ),
    (
        lambda: GallaiPartition(((0,), (1, 2)), ((0, 1, 2),)),
        "GallaiPartition(parts=((0,), (1, 2)), cross_colors=((0, 1, 2),))",
        {"parts": [[0], [1, 2]], "cross_colors": [[0, 1, 2]]},
        True,
    ),
    (
        lambda: TwoColorWitness(True, 2, frozenset({1, 2}), (0, 1, 2)),
        "TwoColorWitness(ok=True, k=2, mask=frozenset({1, 2}), vertices=(0, 1, 2), reason=None)",
        {"ok": True, "k": 2, "mask": [1, 2], "order": 3, "vertices": [0, 1, 2], "reason": None},
        True,
    ),
    (
        lambda: BipartiteStructure("A", frozenset({1, 2})),
        "BipartiteStructure(case='A', colors_used=frozenset({1, 2}), background=None, "
        "renumbering=None, u_parts=None, v_parts=None)",
        {"case": "A", "colors_used": [1, 2]},
        True,
    ),
    (
        lambda: BipartiteStructure("B", frozenset({1, 2}), 2, {2: 1, 1: 2}, {2: (0,)}, {2: (1,)}),
        "BipartiteStructure(case='B', colors_used=frozenset({1, 2}), background=2, "
        "renumbering={2: 1, 1: 2}, u_parts={2: (0,)}, v_parts={2: (1,)})",
        {
            "case": "B",
            "colors_used": [1, 2],
            "background": 2,
            "renumbering": {"1": 2, "2": 1},
            "u_parts": {"2": [0]},
            "v_parts": {"2": [1]},
        },
        False,
    ),
    (
        lambda: SpanningWitness(False, 2, 1, 5, "too small"),
        "SpanningWitness(ok=False, k=2, color=1, order=5, reason='too small')",
        {"ok": False, "k": 2, "color": 1, "order": 5, "reason": "too small"},
        True,
    ),
    (
        lambda: PathWitness(1, (0, 2), True),
        "PathWitness(color=1, vertices=(0, 2), exact=True)",
        {"color": 1, "order": 2, "vertices": [0, 2], "exact": True},
        True,
    ),
    (
        lambda: CycleWitness(2, (0, 1, 3), False),
        "CycleWitness(color=2, vertices=(0, 1, 3), exact=False)",
        {"color": 2, "length": 3, "vertices": [0, 1, 3], "exact": False},
        True,
    ),
    (
        lambda: QuotaWitness(True, 1, PathWitness(1, (0, 2), True)),
        "QuotaWitness(ok=True, color=1, witness=PathWitness(color=1, vertices=(0, 2), exact=True), "
        "reason=None)",
        {
            "ok": True,
            "color": 1,
            "witness": {"color": 1, "order": 2, "vertices": [0, 2], "exact": True},
            "reason": None,
        },
        True,
    ),
    (
        lambda: Claim("toy", "a claim about nothing", abs),
        "Claim(id='toy', provenance='a claim about nothing', run=<built-in function abs>)",
        None,
        True,
    ),
    (
        lambda: RunReport("toy", "pass", "ok", 3, 7),
        "RunReport(claim_id='toy', status='pass', witness='ok', millis=3, seed=7)",
        {"claim_id": "toy", "status": "pass", "witness": "ok", "millis": 3, "seed": 7},
        True,
    ),
    (
        lambda: CrosscheckReport(3, 1, "full", 1, 6, [("path", 1, (1, 1, 1), 3, 0)], 2, 5),
        "CrosscheckReport(max_n=3, max_m=1, mode='full', colorings=1, comparisons=6, "
        "mismatches=[('path', 1, (1, 1, 1), 3, 0)], millis=2, seed=5)",
        {
            "max_n": 3,
            "max_m": 1,
            "mode": "full",
            "colorings": 1,
            "comparisons": 6,
            "mismatches": [("path", 1, (1, 1, 1), 3, 0)],
            "ok": False,
            "millis": 2,
            "seed": 5,
        },
        False,  # a list of mismatches
    ),
]


@pytest.mark.parametrize(
    "build, text, payload, hashable", RECORDS, ids=[r[1].partition("(")[0] for r in RECORDS]
)
def test_record_repr_json_immutability_and_hash(build, text, payload, hashable):
    record, twin = build(), build()
    assert repr(record) == text
    if payload is not None:
        to_json = record.describe if isinstance(record, Generated) else record.to_json
        assert to_json() == payload
        assert json.dumps(to_json()) == json.dumps(payload)  # no default=, same key order
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.unknown_field = 0
    assert record == twin and record is not twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
