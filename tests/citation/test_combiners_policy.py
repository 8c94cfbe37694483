"""Tests for record combiners (Example 3.5) and citation policies.

The combiners work on keyed records (``(canonical JSON, record)``
pairs); :func:`~repro.util.jsonutil.union_records` and
:func:`~repro.util.jsonutil.merge_records` over plain dicts are the
reference they must agree with.
"""

import pytest

from repro.citation.combiners import (
    agg_merge,
    agg_union,
    dot_merge,
    dot_union,
    plus_merge,
    plus_union,
    with_neutral,
)
from repro.citation.policy import (
    CitationPolicy,
    compact_policy,
    comprehensive_policy,
    default_order,
    focused_policy,
)
from repro.errors import PolicyError
from repro.util.jsonutil import (
    canonical_json,
    keyed,
    merge_records,
    union_records,
)

FV1 = {"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}
FV2 = {"ID": "11", "Name": "Calcitonin",
       "Text": "The calcitonin peptide family",
       "Contributors": ["Brown", "Smith"]}


def k(*records):
    """Keyed copies of plain records."""
    return [keyed(record) for record in records]


def plain(items):
    """Strip the keys, checking each still matches its record."""
    for key, record in items:
        assert key == canonical_json(record)
    return [record for __, record in items]


class TestDotInterpretations:
    def test_dot_union_keeps_records_apart(self):
        # Example 3.5, first interpretation of ·
        assert plain(dot_union(k(FV1, FV2))) == [FV1, FV2]

    def test_dot_union_dedupes(self):
        assert plain(dot_union(k(FV1, FV1))) == [FV1]

    def test_dot_union_dedupes_equal_content_of_distinct_objects(self):
        # Content equality, as union_records: field order is irrelevant.
        reordered = dict(reversed(list(FV1.items())))
        assert plain(dot_union(k(FV1, reordered))) == [FV1]
        assert union_records([FV1, reordered]) == [FV1]

    def test_dot_merge_factors_common_fields(self):
        # Example 3.5, second interpretation of ·
        merged = plain(dot_merge(k(FV1, FV2)))
        assert merged == [{
            "ID": "11",
            "Name": "Calcitonin",
            "Committee": ["Hay", "Poyner"],
            "Text": "The calcitonin peptide family",
            "Contributors": ["Brown", "Smith"],
        }]
        assert merged == [merge_records([FV1, FV2])]

    def test_dot_merge_single_record_is_itself(self):
        assert plain(dot_merge(k(FV1))) == [merge_records([FV1])]

    def test_dot_merge_empty(self):
        assert dot_merge([]) == []


class TestPlusInterpretations:
    def test_plus_union(self):
        assert plain(plus_union([k(FV1), k(FV2)])) == [FV1, FV2]

    def test_plus_union_matches_union_records(self):
        alternatives = [k(FV1, FV2), k(FV2), k(FV1)]
        assert plain(plus_union(alternatives)) == union_records(
            [FV1, FV2, FV2, FV1]
        )

    def test_plus_merge_reproduces_paper_example(self):
        # {ID, Name, Committee:[Hay,Poyner]} +R
        # {ID, Committee:[Brown], Contributors:[Smith]}
        left = {"ID": "11", "Name": "Calcitonin",
                "Committee": ["Hay", "Poyner"]}
        right = {"ID": "11", "Committee": ["Brown"],
                 "Contributors": ["Smith"]}
        merged = plain(plus_merge([k(left), k(right)]))
        assert merged == [{
            "ID": "11",
            "Name": "Calcitonin",
            "Committee": ["Hay", "Poyner", "Brown"],
            "Contributors": ["Smith"],
        }]

    def test_plus_merge_empty(self):
        assert plus_merge([[], []]) == []

    def test_agg_aliases(self):
        assert plain(agg_union([k(FV1)])) == [FV1]
        assert plain(agg_merge([k(FV1), k(FV2)])) == plain(
            plus_merge([k(FV1), k(FV2)])
        )


class TestNeutral:
    def test_neutral_prepended(self):
        neutral = k({"Owner": "Tony Harmar"})
        assert plain(with_neutral(k(FV1), neutral)) == [
            {"Owner": "Tony Harmar"}, FV1,
        ]

    def test_neutral_with_empty_body(self):
        # Def 3.4: the neutral element appears even for empty outputs.
        neutral = k({"Owner": "Tony Harmar"})
        assert with_neutral([], neutral) == neutral

    def test_neutral_deduped(self):
        assert plain(with_neutral(k(FV1), k(FV1))) == [FV1]


class TestPolicyValidation:
    def test_unknown_dot_rejected(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", dot="nope")

    def test_unknown_plus_rejected(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", plus="nope")

    def test_unknown_plus_r_rejected(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", plus_r="nope")

    def test_unknown_agg_rejected(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", agg="nope")

    def test_best_requires_order(self):
        with pytest.raises(PolicyError):
            CitationPolicy(name="x", plus_r="best", order=None)


class TestShippedPolicies:
    def test_comprehensive(self):
        policy = comprehensive_policy()
        assert policy.plus_r == "union"
        assert policy.order is None
        assert policy.idempotent_plus

    def test_focused(self, registry):
        policy = focused_policy(registry)
        assert policy.plus_r == "best"
        assert policy.order is not None

    def test_compact(self, registry):
        policy = compact_policy(registry)
        assert policy.agg == "merge"

    def test_counted_plus_not_idempotent(self):
        policy = CitationPolicy(name="c", plus="counted")
        assert not policy.idempotent_plus

    def test_default_order_without_registry(self):
        order = default_order(None)
        assert order is not None
