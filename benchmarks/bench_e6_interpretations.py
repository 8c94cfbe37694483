"""E6 (Example 3.5): interpretations of `·` and `+R` over JSON records.

Paper claims: `·` as union keeps the two family-11 records side by side;
`·` as join/merge factors out the common fields; `+R` as merge unions the
committee lists.
"""

from repro.citation.combiners import dot_merge, dot_union, plus_merge
from repro.util.jsonutil import keyed

FV1 = {"ID": "11", "Name": "Calcitonin", "Committee": ["Hay", "Poyner"]}
FV2 = {"ID": "11", "Name": "Calcitonin",
       "Text": "The calcitonin peptide family",
       "Contributors": ["Brown", "Smith"]}


def test_e6_dot_union(benchmark):
    result = benchmark(dot_union, [keyed(FV1), keyed(FV2)])
    assert [record for __, record in result] == [FV1, FV2]


def test_e6_dot_merge(benchmark):
    result = benchmark(dot_merge, [keyed(FV1), keyed(FV2)])
    assert [record for __, record in result] == [{
        "ID": "11",
        "Name": "Calcitonin",
        "Committee": ["Hay", "Poyner"],
        "Text": "The calcitonin peptide family",
        "Contributors": ["Brown", "Smith"],
    }]


def test_e6_plus_r_merge(benchmark):
    left = {"ID": "11", "Name": "Calcitonin",
            "Committee": ["Hay", "Poyner"]}
    right = {"ID": "11", "Committee": ["Brown"],
             "Contributors": ["Smith"]}
    result = benchmark(plus_merge, [[keyed(left)], [keyed(right)]])
    assert [record for __, record in result] == [{
        "ID": "11",
        "Name": "Calcitonin",
        "Committee": ["Hay", "Poyner", "Brown"],
        "Contributors": ["Smith"],
    }]


def test_e6_policies_render_differently(benchmark, db, registry):
    from repro.citation.generator import CitationEngine
    from repro.citation.policy import CitationPolicy

    union_policy = CitationPolicy(name="u", dot="union")
    merge_policy = CitationPolicy(name="m", dot="merge")
    query = 'Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "11"'

    def render_both():
        u = CitationEngine(db, registry, policy=union_policy).cite(query)
        m = CitationEngine(db, registry, policy=merge_policy).cite(query)
        return u, m

    union_result, merge_result = benchmark(render_both)
    union_body = [r for r in union_result.records
                  if r not in union_result.database_citation]
    merge_body = [r for r in merge_result.records
                  if r not in merge_result.database_citation]
    # union keeps records apart; merge factors them into fewer records.
    assert len(merge_body) <= len(union_body)
