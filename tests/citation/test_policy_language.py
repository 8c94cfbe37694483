"""Tests for the policy specification language (Section 4 open problem)."""

import pytest

from repro.citation.order import LexicographicOrder, ViewInclusionOrder
from repro.citation.policy_language import (
    analyze_policy,
    parse_policy,
)
from repro.errors import PolicyError

SPEC = """
policy curated {
    dot    = merge
    plus   = union
    plusR  = best
    agg    = union
    order  = fewest-uncovered > fewest-views
    neutral = on
}
"""


class TestParsing:
    def test_full_spec(self):
        policy = parse_policy(SPEC)
        assert policy.name == "curated"
        assert policy.dot == "merge"
        assert policy.plus_r == "best"
        assert isinstance(policy.order, LexicographicOrder)

    def test_defaults_applied(self):
        policy = parse_policy("policy minimal { }")
        assert policy.dot == "merge"
        assert policy.plus_r == "union"
        assert policy.order is None
        assert policy.include_database_citation

    def test_single_order(self):
        policy = parse_policy(
            "policy p { plusR = best\n order = fewest-views }"
        )
        assert not isinstance(policy.order, LexicographicOrder)

    def test_view_inclusion_needs_registry(self, registry):
        with pytest.raises(PolicyError):
            parse_policy(
                "policy p { order = view-inclusion }", registry=None
            )
        policy = parse_policy(
            "policy p { order = view-inclusion }", registry=registry
        )
        assert isinstance(policy.order, ViewInclusionOrder)

    def test_neutral_off(self):
        policy = parse_policy("policy p { neutral = off }")
        assert not policy.include_database_citation

    def test_unknown_order_rejected(self):
        with pytest.raises(PolicyError, match="unknown order"):
            parse_policy("policy p { order = alphabetical }")

    def test_bad_syntax_rejected(self):
        for text in (
            "curated { }",                       # missing keyword
            "policy p { dot merge }",            # missing '='
            "policy p { dot = merge",            # missing '}'
            "policy p { } trailing",             # trailing tokens
            "policy p { dot = merge } !",        # bad character
        ):
            with pytest.raises(PolicyError):
                parse_policy(text)

    def test_invalid_interpretation_propagates(self):
        with pytest.raises(PolicyError):
            parse_policy("policy p { dot = sideways }")

    def test_parsed_policy_runs_end_to_end(self, db, registry):
        from repro.citation.generator import CitationEngine
        policy = parse_policy(SPEC, registry=registry)
        engine = CitationEngine(db, registry, policy=policy)
        result = engine.cite(
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
            'Ty = "gpcr"'
        )
        # best +R with the default-style order keeps only V5.
        polynomials = {tc.polynomial for tc in result.tuples.values()}
        assert len(polynomials) == 1


class TestAnalysis:
    def test_comprehensive_analysis(self):
        policy = parse_policy("policy p { plusR = union }")
        analysis = analyze_policy(policy)
        assert analysis.plus_idempotent
        assert analysis.keeps_all_alternatives
        assert analysis.plan_independent

    def test_focused_analysis(self):
        policy = parse_policy(
            "policy p { plusR = best\n order = fewest-views }"
        )
        analysis = analyze_policy(policy)
        assert analysis.single_citation_possible
        assert not analysis.keeps_all_alternatives

    def test_counted_plus_notes(self):
        policy = parse_policy("policy p { plus = counted }")
        analysis = analyze_policy(policy)
        assert not analysis.plus_idempotent
        assert not analysis.single_citation_possible
        assert any("multiplicities" in note for note in analysis.notes)

    def test_neutral_off_warned(self):
        policy = parse_policy("policy p { neutral = off }")
        analysis = analyze_policy(policy)
        assert any("neutral element" in note for note in analysis.notes)

    def test_describe_renders(self):
        analysis = analyze_policy(parse_policy("policy p { }"))
        text = analysis.describe()
        assert "analysis of policy 'p'" in text
        assert "plan-independent: yes" in text
