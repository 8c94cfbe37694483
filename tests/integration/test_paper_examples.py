"""Integration tests reproducing every worked example of the paper.

Each test class corresponds to one experiment id in EXPERIMENTS.md
(E1–E7); assertions encode the paper's claims verbatim.
"""


from repro.citation.generator import CitationEngine
from repro.citation.order import (
    FewestUncoveredOrder,
    FewestViewsOrder,
    ViewInclusionOrder,
)
from repro.citation.polynomial import monomial_from_tokens
from repro.citation.tokens import BaseRelationToken, ViewCitationToken
from repro.cq.parser import parse_query
from repro.rewriting.engine import enumerate_rewritings


def vt(name, *params):
    return ViewCitationToken(name, params)


class TestE1_Example21_CitationViews:
    """E1: the five citation views and their JSON citations."""

    def test_v1_single_tuple_per_valuation(self, db, registry):
        # "V1 and V2 restrict the output to a single tuple since the
        # parameter F corresponds to the key FID."
        for row in db.relation("Family"):
            instance = registry.get("V1").instance(db, [row[0]])
            assert len(instance) == 1

    def test_v3_contains_all_families(self, db, registry):
        assert len(registry.get("V3").instance(db)) == \
            len(db.relation("Family"))

    def test_v4_groups_by_type(self, db, registry):
        gpcr = registry.get("V4").instance(db, ["gpcr"])
        assert {row[2] for row in gpcr} == {"gpcr"}
        assert len(gpcr) > 1  # a subset of tuples, not a single one

    def test_fv1_json(self, db, registry):
        # {ID: "11", Name: "Calcitonin", Committee: ["Hay", "Poyner"]}
        assert registry.get("V1").citation_for(db, ("11",)) == {
            "ID": "11", "Name": "Calcitonin",
            "Committee": ["Hay", "Poyner"],
        }

    def test_fv2_json(self, db, registry):
        assert registry.get("V2").citation_for(db, ("11",)) == {
            "ID": "11", "Name": "Calcitonin",
            "Text": "The calcitonin peptide family",
            "Contributors": ["Brown", "Smith"],
        }

    def test_fv3_json(self, db, registry):
        assert registry.get("V3").citation_for(db) == {
            "URL": "guidetopharmacology.org", "Owner": "Tony Harmar",
        }

    def test_v4_vs_v5_credit_different_people(self, db, registry):
        # "V4 credits the committee members of families, whereas V5
        # credits the contributors who wrote the introductions."
        v4 = registry.get("V4").citation_for(db, ("gpcr",))
        v5 = registry.get("V5").citation_for(db, ("gpcr",))
        v4_calcitonin = next(g for g in v4["Contributors"]
                             if g["Name"] == "Calcitonin")
        v5_calcitonin = next(g for g in v5["Contributors"]
                             if g["Name"] == "Calcitonin")
        assert v4_calcitonin["Committee"] == ["Hay", "Poyner"]
        assert v5_calcitonin["Committee"] == ["Brown", "Smith"]


class TestE2_Example22_Rewritings:
    QUERY = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)'

    def test_both_paper_rewritings_found(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        used = {
            frozenset(a.view.name for a in r.applications)
            for r in rewritings
        }
        assert frozenset({"V1", "V2"}) in used  # the paper's Q1
        assert frozenset({"V4", "V2"}) in used  # the paper's Q2

    def test_absorption_distinguishes_q1_q2(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        q1 = next(r for r in rewritings if {a.view.name for a in
                                            r.applications} == {"V1", "V2"})
        q2 = next(r for r in rewritings if {a.view.name for a in
                                            r.applications} == {"V4", "V2"})
        # "Q2 leads to a more specific citation than Q1 because the
        # comparison predicate matches the lambda term of V4."
        v4_app = next(a for a in q2.applications if a.view.name == "V4")
        assert [repr(t) for t in v4_app.parameter_terms] == ['"gpcr"']
        v1_app = next(a for a in q1.applications if a.view.name == "V1")
        assert v1_app.parameter_terms[0].is_variable

    def test_v4_groups_gpcr_families_into_one_citation(
            self, comprehensive_engine):
        result = comprehensive_engine.cite(self.QUERY)
        # Every output tuple shares the single V4("gpcr") token ...
        v4_tokens = set()
        for tc in result.tuples.values():
            for monomial in tc.polynomial.monomials():
                for token in monomial.tokens():
                    if isinstance(token, ViewCitationToken) and \
                            token.view_name == "V4":
                        v4_tokens.add(token)
        assert v4_tokens == {vt("V4", "gpcr")}
        # ... while V1 tokens differ per family.
        v1_tokens = set()
        for tc in result.tuples.values():
            for monomial in tc.polynomial.monomials():
                for token in monomial.tokens():
                    if isinstance(token, ViewCitationToken) and \
                            token.view_name == "V1":
                        v1_tokens.add(token)
        assert len(v1_tokens) == len(result.tuples)


class TestE3_Example23_Preference:
    QUERY = ('Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
             'Ty = "gpcr"')

    def test_four_rewritings(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        assert len(rewritings) == 4

    def test_all_total(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        assert all(r.is_total for r in rewritings)

    def test_paper_preference_criteria_select_q4(self, registry):
        rewritings = enumerate_rewritings(parse_query(self.QUERY), registry)
        best = min(rewritings, key=lambda r: (
            not r.is_total,                    # (i) total
            r.view_count,                      # (ii) fewest views
            r.residual_comparison_count,       # (iii) absorbed comparison
        ))
        assert [a.view.name for a in best.applications] == ["V5"]

    def test_focused_policy_cites_only_v5(self, focused_engine):
        result = focused_engine.cite(self.QUERY)
        for tc in result.tuples.values():
            tokens = {
                t for m in tc.polynomial.monomials() for t in m.tokens()
            }
            assert tokens == {vt("V5", "gpcr")}


class TestE4_Examples31to33_Semiring:
    QUERY = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)'

    def test_example_31_joint_use(self, comprehensive_engine):
        """cite for one binding = FV1 · FV2 (Definition 3.1)."""
        result = comprehensive_engine.cite(self.QUERY)
        tc = result.tuples[("Calcitonin",)]
        expected = monomial_from_tokens([vt("V1", "11"), vt("V2", "11")])
        assert expected in set(tc.polynomial.monomials())

    def test_example_32_multiple_bindings(self, db_with_duplicate,
                                          registry):
        """Two families named Calcitonin => '+' over two expressions."""
        from repro.citation.policy import comprehensive_policy
        engine = CitationEngine(db_with_duplicate, registry,
                                policy=comprehensive_policy())
        tc = engine.cite(self.QUERY).tuples[("Calcitonin",)]
        m11 = monomial_from_tokens([vt("V1", "11"), vt("V2", "11")])
        m19 = monomial_from_tokens([vt("V1", "19"), vt("V2", "19")])
        monomials = set(tc.polynomial.monomials())
        assert m11 in monomials and m19 in monomials

    def test_example_33_rewriting_sum(self, comprehensive_engine):
        """(CV1("13") +R CV4("gpcr")) · CV2("13") for tuple ('b')."""
        tc = comprehensive_engine.cite(self.QUERY).tuples[("b",)]
        monomials = set(tc.polynomial.monomials())
        assert monomial_from_tokens([vt("V1", "13"), vt("V2", "13")]) \
            in monomials
        assert monomial_from_tokens([vt("V4", "gpcr"), vt("V2", "13")]) \
            in monomials

    def test_example_33_plan_independence(self, db, registry):
        from repro.citation.policy import comprehensive_policy
        engine = CitationEngine(db, registry,
                                policy=comprehensive_policy())
        variants = [
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)',
            'Q(N) :- FamilyIntro(F, Tx), Family(F, N, Ty), Ty = "gpcr"',
            'Q(N) :- Family(F, N, "gpcr"), FamilyIntro(F, Tx)',
        ]
        results = [engine.cite(text) for text in variants]
        for output in results[0].tuples:
            polynomials = {
                r.tuples[output].polynomial for r in results
            }
            assert len(polynomials) == 1


class TestE5_Example34_Idempotence:
    def test_single_citation_for_whole_result(self, focused_engine):
        result = focused_engine.cite(
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
            'Ty = "gpcr"'
        )
        assert len(result.aggregate_polynomial.monomials()) == 1
        # Coefficient 1: idempotent + collapses the per-tuple repeats.
        assert list(result.aggregate_polynomial.terms.values()) == [1]


class TestE6_Example35_Interpretations:
    def test_dot_union_and_merge(self, db, registry):
        fv1 = registry.get("V1").citation_for(db, ("11",))
        fv2 = registry.get("V2").citation_for(db, ("11",))
        from repro.citation.combiners import dot_merge, dot_union
        from repro.util.jsonutil import keyed
        records = [keyed(fv1), keyed(fv2)]
        assert [r for __, r in dot_union(records)] == [fv1, fv2]
        __, merged = dot_merge(records)[0]
        assert merged["Committee"] == ["Hay", "Poyner"]
        assert merged["Contributors"] == ["Brown", "Smith"]
        assert merged["Text"] == "The calcitonin peptide family"


class TestE7_Examples36to38_Orders:
    def test_example_36(self):
        order = FewestViewsOrder()
        m_two = monomial_from_tokens([vt("V1", "13"), vt("V2", "13")])
        m_one = monomial_from_tokens([vt("V5", "gpcr")])
        assert order.strictly_less(m_two, m_one)

    def test_example_37(self):
        order = FewestUncoveredOrder()
        m_covered = monomial_from_tokens([vt("V1", "13")])
        m_uncovered = monomial_from_tokens([
            vt("V1", "13"), BaseRelationToken("FC"),
        ])
        assert order.strictly_less(m_uncovered, m_covered)

    def test_example_38(self, registry):
        order = ViewInclusionOrder(registry)
        general = monomial_from_tokens([vt("V3")])
        specific = monomial_from_tokens([vt("V1", "11")])
        assert order.strictly_less(general, specific)
