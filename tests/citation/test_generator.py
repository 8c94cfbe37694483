"""Tests for the end-to-end citation engine (Defs 3.1-3.4)."""


from repro.citation.generator import CitationEngine
from repro.citation.policy import CitationPolicy, comprehensive_policy
from repro.citation.tokens import BaseRelationToken, ViewCitationToken
from repro.cq.parser import parse_query

EX22_QUERY = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)'


def vt(name, *params):
    return ViewCitationToken(name, params)


class TestSymbolicPipeline:
    def test_example_33_polynomial(self, comprehensive_engine):
        """The paper's Example 3.3 citation for output tuple ('b')."""
        result = comprehensive_engine.cite(EX22_QUERY)
        polynomial = result.tuples[("b",)].polynomial
        monomials = set(polynomial.monomials())
        # (CV1("13") +R CV4("gpcr")) · CV2("13"), distributed:
        from repro.citation.polynomial import monomial_from_tokens
        assert monomial_from_tokens([vt("V1", "13"), vt("V2", "13")]) \
            in monomials
        assert monomial_from_tokens([vt("V4", "gpcr"), vt("V2", "13")]) \
            in monomials

    def test_per_rewriting_polynomials_aligned(self, comprehensive_engine):
        result = comprehensive_engine.cite(EX22_QUERY)
        tc = result.tuples[("b",)]
        assert len(tc.per_rewriting) == len(result.rewritings)
        for rewriting, polynomial in zip(result.rewritings,
                                         tc.per_rewriting):
            for monomial in polynomial.monomials():
                views_used = {
                    t.view_name for t in monomial.tokens()
                    if isinstance(t, ViewCitationToken)
                }
                declared = {a.view.name for a in rewriting.applications}
                assert views_used <= declared

    def test_output_tuples_match_query_answer(self, db,
                                              comprehensive_engine):
        from repro.cq.evaluation import evaluate_query
        result = comprehensive_engine.cite(EX22_QUERY)
        assert set(result.output_tuples) == set(
            evaluate_query(parse_query(EX22_QUERY), db)
        )

    def test_range_query_cites_like_its_unconstrained_answer(
        self, db, comprehensive_engine
    ):
        """Range-pushed plans run unchanged through the citation
        pipeline: outputs match direct evaluation and every rewriting
        still contributes."""
        from repro.cq.evaluation import evaluate_query
        query = 'Q(N) :- Family(F, N, Ty), F <= "13", FamilyIntro(F, Tx)'
        result = comprehensive_engine.cite(query)
        assert set(result.output_tuples) == set(
            evaluate_query(parse_query(query), db)
        )
        assert result.output_tuples  # the range keeps family 13
        assert all(
            tc.polynomial.monomials() for tc in result.tuples.values()
        )

    def test_multiple_bindings_sum(self, db_with_duplicate, registry):
        """Example 3.2: duplicated family name => + over bindings."""
        engine = CitationEngine(db_with_duplicate, registry,
                                policy=comprehensive_policy())
        result = engine.cite(EX22_QUERY)
        polynomial = result.tuples[("Calcitonin",)].polynomial
        # Families 11 and 19 both named Calcitonin: tokens for both ids.
        params = {
            t.parameters for m in polynomial.monomials()
            for t in m.tokens() if isinstance(t, ViewCitationToken)
            and t.view_name == "V1"
        }
        assert ("11",) in params and ("19",) in params

    def test_plan_independence(self, db, registry):
        """Def 3.3: equivalent queries get identical citations."""
        engine = CitationEngine(db, registry,
                                policy=comprehensive_policy())
        q1 = engine.cite(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)'
        )
        q2 = engine.cite(
            'Q(N) :- FamilyIntro(F, Tx), Family(F, N, "gpcr")'
        )
        for output in q1.tuples:
            assert q1.tuples[output].polynomial == \
                q2.tuples[output].polynomial

    def test_base_relation_tokens_for_uncovered(self, db, registry):
        engine = CitationEngine(db, registry,
                                policy=comprehensive_policy())
        result = engine.cite(
            "Q(N, Pn) :- Family(F, N, Ty), FC(F, C), Person(C, Pn, A)"
        )
        sample = next(iter(result.tuples.values()))
        tokens = {
            t for m in sample.polynomial.monomials() for t in m.tokens()
        }
        assert BaseRelationToken("FC") in tokens
        assert BaseRelationToken("Person") in tokens


class TestExample34:
    """Fully instantiated rewriting + idempotence => single citation."""

    def test_single_citation_for_result_set(self, focused_engine):
        result = focused_engine.cite(
            'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), '
            'Ty = "gpcr"'
        )
        # The preferred rewriting V5("gpcr") is fully instantiated; every
        # tuple carries the same single monomial.
        polynomials = {tc.polynomial for tc in result.tuples.values()}
        assert len(polynomials) == 1
        polynomial = polynomials.pop()
        assert len(polynomial.monomials()) == 1
        assert polynomial.monomials()[0].tokens() == [vt("V5", "gpcr")]
        # Aggregate is that same single citation.
        assert result.aggregate_polynomial == polynomial


class TestRendering:
    def test_records_rendered_from_views(self, focused_engine):
        result = focused_engine.cite(EX22_QUERY)
        body = [r for r in result.records
                if r not in result.database_citation]
        assert any("Contributors" in r or "Committee" in r for r in body)

    def test_database_citation_always_present(self, focused_engine):
        result = focused_engine.cite(
            'Q(N) :- Family(F, N, Ty), Ty = "no-such-type"'
        )
        assert result.tuples == {}
        assert result.records == result.database_citation
        assert result.records[0]["Owner"] == "Tony Harmar"

    def test_database_citation_can_be_disabled(self, db, registry):
        policy = CitationPolicy(name="bare",
                                include_database_citation=False)
        engine = CitationEngine(db, registry, policy=policy)
        result = engine.cite(
            'Q(N) :- Family(F, N, Ty), Ty = "no-such-type"'
        )
        assert result.records == []

    def test_counted_plus_adds_derivation_counts(self, db_with_duplicate,
                                                 registry):
        policy = CitationPolicy(name="counted", plus="counted",
                                dot="merge")
        engine = CitationEngine(db_with_duplicate, registry, policy=policy)
        result = engine.cite("Q(Ty) :- Family(F, N, Ty)")
        # Type 'gpcr' has many derivations; with +R=union the V4 polynomial
        # keeps a count per monomial.
        assert ("gpcr",) in result.tuples

    def test_custom_database_citation(self, db, registry):
        engine = CitationEngine(
            db, registry,
            database_citation=[{"Database": "GtoPdb", "Year": 2016}],
        )
        result = engine.cite(EX22_QUERY)
        assert {"Database": "GtoPdb", "Year": 2016} in result.records


class TestEngineAPI:
    def test_cite_accepts_parsed_query(self, focused_engine):
        query = parse_query(EX22_QUERY)
        result = focused_engine.cite(query)
        assert result.query is query

    def test_cite_sql(self, db, registry):
        engine = CitationEngine(db, registry)
        result = engine.cite_sql(
            "SELECT f.FName FROM Family f WHERE f.Type = 'gpcr'"
        )
        assert ("Calcitonin",) in result.tuples

    def test_cite_view_directly(self, focused_engine):
        record = focused_engine.cite_view("V1", ("11",))
        assert record["Committee"] == ["Hay", "Poyner"]

    def test_refresh_clears_caches(self, registry):
        from repro.gtopdb.sample import paper_database
        db = paper_database()
        engine = CitationEngine(db, registry)
        before = engine.cite('Q(N) :- Family(F, N, Ty), Ty = "vgic"')
        assert len(before.tuples) == 1
        db.insert("Family", "21", "NewFam", "vgic")
        engine.refresh()
        after = engine.cite('Q(N) :- Family(F, N, Ty), Ty = "vgic"')
        assert len(after.tuples) == 2

    def test_mutation_reaches_warm_engine_without_refresh(self, registry):
        from repro.gtopdb.sample import paper_database
        db = paper_database()
        engine = CitationEngine(db, registry)
        before = engine.cite('Q(N) :- Family(F, N, Ty), Ty = "vgic"')
        assert len(before.tuples) == 1
        db.insert("Family", "21", "NewFam", "vgic")
        after = engine.cite('Q(N) :- Family(F, N, Ty), Ty = "vgic"')
        assert len(after.tuples) == 2

    def test_result_repr(self, focused_engine):
        result = focused_engine.cite(EX22_QUERY)
        assert "tuples" in repr(result)

    def test_citation_payload_shape(self, focused_engine):
        payload = focused_engine.cite(EX22_QUERY).citation()
        assert set(payload) == {"query", "policy", "database", "citations"}


def _signature(result):
    """Everything a citation carries, for warm-vs-fresh comparison."""
    return (
        [(tc.output, [repr(p) for p in tc.per_rewriting],
          repr(tc.polynomial), tc.records)
         for tc in result.tuples.values()],
        repr(result.aggregate_polynomial),
        result.records,
    )


class TestWarmEqualsFresh:
    """After a mutation, a warm engine cites exactly what a fresh one
    does: its materialized views and rendered records are keyed on the
    database's stats_version, so no caller has to invalidate them."""

    QUERY = 'Q(N, P) :- Family(F, N, Ty), FC(F, P), Ty = "gpcr"'

    def test_insert_rerenders_cached_records(self, registry):
        from repro.gtopdb.sample import paper_database
        db = paper_database()
        engine = CitationEngine(db, registry, policy=comprehensive_policy())
        engine.cite(self.QUERY)
        db.insert("FC", "11", "p3")
        warm = engine.cite(self.QUERY)
        fresh = CitationEngine(
            db, registry, policy=comprehensive_policy()
        ).cite(self.QUERY)
        assert _signature(warm) == _signature(fresh)
        committees = [record["Committee"] for record in warm.records
                      if record.get("ID") == "11"]
        assert committees == [["Brown", "Hay", "Poyner"]]

    def test_delete_and_batch_and_union(self, registry):
        from repro.gtopdb.sample import paper_database
        db = paper_database()
        union = ('Q(N) :- Family(F, N, Ty), Ty = "gpcr"; '
                 "Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)")
        engine = CitationEngine(db, registry, policy=comprehensive_policy())
        engine.cite_batch([self.QUERY, EX22_QUERY])
        engine.cite_union(union)
        assert db.delete("FC", "11", "p1")
        db.insert("Family", "21", "NewFam", "gpcr")
        fresh = CitationEngine(db, registry, policy=comprehensive_policy())
        warm_batch = engine.cite_batch([self.QUERY, EX22_QUERY])
        fresh_batch = fresh.cite_batch([self.QUERY, EX22_QUERY])
        assert [_signature(r) for r in warm_batch] == [
            _signature(r) for r in fresh_batch
        ]
        assert _signature(engine.cite_union(union)) == _signature(
            fresh.cite_union(union)
        )


class TestRecordDedup:
    def test_equal_records_of_distinct_tokens_collapse(self, db):
        """Union combiners dedupe on record content, not on the token:
        two views with the same citation function render one record."""
        from repro.util.jsonutil import union_records
        from repro.views.citation_view import CitationView
        from repro.views.registry import ViewRegistry

        citation_query = ("lambda F. CV1(F, N, Pn) :- Family(F, N, Ty), "
                          "FC(F, C), Person(C, Pn, A)")
        registry = ViewRegistry(db.schema, [
            CitationView.from_strings(
                view=f"lambda F. {name}(F, N, Ty) :- Family(F, N, Ty)",
                citation_query=citation_query,
                labels=["ID", "Name", "Committee"],
            )
            for name in ("V1", "V1b")
        ])
        engine = CitationEngine(db, registry, policy=comprehensive_policy())
        result = engine.cite('Q(N) :- Family(F, N, Ty), F = "11"')
        citation = result.tuples[("Calcitonin",)]
        cited = {token.view_name
                 for monomial in citation.polynomial.monomials()
                 for token in monomial.tokens()
                 if isinstance(token, ViewCitationToken)}
        assert cited == {"V1", "V1b"}
        v1 = engine.cite_view("V1", ("11",))
        assert citation.records.count(v1) == 1
        assert citation.records == union_records(citation.records)
        assert result.records.count(v1) == 1
