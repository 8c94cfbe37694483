"""Tests for the GtoPdb substrate: schema, sample, views, generator."""

import pytest

from repro.gtopdb.generator import GtopdbGenerator, generate_database
from repro.gtopdb.schema import gtopdb_schema
from repro.gtopdb.views import paper_registry, paper_views


class TestSchema:
    def test_six_relations(self):
        schema = gtopdb_schema()
        assert set(schema.relation_names) == {
            "Family", "FamilyIntro", "Person", "FC", "FIC", "MetaData",
        }

    def test_keys_match_paper(self):
        schema = gtopdb_schema()
        assert schema.relation("Family").key == ("FID",)
        assert schema.relation("FamilyIntro").key == ("FID",)
        assert schema.relation("Person").key == ("PID",)
        assert schema.relation("FC").key == ("FID", "PID")
        assert schema.relation("MetaData").key == ("Type",)

    def test_foreign_keys_validate(self):
        gtopdb_schema().validate()


class TestSample:
    def test_foreign_keys_hold(self, db):
        db.check_foreign_keys()

    def test_calcitonin_family(self, db):
        row = db.relation("Family").lookup_key(("11",))
        assert row.values == ("11", "Calcitonin", "gpcr")

    def test_metadata_from_paper(self, db):
        values = {row[0]: row[1] for row in db.relation("MetaData")}
        assert values["Owner"] == "Tony Harmar"
        assert values["URL"] == "guidetopharmacology.org"
        assert values["Version"] == "23"

    def test_example_33_family(self, db):
        assert db.relation("Family").lookup_key(("13",)).values == \
            ("13", "b", "gpcr")
        assert db.relation("FamilyIntro").lookup_key(("13",)).values == \
            ("13", "Familyb")

    def test_duplicate_variant(self, db_with_duplicate):
        names = [row[1] for row in db_with_duplicate.relation("Family")]
        assert names.count("Calcitonin") == 2


class TestViews:
    def test_five_views(self):
        assert [v.name for v in paper_views()] == [
            "V1", "V2", "V3", "V4", "V5",
        ]

    def test_fv1_matches_paper(self, db, registry):
        assert registry.get("V1").citation_for(db, ("11",)) == {
            "ID": "11", "Name": "Calcitonin",
            "Committee": ["Hay", "Poyner"],
        }

    def test_fv2_matches_paper(self, db, registry):
        assert registry.get("V2").citation_for(db, ("11",)) == {
            "ID": "11", "Name": "Calcitonin",
            "Text": "The calcitonin peptide family",
            "Contributors": ["Brown", "Smith"],
        }

    def test_fv3_matches_paper(self, db, registry):
        assert registry.get("V3").citation_for(db) == {
            "Owner": "Tony Harmar",
            "URL": "guidetopharmacology.org",
        }

    def test_fv4_nested_structure(self, db, registry):
        record = registry.get("V4").citation_for(db, ("gpcr",))
        assert record["Type"] == "gpcr"
        by_name = {g["Name"]: g["Committee"]
                   for g in record["Contributors"]}
        assert by_name["Calcitonin"] == ["Hay", "Poyner"]
        assert by_name["Calcium-sensing"] == [
            "Bilke", "Conigrave", "Shoback",
        ]

    def test_fv5_credits_contributors_not_committee(self, db, registry):
        record = registry.get("V5").citation_for(db, ("gpcr",))
        by_name = {g["Name"]: g["Committee"]
                   for g in record["Contributors"]}
        # Orexin's intro contributors are Alda & Palmer (not its committee).
        assert by_name["Orexin"] == ["Alda", "Palmer"]

    def test_registry_wraps_schema(self):
        registry = paper_registry()
        assert "Family" in registry.schema


class TestGenerator:
    def test_deterministic(self):
        db1 = generate_database(families=50, seed=42)
        db2 = generate_database(families=50, seed=42)
        assert [r.values for r in db1.relation("Family")] == \
            [r.values for r in db2.relation("Family")]

    def test_seed_changes_output(self):
        db1 = generate_database(families=50, seed=1)
        db2 = generate_database(families=50, seed=2)
        assert [r.values for r in db1.relation("Family")] != \
            [r.values for r in db2.relation("Family")]

    def test_sizes_respected(self):
        db = generate_database(families=80, persons=30)
        assert len(db.relation("Family")) == 80
        assert len(db.relation("Person")) == 30

    def test_foreign_keys_hold(self):
        generate_database(families=60).check_foreign_keys()

    def test_type_skew(self):
        db = generate_database(families=300, types=6, seed=5)
        counts = {}
        for row in db.relation("Family"):
            counts[row[2]] = counts.get(row[2], 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        # Zipf-ish: the largest type clearly dominates the smallest.
        assert ordered[0] >= 3 * ordered[-1]

    def test_intro_fraction(self):
        generator = GtopdbGenerator(families=200, intro_fraction=0.5,
                                    seed=9)
        db = generator.build()
        ratio = len(db.relation("FamilyIntro")) / len(db.relation("Family"))
        assert 0.3 < ratio < 0.7

    def test_views_work_on_generated_data(self, registry):
        db = generate_database(families=40, seed=11)
        record = registry.get("V4").citation_for(db, ("gpcr",))
        assert record["Type"] == "gpcr"
        assert record["Contributors"]

    def test_many_types_get_suffixed_names(self):
        generator = GtopdbGenerator(types=15)
        names = generator.type_names()
        assert len(names) == 15 and len(set(names)) == 15


class TestPortal:
    """The portal path: every page render rides one shared planner."""

    @pytest.fixture()
    def portal(self, db):
        from repro.gtopdb.views import GtoPdbPortal

        return GtoPdbPortal(db)

    def test_page_rows_and_citation_match_direct_path(self, portal, db,
                                                      registry):
        page = portal.page("V1", ("11",))
        assert page.rows == tuple(registry.get("V1").instance(db, ["11"]))
        assert page.citation == registry.get("V1").citation_for(db, ("11",))

    def test_unparameterized_page(self, portal, db):
        page = portal.page("V3")
        assert page.params == ()
        assert page.citation["Owner"] == "Tony Harmar"
        assert len(page.rows) == len(db.relation("Family"))

    def test_page_valuations_enumerate_families(self, portal, db):
        valuations = portal.page_valuations("V1")
        assert len(valuations) == len(db.relation("Family"))
        assert ("11",) in valuations
        assert portal.page_valuations("V3") == ((),)

    def test_render_all_hits_plan_cache(self, portal):
        first = portal.render_all("V1")
        hits_before = portal.planner.hits
        misses_before = portal.planner.misses
        second = portal.render_all("V1")
        assert second == first
        # The warm sweep replans nothing: every page's view and
        # citation queries are cache hits.
        assert portal.planner.misses == misses_before
        assert portal.planner.hits > hits_before

    def test_general_query_citation_delegates_to_engine(self, portal):
        result = portal.cite(
            'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'
        )
        assert result.tuples

    def test_refresh_after_mutation(self, portal, db):
        before = portal.page_valuations("V1")
        db.insert("Family", "88", "Fresh", "gpcr")
        try:
            # Version-keyed caches: the new page shows up without a
            # refresh, and a refresh (cold start) keeps it.
            assert len(portal.page_valuations("V1")) == len(before) + 1
            portal.refresh()
            assert len(portal.page_valuations("V1")) == len(before) + 1
        finally:
            db.delete("Family", "88", "Fresh", "gpcr")
            portal.refresh()

    def test_engine_and_options_are_exclusive(self, db):
        from repro.citation.generator import CitationEngine
        from repro.gtopdb.views import GtoPdbPortal

        engine = CitationEngine(db, paper_registry())
        with pytest.raises(TypeError):
            GtoPdbPortal(db, engine=engine, cache_rewritings=True)
