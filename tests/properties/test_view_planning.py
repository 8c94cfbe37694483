"""Property: planner-routed view & fixity evaluation ≡ the reference.

The differential harness for the remaining paper query classes:

- **Views** — :meth:`CitationView.instance` / ``citation_rows`` /
  ``citation_for`` and :meth:`ViewRegistry.materialize` with a shared
  :class:`~repro.cq.plan.QueryPlanner` must equal the seed-era direct
  ``evaluate_query`` path exactly (multiset and order), and across
  mutations that invalidate cached plans.
- **Fixity** — :class:`~repro.fixity.temporal.TemporalCitationEngine`
  snapshot-pinned evaluation must equal evaluating the tagged query
  against the temporal database without any planner, and (as sets)
  evaluating the untagged query against the original snapshot; new
  snapshot registrations between runs must never serve stale plans.
  :class:`~repro.fixity.versioned.VersionedCitationEngine` evaluation
  must equal direct evaluation against the reconstructed version.
"""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.evaluation import evaluate_query
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlanner
from repro.fixity.temporal import TemporalCitationEngine, tag_query
from repro.fixity.versioned import (
    VersionedCitationEngine,
    VersionedDatabase,
)
from repro.relational.database import Database
from repro.relational.schema import RelationSchema, Schema
from repro.views.citation_view import CitationView
from repro.views.registry import ViewRegistry

ARITIES = {"R": 2, "S": 2, "T": 3}
VALUES = st.integers(min_value=0, max_value=4)

QUERIES = [
    "Q(A, C) :- R(A, B), S(B, C)",
    "Q(A) :- R(A, B), T(B, A, C)",
    "Q(A, B) :- R(A, B), A < B",
]


def make_schema() -> Schema:
    return Schema([
        RelationSchema(name, [f"c{i}" for i in range(arity)])
        for name, arity in ARITIES.items()
    ])


def make_views() -> list[CitationView]:
    parameterized = CitationView.from_strings(
        view="lambda A. V(A, B) :- R(A, B)",
        citation_query="lambda A. CV(A, C) :- R(A, B), S(B, C)",
        labels=("ID", "Credit"),
    )
    plain = CitationView.from_strings(
        view="W(A, C) :- R(A, B), S(B, C)",
        citation_query="CW(A, B) :- T(A, B, C)",
        labels=("Key", "Val"),
    )
    return [parameterized, plain]


@st.composite
def databases(draw):
    db = Database(make_schema())
    for name, arity in ARITIES.items():
        rows = draw(
            st.lists(st.tuples(*[VALUES] * arity), min_size=0, max_size=8)
        )
        db.insert_all(name, rows)
    return db


@st.composite
def row_batches(draw, relation: str):
    arity = ARITIES[relation]
    return draw(
        st.lists(st.tuples(*[VALUES] * arity), min_size=1, max_size=5)
    )


class TestViewPlanning:
    @given(db=databases())
    @settings(max_examples=50, deadline=None)
    def test_instance_and_citation_rows_planned_equal_reference(self, db):
        """Planner-routed view evaluation is byte-identical to the
        seed-era direct path, for the full extension and for every
        live λ-valuation."""
        planner = QueryPlanner(db)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for view in make_views():
                assert view.instance(db, planner=planner) == view.instance(db)
                assert (
                    view.citation_rows(db, planner=planner)
                    == view.citation_rows(db)
                )
                if view.is_parameterized:
                    positions = view.parameter_positions()
                    for row in view.instance(db):
                        params = [row[i] for i in positions]
                        assert view.instance(
                            db, params=params, planner=planner
                        ) == view.instance(db, params=params)
                        assert view.citation_for(
                            db, tuple(params), planner=planner
                        ) == view.citation_for(db, tuple(params))

    @given(db=databases())
    @settings(max_examples=30, deadline=None)
    def test_materialize_planned_equals_reference(self, db):
        """Registry materialization through a shared planner equals the
        unplanned path, repeatedly (warm cache)."""
        registry = ViewRegistry(make_schema(), make_views())
        reference = registry.materialize(db)
        planner = QueryPlanner(db)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cold = registry.materialize(db, planner=planner)
            warm = registry.materialize(db, planner=planner)
        assert cold == reference
        assert warm == reference
        assert planner.hits > 0  # the warm pass reused every plan

    @given(db=databases(), rows=row_batches("R"))
    @settings(max_examples=40, deadline=None)
    def test_mutations_invalidate_view_plans(self, db, rows):
        """A warm planner never serves pre-mutation plans: post-insert
        and post-delete evaluations match the fresh reference."""
        view = make_views()[0]
        planner = QueryPlanner(db)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            view.instance(db, planner=planner)  # warm the cache
            db.insert_all("R", rows)
            assert view.instance(db, planner=planner) == view.instance(db)
            db.delete("R", *rows[0])
            assert view.instance(db, planner=planner) == view.instance(db)
            assert (
                view.citation_rows(db, planner=planner)
                == view.citation_rows(db)
            )


class TestTemporalPlanning:
    @given(first=databases(), second=databases())
    @settings(max_examples=30, deadline=None)
    def test_snapshot_pinned_evaluation_equals_reference(
        self, first, second
    ):
        """Tag-pinned planned evaluation equals the unplanned tagged
        query, and (as sets) direct evaluation of the snapshot."""
        engine = TemporalCitationEngine(
            make_schema(),
            snapshots=[("t1", first), ("t2", second)],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for text in QUERIES:
                query = parse_query(text)
                for tag, snapshot in (("t1", first), ("t2", second)):
                    planned = engine.evaluate(query, tag)
                    reference = evaluate_query(
                        tag_query(query, tag), engine.db
                    )
                    assert planned == reference  # multiset AND order
                    assert set(planned) == set(
                        evaluate_query(query, snapshot)
                    )

    @given(first=databases(), second=databases())
    @settings(max_examples=25, deadline=None)
    def test_snapshot_registration_invalidates_plans(self, first, second):
        """Registering a snapshot between runs must not serve plans
        costed against the old statistics, and pinned results for old
        tags never change."""
        engine = TemporalCitationEngine(
            make_schema(), snapshots=[("t1", first)]
        )
        query = parse_query(QUERIES[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            before = engine.evaluate(query, "t1")
            engine.register_snapshot("t2", second)
            after = engine.evaluate(query, "t1")
            again = engine.evaluate(query, "t1")
            assert after == before == again
            assert set(engine.evaluate(query, "t2")) == set(
                evaluate_query(query, second)
            )


class TestVersionedPlanning:
    @given(
        initial=st.lists(
            st.tuples(VALUES, VALUES), min_size=0, max_size=8
        ),
        added=st.lists(
            st.tuples(VALUES, VALUES), min_size=1, max_size=5
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_version_pinned_evaluation_equals_reconstruction(
        self, initial, added
    ):
        """Per-version planned evaluation equals direct evaluation of
        the reconstructed state, for every committed version."""
        versioned = VersionedDatabase(make_schema())
        for values in initial:
            versioned.insert("R", *values)
        versioned.insert("S", 1, 2)
        v1 = versioned.commit("r1")
        for values in added:
            versioned.insert("R", *values)
        versioned.insert("S", 2, 3)
        v2 = versioned.commit("r2")
        engine = VersionedCitationEngine(
            versioned, ViewRegistry(make_schema())
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for version in (v1, v2, "r1", "r2", None):
                resolved = versioned.resolve(version)
                reference = evaluate_query(
                    parse_query(QUERIES[0]), versioned.as_of(resolved)
                )
                planned = engine.evaluate(QUERIES[0], version)
                warm = engine.evaluate(QUERIES[0], version)
                assert planned == reference
                assert warm == reference
