"""Property: a warm engine cites exactly what a fresh engine cites.

A Hypothesis state machine keeps one long-lived
:class:`~repro.citation.generator.CitationEngine` over the paper's GtoPdb
instance and interleaves writes — ``insert``, ``delete`` and bulk
``insert_many`` of ``FC`` and ``Family`` rows from a fixed pool — with
``cite``, ``cite_batch`` and ``cite_union`` over fixed queries.  After
every citation the warm result must equal a fresh engine's on the same
database: the tuples, each tuple's per-rewriting and combined
polynomials and records, the aggregate polynomial, and the aggregated
records.  Every data-derived cache (plans, rewritings, the sub-plan
memo, the materialized views, the rendered records) is keyed on
``stats_version``, so no write may leave a warm cache serving stale
state.  The machine runs under the comprehensive and the focused policy.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.citation.generator import CitationEngine
from repro.citation.policy import comprehensive_policy, focused_policy
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_registry

#: Rows the writes draw from.  Family keys are distinct across the pool,
#: so no write can hit a key violation; some rows are already present.
POOLS = {
    "FC": [
        ("11", "p3"), ("11", "p1"), ("12", "p1"), ("13", "p4"),
        ("14", "p9"), ("20", "p10"), ("30", "p2"),
    ],
    "Family": [
        ("13", "b", "gpcr"), ("20", "CatSper", "vgic"),
        ("30", "Apelin", "gpcr"), ("31", "Kv", "vgic"),
    ],
}
ROWS = st.sampled_from([
    (relation, row) for relation, rows in POOLS.items() for row in rows
])

COMMITTEE = 'Q(N, P) :- Family(F, N, Ty), FC(F, P), Ty = "gpcr"'
VGIC_COMMITTEE = 'Q(N, P) :- Family(F, N, Ty), FC(F, P), Ty = "vgic"'
INTRO = "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)"
GPCR = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'
QUERIES = [COMMITTEE, VGIC_COMMITTEE, INTRO, GPCR]
UNIONS = [f"{COMMITTEE} ; {VGIC_COMMITTEE}", f"{COMMITTEE} ; {INTRO}"]


def snapshot(result):
    """Everything a citation result says, in comparable form."""
    return (
        [
            (
                output,
                [repr(p) for p in citation.per_rewriting],
                repr(citation.polynomial),
                citation.records,
            )
            for output, citation in result.tuples.items()
        ],
        repr(result.aggregate_polynomial),
        result.records,
    )


class WarmEqualsFresh(RuleBasedStateMachine):
    @staticmethod
    def policy(registry):
        return comprehensive_policy()

    @initialize()
    def build(self):
        self.db = paper_database()
        self.registry = paper_registry()
        self.engine = self.new_engine()

    def new_engine(self):
        return CitationEngine(
            self.db, self.registry, policy=self.policy(self.registry)
        )

    @rule(entry=ROWS)
    def insert(self, entry):
        relation, row = entry
        self.db.insert(relation, *row)

    @rule(entry=ROWS)
    def delete(self, entry):
        relation, row = entry
        self.db.delete(relation, *row)

    @rule(relation=st.sampled_from(sorted(POOLS)), data=st.data())
    def insert_many(self, relation, data):
        rows = data.draw(st.lists(
            st.sampled_from(POOLS[relation]), unique=True, max_size=4
        ))
        self.db.insert_all(relation, rows)

    @rule(query=st.sampled_from(QUERIES))
    def cite(self, query):
        assert snapshot(self.engine.cite(query)) == snapshot(
            self.new_engine().cite(query)
        )

    @rule(queries=st.lists(st.sampled_from(QUERIES), min_size=1,
                           max_size=4))
    def cite_batch(self, queries):
        warm = [snapshot(r) for r in self.engine.cite_batch(queries)]
        fresh = [snapshot(r) for r in self.new_engine().cite_batch(queries)]
        assert warm == fresh

    @rule(union=st.sampled_from(UNIONS))
    def cite_union(self, union):
        assert snapshot(self.engine.cite_union(union)) == snapshot(
            self.new_engine().cite_union(union)
        )


class FocusedWarmEqualsFresh(WarmEqualsFresh):
    @staticmethod
    def policy(registry):
        return focused_policy(registry)


MACHINE_SETTINGS = settings(
    max_examples=25, stateful_step_count=12, deadline=None
)
TestComprehensiveWarmEqualsFresh = WarmEqualsFresh.TestCase
TestComprehensiveWarmEqualsFresh.settings = MACHINE_SETTINGS
TestFocusedWarmEqualsFresh = FocusedWarmEqualsFresh.TestCase
TestFocusedWarmEqualsFresh.settings = MACHINE_SETTINGS
