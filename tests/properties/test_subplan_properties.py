"""Property: cross-query sub-plan sharing never changes results.

Sharing a memoized prefix (:mod:`repro.cq.subplan`) must be invisible to
every consumer: the binding stream of a seeded execution equals the
plain executor's stream *exactly* — same multiset (what the citation
model counts, Def 3.2) and same order (what first-derivation grouping
and record ordering depend on) — on cold and warm memos, and after
data mutations that invalidate the stored bindings.  The batch entry
point (:meth:`CitationEngine.cite_batch`) must likewise produce
citation-identical results with sharing on and off.
"""

import warnings
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citation.generator import CitationEngine
from repro.cq.atoms import ComparisonAtom, RelationalAtom
from repro.cq.evaluation import reference_bindings
from repro.cq.executor import execute_plan
from repro.cq.plan import QueryPlanner, prefix_keys
from repro.cq.query import ConjunctiveQuery
from repro.cq.subplan import SubplanMemo, execute_plan_shared
from repro.cq.terms import Constant, Variable
from repro.relational.database import Database
from repro.relational.expressions import ComparisonOp
from repro.relational.schema import RelationSchema, Schema
from repro.views.registry import ViewRegistry

ARITIES = {"R": 2, "S": 2, "T": 3}
VALUES = st.integers(min_value=0, max_value=4)
VARIABLES = [Variable(f"X{i}") for i in range(6)]


def make_schema() -> Schema:
    return Schema([
        RelationSchema(name, [f"c{i}" for i in range(arity)])
        for name, arity in ARITIES.items()
    ])


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
def queries(draw):
    atom_count = draw(st.integers(1, 3))
    atoms = []
    for __ in range(atom_count):
        relation = draw(st.sampled_from(sorted(ARITIES)))
        terms = [
            draw(st.one_of(
                st.sampled_from(VARIABLES),
                st.builds(Constant, VALUES),
            ))
            for __ in range(ARITIES[relation])
        ]
        atoms.append(RelationalAtom(relation, terms))
    relational_vars = sorted({v for atom in atoms for v in atom.variables()})
    comparisons = []
    if relational_vars:
        for __ in range(draw(st.integers(0, 2))):
            left = draw(st.sampled_from(relational_vars))
            right = draw(st.one_of(
                st.sampled_from(relational_vars),
                st.builds(Constant, VALUES),
            ))
            op = draw(st.sampled_from(list(ComparisonOp)))
            comparisons.append(ComparisonAtom(left, op, right))
    if relational_vars:
        head_size = draw(st.integers(1, min(3, len(relational_vars))))
        head = draw(st.lists(
            st.sampled_from(relational_vars),
            min_size=head_size, max_size=head_size,
        ))
    else:
        head = []
    return ConjunctiveQuery("Q", head, atoms, comparisons)


def binding_key(binding):
    return tuple(sorted((var.name, value) for var, value in binding.items()))


def plain_sequence(plan, db):
    return [binding_key(b) for b in execute_plan(plan, db)]


def shared_sequence(plan, db, memo):
    return [
        binding_key(b) for b in execute_plan_shared(plan, db, memo=memo)
    ]


def memo_with_all_prefixes(plan):
    memo = SubplanMemo()
    if not plan.empty:
        for key in prefix_keys(plan)[0]:
            memo.reserve(key)
    return memo


@settings(max_examples=80, deadline=None)
@given(db=databases(), query=queries())
def test_shared_execution_equals_plain_exactly(db, query):
    """Storing (cold memo) and seeding (warm memo) both reproduce the
    plain executor's binding sequence exactly, and the multiset matches
    the reference evaluator."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = QueryPlanner(db).plan(query)
        memo = memo_with_all_prefixes(plan)
        baseline = plain_sequence(plan, db)
        cold = shared_sequence(plan, db, memo)
        warm = shared_sequence(plan, db, memo)
        reference = Counter(
            binding_key(b) for b in reference_bindings(query, db)
        )
    assert cold == baseline
    assert warm == baseline
    assert Counter(baseline) == reference
    if plan.steps and not plan.empty:
        assert memo.hits >= 1


@settings(max_examples=60, deadline=None)
@given(
    db=databases(),
    query=queries(),
    rows=st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=3),
)
def test_mutations_invalidate_memoized_prefixes(db, query, rows):
    """After inserts the memo must not serve stale bindings: a fresh
    plan's shared execution equals the reference on the mutated data."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        planner = QueryPlanner(db)
        plan = planner.plan(query)
        memo = memo_with_all_prefixes(plan)
        shared_sequence(plan, db, memo)  # populate the memo

        db.insert_all("R", rows)
        plan = planner.plan(query)  # replanned for the new statistics
        for key in prefix_keys(plan)[0]:
            memo.reserve(key)
        mutated = shared_sequence(plan, db, memo)
        again = shared_sequence(plan, db, memo)
        reference = Counter(
            binding_key(b) for b in reference_bindings(query, db)
        )
    assert Counter(mutated) == reference
    assert again == mutated
    assert mutated == plain_sequence(plan, db)


@settings(max_examples=25, deadline=None)
@given(
    db=databases(),
    batch=st.lists(queries(), min_size=2, max_size=4),
)
def test_cite_batch_shared_equals_unshared(db, batch):
    """The batch entry point: citation results are identical with
    sub-plan sharing on and off, in batch order."""
    registry = ViewRegistry(make_schema())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shared = CitationEngine(db, registry, share_subplans=True)
        unshared = CitationEngine(db, registry, share_subplans=False)
        shared_results = shared.cite_batch(batch)
        unshared_results = unshared.cite_batch(batch)
    assert unshared.subplan_memo.hits == 0
    for left, right in zip(shared_results, unshared_results):
        assert left.citation() == right.citation()
        assert list(left.tuples) == list(right.tuples)
        for output, tc in left.tuples.items():
            assert tc.polynomial == right.tuples[output].polynomial
