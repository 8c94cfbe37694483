"""Property: planner-routed UCQ evaluation ≡ the seed reference path.

The differential harness for the union query class: evaluating a
:class:`~repro.cq.ucq.UnionQuery` through the cost-based pipeline — a
shared :class:`~repro.cq.plan.QueryPlanner`, cross-disjunct prefix
reservation in the :class:`~repro.cq.subplan.SubplanMemo` — must
reproduce the seed-era per-disjunct evaluation *exactly*: same rows,
same multiset, same first-derivation order.  The greedy reference evaluator
(:func:`~repro.cq.evaluation.reference_bindings`) pins the set
semantics independently of any planner choice, and mutation sequences
between runs exercise the ``stats_version`` invalidation path.
"""

import warnings
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.atoms import ComparisonAtom, RelationalAtom
from repro.cq.evaluation import (
    evaluate_query,
    head_tuple,
    reference_bindings,
)
from repro.cq.plan import QueryPlanner
from repro.cq.query import ConjunctiveQuery
from repro.cq.subplan import SubplanMemo
from repro.cq.terms import Constant, Variable
from repro.cq.ucq import UnionQuery
from repro.relational.database import Database
from repro.relational.expressions import ComparisonOp
from repro.relational.schema import RelationSchema, Schema
from repro.relational.tuples import Row

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
def disjuncts(draw, head_arity: int):
    """One safe conjunctive disjunct with a fixed head arity."""
    atom_count = draw(st.integers(1, 3))
    atoms = []
    for index in range(atom_count):
        relation = draw(st.sampled_from(sorted(ARITIES)))
        terms = []
        for position in range(ARITIES[relation]):
            if index == 0 and position == 0:
                # Guarantee at least one variable so a head exists.
                terms.append(draw(st.sampled_from(VARIABLES)))
            else:
                terms.append(draw(st.one_of(
                    st.sampled_from(VARIABLES),
                    st.builds(Constant, VALUES),
                )))
        atoms.append(RelationalAtom(relation, terms))
    relational_vars = sorted({v for atom in atoms for v in atom.variables()})
    comparisons = []
    for __ in range(draw(st.integers(0, 2))):
        left = draw(st.sampled_from(relational_vars))
        right = draw(st.one_of(
            st.sampled_from(relational_vars),
            st.builds(Constant, VALUES),
        ))
        op = draw(st.sampled_from(list(ComparisonOp)))
        comparisons.append(ComparisonAtom(left, op, right))
    head = draw(st.lists(
        st.sampled_from(relational_vars),
        min_size=head_arity, max_size=head_arity,
    ))
    return ConjunctiveQuery("Q", head, atoms, comparisons)


@st.composite
def unions(draw):
    head_arity = draw(st.integers(1, 2))
    count = draw(st.integers(2, 3))
    return UnionQuery([
        draw(disjuncts(head_arity)) for __ in range(count)
    ])


@st.composite
def mutation_sequences(draw):
    """A random program of insert / delete / bulk-load mutations."""
    ops = []
    live: list[tuple[str, tuple[int, ...]]] = []
    for __ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["insert", "bulk", "delete"]))
        relation = draw(st.sampled_from(sorted(ARITIES)))
        arity = ARITIES[relation]
        if kind == "insert":
            values = tuple(
                draw(st.integers(0, 4)) for __ in range(arity)
            )
            ops.append(("insert", relation, values))
            live.append((relation, values))
        elif kind == "bulk":
            base = draw(st.integers(0, 4))
            size = draw(st.integers(1, 10))
            rows = [
                tuple((base + i + p) % 5 for p in range(arity))
                for i in range(size)
            ]
            ops.append(("bulk", relation, rows))
            live.extend((relation, values) for values in rows)
        elif live:
            target = draw(st.sampled_from(live))
            ops.append(("delete", target[0], target[1]))
    return ops


def apply_mutations(db: Database, ops) -> None:
    for kind, relation, payload in ops:
        if kind == "insert":
            db.insert(relation, *payload)
        elif kind == "bulk":
            db.insert_all(relation, payload)
        else:
            db.relation(relation).delete(Row(relation, payload))


def seed_reference(union: UnionQuery, db: Database):
    """The seed-era path: per-disjunct evaluation, dedup in order."""
    seen: dict[tuple, None] = {}
    for disjunct in union.disjuncts:
        for row in evaluate_query(disjunct, db):
            seen.setdefault(row)
    return list(seen)


def greedy_reference(union: UnionQuery, db: Database):
    """Planner-independent set semantics via the greedy evaluator."""
    rows = set()
    for disjunct in union.disjuncts:
        for binding in reference_bindings(disjunct, db):
            rows.add(head_tuple(disjunct, binding))
    return rows


class TestPlannedEqualsReference:
    @given(db=databases(), union=unions())
    @settings(max_examples=60, deadline=None)
    def test_serial_planned_memoized(self, db, union):
        """Planner + memo routing reproduces the seed path exactly
        (multiset and order) and the greedy evaluator's set."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = seed_reference(union, db)
            planner = QueryPlanner(db)
            memo = SubplanMemo()
            cold = union.evaluate(db, planner, memo)
            warm = union.evaluate(db, planner, memo)
            greedy = greedy_reference(union, db)
        assert cold == reference  # multiset AND order
        assert warm == reference
        assert Counter(cold) == Counter(reference)
        assert set(cold) == greedy

    @given(db=databases(), union=unions(), ops=mutation_sequences())
    @settings(max_examples=40, deadline=None)
    def test_mutations_between_runs(self, db, union, ops):
        """Warm planner/memo state never leaks across mutations: the
        post-mutation evaluation matches a fresh reference."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            planner = QueryPlanner(db)
            memo = SubplanMemo()
            before = union.evaluate(db, planner, memo)
            assert before == seed_reference(union, db)

            apply_mutations(db, ops)
            after = union.evaluate(db, planner, memo)
            again = union.evaluate(db, planner, memo)
            reference = seed_reference(union, db)
        assert after == reference
        assert again == reference
        assert set(after) == greedy_reference(union, db)
