"""Mutation-kill suite for the plan verifier.

The verifier is only worth running everywhere if it actually *rejects*
corrupted plans instead of rubber-stamping them.  Each test here takes a
sound plan the planner produced, seeds one corruption of a specific
class — swapped steps, dropped/duplicated/foreign residuals, mislabeled
access paths, broken pushdown accounting, bogus emptiness claims — and
asserts the rulebook kills it with a step-indexed
:class:`~repro.analysis.verifier.PlanVerificationError`.
"""

import dataclasses

import pytest

from repro.analysis.verifier import (
    PlanVerificationError,
    check_plan,
    verify_plan,
    verify_plans,
)
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlanner, plan_query
from repro.cq.terms import Constant, Variable
from repro.cq.ucq import parse_union_query
from repro.relational.database import Database
from repro.relational.schema import RelationSchema, Schema


@pytest.fixture
def db():
    schema = Schema([
        RelationSchema("Big", ["a", "b"]),
        RelationSchema("Small", ["b", "c"]),
    ])
    db = Database(schema)
    db.insert_all("Big", [(i, i % 50) for i in range(200)])
    db.insert_all("Small", [(1, 100), (2, 200)])
    return db


def replace_step(plan, index, **changes):
    steps = list(plan.steps)
    steps[index] = dataclasses.replace(steps[index], **changes)
    return dataclasses.replace(plan, steps=tuple(steps))


def assert_killed(plan, db, *needles):
    with pytest.raises(PlanVerificationError) as excinfo:
        verify_plan(plan)
    rendered = str(excinfo.value)
    assert "step" in rendered
    for needle in needles:
        assert needle in rendered
    assert excinfo.value.violations


class TestSoundPlansPass:
    def test_join_plan(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        assert check_plan(plan_query(q, db)) == []

    def test_pushdown_plans(self, db):
        for text in [
            "Q(A) :- Big(A, B), B = 1",
            "Q(A) :- Big(A, B), B > 10, B < 40",
            "Q(A, C) :- Big(A, B), Small(B, C), A = C",
            "Q(A) :- Big(A, A)",
            "Q(A, B) :- Big(A, B), A > B",
            "Q(A, C) :- Big(A, B), Small(B, C), B >= 1, C = 100",
        ]:
            plan = plan_query(parse_query(text), db)
            assert check_plan(plan) == [], text

    def test_empty_plans(self, db):
        for text in [
            "Q(A) :- Big(A, B), B = 1, B = 2",
            "Q(A) :- Big(A, B), B > 5, B < 2",
            "Q(A) :- Big(A, B), 1 = 2",
        ]:
            plan = plan_query(parse_query(text), db)
            assert plan.empty
            assert check_plan(plan) == [], text

    def test_rebound_plans(self, db):
        planner = QueryPlanner(db, verify="always")
        first = planner.plan(parse_query("Q(X) :- Big(X, Y), Y = 1"))
        second = planner.plan(parse_query("Q(A) :- Big(A, B), B = 1"))
        assert planner.hits >= 1  # the second went through rebinding
        for plan in (first, second):
            assert check_plan(plan) == []

    def test_union_plans(self, db):
        union = parse_union_query(
            "Q(A) :- Big(A, B), B = 1\nQ(A) :- Small(A, C)"
        )
        plans = union.plan(db)
        assert verify_plans(plans) is plans

    def test_verify_plan_returns_the_plan(self, db):
        plan = plan_query(parse_query("Q(A) :- Big(A, B)"), db)
        assert verify_plan(plan) is plan


class TestMutationKill:
    """One corruption class per test; every one must be rejected."""

    def test_swapped_steps_leave_probe_unbound(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, db)
        bad = dataclasses.replace(plan, steps=(plan.steps[1], plan.steps[0]))
        assert_killed(bad, db, "step 1", "not bound by any prior step")

    def test_dropped_residual(self, db):
        q = parse_query("Q(A, B) :- Big(A, B), A > B")
        plan = plan_query(q, db)
        bad = replace_step(plan, 0, comparisons=())
        assert_killed(bad, db, "step 1", "dropped")

    def test_double_applied_residual(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C), A > C")
        plan = plan_query(q, db)
        index = next(
            i for i, step in enumerate(plan.steps) if step.comparisons
        )
        step = plan.steps[index]
        bad = replace_step(
            plan, index, comparisons=step.comparisons + step.comparisons
        )
        assert_killed(bad, db, "double-applied")

    def test_foreign_residual(self, db):
        from repro.cq.atoms import ComparisonAtom
        from repro.relational.expressions import ComparisonOp

        q = parse_query("Q(A, B) :- Big(A, B)")
        plan = plan_query(q, db)
        foreign = ComparisonAtom(
            Variable("A"), ComparisonOp.LT, Constant(10)
        )
        bad = replace_step(plan, 0, comparisons=(foreign,))
        assert_killed(bad, db, "step 1", "does not belong to the query")

    def test_residual_scheduled_before_bound(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C), A > C")
        plan = plan_query(q, db)
        # Move every residual onto step 1, before C is bound.
        comparisons = tuple(
            c for step in plan.steps for c in step.comparisons
        )
        bad = replace_step(plan, 0, comparisons=comparisons)
        bad = replace_step(bad, 1, comparisons=())
        assert_killed(bad, db, "step 1", "not bound by this or any prior")

    def test_mislabel_hash_probe_on_free_position(self, db):
        q = parse_query("Q(A, B) :- Big(A, B)")
        plan = plan_query(q, db)
        bad = replace_step(
            plan,
            0,
            lookup_positions=(0,),
            lookup_terms=(Constant(7),),
            introduces=(plan.steps[0].introduces[1],),
        )
        assert_killed(bad, db, "step 1", "equality class carries no")

    def test_mislabel_range_on_probed_position(self, db):
        q = parse_query("Q(A) :- Big(A, B), B = 1")
        plan = plan_query(q, db)
        step = plan.steps[0]
        position = step.lookup_positions[0]
        from repro.relational.statistics import Interval

        bad = replace_step(
            plan,
            0,
            range_position=position,
            range_interval=Interval(lo=0),
        )
        assert_killed(bad, db, "step 1")

    def test_range_interval_mismatch(self, db):
        q = parse_query("Q(A) :- Big(A, B), B > 10, B < 40")
        plan = plan_query(q, db)
        index, step = next(
            (i, s)
            for i, s in enumerate(plan.steps)
            if s.range_position is not None
        )
        from repro.relational.statistics import Interval

        bad = replace_step(plan, index, range_interval=Interval(lo=999))
        assert_killed(bad, db, f"step {index + 1}", "differs from")

    def test_range_without_interval(self, db):
        q = parse_query("Q(A) :- Big(A, B), B > 10")
        plan = plan_query(q, db)
        index = next(
            i
            for i, s in enumerate(plan.steps)
            if s.range_position is not None
        )
        bad = replace_step(plan, index, range_interval=None)
        assert_killed(bad, db, f"step {index + 1}", "set together")

    def test_dropped_step(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, db)
        bad = dataclasses.replace(plan, steps=plan.steps[:1])
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_plan(bad)
        assert "not evaluated by any step" in str(excinfo.value)

    def test_duplicated_step(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, db)
        bad = dataclasses.replace(
            plan, steps=plan.steps + (plan.steps[1],)
        )
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_plan(bad)
        assert "evaluated by 2 steps" in str(excinfo.value)

    def test_wrong_atom_index(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, db)
        first, second = plan.steps
        bad = dataclasses.replace(
            plan,
            steps=(
                dataclasses.replace(first, atom_index=second.atom_index),
                dataclasses.replace(second, atom_index=first.atom_index),
            ),
        )
        assert_killed(bad, db, "differs from query atom")

    def test_dropped_pushed_equality(self, db):
        q = parse_query("Q(A) :- Big(A, B), B = 1")
        plan = plan_query(q, db)
        bad = dataclasses.replace(plan, pushed=())
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_plan(bad)
        assert "pushed equalities" in str(excinfo.value)

    def test_dropped_pushed_range(self, db):
        q = parse_query("Q(A) :- Big(A, B), B > 10")
        plan = plan_query(q, db)
        bad = dataclasses.replace(plan, pushed_ranges=())
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_plan(bad)
        assert "pushed ranges" in str(excinfo.value)

    def test_bogus_step_pushed_attribution(self, db):
        from repro.cq.atoms import ComparisonAtom
        from repro.relational.expressions import ComparisonOp

        q = parse_query("Q(A, B) :- Big(A, B)")
        plan = plan_query(q, db)
        bogus = ComparisonAtom(Variable("A"), ComparisonOp.EQ, Constant(3))
        bad = replace_step(plan, 0, pushed=(bogus,))
        assert_killed(bad, db, "step 1", "no closure absorbed")

    def test_nonempty_plan_claiming_empty(self, db):
        q = parse_query("Q(A) :- Big(A, B), B = 1")
        plan = plan_query(q, db)
        bad = dataclasses.replace(plan, empty=True,
                                  empty_reason="false ground comparison")
        violations = check_plan(bad)
        assert any("carries join steps" in v for v in violations)
        assert any("every ground comparison" in v for v in violations)

    def test_unknown_empty_reason(self, db):
        q = parse_query("Q(A) :- Big(A, B), B = 1, B = 2")
        plan = plan_query(q, db)
        bad = dataclasses.replace(plan, empty_reason="cosmic rays")
        violations = check_plan(bad)
        assert any("unknown empty reason" in v for v in violations)

    def test_first_step_variable_probe(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, db)
        step = plan.steps[0]
        bad = replace_step(
            plan,
            0,
            lookup_positions=(0,),
            lookup_terms=(Variable("Z"),),
            introduces=step.introduces,
        )
        assert_killed(bad, db, "step 1")

    def test_uncovered_position(self, db):
        q = parse_query("Q(A) :- Big(A, A)")
        plan = plan_query(q, db)
        bad = replace_step(plan, 0, equal_positions=())
        assert_killed(bad, db, "step 1",
                      "neither probed, introduced, nor equality-checked")

    def test_union_disjunct_corruption_is_caught(self, db):
        union = parse_union_query(
            "Q(A) :- Big(A, B), B = 1\nQ(A) :- Small(A, C)"
        )
        plans = list(union.plan(db))
        plans[1] = dataclasses.replace(
            plans[1],
            steps=(dataclasses.replace(plans[1].steps[0], comparisons=(
                plans[0].pushed[0],
            )),),
        )
        with pytest.raises(PlanVerificationError):
            verify_plans(plans)


class TestVerifierModes:
    def test_planner_rejects_bad_mode(self, db):
        with pytest.raises(ValueError):
            QueryPlanner(db, verify="sometimes")

    def test_set_plan_verification_rejects_bad_mode(self):
        from repro.cq.plan import set_plan_verification

        with pytest.raises(ValueError):
            set_plan_verification("sometimes")

    def test_global_switch_round_trips(self, db):
        from repro.cq.plan import plan_verification, set_plan_verification

        before = set_plan_verification("always")
        try:
            plan = plan_query(parse_query("Q(A) :- Big(A, B)"), db)
            assert plan.steps
            assert plan_verification() == "always"
        finally:
            set_plan_verification(before)

    def test_planner_off_overrides_global(self, db):
        from repro.cq.plan import set_plan_verification

        before = set_plan_verification("always")
        try:
            planner = QueryPlanner(db, verify="off")
            plan = planner.plan(parse_query("Q(A) :- Big(A, B)"))
            assert plan.steps
        finally:
            set_plan_verification(before)

    def test_error_message_is_step_indexed_and_lists_all(self, db):
        q = parse_query("Q(A, C) :- Big(A, B), Small(B, C)")
        plan = plan_query(q, db)
        bad = dataclasses.replace(plan, steps=(plan.steps[1], plan.steps[0]))
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_plan(bad)
        assert excinfo.value.plan is bad
        assert len(excinfo.value.violations) >= 1
        assert "violation(s)" in str(excinfo.value)
