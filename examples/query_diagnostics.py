"""Static analysis for queries and plans: diagnostics and the verifier.

Run with::

    python -m examples.query_diagnostics

The scenario: a query author keeps getting empty citations and wants to
know whether the database is missing data or the query is wrong.  The
diagnostics layer answers without running anything — each finding
carries a stable ``QA`` code — and the plan verifier demonstrates the
planner's structural safety net.
"""

import dataclasses

from repro.analysis import (
    PlanVerificationError,
    analyze_query,
    analyze_union,
    render_diagnostics,
    verify_plan,
)
from repro.cq.parser import parse_query
from repro.cq.plan import plan_query
from repro.cq.ucq import parse_union_query
from repro.relational.database import Database
from repro.relational.schema import RelationSchema, Schema


def build_database() -> Database:
    """A small laboratory inventory: samples, batches, labels."""
    schema = Schema([
        RelationSchema("Sample", ["SID", "Batch", "Mass"], key=["SID"]),
        RelationSchema("Batch", ["BID", "Site"], key=["BID"]),
        RelationSchema("Label", ["Text"]),
    ])
    db = Database(schema)
    db.insert_all("Sample", [
        (i, i % 4, 10.0 + i) for i in range(40)
    ])
    db.insert_all("Batch", [(b, f"site-{b % 2}") for b in range(4)])
    db.insert_all("Label", [("fragile",), ("bulk",)])
    return db


def show(title: str, text: str) -> None:
    print(f"=== {title} ===")
    print(text)
    print()


def main() -> None:
    db = build_database()

    # A healthy join: nothing to report beyond advisory lints.
    healthy = parse_query(
        "Q(S, Site) :- Sample(S, B, M), Batch(B, Site), M > 20"
    )
    show("healthy query", render_diagnostics(analyze_query(healthy, db)))

    # Contradictory equalities: the query provably returns no rows
    # (QA201), so `repro cite` refuses it with exit status 3 instead of
    # producing an empty citation.
    contradiction = parse_query(
        "Q(S) :- Sample(S, B, M), B = 1, B = 2"
    )
    show(
        "contradictory equalities",
        render_diagnostics(analyze_query(contradiction, db)),
    )

    # An empty range interval (QA202): the two bounds close an
    # impossible window, provable before touching any data.
    empty_range = parse_query(
        "Q(S) :- Sample(S, B, M), M > 30, M < 20"
    )
    show(
        "empty range interval",
        render_diagnostics(analyze_query(empty_range, db)),
    )

    # A cartesian product step (QA101): the Label atom shares no
    # variable with Sample, so the plan multiplies the two relations.
    cartesian = parse_query(
        "Q(S, T) :- Sample(S, B, M), Label(T)"
    )
    show(
        "cartesian product",
        render_diagnostics(analyze_query(cartesian, db)),
    )

    # Mixed-type comparison (QA105): Label.Text holds strings, so a
    # numeric range can never use the ordered access path and warns at
    # run time.
    mixed = parse_query("Q(T) :- Label(T), T > 7")
    show("mixed-type comparison", render_diagnostics(analyze_query(mixed, db)))

    # Union-level lints: the first disjunct is subsumed by the second
    # (QA102 — every row it returns, the second returns too), and a
    # provably-empty disjunct is only a warning (QA110) because the
    # union still answers.
    union = parse_union_query(
        "Q(S) :- Sample(S, B, M), B = 1\n"
        "Q(S) :- Sample(S, B, M)\n"
        "Q(S) :- Sample(S, B, M), B = 5, B = 6"
    )
    show("union diagnostics", render_diagnostics(analyze_union(union, db)))

    # The plan verifier: sound plans pass untouched...
    plan = plan_query(healthy, db)
    verify_plan(plan)
    print("=== plan verifier ===")
    print("sound plan: verified clean")

    # ...and a corrupted plan (here: the join steps swapped, so step 1
    # probes a variable nothing has bound yet) is rejected with
    # step-indexed violations.
    corrupted = dataclasses.replace(
        plan, steps=(plan.steps[1], plan.steps[0])
    )
    try:
        verify_plan(corrupted)
    except PlanVerificationError as error:
        print("corrupted plan rejected:")
        for violation in error.violations[:3]:
            print(f"  - {violation}")


if __name__ == "__main__":
    main()
