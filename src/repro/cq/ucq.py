"""Unions of conjunctive queries (the U in SPJU).

Section 3.1 restricts attention to **SPJU** queries: select, project,
join, *union*.  Alternative disjuncts of a union are classic "+"
combinations — the same alternative-use semantics as multiple bindings —
so the citation of a UCQ result tuple is the ``+`` of the citations it
receives from each disjunct that produces it.

A :class:`UnionQuery` is a named list of conjunctive disjuncts with
union-compatible heads.  The concrete syntax stacks rules with the same
head predicate::

    Q(N) :- Family(F, N, Ty), Ty = "gpcr"
    Q(N) :- Family(F, N, Ty), Ty = "vgic"

Evaluation routes every disjunct through the cost-based pipeline
(statistics → plan → executor): :meth:`UnionQuery.plan` builds one
:class:`~repro.cq.plan.QueryPlan` per disjunct — through a shared
:class:`~repro.cq.plan.QueryPlanner` when one is given, so repeated
union traffic hits the α-equivalence plan cache — and
:meth:`UnionQuery.evaluate` executes them through the cross-query
sub-plan memo: disjuncts of one union overlap heavily by construction
(they are variations on one head shape), so their common join prefixes
are reserved in the :class:`~repro.cq.subplan.SubplanMemo` and
materialized once per evaluation instead of once per disjunct.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Any

from repro.cq.containment import is_contained_in
from repro.cq.evaluation import head_tuple
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlan, QueryPlanner, plan_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.subplan import (
    SubplanMemo,
    execute_plan_shared,
    explain_with_memo,
    reserve_shared_prefixes,
)
from repro.errors import QueryError
from repro.relational.database import Database


class UnionQuery:
    """A union of conjunctive queries with a shared head shape."""

    def __init__(self, disjuncts: Sequence[ConjunctiveQuery]) -> None:
        if not disjuncts:
            raise QueryError("a union query needs at least one disjunct")
        arities = {len(q.head) for q in disjuncts}
        if len(arities) != 1:
            raise QueryError(
                f"union disjuncts must share head arity, got {arities}"
            )
        for disjunct in disjuncts:
            if disjunct.is_parameterized:
                raise QueryError(
                    "union disjuncts must be unparameterized"
                )
        self.disjuncts: tuple[ConjunctiveQuery, ...] = tuple(disjuncts)
        self.name = disjuncts[0].name

    # -- inspection -----------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.disjuncts[0].head)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def __repr__(self) -> str:
        return "\n".join(repr(q) for q in self.disjuncts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnionQuery):
            return NotImplemented
        return self.disjuncts == other.disjuncts

    def __hash__(self) -> int:
        return hash(self.disjuncts)

    # -- semantics ---------------------------------------------------------------

    def plan(
        self,
        db: Database,
        planner: QueryPlanner | None = None,
        virtual: Any = None,
    ) -> tuple[QueryPlan, ...]:
        """One cost-based plan per disjunct.

        With a ``planner`` each disjunct goes through the shared
        α-equivalence plan cache (:meth:`QueryPlanner.plan_union`);
        without one the disjuncts are planned from scratch.
        """
        if planner is not None:
            return planner.plan_union(self, virtual)
        return tuple(
            plan_query(disjunct, db, virtual) for disjunct in self.disjuncts
        )

    def evaluate(
        self,
        db: Database,
        planner: QueryPlanner | None = None,
        memo: SubplanMemo | None = None,
        virtual: Any = None,
    ) -> list[tuple[Any, ...]]:
        """Set-semantics union of the disjuncts' results.

        Rows are deduplicated in first-derivation order — disjuncts in
        declaration order, bindings in the executor's (deterministic)
        order within each disjunct — which matches the seed-era
        per-disjunct evaluation exactly.

        Parameters
        ----------
        db:
            The database instance.
        planner:
            When given, disjunct plans come from (and fill) its shared
            plan cache.
        memo:
            When given, the disjuncts' common join prefixes are reserved
            in the sub-plan memo and materialized once per evaluation
            (:func:`~repro.cq.subplan.reserve_shared_prefixes`); later
            disjuncts — and later evaluations, until data mutations
            invalidate the entries — seed from the stored bindings.
        virtual:
            Optional virtual relations visible to the disjunct bodies.
        """
        plans = self.plan(db, planner, virtual)
        if memo is not None:
            reserve_shared_prefixes(plans, memo)
        seen: dict[tuple[Any, ...], None] = {}
        for disjunct, plan in zip(self.disjuncts, plans):
            for binding in execute_plan_shared(plan, db, virtual, memo):
                seen.setdefault(head_tuple(disjunct, binding))
        return list(seen)

    def explain(
        self,
        db: Database,
        planner: QueryPlanner | None = None,
        memo: SubplanMemo | None = None,
        virtual: Any = None,
        diagnostics: Any = None,
    ) -> str:
        """Per-disjunct EXPLAIN with the memo's shared-prefix view.

        Renders each disjunct's plan; with a ``memo`` the disjuncts'
        common prefixes are reserved first, so every disjunct whose plan
        shares a prefix with a sibling carries a ``shared prefix:`` line
        (reserved on a cold memo, ``reused from memo`` once an
        evaluation has materialized the bindings).  ``diagnostics``
        (findings from :func:`repro.analysis.diagnostics.analyze_union`)
        are appended as a trailing section.
        """
        plans = self.plan(db, planner, virtual)
        if memo is not None:
            reserve_shared_prefixes(plans, memo)
        sections = []
        for number, plan in enumerate(plans, start=1):
            rendered = (
                explain_with_memo(plan, memo, db, virtual)
                if memo is not None
                else plan.explain()
            )
            sections.append(f"disjunct {number}/{len(plans)}: {rendered}")
        if diagnostics:
            findings = "\n".join(f.describe() for f in diagnostics)
            sections.append(f"diagnostics:\n{findings}")
        return "\n".join(sections)

    def minimized(self) -> "UnionQuery":
        """Remove disjuncts contained in another disjunct.

        The UCQ analogue of core minimization: a disjunct subsumed by a
        sibling contributes nothing to the union.
        """
        kept: list[ConjunctiveQuery] = []
        for index, disjunct in enumerate(self.disjuncts):
            subsumed = False
            for other_index, other in enumerate(self.disjuncts):
                if index == other_index:
                    continue
                if not is_contained_in(disjunct, other):
                    continue
                # Contained in an earlier disjunct, or strictly contained
                # in a later one: drop.  (Mutually equivalent disjuncts
                # keep the first.)
                if other_index < index or not is_contained_in(
                        other, disjunct):
                    subsumed = True
                    break
            if not subsumed:
                kept.append(disjunct)
        return UnionQuery(kept)


def parse_union_query(text: str, default_name: str = "Q") -> UnionQuery:
    """Parse a stack of rules (one per line / separated by ``;``)."""
    rules = []
    for chunk in text.replace(";", "\n").splitlines():
        chunk = chunk.strip()
        if chunk:
            rules.append(parse_query(chunk, default_name))
    if not rules:
        raise QueryError("no rules found in union query text")
    names = {rule.name for rule in rules}
    if len(names) != 1:
        raise QueryError(
            f"union rules must share a head predicate, got {sorted(names)}"
        )
    return UnionQuery(rules)
