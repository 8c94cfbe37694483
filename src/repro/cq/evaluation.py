"""Conjunctive-query evaluation over a relational database.

Evaluation enumerates all *bindings* (valuations of body variables that
satisfy every relational and comparison atom) and projects them onto the
head.  Bindings — not just head tuples — are first-class here because the
citation model (paper, Def 3.1/3.2) sums citations *per binding*: every
binding that yields an output tuple contributes one monomial.

Since the planner refactor this module is a thin facade over the
three-stage pipeline:

- :mod:`repro.relational.statistics` — per-relation cardinality,
  distinct counts, and order statistics (min/max, equi-depth
  histograms), maintained incrementally;
- :mod:`repro.cq.plan` — cost-based join ordering and static access
  paths (:func:`~repro.cq.plan.plan_query`), with equality comparisons
  pushed into hash-index probes and range comparisons pushed into
  ordered (sorted-index) access paths, cached across α-equivalent
  queries by :class:`~repro.cq.plan.QueryPlanner`;
- :mod:`repro.cq.executor` — iterator-style operators streaming the
  bindings.

:func:`reference_bindings` keeps the old stats-blind greedy
index-nested-loop interpreter as an executable specification: property
tests assert the planned executor produces binding-for-binding identical
results, and the planner benchmark uses it as the baseline.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator, Mapping, Sequence
from typing import Any

from repro.analysis import sanitizer as _sanitizer
from repro.cq.atoms import ComparisonAtom, RelationalAtom
from repro.cq.executor import Binding, IndexedVirtualRelations, execute_plan
from repro.cq.plan import QueryPlan, QueryPlanner, plan_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.subplan import SubplanMemo, execute_plan_shared
from repro.cq.terms import Constant, Variable
from repro.errors import QueryError
from repro.relational.database import Database

#: Virtual relations: name -> list of value tuples (used to evaluate
#: rewritings whose atoms reference views).
VirtualRelations = Mapping[str, Sequence[tuple[Any, ...]]]


def enumerate_bindings(
    query: ConjunctiveQuery,
    db: Database,
    virtual: VirtualRelations | None = None,
    planner: QueryPlanner | None = None,
    *,
    plan: QueryPlan | None = None,
    memo: "SubplanMemo | None" = None,
) -> Iterator[Binding]:
    """Yield every satisfying binding of the query's body variables.

    Bindings are the paper's valuations (Def 2.1 semantics): every
    assignment of body variables satisfying all relational and comparison
    atoms, one per derivation (duplicates included — Def 3.2 counts them).

    Parameters
    ----------
    query:
        The conjunctive query; must be safe and non-parameterized
        (instantiate λ-parameters first via
        :meth:`~repro.cq.query.ConjunctiveQuery.instantiate`).
    db:
        The database instance to evaluate against.
    virtual:
        Extra virtual relations (materialized view instances) visible to
        the query body.  Plain mappings are re-wrapped (and re-indexed,
        re-fingerprinted) on every call; callers replaying queries over
        the same materialization should pass one long-lived
        :class:`~repro.cq.executor.IndexedVirtualRelations` instead, the
        way :class:`~repro.citation.generator.CitationEngine` does, so
        indexes and plan-cache content hashes are computed once.
    planner:
        When given, its plan cache is consulted (and filled); otherwise
        the query is planned from scratch — still cheap, but workloads
        should share a :class:`~repro.cq.plan.QueryPlanner`.
    plan:
        A plan already built for exactly this ``query`` / ``virtual``
        pair (the batch layer pre-plans while grouping shared prefixes);
        skips the planner call — and its hit/miss accounting — entirely.
    memo:
        A :class:`~repro.cq.subplan.SubplanMemo` for cross-query shared
        sub-plan execution; ``None`` runs the plan standalone.

    Yields
    ------
    dict mapping every body :class:`~repro.cq.terms.Variable` to a value.
    """
    indexed = IndexedVirtualRelations.wrap(virtual)
    if plan is None:
        if planner is not None:
            plan = planner.plan(query, indexed)
        else:
            plan = plan_query(query, db, indexed)
    if memo is not None:
        yield from execute_plan_shared(plan, db, indexed, memo)
    else:
        yield from execute_plan(plan, db, indexed)


def head_tuple(query: ConjunctiveQuery, binding: Binding) -> tuple[Any, ...]:
    """Project a binding onto the query head."""
    result = []
    for term in query.head:
        if isinstance(term, Constant):
            result.append(term.value)
        else:
            result.append(binding[term])
    return tuple(result)


def evaluate_query(
    query: ConjunctiveQuery,
    db: Database,
    params: Sequence[Any] | None = None,
    virtual: VirtualRelations | None = None,
    planner: QueryPlanner | None = None,
) -> list[tuple[Any, ...]]:
    """Evaluate a query under set semantics (the paper's Def 2.1).

    This is the user-facing query result — the head projection of every
    satisfying binding, deduplicated.  (The citation pipeline uses
    :func:`evaluate_with_bindings` instead, because Defs 3.1/3.2 cite per
    *binding*, not per output tuple.)

    Parameters
    ----------
    query:
        The conjunctive query.  If parameterized, ``params`` must supply a
        valuation.
    db:
        The database instance.
    params:
        λ-parameter values (the paper's ``V(Y)(a1..an)`` application,
        Def 2.1).
    virtual:
        Extra virtual relations visible to the query body.
    planner:
        Optional shared plan cache.

    Returns
    -------
    list of head-value tuples, deduplicated, in first-derivation order.
    """
    if params is not None:
        query = query.instantiate(params)
    results: dict[tuple[Any, ...], None] = {}
    for binding in enumerate_bindings(query, db, virtual, planner):
        results.setdefault(head_tuple(query, binding))
    return list(results)


def evaluate_with_bindings(
    query: ConjunctiveQuery,
    db: Database,
    params: Sequence[Any] | None = None,
    virtual: VirtualRelations | None = None,
    planner: QueryPlanner | None = None,
    *,
    plan: QueryPlan | None = None,
    memo: SubplanMemo | None = None,
) -> dict[tuple[Any, ...], list[Binding]]:
    """Evaluate and group all satisfying bindings by output tuple.

    This is the paper's ``β_t`` (Def 3.2): the list of bindings yielding
    each output tuple ``t``, duplicates preserved — the citation engine
    sums one monomial per binding.  Grouping follows the executor's
    first derivation of each tuple, which is deterministic.

    Parameters are exactly those of :func:`evaluate_query`, plus the
    ``plan``/``memo`` pass-throughs of :func:`enumerate_bindings` (the
    citation batch layer pre-plans and shares sub-plans).

    Returns
    -------
    dict mapping each output tuple to its (non-empty) binding list.
    """
    if params is not None:
        query = query.instantiate(params)
        plan = None  # a caller-supplied plan cannot cover the instantiation
    region = (
        _sanitizer.execution_region(db)
        if _sanitizer._active
        else contextlib.nullcontext()
    )
    grouped: dict[tuple[Any, ...], list[Binding]] = {}
    # Every citation evaluation materializes through this loop, so the
    # sanitizer's execution region here covers the whole pipeline: a
    # mutation of ``db`` from any other thread mid-stream tears the
    # snapshot this grouping is built from.
    with region:
        for binding in enumerate_bindings(
            query, db, virtual, planner, plan=plan, memo=memo
        ):
            grouped.setdefault(head_tuple(query, binding), []).append(binding)
    return grouped


# ---------------------------------------------------------------------------
# Reference evaluator (the pre-planner greedy interpreter)
# ---------------------------------------------------------------------------


def _atom_rows(
    atom: RelationalAtom,
    db: Database,
    virtual: IndexedVirtualRelations | None,
    bound: Binding,
) -> Iterator[tuple[Any, ...]]:
    """Rows matching ``atom`` given already-bound variables.

    Both database and virtual relations use hash indexes on the bound
    positions; arity is validated once per relation, not per row.
    """
    constraints: list[tuple[int, Any]] = []
    for position, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constraints.append((position, term.value))
        elif term in bound:
            constraints.append((position, bound[term]))
    positions = tuple(i for i, __ in constraints)
    values = tuple(v for __, v in constraints)

    if virtual is not None and atom.relation in virtual:
        virtual.validate_arity(atom.relation, atom.arity)
        yield from virtual.lookup(atom.relation, positions, values)
        return

    instance = db.relation(atom.relation)
    if instance.schema.arity != atom.arity:
        raise QueryError(
            f"atom {atom!r} has arity {atom.arity}, relation has "
            f"{instance.schema.arity}"
        )
    for row in instance.lookup(positions, values):
        yield row.values


def _consistent_extension(
    atom: RelationalAtom, values: tuple[Any, ...], binding: Binding
) -> Binding | None:
    """Extend ``binding`` with the matches of ``atom`` against ``values``.

    Returns None when the row conflicts with the atom pattern (repeated
    variables or constants) or the current binding.
    """
    extension = dict(binding)
    for term, value in zip(atom.terms, values):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            current = extension.get(term, _MISSING)
            if current is _MISSING:
                extension[term] = value
            elif current != value:
                return None
    return extension


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def _order_atoms(query: ConjunctiveQuery) -> list[RelationalAtom]:
    """Greedy join order: repeatedly pick the atom sharing the most
    variables with those already bound (ties broken by original order).

    This is the stats-blind heuristic the planner replaced; it survives
    here as the reference behaviour."""
    remaining = list(query.atoms)
    ordered: list[RelationalAtom] = []
    bound_vars: set[Variable] = set()
    while remaining:
        def score(atom: RelationalAtom) -> tuple[int, int]:
            atom_vars = atom.variables()
            shared = sum(1 for v in atom_vars if v in bound_vars)
            constants = len(atom.constants())
            return (shared, constants)

        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound_vars.update(best.variables())
    return ordered


def _check_comparison(comparison: ComparisonAtom, binding: Binding) -> bool:
    def value_of(term: Any) -> Any:
        if isinstance(term, Constant):
            return term.value
        return binding[term]

    try:
        return comparison.op.function(
            value_of(comparison.left), value_of(comparison.right)
        )
    except TypeError:
        return False


def reference_bindings(
    query: ConjunctiveQuery,
    db: Database,
    virtual: VirtualRelations | None = None,
) -> Iterator[Binding]:
    """The pre-planner evaluator: greedy join order, recursive descent.

    Semantically identical to :func:`enumerate_bindings` (the property
    suite asserts it); kept as the executable specification and as the
    stats-blind baseline for the planner benchmark.
    """
    if query.is_parameterized:
        raise QueryError(
            f"cannot evaluate parameterized query {query.name}: instantiate "
            "its λ-parameters first"
        )
    query.check_safety()
    indexed = IndexedVirtualRelations.wrap(virtual)

    # Ground comparisons hold for every binding or none.
    pending: list[ComparisonAtom] = []
    for comparison in query.comparisons:
        if comparison.is_ground:
            if not comparison.evaluate_ground():
                return
        else:
            pending.append(comparison)

    ordered_atoms = _order_atoms(query)

    # Schedule each comparison right after the atom that binds its last
    # variable.
    schedule: list[list[ComparisonAtom]] = [[] for __ in ordered_atoms]
    bound_so_far: set[Variable] = set()
    for index, atom in enumerate(ordered_atoms):
        bound_so_far.update(atom.variables())
        still_pending = []
        for comparison in pending:
            if all(v in bound_so_far for v in comparison.variables()):
                schedule[index].append(comparison)
            else:
                still_pending.append(comparison)
        pending = still_pending
    if pending:
        # Safety check above should prevent this.
        raise QueryError("comparison variables not bound by relational atoms")

    def recurse(index: int, binding: Binding) -> Iterator[Binding]:
        if index == len(ordered_atoms):
            yield binding
            return
        atom = ordered_atoms[index]
        for values in _atom_rows(atom, db, indexed, binding):
            extension = _consistent_extension(atom, values, binding)
            if extension is None:
                continue
            if all(_check_comparison(c, extension) for c in schedule[index]):
                yield from recurse(index + 1, extension)

    if not ordered_atoms:
        # Body with no relational atoms (only ground comparisons, already
        # checked): one empty binding.
        yield {}
        return
    yield from recurse(0, {})
