"""End-to-end citation generation: ``cite(D, Q, V)`` (Defs 3.1–3.4).

The :class:`CitationEngine` pipeline:

1. enumerate the rewritings of the query over the registry (Section 2.2);
2. evaluate each rewriting (views materialized as virtual relations) and
   build, per output tuple and per binding, the ``·``-monomial of view
   citation tokens and ``C_R`` tokens (Def 3.1);
3. sum monomials over bindings into a per-rewriting polynomial (Def 3.2);
4. combine the per-rewriting polynomials with ``+R`` (Def 3.3) — union
   (the formal, plan-independent semantics) or order-based absorption
   ("best", Section 3.4) according to the policy;
5. aggregate per-tuple citations with ``Agg`` (Def 3.4), injecting the
   neutral-element database citation;
6. render tokens into citation records via the views' citation functions
   ``F_V`` and the policy's record-level interpretations of ``·``/``+``.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.analysis import sanitizer as _sanitizer
from repro.analysis.sanitizer import set_sanitize
from repro.citation.combiners import with_neutral
from repro.citation.order import absorbing_sum, best_polynomials, normal_form
from repro.citation.policy import CitationPolicy, focused_policy
from repro.citation.polynomial import (
    CitationMonomial,
    CitationPolynomial,
    idempotent_sum,
)
from repro.citation.tokens import (
    BaseRelationToken,
    CitationToken,
    ViewCitationToken,
)
from repro.cq.evaluation import evaluate_with_bindings
from repro.cq.executor import IndexedVirtualRelations
from repro.cq.parser import parse_query
from repro.cq.plan import QueryPlan, QueryPlanner
from repro.cq.query import ConjunctiveQuery
from repro.cq.sql_parser import parse_sql
from repro.cq.subplan import SubplanMemo, reserve_shared_prefixes
from repro.cq.terms import Constant, Variable
from repro.relational.database import Database
from repro.rewriting.engine import RewritingEngine
from repro.rewriting.rewriting import Rewriting
from repro.semiring.polynomial import ProvenanceMonomial, ProvenancePolynomial
from repro.util.jsonutil import KeyedRecord, keyed
from repro.views.registry import ViewRegistry

Record = dict[str, Any]

#: The zero polynomial a rewriting contributes to a tuple it does not
#: produce (polynomials are immutable, so one instance serves all).
_ZERO = ProvenancePolynomial.zero()


@dataclass
class TupleCitation:
    """The citation of one output tuple.

    Attributes
    ----------
    output:
        The output tuple's values.
    per_rewriting:
        One citation polynomial per rewriting (aligned with
        :attr:`CitationResult.rewritings`); the paper's
        ``cite(t, Q, Q', V)``.
    polynomial:
        The combined citation after ``+R`` — ``cite(t, Q, V)``.
    records:
        The rendered citation records under the policy's interpretations.
    """

    output: tuple[Any, ...]
    per_rewriting: tuple[CitationPolynomial, ...]
    polynomial: CitationPolynomial
    records: list[Record]


@dataclass
class CitationResult:
    """The citation of a whole query result — ``cite(D, Q, V)``."""

    query: ConjunctiveQuery
    policy: CitationPolicy
    rewritings: tuple[Rewriting, ...]
    tuples: dict[tuple[Any, ...], TupleCitation]
    aggregate_polynomial: CitationPolynomial
    records: list[Record]
    database_citation: list[Record]

    @property
    def output_tuples(self) -> list[tuple[Any, ...]]:
        return list(self.tuples)

    def citation(self) -> Record:
        """A single JSON-ready citation object for the result set."""
        return {
            "query": repr(self.query),
            "policy": self.policy.name,
            "database": self.database_citation,
            "citations": self.records,
        }

    def __repr__(self) -> str:
        return (
            f"CitationResult({len(self.tuples)} tuples, "
            f"{len(self.rewritings)} rewritings, policy={self.policy.name})"
        )


def _default_database_citation(db: Database) -> list[Record]:
    """Derive the Agg neutral element from a ``MetaData`` relation.

    The paper's Def 3.4 suggests the neutral element carry citations
    "needed regardless of the query output", e.g. the database name; the
    GtoPdb schema stores those in ``MetaData``.
    """
    if "MetaData" not in db.schema:
        return []
    record: Record = {}
    for row in db.relation("MetaData"):
        record[str(row[0])] = row[1]
    return [record] if record else []


class CitationEngine:
    """Generates citations for conjunctive queries over a database.

    Parameters
    ----------
    db:
        The database instance.
    registry:
        The citation views declared by the database owner.
    policy:
        Interpretation of the combining functions; defaults to
        :func:`~repro.citation.policy.focused_policy` over the registry.
    database_citation:
        The Agg neutral element records; defaults to a record built from
        the ``MetaData`` relation when present.
    include_partial / validate / max_rewritings:
        Passed to the :class:`~repro.rewriting.engine.RewritingEngine`.
    share_subplans:
        When True (the default), :meth:`cite_batch` groups each batch by
        shared plan prefixes and evaluates every shared join prefix
        *once* through the :attr:`subplan_memo`
        (:mod:`repro.cq.subplan`); False keeps per-query evaluation (the
        unshared baseline the batch-overlap benchmark compares against).
        Results are identical either way.
    verify_plans:
        Per-engine override of the plan-verification mode
        (:func:`~repro.cq.plan.set_plan_verification`): ``"always"``
        runs the structural verifier of :mod:`repro.analysis.verifier`
        on every plan this engine's planner hands out, ``"off"``
        disables it, None (the default) defers to the process-wide
        switch.
    sanitize:
        Sets the **process-wide** concurrency-sanitizer mode
        (:func:`~repro.analysis.sanitizer.set_sanitize`): ``"always"``
        turns on lane-ownership/affinity checks, independent cache-serve
        re-validation and event-loop blocking detection for the whole
        process; ``"off"`` disables them; None (the default) leaves the
        current mode (seeded from ``REPRO_SANITIZE``) untouched.

    Plans for queries with range comparisons run unchanged through this
    engine: the shared :class:`~repro.cq.plan.QueryPlanner` pushes them
    into ordered access paths, and the per-engine
    :class:`~repro.cq.executor.IndexedVirtualRelations` materialization
    caches the sorted indexes (and the content fingerprints the plan
    cache keys on) across every rewriting of every query.
    """

    def __init__(
        self,
        db: Database,
        registry: ViewRegistry,
        policy: CitationPolicy | None = None,
        database_citation: list[Record] | None = None,
        include_partial: bool = True,
        validate: bool = True,
        max_rewritings: int | None = None,
        cache_rewritings: bool = False,
        share_subplans: bool = True,
        verify_plans: str | None = None,
        sanitize: str | None = None,
    ) -> None:
        if sanitize is not None:
            # Process-wide, like REPRO_SANITIZE: ownership and region
            # state are properties of the whole process, not one engine.
            set_sanitize(sanitize)
        self.db = db
        self.registry = registry
        self.policy = policy or focused_policy(registry)
        engine = RewritingEngine(
            registry,
            include_partial=include_partial,
            validate=validate,
            max_rewritings=max_rewritings,
        )
        if cache_rewritings:
            from repro.citation.cache import CachedRewritingEngine
            self.rewriting_engine: Any = CachedRewritingEngine(engine)
        else:
            self.rewriting_engine = engine
        if database_citation is None:
            database_citation = _default_database_citation(db)
        self.database_citation = database_citation
        self._neutral = [keyed(record) for record in database_citation]
        #: Shared plan cache: every rewriting of every query evaluated by
        #: this engine reuses plans across α-equivalent structures.
        #: ``verify_plans="always"`` makes it a sanitizing planner: every
        #: plan behind every citation is checked against the structural
        #: rulebook of :mod:`repro.analysis.verifier` before it runs.
        self.planner = QueryPlanner(db, verify=verify_plans)
        #: Cross-query sub-plan memo: batches evaluate each shared join
        #: prefix once (:mod:`repro.cq.subplan`).
        self.subplan_memo = SubplanMemo()
        self.share_subplans = share_subplans
        # Data-derived state, valid for ``db.stats_version ==
        # _data_version`` only: the materialized views and each token's
        # rendered record (with its canonical key).
        # :meth:`_check_data_version` drops both once the version moves,
        # the way the plan cache and the sub-plan memo refuse entries
        # tagged with an older version.
        self._data_version = db.stats_version
        self._virtual: IndexedVirtualRelations | None = None
        self._record_cache: dict[CitationToken, KeyedRecord] = {}
        self._record_cache_max = 4096
        # Serializes the async entry points (acite_batch/acite_union):
        # the engine and its caches are not thread-safe, so concurrent
        # awaiters take turns on the engine while the event loop stays
        # free.  Reentrant because cite_union batches through the same
        # pipeline internally.
        self._exec_lock = threading.RLock()

    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Drop every cache: materialized views, records, plans, sub-plans.

        Database mutations do not need this — every data-derived cache
        is keyed on :attr:`~repro.relational.database.Database
        .stats_version` and refuses stale state on its own — but it
        returns the engine to a cold start.
        """
        self._virtual = None
        self._record_cache.clear()
        self.planner.clear()
        self.subplan_memo.clear()

    def _check_data_version(self) -> None:
        """Drop the materialized views and rendered records if the data
        changed since they were built."""
        version = self.db.stats_version
        if version != self._data_version:
            self._data_version = version
            self._virtual = None
            self._record_cache.clear()

    def materialized_views(self) -> IndexedVirtualRelations:
        """The (lazily built) indexed materialization of the registry.

        Public accessor for callers that plan against the same virtual
        relations this engine evaluates with (the service's ``/plan``
        endpoint shares plan-cache entries with ``/cite`` through it).
        """
        return self._materialized()

    # ------------------------------------------------------------------
    # async-safe entry points
    # ------------------------------------------------------------------

    def locked_call(self, fn: Any, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` holding the engine's execution lock.

        The building block of the async entry points: anything that
        touches the engine off the event loop (a mutation job, a batch)
        can route through here to serialize with concurrent
        :meth:`acite_batch`/:meth:`acite_union` calls.
        """
        with self._exec_lock:
            return fn(*args, **kwargs)

    async def acite_batch(
        self,
        queries: "Sequence[ConjunctiveQuery | str]",
    ) -> list[CitationResult]:
        """Async-safe :meth:`cite_batch`: awaitable from an event loop.

        The batch runs on a worker thread (:func:`asyncio.to_thread`)
        under the engine's execution lock, so the loop keeps serving
        while the engine computes and concurrent awaiters never
        interleave engine state.  This is the entry point the service's
        micro-batcher drives; results are identical to
        :meth:`cite_batch`.
        """
        import asyncio

        return await asyncio.to_thread(
            self.locked_call, self.cite_batch, queries
        )

    async def acite_union(self, union: "UnionQuery | str") -> CitationResult:
        """Async-safe :meth:`cite_union` (same contract as
        :meth:`acite_batch`)."""
        import asyncio

        return await asyncio.to_thread(
            self.locked_call, self.cite_union, union
        )

    def ensure_rewriting_cache(self) -> Any:
        """Upgrade to a memoizing rewriting engine (idempotent).

        :meth:`cite_batch` performs this upgrade transparently; callers
        that account for cache effectiveness
        (:func:`repro.workload.runner.run_workload`) invoke it *before*
        snapshotting counters, so before/after always read from the
        engine actually used.  Returns the (possibly pre-existing)
        :class:`~repro.citation.cache.CachedRewritingEngine`.
        """
        from repro.citation.cache import CachedRewritingEngine

        if not isinstance(self.rewriting_engine, CachedRewritingEngine):
            self.rewriting_engine = CachedRewritingEngine(
                self.rewriting_engine
            )
        return self.rewriting_engine

    def _materialized(self) -> IndexedVirtualRelations:
        self._check_data_version()
        if _sanitizer._active:
            _sanitizer.check_cache_serve(
                "record cache", self.db, self._data_version
            )
        if self._virtual is None:
            self._virtual = IndexedVirtualRelations(
                self.registry.materialize(self.db, planner=self.planner)
            )
        return self._virtual

    # ------------------------------------------------------------------
    # the symbolic pipeline
    # ------------------------------------------------------------------

    def _binding_monomials(
        self, rewriting: Rewriting
    ) -> Callable[[dict], CitationMonomial]:
        """Def 3.1: the ``·`` of citation tokens, as a function of one
        binding of ``rewriting``.

        Which view parameters are constants and which are bound
        variables, and the ``C_R`` tokens of uncovered atoms, are worked
        out once per rewriting rather than once per binding.
        """
        views = [
            (application.view.name, [
                (False, term) if isinstance(term, Variable)
                else (True, term.value if isinstance(term, Constant)
                      else term)
                for term in application.parameter_terms
            ])
            for application in rewriting.applications
        ]
        base: list[CitationToken] = [
            BaseRelationToken(atom.relation)
            for atom in rewriting.uncovered_atoms
        ]

        def monomial(binding: dict) -> CitationMonomial:
            tokens: list[CitationToken] = [
                ViewCitationToken(name, tuple([
                    value if constant else binding[value]
                    for constant, value in parameters
                ]))
                for name, parameters in views
            ]
            return ProvenanceMonomial(tokens + base)

        return monomial

    def _active_memo(self) -> SubplanMemo | None:
        """The sub-plan memo, when consulting it can pay off.

        ``None`` while sharing is disabled or the memo neither holds nor
        wants anything — the executor then skips prefix-key computation
        entirely, so engines that never batch pay zero overhead.
        """
        if self.share_subplans and self.subplan_memo.worth_checking:
            return self.subplan_memo
        return None

    def _rewriting_polynomials(
        self,
        rewriting: Rewriting,
        plan: QueryPlan | None,
        interned: dict[CitationMonomial, CitationMonomial],
    ) -> dict[tuple[Any, ...], CitationPolynomial]:
        """Def 3.2: per-tuple polynomials for one rewriting.

        Equal monomials are replaced by the first one ``interned`` holds,
        so a monomial shared by many tuples (and rewritings) of one
        citation is ordered and printed once.
        """
        grouped = evaluate_with_bindings(
            rewriting.query,
            self.db,
            virtual=self._materialized(),
            planner=self.planner,
            plan=plan,
            memo=self._active_memo(),
        )
        binding_monomial = self._binding_monomials(rewriting)
        result: dict[tuple[Any, ...], CitationPolynomial] = {}
        for output, bindings in grouped.items():
            terms: dict[CitationMonomial, int] = {}
            for binding in bindings:
                monomial = binding_monomial(binding)
                monomial = interned.setdefault(monomial, monomial)
                terms[monomial] = terms.get(monomial, 0) + 1
            result[output] = ProvenancePolynomial(terms)
        return result

    def _sum(
        self, polynomials: list[CitationPolynomial]
    ) -> CitationPolynomial:
        """``+`` under the policy: idempotent (set union) or counted."""
        if self.policy.idempotent_plus:
            return idempotent_sum(polynomials)
        total = _ZERO
        for polynomial in polynomials:
            total = total.add(polynomial)
        return total

    def _combine_rewritings(
        self, polynomials: list[CitationPolynomial]
    ) -> CitationPolynomial:
        """Def 3.3 / Section 3.4: the ``+R`` combination for one tuple."""
        policy = self.policy
        nonzero = [p for p in polynomials if not p.is_zero]
        if not nonzero:
            return _ZERO
        if policy.plus_r == "best" and policy.order is not None:
            nonzero = best_polynomials(nonzero, policy.order)
        combined = self._sum(nonzero)
        if policy.order is not None:
            combined = normal_form(combined, policy.order)
        return combined

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def _token_record(self, token: CitationToken) -> KeyedRecord:
        cached = self._record_cache.get(token)
        if cached is not None:
            return cached
        if isinstance(token, ViewCitationToken):
            view = self.registry.get(token.view_name)
            record = view.citation_for(
                self.db, token.parameters, planner=self.planner
            )
        elif isinstance(token, BaseRelationToken):
            record = {"Relation": token.relation}
        else:  # pragma: no cover - no other token kinds exist
            record = {"Token": repr(token)}
        entry = self._record_cache[token] = keyed(record)
        if len(self._record_cache) > self._record_cache_max:
            # FIFO bound: distinct tokens grow with the view registry
            # and parameter space, so a long-lived service engine must
            # not accumulate rendered records without limit.
            self._record_cache.pop(next(iter(self._record_cache)))
        return entry

    def _polynomial_records(
        self,
        polynomial: CitationPolynomial,
        memo: dict[CitationMonomial, list[KeyedRecord]],
    ) -> list[KeyedRecord]:
        """Render a polynomial; ``memo`` holds each monomial's ``·``
        records, so tuples sharing a monomial render it once."""
        dot = self.policy.dot_combiner
        counted = self.policy.plus == "counted"
        alternatives: list[list[KeyedRecord]] = []
        for monomial, coefficient in polynomial.terms.items():
            records = memo.get(monomial)
            if records is None:
                records = memo[monomial] = dot([
                    self._token_record(token) for token in monomial.tokens()
                ])
            if counted and coefficient > 1:
                records = [
                    keyed({**record, "DerivationCount": coefficient})
                    for __, record in records
                ]
            alternatives.append(records)
        return self.policy.plus_combiner(alternatives)

    def _tuple_citation(
        self,
        output: tuple[Any, ...],
        per_rewriting: tuple[CitationPolynomial, ...],
        combined: CitationPolynomial,
        rendered: list[list[KeyedRecord]],
        memo: dict[CitationMonomial, list[KeyedRecord]],
    ) -> TupleCitation:
        """Render one tuple's citation; its keyed records are appended to
        ``rendered`` for :meth:`_result`'s ``Agg``."""
        records = self._polynomial_records(combined, memo)
        rendered.append(records)
        return TupleCitation(
            output, per_rewriting, combined, [r for __, r in records]
        )

    def _result(
        self,
        query: ConjunctiveQuery,
        rewritings: tuple[Rewriting, ...],
        tuples: dict[tuple[Any, ...], TupleCitation],
        rendered: list[list[KeyedRecord]],
    ) -> CitationResult:
        """Agg (Def 3.4): the symbolic aggregate plus rendered records."""
        aggregate = self._sum([tc.polynomial for tc in tuples.values()])
        if self.policy.order is not None:
            aggregate = absorbing_sum([aggregate], self.policy.order)
        records = self.policy.agg_combiner(rendered)
        if self.policy.include_database_citation:
            records = with_neutral(records, self._neutral)
        return CitationResult(
            query=query,
            policy=self.policy,
            rewritings=rewritings,
            tuples=tuples,
            aggregate_polynomial=aggregate,
            records=[record for __, record in records],
            database_citation=list(self.database_citation),
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def cite(self, query: ConjunctiveQuery | str) -> CitationResult:
        """Compute ``cite(D, Q, V)`` — the paper's Defs 3.1–3.4, end to end.

        Enumerates the Def 2.2 rewritings of the query, builds one
        ``·``-monomial per binding (Def 3.1), sums them into per-tuple,
        per-rewriting polynomials (Def 3.2), combines the rewritings with
        ``+R`` (Def 3.3 / Section 3.4 "best"), and aggregates across the
        result set with ``Agg`` (Def 3.4).

        Parameters
        ----------
        query:
            The user query — a :class:`~repro.cq.query.ConjunctiveQuery`
            or a Datalog string (parsed with
            :func:`~repro.cq.parser.parse_query`).

        Returns
        -------
        CitationResult
            Per-tuple citations (:attr:`CitationResult.tuples`), the
            aggregated polynomial, and the rendered citation records
            under this engine's policy.
        """
        if isinstance(query, str):
            query = parse_query(query)
        rewritings = tuple(self.rewriting_engine.rewrite(query))
        return self._cite_with_rewritings(query, rewritings)

    def _cite_with_rewritings(
        self,
        query: ConjunctiveQuery,
        rewritings: tuple[Rewriting, ...],
        plans: Sequence[QueryPlan] | None = None,
    ) -> CitationResult:
        """The Def 3.1–3.4 pipeline over pre-enumerated rewritings.

        ``plans``, when given, is aligned with ``rewritings`` — the
        batch path plans while grouping shared prefixes and passes the
        plans through so nothing is planned (or counted) twice.
        """
        self._check_data_version()
        if _sanitizer._active:
            _sanitizer.check_cache_serve(
                "record cache", self.db, self._data_version
            )
        interned: dict[CitationMonomial, CitationMonomial] = {}
        per_rewriting = [
            self._rewriting_polynomials(
                rewriting, plans[index] if plans is not None else None,
                interned,
            )
            for index, rewriting in enumerate(rewritings)
        ]
        outputs: dict[tuple[Any, ...], None] = {}
        for polynomials in per_rewriting:
            for output in polynomials:
                outputs.setdefault(output)

        tuples: dict[tuple[Any, ...], TupleCitation] = {}
        rendered: list[list[KeyedRecord]] = []
        memo: dict[CitationMonomial, list[KeyedRecord]] = {}
        for output in outputs:
            aligned = tuple(
                polynomials.get(output, _ZERO)
                for polynomials in per_rewriting
            )
            combined = self._combine_rewritings(list(aligned))
            tuples[output] = self._tuple_citation(
                output, aligned, combined, rendered, memo
            )
        return self._result(query, rewritings, tuples, rendered)

    def cite_batch(
        self,
        queries: "Sequence[ConjunctiveQuery | str]",
    ) -> list[CitationResult]:
        """Cite a whole workload, sharing work across the queries.

        This is the repository-front-end entry point: repeated or
        template-shaped traffic pays each expensive step once —

        - rewriting enumeration is memoized per α-equivalence class (the
          engine is upgraded to a
          :class:`~repro.citation.cache.CachedRewritingEngine` if it is
          not one already; the upgrade is transparent and persists, so a
          follow-up batch starts warm);
        - query plans are shared through :attr:`planner`;
        - views are materialized once up front, and their hash indexes
          accumulate across the batch.

        Parameters
        ----------
        queries:
            The workload, as query objects or Datalog strings.

        Returns
        -------
        One :class:`CitationResult` per query, in order.  Results are
        identical with sub-plan sharing on or off.
        """
        self.ensure_rewriting_cache()
        self._materialized()
        batch = self._group_batch(queries)
        return [
            self._cite_with_rewritings(query, rewritings, plans)
            for query, rewritings, plans in batch
        ]

    def _group_batch(
        self, queries: "Sequence[ConjunctiveQuery | str]"
    ) -> list[
        tuple[ConjunctiveQuery, tuple[Rewriting, ...], tuple[QueryPlan, ...]]
    ]:
        """Rewrite and plan the batch, reserving shared plan prefixes.

        Every rewriting of every query is enumerated (through the
        rewriting cache) and planned (through the plan cache) exactly
        once here; the prefix keys of all the plans are counted, and
        each plan's *longest* prefix key carried by two or more plans is
        reserved in the :attr:`subplan_memo` — the first execution of a
        reserved prefix materializes its bindings, every later plan in
        the batch (and in follow-up traffic) seeds from them.  Prefixes
        unique to one plan are never reserved, so unshared queries skip
        materialization entirely; and reserving only maximal shared
        prefixes keeps intermediate levels nobody would seed from out of
        the memo (a plan that shares a *shorter* prefix with the group
        reserves that shorter key itself).
        """
        virtual = self._materialized()
        batch: list[
            tuple[
                ConjunctiveQuery,
                tuple[Rewriting, ...],
                tuple[QueryPlan, ...],
            ]
        ] = []
        for query in queries:
            if isinstance(query, str):
                query = parse_query(query)
            rewritings = tuple(self.rewriting_engine.rewrite(query))
            plans = tuple(
                self.planner.plan(rewriting.query, virtual)
                for rewriting in rewritings
            )
            batch.append((query, rewritings, plans))
        if self.share_subplans:
            reserve_shared_prefixes(
                [plan for __, __, plans in batch for plan in plans],
                self.subplan_memo,
            )
        return batch

    def cite_sql(self, sql: str) -> CitationResult:
        """Compute the citation for a SQL SELECT statement."""
        return self.cite(parse_sql(sql, self.db.schema))

    def cite_union(self, union: "UnionQuery | str") -> CitationResult:
        """Citation for a union of conjunctive queries (SPJU's U).

        Disjuncts are alternative derivations of the same output tuples,
        so per-tuple citations combine with ``+`` across disjuncts —
        exactly the alternative-use semantics of Section 3.1 — and the
        aggregate then proceeds as usual.

        Disjuncts ride the batch pipeline: every rewriting of every
        disjunct is planned through the shared plan cache, and the
        disjuncts' common join prefixes — unions overlap heavily by
        construction — are reserved in the sub-plan memo so each shared
        prefix is materialized once per union rather than once per
        disjunct (``share_subplans=False`` restores per-disjunct
        evaluation; results are identical either way).
        """
        from repro.cq.ucq import UnionQuery, parse_union_query

        if isinstance(union, str):
            union = parse_union_query(union)
        union = union.minimized()
        partial_results = [
            self._cite_with_rewritings(query, rewritings, plans)
            for query, rewritings, plans in self._group_batch(union.disjuncts)
        ]

        outputs: dict[tuple[Any, ...], None] = {}
        for result in partial_results:
            for output in result.tuples:
                outputs.setdefault(output)

        tuples: dict[tuple[Any, ...], TupleCitation] = {}
        rendered: list[list[KeyedRecord]] = []
        memo: dict[CitationMonomial, list[KeyedRecord]] = {}
        for output in outputs:
            combined = self._sum([
                result.tuples[output].polynomial
                for result in partial_results
                if output in result.tuples
            ])
            if self.policy.order is not None:
                combined = normal_form(combined, self.policy.order)
            # Keep per_rewriting aligned with the concatenated rewriting
            # list: a disjunct that does not produce this tuple
            # contributes zero polynomials for each of its rewritings.
            per_rewriting = tuple(
                polynomial
                for result in partial_results
                for polynomial in (
                    result.tuples[output].per_rewriting
                    if output in result.tuples
                    else (_ZERO,) * len(result.rewritings)
                )
            )
            tuples[output] = self._tuple_citation(
                output, per_rewriting, combined, rendered, memo
            )

        all_rewritings = tuple(
            rewriting
            for result in partial_results
            for rewriting in result.rewritings
        )
        return self._result(union.disjuncts[0], all_rewritings, tuples,
                            rendered)

    def cite_view(
        self, view_name: str, params: tuple[Any, ...] = ()
    ) -> Record:
        """Directly cite a view instance (the hard-coded web-page case)."""
        return self.registry.get(view_name).citation_for(
            self.db, params, planner=self.planner
        )
