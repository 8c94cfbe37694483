"""Cross-query common sub-plan sharing (Section 4: "caching and
materialization").

Template-shaped repository traffic overlaps *structurally*: many queries
of a batch share the same join prefix (the same first plan steps, up to
variable renaming) and differ only in their suffixes.  The per-query
caches built so far — rewriting enumeration, α-equivalent plans, warmed
indexes — still evaluate that shared prefix once **per query**.  This
module adds the cross-query multiplier: a :class:`SubplanMemo` maps
canonical *prefix keys* (:func:`repro.cq.plan.prefix_keys`) to the
materialized binding sequence of the prefix, so a batch evaluates each
shared join prefix once and every other query seeds its suffix from the
memoized bindings.

Correctness discipline:

- Memoized bindings are the *exact* serial binding sequence of the
  prefix (materialized through the same operator chain the plain
  executor runs, residual re-checks included), stored in canonical
  variable space and remapped through each consumer plan's renaming.
  Key equality guarantees the consumer's prefix performs the identical
  computation, so seeding changes neither the multiset nor the order of
  results — the property suite asserts planned ≡ reference exactly,
  seeded and unseeded.
- Entries are version-aware, invalidated by the same fingerprints the
  plan cache uses: the database's
  :attr:`~repro.relational.database.Database.stats_version` and the
  content tokens of every virtual relation the prefix reads.  Any
  insert/delete/bulk load (or virtual-content change) makes the stored
  bindings unreachable; the next execution re-materializes.
- The memo is LRU-bounded (``max_entries``), with eviction counts, like
  the rewriting and plan caches.

Sharing is *reserved*, not speculative:
:meth:`~repro.citation.generator.CitationEngine.cite_batch` groups the
batch by shared prefix keys and reserves only keys at least two plans
carry, so single-shot queries never pay materialization for bindings
nobody else will read.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator, Sequence
from typing import Any

from repro.analysis import sanitizer as _sanitizer
from repro.cq.executor import (
    Binding,
    IndexedVirtualRelations,
    SequenceSourceOperator,
    VirtualRelations,
    _comparison_checker,
    build_operator_chain,
    execute_plan,
    execute_plan_seeded,
)
from repro.cq.plan import JoinStep, PrefixKey, QueryPlan, prefix_keys
from repro.relational.database import Database
from repro.util.lru import check_max_entries, evict_lru

#: Default memo bound.  Smaller than the plan/rewriting cache bounds:
#: each entry holds a materialized binding list, not just a plan.
DEFAULT_MEMO_ENTRIES = 1024


def _prefix_fingerprint(
    steps: Sequence[JoinStep],
    virtual: IndexedVirtualRelations | None,
) -> tuple | None:
    """Content tokens of the virtual relations a prefix reads.

    Paired with the database identity and ``stats_version`` this is the
    invalidation signal the plan cache uses; names are sorted so
    producer and consumer (whose key equality already implies the same
    relation set) compute identical fingerprints.

    ``None`` means the prefix is *unsharable*: some virtual relation's
    content token degraded to the size-only form (unhashable rows — see
    :func:`repro.cq.plan._content_token`).  A size-only tag is fine for
    the plan cache (a stale plan merely costs time) but not for a cache
    of materialized bindings, where failing to invalidate means wrong
    results; callers skip both seeding and storing then.
    """
    names = sorted({s.atom.relation for s in steps if s.virtual})
    if not names or virtual is None:
        return ()
    tokens = []
    for name in names:
        token = virtual.content_token(name)
        if len(token) < 2:  # size-only degrade: content not fingerprintable
            return None
        tokens.append((name, token))
    return tuple(tokens)


class SubplanMemo:
    """Version-aware memo: prefix key → materialized prefix bindings.

    Entries store the prefix's binding sequence in canonical variable
    space (``p0, p1, ...`` — the renaming of
    :func:`~repro.cq.plan.prefix_keys`), tagged with the database they
    were computed over (by identity: equal keys over *different*
    databases describe different data), its statistics version, and the
    virtual-content fingerprint; :meth:`lookup` drops entries whose tags
    no longer match, so data mutations invalidate transparently.

    Keys must be :meth:`reserve`-d before :func:`execute_plan_shared`
    will materialize them — the batch layer reserves exactly the keys
    shared by two or more plans.  ``hits`` counts executions seeded from
    the memo, ``misses`` executions that had to materialize a reserved
    prefix, ``evictions`` LRU evictions of stored entries.
    """

    def __init__(self, max_entries: int = DEFAULT_MEMO_ENTRIES) -> None:
        self.max_entries = check_max_entries(max_entries)
        self._entries: OrderedDict[
            PrefixKey, tuple[list[Binding], Database, int, tuple]
        ] = OrderedDict()
        self._reserved: OrderedDict[PrefixKey, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- reservation ----------------------------------------------------------

    def reserve(self, key: PrefixKey) -> None:
        """Mark a prefix key as shared (worth materializing once)."""
        self._reserved[key] = None
        self._reserved.move_to_end(key)
        evict_lru(self._reserved, self.max_entries)

    def is_reserved(self, key: PrefixKey) -> bool:
        return key in self._reserved

    # -- storage --------------------------------------------------------------

    def contains(self, key: PrefixKey) -> bool:
        """Whether any entry (possibly stale) is stored for ``key``.

        A cheap pre-check: callers compute the (relatively expensive)
        validation fingerprint only for keys that are actually present.
        """
        return key in self._entries

    def lookup(
        self,
        key: PrefixKey,
        db: Database,
        version: int,
        fingerprint: tuple,
    ) -> list[Binding] | None:
        """Valid stored bindings for ``key``, or None.

        Entries tagged with a different database object are left alone
        (two databases can share one memo without serving each other's
        bindings); entries for *this* database whose version or
        fingerprint no longer match are stale — dropped, not served.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        bindings, stored_db, stored_version, stored_fingerprint = entry
        if stored_db is not db:
            return None
        if stored_version != version or stored_fingerprint != fingerprint:
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return bindings

    def entry_tags(self, key: PrefixKey) -> tuple[int, tuple] | None:
        """The ``(stats_version, fingerprint)`` tags stored for ``key``.

        Purely observational; the concurrency sanitizer re-validates a
        served entry against these tags independently of
        :meth:`lookup`'s own checks, so a bypassed or patched-out
        validation still gets caught at the serve point.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        __, __, stored_version, stored_fingerprint = entry
        return stored_version, stored_fingerprint

    def peek(
        self,
        key: PrefixKey,
        db: Database,
        version: int,
        fingerprint: tuple,
    ) -> list[Binding] | None:
        """Like :meth:`lookup` but purely observational: stale entries
        are left in place and LRU order does not change (EXPLAIN uses
        this so rendering a plan never perturbs the memo)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        bindings, stored_db, stored_version, stored_fingerprint = entry
        if (
            stored_db is not db
            or stored_version != version
            or stored_fingerprint != fingerprint
        ):
            return None
        return bindings

    def store(
        self,
        key: PrefixKey,
        bindings: list[Binding],
        db: Database,
        version: int,
        fingerprint: tuple,
    ) -> None:
        self._entries[key] = (bindings, db, version, fingerprint)
        self._entries.move_to_end(key)
        self.evictions += evict_lru(self._entries, self.max_entries)

    # -- bookkeeping ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def reserved_count(self) -> int:
        """How many prefix keys are currently reserved (shared by ≥2
        plans at some point); the service exposes this on ``/stats``."""
        return len(self._reserved)

    @property
    def worth_checking(self) -> bool:
        """False while the memo can neither serve nor want anything —
        callers skip prefix-key computation entirely then."""
        return bool(self._entries or self._reserved)

    def clear(self) -> None:
        self._entries.clear()
        self._reserved.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


def reserve_shared_prefixes(
    plans: Sequence[QueryPlan], memo: SubplanMemo
) -> int:
    """Reserve each plan's longest prefix key carried by ≥ 2 plans.

    This is the reservation discipline of
    :meth:`~repro.citation.generator.CitationEngine.cite_batch`, shared
    with the UCQ path (disjuncts of one union overlap heavily by
    construction) and the CLI: prefix keys of all the plans are counted,
    and each plan reserves only its *longest* key that at least two
    plans carry — single-shot prefixes never pay materialization, and
    intermediate levels nobody would seed from stay out of the memo.
    Returns the number of reservations made (shared prefixes found).
    """
    all_keys = [
        prefix_keys(plan)[0] for plan in plans if not plan.empty
    ]
    counts: dict[PrefixKey, int] = {}
    for keys in all_keys:
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
    reserved = 0
    for keys in all_keys:
        for key in reversed(keys):
            if counts[key] >= 2:
                memo.reserve(key)
                reserved += 1
                break
    return reserved


def execute_plan_shared(
    plan: QueryPlan,
    db: Database,
    virtual: VirtualRelations | None = None,
    memo: SubplanMemo | None = None,
) -> Iterator[Binding]:
    """Stream a plan's bindings, seeding/feeding the sub-plan memo.

    Produces exactly the binding sequence of
    :func:`~repro.cq.executor.execute_plan` — same multiset, same order:

    1. the longest prefix with a *valid* memo entry seeds execution
       (bindings remapped from canonical space, suffix steps run as
       usual);
    2. every longer prefix that is *reserved* is materialized level by
       level on the way (stored for the rest of the batch);
    3. the remaining suffix streams through
       :func:`~repro.cq.executor.execute_plan_seeded`.

    With no memo (or nothing reserved/stored) this is a plain
    execution with zero overhead beyond the key probe.
    """
    if plan.empty:
        return
    if memo is None or not plan.steps or not memo.worth_checking:
        yield from execute_plan(plan, db, virtual)
        return

    indexed = IndexedVirtualRelations.wrap(virtual)
    version = db.stats_version
    keys, renaming = prefix_keys(plan)
    count = len(keys)

    def fingerprint(length: int) -> tuple | None:
        return _prefix_fingerprint(plan.steps[:length], indexed)

    hit_length = 0
    canonical_seeds: list[Binding] | None = None
    for length in range(count, 0, -1):
        if not memo.contains(keys[length - 1]):
            continue  # fingerprints are only worth computing on presence
        current = fingerprint(length)
        if current is None:
            continue  # unsharable prefix (unfingerprintable virtual rows)
        entry = memo.lookup(keys[length - 1], db, version, current)
        if entry is not None:
            if _sanitizer._active:
                tags = memo.entry_tags(keys[length - 1])
                if tags is not None:
                    _sanitizer.check_cache_serve(
                        "sub-plan memo", db, tags[0], tags[1], current
                    )
            hit_length, canonical_seeds = length, entry
            break
    pending = [
        length
        for length in range(hit_length + 1, count + 1)
        if memo.is_reserved(keys[length - 1])
        and fingerprint(length) is not None
    ]
    if not hit_length and not pending:
        yield from execute_plan(plan, db, indexed)
        return

    if hit_length:
        memo.hits += 1
        inverse = {canon: orig for orig, canon in renaming.items()}
        assert canonical_seeds is not None
        bindings: list[Binding] = [
            {inverse[var]: value for var, value in binding.items()}
            for binding in canonical_seeds
        ]
    else:
        bindings = [{}]
    level = hit_length
    if pending:
        # Materialize each reserved level in executor order, so memoized
        # bindings replay in that order for every future consumer.
        memo.misses += 1
        check = _comparison_checker(plan.query.name, set())
        for length in pending:
            bindings = list(
                build_operator_chain(
                    SequenceSourceOperator(bindings),
                    plan.steps[level:length],
                    db,
                    indexed,
                    check,
                )
            )
            current = fingerprint(length)
            assert current is not None  # pending filtered unsharable levels
            memo.store(
                keys[length - 1],
                [
                    {renaming[var]: value for var, value in binding.items()}
                    for binding in bindings
                ],
                db,
                version,
                current,
            )
            level = length
    yield from execute_plan_seeded(plan, db, indexed, bindings, level)


def explain_with_memo(
    plan: QueryPlan,
    memo: SubplanMemo | None,
    db: Database,
    virtual: VirtualRelations | None = None,
    diagnostics: Any = None,
) -> str:
    """EXPLAIN with the sub-plan memo's view of the plan appended.

    Renders ``shared prefix: ... reused from memo`` when a prefix of the
    plan would seed from a valid memo entry, and the reservation state
    when the batch has marked a prefix as shared but nobody has
    materialized it yet.  Purely observational: neither counters nor
    LRU order change.  ``diagnostics`` forwards to
    :meth:`~repro.cq.plan.QueryPlan.explain`.
    """
    text = plan.explain(diagnostics=diagnostics)
    if memo is None or plan.empty or not plan.steps:
        return text
    indexed = IndexedVirtualRelations.wrap(virtual)
    version = db.stats_version
    keys, __ = prefix_keys(plan)

    def span(length: int) -> str:
        return "step 1" if length == 1 else f"steps 1-{length}"

    for length in range(len(keys), 0, -1):
        key = keys[length - 1]
        current = _prefix_fingerprint(plan.steps[:length], indexed)
        if current is not None and \
                memo.peek(key, db, version, current) is not None:
            return (
                f"{text}\n  shared prefix: {span(length)} "
                "reused from memo"
            )
        if memo.is_reserved(key):
            return (
                f"{text}\n  shared prefix: {span(length)} shared across "
                "the batch (materialized on first execution)"
            )
    return text
