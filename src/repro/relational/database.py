"""In-memory database instances with integrity enforcement.

A :class:`Database` holds one :class:`RelationInstance` per relation of its
:class:`~repro.relational.schema.Schema`.  Instances enforce arity, domain,
primary-key, and (on demand) foreign-key constraints, and maintain hash
indexes over primary keys and requested attribute sets to keep conjunctive-
query evaluation near-linear on laptop-scale data.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from repro.analysis import sanitizer as _sanitizer
from repro.errors import (
    ArityError,
    ForeignKeyViolationError,
    KeyViolationError,
    UnknownRelationError,
)
from repro.relational.schema import RelationSchema, Schema
from repro.relational.statistics import Interval, RelationStatistics
from repro.relational.tuples import Row
from repro.relational.types import check_value

#: A sorted secondary index over one column: the sorted key list and the
#: rows aligned with it (stable, so equal keys keep insertion order).
SortedIndex = tuple[list[Any], list[Any]]

#: A composite secondary index: a hash index over the equality-bound
#: positions whose buckets are kept sorted on one ordered position, so a
#: single probe is a hash lookup plus a bisect range narrowing.  A
#: ``None`` bucket records a mixed-type (unsortable) bucket — probes of
#: that bucket fall back to the plain hash index; other buckets keep
#: serving composite probes.
CompositeIndex = dict[tuple[Any, ...], "SortedIndex | None"]


def build_sorted_index(
    rows: Iterable[Any], key_of: Callable[[Any], Any]
) -> SortedIndex | None:
    """Sort ``rows`` by ``key_of`` into a bisectable secondary index.

    Returns ``None`` when the column mixes incomparable types (ordered
    access paths then degrade to a scan plus residual re-checks — never a
    raised ``TypeError``).  NaN-keyed rows are dropped: no range
    predicate can match a NaN, and leaving them in would silently corrupt
    the sort order (NaN comparisons are all false).
    """
    pairs = []
    for row in rows:
        key = key_of(row)
        if key != key:  # NaN
            continue
        pairs.append((key, row))
    try:
        pairs.sort(key=lambda pair: pair[0])
    except TypeError:
        return None
    return [key for key, __ in pairs], [row for __, row in pairs]


def build_composite_index(
    rows: Iterable[Any],
    hash_key_of: Callable[[Any], tuple[Any, ...]],
    order_key_of: Callable[[Any], Any],
) -> CompositeIndex:
    """Group ``rows`` by ``hash_key_of``, sorting each bucket on ``order_key_of``.

    Buckets degrade *individually*: a bucket mixing incomparable order
    keys is stored as ``None`` (probes of it fall back to the hash
    index) while the other buckets keep serving composite probes.
    NaN-keyed rows are dropped from buckets exactly like in
    :func:`build_sorted_index` — no range predicate matches NaN, and the
    residual re-check rejects such rows either way.
    """
    groups: dict[tuple[Any, ...], list[Any]] = {}
    for row in rows:
        groups.setdefault(hash_key_of(row), []).append(row)
    return {
        bucket_key: build_sorted_index(bucket_rows, order_key_of)
        for bucket_key, bucket_rows in groups.items()
    }


def composite_index_slice(
    index: CompositeIndex, values: tuple[Any, ...], interval: Interval
) -> list[Any] | None:
    """Rows of one composite bucket whose order key lies inside ``interval``.

    An absent bucket means no row matches the hash probe (``[]``);
    ``None`` means the composite path cannot serve this probe — the
    bucket is mixed-type, or the interval's bounds are incomparable with
    the bucket's keys — and the caller should fall back to the plain
    hash index plus residual re-checks.
    """
    bucket = index.get(values)
    if bucket is None:
        return [] if values not in index else None
    return sorted_index_slice(bucket, interval)


def sorted_index_slice(index: SortedIndex, interval: Interval) -> list[Any] | None:
    """Rows of a sorted index whose key falls inside ``interval``.

    Bisects both endpoints; ``None`` bounds are unbounded.  Returns
    ``None`` when the interval's bounds are incomparable with the index
    keys (mixed-type probe) so callers can fall back to a scan instead of
    surfacing the ``TypeError``.
    """
    keys, rows = index
    start, stop = 0, len(keys)
    try:
        if interval.lo is not None:
            start = (
                bisect_right(keys, interval.lo)
                if interval.lo_open
                else bisect_left(keys, interval.lo)
            )
        if interval.hi is not None:
            stop = (
                bisect_left(keys, interval.hi)
                if interval.hi_open
                else bisect_right(keys, interval.hi)
            )
    except TypeError:
        return None
    return rows[start:stop]


class RelationInstance:
    """The extension of one relation: an insertion-ordered set of rows."""

    def __init__(
        self, schema: RelationSchema, owner: "Database | None" = None
    ) -> None:
        self.schema = schema
        self.stats = RelationStatistics(schema.arity)
        self._owner = owner
        self._key_positions = (
            tuple(schema.key_positions()) if schema.key else None
        )
        #: The rows as dict keys: dict order is insertion order (a
        #: delete + re-insert moves a row to the end).
        self._rows: dict[Row, None] = {}
        self._key_index: dict[tuple[Any, ...], Row] = {}
        # Secondary hash indexes, built lazily: positions -> {values: [rows]}
        self._indexes: dict[tuple[int, ...], dict[tuple[Any, ...], list[Row]]] = {}
        # Sorted secondary indexes for range probes, built lazily:
        # position -> (sorted keys, aligned rows).  A cached ``None``
        # records a mixed-type (unsortable) column.
        self._sorted_indexes: dict[int, SortedIndex | None] = {}
        # Composite secondary indexes for combined equality+range probes,
        # built lazily: (hash positions, ordered position) -> buckets.
        self._composite_indexes: dict[
            tuple[tuple[int, ...], int], CompositeIndex
        ] = {}

    # -- mutation -------------------------------------------------------------

    def _note_mutation(self, count: int) -> None:
        """Report effective mutations to the owning database's version."""
        if self._owner is not None:
            if _sanitizer._active:
                # Shadow the expected version *before* the bump, so a
                # patched-out or forgotten bump desynchronizes the two
                # and the next version-keyed cache serve reports it.
                _sanitizer.note_effective_mutations(self._owner, count)
            self._owner._note_stats_mutations(count)

    def _validated_row(self, values: Sequence[Any]) -> Row:
        """Arity- and domain-check ``values``, returning the Row."""
        if len(values) != self.schema.arity:
            raise ArityError(self.schema.name, self.schema.arity, len(values))
        for attr, value in zip(self.schema.attributes, values):
            check_value(value, attr.domain, f"{self.schema.name}.{attr.name}")
        return Row(self.schema.name, values)

    def insert(self, values: Sequence[Any], enforce_key: bool = True) -> Row:
        """Insert a tuple, returning the stored :class:`Row`.

        Raises :class:`ArityError` / :class:`TypeMismatchError` /
        :class:`KeyViolationError` on constraint violations.  Re-inserting an
        identical row is a no-op (set semantics).
        """
        if _sanitizer._active:
            _sanitizer.check_mutation(self._owner or self)
        row = self._validated_row(values)
        if row in self._rows:
            return row
        if enforce_key and self.schema.key:
            key_value = row.project(self._key_positions)
            existing = self._key_index.get(key_value)
            if existing is not None:
                raise KeyViolationError(
                    f"duplicate key {key_value!r} in relation {self.schema.name!r}: "
                    f"existing row {existing!r}, new row {row!r}"
                )
        self._rows[row] = None
        self.stats.add_row(row.values)
        if self._key_positions is not None:
            self._key_index[row.project(self._key_positions)] = row
        for positions, index in self._indexes.items():
            index.setdefault(row.project(positions), []).append(row)
        for position in list(self._sorted_indexes):
            self._sorted_insert(position, row)
        for key in self._composite_indexes:
            self._composite_insert(key, row)
        self._note_mutation(1)
        return row

    def _sorted_insert(self, position: int, row: Row) -> None:
        """Maintain one sorted index across an insert."""
        index = self._sorted_indexes[position]
        if index is None:
            return
        key = row.values[position]
        if key != key:  # NaN rows never enter sorted indexes
            return
        keys, rows = index
        try:
            at = bisect_right(keys, key)
        except TypeError:
            # The new value is incomparable with the column: the index
            # can no longer serve ordered probes.
            self._sorted_indexes[position] = None
            return
        keys.insert(at, key)
        rows.insert(at, row)

    def _sorted_remove(self, position: int, row: Row) -> None:
        """Maintain one sorted index across a delete."""
        index = self._sorted_indexes[position]
        if index is None:
            # A delete can remove the offending mixed-type value; let the
            # next range probe retry the build.
            del self._sorted_indexes[position]
            return
        key = row.values[position]
        if key != key:
            return
        keys, rows = index
        at = bisect_left(keys, key)
        stop = bisect_right(keys, key)
        while at < stop:
            if rows[at] == row:
                del keys[at]
                del rows[at]
                return
            at += 1

    def _composite_insert(self, key: tuple[tuple[int, ...], int], row: Row) -> None:
        """Maintain one composite index across an insert."""
        positions, order_position = key
        index = self._composite_indexes[key]
        order_key = row.values[order_position]
        if order_key != order_key:  # NaN rows never enter composite buckets
            return
        bucket_key = row.project(positions)
        bucket = index.get(bucket_key)
        if bucket is None:
            if bucket_key in index:
                return  # bucket already degraded to the hash fallback
            index[bucket_key] = ([order_key], [row])
            return
        keys, rows = bucket
        try:
            at = bisect_right(keys, order_key)
        except TypeError:
            # The new value is incomparable within its bucket: that
            # bucket can no longer serve composite probes.
            index[bucket_key] = None
            return
        keys.insert(at, order_key)
        rows.insert(at, row)

    def _composite_remove(self, key: tuple[tuple[int, ...], int], row: Row) -> None:
        """Maintain one composite index across a delete."""
        positions, order_position = key
        index = self._composite_indexes[key]
        bucket_key = row.project(positions)
        bucket = index.get(bucket_key)
        if bucket is None:
            if bucket_key in index:
                # A delete can remove the offending mixed-type value;
                # drop the index and let the next probe retry the build.
                del self._composite_indexes[key]
            return
        order_key = row.values[order_position]
        if order_key != order_key:
            return
        keys, rows = bucket
        try:
            at = bisect_left(keys, order_key)
            stop = bisect_right(keys, order_key)
        except TypeError:  # defensive: sorted buckets are comparable
            del self._composite_indexes[key]
            return
        while at < stop:
            if rows[at] == row:
                del keys[at]
                del rows[at]
                break
            at += 1
        if not keys:
            del index[bucket_key]

    def insert_many(
        self, rows: Iterable[Sequence[Any]], enforce_key: bool = True
    ) -> list[Row]:
        """Batch insert.

        Semantically ``[insert(r) for r in rows]``.  When the batch is
        large relative to the current extension, cached secondary indexes
        are dropped up front instead of being
        updated row by row — they rebuild lazily on the next probe — and
        statistics are accumulated in one bulk update per column instead
        of one dict update per (row, column) pair, so large loads (and
        :meth:`Database.copy`) skip all per-row maintenance.
        """
        if _sanitizer._active:
            _sanitizer.check_mutation(self._owner or self)
        batch = [values for values in rows]
        if len(batch) <= max(64, len(self._rows)):
            return [
                self.insert(values, enforce_key=enforce_key)
                for values in batch
            ]
        self._indexes.clear()
        self._sorted_indexes.clear()
        self._composite_indexes.clear()
        out: list[Row] = []
        fresh_values: list[tuple[Any, ...]] = []
        try:
            for values in batch:
                row = self._validated_row(values)
                out.append(row)
                if row in self._rows:
                    continue
                if enforce_key and self.schema.key:
                    key_value = row.project(self._key_positions)
                    existing = self._key_index.get(key_value)
                    if existing is not None:
                        raise KeyViolationError(
                            f"duplicate key {key_value!r} in relation "
                            f"{self.schema.name!r}: existing row "
                            f"{existing!r}, new row {row!r}"
                        )
                self._rows[row] = None
                if self._key_positions is not None:
                    self._key_index[row.project(self._key_positions)] = row
                fresh_values.append(row.values)
        finally:
            # Also runs on a mid-batch constraint violation: rows
            # accepted before the offending one stay applied, exactly
            # like the per-row loop, so their statistics must land too.
            if fresh_values:
                self.stats.add_rows(fresh_values)
                self._note_mutation(len(fresh_values))
        return out

    def delete(self, row: Row) -> bool:
        """Remove a row; returns True if it was present."""
        if _sanitizer._active:
            _sanitizer.check_mutation(self._owner or self)
        if row not in self._rows:
            return False
        del self._rows[row]
        self.stats.remove_row(row.values)
        if self._key_positions is not None:
            self._key_index.pop(row.project(self._key_positions), None)
        for positions, index in self._indexes.items():
            bucket = index.get(row.project(positions))
            if bucket is not None:
                bucket.remove(row)
                if not bucket:
                    del index[row.project(positions)]
        for position in list(self._sorted_indexes):
            self._sorted_remove(position, row)
        for key in list(self._composite_indexes):
            self._composite_remove(key, row)
        self._note_mutation(1)
        return True

    # -- access ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Row) -> bool:
        return row in self._rows

    def rows(self) -> list[Row]:
        """All rows, in insertion order."""
        return list(self._rows)

    def lookup_key(self, key_value: tuple[Any, ...]) -> Row | None:
        """Primary-key point lookup."""
        return self._key_index.get(key_value)

    def ensure_index(self, positions: tuple[int, ...]) -> None:
        """Build (and cache) the hash index on ``positions`` now.

        :meth:`lookup` does this lazily on first probe.
        """
        if positions and positions not in self._indexes:
            index: dict[tuple[Any, ...], list[Row]] = {}
            for row in self._rows:
                index.setdefault(row.project(positions), []).append(row)
            self._indexes[positions] = index

    def lookup(self, positions: tuple[int, ...], values: tuple[Any, ...]) -> list[Row]:
        """Rows whose projection on ``positions`` equals ``values``.

        Builds (and caches) a hash index on ``positions`` on first use.
        """
        if not positions:
            return self.rows()
        self.ensure_index(positions)
        return list(self._indexes[positions].get(values, ()))

    def ensure_sorted_index(self, position: int) -> SortedIndex | None:
        """Build (and cache) the sorted index on ``position`` now.

        Returns the index, or ``None`` (also cached) when the column
        mixes incomparable types.  :meth:`range_lookup` builds lazily.
        """
        if position not in self._sorted_indexes:
            self._sorted_indexes[position] = build_sorted_index(
                self._rows, lambda row: row.values[position]
            )
        return self._sorted_indexes[position]

    def range_lookup(self, position: int, interval: Interval) -> list[Row] | None:
        """Rows whose ``position`` value lies inside ``interval``.

        Served from the sorted secondary index via bisect, in key order
        (insertion order among equal keys).  Returns ``None`` when the
        ordered path cannot serve the probe — mixed-type column, or
        interval bounds incomparable with the keys — so the caller can
        fall back to a scan plus residual filters.
        """
        index = self.ensure_sorted_index(position)
        if index is None:
            return None
        return sorted_index_slice(index, interval)

    def ensure_composite_index(
        self, positions: tuple[int, ...], order_position: int
    ) -> CompositeIndex:
        """Build (and cache) the composite index ``positions`` × ``order_position``.

        :meth:`composite_lookup` builds lazily.
        """
        key = (positions, order_position)
        index = self._composite_indexes.get(key)
        if index is None:
            index = build_composite_index(
                self._rows,
                lambda row: row.project(positions),
                lambda row: row.values[order_position],
            )
            self._composite_indexes[key] = index
        return index

    def composite_lookup(
        self,
        positions: tuple[int, ...],
        values: tuple[Any, ...],
        order_position: int,
        interval: Interval,
    ) -> list[Row] | None:
        """Rows matching ``positions = values`` with ``order_position``
        inside ``interval`` — one hash probe plus one bisect.

        Served in order-key order (insertion order among equal keys).
        Returns ``None`` when the composite path cannot serve the probe
        (mixed-type bucket, or interval bounds incomparable with the
        bucket's keys) so the caller can fall back to the plain hash
        index plus residual re-checks.
        """
        index = self.ensure_composite_index(positions, order_position)
        return composite_index_slice(index, values, interval)

    def __repr__(self) -> str:
        return f"RelationInstance({self.schema.name!r}, {len(self)} rows)"


class Database:
    """A database instance over a fixed schema."""

    def __init__(self, schema: Schema) -> None:
        schema.validate()
        self.schema = schema
        self._stats_version = 0
        self._instances: dict[str, RelationInstance] = {
            rel.name: RelationInstance(rel, owner=self) for rel in schema
        }

    # -- access ---------------------------------------------------------------

    def relation(self, name: str) -> RelationInstance:
        """The instance of relation ``name``."""
        try:
            return self._instances[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._instances

    def relations(self) -> Iterator[RelationInstance]:
        return iter(self._instances.values())

    def total_rows(self) -> int:
        """Total number of rows across all relations."""
        return sum(len(instance) for instance in self._instances.values())

    @property
    def stats_version(self) -> int:
        """Monotone counter over all mutations; plan caches key on this.

        Maintained incrementally (each effective insert/delete bumps it
        through the owning instance) rather than summed over every
        relation's statistics on each read — it is consulted on every
        plan-cache, rewriting-cache and subplan-memo lookup.
        """
        return self._stats_version

    def _note_stats_mutations(self, count: int) -> None:
        """Called by owned instances after each effective mutation."""
        self._stats_version += count

    # -- mutation ---------------------------------------------------------------

    def insert(self, relation: str, *values: Any) -> Row:
        """Insert a tuple into ``relation``."""
        return self.relation(relation).insert(values)

    def insert_all(self, relation: str, rows: Iterable[Sequence[Any]]) -> list[Row]:
        """Bulk insert; returns the stored rows."""
        return self.relation(relation).insert_many(rows)

    def insert_batch(
        self, batches: dict[str, Iterable[Sequence[Any]]]
    ) -> dict[str, list[Row]]:
        """Bulk insert into several relations at once.

        Loaders and benchmark generators use this to populate an instance
        in one call; each relation goes through :meth:`RelationInstance
        .insert_many`, so large loads skip per-row index maintenance.
        """
        return {
            relation: self.relation(relation).insert_many(rows)
            for relation, rows in batches.items()
        }

    def delete(self, relation: str, *values: Any) -> bool:
        """Delete a tuple from ``relation``; returns True if present."""
        return self.relation(relation).delete(Row(relation, values))

    # -- integrity ---------------------------------------------------------------

    def check_foreign_keys(self) -> None:
        """Validate every foreign key across the whole instance.

        Foreign keys are checked in bulk (not per-insert) so data can be
        loaded in any order; generators and loaders call this once at the
        end of loading.
        """
        for instance in self._instances.values():
            for fk in instance.schema.foreign_keys:
                source_positions = tuple(
                    instance.schema.position(col) for col in fk.columns
                )
                target = self.relation(fk.ref_relation)
                for row in instance:
                    key_value = row.project(source_positions)
                    if target.lookup_key(key_value) is None:
                        raise ForeignKeyViolationError(
                            f"{instance.schema.name} row {row!r}: {fk} — "
                            f"no matching key {key_value!r} in {fk.ref_relation}"
                        )

    def copy(self) -> "Database":
        """Deep-enough copy: fresh instances sharing immutable rows.

        Each relation is rebuilt through the bulk :meth:`RelationInstance
        .insert_many` path, so copying pays one statistics update per
        column instead of per-row index/statistics maintenance.
        """
        clone = Database(self.schema)
        for name, instance in self._instances.items():
            clone.relation(name).insert_many(
                [row.values for row in instance], enforce_key=False
            )
        return clone

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}={len(inst)}" for name, inst in self._instances.items()
        )
        return f"Database({sizes})"
