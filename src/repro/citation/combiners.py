"""Record-level interpretations of the combining functions (Example 3.5).

The algebra of :mod:`repro.citation.polynomial` is symbolic; at rendering
time each token becomes a JSON-like record and the abstract operations get
concrete interpretations:

- ``·`` — :func:`dot_union` keeps the records side by side;
  :func:`dot_merge` joins them, factoring out common fields (the paper's
  two suggested readings);
- ``+`` / ``+R`` — :func:`plus_union` unions alternative records;
  :func:`plus_merge` merges them into one record;
- ``Agg`` — :func:`agg_union` / :func:`agg_merge`, with
  :func:`with_neutral` injecting the always-present records (Def 3.4's
  neutral element: the database name, its NAR publication, ...).

Every combiner takes and returns :data:`~repro.util.jsonutil.KeyedRecord`
pairs (``(canonical JSON, record)``, see :func:`~repro.util.jsonutil
.keyed`).  The unions deduplicate on the stored key — the same content
equality as :func:`~repro.util.jsonutil.union_records` — and a merge keys
its result once, so no record is serialized more than once however many
combines it passes through.
"""

from __future__ import annotations

from itertools import chain

from repro.util.jsonutil import KeyedRecord, keyed, merge_records, union_keyed


def _merged(records: list[KeyedRecord]) -> list[KeyedRecord]:
    if not records:
        return []
    if len(records) == 1:
        # Merging one record reproduces it field for field.
        return records
    return [keyed(merge_records([record for __, record in records]))]


def dot_union(records: list[KeyedRecord]) -> list[KeyedRecord]:
    """``·`` as union of records: keep each part of the joint citation."""
    return union_keyed(records)


def dot_merge(records: list[KeyedRecord]) -> list[KeyedRecord]:
    """``·`` as join/merge: factor out common fields into one record."""
    return _merged(records)


def plus_union(alternatives: list[list[KeyedRecord]]) -> list[KeyedRecord]:
    """``+`` / ``+R`` as union: keep every alternative citation."""
    return union_keyed(chain.from_iterable(alternatives))


def plus_merge(alternatives: list[list[KeyedRecord]]) -> list[KeyedRecord]:
    """``+`` / ``+R`` as merge: fold all alternatives into one record.

    Reproduces the paper's example::

        {ID, Name, Committee: [Hay, Poyner]}
        +R {ID, Committee: [Brown], Contributors: [Smith]}
        = {ID, Name, Committee: [Hay, Poyner, Brown], Contributors: [Smith]}
    """
    return _merged(list(chain.from_iterable(alternatives)))


def agg_union(per_tuple: list[list[KeyedRecord]]) -> list[KeyedRecord]:
    """``Agg`` as union of all per-tuple citations."""
    return plus_union(per_tuple)


def agg_merge(per_tuple: list[list[KeyedRecord]]) -> list[KeyedRecord]:
    """``Agg`` as a single merged result-set citation."""
    return plus_merge(per_tuple)


def with_neutral(
    records: list[KeyedRecord], neutral: list[KeyedRecord]
) -> list[KeyedRecord]:
    """Prepend the neutral-element records (deduplicated).

    Even an empty result set carries these (Def 3.4): typically the
    database's own citation.
    """
    return union_keyed(chain(neutral, records))


DOT_INTERPRETATIONS = {"union": dot_union, "merge": dot_merge}
PLUS_INTERPRETATIONS = {"union": plus_union, "merge": plus_merge}
AGG_INTERPRETATIONS = {"union": agg_union, "merge": agg_merge}
