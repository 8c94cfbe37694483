"""JSON-record helpers used by citation combiners and formatters.

The paper's Example 3.5 interprets the citation operators over JSON-like
records: ``·`` may be *union of records* (keep both records side by side) or
*join/merge* (factor out common fields and union the rest).  These helpers
implement that record algebra over plain Python dicts/lists.

The citation engine renders each record once and then combines it many
times, so it carries records as :data:`KeyedRecord` pairs: the record
with its canonical JSON, computed once by :func:`keyed` when the record
is made.  :func:`union_keyed` deduplicates on that stored key, which is
exactly :func:`union_records`' content equality without re-serializing.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Any

#: A record paired with its :func:`canonical_json` dedup key.
KeyedRecord = tuple[str, dict[str, Any]]


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to a canonical (sorted-key, compact) JSON string.

    Used to hash/compare citation records deterministically.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def keyed(record: dict[str, Any]) -> KeyedRecord:
    """Pair ``record`` with its canonical key (serializes it once)."""
    return canonical_json(record), record


def union_keyed(records: Iterable[KeyedRecord]) -> list[KeyedRecord]:
    """:func:`union_records` over keyed records: dedupe on the stored key.

    Two records collapse exactly when their canonical JSON is equal, as
    in :func:`union_records`; order of first occurrence is preserved.
    """
    seen: set[str] = set()
    result: list[KeyedRecord] = []
    for item in records:
        if item[0] not in seen:
            seen.add(item[0])
            result.append(item)
    return result


def union_records(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Union of records: keep every distinct record (Example 3.5, option 1).

    Duplicates (by canonical JSON) are collapsed; order of first occurrence
    is preserved.
    """
    seen: set[str] = set()
    result: list[dict[str, Any]] = []
    for record in records:
        key = canonical_json(record)
        if key not in seen:
            seen.add(key)
            result.append(record)
    return result


def _merge_values(left: Any, right: Any) -> Any:
    """Merge two field values: equal scalars collapse, lists union, dicts merge."""
    if left == right:
        return left
    if isinstance(left, dict) and isinstance(right, dict):
        return merge_records([left, right])
    left_list = left if isinstance(left, list) else [left]
    right_list = right if isinstance(right, list) else [right]
    merged = list(left_list)
    for item in right_list:
        if item not in merged:
            merged.append(item)
    return merged


def merge_records(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Join/merge records: factor out common fields (Example 3.5, option 2).

    Fields present in several records with equal values appear once; fields
    with conflicting values are unioned into a list.  This reproduces the
    paper's merge of the family-11 citations::

        {ID, Name, Committee} . {ID, Name, Text, Contributors}
        ==> {ID, Name, Committee, Text, Contributors}
    """
    result: dict[str, Any] = {}
    for record in records:
        for field, value in record.items():
            if field in result:
                result[field] = _merge_values(result[field], value)
            else:
                result[field] = value
    return result
