"""Golden byte-identity test for rendered citations.

``golden_citations.json`` holds full citation signatures — output tuples,
per-rewriting and combined polynomial reprs, per-tuple records, the
aggregate polynomial repr and the aggregated records — for the paper's
instance and a small seeded synthetic instance, under five policies,
through ``cite``, ``cite_batch`` and ``cite_union``.  Any change to how
records are combined, deduplicated or ordered, or to the canonical order
of polynomial terms, shows up here as a byte difference.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/citation/test_golden_citations.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pytest

from repro.citation.generator import CitationEngine
from repro.citation.policy import (
    CitationPolicy,
    compact_policy,
    comprehensive_policy,
    focused_policy,
)
from repro.gtopdb.generator import generate_database
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_registry
from repro.workload.queries import QueryGenerator

GOLDEN = Path(__file__).with_name("golden_citations.json")

PAPER_QUERIES = [
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr", FamilyIntro(F, Tx)',
    'Q(N, P) :- Family(F, N, Ty), FC(F, P), Ty = "gpcr"',
    "Q(F, N, Ty) :- Family(F, N, Ty)",
    "Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)",
    "Q(N, Pn) :- Family(F, N, Ty), FIC(F, P), Person(P, Pn, A)",
    'Q(Ty) :- Family(F, N, Ty), F = "11"',
    'Q(N) :- Family(F, N, Ty), Ty = "nonexistent"',
]

PAPER_UNIONS = [
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr"; '
    'Q(N) :- Family(F, N, Ty), FamilyIntro(F, Tx)',
    'Q(N, P) :- Family(F, N, Ty), FC(F, P); '
    'Q(N, P) :- Family(F, N, Ty), FIC(F, P)',
]

GENERATED_QUERIES = 12


def _policies(registry: Any) -> list[CitationPolicy]:
    return [
        comprehensive_policy(),
        focused_policy(registry),
        compact_policy(registry),
        CitationPolicy(name="counted", dot="union", plus="counted",
                       plus_r="union", agg="union"),
        CitationPolicy(name="merge-counted-aggmerge", dot="merge",
                       plus="counted", plus_r="union", agg="merge"),
    ]


def _instances() -> list[tuple[str, Any, list[str], list[str]]]:
    generated = generate_database(families=60, persons=20, types=4, seed=5)
    generator = QueryGenerator(generated.schema, db=generated, seed=11,
                               max_atoms=3, selection_probability=0.4)
    # One head predicate throughout, so any two rules of equal arity
    # form a union.
    queries = [repr(generator.generate("Q"))
               for __ in range(GENERATED_QUERIES)]
    unions = [f"{queries[i]}; {queries[j]}"
              for i in range(len(queries))
              for j in range(i + 1, len(queries))
              if _same_head(queries[i], queries[j])][:3]
    return [
        ("paper", paper_database(), PAPER_QUERIES, PAPER_UNIONS),
        ("generated", generated, queries, unions),
    ]


def _same_head(left: str, right: str) -> bool:
    """Can the two rules be disjuncts of one union (same head arity)?"""
    def arity(rule: str) -> int:
        head = rule.split(":-")[0]
        inner = head[head.index("(") + 1:head.rindex(")")].strip()
        return len(inner.split(",")) if inner else 0
    return arity(left) == arity(right)


def signature(result: Any) -> dict[str, Any]:
    """Everything a citation result carries, in output order."""
    return {
        "tuples": [
            [list(tc.output), [repr(p) for p in tc.per_rewriting],
             repr(tc.polynomial), tc.records]
            for tc in result.tuples.values()
        ],
        "aggregate": repr(result.aggregate_polynomial),
        "records": result.records,
    }


def compute() -> dict[str, Any]:
    """Every golden case, keyed ``instance/policy/entry point/index``."""
    cases: dict[str, Any] = {}
    registry = paper_registry()
    for instance, db, queries, unions in _instances():
        for policy in _policies(registry):
            prefix = f"{instance}/{policy.name}"
            engine = CitationEngine(db, registry, policy=policy)
            for index, query in enumerate(queries):
                cases[f"{prefix}/cite/{index}"] = {
                    "query": query,
                    **signature(engine.cite(query)),
                }
            batch = CitationEngine(db, registry, policy=policy)
            for index, result in enumerate(batch.cite_batch(queries)):
                cases[f"{prefix}/cite_batch/{index}"] = signature(result)
            for index, union in enumerate(unions):
                cases[f"{prefix}/cite_union/{index}"] = {
                    "query": union,
                    **signature(engine.cite_union(union)),
                }
    return cases


def _dumps(value: Any) -> str:
    # Insertion order is kept (no sort_keys): record field order is part
    # of the rendered output.
    return json.dumps(value, ensure_ascii=False, default=str)


def pack(cases: dict[str, Any]) -> dict[str, Any]:
    """Store each distinct record and polynomial repr once.

    Most records and polynomials recur across policies and entry points;
    cases refer to them by index into the ``records``/``polynomials``
    tables, which keeps the golden file small without dropping content.
    """
    tables: dict[str, dict[str, int]] = {"records": {}, "polynomials": {}}
    values: dict[str, list[Any]] = {"records": [], "polynomials": []}

    def ref(table: str, value: Any) -> int:
        text = _dumps(value)
        index = tables[table].get(text)
        if index is None:
            index = tables[table][text] = len(values[table])
            values[table].append(value)
        return index

    packed = {}
    for key, case in cases.items():
        packed[key] = {
            **({"query": case["query"]} if "query" in case else {}),
            "tuples": [
                [output, [ref("polynomials", p) for p in per_rewriting],
                 ref("polynomials", combined),
                 [ref("records", r) for r in records]]
                for output, per_rewriting, combined, records in case["tuples"]
            ],
            "aggregate": ref("polynomials", case["aggregate"]),
            "records": [ref("records", r) for r in case["records"]],
        }
    return {**values, "cases": packed}


def unpack(golden: dict[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`pack`."""
    records, polynomials = golden["records"], golden["polynomials"]
    cases = {}
    for key, case in golden["cases"].items():
        cases[key] = {
            **({"query": case["query"]} if "query" in case else {}),
            "tuples": [
                [output, [polynomials[i] for i in per_rewriting],
                 polynomials[combined], [records[i] for i in indices]]
                for output, per_rewriting, combined, indices in case["tuples"]
            ],
            "aggregate": polynomials[case["aggregate"]],
            "records": [records[i] for i in case["records"]],
        }
    return cases


@pytest.fixture(scope="module")
def golden() -> dict[str, Any]:
    return unpack(json.loads(GOLDEN.read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def current() -> dict[str, Any]:
    return compute()


def test_golden_covers_every_case(golden, current):
    assert list(current) == list(golden)


def test_citations_are_byte_identical_to_golden(golden, current):
    mismatched = [key for key in golden
                  if _dumps(current.get(key)) != _dumps(golden[key])]
    assert not mismatched, f"{len(mismatched)} cases differ: {mismatched[:5]}"


if __name__ == "__main__":
    packed = pack(compute())
    lines = []
    for table in ("records", "polynomials"):
        lines.append(f"{json.dumps(table)}: [\n" + ",\n".join(
            _dumps(value) for value in packed[table]) + "\n]")
    lines.append('"cases": {\n' + ",\n".join(
        f"{json.dumps(key)}: {_dumps(value)}"
        for key, value in packed["cases"].items()) + "\n}")
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
