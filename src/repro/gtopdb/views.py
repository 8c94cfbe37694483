"""The paper's citation views V1–V5 with citation queries CV1–CV5.

Definitions follow Example 2.1 verbatim.  Citation functions produce the
JSON records shown in the paper:

- ``FV1``: ``{ID, Name, Committee: [...]}``
- ``FV2``: ``{ID, Name, Text, Contributors: [...]}``
- ``FV3``: ``{Owner, URL}``
- ``FV4``: ``{Type, Contributors: [{Name, Committee: [...]}, ...]}``
- ``FV5``: like FV4 but crediting introduction contributors.

:class:`GtoPdbPortal` is the portal path over those views: every page
render (view instance + citation record) routes through one warm
:class:`~repro.citation.generator.CitationEngine`, so repeated
instantiations of the same page shape hit the shared plan cache.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.gtopdb.schema import gtopdb_schema
from repro.relational.schema import Schema
from repro.views.citation_view import CitationView, RecordCitationFunction
from repro.views.registry import ViewRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.citation.generator import CitationEngine, CitationResult
    from repro.relational.database import Database


def nested_family_citation(
    outer_label: str,
    group_index: int,
    member_index: int,
    outer_index: int,
) -> Any:
    """Build an ``F_V`` producing the paper's nested V4/V5-style records.

    Rows are grouped by the value at ``group_index`` (the family name);
    each group becomes ``{Name: ..., Committee: [members]}``, and groups
    are listed under ``outer_label`` next to the grouping attribute taken
    from ``outer_index`` (the family type).
    """

    def function(
        rows: list[tuple[Any, ...]],
        labels: Sequence[str],
        params: Mapping[str, Any],
    ) -> dict:
        record: dict[str, Any] = {}
        if rows:
            record[labels[outer_index]] = rows[0][outer_index]
        elif params:
            # Empty instance: still identify the parameter value.
            record[labels[outer_index]] = next(iter(params.values()))
        groups: dict[Any, list[Any]] = {}
        for row in rows:
            groups.setdefault(row[group_index], []).append(row[member_index])
        record[outer_label] = [
            {"Name": name, "Committee": sorted(set(members))}
            for name, members in sorted(groups.items())
        ]
        return record

    return function


def paper_views() -> list[CitationView]:
    """Construct V1–V5 exactly as in Example 2.1."""
    v1 = CitationView.from_strings(
        view="lambda F. V1(F, N, Ty) :- Family(F, N, Ty)",
        citation_query=(
            "lambda F. CV1(F, N, Pn) :- Family(F, N, Ty), FC(F, C), "
            "Person(C, Pn, A)"
        ),
        citation_function=RecordCitationFunction(list_fields=("Committee",)),
        labels=("ID", "Name", "Committee"),
        description="One family page, cited with its committee of experts.",
    )
    v2 = CitationView.from_strings(
        view="lambda F. V2(F, Tx) :- FamilyIntro(F, Tx)",
        citation_query=(
            "lambda F. CV2(F, N, Tx, Pn) :- Family(F, N, Ty), "
            "FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A)"
        ),
        citation_function=RecordCitationFunction(
            list_fields=("Contributors",)
        ),
        labels=("ID", "Name", "Text", "Contributors"),
        description=(
            "One family's detailed introduction page, cited with the "
            "contributors who wrote it."
        ),
    )
    v3 = CitationView.from_strings(
        view="V3(F, N, Ty) :- Family(F, N, Ty)",
        citation_query=(
            'CV3(X1, X2) :- MetaData(T1, X1), T1 = "Owner", '
            'MetaData(T2, X2), T2 = "URL"'
        ),
        labels=("Owner", "URL"),
        description=(
            "The whole Family table; a single database-level citation."
        ),
    )
    v4 = CitationView.from_strings(
        view="lambda Ty. V4(F, N, Ty) :- Family(F, N, Ty)",
        citation_query=(
            "lambda Ty. CV4(Ty, N, Pn) :- Family(F, N, Ty), FC(F, C), "
            "Person(C, Pn, A)"
        ),
        citation_function=nested_family_citation(
            "Contributors", group_index=1, member_index=2, outer_index=0
        ),
        labels=("Type", "Name", "Committee"),
        description=(
            "All families of one type, cited with every family's committee."
        ),
    )
    v5 = CitationView.from_strings(
        view=(
            "lambda Ty. V5(F, N, Ty, Tx) :- Family(F, N, Ty), "
            "FamilyIntro(F, Tx)"
        ),
        citation_query=(
            "lambda Ty. CV5(N, Ty, Tx, Pn) :- Family(F, N, Ty), "
            "FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A)"
        ),
        citation_function=nested_family_citation(
            "Contributors", group_index=0, member_index=3, outer_index=1
        ),
        labels=("Name", "Type", "Text", "Contributors"),
        description=(
            "Introductions of all families of one type, cited with the "
            "contributors who wrote them."
        ),
    )
    return [v1, v2, v3, v4, v5]


def paper_registry(schema: Schema | None = None) -> ViewRegistry:
    """A :class:`ViewRegistry` holding V1–V5 over the GtoPdb schema."""
    return ViewRegistry(schema or gtopdb_schema(), paper_views())


@dataclass(frozen=True)
class PortalPage:
    """One rendered portal page: a view instantiation plus its citation."""

    view_name: str
    params: tuple[Any, ...]
    rows: tuple[tuple[Any, ...], ...]
    citation: dict = field(compare=False)


class GtoPdbPortal:
    """The GtoPdb web portal, served from one warm citation engine.

    Each page of the portal is a view instantiation — a family landing
    page is ``V1(F)``, an introduction page ``V2(F)``, a type listing
    ``V4(Ty)`` — and every render needs both the view instance (the
    page's rows) and its citation record (the ``F_V`` output).  The
    portal holds a single :class:`~repro.citation.generator
    .CitationEngine` and routes both evaluations through the engine's
    shared :class:`~repro.cq.plan.QueryPlanner`: the first page of a
    view shape plans its (instantiated) view and citation queries, and
    every later page of the same shape hits the α-equivalence plan
    cache.  General queries against the portal delegate to the engine's
    rewriting-based citation pipeline, sharing the same planner and
    materialized views.
    """

    def __init__(
        self,
        db: "Database",
        registry: ViewRegistry | None = None,
        engine: "CitationEngine | None" = None,
        **engine_options: Any,
    ) -> None:
        from repro.citation.generator import CitationEngine

        if engine is None:
            if registry is None:
                registry = paper_registry(db.schema)
            engine = CitationEngine(db, registry, **engine_options)
        elif engine_options:
            raise TypeError(
                "pass engine options or a prebuilt engine, not both"
            )
        self.engine = engine
        self.db = engine.db
        self.registry = engine.registry

    @property
    def planner(self) -> Any:
        """The engine's shared plan cache (exposed for inspection)."""
        return self.engine.planner

    # -- page rendering ------------------------------------------------------

    def page(
        self, view_name: str, params: Sequence[Any] = ()
    ) -> PortalPage:
        """Render one page: instantiate the view and cite it.

        Both the view instance and the citation query run through the
        engine's shared planner.
        """
        view = self.registry.get(view_name)
        params_tuple = tuple(params)
        rows = view.instance(
            self.db,
            params=list(params_tuple) if params_tuple else None,
            planner=self.engine.planner,
        )
        citation = view.citation_for(
            self.db, params_tuple, planner=self.engine.planner
        )
        return PortalPage(view_name, params_tuple, tuple(rows), citation)

    def page_valuations(self, view_name: str) -> tuple[tuple[Any, ...], ...]:
        """Every existing λ-valuation of a view (one page each).

        The unparameterized extension is evaluated through the shared
        planner and projected onto the parameter positions — how a site
        generator enumerates the pages it must render.
        """
        view = self.registry.get(view_name)
        if not view.is_parameterized:
            return ((),)
        positions = view.parameter_positions()
        valuations: dict[tuple[Any, ...], None] = {}
        for row in view.instance(self.db, planner=self.engine.planner):
            valuations.setdefault(tuple(row[i] for i in positions))
        return tuple(valuations)

    def render_all(self, view_name: str) -> list[PortalPage]:
        """Render every page of one view shape (site-generator mode)."""
        return [
            self.page(view_name, valuation)
            for valuation in self.page_valuations(view_name)
        ]

    # -- general queries ------------------------------------------------------

    def cite(self, query: Any) -> "CitationResult":
        """Cite a general query through the engine's rewriting pipeline."""
        return self.engine.cite(query)

    def refresh(self) -> None:
        """Return to a cold start: drop plans, views and cached records.

        Database updates reach portal pages without this — every cache
        behind them is keyed on the database's ``stats_version``.
        """
        self.engine.refresh()
