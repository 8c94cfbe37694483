"""Citation policies: the database owner's choice of interpretations.

Section 3.3: "The database owner specifies a policy by which citations to
general queries are constructed by choosing an interpretation of the
combining functions ``+``, ``·``, ``+R``, and ``Agg``."  A
:class:`CitationPolicy` bundles those choices plus the optional order
relation of Section 3.4.

Three policies ship with the library:

- :func:`comprehensive_policy` — keep everything: ``+R`` unions all
  rewritings' citations, records stay side by side.  Mirrors Def 3.3's
  formal semantics (plan-independent sum over all rewritings).
- :func:`focused_policy` — ``+R`` keeps only the best rewritings under a
  lexicographic order (fewest uncovered terms, then fewest views), and
  ``·`` merges records.  This is the paper's preferred reading of
  Examples 2.2/2.3 ("we might prefer Q4 ...").
- :func:`compact_policy` — like focused, but also merges across tuples
  into a single result-set record (Example 3.4's single-citation
  outcome under idempotent ``+``/``Agg``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.citation.combiners import (
    AGG_INTERPRETATIONS,
    DOT_INTERPRETATIONS,
    PLUS_INTERPRETATIONS,
)
from repro.citation.order import (
    FewestUncoveredOrder,
    FewestViewsOrder,
    LexicographicOrder,
    MonomialOrder,
    ViewInclusionOrder,
)
from repro.errors import PolicyError
from repro.views.registry import ViewRegistry


@dataclass(frozen=True)
class CitationPolicy:
    """Interpretations of ``+``, ``·``, ``+R``, ``Agg`` plus an order.

    Attributes
    ----------
    name:
        Identifier for display and EXPERIMENTS.md bookkeeping.
    dot:
        ``·`` at record level: ``"merge"`` (join records, factoring shared
        fields) or ``"union"`` (keep side by side) — Example 3.5.
    plus:
        ``+`` across bindings: ``"union"`` (idempotent, set-like — the
        default throughout the paper's examples) or ``"counted"`` (keep
        binding multiplicities: each record of a monomial derived more
        than once carries a ``"DerivationCount"`` field).
    plus_r:
        ``+R`` across rewritings: ``"union"`` (Def 3.3's formal sum) or
        ``"best"`` (order-based absorption, Section 3.4; requires
        ``order``).
    agg:
        ``Agg`` across output tuples: ``"union"`` or ``"merge"``.
    order:
        The monomial order used for absorption and ``plus_r="best"``.
    include_database_citation:
        Inject the Agg neutral element (database-level citation records)
        into every result — even for empty outputs (Def 3.4).
    """

    name: str
    dot: str = "merge"
    plus: str = "union"
    plus_r: str = "union"
    agg: str = "union"
    order: MonomialOrder | None = None
    include_database_citation: bool = True

    def __post_init__(self) -> None:
        if self.dot not in DOT_INTERPRETATIONS:
            raise PolicyError(f"unknown · interpretation: {self.dot!r}")
        if self.plus not in ("union", "counted"):
            raise PolicyError(f"unknown + interpretation: {self.plus!r}")
        if self.plus_r not in ("union", "best"):
            raise PolicyError(f"unknown +R interpretation: {self.plus_r!r}")
        if self.agg not in AGG_INTERPRETATIONS:
            raise PolicyError(f"unknown Agg interpretation: {self.agg!r}")
        if self.plus_r == "best" and self.order is None:
            raise PolicyError(
                'plus_r="best" needs an order relation (Section 3.4)'
            )

    # -- record-level combiner lookups ------------------------------------------

    @property
    def dot_combiner(self) -> Callable:
        return DOT_INTERPRETATIONS[self.dot]

    @property
    def plus_combiner(self) -> Callable:
        return PLUS_INTERPRETATIONS["union"]

    @property
    def agg_combiner(self) -> Callable:
        return AGG_INTERPRETATIONS[self.agg]

    @property
    def idempotent_plus(self) -> bool:
        """Is ``+`` idempotent under this policy (Example 3.4)?"""
        return self.plus == "union"


def default_order(registry: ViewRegistry | None = None) -> MonomialOrder:
    """The library's default preference order.

    Lexicographic: fewest uncovered base relations (Example 3.7), then
    fewest views (Example 3.6), then — when a registry is supplied — view
    inclusion (Example 3.8).  This realizes the Section 2.3 discussion:
    total rewritings beat partial ones, then compactness, then best fit.
    """
    orders: list[MonomialOrder] = [FewestUncoveredOrder(), FewestViewsOrder()]
    if registry is not None:
        orders.append(ViewInclusionOrder(registry))
    return LexicographicOrder(orders)


def comprehensive_policy() -> CitationPolicy:
    """Keep all alternatives from all rewritings (Def 3.3 verbatim)."""
    return CitationPolicy(
        name="comprehensive", dot="union", plus="union", plus_r="union",
        agg="union",
    )


def focused_policy(registry: ViewRegistry | None = None) -> CitationPolicy:
    """Order-based absorption: cite only the preferred rewritings."""
    return CitationPolicy(
        name="focused", dot="merge", plus="union", plus_r="best",
        agg="union", order=default_order(registry),
    )


def compact_policy(registry: ViewRegistry | None = None) -> CitationPolicy:
    """Single merged citation for the whole result set (Example 3.4)."""
    return CitationPolicy(
        name="compact", dot="merge", plus="union", plus_r="best",
        agg="merge", order=default_order(registry),
    )
