"""Citation monomials and polynomials.

The citation semiring reuses the free-semiring machinery of
:mod:`repro.semiring.polynomial` with citation tokens as the variables: a
*monomial* is the ``·``-combination of view citations (and ``C_R`` atoms)
inside one binding of one rewriting (Def 3.1); a *polynomial* sums
monomials over alternative bindings and — after ``+R`` flattening —
alternative rewritings (Defs 3.2 / 3.3).

Coefficients count derivations (how many bindings produced the same
monomial).  Idempotent interpretations of ``+`` (Example 3.4, "assuming
that + is idempotent, e.g. as in set union") simply ignore coefficients;
:meth:`CitationPolynomial.support`-style helpers expose both readings.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.citation.tokens import (
    BaseRelationToken,
    CitationToken,
    ViewCitationToken,
)
from repro.semiring.polynomial import ProvenanceMonomial, ProvenancePolynomial

#: Citation monomials/polynomials are provenance monomials/polynomials
#: whose variables are :class:`~repro.citation.tokens.CitationToken`s.
CitationMonomial = ProvenanceMonomial
CitationPolynomial = ProvenancePolynomial


def monomial_from_tokens(tokens: Iterable[CitationToken]) -> CitationMonomial:
    """Build the ``·``-product of the given tokens (Def 3.1)."""
    return ProvenanceMonomial(list(tokens))


def polynomial_from_monomials(
    monomials: Iterable[CitationMonomial],
) -> CitationPolynomial:
    """Sum monomials with multiplicity (Def 3.2's Σ over bindings)."""
    terms: dict[CitationMonomial, int] = {}
    for monomial in monomials:
        terms[monomial] = terms.get(monomial, 0) + 1
    return ProvenancePolynomial(terms)


def view_tokens(monomial: CitationMonomial) -> list[ViewCitationToken]:
    """The view-citation tokens of a monomial, in canonical order."""
    return [
        token for token in monomial.tokens()
        if isinstance(token, ViewCitationToken)
    ]


def base_tokens(monomial: CitationMonomial) -> list[BaseRelationToken]:
    """The ``C_R`` tokens of a monomial, in canonical order."""
    return [
        token for token in monomial.tokens()
        if isinstance(token, BaseRelationToken)
    ]


def view_token_count(monomial: CitationMonomial) -> int:
    """Number of view multiplicands, *with* multiplicity.

    Example 3.6 compares monomials by their number of multiplicands,
    counting views only ("note that we only cite views, not base
    relations").
    """
    return sum(
        exponent
        for token, exponent in monomial.powers.items()
        if isinstance(token, ViewCitationToken)
    )


def base_token_count(monomial: CitationMonomial) -> int:
    """Number of ``C_R`` multiplicands with multiplicity (Example 3.7)."""
    return sum(
        exponent
        for token, exponent in monomial.powers.items()
        if isinstance(token, BaseRelationToken)
    )


def polynomial_support(
    polynomial: CitationPolynomial,
) -> list[CitationMonomial]:
    """Monomials without coefficients — the idempotent-``+`` reading."""
    return polynomial.monomials()


def idempotent_sum(
    polynomials: Iterable[CitationPolynomial],
) -> CitationPolynomial:
    """Union of monomial supports: ``+`` as set union (Example 3.4)."""
    terms: dict[CitationMonomial, int] = {}
    for polynomial in polynomials:
        terms.update(dict.fromkeys(polynomial.support(), 1))
    return ProvenancePolynomial(terms)
