"""Property-based tests (hypothesis) for the semiring substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citation.polynomial import idempotent_sum
from repro.semiring import BOOLEAN, COUNTING, TROPICAL, WHY
from repro.semiring.polynomial import ProvenanceMonomial, ProvenancePolynomial

tokens = st.sampled_from(["x", "y", "z", "w"])


@st.composite
def monomials(draw):
    return ProvenanceMonomial(
        draw(st.lists(tokens, min_size=0, max_size=4))
    )


@st.composite
def polynomials(draw):
    terms = draw(st.dictionaries(monomials(),
                                 st.integers(min_value=1, max_value=3),
                                 max_size=4))
    return ProvenancePolynomial(terms)


class TestPolynomialSemiringLaws:
    @given(polynomials(), polynomials())
    def test_add_commutative(self, p, q):
        assert p.add(q) == q.add(p)

    @given(polynomials(), polynomials(), polynomials())
    def test_add_associative(self, p, q, r):
        assert p.add(q).add(r) == p.add(q.add(r))

    @given(polynomials(), polynomials())
    def test_multiply_commutative(self, p, q):
        assert p.multiply(q) == q.multiply(p)

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=50)
    def test_multiply_associative(self, p, q, r):
        assert p.multiply(q).multiply(r) == p.multiply(q.multiply(r))

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=50)
    def test_distributivity(self, p, q, r):
        assert p.multiply(q.add(r)) == p.multiply(q).add(p.multiply(r))

    @given(polynomials())
    def test_identities(self, p):
        assert p.add(ProvenancePolynomial.zero()) == p
        assert p.multiply(ProvenancePolynomial.one()) == p
        assert p.multiply(ProvenancePolynomial.zero()).is_zero


class TestUniversality:
    """Specializing N[X] commutes with the semiring operations."""

    values = {"x": 2, "y": 0, "z": 3, "w": 1}

    @given(polynomials(), polynomials())
    @settings(max_examples=50)
    def test_add_commutes_with_counting(self, p, q):
        direct = p.add(q).specialize(COUNTING, self.values.__getitem__)
        split = COUNTING.add(
            p.specialize(COUNTING, self.values.__getitem__),
            q.specialize(COUNTING, self.values.__getitem__),
        )
        assert direct == split

    @given(polynomials(), polynomials())
    @settings(max_examples=50)
    def test_multiply_commutes_with_counting(self, p, q):
        direct = p.multiply(q).specialize(COUNTING, self.values.__getitem__)
        split = COUNTING.multiply(
            p.specialize(COUNTING, self.values.__getitem__),
            q.specialize(COUNTING, self.values.__getitem__),
        )
        assert direct == split

    @given(polynomials(), polynomials())
    @settings(max_examples=50)
    def test_add_commutes_with_boolean(self, p, q):
        bools = {"x": True, "y": False, "z": True, "w": False}
        direct = p.add(q).specialize(BOOLEAN, bools.__getitem__)
        split = BOOLEAN.add(
            p.specialize(BOOLEAN, bools.__getitem__),
            q.specialize(BOOLEAN, bools.__getitem__),
        )
        assert direct == split


class TestWhyProvenance:
    why_values = st.builds(
        lambda names: WHY.sum([WHY.token(n) for n in names]),
        st.lists(tokens, max_size=3),
    )

    @given(why_values, why_values)
    def test_add_idempotent_commutative(self, a, b):
        assert WHY.add(a, a) == a
        assert WHY.add(a, b) == WHY.add(b, a)

    @given(why_values, why_values, why_values)
    @settings(max_examples=50)
    def test_distributivity(self, a, b, c):
        assert WHY.multiply(a, WHY.add(b, c)) == WHY.add(
            WHY.multiply(a, b), WHY.multiply(a, c)
        )

    @given(why_values)
    def test_minimized_is_subset_with_same_minimal_witnesses(self, a):
        minimized = WHY.minimized(a)
        assert minimized <= a
        for witness in a:
            assert any(kept <= witness for kept in minimized)


class TestTropical:
    costs = st.floats(min_value=0, max_value=100, allow_nan=False)

    @given(costs, costs, costs)
    def test_min_plus_distributivity(self, a, b, c):
        left = TROPICAL.multiply(a, TROPICAL.add(b, c))
        right = TROPICAL.add(TROPICAL.multiply(a, b),
                             TROPICAL.multiply(a, c))
        assert left == right


# Tokens whose repr order is neither their insertion order nor their
# natural order: ints sort by repr as "10" < "9", and every str repr
# ("'x'") sorts before every int repr.
mixed_tokens = st.one_of(st.sampled_from(["x", "y", "z", "w"]),
                         st.integers(min_value=0, max_value=12))


@st.composite
def monomial_items(draw):
    """A token multiset as (token, exponent) pairs in drawn order."""
    powers = draw(st.dictionaries(mixed_tokens,
                                  st.integers(min_value=1, max_value=3),
                                  max_size=4))
    return draw(st.permutations(list(powers.items())))


@st.composite
def mixed_polynomials(draw):
    terms = {}
    for items in draw(st.lists(monomial_items(), max_size=4)):
        terms[ProvenanceMonomial(dict(items))] = draw(
            st.integers(min_value=1, max_value=3))
    return ProvenancePolynomial(
        dict(draw(st.permutations(list(terms.items()))))
    )


def eager_monomial(monomial):
    """(sorted powers, repr) as eager canonicalization computes them."""
    items = sorted(dict(monomial.powers).items(), key=lambda kv: repr(kv[0]))
    text = "·".join(str(t) if e == 1 else f"{t}^{e}" for t, e in items)
    return items, text or "1"


def assert_canonical_monomial(monomial):
    items, text = eager_monomial(monomial)
    assert list(monomial.powers.items()) == items
    assert monomial.tokens() == [token for token, __ in items]
    assert repr(monomial) == text


def assert_canonical_polynomial(polynomial):
    terms = sorted(dict(polynomial.terms).items(),
                   key=lambda kv: eager_monomial(kv[0])[1])
    assert list(polynomial.terms.items()) == terms
    assert polynomial.monomials() == [monomial for monomial, __ in terms]
    for monomial, __ in terms:
        assert_canonical_monomial(monomial)
    text = " + ".join(
        eager_monomial(m)[1] if c == 1 else f"{c}·{eager_monomial(m)[1]}"
        for m, c in terms
    )
    assert repr(polynomial) == (text or "0")


class TestLazyCanonicalOrder:
    """Ordered views equal the eagerly sorted order, whatever the
    construction order; equality and hash ignore construction order."""

    @given(monomial_items(), st.data())
    def test_monomial_order_independent_of_insertion(self, items, data):
        shuffled = data.draw(st.permutations(items))
        from_map = ProvenanceMonomial(dict(items))
        from_tokens = ProvenanceMonomial(
            [token for token, exponent in shuffled for __ in range(exponent)]
        )
        assert from_map == from_tokens
        assert hash(from_map) == hash(from_tokens)
        assert repr(from_map) == repr(from_tokens)
        assert_canonical_monomial(from_map)
        assert_canonical_monomial(from_tokens)

    @given(monomial_items(), monomial_items())
    def test_monomial_operations_stay_canonical(self, left, right):
        a = ProvenanceMonomial(dict(left))
        b = ProvenanceMonomial(dict(right))
        assert_canonical_monomial(a.multiply(b))
        assert_canonical_monomial(b.multiply(a))
        assert a.multiply(b) == b.multiply(a)
        assert hash(a.multiply(b)) == hash(b.multiply(a))
        assert_canonical_monomial(a.dropped_exponents())

    @given(mixed_polynomials(), st.data())
    def test_polynomial_order_independent_of_insertion(self, p, data):
        reordered = ProvenancePolynomial(
            dict(data.draw(st.permutations(list(p.terms.items()))))
        )
        assert reordered == p
        assert hash(reordered) == hash(p)
        assert repr(reordered) == repr(p)
        assert_canonical_polynomial(p)

    @given(mixed_polynomials(), mixed_polynomials())
    @settings(max_examples=50)
    def test_polynomial_operations_stay_canonical(self, p, q):
        for result in (p.add(q), q.add(p), p.multiply(q), q.multiply(p),
                       idempotent_sum([p, q]), idempotent_sum([q, p])):
            assert_canonical_polynomial(result)
        assert p.add(q) == q.add(p)
        assert hash(p.multiply(q)) == hash(q.multiply(p))
        assert repr(idempotent_sum([p, q])) == repr(idempotent_sum([q, p]))
