"""Tests for provenance monomials and polynomials."""

from repro.semiring import BOOLEAN, COUNTING, TROPICAL
from repro.semiring.polynomial import (
    POLYNOMIAL,
    ProvenanceMonomial,
    ProvenancePolynomial,
)


def tok(name):
    return ProvenancePolynomial.token(name)


class TestMonomial:
    def test_from_iterable_counts_multiplicity(self):
        m = ProvenanceMonomial(["x", "y", "x"])
        assert m.powers == {"x": 2, "y": 1}
        assert m.degree == 3

    def test_canonical_order(self):
        m1 = ProvenanceMonomial(["x", "y"])
        m2 = ProvenanceMonomial(["y", "x"])
        assert m1 == m2 and hash(m1) == hash(m2)
        assert repr(m1) == repr(m2)

    def test_multiply_adds_exponents(self):
        m = ProvenanceMonomial(["x"]).multiply(ProvenanceMonomial(["x", "y"]))
        assert m.powers == {"x": 2, "y": 1}

    def test_one(self):
        one = ProvenanceMonomial()
        assert one.is_one
        assert one.multiply(ProvenanceMonomial(["x"])).powers == {"x": 1}

    def test_dropped_exponents(self):
        m = ProvenanceMonomial({"x": 3, "y": 1})
        assert m.dropped_exponents().powers == {"x": 1, "y": 1}

    def test_divides(self):
        small = ProvenanceMonomial({"x": 1})
        big = ProvenanceMonomial({"x": 2, "y": 1})
        assert small.divides(big)
        assert not big.divides(small)

    def test_zero_exponents_dropped(self):
        assert ProvenanceMonomial({"x": 0}).is_one


class TestPolynomial:
    def test_add_merges_coefficients(self):
        p = tok("x").add(tok("x"))
        assert list(p.terms.values()) == [2]

    def test_multiply_distributes(self):
        p = tok("x").add(tok("y")).multiply(tok("z"))
        monomials = {repr(m) for m in p.monomials()}
        assert monomials == {"x·z", "y·z"}

    def test_zero_annihilates(self):
        z = ProvenancePolynomial.zero()
        assert z.multiply(tok("x")).is_zero
        assert z.add(tok("x")) == tok("x")

    def test_one_neutral(self):
        one = ProvenancePolynomial.one()
        assert one.multiply(tok("x")) == tok("x")

    def test_equality_and_hash(self):
        p1 = tok("x").add(tok("y"))
        p2 = tok("y").add(tok("x"))
        assert p1 == p2 and hash(p1) == hash(p2)

    def test_variables(self):
        p = tok("x").multiply(tok("y")).add(tok("z"))
        assert p.variables() == frozenset({"x", "y", "z"})

    def test_repr_shows_coefficients(self):
        p = tok("x").add(tok("x"))
        assert repr(p) == "2·x"

    def test_zero_coefficients_removed(self):
        p = ProvenancePolynomial({ProvenanceMonomial(["x"]): 0})
        assert p.is_zero

    def test_order_ignores_insertion_when_monomials_print_alike(self):
        # The unit monomial and the token 1 both print as "1".
        unit, one = ProvenanceMonomial(), ProvenanceMonomial([1])
        forward = ProvenancePolynomial({unit: 1, one: 2})
        backward = ProvenancePolynomial({one: 2, unit: 1})
        assert repr(forward) == repr(backward)
        assert list(forward.terms) == list(backward.terms)


class TestSpecialization:
    """Universality of N[X]: evaluation commutes with specialization."""

    def test_boolean_specialization(self):
        # (x·y + z) with x=T, y=F, z=T => T
        p = tok("x").multiply(tok("y")).add(tok("z"))
        value = p.specialize(BOOLEAN, {"x": True, "y": False,
                                       "z": True}.__getitem__)
        assert value is True

    def test_counting_specialization(self):
        # 2x + x·y with x=2, y=3 => 2*2 + 2*3 = 10
        p = tok("x").add(tok("x")).add(tok("x").multiply(tok("y")))
        value = p.specialize(COUNTING, {"x": 2, "y": 3}.__getitem__)
        assert value == 10

    def test_tropical_specialization(self):
        # min(x+y, z) with costs x=1, y=2, z=5 => 3
        p = tok("x").multiply(tok("y")).add(tok("z"))
        value = p.specialize(TROPICAL, {"x": 1.0, "y": 2.0,
                                        "z": 5.0}.__getitem__)
        assert value == 3.0

    def test_exponents_respected(self):
        p = ProvenancePolynomial({ProvenanceMonomial({"x": 2}): 1})
        assert p.specialize(COUNTING, {"x": 3}.__getitem__) == 9

    def test_specialize_zero_and_one(self):
        assert ProvenancePolynomial.zero().specialize(
            COUNTING, lambda t: 1) == 0
        assert ProvenancePolynomial.one().specialize(
            COUNTING, lambda t: 7) == 1


class TestPolynomialSemiring:
    def test_token_constructor(self):
        assert POLYNOMIAL.token("x") == tok("x")

    def test_is_zero(self):
        assert POLYNOMIAL.is_zero(POLYNOMIAL.zero)
        assert not POLYNOMIAL.is_zero(POLYNOMIAL.one)
