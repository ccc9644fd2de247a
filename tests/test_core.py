"""Scalars, monomial orders, and polynomial arithmetic."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebner import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    PolynomialRing,
    compare,
    eliminate_order,
    weight_order,
)
from groebner.orders import EQ, GT, LT
from groebner.oracle import monomials_of_degree

# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_prime_field_validates_modulus():
    with pytest.raises(ValueError):
        GF(10)
    with pytest.raises(ValueError):
        GF(2**31 + 11)
    assert GF(32003).modulus == 32003


def test_prime_field_inverse_is_extended_euclid():
    F = GF(32003)
    for a in (1, 2, 17, 31999, 12345):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_rational_normalization():
    assert QQ.normalize(4) == Fraction(4)
    x = QQ.div(QQ.normalize(6), QQ.normalize(-4))
    assert x.denominator == 2 and x.numerator == -3
    assert type(QQ.div(6, -4)) is Fraction and QQ.div(6, -4) == x


def test_integer_forms_and_the_step_multipliers():
    coeffs = [Fraction(-4, 3), Fraction(2, 9), Fraction(10, 3)]
    num, den, ints, bits = QQ.integer_form(coeffs)
    assert (num, den, ints, bits) == (2, 9, [-6, 1, 15], 4)
    assert [Fraction(num, den) * k for k in ints] == coeffs
    assert QQ.integer_form([5, -10])[:3] == (5, 1, [1, -2])
    # a > 0 and a*t == b*e, with the gcd taken out
    for t, e in [(6, -4), (-6, 4), (7, 3), (12, 12)]:
        a, b = QQ.cancel(t, e)
        assert a > 0 and a * t == b * e and abs(math.gcd(a, b)) == 1
    F = GF(7)
    assert F.integer_form([3, 5]) is None
    assert F.cancel(3, 1) == (1, 3)
    a, b = F.cancel(3, 2)
    assert a == 1 and F.mul(b, 2) == 3


# ---------------------------------------------------------------------------
# orders: the degree-2 chains
# ---------------------------------------------------------------------------

DEG2 = [
    "w^2 wx wy wz x^2 xy xz y^2 yz z^2".split(),
]


def _mono(word):
    m = [0, 0, 0, 0]
    names = "wxyz"
    i = 0
    while i < len(word):
        v = names.index(word[i])
        if i + 2 <= len(word) and word[i + 1] == "^":
            m[v] += int(word[i + 2])
            i += 3
        else:
            m[v] += 1
            i += 1
    return tuple(m)


def test_lex_degree_two_chain():
    chain = [_mono(w) for w in "w^2 wx wy wz x^2 xy xz y^2 yz z^2".split()]
    for a, b in zip(chain, chain[1:]):
        assert compare(a, b, LEX) == GT


def test_grevlex_degree_two_chain():
    chain = [_mono(w) for w in "w^2 wx x^2 wy xy y^2 wz xz yz z^2".split()]
    for a, b in zip(chain, chain[1:]):
        assert compare(a, b, GREVLEX) == GT


def test_compare_identity():
    assert compare((1, 2, 0, 3), (1, 2, 0, 3), GREVLEX) == EQ


def test_weight_order_matches_lex_in_degree_two():
    W = weight_order((-16, -4, -1, 0))
    for a, b in combinations(monomials_of_degree(4, 2), 2):
        assert compare(a, b, W) == compare(a, b, LEX)


def test_lex_grevlex_agree_degree_one_disagree_degree_two():
    ones = monomials_of_degree(3, 1)
    for a, b in combinations(ones, 2):
        assert compare(a, b, LEX) == compare(a, b, GREVLEX)
    twos = monomials_of_degree(3, 2)
    assert any(
        compare(a, b, LEX) != compare(a, b, GREVLEX) for a, b in combinations(twos, 2)
    )


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        compare((1, 0), (1, 0, 0), LEX)
    with pytest.raises(ValueError):
        PolynomialRing(QQ, ["x", "y"], weight_order((1, 2, 3)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_multiplicativity_random_triples(data):
    order = data.draw(
        st.sampled_from(
            [LEX, GREVLEX, eliminate_order(1), weight_order((-9, -3, -1), tiebreak=GREVLEX)]
        )
    )
    exps = st.tuples(*[st.integers(0, 6)] * 3)
    a, b, c = data.draw(exps), data.draw(exps), data.draw(exps)
    before = compare(a, b, order)
    shifted = compare(
        tuple(x + y for x, y in zip(a, c)), tuple(x + y for x, y in zip(b, c)), order
    )
    assert before == shifted


def test_weight_with_distinct_weights_equals_weight_functional():
    W = (-27, -9, -1)
    order = weight_order(W)
    for d in (1, 2, 3):
        monos = monomials_of_degree(3, d)
        weights = {m: sum(w * e for w, e in zip(W, m)) for m in monos}
        assert len(set(weights.values())) == len(monos)  # distinct on this range
        for a, b in combinations(monos, 2):
            expect = GT if weights[a] < weights[b] else LT
            assert compare(a, b, order) == expect


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_leading_terms(ring_qq_lex):
    R = ring_qq_lex
    w, x, y, z = R.variables()
    f = x * x + y * y
    assert f.lead_term.monomial == (0, 2, 0, 0)
    assert (w * z - y * y).lead_term.monomial == (1, 0, 0, 1)
    single = R.monomial((0, 1, 2, 0), 5)
    assert single.lead_term == (5, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        R.zero().lead_term


def test_basic_identities(ring_qq_lex):
    R = ring_qq_lex
    w, x, y, z = R.variables()
    f = w * w - x * y
    assert (f + (-f)).is_zero
    assert (x + y) * (x - y) == x * x - y * y
    assert (w * y - x * z).monomial_mul(1, (0, 1, 0, 0)) == w * x * y - x * x * z


def test_reorder_changes_term_order():
    R1 = PolynomialRing(QQ, ["x", "y", "z"], LEX)
    R2 = R1.with_order(GREVLEX)
    x, y, z = R1.variables()
    f = x * z * z - y * y * y  # lex lead xz^2, grevlex lead -y^3
    assert f.lead_monomial == (1, 0, 2)
    g = f.reorder(R2)
    assert g.lead_monomial == (0, 3, 0)
    assert g.reorder(R1) == f


def test_prime_field_str_round_values():
    R = PolynomialRing(GF(7), ["x", "y"], GREVLEX)
    x, y = R.variables()
    f = x.scalar_mul(6) + y  # 6 = -1 mod 7
    assert str(f) == "-x + y" or str(f) == "y - x"


poly_coeffs = st.integers(-6, 6)


def _random_poly(draw, ring, max_terms=5, max_deg=3):
    n = draw(st.integers(1, max_terms))
    pairs = []
    for _ in range(n):
        mono = draw(
            st.tuples(*[st.integers(0, max_deg)] * ring.nvars)
        )
        pairs.append((draw(poly_coeffs), mono))
    return ring.polynomial(pairs)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_ring_distributivity(data):
    ring = PolynomialRing(QQ, ["x", "y", "z"], GREVLEX)
    f = _random_poly(data.draw, ring)
    g = _random_poly(data.draw, ring)
    h = _random_poly(data.draw, ring)
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f - f).is_zero


def test_wide_rings_and_large_exponents():
    names = [f"x{i}" for i in range(70)]
    R = PolynomialRing(GF(32003), names, GREVLEX)
    a = R.variable(0) ** 70000
    b = R.variable(69) ** 70000
    assert compare(a.lead_monomial, b.lead_monomial, GREVLEX) == GT
    assert (a * b).total_degree() == 140000


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_terms_stay_strictly_descending(data):
    ring = PolynomialRing(GF(101), ["x", "y"], GREVLEX)
    f = _random_poly(data.draw, ring)
    g = _random_poly(data.draw, ring)
    for p in (f + g, f * g):
        keys = [ring.monomial_key(t.monomial) for t in p.terms]
        assert keys == sorted(keys, reverse=True)
        assert all(t.coeff != 0 for t in p.terms)
