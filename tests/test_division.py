"""Division with remainder: the worked examples and the exactness laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebner import GF, GREVLEX, LEX, QQ, PolynomialRing, divide, normal_form, s_polynomial
from groebner.poly import mono_divides


def test_division_depends_on_list_order(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    g = x * x * y
    first = divide(g, [x * y, x * x + y * y])
    assert first.remainder.is_zero
    second = divide(g, [x * x + y * y, x * y])
    assert second.remainder == -(y ** 3)


def test_divide_zero(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    res = divide(ring_qq_xy.zero(), [x, y])
    assert res.remainder.is_zero
    assert all(q.is_zero for q in res.quotients)


def test_divide_rejects_bad_input(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    with pytest.raises(ValueError):
        divide(x, [])
    with pytest.raises(ValueError):
        divide(x, [ring_qq_xy.zero()])
    other = PolynomialRing(QQ, ["a"], LEX)
    with pytest.raises(ValueError):
        divide(x, [other.variable(0)])


def test_s_polynomial_examples(cubic_lex, ring_qq_xy):
    ring, (f1, f2, f3) = cubic_lex
    w, x, y, z = ring.variables()
    s = s_polynomial(f2, f3)
    assert s == -(x * z * z) + y ** 3

    xx, yy = ring_qq_xy.variables()
    assert s_polynomial(xx * xx + yy * yy, xx * yy) == yy ** 3

    # a multiple has zero S-polynomial against its source
    f = xx * xx + yy
    s = s_polynomial(f, f.monomial_mul(1, (1, 0)))
    assert divide(s, [f]).remainder.is_zero


def test_s_polynomial_drops_the_lcm_term(cubic_lex):
    ring, gens = cubic_lex
    from groebner.poly import mono_lcm

    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lcm = mono_lcm(gens[i].lead_monomial, gens[j].lead_monomial)
            s = s_polynomial(gens[i], gens[j])
            if not s.is_zero:
                assert ring.monomial_key(s.lead_monomial) < ring.monomial_key(lcm)


def _random_poly(draw, ring, max_terms=5, max_deg=3, nonzero=False):
    n = draw(st.integers(1, max_terms))
    pairs = [
        (draw(st.integers(-9, 9)), draw(st.tuples(*[st.integers(0, max_deg)] * ring.nvars)))
        for _ in range(n)
    ]
    p = ring.polynomial(pairs)
    if nonzero and p.is_zero:
        p = ring.one()
    return p


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_division_identity_and_remainder_property(data):
    ring = PolynomialRing(GF(101), ["x", "y", "z"], GREVLEX)
    g = _random_poly(data.draw, ring)
    divisors = [_random_poly(data.draw, ring, nonzero=True) for _ in range(data.draw(st.integers(1, 3)))]
    res = divide(g, divisors)
    recombined = res.remainder
    for q, f in zip(res.quotients, divisors):
        recombined = recombined + q * f
    assert recombined == g
    for t in res.remainder.terms:
        for f in divisors:
            assert not mono_divides(f.lead_monomial, t.monomial)


def test_normal_form_of_standard_monomial(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    from groebner import buchberger

    gb = buchberger([x * x + y * y, x * y])
    # in(I) = (x^2, xy, y^3), so y^2 is a standard monomial
    assert normal_form(y * y, gb) == y * y
    assert normal_form(x * x * y, gb).is_zero


def test_normal_form_of_a_plain_list(ring_qq_xy):
    # a list is divided through as it stands, in its order
    x, y = ring_qq_xy.variables()
    assert normal_form(x * x * y, [x * y, x * x + y * y]).is_zero
    assert normal_form(x * x * y, [x * x + y * y, x * y]) == -(y ** 3)
    assert normal_form(x * y, []) == x * y


def test_normal_form_takes_the_basis_order():
    # a grevlex polynomial against a lex basis: the basis reorders it
    from groebner import buchberger

    x, y, z = PolynomialRing(QQ, ["x", "y", "z"], GREVLEX).variables()
    g = x * x * y + y ** 3 * z + x * z
    gb = buchberger([x * x + y * z, x * y - z * z], order=LEX)
    assert normal_form(g, gb) == gb.normal_form(g)
    assert normal_form(g, gb).ring.order == LEX
