"""Division with remainder: the worked examples and the exactness laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebner import (
    GF, GREVLEX, LEX, QQ, FreeModule, PolynomialRing, divide, normal_form, s_polynomial,
)
from groebner import modules
from groebner.modules import (
    ModuleElement,
    PositionOverTerm,
    TermOverPosition,
    as_module_elements,
    module_divide,
)
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
    pairs = [(_coeff(draw, ring.field), draw(st.tuples(*[st.integers(0, max_deg)] * ring.nvars)))
             for _ in range(n)]
    p = ring.polynomial(pairs)
    if nonzero and p.is_zero:
        p = ring.one()
    return p


def _coeff(draw, field):
    """A small integer, or over QQ a small rational."""
    num = draw(st.integers(-9, 9))
    return Fraction(num, draw(st.integers(1, 9))) if field == QQ else num


def _reference_divide(g, divisors):
    """Least-index division written out on dicts {(component, monomial):
    coeff}, one term at a time, with Fraction arithmetic over QQ and
    residues mod p otherwise.  Returns (quotients, remainder) as dicts."""
    module = g.module
    field = module.ring.field
    if field == QQ:
        inv, norm = (lambda a: 1 / a), (lambda a: a)
    else:
        p = field.modulus
        inv, norm = (lambda a: pow(a, -1, p)), (lambda a: a % p)

    def key(term):
        return module.order.key(term[1], term[0])

    def as_dict(e):
        return {(ci, t.monomial): t.coeff for ci, poly in enumerate(e.comps) for t in poly.terms}

    rest = as_dict(g)
    divs = [as_dict(f) for f in divisors]
    leads = [max(d, key=key) for d in divs]
    quotients = [{} for _ in divisors]
    remainder = {}
    while rest:
        lead = max(rest, key=key)
        for i, (ci, m) in enumerate(leads):
            if ci == lead[0] and mono_divides(m, lead[1]):
                q = tuple(a - b for a, b in zip(lead[1], m))
                c = norm(rest[lead] * inv(divs[i][ci, m]))
                quotients[i][q] = norm(quotients[i].get(q, 0) + c)
                for (cj, mj), cf in divs[i].items():
                    term = (cj, tuple(a + b for a, b in zip(mj, q)))
                    v = norm(rest.get(term, 0) - c * cf)
                    if v:
                        rest[term] = v
                    else:
                        rest.pop(term, None)
                break
        else:
            remainder[lead] = rest.pop(lead)
    return quotients, remainder


def _check_against_reference(g, divisors):
    """module_divide agrees with the reference term for term, keeps the
    division identity, and over QQ hands out Fractions only."""
    res = module_divide(g, divisors)
    quotients, remainder = _reference_divide(g, divisors)
    assert [{t.monomial: t.coeff for t in q.terms} for q in res.quotients] == quotients
    assert {
        (ci, t.monomial): t.coeff for ci, p in enumerate(res.remainder.comps) for t in p.terms
    } == remainder
    recombined = res.remainder
    for q, f in zip(res.quotients, divisors):
        recombined = recombined + ModuleElement(f.module, tuple(q * c for c in f.comps))
    assert recombined == g
    if g.module.ring.field == QQ:
        outputs = list(res.remainder.comps) + list(res.quotients)
        assert all(type(t.coeff) is Fraction for p in outputs for t in p.terms)
    return res


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_division_identity_and_remainder_property(data):
    field = data.draw(st.sampled_from([QQ, GF(101)]))
    ring = PolynomialRing(field, ["x", "y", "z"], GREVLEX)
    g = _random_poly(data.draw, ring)
    count = data.draw(st.integers(1, 3))
    divisors = [_random_poly(data.draw, ring, nonzero=True) for _ in range(count)]
    # non-monic divisors, and ones with a negative lead coefficient
    scales = [-3, -1, 2, 5] + ([Fraction(-2, 7), Fraction(9, 4)] if field == QQ else [])
    divisors = [f * data.draw(st.sampled_from(scales)) for f in divisors]
    res = divide(g, divisors)
    recombined = res.remainder
    for q, f in zip(res.quotients, divisors):
        recombined = recombined + q * f
    assert recombined == g
    for t in res.remainder.terms:
        for f in divisors:
            assert not mono_divides(f.lead_monomial, t.monomial)
    _, (dividend, *elements) = as_module_elements([g] + divisors)
    _check_against_reference(dividend, elements)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_rank_two_division_matches_the_reference(data):
    field = data.draw(st.sampled_from([QQ, GF(101)]))
    ring = PolynomialRing(field, ["x", "y", "z"], GREVLEX)
    order = data.draw(st.sampled_from([TermOverPosition(ring), PositionOverTerm(ring)]))
    module = FreeModule(ring, (0, 1), order)

    def element(nonzero=False):
        comps = [_random_poly(data.draw, ring, max_terms=4) for _ in range(2)]
        if data.draw(st.booleans()):
            comps[data.draw(st.integers(0, 1))] = ring.zero()
        e = module.element(comps)
        return module.element((ring.one(), ring.zero())) if nonzero and e.is_zero else e

    g = element()
    divisors = [element(nonzero=True) for _ in range(data.draw(st.integers(1, 3)))]
    _check_against_reference(g, divisors)


def test_long_division_by_large_denominators_removes_content(monkeypatch):
    # divisors with large-denominator, non-monic coefficients make the
    # integer coefficients grow until their content is divided out
    ring = PolynomialRing(QQ, ["x", "y", "z"], GREVLEX)
    x, y, z = ring.variables()
    f1 = Fraction(2, 9) * x * y * z - Fraction(8, 81) * y ** 2 + 8 * x * z
    f2 = (Fraction(28, 27) * x ** 2 * y ** 2 - Fraction(11, 10007) * x ** 2 * z ** 2
          - Fraction(12, 7919) * y ** 2 * z)
    g = ((x + Fraction(2, 3) * y + z) ** 6 - Fraction(25, 3) * x ** 5 * y ** 6 * z ** 6
         + Fraction(5, 9) * x ** 3 * y ** 6 * z ** 4 - Fraction(14, 9973) * x ** 6 * y ** 4
         - Fraction(3, 1009) * x ** 4 * y ** 5 * z - x ** 4 * z ** 2)
    removals = []
    inner = modules._remove_content

    def spy(*args):
        out = inner(*args)
        removals.append(args[1:3] != out[:2])  # the content was not one
        return out

    monkeypatch.setattr(modules, "_remove_content", spy)
    _, (dividend, *elements) = as_module_elements([g, f1, f2])
    res = _check_against_reference(dividend, elements)
    assert res.steps > 100 and any(removals)


def test_a_long_remainder():
    # no divisor divides any term: every term moves to the remainder
    ring = PolynomialRing(GF(32003), ["x", "y", "z"], GREVLEX)
    x, y, z = ring.variables()
    g = ring.polynomial((k + 1, (k, 2000 - k, 0)) for k in range(2001))
    res = divide(g, [z])
    assert res.remainder == g and res.quotients[0].is_zero and res.reduction_steps == 2001
    # and with reductions in between, over QQ
    ring = PolynomialRing(QQ, ["x", "y", "z"], GREVLEX)
    x, y, z = ring.variables()
    g = ring.polynomial((Fraction(k + 1, 3), (k, 120 - k, k % 2)) for k in range(121))
    _, (dividend, divisor) = as_module_elements([g, Fraction(-2, 5) * z + x])
    _check_against_reference(dividend, [divisor])


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
