"""Edge paths: ties, homogenizer powers, splitting recursion, error guards."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebner import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    FreeModule,
    MonomialIdeal,
    PolynomialRing,
    buchberger,
    compare,
    flat_family,
    hilbert_function,
    ideal_quotient_saturation,
    is_groebner,
    membership,
    module_buchberger,
    monomials_of_degree,
    weight_order,
)
from groebner.ideals import initial_ideal
from groebner.modules import is_module_groebner
from groebner.poly import mono_divides


# ---------------------------------------------------------------------------
# weight ties
# ---------------------------------------------------------------------------

def test_zero_weights_fall_back_to_the_tiebreak():
    W = weight_order((0, 0, 0))
    for d in (1, 2, 3):
        for a in monomials_of_degree(3, d):
            for b in monomials_of_degree(3, d):
                assert compare(a, b, W) == compare(a, b, GREVLEX)


def test_partial_ties_split_by_tiebreak():
    # weights separate x from y,z but leave y,z tied
    W = weight_order((-1, 0, 0), tiebreak=LEX)
    x2, xy, y2, yz = (2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)
    assert compare(x2, xy, W) == 1
    assert compare(xy, y2, W) == 1
    assert compare(y2, yz, W) == 1  # tie under W, lex tiebreak


def test_gb_under_tied_weights_matches_tiebreak_gb():
    ring_w = PolynomialRing(QQ, ["x", "y"], weight_order((0, 0)))
    ring_g = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring_w.variables()
    gens = [x * x + y * y, x * y]
    got = [str(f) for f in buchberger(gens).elements]
    xg, yg = ring_g.variables()
    expected = [str(f) for f in buchberger([xg * xg + yg * yg, xg * yg]).elements]
    assert got == expected


# ---------------------------------------------------------------------------
# affine membership needing a homogenizer power
# ---------------------------------------------------------------------------

def test_membership_with_degree_drop():
    # y = (x^2 + y) - (x^2): the homogenized witness y*u forces one
    # clearing power of the homogenizer
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    gens = [x * x + y, x * x]
    cert = membership(y, gens)
    assert cert.member
    assert cert.expand(gens) == y
    assert cert.max_coeff_degree == 0

    # and a non-member stays out
    assert not membership(x, gens).member


def test_membership_affine_certificate_degrees():
    ring = PolynomialRing(GF(32003), ["x", "y"], GREVLEX)
    x, y = ring.variables()
    gens = [y - x * x]
    g = y * y - x ** 4  # (y - x^2)(y + x^2)
    cert = membership(g, gens)
    assert cert.member
    assert cert.expand(gens) == g
    assert cert.max_coeff_degree == 2


# ---------------------------------------------------------------------------
# Hilbert splitting vs direct enumeration
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=30, deadline=None)
def test_monomial_hilbert_against_direct_count(data):
    nvars = data.draw(st.integers(2, 3))
    ring = PolynomialRing(QQ, [f"x{i}" for i in range(nvars)], GREVLEX)
    gens = [
        data.draw(st.tuples(*[st.integers(0, 3)] * nvars))
        for _ in range(data.draw(st.integers(1, 5)))
    ]
    gens = [g for g in gens if any(g)]
    if not gens:
        gens = [(1,) * nvars]
    M = MonomialIdeal.from_monomials(ring, gens)
    values = hilbert_function(M, 6)
    for d in range(7):
        standard = sum(1 for m in monomials_of_degree(nvars, d) if not M.contains(m))
        assert values[d] == standard


def test_monomial_ideal_minimality_invariant():
    ring = PolynomialRing(QQ, ["x", "y", "z"], GREVLEX)
    M = MonomialIdeal.from_monomials(ring, [(1, 0, 0), (1, 1, 0), (0, 0, 2), (1, 0, 2)])
    assert set(M.gens) == {(1, 0, 0), (0, 0, 2)}
    for a in M.gens:
        for b in M.gens:
            assert a == b or not mono_divides(a, b)


# ---------------------------------------------------------------------------
# iterated quotients
# ---------------------------------------------------------------------------

def test_quotient_saturation_takes_several_rounds():
    from groebner import ideal_quotient

    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    gens = [x * y ** 3]
    once = [str(f) for f in ideal_quotient(gens, y)]
    assert once == ["x*y^2"]
    limit = [str(f) for f in ideal_quotient_saturation(gens, y)]
    assert limit == ["x"]


def test_reduced_basis_ignores_generator_scaling():
    ring = PolynomialRing(QQ, ["x", "y"], LEX)
    x, y = ring.variables()
    gens = [x * x + y * y, x * y]
    scaled = [gens[0].scalar_mul(3), gens[1].scalar_mul(-7)]
    assert buchberger(gens).elements == buchberger(scaled).elements


# ---------------------------------------------------------------------------
# staged degenerations compose
# ---------------------------------------------------------------------------

def test_staged_degeneration_reaches_a_monomial_fiber():
    from groebner import twisted_cubic

    ring, gens = twisted_cubic(QQ, LEX)
    ini = initial_ideal(gens, order=LEX)
    # each stage's t=0 fiber is the next stage's input
    for W in [(-1, 0, 0, 0), (-1, -1, 0, 0), (-1, -1, -1, 0)]:
        final = flat_family(gens, W).generators_at_zero()
        gens = [g for g in final if not g.is_zero]
    assert all(len(f.terms) == 1 for f in final)
    assert {f.lead_monomial for f in final} >= set(ini.gens)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_module_mismatch_rejected():
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    m1 = FreeModule(ring, (0, 0))
    m2 = FreeModule(ring, (0, 1))
    with pytest.raises(ValueError):
        module_buchberger([m1.element((x, y)), m2.element((x, y))])
    with pytest.raises(ValueError):
        m1.element((x,))
    with pytest.raises(ValueError):
        FreeModule(ring, ())


def test_weight_order_completion_rejects_inhomogeneous():
    ring = PolynomialRing(QQ, ["x", "y"], weight_order((-2, -1)))
    x, y = ring.variables()
    with pytest.raises(ValueError):
        buchberger([x * x + y])
    from groebner import divide

    with pytest.raises(ValueError):
        divide(x * x + y, [x])


def test_pair_filter_preserves_reduced_basis_on_random_ideals():
    # the completion applies both criteria; an uncriteria'd run must land on
    # the same reduced basis
    import random as _random

    from groebner.division import divide as _divide, s_polynomial

    rng = _random.Random(5)
    ring = PolynomialRing(GF(101), ["x", "y", "z"], GREVLEX)
    for _ in range(6):
        gens = []
        while len(gens) < 2:
            pairs = [
                (rng.randint(-4, 4), tuple(rng.randint(0, 2) for _ in range(3)))
                for _ in range(3)
            ]
            p = ring.polynomial(pairs)
            if not p.is_zero:
                gens.append(p)
        fast = buchberger(gens)

        work = [g.monic() for g in gens]
        changed = True
        while changed:
            changed = False
            for i in range(len(work)):
                for j in range(i + 1, len(work)):
                    s = s_polynomial(work[i], work[j])
                    if s.is_zero:
                        continue
                    r = _divide(s, work).remainder
                    if not r.is_zero:
                        work.append(r.monic())
                        changed = True
        slow = buchberger(work)
        assert fast.elements == slow.elements


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_rank_two_module_completion_is_groebner(data):
    ring = PolynomialRing(GF(101), ["x", "y"], GREVLEX)
    M = FreeModule(ring, (0, 1))

    def rand_poly():
        pairs = [
            (data.draw(st.integers(-4, 4)), data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2))))
            for _ in range(2)
        ]
        return ring.polynomial(pairs)

    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        e = M.element((rand_poly(), rand_poly()))
        if not e.is_zero:
            gens.append(e)
    if not gens:
        gens = [M.element((ring.one(), ring.zero()))]
    gb = module_buchberger(gens)
    assert is_module_groebner(gb.elements)
    for g in gens:
        assert gb.normal_form(g).is_zero
