"""Module bases, Schreyer syzygies, minimal generators, and the row
product."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebner import (
    GF,
    GREVLEX,
    QQ,
    FreeModule,
    PolynomialRing,
    buchberger,
    minimalize_generators,
    module_buchberger,
    random_ideal,
    syzygies,
)
from groebner import modules, oracle
from groebner.modules import (
    BuchbergerOptions,
    PositionOverTerm,
    SchreyerOrder,
    TermOverPosition,
    _syzygies_of_basis,
    as_module_elements,
    is_module_groebner,
    module_divide,
    syzygy_generators,
    syzygy_module_for,
)
from groebner.poly import mono_div, mono_lcm


def test_rank_one_matches_ideal_case(cubic_lex):
    ring, gens = cubic_lex
    _, elems = as_module_elements(gens)
    mod_gb = module_buchberger(elems)
    ideal_gb = buchberger(gens)
    assert [e.comps[0] for e in mod_gb.elements] == ideal_gb.elements


def test_distinct_components_have_no_pairs():
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    M = FreeModule(ring, (0, 0))
    e1 = M.element((x * x + y * y, ring.zero()))
    e2 = M.element((ring.zero(), x * y))
    gb = module_buchberger([e1, e2])
    assert gb.elements == [e1, e2]
    assert syzygies([e1, e2]) == []


def test_module_order_keys_are_multiplicative():
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    M = FreeModule(ring, (0, 1), PositionOverTerm(ring))
    k = M.order.key
    assert k((1, 0), 0) > k((5, 5), 1)
    top = TermOverPosition(ring)
    assert top.key((1, 0), 1) > top.key((0, 1), 0)  # x > y regardless of slot


def test_two_monomials_single_syzygy():
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    a = ring.monomial((3, 1), 2)   # 2 x^3 y
    b = ring.monomial((1, 2), 3)   # 3 x y^2
    syz = syzygies([a, b])
    assert len(syz) == 1
    s = syz[0]
    assert s.apply([a, b]).is_zero
    # components are scalar multiples of y e1 and x^2 e2
    assert s.comps[0].lead_monomial == (0, 1)
    assert s.comps[1].lead_monomial == (2, 0)


def test_twisted_cubic_syzygies_from_the_full_basis(cubic_lex):
    ring, gens = cubic_lex
    w, x, y, z = ring.variables()
    gb = buchberger(gens)
    syz = syzygies(gb.elements)
    m1 = syz[0].module
    expected_a = m1.element((y, -w, -x, ring.zero()))
    expected_b = m1.element((ring.zero(), z, -y, ring.one()))
    assert expected_a in syz
    assert expected_b in syz
    for s in syz:
        assert s.apply(gb.elements).is_zero


def test_syzygy_leads_match_trivial_syzygy_leads(cubic_lex):
    ring, gens = cubic_lex
    gb = buchberger(gens)
    elements = gb.elements
    _, elems = as_module_elements(elements)
    syz = syzygies(elements)
    m1 = syz[0].module
    leads = [e.lead_term() for e in elems]
    pos = 0
    for j in range(len(elements)):
        for i in range(j):
            lcm = mono_lcm(leads[i].monomial, leads[j].monomial)
            t_lead = (mono_div(lcm, leads[i].monomial), i)
            s_lead = syz[pos].lead_term()
            assert (s_lead.monomial, s_lead.component) == t_lead
            pos += 1
    assert pos == len(syz)


def test_single_generator_has_no_syzygies(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    assert syzygies([x * x + y * y]) == []


def test_syzygies_name_a_zero_element(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    with pytest.raises(ValueError, match="zero element at position 1"):
        syzygies([x, ring_qq_xy.zero(), y])


def test_syzygies_of_non_basis_push_through_transform(cubic_lex):
    ring, gens = cubic_lex
    syz = syzygies(gens)  # the three quadrics are not a lex basis
    assert syz
    for s in syz:
        assert s.apply(gens).is_zero
    assert len(minimalize_generators(syz)) == 2


def test_schreyer_reduction_of_syzygy_module(cubic_grevlex):
    ring, gens = cubic_grevlex
    syz = syzygies(gens)  # grevlex: the generators are already a basis
    assert len(syz) == 3
    red = module_buchberger(syz)
    assert len(red.elements) == 2
    assert is_module_groebner(red.elements)


def test_syzygies_of_a_basis_divide_each_pair_once(monkeypatch):
    divided = []

    def spy(g, divisors, opts=None):
        divided.append(g)
        return module_divide(g, divisors, opts)

    for seed in (1001, 1002, 1004):
        _, gens = random_ideal(seed, 4, 3, 2, field=GF(32003))
        basis = buchberger(gens).elements
        divided.clear()
        with monkeypatch.context() as m:
            m.setattr(modules, "module_divide", spy)
            syz = syzygies(basis)
        pairs = len(basis) * (len(basis) - 1) // 2  # rank 1: every pair
        assert len(syz) == pairs
        assert len(divided) == pairs
        for s in syz:
            assert s.apply(basis).is_zero


def test_groebner_check_and_schreyer_pass_agree():
    for seed in range(1000, 1006):
        _, gens = random_ideal(seed, 3, 3, 2, field=GF(32003))
        _, raw = as_module_elements(gens)
        assert is_module_groebner(raw) is False
        assert _syzygies_of_basis(raw) is None
        _, basis = as_module_elements(buchberger(gens).elements)
        assert is_module_groebner(basis) is True
        assert _syzygies_of_basis(basis) is not None


def test_module_division_identity(cubic_grevlex):
    ring, gens = cubic_grevlex
    w, x, y, z = ring.variables()
    M = FreeModule(ring, (2, 2, 2))
    g = M.element((x * y, y * z - w * w, z * z))
    divisors = [
        M.element((x, y, ring.zero())),
        M.element((ring.zero(), w, z)),
    ]
    res = module_divide(g, divisors)
    recombined = res.remainder
    for q, f in zip(res.quotients, divisors):
        if not q.is_zero:
            comps = tuple(q * c for c in f.comps)
            recombined = recombined + M.element(comps)
    assert recombined == g


def test_minimalize_generators_examples(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    kept = minimalize_generators([x * x, x * x * y, x * y])
    assert kept == [x * x, x * y]

    ring, gens = __import__("groebner").twisted_cubic()
    assert minimalize_generators(gens) == gens

    # x^2 - x*w = x*(x - y) + x*(y - z) + x*(z - w), and the middle multiple
    # shares no column with the candidate, only with the other two
    x, y, z, w = PolynomialRing(QQ, ["x", "y", "z", "w"], GREVLEX).variables()
    gens = [x - y, y - z, z - w]
    assert minimalize_generators(gens + [x * x - x * w]) == gens


def test_minimalize_rejects_inhomogeneous(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    with pytest.raises(ValueError):
        minimalize_generators([x * x + y])


def test_schreyer_order_prefers_smaller_index_on_ties():
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    _, elems = as_module_elements([x * y, x * y + y * y])
    m1 = syzygy_module_for(elems)
    assert isinstance(m1.order, SchreyerOrder)
    # both basis elements map to the same lead monomial x*y
    assert m1.order.key((0, 0), 0) > m1.order.key((0, 0), 1)


def _minimal_by_full_bases(elements):
    # the uncapped reference: keep a candidate unless a complete basis of
    # the kept ones contains it (completed again after each keep)
    kept, basis = [], None
    for i in sorted(range(len(elements)), key=lambda i: (elements[i].degree(), i)):
        if kept and basis is None:
            basis = module_buchberger(kept)
        if basis is None or not basis.contains(elements[i]):
            kept.append(elements[i])
            basis = None
    return kept


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_minimalize_generators_stops_at_the_top_candidate_degree(seed, monkeypatch):
    # nothing above a candidate's degree is computed: no completion runs,
    # so a caller's degree cap has nothing to truncate
    ring, gens = random_ideal(400 + seed, 3 + seed % 2, 3, 2)
    x = ring.variables()
    items = [gens[0] * x[1]] + gens + [g * v for g in gens for v in x[:2]]
    items.append(gens[1] * x[0] + gens[2] * x[-1])
    _, elements = as_module_elements(items)
    reference = [e.comps[0] for e in _minimal_by_full_bases(elements)]

    def forbidden(*args, **kwargs):
        raise AssertionError("minimalize_generators ran a completion or a division")

    monkeypatch.setattr(modules, "module_buchberger", forbidden)
    monkeypatch.setattr(modules, "module_divide", forbidden)
    assert minimalize_generators(items) == reference
    assert minimalize_generators(items, BuchbergerOptions(degree_cap=2)) == reference


# test_golden.py's SUITE: (seed, variables, forms, degree)
GOLDEN_SUITE = [(1000 + k, 3 + k % 2, 2 + k % 3, 1 + k % 3) for k in range(6)]


@pytest.mark.parametrize("seed,n,m,d", GOLDEN_SUITE)
def test_minimalize_syzygies_like_full_module_bases(seed, n, m, d):
    # resolutions minimalize syzygies, so check at module rank > 1: the
    # first step's candidates, led by a scalar duplicate and followed by
    # monomial multiples and another duplicate
    ring, gens = random_ideal(seed, n, m, d, field=GF(32003))
    _, elems = as_module_elements(minimalize_generators(gens))
    syz = syzygy_generators(elems, lex_sort=True)
    x = [v.lead_monomial for v in ring.variables()[:2]]
    items = (
        [syz[-1].scalar_mul(7)] + syz
        + [s.monomial_mul(1, v) for s in syz[:2] for v in x]
        + [syz[0].scalar_mul(3)]
    )
    kept = minimalize_generators(items)
    assert kept == _minimal_by_full_bases(items)
    assert len(kept) < len(items)


def test_minimalize_generators_reaches_only_the_shared_columns(monkeypatch):
    # the degree-13 slice of (x0) in 10 variables has C(21, 9) = 293,930
    # rows; only the multiples sharing a column with a candidate are built
    ring = PolynomialRing(GF(32003), [f"x{i}" for i in range(10)], GREVLEX)
    x = ring.variables()
    items = [x[0], x[1] ** 12 * x[2] + x[0] * x[3] ** 12, x[0] ** 13]
    adds = []
    inner = oracle.Echelon.add

    def counting(self, row):
        adds.append(None)
        return inner(self, row)

    monkeypatch.setattr(oracle.Echelon, "add", counting)
    assert minimalize_generators(items) == items[:2]
    assert len(adds) <= 10


# ---------------------------------------------------------------------------
# the row product
# ---------------------------------------------------------------------------

PRODUCT_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]


@st.composite
def row_products(draw):
    """(ring, coeffs, rows, width) for _combine.  Over QQ the coefficients
    have mixed denominators and signs; entries and coefficients may be
    zero.  With cancel, the first coefficient comes back negated on a copy
    of its row, so every column sums to zero, which over F_p is an integer
    sum p * (...) that only the residue finish sees as zero."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    ring = PolynomialRing(field, ["x", "y"], GREVLEX)
    width = draw(st.integers(1, 3))
    if field == QQ:
        scalar = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4, 6, 9]))
    else:
        scalar = st.integers(-2 * field.modulus, 2 * field.modulus)
    monomial = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def poly():
        return ring.polynomial(draw(st.lists(st.tuples(scalar, monomial), max_size=4)))

    k = draw(st.integers(1, 3))
    coeffs = [poly() for _ in range(k)]
    rows = [tuple(poly() for _ in range(width)) for _ in range(k)]
    if draw(st.booleans()):
        coeffs.append(-coeffs[0])
        rows.append(rows[0])
    return ring, coeffs, rows, width


@given(row_products())
@settings(max_examples=150, deadline=None)
def test_row_product_is_the_naive_sum(case):
    ring, coeffs, rows, width = case
    naive = [ring.zero()] * width
    for c, row in zip(coeffs, rows):
        for col, t in enumerate(row):
            naive[col] = naive[col] + c * t
    out = modules._combine(ring, coeffs, rows, width)
    assert out == tuple(naive)
    # rows handed over in integer form, as the syzygy push-through does
    converted = [tuple(map(modules._integer_terms, row)) for row in rows]
    assert modules._combine(ring, coeffs, converted, width) == out
    p = ring.field.modulus
    for col in out:
        for c, _ in col.terms:
            if p is None:
                assert type(c) is Fraction
            else:
                assert type(c) is int and 0 <= c < p
