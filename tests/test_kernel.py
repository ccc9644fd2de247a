"""The reduction kernel: packed order keys against a tuple reference,
divisibility masks, the submul merge and its call shape, the pair update
against a brute-force reference, cached leads, and deadlines inside a
division."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebner import (
    GF, GREVLEX, LEX, QQ, FreeModule, PolynomialRing, divide, eliminate_order, random_ideal,
    weight_order,
)
from groebner import modules
from groebner.modules import (
    DEADLINE_STRIDE,
    BuchbergerOptions,
    DeadlineExceeded,
    ModuleElement,
    ModuleTerm,
    PositionOverTerm,
    TermOverPosition,
    as_module_elements,
    minimalize_generators,
    module_buchberger,
    module_divide,
    surviving_pairs,
    syzygy_generators,
    syzygy_module_for,
)
from groebner.orders import FIELD_BITS, in_range
from groebner.poly import MASK_BITS, Polynomial, mono_mask

# ---------------------------------------------------------------------------
# packed order keys
# ---------------------------------------------------------------------------


def reference_key(order, n):
    """The orders as nested tuple keys, read off their definitions."""
    if order.kind == "lex":
        return tuple
    if order.kind == "grevlex":
        return lambda a: (sum(a), tuple(-e for e in reversed(a)))
    if order.kind == "eliminate":
        k = order.block
        return lambda a: (sum(a[:k]), sum(a), tuple(-e for e in reversed(a)))
    tb = reference_key(order.tiebreak, n)
    return lambda a: (-sum(w * e for w, e in zip(order.weights, a)), tb(a))


@st.composite
def orders_and_arity(draw):
    """An order on n variables: lex, grevlex, an elimination order, or a
    weight order with negative weights under a lex or grevlex tiebreak."""
    n = draw(st.integers(1, 6))
    kinds = ["lex", "grevlex", "weight"] + (["eliminate"] if n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "lex":
        return LEX, n
    if kind == "grevlex":
        return GREVLEX, n
    if kind == "eliminate":
        return eliminate_order(draw(st.integers(1, n - 1))), n
    weights = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    return weight_order(weights, draw(st.sampled_from([LEX, GREVLEX]))), n


def exponents(n, top):
    """Exponent vectors with entries up to top, small ones and the top
    itself drawn often."""
    entry = st.one_of(st.integers(0, 3), st.integers(0, top), st.just(top))
    return st.tuples(*[entry] * n)


def _sign(x, y):
    return (x > y) - (x < y)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_packed_keys_order_as_the_reference(data):
    # every vector of total degree up to 2^FIELD_BITS has a key
    order, n = data.draw(orders_and_arity())
    key, ref = order.key_function(n), reference_key(order, n)
    a, b = (data.draw(exponents(n, 2**FIELD_BITS // n)) for _ in range(2))
    assert _sign(key(a), key(b)) == _sign(ref(a), ref(b))
    assert (key(a) == key(b)) == (a == b)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_keys_are_positive_and_additive_up_to_the_offset(data):
    order, n = data.draw(orders_and_arity())
    key = order.key_function(n)
    a, b = (data.draw(exponents(n, 2**FIELD_BITS // (2 * n))) for _ in range(2))
    offset = key((0,) * n)
    assert key(a) > 0 and offset > 0  # a cache hit must be truthy
    assert key(tuple(x + y for x, y in zip(a, b))) == key(a) + key(b) - offset


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_past_the_bound_keys_are_refused_never_misordered(data):
    # past the degree that always fits, a key is exact or refused; a sum
    # of two keys is a key exactly when in_range says so
    order, n = data.draw(orders_and_arity())
    key, ref = order.key_function(n), reference_key(order, n)
    offset = key((0,) * n)
    a, b = (data.draw(exponents(n, 2 ** (FIELD_BITS + 2))) for _ in range(2))
    try:
        ka, kb = key(a), key(b)
    except ValueError:
        return
    assert _sign(ka, kb) == _sign(ref(a), ref(b))
    total = ka + kb - offset
    try:
        expected = key(tuple(x + y for x, y in zip(a, b)))
    except ValueError as exc:
        assert "past the packed" in str(exc)
        assert not in_range(total, offset)
    else:
        assert in_range(total, offset) and total == expected


@pytest.mark.parametrize("order", [LEX, GREVLEX, eliminate_order(1),
                                   weight_order([-4, -1, 0]), weight_order([3, -2, 5], LEX)])
def test_an_exponent_past_the_bound_is_refused(order):
    ring = PolynomialRing(GF(32003), ["x", "y", "z"], order)
    near = (2**FIELD_BITS, 0, 0)
    far = (2 ** (FIELD_BITS + 3), 0, 0)
    assert ring.monomial_key(near) != ring.monomial_key((0, 0, 0))
    with pytest.raises(ValueError, match="past the packed"):
        ring.monomial_key(far)
    # two keys within the bound whose sum is not: the merge refuses the product
    f = ring.monomial(near)
    with pytest.raises(ValueError, match="past the packed"):
        ring.zero().submul(1, near, f)


# ---------------------------------------------------------------------------
# divisibility masks
# ---------------------------------------------------------------------------


@st.composite
def divisor_pairs(draw):
    """(b, a) with b dividing a, in 1..25 variables; exponents run past the
    bits a variable owns in the mask."""
    n = draw(st.integers(1, 25))
    top = max(1, MASK_BITS // n) + 3
    b = draw(st.tuples(*[st.integers(0, top)] * n))
    extra = draw(st.tuples(*[st.integers(0, top)] * n))
    return b, tuple(x + y for x, y in zip(b, extra))


@given(divisor_pairs())
@settings(max_examples=200, deadline=None)
def test_mask_never_rejects_a_divisor(pair):
    b, a = pair
    assert mono_mask(b) & ~mono_mask(a) == 0


@st.composite
def sparse_monomials(draw, n):
    """A monomial in n variables supported on at most four of them, so that
    coprime pairs are common; exponents run past the mask width."""
    support = draw(st.sets(st.integers(0, n - 1), max_size=4))
    return tuple(draw(st.sampled_from([1, 2, 3, 7])) if v in support else 0 for v in range(n))


@st.composite
def monomial_pairs(draw):
    n = draw(st.integers(1, 25))
    return draw(sparse_monomials(n)), draw(sparse_monomials(n))


@given(monomial_pairs())
@settings(max_examples=200, deadline=None)
def test_mask_rejections_are_non_divisors_and_lcm_masks_are_unions(pair):
    b, a = pair
    divides = all(y <= x for x, y in zip(a, b))
    if mono_mask(b) & ~mono_mask(a):
        assert not divides
    lcm = tuple(max(x, y) for x, y in zip(a, b))
    assert mono_mask(lcm) == mono_mask(a) | mono_mask(b)
    coprime = all(min(x, y) == 0 for x, y in zip(a, b))
    assert coprime == (mono_mask(a) & mono_mask(b) == 0)


def test_ring_caches_masks():
    ring = PolynomialRing(GF(7), ["x", "y", "z"], GREVLEX)
    mono = (2, 0, 5)
    assert ring.monomial_mask(mono) == mono_mask(mono)
    assert ring._mask_cache == {mono: mono_mask(mono)}


# ---------------------------------------------------------------------------
# submul
# ---------------------------------------------------------------------------


def _poly(draw, ring, max_terms=6, max_deg=3):
    pairs = [
        (draw(st.integers(-5, 5)), draw(st.tuples(*[st.integers(0, max_deg)] * ring.nvars)))
        for _ in range(draw(st.integers(0, max_terms)))
    ]
    return ring.polynomial(pairs)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_submul_equals_subtracting_the_monomial_multiple(data):
    field = data.draw(st.sampled_from([QQ, GF(32003)]))
    order = data.draw(st.sampled_from([GREVLEX, LEX]))
    ring = PolynomialRing(field, ["x", "y", "z"], order)
    f = _poly(data.draw, ring)
    coeff = field.normalize(data.draw(st.integers(-7, 7).filter(bool)))
    mono = data.draw(st.tuples(*[st.integers(0, 2)] * 3))
    product = f.monomial_mul(coeff, mono)
    shape = data.draw(st.sampled_from(["random", "cancel", "partial"]))
    if shape == "random":
        g = _poly(data.draw, ring)
    elif shape == "cancel":
        g = product
    else:
        g = product + _poly(data.draw, ring)
    out = g.submul(coeff, mono, f)
    assert out == g - product
    assert all(t.coeff != 0 for t in out.terms)
    keys = [ring.monomial_key(t.monomial) for t in out.terms]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
    if shape == "cancel":
        assert out.is_zero


def test_submul_with_empty_operands():
    ring = PolynomialRing(GF(32003), ["x", "y"], GREVLEX)
    x, y = ring.variables()
    zero = ring.zero()
    f = x * x + 3 * y
    assert zero.submul(2, (1, 0), f) == -(f.monomial_mul(2, (1, 0)))
    assert f.submul(2, (1, 0), zero) == f
    assert zero.submul(2, (1, 0), zero).is_zero


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_submul_scales_and_passes_on_its_key_list(data):
    field = data.draw(st.sampled_from([QQ, GF(32003)]))
    order = data.draw(st.sampled_from([GREVLEX, LEX, weight_order([2, -1, 0])]))
    ring = PolynomialRing(field, ["x", "y", "z"], order)
    f, g = _poly(data.draw, ring), _poly(data.draw, ring)
    coeff = field.normalize(data.draw(st.integers(-7, 7).filter(bool)))
    scale = field.normalize(data.draw(st.integers(-7, 7).filter(bool)))
    mono, mono2 = (data.draw(st.tuples(*[st.integers(0, 2)] * 3)) for _ in range(2))
    out = g.submul(coeff, mono, f, scale)
    assert out == g.scalar_mul(scale) - f.monomial_mul(coeff, mono)
    assert out._keys == [ring.monomial_key(m) for _, m in out.terms]
    # the next step merges against that key list
    again = out.submul(coeff, mono2, g)
    assert again == out - g.monomial_mul(coeff, mono2)
    assert again._keys == [ring.monomial_key(m) for _, m in again.terms]


@pytest.mark.parametrize("field", [GF(32003), QQ])
def test_division_steps_call_submul_with_the_divisor_third(field, monkeypatch):
    # perfbench's tracer replaces Polynomial.submul by name with a wrapper
    # (poly, *args) that counts len(args[2].terms): each division step must
    # call it positionally, with (a component of) the divisor third
    calls = []
    inner = Polynomial.submul

    def spy(poly, *args):
        calls.append(args)
        return inner(poly, *args)

    monkeypatch.setattr(Polynomial, "submul", spy)
    ring, gens = random_ideal(1005, 3, 3, 2, field=field)
    x, y, z = ring.variables()
    g = (x + 2 * y) ** 3 * z + gens[0] * gens[1]
    div = divide(g, gens)
    assert len(calls) == sum(len(q.terms) for q in div.quotients) > 0
    shapes = [[m for _, m in f.terms] for f in gens]
    for args in calls:
        assert len(args) == 4 and isinstance(args[2], Polynomial)
        assert [m for _, m in args[2].terms] in shapes


# ---------------------------------------------------------------------------
# the pair update against a brute-force reading of its rules
# ---------------------------------------------------------------------------


def _divides(b, a):
    return all(y <= x for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _reference_pairs(leads, product_rule):
    """The B_k, M, F and coprime rules, element by element, with no masks
    and no shortcuts."""
    pending, live = {}, []
    for new, lead in enumerate(leads):
        mono, comp = lead.monomial, lead.component
        for (i, j), lcm in list(pending.items()):
            if (
                leads[i].component == comp
                and _divides(mono, lcm)
                and _lcm(leads[i].monomial, mono) != lcm
                and _lcm(leads[j].monomial, mono) != lcm
            ):
                del pending[(i, j)]
        classes = {}
        for i in live:
            if leads[i].component == comp:
                classes.setdefault(_lcm(leads[i].monomial, mono), []).append(i)
        for lcm, members in classes.items():
            if product_rule and any(
                all(min(x, y) == 0 for x, y in zip(leads[i].monomial, mono)) for i in members
            ):
                continue
            if any(other != lcm and _divides(other, lcm) for other in classes):
                continue
            pending[(min(members), new)] = lcm
        live = [
            i for i in live
            if leads[i].component != comp or not _divides(mono, leads[i].monomial)
        ] + [new]
    return set(pending)


@st.composite
def lead_lists(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 23]))
    rank = draw(st.integers(1, 2))
    if n < 5:
        exps = st.tuples(*[st.sampled_from([0, 0, 1, 2, 3, 5])] * n)
    else:
        exps = sparse_monomials(n)
    count = draw(st.integers(0, 12))
    return [ModuleTerm(1, draw(exps), draw(st.integers(0, rank - 1))) for _ in range(count)]


@given(lead_lists(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_surviving_pairs_match_the_reference(leads, product_rule):
    assert surviving_pairs(leads, product_rule) == _reference_pairs(leads, product_rule)


# ---------------------------------------------------------------------------
# cached leads
# ---------------------------------------------------------------------------


def _schreyer(ring):
    x, y, z = ring.variables()
    _, images = as_module_elements([x * y + z, y * z, x * x])
    return syzygy_module_for(images).order


@pytest.mark.parametrize(
    "make_order", [PositionOverTerm, TermOverPosition, _schreyer], ids=["POT", "TOP", "Schreyer"]
)
def test_lead_term_is_computed_once(make_order, monkeypatch):
    ring = PolynomialRing(QQ, ["x", "y", "z"], GREVLEX)
    order = make_order(ring)
    module = FreeModule(ring, (0, 0, 0), order)
    x, y, z = ring.variables()
    comps = (y * y + x, ring.zero(), x * z - 2 * y)
    elem = module.element(comps)

    calls = []
    inner = type(order).key
    monkeypatch.setattr(type(order), "key", lambda self, m, c: calls.append(1) or inner(self, m, c))
    first = elem.lead_term()
    used = len(calls)
    assert used > 0
    assert elem.lead_term() is first and len(calls) == used

    fresh = max(
        (inner(order, p.lead_monomial, ci), ModuleTerm(p.lead_coeff, p.lead_monomial, ci))
        for ci, p in enumerate(comps) if not p.is_zero
    )[1]
    assert first == fresh == ModuleElement(module, comps).lead_term()


def test_completed_elements_keep_true_leads():
    _, gens = random_ideal(1003, 3, 3, 2, field=GF(32003))
    _, elems = as_module_elements(gens)
    for e in module_buchberger(elems).elements:
        assert e.lead_term() == ModuleElement(e.module, e.comps).lead_term()


# ---------------------------------------------------------------------------
# deadlines inside a division
# ---------------------------------------------------------------------------


def _long_division():
    ring = PolynomialRing(GF(32003), ["x", "y"], GREVLEX)
    x, y = ring.variables()
    _, (g, f) = as_module_elements([x ** (4 * DEADLINE_STRIDE), x - y])
    return g, [f]


def test_a_long_division_stops_at_a_past_deadline():
    g, divisors = _long_division()
    assert module_divide(g, divisors).steps > DEADLINE_STRIDE
    past = BuchbergerOptions(deadline=time.monotonic() - 1.0)
    with pytest.raises(DeadlineExceeded) as info:
        module_divide(g, divisors, past)
    assert info.traceback[-2].name == "module_divide"
    later = BuchbergerOptions(deadline=time.monotonic() + 3600.0)
    assert module_divide(g, divisors, later) == module_divide(g, divisors)


def test_callers_pass_their_options_to_the_division(monkeypatch):
    seen = []
    inner = modules.module_divide

    def spy(g, divisors, opts=None):
        seen.append(opts)
        return inner(g, divisors, opts)

    monkeypatch.setattr(modules, "module_divide", spy)
    _, gens = random_ideal(1004, 3, 3, 2, field=GF(32003))
    _, elems = as_module_elements(gens)
    opts = BuchbergerOptions(deadline=time.monotonic() + 3600.0)
    for run in (
        lambda: module_buchberger(elems, opts),
        lambda: syzygy_generators(elems, opts),
    ):
        seen.clear()
        run()
        assert seen and all(o is not None and o.deadline == opts.deadline for o in seen)


def test_minimalization_stops_at_a_past_deadline():
    _, gens = random_ideal(1004, 3, 3, 2, field=GF(32003))
    _, elems = as_module_elements(gens)
    past = BuchbergerOptions(deadline=time.monotonic() - 1.0)
    with pytest.raises(DeadlineExceeded):
        minimalize_generators(elems + [elems[0].monomial_mul(1, (1, 0, 0))], past)
