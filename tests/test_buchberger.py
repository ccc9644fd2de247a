"""Completion: worked bases, criteria, transforms, canonical output."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groebner import (
    GF,
    GREVLEX,
    LEX,
    PolynomialRing,
    buchberger,
    divide,
    is_groebner,
    normal_form,
    random_ideal,
)
from groebner import modules
from groebner.buchberger import BuchbergerOptions, DeadlineExceeded
from groebner.ideals import initial_ideal
from groebner.modules import ModuleTerm, surviving_pairs
from groebner.oracle import ideal_dim_in_degree
from groebner.poly import mono_divides


def test_twisted_cubic_lex_basis(cubic_lex):
    ring, gens = cubic_lex
    w, x, y, z = ring.variables()
    gb = buchberger(gens)
    assert gb.elements == [
        w * w - x * y,
        w * y - x * z,
        w * z - y * y,
        x * z * z - y ** 3,
    ]
    assert is_groebner(gb.elements)
    assert gb.complete


def test_plane_example_basis(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    gb = buchberger([x * x + y * y, x * y])
    assert gb.elements == [x * x + y * y, x * y, y ** 3]
    leads = {f.lead_monomial for f in gb.elements}
    assert leads == {(2, 0), (1, 1), (0, 3)}


def test_reduced_basis_leads_are_minimal(cubic_lex):
    ring, gens = cubic_lex
    gb = buchberger(gens)
    leads = [f.lead_monomial for f in gb.elements]
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not mono_divides(a, b)
    # tails are fully reduced: no tail term divisible by any lead
    for f in gb.elements:
        for t in f.terms[1:]:
            assert not any(mono_divides(lm, t.monomial) for lm in leads)


def test_monomial_generators_fixed_point(ring_qq_lex):
    R = ring_qq_lex
    w, x, y, z = R.variables()
    gb = buchberger([w * x, y * z, w * x * y])
    assert set(gb.elements) == {w * x, y * z}


def test_is_groebner_cases(cubic_lex, ring_qq_xy):
    ring, gens = cubic_lex
    x, y = ring_qq_xy.variables()
    assert not is_groebner([x * x + y * y, x * y])
    assert is_groebner([x * x + y * y])
    gb = buchberger(gens)
    assert is_groebner(gb.elements)
    assert not is_groebner(gens)


def test_is_groebner_under_another_order(cubic_grevlex, cubic_lex):
    # the list is re-sorted into a ring copy under the order asked for
    ring, gens = cubic_grevlex
    assert is_groebner(gens)
    assert not is_groebner(gens, order=LEX)
    lex_basis = [f.reorder(ring) for f in buchberger(cubic_lex[1]).elements]
    assert is_groebner(lex_basis, order=LEX)


def test_transform_expands_exactly(cubic_lex):
    # capped bases replay their rows from partial records
    for gens in (cubic_lex[1], random_ideal(1003, 4, 5, 2)[1]):
        for opts in ({}, {"degree_cap": 2}):
            gb = buchberger(gens, **opts)
            for row, elem in zip(gb.transform, gb.elements):
                acc = gb.ring.zero()
                for coeff, gen in zip(row, gb.generators):
                    acc = acc + coeff * gen
                assert acc == elem


def test_transform_rows_are_built_on_first_read(monkeypatch, cubic_lex):
    from groebner.ideals import eliminate, hilbert_function, saturate_variable
    from groebner.modules import minimalize_generators

    calls = []
    inner = modules._combine

    def spy(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(modules, "_combine", spy)
    ring, gens = cubic_lex
    initial_ideal(gens)
    eliminate(gens, 1)
    saturate_variable(gens)
    hilbert_function(gens, 4)
    minimalize_generators(gens)
    gb = buchberger(gens)
    assert calls == []
    rows = gb.transform
    assert calls
    built = len(calls)
    assert gb.transform is rows
    assert len(calls) == built


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        buchberger([])


def test_degree_cap_flags_partial(cubic_lex):
    ring, gens = cubic_lex
    gb = buchberger(gens, opts=BuchbergerOptions(degree_cap=2))
    assert not gb.complete
    assert all(f.total_degree() <= 2 for f in gb.elements)


def test_reduced_basis_is_canonical_across_generator_orders(cubic_lex):
    # a new generator order changes which pairs are treated and when
    import itertools
    import random

    ring, gens = cubic_lex
    reference = buchberger(gens).elements
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm)).elements == reference
    _, gens = random_ideal(1003, 4, 5, 2)
    reference = buchberger(gens).elements
    for seed in (1, 2, 3):
        shuffled = list(gens)
        random.Random(seed).shuffle(shuffled)
        assert buchberger(shuffled).elements == reference


def test_reduced_basis_same_from_either_presentation(cubic_lex):
    # feeding the completed basis back in reproduces it
    ring, gens = cubic_lex
    gb = buchberger(gens)
    again = buchberger(gb.elements)
    assert again.elements == gb.elements


def test_normal_form_invariant_under_permutation(cubic_lex):
    import itertools
    import random

    ring, gens = cubic_lex
    w, x, y, z = ring.variables()
    gb = buchberger(gens)
    g = w * x * y * z + x ** 4 - y ** 2 * z ** 2
    reference = divide(g, gb.elements).remainder
    rng = random.Random(11)
    perms = list(itertools.permutations(gb.elements))
    for perm in rng.sample(perms, 10):
        assert divide(g, list(perm)).remainder == reference


def test_hilbert_agreement_with_oracle(cubic_lex):
    # dim I_d from lead terms equals the Macaulay rank
    ring, gens = cubic_lex
    ini = initial_ideal(gens)
    for d in range(1, 7):
        from_leads = len(ini.monomials_of_degree(d))
        assert from_leads == ideal_dim_in_degree(gens, d)


# ---------------------------------------------------------------------------
# pair criteria
# ---------------------------------------------------------------------------

def _surviving(leads):
    return surviving_pairs([ModuleTerm(1, m, 0) for m in leads])


def test_pair_filter_drops_coprime():
    leads = [(2, 0), (0, 2)]
    assert _surviving(leads) == set()


def test_pair_filter_keeps_twisted_cubic_pairs():
    leads = [(2, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)]  # w2, wy, wz
    assert _surviving(leads) == {(0, 1), (0, 2), (1, 2)}


def test_pair_filter_chain_drop():
    leads = [(2, 0), (1, 1), (0, 2)]  # x2, xy, y2: middle lead divides lcm(0,2)
    assert _surviving(leads) == {(0, 1), (1, 2)}


def test_pair_filter_empty():
    assert _surviving([]) == set()


def test_filtered_and_unfiltered_runs_agree(cubic_lex):
    # the completion applies the criteria internally; cross-check against a
    # brute-force completion with no criteria at all
    ring, gens = cubic_lex
    gb = buchberger(gens)

    work = [g.monic() for g in gens]
    from groebner.division import s_polynomial

    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                s = s_polynomial(work[i], work[j])
                if s.is_zero:
                    continue
                r = divide(s, work).remainder
                if not r.is_zero:
                    work.append(r.monic())
                    changed = True
    assert is_groebner(work)
    assert {f.lead_monomial for f in buchberger(work).elements} == {
        f.lead_monomial for f in gb.elements
    }


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_random_ideals_complete_to_groebner(data):
    ring = PolynomialRing(GF(101), ["x", "y", "z"], GREVLEX)
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        pairs = [
            (data.draw(st.integers(-5, 5)), data.draw(st.tuples(*[st.integers(0, 2)] * 3)))
            for _ in range(3)
        ]
        p = ring.polynomial(pairs)
        if not p.is_zero:
            gens.append(p)
    if not gens:
        gens = [ring.one()]
    gb = buchberger(gens)
    assert is_groebner(gb.elements)
    for g in gens:
        assert normal_form(g, gb).is_zero


def test_interreduction_checks_the_deadline(monkeypatch):
    # [x, y] forms no S-pair, so only the interreduction can see the deadline
    ring = PolynomialRing(GF(32003), ["x", "y"], GREVLEX)
    x, y = ring.variables()
    lifts = []
    inner = modules._lift_spair

    def spy(*args):
        lifts.append(args)
        return inner(*args)

    monkeypatch.setattr(modules, "_lift_spair", spy)
    with pytest.raises(DeadlineExceeded):
        buchberger([x, y], deadline=time.monotonic() - 1.0)
    assert not lifts
    assert buchberger([x, y], deadline=time.monotonic() + 3600.0).elements == [x, y]
    # the engine checks the deadline before it looks for a finished run,
    # so the interreduction's own check is reached only directly
    module, elements = modules.as_module_elements([x, y])
    with pytest.raises(DeadlineExceeded):
        modules._interreduce(module, elements, BuchbergerOptions(deadline=time.monotonic() - 1.0))
