"""Initial ideals, elimination, saturation, quotients, Hilbert functions,
membership certificates, Borel fixedness and the saturation defect."""

import random
import sys
from math import comb
from pathlib import Path

import pytest

from groebner import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    MonomialIdeal,
    PolynomialRing,
    buchberger,
    eliminate,
    eliminate_order,
    free_resolution,
    hilbert_function,
    homogenize,
    ideal_quotient,
    ideal_quotient_saturation,
    initial_ideal,
    is_borel_fixed,
    mayr_meyer,
    membership,
    random_ideal,
    regularity,
    sat_defect,
    saturate_variable,
    saturation,
    twisted_cubic,
    weight_order,
)
from groebner.division import divide
from groebner.ideals import (
    MembershipCertificate,
    SatDefect,
    _complete_basis,
    dehomogenize_polynomial,
    generic_change,
    homogenize_polynomial,
)
from groebner.modules import BuchbergerOptions, CapInterrupted, _combine
from groebner.oracle import ideal_dim_in_degree, membership_in_degree
from groebner.parser import parse_ideal_file
from groebner.series import _numerator, _series_values


def test_initial_ideal_twisted_cubic(cubic_lex):
    ring, gens = cubic_lex
    ini = initial_ideal(gens)
    assert set(ini.gens) == {(2, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 2)}


def test_initial_ideal_plane_example(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    ini = initial_ideal([x * x + y * y, x * y])
    assert set(ini.gens) == {(2, 0), (1, 1), (0, 3)}


def test_initial_ideal_of_monomials_is_minimal(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    ini = initial_ideal([x * x, x * x * y, x * y ** 2])
    assert set(ini.gens) == {(2, 0), (1, 2)}


def test_eliminate_twisted_cubic(cubic_lex):
    ring, gens = cubic_lex
    x, y, z = ring.variable("x"), ring.variable("y"), ring.variable("z")
    result = eliminate(gens, 1)
    assert len(result) == 1
    assert all(t.monomial[0] == 0 for f in result for t in f.terms)
    f = result[0].reorder(ring)
    # same principal ideal as xz^2 - y^3
    assert f.monic() == (x * z * z - y ** 3).monic()
    # every element survives membership in the source ideal
    gb = buchberger(gens)
    assert gb.contains(f.reorder(gb.ring))


def test_eliminate_keep_everything(cubic_lex):
    ring, gens = cubic_lex
    assert {f.monic() for f in eliminate(gens, 0)} == {
        f.monic() for f in buchberger(gens).elements
    }


def test_eliminate_subring_generators_pass_through():
    ring = PolynomialRing(QQ, ["x", "y"], LEX)
    x, y = ring.variables()
    result = eliminate([y * y + y * y], 1)
    assert [f.reorder(ring).monic() for f in result] == [(y * y).monic()]


def test_saturate_variable_strips_component():
    ring = PolynomialRing(QQ, ["x0", "x1", "x2"], GREVLEX)
    x0, x1, x2 = ring.variables()
    sat = saturate_variable([x1 * x1, x1 * x2])
    assert [str(f) for f in sat] == ["x1"]
    again = saturate_variable(sat)
    assert again == sat
    # (J : x2) = J
    q = ideal_quotient(sat, x2)
    assert {f.monic() for f in q} == {f.monic() for f in sat}


def test_saturate_variable_no_op_when_clean(cubic_grevlex):
    ring, gens = cubic_grevlex
    gb = buchberger(gens)
    sat = saturate_variable(gens)
    assert sat == gb.elements


def test_saturate_principal():
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    sat = saturate_variable([(x * x + x * y)])  # y is last: x(x+y), y coprime to f? no
    # x^2 + xy = x(x + y); saturating by y strips nothing
    assert {f.monic() for f in sat} == {(x * x + x * y).monic()}
    sat2 = saturate_variable([x * y])
    assert [str(f) for f in sat2] == ["x"]


def test_ideal_quotient_examples():
    ring = PolynomialRing(QQ, ["x0", "x1", "x2"], GREVLEX)
    x0, x1, x2 = ring.variables()
    assert [str(f) for f in ideal_quotient([x0 * x0], x0)] == ["x0"]
    assert [str(f) for f in ideal_quotient([x1 * x1, x1 * x2], x2)] == ["x1"]
    same = ideal_quotient([x1 * x1, x1 * x2], ring.one())
    assert {str(f) for f in same} == {"x1^2", "x1*x2"}


def test_ideal_quotient_saturation_stabilizes():
    ring = PolynomialRing(QQ, ["x0", "x1", "x2"], GREVLEX)
    x0, x1, x2 = ring.variables()
    sat = ideal_quotient_saturation([x1 * x1, x1 * x2 ** 3], x2)
    assert [str(f) for f in sat] == ["x1"]
    with pytest.raises(ValueError):
        ideal_quotient([x1], ring.zero())


def _quotient_loop_saturation(gens, f, opts=None):
    """(I : f^infinity) by repeating the quotient until it stabilizes, as
    ideal_quotient_saturation computed it before its one elimination."""
    current = [g for g in gens if not g.is_zero]
    if not current:
        return []
    current = list(_complete_basis(current, opts=opts).elements)
    while True:
        nxt = ideal_quotient(current, f, opts)
        if not nxt:
            return []
        if set(nxt) == set(current):
            return nxt
        current = nxt


def test_quotient_saturation_is_the_quotient_loops():
    # s % 6 == 5 is the 4-variable cubic shape, where the loop takes seconds
    fields = [QQ, GF(32003), GF(7)]
    for s in (s for s in range(40) if s % 6 != 5):
        ring, gens = random_ideal(s, 3 + s % 2, 2 + s % 3, 1 + s % 3, field=fields[s % 3])
        x = ring.variables()
        f = x[-1] if s % 2 else x[0] + x[-1]
        gens = [g * f ** (1 + s % 3) for g in gens[:-1]] + gens[-1:]
        sat = ideal_quotient_saturation(gens, f)
        assert sat == _quotient_loop_saturation(gens, f), s
        if s % 2:
            assert sat == saturate_variable(gens), s


def test_quotient_saturation_keeps_the_ring_its_guards_and_its_cap():
    for order in (LEX, weight_order((-3, -1, 0))):
        ring, gens = random_ideal(7, 3, 2, 2, field=GF(7), order=order)
        x0, x1, x2 = ring.variables()
        gens = [gens[0] * (x0 + x1) ** 2, gens[1]]
        sat = ideal_quotient_saturation(gens, x0 + x1)
        assert sat == _quotient_loop_saturation(gens, x0 + x1)
        assert all(g.ring == ring for g in sat)
    # the weight order refuses inhomogeneous input, before any elimination
    with pytest.raises(ValueError, match="homogeneous"):
        ideal_quotient_saturation(gens, x0 + x1 * x2)
    with pytest.raises(ValueError, match="homogeneous"):
        _quotient_loop_saturation(gens, x0 + x1 * x2)
    ring, gens = random_ideal(1, 3, 3, 2)
    x2 = ring.variable(2)
    gens = [g * x2 for g in gens]
    with pytest.raises(CapInterrupted):
        ideal_quotient_saturation(gens, x2, BuchbergerOptions(degree_cap=1))
    assert ideal_quotient_saturation([ring.zero()], ring.zero()) == []
    with pytest.raises(ValueError, match="divide an ideal by zero"):
        ideal_quotient_saturation(gens, ring.zero())
    with pytest.raises(ValueError, match="ring mismatch"):
        ideal_quotient_saturation(gens, PolynomialRing(QQ, ["a", "b", "c"]).variable(0))
    # a ring variable named t does not collide with the eliminated one
    t, x = PolynomialRing(QQ, ["t", "x"], GREVLEX).variables()
    assert ideal_quotient_saturation([t * x, x * x - x], x) == [t, x - 1]


def test_ideal_quotient_members_multiply_in(cubic_lex):
    ring, gens = cubic_lex
    w, x, y, z = ring.variables()
    q = ideal_quotient(gens, x)
    gb = buchberger(gens)
    for g in q:
        assert gb.contains((g * x).reorder(gb.ring))


def test_hilbert_function_twisted_cubic(cubic_lex):
    ring, gens = cubic_lex
    assert hilbert_function(gens, 10) == [1] + [3 * d + 1 for d in range(1, 11)]


def test_hilbert_function_honors_degree_cap(cubic_lex):
    ring, gens = cubic_lex
    with pytest.raises(CapInterrupted):
        hilbert_function(gens, 5, BuchbergerOptions(degree_cap=1))


def test_hilbert_function_zero_dimensional(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    assert hilbert_function([x * x, x * y, y ** 3], 5) == [1, 2, 1, 0, 0, 0]


def test_hilbert_function_binomial_for_single_variable():
    ring = PolynomialRing(QQ, ["x0", "x1", "x2", "x3"], GREVLEX)
    vals = hilbert_function([ring.variable(0)], 6)
    assert vals == [comb(d + 2, 2) for d in range(7)]


def test_hilbert_function_of_the_zero_ideal():
    ring = PolynomialRing(QQ, ["x0", "x1", "x2", "x3"], GREVLEX)
    empty = MonomialIdeal.from_monomials(ring, [])
    assert hilbert_function(empty, 5) == [comb(d + 3, 3) for d in range(6)]


def test_hilbert_function_matches_oracle_for_all_orders(cubic_lex):
    from groebner import eliminate_order, weight_order

    ring, gens = cubic_lex
    orders = (LEX, GREVLEX, eliminate_order(2), weight_order((-16, -4, -1, 0)))
    for order in orders:
        ini = initial_ideal(gens, order=order)
        hs = hilbert_function(ini, 6)
        for d in range(7):
            assert comb(d + 3, 3) - hs[d] == ideal_dim_in_degree(gens, d)


def test_hilbert_function_of_monomial_ideals_counts_the_standard_monomials():
    from groebner.oracle import monomials_of_degree

    rng = random.Random(25)
    for _ in range(60):
        n = rng.randint(1, 4)
        monos = [tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(rng.randint(1, 10))]
        M = MonomialIdeal.from_monomials(PolynomialRing(QQ, [f"x{i}" for i in range(n)]), monos)
        count = [sum(not M.contains(m) for m in monomials_of_degree(n, d)) for d in range(9)]
        assert hilbert_function(M, 8) == count, M.gens


def test_a_long_staircase_splits_in_few_steps():
    # x^i y^(N-1-i): every split halves the exponents left, so the depth
    # is logarithmic where a split on x alone recursed N deep
    N = 1000
    ring = PolynomialRing(QQ, ["x", "y"])
    M = MonomialIdeal.from_monomials(ring, [(i, N - 1 - i) for i in range(N)])
    assert hilbert_function(M, N + 1) == list(range(1, N)) + [0, 0, 0]


def test_membership_certificates(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    gens = [x * x + y * y, x * y]
    cert = membership(x * x * y, gens)
    assert cert.member
    assert cert.expand(gens) == x * x * y
    assert cert.coefficients == (ring_qq_xy.zero(), x)

    cert2 = membership(y ** 3, gens)
    assert cert2.member
    assert cert2.coefficients == (y, -x)
    assert cert2.max_coeff_degree == 1

    assert not membership(y, gens).member


def test_membership_of_generator(cubic_lex):
    ring, gens = cubic_lex
    cert = membership(gens[0], gens)
    assert cert.member
    assert cert.coefficients[0] == ring.one()
    assert all(c.is_zero for c in cert.coefficients[1:])


def test_membership_affine_route():
    ring = PolynomialRing(GF(32003), ["x", "y"], GREVLEX)
    x, y = ring.variables()
    gens = [x * y - 1]
    # y*(xy - 1) + y = x y^2, so x y^2 + y is a member despite inhomogeneity
    g = x * y * y - y
    cert = membership(g, gens)
    assert cert.member
    assert cert.expand(gens) == g
    assert not membership(x, gens).member


def test_membership_keeps_zero_generator_positions():
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    gens = [ring.zero(), x, y]
    g = x * y + y * y
    cert = membership(g, gens)
    assert cert.member
    assert cert.coefficients == (ring.zero(), y, y)
    assert cert.expand(gens) == g


def test_membership_homogenizer_avoids_ring_variables():
    ring = PolynomialRing(QQ, ["x", "u"], GREVLEX)
    x, u = ring.variables()
    gens = [x * u - 1]
    g = x * u * u - u
    cert = membership(g, gens)
    assert cert.member and cert.expand(gens) == g
    assert not membership(x, gens).member

    # the homogeneous tower's ring has its own u
    tring, tgens = mayr_meyer(1, homogeneous=True, field=QQ)
    v = {name: tring.variable(name) for name in ("S1", "F1", "C1_1", "B1_1", "u")}
    w = v["S1"] * v["C1_1"] * v["u"] ** 2 - v["F1"] * v["C1_1"] * v["B1_1"] ** 2
    cert = membership(w, tgens)
    assert cert.member and cert.expand(tgens) == w


def test_membership_under_a_weight_order():
    ring = PolynomialRing(QQ, ["x", "y"], weight_order((-1, 0)))
    x, y = ring.variables()
    gens = [x * y - 1]
    cert = membership(x * y * y - y, gens)
    assert cert.member
    assert cert.coefficients == (y,)
    assert not membership(x, gens).member


def test_membership_completes_once(engine_calls):
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    for g, gens, member in [
        (x * y * y - y, [x * y - 1], True),
        (x, [x * y - 1], False),
        (x * x * y, [x * x + y * y, x * y], True),
    ]:
        engine_calls.clear()
        assert membership(g, gens).member is member
        assert len(engine_calls) == 1


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "Fp"])
@pytest.mark.parametrize("order", ["lex", "elim", "weight", "grevlex"])
def test_membership_certificates_across_orders(field, order):
    # every ring order certifies from one grevlex basis; the Macaulay slice
    # decides the homogeneous candidates independently
    rng = random.Random(7)
    outcomes = set()
    for seed, n_vars, n_gens, degree in [
        (3000, 3, 2, 2), (3001, 3, 3, 1), (3002, 3, 2, 3), (3003, 4, 3, 2),
    ]:
        spec = {"lex": LEX, "elim": eliminate_order(1), "grevlex": GREVLEX,
                "weight": weight_order(range(n_vars, 0, -1))}[order]
        ring, gens = random_ideal(seed, n_vars, n_gens, degree, field=field, order=spec)
        xs = ring.variables()
        affine = [f + xs[-1] for f in gens]
        for ideal in (gens, affine):
            g = ring.zero()
            for f in ideal:
                g = g + rng.choice(xs) * rng.choice(xs) * f
            candidates = [g]
            if ideal is gens:
                monomial = ring.one()
                for _ in range(degree + 2):
                    monomial = monomial * rng.choice(xs)
                candidates.append(g + monomial)
            for h in candidates:
                cert = membership(h, ideal)
                if ideal is gens:
                    assert cert.member == membership_in_degree(h, ideal)
                else:
                    assert cert.member
                if cert.member:
                    assert cert.expand(ideal) == h
                outcomes.add(cert.member)
    assert outcomes == {True, False}


def test_borel_fixed_examples(ring_qq_lex):
    R3 = PolynomialRing(QQ, ["x0", "x1", "x2"], GREVLEX)
    assert is_borel_fixed(MonomialIdeal.from_monomials(R3, [(2, 0, 0), (1, 1, 0)]))
    assert not is_borel_fixed(MonomialIdeal.from_monomials(R3, [(1, 0, 1)]))
    lex_cubic_leads = MonomialIdeal.from_monomials(
        ring_qq_lex, [(2, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 2)]
    )
    assert not is_borel_fixed(lex_cubic_leads)


def test_borel_regularity_equals_max_degree():
    # for a Borel-fixed monomial ideal over QQ the resolution tops out at
    # the generator degree
    from groebner import free_resolution, regularity

    R = PolynomialRing(QQ, ["x0", "x1", "x2"], GREVLEX)
    M = MonomialIdeal.from_monomials(R, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)])
    assert is_borel_fixed(M)
    res = free_resolution(M.polynomials())
    assert regularity(res) == 2


def test_homogenize_round_trip(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    f = x * x + y
    hring, hgens, _ = homogenize([f])
    assert hgens[0].is_homogeneous()
    u = hring.variable("u")
    hx, hy = hring.variable("x"), hring.variable("y")
    assert hgens[0] == hx * hx + hy * u
    assert dehomogenize_polynomial(hgens[0], ring_qq_xy) == f
    already = x * x + y * y
    hring2, hgens2, _ = homogenize([already])
    assert dehomogenize_polynomial(hgens2[0], ring_qq_xy) == already


def test_sat_defect_examples(cubic_lex):
    ring, gens = cubic_lex
    sd = sat_defect(gens, seed=3)
    assert sd.total == 0

    R2 = PolynomialRing(QQ, ["x0", "x1"], GREVLEX)
    a0, a1 = R2.variables()
    sd2 = sat_defect([a0 * a0, a0 * a1], seed=3)
    assert sd2.total == 1
    assert sd2.by_degree == {1: 1}
    assert sd2.total <= sd2.bound

    R3 = PolynomialRing(QQ, ["x0", "x1", "x2"], GREVLEX)
    assert sat_defect([R3.one()], seed=1).total == 0


def test_sat_defect_of_the_zero_ideal_has_nothing_to_resolve():
    # as free_resolution: the zero ideal has no regularity to read
    ring = PolynomialRing(QQ, ["x0", "x1", "x2"], GREVLEX)
    for gens in ([], [ring.zero()]):
        with pytest.raises(ValueError, match="nothing to resolve"):
            sat_defect(gens, seed=1)
    # the unit ideal keeps its answer
    assert sat_defect([ring.zero(), ring.one()], seed=1) == SatDefect(0, {}, 0, 0)


def test_sat_defect_passes_its_options_to_every_completion(monkeypatch):
    import sys
    import time

    from groebner import modules
    from groebner.buchberger import BuchbergerOptions

    # the package's buchberger() function shadows its submodule's name
    buchberger_module = sys.modules["groebner.buchberger"]

    deadline = time.monotonic() + 3600.0
    seen = []
    inner = modules.module_buchberger

    def spy(gens, opts=None, *args, **kwargs):
        seen.append(None if opts is None else opts.deadline)
        return inner(gens, opts, *args, **kwargs)

    # every binding through which the package reaches the engine
    monkeypatch.setattr(modules, "module_buchberger", spy)
    monkeypatch.setattr(buchberger_module, "module_buchberger", spy)
    monkeypatch.setattr(sys.modules["groebner.resolutions"], "module_buchberger", spy)
    R = PolynomialRing(GF(32003), ["x0", "x1", "x2"], GREVLEX)
    x0, x1, x2 = R.variables()
    sd = sat_defect([x0 * x0, x0 * x1, x1 * x2 * x2], seed=3,
                    opts=BuchbergerOptions(deadline=deadline))
    assert sd.total <= sd.bound
    assert seen and all(d == deadline for d in seen)


def test_full_saturation_respects_components():
    # (x1^2, x1 x2) in three variables is already saturated: the embedded
    # prime is (x1, x2), not the irrelevant ideal
    R = PolynomialRing(GF(32003), ["x0", "x1", "x2"], GREVLEX)
    x0, x1, x2 = R.variables()
    gens = [x1 * x1, x1 * x2]
    sat = saturation(gens, seed=5)
    assert hilbert_function(sat, 5) == hilbert_function(gens, 5)


def test_generic_change_is_invertible():
    ring, gens = twisted_cubic(GF(32003), GREVLEX)
    changed, change = generic_change(gens, seed=9)
    assert [change.unapply(f) for f in changed] == gens
    assert hilbert_function(changed, 5) == hilbert_function(gens, 5)


# -- coordinate changes and the saturation defect ---------------------------

def _expand_through_forms(f, mat, ring):
    # independent expansion: each x_i becomes the linear form sum_j mat[i][j] x_j
    forms = [
        ring.polynomial(
            (a, tuple(1 if k == j else 0 for k in range(ring.nvars)))
            for j, a in enumerate(row)
        )
        for row in mat
    ]
    out = ring.zero()
    for t in f.terms:
        piece = ring.constant(t.coeff)
        for form, e in zip(forms, t.monomial):
            for _ in range(e):
                piece = piece * form
        out = out + piece
    return out


def _seeded_polynomials(ring, seed):
    rng = random.Random(seed)
    out = []
    for homogeneous in (True, False, True, False):
        terms = []
        for _ in range(rng.randint(1, 6)):
            d = 3 if homogeneous else rng.randint(0, 3)
            mono = [0] * ring.nvars
            for _ in range(d):
                mono[rng.randrange(ring.nvars)] += 1
            terms.append((ring.field.random_scalar(rng), tuple(mono)))
        out.append(ring.polynomial(terms))
    return out


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "Fp"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coordinate_change_matches_the_expanded_forms(field, seed):
    ring = PolynomialRing(field, ["x", "y", "z"], GREVLEX)
    polys = _seeded_polynomials(ring, seed)
    _, change = generic_change([ring.one()], seed=seed)
    for f in polys:
        assert change.apply(f) == _expand_through_forms(f, change.matrix, ring)
        assert change.unapply(f) == _expand_through_forms(f, change.inverse, ring)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "Fp"])
def test_coordinate_change_shares_its_tables(field):
    ring = PolynomialRing(field, ["x", "y", "z", "w"], GREVLEX)
    polys = _seeded_polynomials(ring, 7) + _seeded_polynomials(ring, 8)
    _, change = generic_change([ring.one()], seed=4)
    first = [change.apply(f) for f in polys]
    expanded = len(change._forward)
    # a second pass through the same change expands no monomial again
    assert [change.apply(f) for f in polys] == first
    assert len(change._forward) == expanded
    assert [change.unapply(g) for g in first] == polys
    assert [change.apply(change.unapply(f)) for f in polys] == polys
    # the tables stay out of the dataclass's equality and repr
    assert change == type(change)(ring, change.matrix, change.inverse)
    assert "_forward" not in repr(change)


def test_sat_defect_stays_in_generic_coordinates(monkeypatch, engine_calls):
    from groebner import free_resolution, oracle
    from groebner.ideals import CoordinateChange

    ideals_module = sys.modules["groebner.ideals"]

    def no_dense_change(*args, **kwargs):
        raise AssertionError("a dense coordinate change was drawn")

    # one general linear form needs no dense change and no inverse matrix
    monkeypatch.setattr(ideals_module, "generic_change", no_dense_change)
    monkeypatch.setattr(oracle, "invert_matrix", no_dense_change)
    _, gens = random_ideal(1502, 4, 3, 2)
    x = gens[0].ring.variables()
    gens = [g * v for g in gens for v in x[:2]]
    free_resolution(gens)
    reference = len(engine_calls)
    saturation(gens, seed=5)
    saturation_calls = len(engine_calls) - reference
    # a general first form: one completion, whose stripped basis is the
    # saturation's, then one completion in the original coordinates
    assert saturation_calls == 2

    def no_unapply(self, f):
        raise AssertionError("sat_defect carried the saturation back")

    monkeypatch.setattr(CoordinateChange, "unapply", no_unapply)
    engine_calls.clear()
    sd = sat_defect(gens, seed=5)
    assert sd.total > 0
    assert len(engine_calls) == reference + saturation_calls - 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_saturation_over_a_small_field_never_returns_another_ideal(p):
    # (xz, yz) = (z) cap (x, y) is saturated; the forms in (z) saturate it
    # to (x, y), and over a small field they are drawn often
    R = PolynomialRing(GF(p), ["x", "y", "z"], GREVLEX)
    x, y, z = R.variables()
    gens = [x * z, y * z]
    reduced = list(buchberger(gens).elements)
    for seed in range(40):
        try:
            sat = saturation(gens, seed=seed)
        except RuntimeError as err:
            assert "no general linear form" in str(err)
            assert "field may be too small" in str(err)
            continue
        assert sat == reduced
        assert sat_defect(gens, seed=seed).total == 0


@pytest.mark.parametrize("p", [2, 3])
def test_saturation_over_a_small_field_tries_every_form(p):
    # only z + 0x + 0y of the q^2 forms is bad, and a small field's forms
    # are all tried; three draws over GF(2) from seed 15 all drew it
    R = PolynomialRing(GF(p), ["x", "y", "z"], GREVLEX)
    x, y, z = R.variables()
    gens = [x * z, y * z]
    reduced = list(buchberger(gens).elements)
    for seed in range(60):
        assert saturation(gens, seed=seed) == reduced


def test_saturation_refuses_when_every_form_is_a_zero_divisor():
    # I = f (x, y) with f = xy(x + y): sat I = (f), and the forms y and
    # x + y that F_2 offers both divide f, so no form proves a saturation
    R = PolynomialRing(GF(2), ["x", "y"], GREVLEX)
    x, y = R.variables()
    f = x * y * (x + y)
    with pytest.raises(RuntimeError, match="no general linear form"):
        saturation([f * x, f * y])


@pytest.mark.parametrize("seed,n_vars,n_gens,degree", [
    (1500, 3, 2, 2), (1501, 3, 3, 2), (1502, 4, 3, 2), (1503, 3, 2, 3), (1504, 4, 2, 2),
])
def test_sat_defect_matches_the_public_saturation(seed, n_vars, n_gens, degree):
    from groebner import free_resolution, regularity

    _, gens = random_ideal(seed, n_vars, n_gens, degree)
    x = gens[0].ring.variables()
    for ideal in (gens, [g * v for g in gens for v in x]):
        reg = regularity(free_resolution(ideal))
        h_i = hilbert_function(ideal, reg)
        h_sat = hilbert_function(saturation(ideal, seed=seed), reg)
        by_degree = {d: h_i[d] - h_sat[d] for d in range(reg + 1) if h_i[d] != h_sat[d]}
        sd = sat_defect(ideal, seed=seed)
        assert (sd.by_degree, sd.total, sd.regularity) == (
            by_degree, sum(by_degree.values()), reg
        )


# -- the regularity sat_defect reads off the saturation -----------------------

# test_10/11's shapes (n_vars, n_gens, degree), in generic coordinates as there
# and raw; small shapes over small prime fields and over QQ, raw
_CROSS_CHECK_SUITES = {
    "suite": (GF(32003), [(3 + k % 2, 2 + k % 3, 1 + k % 3) for k in range(6)], True),
    "GF2": (GF(2), [(3, 2, 2), (3, 3, 2), (4, 3, 2)], False),
    "GF3": (GF(3), [(3, 2, 2), (3, 3, 2), (4, 3, 2)], False),
    "GF5": (GF(5), [(3, 2, 2), (3, 3, 2), (4, 3, 2)], False),
    "QQ": (QQ, [(3, 2, 2), (3, 3, 2), (4, 2, 1)], False),
}


def _cross_check_ideals(case):
    if case == "embedded":
        text = (Path(__file__).parent / "data" / "embedded.id").read_text()
        return [parse_ideal_file(text).generators]
    if case == "twisted-cubic":
        return [twisted_cubic(field, GREVLEX)[1] for field in (QQ, GF(32003))]
    if case == "tower":
        return [mayr_meyer(1, homogeneous=True)[1]]
    field, shapes, generic = _CROSS_CHECK_SUITES[case]
    out = []
    for k, shape in enumerate(shapes):
        _, gens = random_ideal(6000 + k, *shape, field=field)
        x = gens[0].ring.variables()
        # (x0, x1) I has a saturation defect wherever I is saturated; for
        # 4 cubics in 4 variables it takes seconds to complete, and the
        # ideal itself is already m-primary
        products = [[g * v for g in gens for v in x[:2]]] if shape != (4, 4, 3) else []
        for ideal in [gens, *products]:
            out.append(ideal)
            if generic:
                out.append(generic_change(ideal, seed=k)[0])
    return out


@pytest.mark.parametrize("case", [*_CROSS_CHECK_SUITES, "embedded", "twisted-cubic", "tower"])
def test_sat_defect_regularity_is_the_resolutions(case):
    for k, gens in enumerate(_cross_check_ideals(case)):
        assert sat_defect(gens, seed=k).regularity == regularity(free_resolution(gens)), k


class _Resolved(Exception):
    pass


def test_sat_defect_resolves_only_when_the_saturation_is_not_points(monkeypatch, engine_calls):
    def no_resolution(*args, **kwargs):
        raise _Resolved

    monkeypatch.setattr(sys.modules["groebner.ideals"], "free_resolution", no_resolution)
    # 4 cubics in 4 variables are m-primary, sat I = S; 3 quadrics cut out
    # 8 points and are saturated.  Complete intersections: reg I = 1 + sum
    # (d_i - 1), and the m-primary defect is all of S/I, 3^4 = 81
    for shape, total, reg in [((4, 4, 3), 81, 9), ((4, 3, 2), 0, 4)]:
        _, gens = random_ideal(1600, *shape)
        engine_calls.clear()
        sd = sat_defect(gens, seed=5)
        assert (sd.total, sd.regularity) == (total, reg)
        # the one completion of _saturate_last for the seeded form, no more
        assert len(engine_calls) == 1
    # the twisted cubic, a curve, and (x0, x1) G, whose saturation cuts out a
    # line and points, still resolve
    _, gens = random_ideal(1502, 4, 3, 2)
    x = gens[0].ring.variables()
    for ideal in (twisted_cubic(GF(32003), GREVLEX)[1], [g * v for g in gens for v in x[:2]]):
        with pytest.raises(_Resolved):
            sat_defect(ideal, seed=5)


# -- edge cases of membership and homogenization ------------------------------

@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=["QQ", "Fp"])
def test_membership_in_the_zero_ideal(field, engine_calls):
    ring = PolynomialRing(field, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    cert = membership(ring.zero(), [ring.zero(), ring.zero()])
    assert cert.member
    assert cert.coefficients == (ring.zero(), ring.zero())
    assert cert.max_coeff_degree == 0
    assert cert.expand([ring.zero(), ring.zero()]) == ring.zero()
    cert = membership(x * y - 1, [ring.zero()])
    assert not cert.member
    assert cert.coefficients == ()
    assert cert.max_coeff_degree is None
    assert not engine_calls


def test_homogenize_under_a_weight_order():
    ring = PolynomialRing(QQ, ["x", "y"], weight_order((-1, 0)))
    x, y = ring.variables()
    hring, hgens, old = homogenize([x * y - 1])
    assert old == ring
    assert hring.order == weight_order((-1, 0, 0))
    hx, hy, u = hring.variables()
    assert hgens == [hx * hy - u * u]
    assert dehomogenize_polynomial(hgens[0], ring) == x * y - 1


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_homogenize_keeps_other_orders(order):
    ring = PolynomialRing(QQ, ["x", "y"], order)
    x, y = ring.variables()
    hring, hgens, _ = homogenize([x * x + y, x * y - 1])
    assert hring == PolynomialRing(QQ, ["x", "y", "u"], order)
    hx, hy, u = hring.variables()
    assert hgens == [hx * hx + hy * u, hx * hy - u * u]
    assert [str(g) for g in hgens] == ["x^2 + y*u", "x*y - u^2"]


# -- homogeneous input completes only through the degree it reads -------------

# (seed, variables, forms, degree): the acceptance suites' shape cycle
# without its sixth shape, 4 cubics in 4 variables, which takes seconds
_TRUNCATION_SHAPES = [(1000 + k, 3 + k % 2, 2 + k % 3, 1 + k % 3) for k in range(5)]
_TRUNCATION_FIELDS = {"Fp": GF(32003), "QQ": QQ, "GF7": GF(7)}


def _membership_by_full_completion(g, gens, hgb):
    """The certificate membership() gave before truncation, read off hgb,
    the complete basis of the homogenized generators in grevlex with the
    homogenizer last: the reference for the truncated route."""
    ring, hring = g.ring, hgb.ring
    gh = homogenize_polynomial(g, hring)
    power = hring.one()
    for _ in range(max(f.lead_monomial[-1] for f in hgb.elements) + 1):
        div = divide(gh * power, hgb.elements)
        if div.remainder.is_zero:
            rows = _combine(hring, div.quotients, hgb.transform, len(gens))
            coeffs = tuple(dehomogenize_polynomial(c, ring) for c in rows)
            degs = [a.total_degree() for a in coeffs if not a.is_zero]
            return MembershipCertificate(True, coeffs, max(degs) if degs else 0)
        power = power * hring.variable(hring.nvars - 1)
    return MembershipCertificate(False, (), None)


def _forms_up_to(ring, gens, d, rng):
    """A member of degree d (a random combination of the generators), the
    member plus a random monomial of degree d, and an inhomogeneous sum of
    members and a monomial of each degree up to d."""
    xs = ring.variables()

    def monomial(k):
        out = ring.one()
        for _ in range(k):
            out = out * rng.choice(xs)
        return out

    def member(k):
        out = ring.zero()
        for f in gens:
            if f.total_degree() <= k:
                out = out + monomial(k - f.total_degree()).scalar_mul(
                    ring.field.random_scalar(rng)) * f
        return out

    g = member(d)
    mixed = ring.zero()
    for k in range(d + 1):
        mixed = mixed + member(k) + monomial(k).scalar_mul(ring.field.random_scalar(rng))
    return [g, g + monomial(d), mixed]


@pytest.mark.parametrize("field_id", list(_TRUNCATION_FIELDS))
@pytest.mark.parametrize("order", ["grevlex", "lex", "weight"])
def test_truncated_completion_matches_the_full_one_through_its_degree(field_id, order):
    field = _TRUNCATION_FIELDS[field_id]
    rng = random.Random(22)
    cuts = 0
    for seed, n_vars, n_gens, degree in _TRUNCATION_SHAPES:
        spec = {"grevlex": GREVLEX, "lex": LEX,
                "weight": weight_order(range(n_vars, 0, -1))}[order]
        ring, gens = random_ideal(seed, n_vars, n_gens, degree, field=field, order=spec)
        full = buchberger(gens)
        assert full.complete
        numerator = _numerator(f.lead_monomial for f in full.elements)
        hring = ring.with_order(GREVLEX).append_variable("u")
        hgb = buchberger([homogenize_polynomial(f, hring) for f in gens])
        for D in range(full.max_degree() + 2):
            cut = _complete_basis(gens, through=D)
            cuts += not cut.complete
            low = sum(1 for f in full.elements if f.total_degree() <= D)
            assert cut.elements[:low] == full.elements[:low], (seed, D)
            assert all(f.total_degree() > D for f in cut.elements[low:]), (seed, D)
            assert cut.transform[:low] == full.transform[:low], (seed, D)
            assert hilbert_function(gens, D) == _series_values(numerator, n_vars, D)
            for g in _forms_up_to(ring, gens, D, rng):
                assert membership(g, gens) == _membership_by_full_completion(g, gens, hgb)
                if order == "weight" and not g.is_homogeneous():
                    continue  # a weight order divides homogeneous input only
                a, b = divide(g, full.elements), divide(g, cut.elements)
                assert a.remainder == b.remainder
                assert a.quotients[:low] == b.quotients[:low]
                assert all(q.is_zero for q in a.quotients[low:] + b.quotients[low:])
    assert cuts  # the cap bound in some of the cases


def test_a_cap_at_or_above_the_degree_read_no_longer_interrupts(cubic_lex):
    # the twisted cubic's lex basis tops out in degree 3: a cap of 2 cuts the
    # full completion, but membership in degree 2 and the Hilbert function
    # through degree 2 read nothing above it
    ring, gens = cubic_lex
    w, x, y, z = ring.variables()
    cap2 = BuchbergerOptions(degree_cap=2)
    with pytest.raises(CapInterrupted):
        _complete_basis(gens, opts=cap2)
    cert = membership(gens[0] + gens[2], gens, cap2)
    assert cert.member and cert.coefficients == (ring.one(), ring.zero(), ring.one())
    assert not membership(w * z, gens, cap2).member
    assert hilbert_function(gens, 2, cap2) == [1, 4, 7]
    # a cap below the degree read still raises when it cuts the completion
    with pytest.raises(CapInterrupted):
        membership(w * gens[1], gens, cap2)
    with pytest.raises(CapInterrupted):
        hilbert_function(gens, 3, cap2)
    # ... and not when the completion ends below it
    line = [w, x]
    assert membership(w * x * y, line, BuchbergerOptions(degree_cap=1)).member
    assert hilbert_function(line, 3, BuchbergerOptions(degree_cap=1)) == [1, 2, 3, 4]
