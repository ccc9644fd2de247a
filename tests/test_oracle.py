"""The Macaulay-matrix instrument itself."""

import random
from math import comb

import pytest

from groebner import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    BettiTable,
    PolynomialRing,
    free_resolution,
    generic_change,
    hilbert_function,
    ideal_dim_in_degree,
    initial_ideal,
    initial_ideal_in_degree,
    membership_in_degree,
    monomials_of_degree,
    random_ideal,
)
from groebner.ideals import MonomialIdeal, is_borel_fixed
from groebner.oracle import (
    Echelon,
    eliahou_kervaire_betti,
    invert_matrix,
    macaulay_matrix,
    rank_of_rows,
    row_reduce,
)
from groebner.parser import parse_polynomial


def test_monomial_enumeration_counts():
    for nvars, d in ((2, 3), (3, 4), (4, 2)):
        monos = monomials_of_degree(nvars, d)
        assert len(monos) == comb(d + nvars - 1, nvars - 1)
        assert len(set(monos)) == len(monos)
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert monomials_of_degree(3, -1) == []


def test_dimension_examples(cubic_lex):
    ring, gens = cubic_lex
    assert ideal_dim_in_degree(gens, 2) == 3
    assert ideal_dim_in_degree(gens, 0) == 0
    R = PolynomialRing(QQ, ["x0", "x1"], GREVLEX)
    assert ideal_dim_in_degree([R.variable(0)], 1) == 1


def test_membership_in_degree(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    gens = [x * x + y * y, x * y]
    assert membership_in_degree(x * x * y, gens)
    assert membership_in_degree(gens[0], gens)
    assert not membership_in_degree(y ** 2, gens)
    with pytest.raises(ValueError):
        membership_in_degree(x + x * y, gens)


def test_initial_ideal_in_degree_agrees_with_basis_route(cubic_lex):
    ring, gens = cubic_lex
    ini = initial_ideal(gens, order=LEX)
    for d in (1, 2, 3, 4):
        truncated = set(initial_ideal_in_degree(gens, d, order=LEX))
        assert truncated == set(ini.monomials_of_degree(d))


def test_initial_ideal_in_degree_edges(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    assert initial_ideal_in_degree([x * x + y * y], 1) == []
    monos = initial_ideal_in_degree([x * y], 3)
    assert set(monos) == {(2, 1), (1, 2)}


def test_memory_budget_guard(cubic_lex):
    ring, gens = cubic_lex
    with pytest.raises(MemoryError):
        macaulay_matrix(gens, 9, max_cells=10)


def test_rank_and_inverse_helpers():
    F = GF(7)
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank_of_rows([[F.normalize(x) for x in r] for r in rows], F) == 2
    # the sparse forward elimination agrees with the dense reduced echelon
    # form and leaves its input alone
    for field in (QQ, F):
        _, gens = random_ideal(5, 3, 3, 2, field=field)
        for d in (2, 3, 4):
            mat = macaulay_matrix(gens, d)
            before = [list(r) for r in mat.rows]
            rank = rank_of_rows(mat.rows, field)
            assert mat.rows == before
            assert rank == len(row_reduce(before, field))
    # the echelon fed row by row: its rank gains add up to the dense rank,
    # and its pivots inside each column prefix to the rank of the rows cut
    # to that prefix
    rng = random.Random(17)
    for field in (F, GF(32003), QQ):
        for _ in range(20):
            ncols = rng.randint(1, 12)
            rows = [
                [field.normalize(rng.randint(1, 40)) if rng.random() < 0.3 else field.zero
                 for _ in range(ncols)]
                for _ in range(rng.randint(1, 12))
            ]
            before = [list(r) for r in rows]
            echelon = Echelon(field)
            gains = sum(echelon.add({c: x for c, x in enumerate(r) if x != 0}) for r in rows)
            rank = len(row_reduce([list(r) for r in rows], field))
            assert gains == echelon.rank == rank
            assert rank_of_rows(rows, field) == rank
            assert rows == before
            for prefix in range(ncols + 1):
                cut = len(row_reduce([r[:prefix] for r in rows], field))
                assert sum(c < prefix for c in echelon.pivots) == cut
    inv = invert_matrix([[1, 1], [0, 1]], F)
    assert inv == [[1, 6], [0, 1]]
    assert invert_matrix([[1, 1], [1, 1]], F) is None


def test_oracle_agrees_with_hilbert_route_on_random_suite():
    for seed in (21, 22):
        ring, gens = random_ideal(seed, 3, 2, 2)
        hf = hilbert_function(gens, 5)
        for d in range(6):
            assert comb(d + 2, 2) - hf[d] == ideal_dim_in_degree(gens, d)


@pytest.mark.parametrize("names,gens", [
    ("x y", ["x^2", "x*y", "y^2"]),                  # (x, y)^2
    ("x y z", ["x^2", "x*y", "x*z", "y^2"]),         # a lex segment in degree 2
    ("x y z", ["x^2", "x*y", "y^3"]),
    ("x y z", ["x", "y^2", "y*z", "z^3"]),
    ("w x y z", ["w^2", "w*x", "w*y", "x^3", "x^2*y", "w*z^2"]),
])
def test_eliahou_kervaire_table_of_hand_made_stable_ideals(names, gens):
    ring = PolynomialRing(GF(32003), names.split(), GREVLEX)
    polys = [parse_polynomial(g, ring) for g in gens]
    ideal = MonomialIdeal.from_monomials(ring, [f.lead_monomial for f in polys])
    assert is_borel_fixed(ideal) and len(ideal.gens) == len(gens)
    ek = BettiTable(eliahou_kervaire_betti(ideal.gens))
    assert ek == free_resolution(polys).betti()


@pytest.mark.parametrize("k", range(12))
def test_eliahou_kervaire_table_of_generic_initial_ideals(k):
    # the suite shape cycle; in generic coordinates the grevlex initial
    # ideal is Borel-fixed (Galligo 1974; Bayer-Stillman 1987)
    seed = 1000 + k
    _, gens = random_ideal(seed, 3 + k % 2, 2 + k % 3, 1 + k % 3, field=GF(32003))
    changed, _ = generic_change(gens, seed=seed)
    gin = initial_ideal(changed)
    assert is_borel_fixed(gin)
    ek = BettiTable(eliahou_kervaire_betti(gin.gens))
    assert ek == free_resolution(gin.polynomials()).betti()
