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
from groebner import oracle
from groebner.ideals import MonomialIdeal, is_borel_fixed
from groebner.oracle import (
    Echelon,
    eliahou_kervaire_betti,
    invert_matrix,
    macaulay_matrix,
    rank_of_rows,
)
from groebner.parser import parse_polynomial


def row_reduce(rows, field):
    """In-place reduced row echelon form; returns the pivot column list.

    Pivots take the first nonzero entry scanning left to right, top rows
    first, with no reordering heuristics, so runs are reproducible.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [
                    field.sub(x, field.mul(factor, y)) for x, y in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _sparse(dense):
    return {c: x for c, x in enumerate(dense) if x != 0}


def _suite_ideals(field):
    # the acceptance suites' shape cycle (tests/test_acceptance.py)
    for k in range(12):
        yield random_ideal(1000 + k, 3 + k % 2, 2 + k % 3, 1 + k % 3, field=field)[1]


def test_monomial_enumeration_counts():
    for nvars, d in ((2, 3), (3, 4), (4, 2)):
        monos = monomials_of_degree(nvars, d)
        assert len(monos) == comb(d + nvars - 1, nvars - 1)
        assert len(set(monos)) == len(monos)
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert monomials_of_degree(3, -1) == []
    # no variable: the empty vector in degree 0, and nothing above it
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 2) == []


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


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF32003", "QQ"])
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_initial_ideal_in_degree_agrees_on_random_suite(field, order):
    # the pivots of the Macaulay echelon are the degree-d slice of in(I)
    for gens in _suite_ideals(field):
        ini = initial_ideal(gens, order=order)
        top = max(g.total_degree() for g in gens) + 2
        for d in range(top + 1):
            truncated = initial_ideal_in_degree(gens, d, order=order)
            assert sorted(truncated) == sorted(ini.monomials_of_degree(d))


def test_initial_ideal_in_degree_edges(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    assert initial_ideal_in_degree([x * x + y * y], 1) == []
    monos = initial_ideal_in_degree([x * y], 3)
    assert set(monos) == {(2, 1), (1, 2)}


def test_memory_budget_guard(cubic_lex):
    # the budget counts the entries the sparse rows hold: the twisted cubic
    # at degree 30 is 13,485 rows x 5,456 columns but only 26,970 entries
    ring, gens = cubic_lex
    mat = macaulay_matrix(gens, 30)
    assert (len(mat.rows), len(mat.columns)) == (13485, 5456)
    assert sum(map(len, mat.rows)) == 26970
    # three dense cubics in 6 variables at degree 20: 3 * 56 * 26,334 entries,
    # over the 4M budget; refused before any row is built
    _, dense = random_ideal(1, 6, 3, 3)
    with pytest.raises(MemoryError, match="4424112 entries"):
        macaulay_matrix(dense, 20)
    # the budget also counts the entries the echelon writes, and binomial
    # rows barely fill in: H(30) = 91 of the twisted cubic comes out
    assert ideal_dim_in_degree(gens, 30) == 5456 - 91
    # at degree 17 the dense rows fit (1,953,504 entries), but they fill in
    # as they are reduced, toward rank x columns ~ 23,000 x 26,334 entries:
    # the echelon is refused once it has written 4M
    with pytest.raises(MemoryError, match="over the 4000000 budget"):
        ideal_dim_in_degree(dense, 17)


def test_every_oracle_echelon_is_budgeted(monkeypatch):
    # the dense cubics at degree 5 write 14,038 entries
    _, dense = random_ideal(1, 6, 3, 3)
    assert ideal_dim_in_degree(dense, 5) == 63
    monkeypatch.setattr(oracle, "DEFAULT_ENTRY_BUDGET", 10_000)
    member = dense[0] * dense[0].ring.variable(0) ** 2
    for oracle_call in (lambda: ideal_dim_in_degree(dense, 5),
                        lambda: initial_ideal_in_degree(dense, 5),
                        lambda: membership_in_degree(member, dense)):
        with pytest.raises(MemoryError, match="over the 10000 budget"):
            oracle_call()


def test_a_refused_elimination_builds_only_the_rows_it_read(monkeypatch):
    # 63 rows; the echelon passes 5,000 written entries at the 45th
    _, dense = random_ideal(1, 6, 3, 3)
    assert len(macaulay_matrix(dense, 5).rows) == 63
    monkeypatch.setattr(oracle, "DEFAULT_ENTRY_BUDGET", 5_000)
    built, inner = [], oracle._MacaulayRows.__iter__

    def counting(rows):
        for row in inner(rows):
            built.append(row)
            yield row

    monkeypatch.setattr(oracle._MacaulayRows, "__iter__", counting)
    member = dense[0] * dense[0].ring.variable(0) ** 2
    for oracle_call in (lambda: ideal_dim_in_degree(dense, 5),
                        lambda: initial_ideal_in_degree(dense, 5),
                        lambda: membership_in_degree(member, dense)):
        built.clear()
        with pytest.raises(MemoryError, match="over the 5000 budget"):
            oracle_call()
        assert len(built) == 45


def test_rank_and_inverse_helpers():
    F = GF(7)
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank_of_rows([_sparse([F.normalize(x) for x in r]) for r in rows], F) == 2
    # the sparse forward elimination agrees with the dense reduced echelon
    # form of the Macaulay rows and leaves its input alone
    for field in (QQ, F):
        _, gens = random_ideal(5, 3, 3, 2, field=field)
        for d in (2, 3, 4):
            mat = macaulay_matrix(gens, d)
            before = [dict(r) for r in mat.rows]
            rank = rank_of_rows(mat.rows, field)
            assert mat.rows == before
            dense = [[r.get(c, field.zero) for c in range(len(mat.columns))] for r in before]
            assert rank == len(row_reduce(dense, field))
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
            sparse = [_sparse(r) for r in rows]
            before = [dict(r) for r in sparse]
            echelon = Echelon(field)
            gains = sum(echelon.add(_sparse(r)) for r in rows)
            rank = len(row_reduce([list(r) for r in rows], field))
            assert gains == echelon.rank == rank
            assert rank_of_rows(sparse, field) == rank
            assert sparse == before
            for prefix in range(ncols + 1):
                cut = len(row_reduce([r[:prefix] for r in rows], field))
                assert sum(c < prefix for c in echelon.pivots) == cut
    inv = invert_matrix([[1, 1], [0, 1]], F)
    assert inv == [[1, 6], [0, 1]]
    assert invert_matrix([[1, 1], [1, 1]], F) is None


@pytest.mark.parametrize("field", [GF(2), GF(7), GF(32003), QQ],
                         ids=["GF2", "GF7", "GF32003", "QQ"])
def test_invert_matrix_property(field):
    # M * inv == I, and None exactly when the dense reference finds rank < n;
    # small entries over small fields make singular draws common
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 6)
        matrix = [[field.normalize(rng.randint(-3, 3)) if rng.random() < 0.6 else field.zero
                   for _ in range(n)] for _ in range(n)]
        before = [list(r) for r in matrix]
        inv = invert_matrix(matrix, field)
        assert matrix == before
        rank = len(row_reduce([list(r) for r in matrix], field))
        assert (inv is None) == (rank < n)
        if inv is None:
            continue
        for i in range(n):
            for j in range(n):
                entry = field.zero
                for k in range(n):
                    entry = field.add(entry, field.mul(matrix[i][k], inv[k][j]))
                assert entry == (field.one if i == j else field.zero)


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
