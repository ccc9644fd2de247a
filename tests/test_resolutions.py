"""Free resolutions, Betti tables, regularity, and the randomized test."""

import random
import sys
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from groebner import (
    GF,
    GREVLEX,
    LEX,
    NOT_REGULAR,
    QQ,
    REGULAR,
    BettiTable,
    PolynomialRing,
    bayer_stillman_test,
    buchberger,
    free_resolution,
    hilbert_function,
    mayr_meyer,
    minimalize_generators,
    random_ideal,
    regularity,
    syzygies,
    twisted_cubic,
)
from groebner import modules
from groebner.ideals import generic_change
from groebner.modules import (
    BuchbergerOptions,
    CapInterrupted,
    DeadlineExceeded,
    as_module_elements,
    syzygy_generators,
)
from groebner.oracle import Echelon, monomials_of_degree
from groebner.poly import Polynomial, last_variable_change, mono_mul
from groebner.resolutions import INCONCLUSIVE, FreeResolution


def _has_scalar_entries(res):
    """Nonzero constant entries in any map past step 0 break minimality."""
    return any(sum(t.monomial) == 0
               for step in res.steps[1:] for elem in step for p in elem.comps for t in p.terms)


def alternating_numerator(betti):
    """Coefficients of sum_i (-1)^i sum_j beta[i,j] t^j."""
    out = {}
    for (i, j), b in betti.entries.items():
        out[j] = out.get(j, 0) + (b if i % 2 == 0 else -b)
    return {j: c for j, c in out.items() if c}


def test_twisted_cubic_resolution(cubic_grevlex):
    ring, gens = cubic_grevlex
    res = free_resolution(gens)
    bt = res.betti()
    assert bt.entries == {(0, 2): 3, (1, 3): 2}
    assert regularity(res) == 2
    assert res.composition_is_zero()
    assert not _has_scalar_entries(res)
    assert res.length <= ring.nvars + 1


def test_monomial_ideal_resolution(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    res = free_resolution([x * x, x * y, y ** 3])
    assert res.betti().entries == {(0, 2): 2, (0, 3): 1, (1, 3): 1, (1, 4): 1}
    assert regularity(res) == 3


def test_principal_ideal_resolution(ring_qq_xy):
    x, y = ring_qq_xy.variables()
    res = free_resolution([x * x + y * y])
    assert res.length == 0
    assert res.betti().entries == {(0, 2): 1}


def test_linear_form_regularity(ring_qq_xy):
    x, _ = ring_qq_xy.variables()
    assert regularity(free_resolution([x])) == 1


def test_degree_cap_interrupts_resolution():
    ring, gens = twisted_cubic(QQ, GREVLEX)
    with pytest.raises(CapInterrupted):
        free_resolution(gens, opts=BuchbergerOptions(degree_cap=1))


def test_zero_ideal_has_nothing_to_resolve(ring_qq_xy):
    with pytest.raises(ValueError, match="nothing to resolve"):
        free_resolution([ring_qq_xy.zero()])
    with pytest.raises(ValueError, match="nothing to resolve"):
        free_resolution([])


def test_resolution_of_module_elements(cubic_grevlex):
    # the twisted cubic's syzygy module is free of rank 2, in degree 3
    ring, gens = cubic_grevlex
    res = free_resolution(syzygies(gens))
    assert res.betti().entries == {(0, 3): 2}
    assert res.length == 0


def test_resolution_matrix_accessor(cubic_grevlex):
    ring, gens = cubic_grevlex
    res = free_resolution(gens)
    m0 = res.matrix(0)
    assert len(m0) == 1 and len(m0[0]) == 3  # three quadrics into the ring
    m1 = res.matrix(1)
    assert len(m1) == 3 and len(m1[0]) == 2
    # columns of matrix(1) pair against steps[0] to give zero
    for col in range(2):
        acc = ring.zero()
        for row in range(3):
            acc = acc + m1[row][col] * res.steps[0][row].comps[0]
        assert acc.is_zero


def test_regularity_at_least_max_generator_degree():
    for seed in (31, 32, 33):
        ring, gens = random_ideal(seed, 3, 2, 2)
        reg = regularity(free_resolution(gens))
        from groebner import minimalize_generators

        assert reg >= max(g.total_degree() for g in minimalize_generators(gens))


def test_betti_table_formats():
    bt = BettiTable({(0, 2): 3, (1, 3): 2})
    assert bt.regularity() == 2
    assert bt[(0, 2)] == 3 and bt[(5, 5)] == 0
    assert bt.json_rows() == [
        {"i": 0, "j": 2, "beta": 3},
        {"i": 1, "j": 3, "beta": 2},
    ]
    art = bt.ascii()
    assert "0" in art and "2:" in art


def test_betti_numbers_intrinsic_across_presentations():
    # same ideal handed over in lex and grevlex reduced-basis form
    ring_l, gens_l = twisted_cubic(QQ, LEX)
    ring_g, gens_g = twisted_cubic(QQ, GREVLEX)
    lex_basis = buchberger(gens_l).elements
    grev_basis = buchberger(gens_g).elements
    assert free_resolution(lex_basis).betti() == free_resolution(grev_basis).betti()


def test_betti_numbers_stable_under_generator_orders(cubic_grevlex):
    import itertools
    import random

    ring, gens = cubic_grevlex
    reference = free_resolution(gens).betti()
    for perm in itertools.permutations(gens):
        assert free_resolution(list(perm)).betti() == reference
    _, gens = random_ideal(1003, 4, 5, 2)
    reference = free_resolution(gens).betti()
    for seed in (1, 5):
        shuffled = list(gens)
        random.Random(seed).shuffle(shuffled)
        assert free_resolution(shuffled).betti() == reference


def test_alternating_sum_matches_hilbert_series(cubic_grevlex):
    ring, gens = cubic_grevlex
    res = free_resolution(gens)
    num = alternating_numerator(res.betti())
    v = ring.nvars
    cap = 10
    hf = hilbert_function(gens, cap)  # dims of S/I
    for d in range(cap + 1):
        dim_ideal = sum(c * comb(d - e + v - 1, v - 1) for e, c in num.items() if e <= d)
        assert comb(d + v - 1, v - 1) - dim_ideal == hf[d]


def test_resolution_of_random_ideals_is_exact():
    for seed in (3, 4):
        ring, gens = random_ideal(seed, 3, 2, 2)
        res = free_resolution(gens)
        assert res.composition_is_zero()
        assert not _has_scalar_entries(res)
        assert res.length <= ring.nvars + 1


# ---------------------------------------------------------------------------
# the Koszul route, against the syzygy route as the reference
# ---------------------------------------------------------------------------

def _syzygy_route(gens, opts=None):
    """free_resolution as it resolved every input: iterate syzygies of the
    minimal generators, pushed back and minimalized, until none is left."""
    _, elements = as_module_elements([g for g in gens if not g.is_zero])
    current = minimalize_generators(elements, opts)
    steps = [current]
    while True:
        pushed = syzygy_generators(current, opts, lex_sort=True)
        if not pushed:
            return FreeResolution(current[0].module.ring, steps)
        current = minimalize_generators(pushed, opts)
        steps.append(current)


def _koszul_betti(degrees):
    """beta[i, j] of the Koszul complex: the (i+1)-subsets of the degrees
    that sum to j."""
    return BettiTable.from_shifts(
        [sum(subset) for subset in combinations(degrees, size)]
        for size in range(1, len(degrees) + 1)
    )


def _no_syzygy_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the resolution iterated syzygies")

    monkeypatch.setattr(sys.modules["groebner.resolutions"], "syzygy_generators", forbidden)


def _regular_sequence(field, seed, nvars, degrees):
    """Forms f_i in the variables x_i, x_(i+1), .. only: x_i^d_i plus seeded
    terms of lower degree in x_i.  Their lex leads x_i^d_i are coprime, so
    in(f) is generated by a regular sequence of monomials and f is a
    regular sequence.  The ring is grevlex, so their leads there need not
    be the x_i^d_i."""
    ring = PolynomialRing(field, [f"x{i}" for i in range(nvars)], GREVLEX)
    rng = random.Random(seed)
    forms = []
    for i, d in enumerate(degrees):
        pad = (0,) * i
        terms = [(field.random_scalar(rng), pad + m)
                 for m in monomials_of_degree(nvars - i, d) if m[0] < d]
        forms.append(ring.polynomial([(1, pad + (d,) + (0,) * (nvars - i - 1)), *terms]))
    return forms


FOUR_FIELDS = pytest.mark.parametrize("field", [GF(2), GF(3), GF(32003), QQ],
                                      ids=["GF2", "GF3", "GF32003", "QQ"])
REGULAR_SHAPES = [(2, (2, 3)), (3, (1, 2, 2)), (3, (2, 2, 2)), (4, (1, 2, 3)), (4, (2, 2, 2, 2))]


@FOUR_FIELDS
def test_regular_sequences_resolve_by_the_koszul_complex(field, monkeypatch):
    for seed, (nvars, degrees) in enumerate(REGULAR_SHAPES):
        gens = _regular_sequence(field, seed, nvars, degrees)
        reference = _syzygy_route(gens).betti()
        with monkeypatch.context() as m:
            _no_syzygy_route(m)
            res = free_resolution(gens)
        assert res.betti() == reference == _koszul_betti(degrees), (seed, degrees)
        assert regularity(res) == sum(degrees) - len(degrees) + 1
        assert res.composition_is_zero()
        assert not _has_scalar_entries(res)


@FOUR_FIELDS
def test_the_koszul_route_is_taken_exactly_on_regular_sequences(field, engine_calls):
    # seeded forms, no more than variables, and every third list times a
    # common factor, which is no regular sequence; the reference's Betti
    # table says which lists are
    taken = []
    for seed in range(12):
        nvars, count, degree = 3 + seed % 2, 2 + seed % 2, 1 + seed % 3
        ring, gens = random_ideal(2000 + seed, nvars, count, degree, field=field)
        if seed % 3 == 2:
            gens = [g * ring.variable(0) for g in gens]
        reference = _syzygy_route(gens)
        engine_calls.clear()
        res = free_resolution(gens)
        koszul = len(engine_calls) == 1  # the identity check, and no syzygy step
        assert res.betti() == reference.betti(), seed
        degrees = [e.degree() for e in reference.steps[0]]
        assert koszul == (reference.betti() == _koszul_betti(degrees)), seed
        assert koszul or res.steps == reference.steps, seed
        taken.append(koszul)
    assert set(taken) == {True, False}


@pytest.mark.parametrize("case", ["xy-xz", "twisted-cubic", "four-cubics", "tower"])
def test_other_inputs_take_the_syzygy_route(case):
    if case == "xy-xz":
        ring = PolynomialRing(GF(32003), ["x", "y", "z"], GREVLEX)
        x, y, z = ring.variables()
        gens = [x * y, x * z]
    elif case == "twisted-cubic":
        gens = twisted_cubic(GF(32003), GREVLEX)[1]
    elif case == "four-cubics":  # test_09's (3, 4, 3) shape
        gens = random_ideal(1004, 3, 4, 3)[1]
    else:
        gens = mayr_meyer(1, homogeneous=True, field=GF(32003))[1]
    res, reference = free_resolution(gens), _syzygy_route(gens)
    assert res.steps == reference.steps


def test_a_redundant_regular_sequence_is_minimalized_first(monkeypatch):
    gens = _regular_sequence(GF(32003), 7, 4, (2, 2, 3))
    x = gens[0].ring.variables()
    redundant = [gens[0] * x[3], *gens, gens[1] * x[0] * x[2]]
    reference = _syzygy_route(redundant).betti()
    _no_syzygy_route(monkeypatch)
    res = free_resolution(redundant)
    assert res.betti() == reference == _koszul_betti((2, 2, 3))
    assert [e.comps[0] for e in res.steps[0]] == gens


def test_a_capped_complete_intersection_raises_where_it_did():
    # a cap keeps the syzygy route: the same caps raise, and the others
    # give the reference's maps
    gens = _regular_sequence(GF(32003), 3, 3, (2, 2, 3))
    for cap in range(0, 9):
        opts = BuchbergerOptions(degree_cap=cap)
        try:
            reference = _syzygy_route(gens, opts)
        except CapInterrupted:
            with pytest.raises(CapInterrupted):
                free_resolution(gens, opts)
        else:
            assert free_resolution(gens, opts).steps == reference.steps, cap


class _Countdown(BuchbergerOptions):
    """Options whose deadline passes at the n-th check; every check counts."""

    def __init__(self, n):
        super().__init__()
        self.n, self.checks = n, 0

    def check_deadline(self):
        self.checks += 1
        if self.checks >= self.n:
            raise DeadlineExceeded("countdown")


def test_the_koszul_route_checks_the_deadline_once_per_element(monkeypatch):
    gens = _regular_sequence(QQ, 5, 4, (1, 2, 2, 3))
    past = BuchbergerOptions(deadline=time.monotonic() - 1.0)
    with pytest.raises(DeadlineExceeded):
        free_resolution(gens, past)
    counting = _Countdown(10**9)
    at_completion = []
    resolutions = sys.modules["groebner.resolutions"]
    inner = resolutions.module_buchberger

    def spy(gens, opts):
        out = inner(gens, opts)
        at_completion.append(opts.checks)
        return out

    monkeypatch.setattr(resolutions, "module_buchberger", spy)
    res = free_resolution(gens, counting)
    koszul_elements = sum(len(step) for step in res.steps[1:])
    assert koszul_elements == 2 ** 4 - 1 - 4
    assert counting.checks - at_completion[0] == koszul_elements
    # the deadline passing at the last element's check stops the route, and
    # one check later it finishes; each run completes afresh
    modules._completions.clear()
    modules._latest = None
    with pytest.raises(DeadlineExceeded):
        free_resolution(gens, _Countdown(counting.checks))
    modules._completions.clear()
    modules._latest = None
    assert free_resolution(gens, _Countdown(counting.checks + 1)).betti() == res.betti()


def test_a_held_run_serves_the_koszul_check(engine_calls):
    gens = _regular_sequence(GF(32003), 11, 4, (2, 2, 2))
    held = buchberger(gens)
    run = modules._latest
    engine_calls.clear()
    res = free_resolution(gens)
    # one call, the identity check, served by the held run: no completion
    assert engine_calls == [gens[0].ring] and modules._latest is run
    assert res.betti() == _koszul_betti((2, 2, 2))
    assert held.complete


# ---------------------------------------------------------------------------
# the randomized regularity test
# ---------------------------------------------------------------------------

def test_bs_twisted_cubic():
    ring, gens = twisted_cubic(QQ, GREVLEX)
    assert bayer_stillman_test(gens, 2, seed=3) == REGULAR
    assert bayer_stillman_test(gens, 1, seed=3) == NOT_REGULAR  # degree-2 generators


def test_bs_single_variable():
    ring = PolynomialRing(GF(32003), ["x0", "x1", "x2"], GREVLEX)
    assert bayer_stillman_test([ring.variable(0)], 1) == REGULAR


def _bs_cases(field):
    """(name, generators): generic and raw coordinates, and monomial ideals
    that are not Borel-fixed."""
    for seed in (11, 12, 13):
        ring, gens = random_ideal(seed, 3, 2, 2, field=field)
        yield f"generic {seed}", generic_change(gens, seed=seed + 100)[0]
        yield f"raw {seed}", gens
    yield "raw 4-variable cubics", random_ideal(11, 4, 2, 3, field=field)[1]
    ring = PolynomialRing(field, ["x", "y", "z"], GREVLEX)
    x, y, z = ring.variables()
    yield "(x^2, y^2)", [x * x, y * y]
    yield "(xy, z^3)", [x * y, z ** 3]


def test_bs_agrees_with_resolution_on_seeds():
    # for every m from one below the largest generator degree to reg + 1,
    # REGULAR exactly when m >= reg; over QQ the failing verdicts run every
    # trial through the rational branch of the echelon
    for field in (GF(32003), QQ):
        for name, gens in _bs_cases(field):
            reg = regularity(free_resolution(gens))
            top = max(g.total_degree() for g in minimalize_generators(gens))
            for m in range(top - 1, reg + 2):
                expected = REGULAR if m >= reg else NOT_REGULAR
                assert bayer_stillman_test(gens, m, seed=7) == expected, (field, name, m)


def _section_dims(ring, gens, k, d):
    """(dim (S/I)_d, dim (S/(I, x_{k-1}))_d) for S the ring of the first k
    variables: one echelon of the degree-d multiples, with the monomials
    free of x_{k-1} as its first columns, whose pivots inside that prefix
    count the rank of the projection x_{k-1} = 0."""
    pad = (0,) * (ring.nvars - k)
    columns = sorted((e + pad for e in monomials_of_degree(k, d)), key=lambda e: e[k - 1] > 0)
    index = {e: i for i, e in enumerate(columns)}
    free = sum(1 for e in columns if not e[k - 1])
    echelon = Echelon(ring.field)
    for g in gens:
        terms = [(t.monomial, t.coeff) for t in g.terms]
        for mono in monomials_of_degree(k, d - g.total_degree()):
            echelon.add({index[mono_mul(e, mono + pad)]: c for e, c in terms})
    in_prefix = sum(1 for c in echelon.pivots if c < free)
    return len(columns) - echelon.rank, free - in_prefix


def _two_echelon_test(gens, m, trials=3, seed=0):
    """bayer_stillman_test as it read all four dimensions of every step off
    two echelons in the k variables of that step, with the same draws: the
    reference for the route through the Hilbert function."""
    ring, field = gens[0].ring, gens[0].ring.field
    min_gens = minimalize_generators(gens)
    if max(g.total_degree() for g in min_gens) > m:
        return NOT_REGULAR
    for trial in range(trials):
        rng = random.Random(seed * 1000003 + trial)
        section = min_gens
        for k in range(ring.nvars, 0, -1):
            coeffs = [field.random_scalar(rng) for _ in range(k - 1)]
            change = last_variable_change(ring, k, coeffs)
            section = [change.apply(g) for g in section]
            h_m, _ = _section_dims(ring, section, k, m)
            if h_m == 0:
                return REGULAR
            h_m1, h_next_m1 = _section_dims(ring, section, k, m + 1)
            if h_m - h_m1 + h_next_m1:
                break
            cut = (tuple(t for t in g.terms if not t.monomial[k - 1]) for g in section)
            section = [Polynomial(ring, terms) for terms in cut if terms]
        else:
            return REGULAR
    small_field = field.kind == "prime-field" and field.modulus < 100
    return INCONCLUSIVE if small_field else NOT_REGULAR


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5), GF(32003), QQ],
                         ids=["GF2", "GF3", "GF5", "GF32003", "QQ"])
def test_bs_matches_the_two_echelon_loop(field):
    # raw and generic coordinates, m from one below the top generator degree
    # to reg + 1: over a small field trials are capped at q, and the
    # failing verdicts there are INCONCLUSIVE on both sides
    trials = min(3, field.modulus or 3)
    for name, gens in _bs_cases(field):
        reg = regularity(free_resolution(gens))
        top = max(g.total_degree() for g in minimalize_generators(gens))
        for m in range(top - 1, reg + 2):
            for seed in (0, 7):
                expected = _two_echelon_test(gens, m, trials, seed)
                assert bayer_stillman_test(gens, m, trials, seed) == expected, (name, m, seed)


def test_bs_completes_once_whatever_the_trials(monkeypatch, engine_calls):
    # (xy, z^3) is a complete intersection of regularity 4, generated in
    # degrees <= 3, so at m = 3 every trial runs and fails
    ideals_module = sys.modules["groebner.ideals"]
    hilbert_calls, hilbert = [], ideals_module.hilbert_function

    def hilbert_spy(*args, **kwargs):
        hilbert_calls.append(None)
        return hilbert(*args, **kwargs)

    monkeypatch.setattr(ideals_module, "hilbert_function", hilbert_spy)
    ring = PolynomialRing(GF(32003), ["x", "y", "z"], GREVLEX)
    x, y, z = ring.variables()
    assert regularity(free_resolution([x * y, z ** 3])) == 4
    for trials in (1, 3, 5):
        engine_calls.clear()
        hilbert_calls.clear()
        assert bayer_stillman_test([x * y, z ** 3], 3, trials) == NOT_REGULAR
        assert (len(engine_calls), len(hilbert_calls)) == (1, 1), trials
        assert bayer_stillman_test([x * y, z ** 3], 4, trials) == REGULAR


def test_bs_reads_the_hilbert_function_under_grevlex(engine_calls):
    # h(S/I) does not depend on the order, so a lex ring gets the grevlex
    # ring's verdicts from one grevlex completion per call
    for name, gens in _bs_cases(GF(32003)):
        lex = gens[0].ring.with_order(LEX)
        on_lex = [g.reorder(lex) for g in gens]
        top = max(g.total_degree() for g in minimalize_generators(gens))
        for m in range(top - 1, top + 3):
            want = bayer_stillman_test(gens, m, seed=7)
            engine_calls.clear()
            assert bayer_stillman_test(on_lex, m, seed=7) == want, (name, m)
            assert [r.order for r in engine_calls] == [GREVLEX] * (m >= top), (name, m)


def test_bs_unit_ideal():
    # 1 has regularity 0 and passes at once; every other nonzero ideal
    # fails at m = 0 on its generator degrees
    ring = PolynomialRing(GF(32003), ["x", "y", "z"], GREVLEX)
    assert regularity(free_resolution([ring.one()])) == 0
    assert bayer_stillman_test([ring.one()], 0) == REGULAR
    assert bayer_stillman_test([ring.one()], -1) == NOT_REGULAR
    assert bayer_stillman_test([ring.variable(0)], 0) == NOT_REGULAR


def test_bs_on_the_level_one_tower():
    # regularity 11; the degree-6 slice in eleven variables has 8,008
    # columns, and the test needs no dense change of coordinates; the two
    # echelons per step of the reference give the same verdict
    ring, gens = mayr_meyer(1, homogeneous=True, field=GF(32003))
    assert bayer_stillman_test(gens, 5) == _two_echelon_test(gens, 5) == NOT_REGULAR


def test_bs_keeps_rows_sparse_in_many_variables():
    # eleven variables: degree-4 rows have 1001 columns, so dense rows of
    # every multiple would take tens of MiB
    ring = PolynomialRing(GF(32003), [f"x{i}" for i in range(11)], GREVLEX)
    xs = ring.variables()
    gens = xs[:10] + [xs[10] ** 3]
    tracemalloc.start()
    try:
        verdicts = (bayer_stillman_test(gens, 3), bayer_stillman_test(gens, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == (REGULAR, NOT_REGULAR)
    assert peak < 4 * 2**20


def test_bs_small_field_guard():
    ring = PolynomialRing(GF(5), ["x", "y"], GREVLEX)
    x, y = ring.variables()
    with pytest.raises(ValueError):
        bayer_stillman_test([x * x], 2, trials=30)


def test_bs_honors_a_deadline(monkeypatch):
    ring, gens = twisted_cubic(GF(32003), GREVLEX)
    past = BuchbergerOptions(deadline=time.monotonic() - 1.0)
    with pytest.raises(DeadlineExceeded):
        bayer_stillman_test(gens, 2, opts=past)
    later = BuchbergerOptions(deadline=time.monotonic() + 3600.0)
    assert bayer_stillman_test(gens, 2, opts=later) == REGULAR
    # the section echelons check it too, not only the minimalization and
    # the completion behind the Hilbert function
    resolutions = sys.modules["groebner.resolutions"]
    ideals_module = sys.modules["groebner.ideals"]
    hilbert = ideals_module.hilbert_function
    monkeypatch.setattr(resolutions, "minimalize_generators", lambda gens, opts: gens)
    monkeypatch.setattr(ideals_module, "hilbert_function", lambda gens, d, opts: hilbert(gens, d))
    with pytest.raises(DeadlineExceeded):
        bayer_stillman_test(gens, 2, opts=past)


def test_bs_needs_a_trial():
    # zero trials certify nothing, and the cubic is 2-regular
    ring, gens = twisted_cubic(GF(32003), GREVLEX)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="at least one trial"):
            bayer_stillman_test(gens, 2, trials=trials)
