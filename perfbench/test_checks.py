"""Each independent check accepts the program's true output and rejects a
deliberately corrupted one; two traced runs give identical counts.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import algebra as A  # noqa: E402
import checks as C  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

import groebner as G  # noqa: E402

F = G.GF(W.PRIME)


def small_ideal(field=F, shape=(3, 3, 2), seed=7):
    ring, gens = G.random_ideal(seed, *shape, field=field)
    return W.Ideal(gens)


def test_basis_check_rejects_a_dropped_element():
    I = small_ideal()
    gb = G.buchberger(I.gens)
    d_max = W.top_degree(gb.elements) + 1
    assert W.basis_checks(gb, I, d_max) == []
    dropped = SimpleNamespace(elements=gb.elements[:-1], transform=gb.transform[:-1],
                              generators=gb.generators, ring=gb.ring)
    assert W.basis_checks(dropped, I, d_max)


def test_basis_check_rejects_an_unreduced_element():
    I = small_ideal()
    gb = G.buchberger(I.gens)
    elems = [A.as_dict(f) for f in gb.elements]
    key = A.order_key(gb.ring.order, gb.ring.nvars)
    assert C.check_reduced_basis(elems, key)[0] == []
    elems[1] = A.combine([{(0,) * 3: 1}, {(0,) * 3: 1}], [elems[1], elems[0]], I.ar)
    assert C.check_reduced_basis(elems, key)[0]


def test_hilbert_and_elimination_checks_reject_wrong_values():
    I = small_ideal()
    values = G.hilbert_function(I.gens, 6)
    assert C.check_hilbert_values(values, I.oracle) == []
    assert C.check_hilbert_values(values[:3] + [values[3] + 1] + values[4:], I.oracle)
    elim = G.eliminate(I.gens, 1)
    key = A.order_key(elim[0].ring.order, 3)
    leads = [max(A.as_dict(f), key=key) for f in elim]
    assert C.check_standard_counts(leads, I.oracle, 6, first_kept=1) == []
    assert C.check_standard_counts(leads[:-1], I.oracle, 6, first_kept=1)


def test_resolution_check_rejects_a_changed_betti_number():
    I = small_ideal(shape=(4, 3, 2))
    res = G.free_resolution(I.gens)
    steps = W.steps_of(res)
    table = dict(res.betti().entries)
    assert C.check_resolution(steps, table, I.oracle, I.ar, G.regularity(res) + 2) == []
    changed = dict(table)
    key = next(iter(changed))
    changed[key] += 1
    assert C.check_resolution(steps, changed, I.oracle, I.ar, G.regularity(res) + 2)


def test_resolution_check_rejects_maps_that_do_not_compose():
    I = small_ideal(shape=(4, 3, 2))
    res = G.free_resolution(I.gens)
    steps = W.steps_of(res)
    table = dict(res.betti().entries)
    bad = [list(s) for s in steps]
    bad[1][0] = [A.combine([{(0,) * 4: 2}], [c], I.ar) if k == 0 else c
                 for k, c in enumerate(bad[1][0])]
    assert C.check_resolution(bad, table, I.oracle, I.ar, 3)


def test_certificate_check_rejects_an_altered_coefficient():
    I = small_ideal(field=G.QQ, shape=(3, 3, 2))
    mults = [{m: G.QQ.normalize(k + 1) for m in A.monomials(3, 1)} for k in range(3)]
    g = A.combine(mults, I.dicts, I.ar)
    gpoly = I.ring.polynomial((c, m) for m, c in g.items())
    cert = G.membership(gpoly, I.gens)
    coeffs = [A.as_dict(a) for a in cert.coefficients]
    truth = I.oracle.contains(g)
    assert truth is True
    assert C.check_certificate(g, cert.member, coeffs, I.dicts, truth, I.ar) == []
    altered = [dict(a) for a in coeffs]
    m = next(iter(altered[0]))
    altered[0][m] += 1
    assert C.check_certificate(g, cert.member, altered, I.dicts, truth, I.ar)
    assert C.check_certificate(g, False, (), I.dicts, truth, I.ar)


def test_syzygy_check_rejects_missing_or_wrong_syzygies():
    I = small_ideal(field=G.QQ, shape=(3, 3, 2))
    syz = [[A.as_dict(c) for c in s.comps] for s in G.syzygies(I.gens)]
    assert C.check_syzygies(syz, I.dicts, I.oracle, I.ar, 4) == []
    degs = [max(A.degree(m) for c in v for m in c) + 2 for v in syz]
    assert C.check_syzygies([v for v, d in zip(syz, degs) if d > min(degs)],
                            I.dicts, I.oracle, I.ar, 4)
    wrong = [list(s) for s in syz]
    wrong[0][0] = A.combine([{(0, 0, 0): 2}], [wrong[0][0]], I.ar)
    assert C.check_syzygies(wrong, I.dicts, I.oracle, I.ar, 4)


def test_tower_check_rejects_a_binomial_across_classes():
    ring, gens = G.mayr_meyer(1, homogeneous=True, field=F)
    tower = W.Ideal(gens)
    moves = A.binomial_moves(tower.dicts)
    gb = G.buchberger(gens, degree_cap=5)
    elems = [A.as_dict(f) for f in gb.elements]
    assert C.check_tower_basis(elems, moves, tower.ar, 5) == []
    a = next(iter(elems[0]))
    b = next(m for f in elems[1:] for m in f
             if A.degree(m) == A.degree(a) and A.walk_joins(a, m, moves) is False)
    crossed = {a: 1, b: tower.ar.neg(1)}
    assert C.check_tower_basis(elems + [crossed], moves, tower.ar, 5)


def test_walk_decides_the_level_one_threshold():
    ring, gens = G.mayr_meyer(1, field=G.QQ)
    moves = A.binomial_moves([A.as_dict(g) for g in gens])
    idx = {n: k for k, n in enumerate(ring.names)}
    verdicts = {}
    for e in range(1, 5):
        a = tuple(1 if n in ("S1", "C1_1") else 0 for n in ring.names)
        b = list((1 if n in ("F1", "C1_1") else 0) for n in ring.names)
        b[idx["B1_1"]] = e
        verdicts[e] = A.walk_joins(a, tuple(b), moves)
    assert verdicts == {1: False, 2: True, 3: False, 4: False}


def test_regularity_and_defect_checks():
    assert C.check_regularity_test("regular", "regular") == []
    assert C.check_regularity_test("not-regular", "regular")
    assert C.check_sat_defect({2: 1, 3: 2}, 3, 4, 4) == []
    assert C.check_sat_defect({2: -1}, -1, 4, 4)
    assert C.check_sat_defect({2: 100}, 100, 2, 4)


def traced_counts():
    run.fresh_package()
    tracer = tracing.Tracer()
    tracer.install()
    pkg = sys.modules["groebner"]
    ring, gens = pkg.twisted_cubic(pkg.GF(W.PRIME), pkg.GREVLEX)
    pkg.free_resolution(gens)
    pkg.membership(gens[0] * gens[1], gens)
    m = tracer.metrics()
    return {k: v for k, v in m.items() if not k.endswith("_s") and k != "poly.submul.ns_per_term"}


def test_traced_counts_repeat_exactly():
    first, second = traced_counts(), traced_counts()
    assert first == second
    assert first["poly.submul.calls"] > 0
    assert first["modules.minimalize_generators.calls"] > 0
    assert first["modules.spair.reductions"] > 0
