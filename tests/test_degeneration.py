"""Weight-vector degenerations and the flatness proxy."""

import json
import time

import pytest

from groebner import (
    GREVLEX,
    QQ,
    PolynomialRing,
    buchberger,
    family_from_generators,
    flat_family,
    flatness_check,
    initial_form,
    initial_ideal,
    is_groebner,
    weight_order,
)
from groebner.modules import BuchbergerOptions, CapInterrupted, DeadlineExceeded

W_CUBIC = (-16, -4, -1, 0)


def staged_families(gens, weight_vectors):
    """Degenerate in stages: each stage's t=0 fiber is the next input."""
    stages = []
    for W in weight_vectors:
        stages.append(flat_family(gens, W))
        gens = [g for g in stages[-1].generators_at_zero() if not g.is_zero]
    return stages


def test_initial_form_examples(cubic_lex):
    ring, (f1, f2, f3) = cubic_lex
    w, x, y, z = ring.variables()
    assert initial_form(f1, W_CUBIC) == w * w
    assert initial_form(f3, W_CUBIC) == w * z
    assert initial_form(f1, (0, 0, 0, 0)) == f1
    mono = ring.monomial((1, 2, 0, 1), 3)
    assert initial_form(mono, W_CUBIC) == mono
    with pytest.raises(ValueError):
        initial_form(ring.zero(), W_CUBIC)


def test_initial_form_idempotent(cubic_lex):
    ring, gens = cubic_lex
    for f in gens:
        once = initial_form(f, W_CUBIC)
        assert initial_form(once, W_CUBIC) == once


def test_flat_family_reproduces_the_t_exponents(cubic_lex):
    ring, gens = cubic_lex
    fam = flat_family(gens, W_CUBIC)
    by_poly = {str(m.poly): m.t_exponents for m in fam.members}
    assert by_poly == {
        "w^2 - x*y": (0, 27),
        "w*y - x*z": (0, 13),
        "w*z - y^2": (0, 14),
        "x*z^2 - y^3": (0, 1),
    }
    for m in fam.members:
        assert min(m.t_exponents) == 0
        assert all(e >= 0 for e in m.t_exponents)


def test_family_members_recover_both_fibers(cubic_lex):
    ring, gens = cubic_lex
    fam = flat_family(gens, W_CUBIC)
    t1 = fam.generators_at_one()
    assert is_groebner([f.reorder(t1[0].ring) for f in t1])
    t0 = fam.generators_at_zero()
    assert {str(f) for f in t0} == {"w^2", "w*y", "w*z", "x*z^2"}


def test_flatness_check_pass_and_fail(cubic_lex):
    ring, gens = cubic_lex
    fam = flat_family(gens, W_CUBIC)
    report = flatness_check(fam)
    assert report.passed and report.first_mismatch_degree is None

    truncated = family_from_generators(gens, W_CUBIC)
    report2 = flatness_check(truncated)
    assert not report2.passed
    assert report2.first_mismatch_degree == 3
    # both Hilbert functions complete under the caller's options
    with pytest.raises(DeadlineExceeded):
        flatness_check(fam, BuchbergerOptions(deadline=time.monotonic() - 1.0))


def test_flatness_of_monomial_ideal_is_constant(ring_qq_lex):
    w, x, y, z = ring_qq_lex.variables()
    fam = flat_family([w * x, y * z], W_CUBIC)
    for m in fam.members:
        assert all(e == 0 for e in m.t_exponents)
    assert flatness_check(fam).passed


def test_specializing_at_one_is_fixed_point(cubic_lex):
    ring, gens = cubic_lex
    fam = flat_family(gens, W_CUBIC)
    t1 = fam.generators_at_one()
    gb = buchberger(t1)
    assert gb.elements == t1


def test_weight_initial_ideal_matches_family_zero_fiber(cubic_lex):
    ring, gens = cubic_lex
    fam = flat_family(gens, W_CUBIC)
    ini = initial_ideal(gens, order=weight_order(W_CUBIC))
    zero_fiber_leads = {f.lead_monomial for f in fam.generators_at_zero()}
    assert set(ini.gens) == zero_fiber_leads


def test_family_serialization_round_trip(cubic_lex):
    ring, gens = cubic_lex
    fam = flat_family(gens, W_CUBIC)
    blob = json.loads(fam.to_json())
    assert blob["weights"] == list(W_CUBIC)
    assert len(blob["generators"]) == 4
    g1 = blob["generators"][0]
    assert g1[0]["t_exp"] == 0 and g1[1]["t_exp"] == 27


def test_staged_degeneration_runs(cubic_lex):
    ring, gens = cubic_lex
    stages = staged_families(gens, [(-1, 0, 0, 0), (-1, -1, 0, 0)])
    assert len(stages) == 2
    for fam in stages:
        assert flatness_check(fam).passed


def test_flat_family_under_a_degree_cap_raises(cubic_lex):
    ring, gens = cubic_lex
    with pytest.raises(CapInterrupted):
        flat_family(gens, W_CUBIC, opts=BuchbergerOptions(degree_cap=1))


def test_rejects_inhomogeneous_weights_input():
    ring = PolynomialRing(QQ, ["x", "y"], GREVLEX)
    x, y = ring.variables()
    with pytest.raises(ValueError):
        flat_family([x * x + y], (-1, 0))
    with pytest.raises(ValueError):
        initial_form(x, (-1,))
