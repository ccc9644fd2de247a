"""The structured ideal constructors."""

import pytest

from groebner import (
    QQ,
    eliminate,
    hilbert_function,
    mayr_meyer,
    membership,
    minimalize_generators,
    random_ideal,
    twisted_cubic,
)


def test_twisted_cubic_generators():
    ring, gens = twisted_cubic()
    w, x, y, z = ring.variables()
    assert gens == [w * w - x * y, w * y - x * z, w * z - y * y]
    assert hilbert_function(gens, 4) == [1, 4, 7, 10, 13]
    elim = eliminate(gens, 1)
    assert len(elim) == 1 and elim[0].total_degree() == 3


def test_mayr_meyer_counts():
    for n in (1, 2, 3):
        ring, gens = mayr_meyer(n)
        assert ring.nvars == 10 * n
        assert len(gens) == 10 * n - 6
        hring, hgens = mayr_meyer(n, homogeneous=True)
        assert hring.nvars == 10 * n + 1
        assert len(hgens) == 10 * n - 6
    with pytest.raises(ValueError):
        mayr_meyer(0)


def test_mayr_meyer_level_one_generators():
    ring, gens = mayr_meyer(1)
    assert ring.nvars == 10
    assert len(gens) == 4
    for i, g in enumerate(gens, start=1):
        assert len(g.terms) == 2
        S = ring.variable("S1")
        F = ring.variable("F1")
        C = ring.variable(f"C{i}_1")
        B = ring.variable(f"B{i}_1")
        assert g == C * S - C * F * B * B


def test_mayr_meyer_homogenized_degrees():
    for n in (1, 2):
        ring, gens = mayr_meyer(n, homogeneous=True)
        assert ring.nvars == 10 * n + 1
        assert ring.names[-1] == "u"
        assert all(g.is_homogeneous() for g in gens)
        assert all(g.total_degree() <= 4 for g in gens)


def test_mayr_meyer_level_one_homogeneous_is_minimal():
    ring, gens = mayr_meyer(1, homogeneous=True)
    minimal = minimalize_generators(gens)
    assert len(minimal) == 4
    assert max(g.total_degree() for g in minimal) == 4


def test_mayr_meyer_tower_keeps_top_flags_minimal():
    # appending the top flag variables to the homogenized tower keeps them
    # in every minimal generating set
    ring, gens = mayr_meyer(1, homogeneous=True)
    S, F = ring.variable("S1"), ring.variable("F1")
    minimal = minimalize_generators([S, F] + gens)
    assert S in minimal and F in minimal


def test_level_one_membership_threshold():
    # reachability for the level-1 relations tops out at square powers: the
    # witness with exponent 2 is a generator, nothing larger is reachable
    ring, gens = mayr_meyer(1)
    S = ring.variable("S1")
    F = ring.variable("F1")
    C = ring.variable("C1_1")
    B = ring.variable("B1_1")
    results = {e: membership(S * C - F * C * B ** e, gens).member for e in (1, 2, 3, 4)}
    assert results == {1: False, 2: True, 3: False, 4: False}
    cert = membership(S * C - F * C * B ** 2, gens)
    assert cert.expand(gens) == S * C - F * C * B ** 2


def test_random_ideal_determinism_and_shape():
    r1, g1 = random_ideal(42, 3, 3, 2)
    r2, g2 = random_ideal(42, 3, 3, 2)
    assert [str(f) for f in g1] == [str(f) for f in g2]
    assert all(f.is_homogeneous() and f.total_degree() == 2 for f in g1)
    r3, g3 = random_ideal(43, 3, 3, 2)
    assert [str(f) for f in g1] != [str(f) for f in g3]
    _, empty = random_ideal(1, 3, 0, 2)
    assert empty == []


def test_random_ideal_over_qq():
    ring, gens = random_ideal(7, 2, 2, 3, field=QQ)
    assert ring.field == QQ
    assert all(g.total_degree() == 3 for g in gens)
