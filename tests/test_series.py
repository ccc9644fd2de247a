"""Hilbert series numerators, their values and their exact division by
(1-t)^k, checked against brute-force counts of standard monomials."""

import random

import pytest

from groebner.oracle import monomials_of_degree
from groebner.series import _exact_quotient, _numerator, _product_numerator, _series_values


def _standard_count(monos, nvars, d):
    """dim (S/(monos))_d by counting the monomials no generator divides."""
    return sum(1 for m in monomials_of_degree(nvars, d)
               if not any(all(a <= b for a, b in zip(g, m)) for g in monos))


def _seeded_ideal(seed, nvars):
    """A few monomials of degree <= 4, with a duplicate and a multiple of
    one of them, so the list is not minimal."""
    rng = random.Random(seed)
    monos = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 5))]
    monos = [m for m in monos if any(m)] or [(1,) + (0,) * (nvars - 1)]
    first = monos[0]
    monos += [first, tuple(e + rng.randint(0, 2) for e in first)]
    return monos


def _pure_powers(nvars, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randint(1, 3) if i == j else 0 for j in range(nvars)) for i in range(count)]


def _times_one_minus_t(poly, k):
    """poly * (1-t)^k, as a dict of its nonzero coefficients."""
    for _ in range(k):
        out = dict(poly)
        for e, c in poly.items():
            out[e + 1] = out.get(e + 1, 0) - c
        poly = {e: c for e, c in out.items() if c}
    return poly


CASES = (
    [pytest.param(nvars, _seeded_ideal(seed, nvars), id=f"seeded-{nvars}-{seed}")
     for nvars in range(1, 5) for seed in range(6)]
    + [pytest.param(nvars, _pure_powers(nvars, count, nvars), id=f"powers-{nvars}-{count}")
       for nvars in range(1, 5) for count in range(1, nvars + 1)]
    + [pytest.param(nvars, [(0,) * nvars, (1,) * nvars], id=f"unit-{nvars}") for nvars in range(1, 5)]
    + [pytest.param(nvars, [], id=f"zero-{nvars}") for nvars in range(1, 5)]
)


@pytest.mark.parametrize("nvars,monos", CASES)
def test_the_numerator_counts_the_standard_monomials(nvars, monos):
    values = _series_values(_numerator(monos), nvars, 8)
    assert values == [_standard_count(monos, nvars, d) for d in range(9)]


@pytest.mark.parametrize("nvars,monos", CASES)
def test_the_numerator_does_not_depend_on_the_input_order(nvars, monos):
    want = _numerator(monos)
    for seed in range(3):
        shuffled = list(monos)
        random.Random(seed).shuffle(shuffled)
        assert _numerator(iter(shuffled)) == want
        assert _numerator(shuffled, {}) == want
    cache = {}
    assert _numerator(reversed(monos), cache) == want
    assert _numerator(monos, cache) == want  # read back through the cache


def test_the_unit_and_zero_ideals():
    assert _numerator([(0, 0, 0)]) == {}
    assert _numerator([(0, 0), (2, 1)]) == {}
    assert _numerator([]) == {0: 1}


def test_pure_powers_divide_by_one_minus_t_once_per_variable_they_miss():
    # S/(x_1^a_1, ..., x_m^a_m) has dimension n - m: (1-t)^m divides its
    # numerator prod (1 - t^a_i), and (1-t)^(m+1) does not
    for nvars in range(1, 5):
        for count in range(1, nvars + 1):
            numerator = _numerator(_pure_powers(nvars, count, count))
            for k in range(1, count + 1):
                assert _exact_quotient(numerator, k) is not None
            assert _exact_quotient(numerator, count + 1) is None


@pytest.mark.parametrize("nvars", range(1, 5))
def test_the_product_is_the_numerator_of_coprime_pure_powers(nvars):
    # prod (1 - t^d_i) is the numerator of S/(x_1^d_1, ..., x_m^d_m), and it
    # counts that quotient's standard monomials
    for count in range(0, nvars + 1):
        for seed in range(4):
            monos = _pure_powers(nvars, count, seed)
            degrees = [sum(m) for m in monos]
            product = _product_numerator(iter(degrees))
            assert product == _numerator(monos), (count, seed)
            assert _series_values(product, nvars, 8) == [
                _standard_count(monos, nvars, d) for d in range(9)]
            assert product == _product_numerator(reversed(degrees))
    assert _product_numerator([]) == {0: 1}
    assert _product_numerator([1, 1]) == {0: 1, 1: -2, 2: 1}
    assert _product_numerator([2, 0]) == {}


@pytest.mark.parametrize("n", range(1, 5))
def test_an_exact_division_gives_back_its_input(n):
    rng = random.Random(n)
    for k in range(1, n + 1):
        for _ in range(20):
            quotient = {e: rng.randint(-4, 4) for e in range(rng.randint(0, 5))}
            quotient = {e: c for e, c in quotient.items() if c} or {0: 1}
            numerator = _times_one_minus_t(quotient, k)
            assert _exact_quotient(numerator, k) == quotient
            for j in range(k):
                got = _exact_quotient(numerator, j)
                assert _times_one_minus_t(got, j) == numerator


@pytest.mark.parametrize("n", range(1, 5))
def test_an_inexact_division_returns_none(n):
    rng = random.Random(100 + n)
    for k in range(1, n + 1):
        for _ in range(20):
            # a quotient with q(1) != 0 times (1-t)^(k-1): exactly k-1 factors
            quotient = {e: rng.randint(-4, 4) for e in range(rng.randint(0, 5))}
            quotient = {e: c for e, c in quotient.items() if c}
            if sum(quotient.values()) == 0:
                quotient[0] = quotient.get(0, 0) + 1
            numerator = _times_one_minus_t(quotient, k - 1)
            assert _exact_quotient(numerator, k) is None
            assert _exact_quotient(numerator, k - 1) == {e: c for e, c in quotient.items() if c}
    # numerators of degree below k that are not zero
    assert _exact_quotient({0: 1}, 1) is None
    assert _exact_quotient({0: 1, 1: -1}, 2) is None
    assert _exact_quotient({2: 1}, n) is None


@pytest.mark.parametrize("k", range(0, 5))
def test_the_zero_numerator_divides_to_zero(k):
    assert _exact_quotient({}, k) == {}
