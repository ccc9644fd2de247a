"""Hilbert series: their one home, for numerators, values and the exact
division by (1-t)^k.

The Hilbert series of S/M, for M a monomial ideal of S = k[x_1, ..., x_n],
is N(t) / (1-t)^n for one polynomial N, the numerator.  It is computed by
splitting on a pivot p, a power of the most shared variable:
N(M) = N(M + (p)) + t^deg(p) N(M : p), which stays fast where
inclusion-exclusion would blow up on many generators (Bigatti, "Computation
of Hilbert-Poincare series", 1997).  The numerator does not depend on the
pivots, so any choice gives the same dict.

A homogeneous ideal and its initial ideal under any monomial order have
the same series, so ``ideals`` and the completion engine in ``modules``
read numerators off leads here, and prove a saturation exact by dividing
one by (1-t)^k.  Importing only ``poly``, this module is open to them all.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import le

from .poly import mono_degree

__all__ = []


def _minimal_monomials(monos):
    """The monomials no other one divides, by ascending degree."""
    out = []
    for m in sorted(set(monos), key=mono_degree):
        for g in out:
            if all(map(le, g, m)):  # g divides m
                break
        else:
            out.append(m)
    return out


def _numerator(monos, cache: dict | None = None) -> dict:
    """Numerator of the Hilbert series of S/(monos) over (1-t)^nvars, as a
    degree -> coefficient dict, for any monomials: duplicates and ones
    another divides are dropped, and their order does not matter.  The
    unit ideal has the numerator {} and the zero ideal {0: 1}.  cache maps
    the sorted minimal tuples met on the way to their numerators; a caller
    that asks about related ideals can keep one cache for all of them."""
    return _split(tuple(sorted(_minimal_monomials(monos))), {} if cache is None else cache)


def _split(gens: tuple, cache: dict) -> dict:
    """_numerator of a sorted tuple of minimal monomials."""
    if not gens:
        return {0: 1}
    out = cache.get(gens)
    if out is not None:
        return out

    exponents = {}  # variable -> its nonzero exponents in gens
    coprime = True
    for m in gens:
        for i, e in enumerate(m):
            if e:
                if i in exponents:
                    coprime = False
                    exponents[i].append(e)
                else:
                    exponents[i] = [e]
    if coprime:  # the product of the (1 - t^deg m)
        out = {0: 1}
        for m in gens:
            d = mono_degree(m)
            nxt = dict(out)
            for e, c in out.items():
                nxt[e + d] = nxt.get(e + d, 0) - c
            out = {e: c for e, c in nxt.items() if c}
        cache[gens] = out
        return out

    v = max(exponents, key=lambda i: (len(exponents[i]), -i))
    # the median exponent halves the exponents left on either side
    power = sorted(exponents[v])[(len(exponents[v]) - 1) // 2]
    pivot = tuple(power if i == v else 0 for i in range(len(gens[0])))
    # S/(gens + pivot) and S/(gens : pivot) glue along multiplication by
    # pivot.  A generator left in the sum that divided pivot would be a
    # power of x_v below the median and divide the generators at the
    # median, so the sum needs no minimalization.
    plus = tuple(sorted([m for m in gens if m[v] < power] + [pivot]))
    colon = tuple(sorted(_minimal_monomials(m[:v] + (max(m[v] - power, 0),) + m[v + 1:]
                                            for m in gens)))
    out = dict(_split(plus, cache))
    for e, c in _split(colon, cache).items():
        out[e + power] = out.get(e + power, 0) + c
    out = {e: c for e, c in out.items() if c}
    cache[gens] = out
    return out


def _series_value(numerator: dict, nvars: int, d: int) -> int:
    """The coefficient of t^d in numerator / (1-t)^nvars."""
    return sum(c * comb(d - e + nvars - 1, nvars - 1) for e, c in numerator.items() if e <= d)


def _series_values(numerator: dict, nvars: int, d_max: int) -> list:
    """Coefficients of t^0..t^d_max in numerator / (1-t)^nvars."""
    return [_series_value(numerator, nvars, d) for d in range(d_max + 1)]


def _exact_quotient(numerator: dict, k: int) -> dict | None:
    """numerator / (1-t)^k, its nonzero coefficients by degree, when that
    quotient is a polynomial, else None.  Dividing by 1-t takes prefix
    sums: the last is the remainder, the value at t = 1."""
    coeffs = [numerator.get(d, 0) for d in range(max(numerator, default=-1) + 1)]
    for _ in range(k):
        coeffs = list(accumulate(coeffs))
        if coeffs and coeffs.pop():
            return None
    return {d: c for d, c in enumerate(coeffs) if c}
