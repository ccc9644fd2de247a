"""Multiplicative monomial orders, realized as packed integer sort keys.

Every order here compares exponent vectors by a list of integer linear
forms, lexicographically: grevlex by degree, then -x_n, ..., -x_1; lex by
x_0, ..., x_n; the elimination order by the degree in its block first; a
weight order by -W.A first, then its tiebreak's forms.  A key packs the
values of those forms into one positive int, one fixed-width field per form
(the first form in the highest bits), each stored with a bias of half its
width.  So comparing keys as ints compares the forms lexicographically,
and keys are additive: key(A + B) == key(A) + key(B) - key(0), which is
multiplicativity, x^A > x^B implying x^(A+C) > x^(B+C).  A product's key
is one addition (``poly.Polynomial.submul``).

The packing has a bound.  A form with largest coefficient c gets a field
of FIELD_BITS + bit_length(c) + 2 bits and holds values v with
-2^(FIELD_BITS + bit_length(c)) <= v < 2^(FIELD_BITS + bit_length(c)), so
every monomial of total degree up to 2^FIELD_BITS fits.  A key within the
bound has the top two bits of every field different, and the sum of two
such keys carries out of no field, so ``in_range`` decides exactly whether
a product key is valid.  An exponent vector past the bound is refused with
``packing_error``, never given a wrong key.

The weight order follows the one-parameter-subgroup convention: x^A > x^B
iff W.A < W.B, i.e. the *smallest* weight wins.  Ties are broken by a
tiebreak order (grevlex by default), since a bare weight functional is only
total in degrees where no two monomials share a weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

__all__ = [
    "OrderSpec", "LEX", "GREVLEX", "eliminate_order", "weight_order",
    "compare", "LT", "EQ", "GT", "FIELD_BITS", "in_range", "packing_error",
]

LT, EQ, GT = -1, 0, 1

FIELD_BITS = 16  # every monomial of total degree up to 2**FIELD_BITS packs

_KINDS = ("lex", "grevlex", "eliminate", "weight")


@dataclass(frozen=True)
class OrderSpec:
    kind: str
    block: int = 0
    weights: tuple[int, ...] = ()
    tiebreak: "OrderSpec | None" = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "eliminate" and self.block < 1:
            raise ValueError("eliminate order needs at least one leading variable")
        if self.kind == "weight":
            if not self.weights:
                raise ValueError("weight order needs a weight vector")
            if self.tiebreak is not None and self.tiebreak.kind == "weight":
                raise ValueError("weight tiebreak must be a plain order")

    def _forms(self, nvars: int) -> list:
        """The integer linear forms (coefficient tuples) whose values,
        compared lexicographically, order exponent vectors of length nvars.
        They have full rank, so equal values mean equal vectors."""
        def unit(i, sign=1):
            return tuple(sign if j == i else 0 for j in range(nvars))

        if self.kind == "lex":
            return [unit(i) for i in range(nvars)]
        # x_0's entry is fixed by the degree and the others
        grevlex = [(1,) * nvars] + [unit(i, -1) for i in range(nvars - 1, 0, -1)]
        if self.kind == "grevlex":
            return grevlex
        if self.kind == "eliminate":
            k = self.block
            if k >= nvars:
                raise ValueError(f"cannot eliminate {k} of {nvars} variables")
            return [(1,) * k + (0,) * (nvars - k)] + grevlex
        # weight
        w = self.weights
        if len(w) != nvars:
            raise ValueError(f"weight vector has {len(w)} entries for {nvars} variables")
        return [tuple(-wi for wi in w)] + (self.tiebreak or GREVLEX)._forms(nvars)

    @lru_cache(maxsize=64)  # rings are made often; the packing is O(nvars^2)
    def key_function(self, nvars: int):
        """Return the packed key callable on exponent vectors of length
        nvars; it raises packing_error for a vector past the bound."""
        forms = self._forms(nvars)
        bounds = [1 << (FIELD_BITS + max(map(abs, form)).bit_length()) for form in forms]
        offset = shift = 0
        columns = [0] * nvars  # key(a) = offset + sum of a[i] * columns[i]
        for form, bound in zip(reversed(forms), reversed(bounds)):
            offset += bound << (shift + 1)  # the bias, 2^(width - 1)
            columns = [col + (c << shift) for col, c in zip(columns, form)]
            shift += bound.bit_length() + 1  # width = log2(bound) + 2
        checks = list(zip(forms, bounds))
        limit = 1 << FIELD_BITS

        def key(a):
            if min(a) < 0 or sum(a) > limit:  # past the degree that always fits
                for form, bound in checks:
                    if not -bound <= sum(map(mul, form, a)) < bound:
                        raise packing_error(self, a)
            return offset + sum(map(mul, a, columns))

        return key

    @property
    def is_well_order(self) -> bool:
        """True when every variable exceeds 1, so division chains terminate
        on inhomogeneous input.  Weight orders are only safe degree by
        degree and therefore require homogeneous input."""
        return self.kind != "weight"

    def __str__(self):
        if self.kind == "lex":
            return "lex"
        if self.kind == "grevlex":
            return "grevlex"
        if self.kind == "eliminate":
            return f"elim:{self.block}"
        ws = ",".join(str(w) for w in self.weights)
        return f"weight:{ws}"


LEX = OrderSpec("lex")
GREVLEX = OrderSpec("grevlex")


def eliminate_order(k: int) -> OrderSpec:
    """Order projecting away the first k variables: total degree in them
    first, ties by grevlex on everything."""
    return OrderSpec("eliminate", block=k)


def weight_order(weights, tiebreak: OrderSpec = GREVLEX) -> OrderSpec:
    return OrderSpec("weight", weights=tuple(int(w) for w in weights), tiebreak=tiebreak)


def in_range(k: int, offset: int) -> bool:
    """Whether k, a sum of two valid keys less the offset key(0), is a
    valid key: the top two bits of every field differ.  The offset has
    exactly the top bit of each field set."""
    return (k ^ k << 1) & offset == offset


def packing_error(order: OrderSpec, a) -> ValueError:
    return ValueError(
        f"exponent vector {tuple(a)} is past the packed {order} key bound "
        f"(every monomial of total degree up to 2^{FIELD_BITS} fits)"
    )


def compare(a, b, order: OrderSpec) -> int:
    """Compare exponent vectors under order; returns GT, EQ or LT."""
    if len(a) != len(b):
        raise ValueError(f"exponent vectors of different lengths: {len(a)} vs {len(b)}")
    key = order.key_function(len(a))
    ka, kb = key(tuple(a)), key(tuple(b))
    if ka == kb:
        return EQ
    return GT if ka > kb else LT
