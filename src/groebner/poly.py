"""Sparse multivariate polynomials over an exact field.

A polynomial is an immutable tuple of (coeff, monomial) terms kept strictly
descending under the ring's monomial order.  Monomials are dense exponent
tuples, one slot per ring variable.

Order keys are packed ints (``orders``): comparing them as ints compares
monomials, and they are additive, key(A + B) == key(A) + key(B) - key(0),
up to a bound past which a monomial is refused rather than misordered.  The
ring caches, per monomial it has seen, its order key (``_key_cache``) and
its divisibility mask (``_mask_cache``, see ``mono_mask``); both caches live
and die with the ring.  A polynomial keeps the keys of its terms once a
merge has needed them.  ``Polynomial.submul`` is the reduction step that
every division in the package runs through: one merge of self with the
scaled product, driven by the product's terms, whose keys are additions.
``CoordinateChange`` maps polynomials through a linear change of the
variables and back.
"""

from __future__ import annotations

import dataclasses
from operator import add, le, sub
from typing import Iterable, NamedTuple

from .fields import Field
from .orders import GREVLEX, OrderSpec, in_range, packing_error

__all__ = [
    "Term", "Monomial", "PolynomialRing", "Polynomial", "CoordinateChange",
    "last_variable_change",
    "mono_mul", "mono_div", "mono_lcm", "mono_divides", "mono_degree", "mono_mask",
]

Monomial = tuple


class Term(NamedTuple):
    coeff: object
    monomial: Monomial


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b as a monomial, or None when b does not divide a."""
    if all(map(le, b, a)):
        return tuple(map(sub, a, b))
    return None


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_divides(b: Monomial, a: Monomial) -> bool:
    return all(map(le, b, a))


def mono_degree(a: Monomial) -> int:
    return sum(a)


MASK_BITS = 64


def mono_mask(a: Monomial) -> int:
    """Divisibility mask of a monomial (a short exponent vector, Bachmann
    and Schoenemann 1998).  Each of the n variables owns
    w = max(1, MASK_BITS // n) bits, and the first min(e, w) of them are set
    for exponent e.

    If b divides a then mono_mask(b) & ~mono_mask(a) == 0, so a nonzero
    value proves that b does not divide a; the converse needs mono_div.
    The mask of lcm(a, b) is mono_mask(a) | mono_mask(b), and a and b are
    coprime exactly when their masks share no bit.
    """
    width = max(1, MASK_BITS // len(a))
    mask = 0
    for shift, e in zip(range(0, width * len(a), width), a):
        if e:
            mask |= ((1 << min(e, width)) - 1) << shift
    return mask


class PolynomialRing:
    """k[x_0, ..., x_n] with a fixed multiplicative monomial order."""

    __slots__ = (
        "field", "names", "order", "nvars", "_key", "_offset", "_index", "_key_cache",
        "_mask_cache",
    )

    def __init__(self, field: Field, names, order: OrderSpec = GREVLEX):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if not names:
            raise ValueError("a polynomial ring needs at least one variable")
        self.field = field
        self.names = names
        self.order = order
        self.nvars = len(names)
        raw_key = order.key_function(self.nvars)  # validates weight length
        cache = {}

        def cached_key(mono, _raw=raw_key, _cache=cache):
            k = _cache.get(mono)
            if k is None:
                k = _cache[mono] = _raw(mono)
            return k

        self._key = cached_key
        self._key_cache = cache
        self._offset = cached_key((0,) * self.nvars)
        self._mask_cache = {}
        self._index = {n: i for i, n in enumerate(names)}

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, PolynomialRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.order))

    def __repr__(self):
        return f"{self.field}[{','.join(self.names)}; {self.order}]"

    # -- construction ------------------------------------------------------
    def monomial_key(self, mono: Monomial):
        return self._key(mono)

    def monomial_mask(self, mono: Monomial) -> int:
        """mono_mask(mono), cached per ring."""
        mask = self._mask_cache.get(mono)
        if mask is None:
            mask = self._mask_cache[mono] = mono_mask(mono)
        return mask

    def polynomial(self, pairs: Iterable) -> "Polynomial":
        """Build a polynomial from (coeff, monomial) pairs, combining equal
        monomials and dropping zeros."""
        acc = {}
        field = self.field
        for coeff, mono in pairs:
            mono = tuple(mono)
            if len(mono) != self.nvars:
                raise ValueError(f"monomial {mono} has wrong arity for {self!r}")
            c = field.normalize(coeff)
            if mono in acc:
                acc[mono] = field.add(acc[mono], c)
            else:
                acc[mono] = c
        terms = tuple(
            Term(c, m)
            for m, c in sorted(acc.items(), key=lambda mc: self._key(mc[0]), reverse=True)
            if c != 0
        )
        return Polynomial(self, terms)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field.normalize(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, (Term(c, (0,) * self.nvars),))

    def variable(self, which) -> "Polynomial":
        i = self._index[which] if isinstance(which, str) else which
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, (Term(self.field.one, mono),))

    def monomial(self, mono: Monomial, coeff=1) -> "Polynomial":
        return self.polynomial([(coeff, mono)])

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    # -- derived rings -----------------------------------------------------
    def with_order(self, order: OrderSpec) -> "PolynomialRing":
        if order == self.order:
            return self
        return PolynomialRing(self.field, self.names, order)

    def append_variable(self, name: str, order: OrderSpec | None = None) -> "PolynomialRing":
        if name in self._index:
            raise ValueError(f"variable {name!r} already present")
        return PolynomialRing(self.field, self.names + (name,), order or self.order)


class Polynomial:
    """Immutable sparse polynomial; terms strictly descending in ring order.
    The order keys of its terms are kept once a merge has read them; a
    caller that knows them may pass them in."""

    __slots__ = ("ring", "terms", "_keys")

    def __init__(self, ring: PolynomialRing, terms: tuple, keys=None):
        self.ring = ring
        self.terms = terms
        self._keys = keys

    def term_keys(self) -> list:
        """The order key of each term, computed on first request and kept."""
        keys = self._keys
        if keys is None:
            cache, key = self.ring._key_cache, self.ring._key
            # keys are positive ints, so a cache hit is truthy
            keys = self._keys = [cache.get(m) or key(m) for _, m in self.terms]
        return keys

    # -- basic queries -----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def lead_term(self) -> Term:
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        return self.terms[0]

    @property
    def lead_monomial(self) -> Monomial:
        return self.lead_term.monomial

    @property
    def lead_coeff(self):
        return self.lead_term.coeff

    def total_degree(self) -> int:
        """Max total degree of any term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(t.monomial) for t in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = mono_degree(self.terms[0].monomial)
        return all(mono_degree(t.monomial) == d for t in self.terms)

    # -- arithmetic ---------------------------------------------------------
    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        # linear merge of two descending term lists
        field = self.ring.field
        key = self.ring._key
        out = []
        i, j = 0, 0
        a, b = self.terms, other.terms
        while i < len(a) and j < len(b):
            ma, mb = a[i].monomial, b[j].monomial
            if ma == mb:
                c = field.add(a[i].coeff, b[j].coeff)
                if c != 0:
                    out.append(Term(c, ma))
                i += 1
                j += 1
            elif key(ma) > key(mb):
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Polynomial(self.ring, tuple(out))

    def __neg__(self):
        if not self.terms:
            return self
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple(Term(neg(t.coeff), t.monomial) for t in self.terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scalar_mul(other)
        self._check_ring(other)
        # a one-term factor keeps the other's term order (multiplicativity)
        if len(other.terms) == 1:
            return self.monomial_mul(*other.terms[0])
        if len(self.terms) == 1:
            return other.monomial_mul(*self.terms[0])
        field = self.ring.field
        acc = {}
        for ta in self.terms:
            for tb in other.terms:
                m = mono_mul(ta.monomial, tb.monomial)
                c = field.mul(ta.coeff, tb.coeff)
                if m in acc:
                    acc[m] = field.add(acc[m], c)
                else:
                    acc[m] = c
        key = self.ring._key
        terms = tuple(
            Term(c, m)
            for m, c in sorted(acc.items(), key=lambda mc: key(mc[0]), reverse=True)
            if c != 0
        )
        return Polynomial(self.ring, terms)

    def __rmul__(self, other):
        return self.scalar_mul(other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scalar_mul(self, c) -> "Polynomial":
        field = self.ring.field
        c = field.normalize(c)
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Polynomial(
            self.ring, tuple(Term(field.mul(c, t.coeff), t.monomial) for t in self.terms)
        )

    def monomial_mul(self, coeff, mono: Monomial) -> "Polynomial":
        """Multiply by coeff * x^mono; term order is preserved by
        multiplicativity, so no re-sort happens.  A coefficient one only
        shifts the monomials."""
        field = self.ring.field
        coeff = field.normalize(coeff)
        if coeff == 0:
            return self.ring.zero()
        new = tuple.__new__
        if coeff == 1:
            terms = [new(Term, (c, mono_mul(m, mono))) for c, m in self.terms]
        else:
            mul = field.mul
            terms = [new(Term, (mul(coeff, c), mono_mul(m, mono))) for c, m in self.terms]
        return Polynomial(self.ring, tuple(terms))

    def submul(self, coeff, mono: Monomial, f: "Polynomial", scale=1, /) -> "Polynomial":
        """scale * self - coeff * x^mono * f as a single merge; the
        reduction step.

        The loop is driven by f's terms.  A product term's key is f's term
        key plus key(x^mono) - key(0), from the key lists the operands keep
        (term_keys); self's terms above it are copied through in one slice
        with their keys, and the product's monomial is built only when the
        term is new, after its key is checked against the packing bound
        (orders.in_range).  -coeff is formed once, so a product term costs
        one multiplication (plus one addition where it meets a term of
        self), reduced mod p over a prime field without a field method
        call.  The result keeps its key list for the next step.  A scale
        other than one multiplies self's terms first: over QQ a division
        step merges integer forms as a*g - b*x^q*f (fields.Field.cancel),
        with a as the scale.
        """
        ring = self.ring
        p = ring.field.modulus
        new = tuple.__new__  # builds a Term without its constructor's Python frame
        a = self.terms
        if scale != 1:
            a = [new(Term, (scale * c % p if p else scale * c, m)) for c, m in a]
        akeys = [*self.term_keys(), -1]  # product keys are >= 0: -1 ends every run
        off = ring._offset
        shift = ring._key(mono) - off
        minus = -coeff % p if p else -coeff
        out, keys = [], []
        push, push_key = out.append, keys.append
        i = 0
        ka = akeys[0]
        for (c, m), kb in zip(f.terms, f.term_keys()):
            kb += shift
            if ka > kb:
                j = i + 1
                while akeys[j] > kb:
                    j += 1
                out += a[i:j]
                keys += akeys[i:j]
                i = j
                ka = akeys[i]
            if ka == kb:
                s = a[i][0] + minus * c
                if p:
                    s %= p
                if s:
                    push(new(Term, (s, a[i][1])))
                    push_key(kb)
                i += 1
                ka = akeys[i]
            else:
                mb = tuple(map(add, m, mono))
                if not in_range(kb, off):
                    raise packing_error(ring.order, mb)
                push(new(Term, (minus * c % p if p else minus * c, mb)))
                push_key(kb)
        out += a[i:]
        keys += akeys[i:-1]
        return Polynomial(ring, tuple(out), keys)

    def monic(self) -> "Polynomial":
        if not self.terms:
            raise ValueError("cannot normalize the zero polynomial")
        lc = self.lead_coeff
        if lc == self.ring.field.one:
            return self
        return self.scalar_mul(self.ring.field.inv(lc))

    # -- conversions --------------------------------------------------------
    def reorder(self, ring: PolynomialRing) -> "Polynomial":
        """Re-sort into another ring over the same field and variables."""
        if ring.field != self.ring.field or ring.names != self.ring.names:
            raise ValueError("reorder requires the same field and variables")
        return ring.polynomial((t.coeff, t.monomial) for t in self.terms)

    # -- identity ------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        return f"<{self}>"

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        parts = []
        for t in self.terms:
            c = t.coeff
            # symmetric lift keeps prime-field output readable
            if field.kind == "prime-field" and c > field.modulus // 2:
                c = c - field.modulus
            negative = c < 0
            mag = -c if negative else c
            mono = "*".join(
                n if e == 1 else f"{n}^{e}"
                for n, e in zip(self.ring.names, t.monomial)
                if e
            )
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)


@dataclasses.dataclass
class CoordinateChange:
    """The linear change x_i -> sum_j matrix[i][j] x_j and its inverse.

    Each direction expands monomials through one table {monomial: {monomial:
    coeff}} that every polynomial it maps shares: the image of m is the
    image of m / x_i times the image of x_i, for x_i the first variable of m,
    so each monomial is expanded once per change.  A polynomial's image is
    the sum of its coefficients times the images of its monomials.
    """

    ring: PolynomialRing
    matrix: list
    inverse: list
    _forward: dict = dataclasses.field(init=False, repr=False, compare=False)
    _backward: dict = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        one = (0,) * self.ring.nvars
        self._forward = {one: {one: self.ring.field.one}}
        self._backward = {one: {one: self.ring.field.one}}

    def apply(self, f: Polynomial) -> Polynomial:
        return self._expand(f, self.matrix, self._forward)

    def unapply(self, f: Polynomial) -> Polynomial:
        return self._expand(f, self.inverse, self._backward)

    def _expand(self, f, mat, table):
        add, mul = self.ring.field.add, self.ring.field.mul
        acc = {}
        for t in f.terms:
            for m, c in self._image(t.monomial, mat, table).items():
                c = mul(t.coeff, c)
                acc[m] = add(acc[m], c) if m in acc else c
        return self.ring.polynomial((c, m) for m, c in acc.items())

    def _image(self, mono, mat, table):
        # strip first variables down to an expanded monomial, then multiply
        # the stripped forms back in, recording every step
        steps = []
        while mono not in table:
            i = next(k for k, e in enumerate(mono) if e)
            steps.append((mono, i))
            mono = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
        img = table[mono]
        add, mul = self.ring.field.add, self.ring.field.mul
        for mono, i in reversed(steps):
            nxt = {}
            for m, c in img.items():
                for j, a in enumerate(mat[i]):
                    if a != 0:
                        n = m[:j] + (m[j] + 1,) + m[j + 1:]
                        nxt[n] = add(nxt[n], mul(c, a)) if n in nxt else mul(c, a)
            img = table[mono] = {m: c for m, c in nxt.items() if c != 0}
        return img


def last_variable_change(ring, k: int, coeffs) -> CoordinateChange:
    """x_{k-1} -> x_{k-1} + sum_i coeffs[i] x_i, the identity elsewhere; its
    inverse subtracts the same combination."""
    n, field = ring.nvars, ring.field
    matrix = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    inverse = [list(row) for row in matrix]
    matrix[k - 1][:k - 1] = coeffs
    inverse[k - 1][:k - 1] = [field.neg(a) for a in coeffs]
    return CoordinateChange(ring, matrix, inverse)
