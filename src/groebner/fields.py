"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are plain Python values (Fraction over the rationals, int residues
in [0, p) over a prime field); the field object supplies the arithmetic so
polynomial code stays representation-agnostic.

Division does not reduce on Fractions.  Over QQ, ``integer_form`` writes a
list of coefficients as one rational scale num/den times coprime integers,
and ``cancel`` gives the integer multipliers of a reduction step, so
``modules.module_divide`` runs its steps, and ``Polynomial.submul`` its
merges, in integer arithmetic; only the quotient coefficients and the
remainder terms become Fractions.  A completion's S-elements are formed
from the two integer forms with ``cancel`` too, and handed to the division
in that form.  The row product ``modules._combine`` (transform rows,
certificates, syzygy push-through) takes its factors in the same integer
forms and sums each output column over one common denominator, so each
output term is one Fraction.  A prime field reduces and multiplies its
residues as they are; the merge reads ``modulus`` and reduces each merged
term with one ``% p`` instead of calling these methods.  Every coefficient
a caller sees is still a Fraction over QQ, and everything stays exact.
(Order keys are the other half of the merge's arithmetic: packed ints,
additive up to a bound, see ``orders``.)
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = ["Field", "RationalField", "PrimeField", "QQ", "GF"]

MAX_MODULUS = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Base interface for exact scalar arithmetic."""

    kind: str = ""
    modulus: int | None = None

    def normalize(self, a):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def integer_form(self, coeffs):
        """The coefficients a division reduces on: None, meaning the
        coefficients as they are (a prime field's residues cannot grow), or
        (num, den, integers, bits) with coeffs[k] = num/den * integers[k]."""
        return None

    def cancel(self, t, e):
        """(a, b) with a > 0 and a*t == b*e: the reduction step
        a*g - b*x^q*f cancels a lead t of g against the lead e of f.  A
        prime field takes a = 1 and b = t/e."""
        return 1, (t if e == 1 else self.div(t, e))

    @property
    def zero(self):
        return self.normalize(0)

    @property
    def one(self):
        return self.normalize(1)

    def random_scalar(self, rng):
        raise NotImplementedError


class RationalField(Field):
    """The rationals; Fraction keeps lowest terms with positive denominator."""

    kind = "exact-rationals"

    def normalize(self, a):
        if isinstance(a, Fraction):
            return a
        if isinstance(a, int):
            return Fraction(a)
        raise TypeError(f"cannot coerce {a!r} into QQ")

    # the operators themselves: they serve Fractions, and the integers of
    # integer_form, without a Python frame per call
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    div = staticmethod(Fraction)  # Fraction(a, b) is a / b for any rationals a, b

    def integer_form(self, coeffs):
        """(num, den, integers, bits): coeffs[k] = num/den * integers[k]
        with the integers coprime and num, den > 0 (one for no
        coefficients); bits is the largest integer's bit length.  Takes
        Fractions or ints."""
        coeffs = list(coeffs)
        ints = [c.numerator for c in coeffs]
        dens = [c.denominator for c in coeffs]
        den = lcm(*dens)
        if den != 1:
            ints = [n * (den // d) for n, d in zip(ints, dens)]
        num = gcd(*ints) or 1
        if num != 1:
            ints = [x // num for x in ints]
        return num, den, ints, max(map(int.bit_length, ints), default=0)

    def cancel(self, t, e):
        """(a, b) = (e/h, t/h) for integers t and e, where h = gcd(t, e)
        carries the sign of e."""
        h = gcd(t, e)
        if e < 0:
            h = -h
        return e // h, t // h

    def random_scalar(self, rng):
        # small integers keep certificate arithmetic readable
        return Fraction(rng.randint(-9, 9))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """F_p for a prime p < 2^31; residues stored in [0, p)."""

    kind = "prime-field"

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        if p >= MAX_MODULUS:
            raise ValueError(f"modulus must be < 2^31, got {p}")
        self.modulus = p

    def normalize(self, a):
        if isinstance(a, int):
            return a % self.modulus
        if isinstance(a, Fraction):
            return self.div(a.numerator % self.modulus, a.denominator % self.modulus)
        raise TypeError(f"cannot coerce {a!r} into F_{self.modulus}")

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def inv(self, a):
        p = self.modulus
        if a % p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{p}")
        return pow(a, -1, p)

    def div(self, a, b):
        return a % self.modulus if b == 1 else self.mul(a, self.inv(b))

    def random_scalar(self, rng):
        return rng.randrange(min(self.modulus, 2**20))

    def __repr__(self):
        return f"F_{self.modulus}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Fp", self.modulus))


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)
