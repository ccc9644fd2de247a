"""Constructors for structured test ideals.

The binomial tower here simulates a counter machine whose reachable-word
threshold doubles exponentially with the level, which is what makes its
bases and resolutions the standard worst-case stress test.  Level n uses
10n variables and 10n - 6 generators; the homogeneous variant appends one
homogenizer.  Level 1 is the base block alone, and level n realizes
the membership threshold 2^(2^(n-1)), so S_n*C_i - F_n*C_i*B_i^e is in the
ideal exactly for e = 2^(2^(n-1)).  That is the conventional J_{n-1}, whose
threshold formula 2^(2^n) counts the base block as level 0.
"""

from __future__ import annotations

import random

from .fields import Field, GF, QQ
from .ideals import homogenize
from .orders import GREVLEX, LEX, OrderSpec
from .oracle import monomials_of_degree
from .poly import PolynomialRing

__all__ = ["mayr_meyer", "twisted_cubic", "random_ideal"]

DEFAULT_PRIME = 32003


def mayr_meyer(n: int, homogeneous: bool = False, field: Field | None = None):
    """Level-n tower ideal; returns (ring, generators).

    The affine generators follow the three standard blocks: level linking
    for 2 <= m <= n, the counter loop for 1 <= m <= n - 1, and the base
    relations C_i S - C_i F B_i^2.  At n = 1 only the base block is
    nonempty, giving four binomials.  Level n realizes the threshold
    2^(2^(n-1)) (2, 4, 16 for n = 1, 2, 3) and equals the conventional
    J_{n-1}; n = 0 is rejected.  The ring is grevlex, with the variables
    of higher levels first, and the homogenizer u last.
    """
    if n < 1:
        raise ValueError("level must be at least 1")
    names = [f"{v}{m}" for v in "SF" for m in range(n, 0, -1)]
    names += [f"{v}{i}_{m}" for v in "CB" for m in range(n, 0, -1) for i in range(1, 5)]
    ring = PolynomialRing(field or GF(DEFAULT_PRIME), names)

    def S(m):
        return ring.variable(f"S{m}")

    def F(m):
        return ring.variable(f"F{m}")

    def C(i, m):
        return ring.variable(f"C{i}_{m}")

    def B(i, m):
        return ring.variable(f"B{i}_{m}")

    gens = []
    for m in range(2, n + 1):
        gens.append(S(m) - S(m - 1) * C(1, m - 1))
        gens.append(F(m) - S(m - 1) * C(4, m - 1))
        for i in range(1, 5):
            gens.append(
                C(i, m) * F(m - 1) * B(2, m - 1)
                - C(i, m) * B(i, m) * F(m - 1) * B(3, m - 1)
            )
    for m in range(1, n):
        gens.append(F(m) * C(1, m) * B(1, m) - S(m) * C(2, m))
        gens.append(F(m) * C(2, m) - F(m) * C(3, m))
        gens.append(S(m) * C(3, m) * B(1, m) - S(m) * C(2, m) * B(4, m))
        gens.append(S(m) * C(3, m) - F(m) * C(4, m) * B(4, m))
    for i in range(1, 5):
        gens.append(C(i, 1) * S(1) - C(i, 1) * F(1) * B(i, 1) ** 2)

    assert len(gens) == 10 * n - 6

    if homogeneous:
        return homogenize(gens)[:2]
    return ring, gens


def twisted_cubic(field: Field = QQ, order: OrderSpec = LEX):
    """The three quadrics cutting out the twisted cubic in P^3."""
    ring = PolynomialRing(field, ["w", "x", "y", "z"], order)
    w, x, y, z = ring.variables()
    return ring, [w * w - x * y, w * y - x * z, w * z - y * y]


def random_ideal(seed: int, n_vars: int, n_gens: int, degree: int,
                 field: Field | None = None, order: OrderSpec = GREVLEX):
    """Seeded homogeneous forms of the given degree; returns (ring, gens).

    Deterministic in the seed.  Generators are dense-ish random forms, each
    guaranteed nonzero; n_gens = 0 yields the zero ideal.
    """
    field = field or GF(DEFAULT_PRIME)
    if degree < 1:
        raise ValueError("generator degree must be positive")
    ring = PolynomialRing(field, [f"x{i}" for i in range(n_vars)], order)
    rng = random.Random(seed)
    monos = sorted(monomials_of_degree(n_vars, degree))
    gens = []
    for _ in range(n_gens):
        while True:
            f = ring.polynomial((field.random_scalar(rng), m) for m in monos)
            if not f.is_zero:
                break
        gens.append(f)
    return ring, gens
