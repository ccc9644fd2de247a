"""Degree-truncated linear algebra: Macaulay matrices and one sparse echelon.

A Macaulay matrix in degree d has one row per monomial multiple of a
generator landing in degree d and one column per degree-d monomial.  Its
row space is the degree-d slice of the ideal, so ranks answer dimension and
membership questions without any Groebner machinery.  The rows are sparse
``{column: coeff}`` dicts built from the generators' terms, and the one
elimination is ``Echelon``: rows fed in one at a time, each reduced at its
leading column against the pivot rows kept so far.  Its pivots give ranks,
membership, initial ideals in a degree (columns sorted descending in the
order) and, with a back-substitution, matrix inverses.  The tests use it
as ground truth.  The generic-forms regularity test and
``modules.minimalize_generators`` grow an ``Echelon`` row by row, since
they need nothing but ranks and pivot positions.  Stable monomial ideals
need not even that: ``eliahou_kervaire_betti`` reads their Betti tables off
the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf

from .orders import OrderSpec
from .poly import Polynomial, PolynomialRing, mono_mul

__all__ = [
    "MacaulayMatrix", "macaulay_matrix", "monomials_of_degree",
    "ideal_dim_in_degree", "membership_in_degree", "initial_ideal_in_degree",
    "Echelon", "rank_of_rows", "invert_matrix",
    "eliahou_kervaire_betti",
]

DEFAULT_ENTRY_BUDGET = 4_000_000  # nonzero entries of one Macaulay matrix or echelon


def monomials_of_degree(nvars: int, d: int) -> list:
    """All exponent vectors of total degree d, in no particular order."""
    if d < 0:
        return []
    if not nvars:
        return [] if d else [()]
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return out


def sorted_monomials(ring: PolynomialRing, d: int, order: OrderSpec | None = None) -> list:
    key = (order or ring.order).key_function(ring.nvars)
    return sorted(monomials_of_degree(ring.nvars, d), key=key, reverse=True)


@dataclass
class MacaulayMatrix:
    ring: PolynomialRing
    degree: int
    columns: list     # degree-d monomials, descending under the column order
    rows: list        # sparse rows {column: coeff}, nonzero entries only

    @property
    def column_index(self):
        return {m: i for i, m in enumerate(self.columns)}


def macaulay_matrix(gens, d: int, order: OrderSpec | None = None) -> MacaulayMatrix:
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    ring = gens[0].ring
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("Macaulay matrices need homogeneous generators")
    columns = sorted_monomials(ring, d, order)
    col_index = {m: i for i, m in enumerate(columns)}

    # each multiple of g is one sparse row holding as many entries as g has terms
    entries = sum(
        len(g.terms) * comb(d - g.total_degree() + ring.nvars - 1, ring.nvars - 1)
        for g in gens
        if g.total_degree() <= d
    )
    if entries > DEFAULT_ENTRY_BUDGET:
        raise MemoryError(
            f"Macaulay matrix would hold {entries} entries, "
            f"over the {DEFAULT_ENTRY_BUDGET} budget"
        )
    rows = [
        {col_index[mono_mul(t.monomial, m)]: t.coeff for t in g.terms}
        for g in gens if g.total_degree() <= d
        for m in monomials_of_degree(ring.nvars, d - g.total_degree())
    ]
    return MacaulayMatrix(ring, d, columns, rows)


class Echelon:
    """Row echelon form grown one sparse row ``{column: coeff}`` at a time.

    A row is reduced only at its leading (smallest) column against the
    pivot rows kept so far, so a rank needs no back-substitution, and the
    pivots inside a prefix of the columns count the rank of the rows'
    projection onto that prefix.  Stored pivot rows are normalized to lead 1.

    A row fills in as it is reduced, so the rows fed in do not bound what
    the echelon holds or costs.  Every entry a stored row holds was written
    either when it was stored or by one pivot-row update, so ``written``,
    the count of both, bounds the memory and the time of the elimination;
    with a budget, the update or store that takes it past the budget raises
    MemoryError.
    """

    def __init__(self, field, budget: int | None = None):
        self.field = field
        self.pivots = {}  # lead column -> row
        self.budget = budget
        self.written = 0  # entries stored, plus entries updated in reductions

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict) -> bool:
        """Reduce the row, which is consumed; keep it and return True when
        it raised the rank.

        Over F_p only leads and stored rows are taken mod p: the other
        entries may grow while the row is reduced, and an entry that
        cancelled is dropped when it comes up as the lead.
        """
        pivots, p = self.pivots, self.field.modulus
        room = inf if self.budget is None else self.budget - self.written
        written, rose = 0, False
        while row and written <= room:
            c = min(row)
            f = row[c] % p if p else row[c]
            if not f:
                del row[c]
                continue
            pivot = pivots.get(c)
            if pivot is None:
                inv = self.field.inv(f)
                pivots[c] = {k: v for k, x in row.items() if (v := x * inv % p if p else x * inv)}
                written += len(pivots[c])
                rose = True
                break
            for k, y in pivot.items():
                row[k] = row.get(k, 0) - f * y
            written += len(pivot)
            del row[c]
        self.written += written
        if written > room:
            raise MemoryError(
                f"echelon wrote {self.written} entries, over the {self.budget} budget"
            )
        return rose


def rank_of_rows(rows, field) -> int:
    """Rank of sparse rows ``{column: coeff}``; the input is untouched.
    The elimination writes at most the entry budget (see ``Echelon``)."""
    echelon = Echelon(field, DEFAULT_ENTRY_BUDGET)
    for row in rows:
        echelon.add(dict(row))
    return echelon.rank


def ideal_dim_in_degree(gens, d: int) -> int:
    """dim_k of the degree-d slice of the ideal: the Macaulay matrix's rank."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return 0
    mat = macaulay_matrix(gens, d)
    return rank_of_rows(mat.rows, mat.ring.field)


def membership_in_degree(g: Polynomial, gens) -> bool:
    """Is the homogeneous g in the span of the ideal's degree-deg(g) slice?"""
    if g.is_zero:
        return True
    if not g.is_homogeneous():
        raise ValueError("degree-truncated membership needs homogeneous input")
    gens = [f for f in gens if not f.is_zero]
    if not gens:
        return False
    mat = macaulay_matrix(gens, g.total_degree())
    echelon = Echelon(mat.ring.field, DEFAULT_ENTRY_BUDGET)
    for row in mat.rows:
        echelon.add(row)
    index = mat.column_index
    return not echelon.add({index[t.monomial]: t.coeff for t in g.terms})


def initial_ideal_in_degree(gens, d: int, order: OrderSpec | None = None) -> list:
    """Lead monomials of a degree-d basis of the ideal with distinct leads.

    With columns sorted descending under the order, the pivot columns of any
    echelon form are the leading columns of the row space, which is exactly
    the degree-d slice of the initial ideal.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    mat = macaulay_matrix(gens, d, order=order)
    echelon = Echelon(mat.ring.field, DEFAULT_ENTRY_BUDGET)
    for row in mat.rows:
        echelon.add(row)
    return [mat.columns[c] for c in sorted(echelon.pivots)]


def invert_matrix(matrix, field):
    """Inverse of a square matrix over the field, or None when singular.

    The rows of (M | I) go through one ``Echelon``; M is invertible exactly
    when the pivots are the columns of M.  Clearing each pivot row above its
    lead, from the last row up, leaves the inverse in the right half.
    """
    n = len(matrix)
    echelon = Echelon(field)
    for i, row in enumerate(matrix):
        echelon.add({**{j: x for j, x in enumerate(row) if x}, n + i: field.one})
    rows = echelon.pivots
    if sorted(rows) != list(range(n)):
        return None
    for c in reversed(range(n)):
        for r in range(c):
            if f := rows[r].get(c):
                for k, y in rows[c].items():
                    rows[r][k] = field.sub(rows[r].get(k, field.zero), field.mul(f, y))
    return [[rows[i].get(n + j, field.zero) for j in range(n)] for i in range(n)]


def eliahou_kervaire_betti(monomials) -> dict:
    """Betti numbers {(step i, degree): beta} of the stable monomial ideal
    minimally generated by the monomials (Eliahou & Kervaire, 1990): u of
    degree j adds C(m - 1, i) at (i, i + j), m the largest index of a
    variable dividing u, counting from 1.  Stability is the caller's to check."""
    out = {}
    for u in monomials:
        m = max((k + 1 for k, e in enumerate(u) if e), default=1)
        for i in range(m):
            out[(i, i + sum(u))] = out.get((i, i + sum(u)), 0) + comb(m - 1, i)
    return out
