"""Polynomial arithmetic, Macaulay ranks and the binomial congruence walk,
written apart from the package so that the benchmark's checks never lean
on the code they judge.

A polynomial here is a dict {exponent tuple: coefficient}.  Over F_p the
coefficients are ints in [0, p); over QQ they are Fractions.  Only the
program's output objects are read (their ``terms``), never its routines.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

# Ranks over QQ are taken modulo this prime.  The rank mod p never exceeds
# the rank over QQ, and falls below it only when p divides every maximal
# nonzero minor; with integer entries of a few digits that does not happen.
QQ_RANK_PRIME = 2**61 - 1


class Arith:
    """Coefficient arithmetic of one field: modulus p, or None for QQ."""

    def __init__(self, p):
        self.p = p

    @classmethod
    def of(cls, field):
        return cls(field.modulus if field.kind == "prime-field" else None)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def rank_modulus(self):
        return self.p or QQ_RANK_PRIME

    def to_rank_field(self, c):
        """The coefficient as a residue modulo rank_modulus()."""
        if self.p:
            return c
        c = Fraction(c)
        q = QQ_RANK_PRIME
        return c.numerator % q * pow(c.denominator % q, q - 2, q) % q


def as_dict(f) -> dict:
    """A program Polynomial (anything with (coeff, monomial) terms) as a dict."""
    return {t.monomial: t.coeff for t in f.terms}


def degree(m) -> int:
    return sum(m)


def poly_degree(f: dict) -> int:
    """Total degree of a homogeneous dict polynomial; -1 for zero; raises
    ValueError on an inhomogeneous one."""
    degs = {degree(m) for m in f}
    if len(degs) > 1:
        raise ValueError("inhomogeneous polynomial")
    return degs.pop() if degs else -1


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def divides(a, b) -> bool:
    """a divides b."""
    return all(x <= y for x, y in zip(a, b))


def add_scaled(acc: dict, f: dict, c, m, ar: Arith):
    """acc += c * x^m * f, in place, dropping zeros."""
    for mono, coeff in f.items():
        key = mono_mul(mono, m) if m is not None else mono
        v = ar.add(acc.get(key, 0), ar.mul(c, coeff))
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)


def combine(coeffs, gens, ar: Arith) -> dict:
    """sum_i coeffs[i] * gens[i] for dict polynomials."""
    acc = {}
    for a, g in zip(coeffs, gens):
        if a and g:
            for m, c in a.items():
                add_scaled(acc, g, c, m, ar)
    return acc


def monomials(nvars: int, d: int) -> list:
    """All exponent vectors of total degree d, in a fixed order."""
    if d < 0:
        return []
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def dim_s(nvars: int, d: int) -> int:
    return comb(d + nvars - 1, nvars - 1) if d >= 0 else 0


def rank(rows, ncols: int, modulus: int) -> int:
    """Rank of dense rows (lists of residues mod a prime) by forward
    elimination; stops early at full column rank."""
    pivots = []  # sorted (column, row normalized to lead 1)
    for r in rows:
        if len(pivots) == ncols:
            break
        r = list(r)
        for c, prow in pivots:
            f = r[c]
            if f:
                r[c:] = [(x - f * y) % modulus for x, y in zip(r[c:], prow[c:])]
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is None:
            continue
        inv = pow(r[lead], modulus - 2, modulus)
        insort(pivots, (lead, [x * inv % modulus for x in r]))
    return len(pivots)


def vector_rows(polys, columns, ar: Arith):
    """Dense coefficient rows of dict polynomials over the given columns."""
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for f in polys:
        row = [0] * len(columns)
        for m, c in f.items():
            row[index[m]] = ar.to_rank_field(c)
        rows.append(row)
    return rows


def multiples_in_degree(gens, d: int, nvars: int) -> list:
    """x^m * f for each generator f and each monomial m with deg = d."""
    out = []
    for f in gens:
        e = poly_degree(f)
        if 0 <= e <= d:
            for m in monomials(nvars, d - e):
                out.append({mono_mul(k, m): c for k, c in f.items()})
    return out


class IdealOracle:
    """Degree slices of a homogeneous ideal by Macaulay-matrix ranks, cached
    per degree.  Once a slice fills S_d, every higher slice does too."""

    def __init__(self, gens, nvars: int, ar: Arith):
        self.gens = [g for g in gens if g]
        self.nvars = nvars
        self.ar = ar
        self.dims = {}
        self.full_from = None

    def dim(self, d: int) -> int:
        """dim_k I_d."""
        if d < 0:
            return 0
        if self.full_from is not None and d >= self.full_from:
            return dim_s(self.nvars, d)
        if d not in self.dims:
            cols = monomials(self.nvars, d)
            rows = vector_rows(multiples_in_degree(self.gens, d, self.nvars), cols, self.ar)
            self.dims[d] = rank(rows, len(cols), self.ar.rank_modulus())
            if self.dims[d] == len(cols):
                self.full_from = d if self.full_from is None else min(self.full_from, d)
        return self.dims[d]

    def quotient_dim(self, d: int) -> int:
        """dim_k (S/I)_d."""
        return dim_s(self.nvars, d) - self.dim(d)

    def contains(self, g: dict) -> bool:
        """Membership of a homogeneous g in the ideal's degree-deg(g) slice."""
        if not g:
            return True
        d = poly_degree(g)
        if self.dim(d) == dim_s(self.nvars, d):
            return True
        cols = monomials(self.nvars, d)
        rows = vector_rows(multiples_in_degree(self.gens, d, self.nvars) + [g], cols, self.ar)
        return rank(rows, len(cols), self.ar.rank_modulus()) == self.dim(d)

    def eliminated_dim(self, d: int, first_kept: int) -> int:
        """dim_k (I_d intersected with the span of monomials free of the
        first first_kept variables): rank(M) minus the rank of M projected
        onto the columns of monomials that involve those variables."""
        if self.full_from is not None and d >= self.full_from:
            return dim_s(self.nvars - first_kept, d)
        cols = monomials(self.nvars, d)
        rows = vector_rows(multiples_in_degree(self.gens, d, self.nvars), cols, self.ar)
        keep = [i for i, m in enumerate(cols) if any(m[:first_kept])]
        projected = [[r[i] for i in keep] for r in rows]
        return self.dim(d) - rank(projected, len(keep), self.ar.rank_modulus())


def standard_count(leads, nvars: int, d: int, first_kept: int = 0) -> int:
    """Monomials of degree d, free of the first first_kept variables, that
    no lead monomial divides."""
    return sum(
        1
        for m in monomials(nvars, d)
        if not any(m[:first_kept]) and not any(divides(l, m) for l in leads)
    )


# -- orders -------------------------------------------------------------------

def order_key(spec, nvars: int):
    """Sort key of the lex, grevlex and elimination orders, from their
    definitions; None for orders the benchmark does not re-derive."""
    if spec.kind == "lex":
        return lambda a: a
    if spec.kind == "grevlex":
        return lambda a: (sum(a), tuple(-e for e in reversed(a)))
    if spec.kind == "eliminate":
        k = spec.block
        return lambda a: (sum(a[:k]), sum(a), tuple(-e for e in reversed(a)))
    return None


# -- binomial congruence walk --------------------------------------------------

def binomial_moves(gens):
    """Exponent pairs (u, v) of generators x^u - x^v (any nonzero scalars)."""
    moves = []
    for g in gens:
        if len(g) != 2:
            raise ValueError("not a binomial")
        u, v = list(g)
        moves.append((u, v))
    return moves


def walk_joins(start, goal, moves, max_nodes: int = 200_000, max_degree: int = 64):
    """Bounded BFS over the moves m*x^u <-> m*x^v from start.

    Returns True when goal is reached, False when the whole congruence class
    was exhausted without reaching it, and None when a bound cut the search
    short (no verdict).  For an ideal generated by differences of monomials,
    x^a - x^b is a member exactly when a and b are joined.
    """
    start, goal = tuple(start), tuple(goal)
    seen = {start}
    queue = deque([start])
    truncated = False
    while queue:
        m = queue.popleft()
        if m == goal:
            return True
        for u, v in moves:
            for src, dst in ((u, v), (v, u)):
                if divides(src, m):
                    nxt = tuple(a - s + t for a, s, t in zip(m, src, dst))
                    if nxt in seen:
                        continue
                    if degree(nxt) > max_degree or len(seen) >= max_nodes:
                        truncated = True
                        continue
                    seen.add(nxt)
                    queue.append(nxt)
    return None if truncated else False
