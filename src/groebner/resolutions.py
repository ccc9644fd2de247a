"""Free resolutions, Betti tables, regularity, and its randomized test.

A resolution is built by iterating syzygies: take minimal generators, write
down the syzygies of their completed basis, push them back onto the
generators, minimalize, repeat until nothing is left.  Minimal generating
sets at every level force the maps into the maximal ideal, which is what
makes the resulting Betti numbers intrinsic.

Regularity is read off the minimal resolution as the largest shift minus
homological step, with the resolved object sitting at step 0.  The
randomized test checks the same number through the lift-and-quotient chain
on generic linear forms, using degree-truncated linear algebra only.
"""

from __future__ import annotations

import random

from .modules import (
    BuchbergerOptions,
    CapInterrupted,
    as_module_elements,
    minimalize_generators,
    syzygy_generators,
)
from .oracle import monomials_of_degree, rank_of_rows
from .poly import Polynomial, mono_degree, mono_mul

__all__ = [
    "FreeResolution", "BettiTable", "free_resolution", "regularity",
    "bayer_stillman_test", "REGULAR", "NOT_REGULAR", "INCONCLUSIVE",
]

REGULAR = "regular"
NOT_REGULAR = "not-regular"
INCONCLUSIVE = "inconclusive"


class BettiTable:
    """Counts beta[i, j] of degree-j basis elements at homological step i."""

    def __init__(self, entries: dict):
        self.entries = {k: v for k, v in entries.items() if v}

    @classmethod
    def from_shifts(cls, shifts_per_step):
        entries = {}
        for i, shifts in enumerate(shifts_per_step):
            for d in shifts:
                entries[(i, d)] = entries.get((i, d), 0) + 1
        return cls(entries)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def steps(self):
        return 1 + max((i for i, _ in self.entries), default=-1)

    def regularity(self) -> int:
        return max(j - i for i, j in self.entries)

    def alternating_numerator(self) -> dict:
        """Coefficients of sum_i (-1)^i sum_j beta[i,j] t^j."""
        out = {}
        for (i, j), b in self.entries.items():
            out[j] = out.get(j, 0) + (b if i % 2 == 0 else -b)
        return {j: c for j, c in out.items() if c}

    def json_rows(self):
        return [
            {"i": i, "j": j, "beta": b}
            for (i, j), b in sorted(self.entries.items())
        ]

    def ascii(self) -> str:
        """Staircase layout: rows are j - i, columns are the step i."""
        if not self.entries:
            return "(empty)"
        steps = self.steps()
        rows = sorted({j - i for i, j in self.entries})
        width = max(4, 1 + max(len(str(b)) for b in self.entries.values()))
        header = "      " + "".join(f"{i:>{width}}" for i in range(steps))
        lines = [header]
        for r in rows:
            cells = []
            for i in range(steps):
                b = self.entries.get((i, r + i), 0)
                cells.append(f"{(b if b else '.'):>{width}}")
            lines.append(f"{r:>4}: " + "".join(cells))
        return "\n".join(lines)

    def __repr__(self):
        return f"BettiTable({self.entries})"


class FreeResolution:
    """Chain of generator lists; steps[k] lives in the free module over the
    basis chosen at step k-1."""

    def __init__(self, ring, steps, minimal: bool, complete: bool = True):
        self.ring = ring
        self.steps = steps
        self.minimal = minimal
        self.complete = complete

    @property
    def length(self) -> int:
        return len(self.steps) - 1

    def shifts(self):
        return [tuple(e.degree() for e in step) for step in self.steps]

    def matrix(self, k: int):
        """Map at homological step k as rows of polynomial entries, one row
        per basis element of step k-1 (the resolved object for k = 0)."""
        cols = self.steps[k]
        nrows = len(self.steps[k - 1]) if k >= 1 else cols[0].module.rank
        return [[col.comps[r] for col in cols] for r in range(nrows)]

    def betti(self) -> BettiTable:
        return BettiTable.from_shifts(self.shifts())

    def composition_is_zero(self) -> bool:
        for k in range(1, len(self.steps)):
            prev = self.steps[k - 1]
            for s in self.steps[k]:
                if not s.apply(prev).is_zero:
                    return False
        return True

    def has_scalar_entries(self) -> bool:
        """Nonzero constant entries in any map past step 0 break minimality."""
        for step in self.steps[1:]:
            for elem in step:
                for p in elem.comps:
                    for t in p.terms:
                        if mono_degree(t.monomial) == 0:
                            return True
        return False


def free_resolution(gens, minimal: bool = True, opts: BuchbergerOptions | None = None) -> FreeResolution:
    """Resolve the ideal or submodule generated by homogeneous gens.

    The resolved object sits at homological step 0.  With minimal=True the
    output is the minimal free resolution; otherwise it is the iterated
    Schreyer resolution of the completed bases.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("nothing to resolve")
    if isinstance(gens[0], Polynomial):
        ring = gens[0].ring
        _, gens = as_module_elements([g for g in gens if not g.is_zero])
    else:
        ring = gens[0].module.ring
        gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("nothing to resolve")
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("resolutions need homogeneous input")
    current = minimalize_generators(gens, opts) if minimal else list(gens)
    steps = [current]
    max_steps = ring.nvars + 1
    for _ in range(max_steps + 1):
        try:
            pushed = syzygy_generators(current, opts, lex_sort=True)
        except CapInterrupted:
            return FreeResolution(ring, steps, minimal, complete=False)
        if not pushed:
            break
        nxt = minimalize_generators(pushed, opts) if minimal else pushed
        if not nxt:
            break
        steps.append(nxt)
        current = nxt
    else:
        raise AssertionError("resolution exceeded the variable-count bound")

    return FreeResolution(ring, steps, minimal)


def regularity(res: FreeResolution) -> int:
    """Largest shift minus homological step across a minimal resolution."""
    if not res.minimal:
        raise ValueError("regularity needs a minimal resolution")
    if not res.complete:
        raise ValueError("regularity of a cap-truncated resolution is undefined")
    return res.betti().regularity()


# ---------------------------------------------------------------------------
# randomized regularity test
# ---------------------------------------------------------------------------

def _degree_rows(gens, d, basis_index):
    """Coefficient rows spanning the degree-d slice of the ideal."""
    rows = []
    nvars = gens[0].ring.nvars
    zero = gens[0].ring.field.zero
    for g in gens:
        dg = g.total_degree()
        if dg > d or g.is_zero:
            continue
        for m in monomials_of_degree(nvars, d - dg):
            vec = [zero] * len(basis_index)
            for t in g.terms:
                vec[basis_index[mono_mul(t.monomial, m)]] = t.coeff
            rows.append(vec)
    return rows


def _rank(rows, field):
    return rank_of_rows(rows, field) if rows else 0


def bayer_stillman_test(gens, m: int, trials: int = 3, seed: int = 0) -> str:
    """Randomized regularity-at-m test via generic linear forms.

    Each trial draws forms y_0, y_1, ... and checks, in degrees m and m+1
    only, that multiplication by y_j cannot detect anything outside the
    accumulated ideal (I, y_0, .., y_{j-1}), and that the accumulated ideal
    eventually fills the whole degree-m slice.  Any passing trial certifies
    m-regularity.  A failure is order-independent when it comes from the
    generator degrees; otherwise all trials must fail, which is conclusive
    over a large field because passing forms fill a Zariski-open set.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("empty generating list")
    ring = gens[0].ring
    field = ring.field
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("regularity test needs homogeneous input")

    min_gens = minimalize_generators(gens)
    if max(g.total_degree() for g in min_gens) > m:
        return NOT_REGULAR
    if m < 1:
        return NOT_REGULAR

    small_field = field.kind == "prime-field" and field.modulus < 100
    if small_field and trials > field.modulus:
        raise ValueError("field too small for the requested number of trials")

    nvars = ring.nvars
    basis_m = monomials_of_degree(nvars, m)
    basis_m1 = monomials_of_degree(nvars, m + 1)
    index_m = {mono: i for i, mono in enumerate(basis_m)}
    index_m1 = {mono: i for i, mono in enumerate(basis_m1)}
    dim_sm = len(basis_m)

    for trial in range(trials):
        rng = random.Random(seed * 1000003 + trial)
        ys = []
        for _ in range(nvars):
            while True:
                coeffs = [field.random_scalar(rng) for _ in range(nvars)]
                if any(c != 0 for c in coeffs):
                    break
            ys.append(
                ring.polynomial(
                    (c, tuple(1 if k == i else 0 for k in range(nvars)))
                    for i, c in enumerate(coeffs)
                )
            )

        span = list(gens)
        rows_m = _degree_rows(span, m, index_m)
        rows_m1 = _degree_rows(span, m + 1, index_m1)
        rank_m = _rank(rows_m, field)
        rank_m1 = _rank(rows_m1, field)
        passed = None
        for y in ys:
            if rank_m == dim_sm:
                passed = True
                break
            # dim of {f in S_m : y*f in U_{m+1}} via a stacked rank
            mult_rows = [
                _poly_vector(y.monomial_mul(field.one, mono), index_m1)
                for mono in basis_m
            ]
            stacked = rows_m1 + mult_rows
            colon_dim = dim_sm - (_rank(stacked, field) - rank_m1)
            if colon_dim != rank_m:
                passed = False
                break
            span = span + [y]
            rows_m = rows_m + _degree_rows([y], m, index_m)
            rows_m1 = rows_m1 + _degree_rows([y], m + 1, index_m1)
            rank_m = _rank(rows_m, field)
            rank_m1 = _rank(rows_m1, field)
        if passed is None:
            passed = rank_m == dim_sm
        if passed:
            return REGULAR

    return INCONCLUSIVE if small_field else NOT_REGULAR


def _poly_vector(f, index):
    vec = [f.ring.field.zero] * len(index)
    for t in f.terms:
        vec[index[t.monomial]] = t.coeff
    return vec
