"""Free resolutions, Betti tables, regularity, and its randomized test.

A resolution is built by iterating syzygies: take minimal generators, write
down the syzygies of their completed basis, push them back onto the
generators, minimalize, repeat until nothing is left.  Minimal generating
sets at every level force the maps into the maximal ideal, which is what
makes the resulting Betti numbers intrinsic.  Every resolution is minimal
and finished: a degree cap that stops a completion raises CapInterrupted.

Regularity is read off the minimal resolution as the largest shift minus
homological step, with the resolved object sitting at step 0.  The
randomized test checks the same number by the Bayer–Stillman criterion, one
general hyperplane section at a time: a seeded substitution makes the next
general linear form a variable, and setting that variable to zero cuts the
ring by one.  Each section needs only the dimensions of two degree slices.
A change of coordinates keeps them, so those of the ideal come once from its
Hilbert function, and those of each cut from the rank of one sparse echelon
per degree in the variables left.
"""

from __future__ import annotations

import random

from .modules import (
    BuchbergerOptions,
    as_module_elements,
    minimalize_generators,
    syzygy_generators,
)
from .oracle import Echelon, monomials_of_degree
from .orders import GREVLEX
from .poly import Polynomial, last_variable_change, mono_mul

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
    """Minimal resolution as a chain of generator lists; steps[k] lives in
    the free module over the basis chosen at step k-1."""

    def __init__(self, ring, steps):
        self.ring = ring
        self.steps = steps

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


def free_resolution(gens, opts: BuchbergerOptions | None = None) -> FreeResolution:
    """Minimal free resolution of the ideal or submodule generated by
    homogeneous gens, polynomials or module elements, with the resolved
    object at homological step 0.  Zero generators are dropped.  Under
    opts.degree_cap a completion the cap stops raises CapInterrupted: a
    truncated resolution has no Betti table or regularity to read.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("nothing to resolve")
    if isinstance(gens[0], Polynomial):
        _, gens = as_module_elements(gens)
    ring = gens[0].module.ring
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("resolutions need homogeneous input")
    current = minimalize_generators(gens, opts)
    steps = [current]
    max_steps = ring.nvars + 1
    for _ in range(max_steps + 1):
        pushed = syzygy_generators(current, opts, lex_sort=True)
        if not pushed:
            break
        current = minimalize_generators(pushed, opts)
        steps.append(current)
    else:
        raise AssertionError("resolution exceeded the variable-count bound")

    return FreeResolution(ring, steps)


def regularity(res: FreeResolution) -> int:
    """Largest shift minus homological step across the resolution's Betti
    table; the resolution is minimal, so the number is intrinsic."""
    return res.betti().regularity()


# ---------------------------------------------------------------------------
# randomized regularity test
# ---------------------------------------------------------------------------

def _quotient_dim(ring, gens, k: int, d: int, opts: BuchbergerOptions) -> int:
    """dim (S/I)_d for S the ring of the first k variables and I generated
    by gens, which lie in S: the degree-d monomials of S less the rank of
    one echelon of the generators' degree-d multiples.  The deadline of
    opts is checked as each row is added."""
    pad = (0,) * (ring.nvars - k)
    index = {e + pad: i for i, e in enumerate(monomials_of_degree(k, d))}
    echelon = Echelon(ring.field)
    for g in gens:
        terms = [(t.monomial, t.coeff) for t in g.terms]
        for mono in monomials_of_degree(k, d - g.total_degree()):
            opts.check_deadline()
            mono += pad
            echelon.add({index[mono_mul(e, mono)]: c for e, c in terms})
    return len(index) - echelon.rank


def bayer_stillman_test(gens, m: int, trials: int = 3, seed: int = 0,
                        opts: BuchbergerOptions | None = None) -> str:
    """Randomized regularity-at-m test (Bayer & Stillman, 1987).

    I is m-regular when it is generated in degrees <= m and, for general
    linear forms y_0, y_1, .., each I_j = (I, y_0, .., y_{j-1}) has
    (I_j : y_j)_m = (I_j)_m until (I_j)_m = S_m.  A trial takes the forms
    one hyperplane at a time, in the variables: step j works in the k
    variables left, replaces x_{k-1} by x_{k-1} plus a random combination
    of the others, which leaves sparse generators sparse, and then sets
    x_{k-1} = 0 for the next step.  With h_j(d) = dim (S/I_j)_d, a step
    passes the trial when h_j(m) = 0 and fails it when
    h_j(m) - h_j(m+1) + h_{j+1}(m+1), the dimension of ((I_j : x)/I_j)_m,
    is not 0.  A change of coordinates keeps each h_j, so h_0(m) and
    h_0(m+1) come once per call from the Hilbert function of I, and each
    step reads h_{j+1}(m+1), then h_{j+1}(m) only when the trial goes on,
    off one echelon of the cut generators' multiples in the k-1 variables
    left; they are the next step's h_j.

    Any passing trial certifies m-regularity.  A failure is
    order-independent when it comes from the generator degrees; otherwise
    all trials must fail, which is conclusive over a large field because
    passing forms fill a Zariski-open set.  Over a small field the verdict
    is then INCONCLUSIVE.

    The Hilbert function does not depend on the order, so it completes a
    grevlex basis of I through degree m+1 whatever the ring's order; a
    degree cap in opts below m+1 that cuts that grevlex completion raises
    CapInterrupted.  The deadline is checked in the generator
    minimalization, the completion and as each row joins an echelon.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("empty generating list")
    ring = gens[0].ring
    field = ring.field
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("regularity test needs homogeneous input")

    opts = opts or BuchbergerOptions()
    min_gens = minimalize_generators(gens, opts)
    if max(g.total_degree() for g in min_gens) > m:
        return NOT_REGULAR

    if trials < 1:
        raise ValueError("the test needs at least one trial")
    small_field = field.kind == "prime-field" and field.modulus < 100
    if small_field and trials > field.modulus:
        raise ValueError("field too small for the requested number of trials")

    from .ideals import hilbert_function  # ideals imports this module

    grevlex = ring.with_order(GREVLEX)
    h = hilbert_function([g.reorder(grevlex) for g in min_gens], m + 1, opts)
    if not h[m]:
        return REGULAR
    # m >= 1 from here on, so the last step, which cuts to no variable at
    # all, reads h(m) = 0 and passes the trial
    for trial in range(trials):
        rng = random.Random(seed * 1000003 + trial)
        section, h_m, h_m1 = min_gens, h[m], h[m + 1]
        for k in range(ring.nvars, 0, -1):
            coeffs = [field.random_scalar(rng) for _ in range(k - 1)]
            change = last_variable_change(ring, k, coeffs)
            cut = (tuple(t for t in change.apply(g).terms if not t.monomial[k - 1])
                   for g in section)
            section = [Polynomial(ring, terms) for terms in cut if terms]
            h_next = _quotient_dim(ring, section, k - 1, m + 1, opts)
            if h_m - h_m1 + h_next:
                break
            h_m, h_m1 = _quotient_dim(ring, section, k - 1, m, opts), h_next
            if not h_m:
                return REGULAR

    return INCONCLUSIVE if small_field else NOT_REGULAR
