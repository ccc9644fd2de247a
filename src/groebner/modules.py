"""Free modules, module monomial orders, and the Buchberger completion engine.

Everything Groebner-shaped in this package funnels through one engine that
works over a free module; ideals are the rank-1 case.  The engine records
how it made each basis element, and the basis replays those records into
transformation rows over the input generators when first read, which is
what powers membership certificates and syzygy pushforward.

One S-pair lift, ``_lift_spair``, serves the completion, the Groebner check
and the Schreyer syzygies: it divides the S-element of a pair through the
list once and returns the remainder with the coefficient vector writing it
over the list.  One product, ``_combine``, multiplies such vectors into
transform rows, membership certificates and pushed-through syzygies; like
the division, it works on integer forms and makes one rational per output
term, so the rows are exact in either field.

Module monomials are pairs (monomial, component).  An order on them must be
multiplicative; the three implementations here are position-over-term,
term-over-position, and the Schreyer order induced by a list of elements of
the target module (compare images of the module monomials, break ties by
smaller component index).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import groupby, islice
from math import gcd
from operator import add
from typing import NamedTuple

from .oracle import Echelon
from .poly import (
    Polynomial,
    PolynomialRing,
    Term,
    mono_degree,
    mono_div,
    mono_lcm,
    mono_mask,
    mono_mul,
)

__all__ = [
    "FreeModule", "ModuleTerm", "ModuleElement",
    "ModuleOrder", "PositionOverTerm", "TermOverPosition", "SchreyerOrder",
    "BuchbergerOptions", "DeadlineExceeded", "CapInterrupted",
    "ModuleGroebnerBasis", "module_divide", "ModuleDivisionResult",
    "module_buchberger", "gebauer_moller_update", "surviving_pairs",
    "is_module_groebner", "syzygies",
    "syzygy_generators", "minimalize_generators", "as_module_elements",
]


class DeadlineExceeded(RuntimeError):
    """Raised when a completion run exceeds its wall-clock budget."""


class CapInterrupted(RuntimeError):
    """Raised when a degree cap stops a computation that needs completeness."""


class ModuleTerm(NamedTuple):
    coeff: object
    monomial: tuple
    component: int


# ---------------------------------------------------------------------------
# module orders
# ---------------------------------------------------------------------------

class ModuleOrder:
    """Key-function interface on module monomials (monomial, component)."""

    ring: PolynomialRing

    def key(self, mono, comp):
        raise NotImplementedError


@dataclass(frozen=True)
class PositionOverTerm(ModuleOrder):
    ring: PolynomialRing

    def key(self, mono, comp):
        return (-comp, self.ring.monomial_key(mono))


@dataclass(frozen=True)
class TermOverPosition(ModuleOrder):
    ring: PolynomialRing

    def key(self, mono, comp):
        return (self.ring.monomial_key(mono), -comp)


class SchreyerOrder(ModuleOrder):
    """Order induced by a list F of module elements: compare the images
    x^A * in(f_i) in the target module, break ties by smaller index i."""

    def __init__(self, leads, target_order: ModuleOrder):
        self.leads = tuple(leads)  # ModuleTerm per source basis element
        self.target_order = target_order
        self.ring = target_order.ring

    def key(self, mono, comp):
        lt = self.leads[comp]
        return (
            self.target_order.key(mono_mul(mono, lt.monomial), lt.component),
            -comp,
        )

    def __eq__(self, other):
        return (
            isinstance(other, SchreyerOrder)
            and self.leads == other.leads
            and self.target_order == other.target_order
        )

    def __hash__(self):
        return hash((self.leads, self.target_order))


# ---------------------------------------------------------------------------
# free modules and their elements
# ---------------------------------------------------------------------------

class FreeModule:
    """Graded free module over a polynomial ring with a module order."""

    __slots__ = ("ring", "shifts", "rank", "order")

    def __init__(self, ring: PolynomialRing, shifts, order: ModuleOrder | None = None):
        self.ring = ring
        self.shifts = tuple(shifts)
        self.rank = len(self.shifts)
        if self.rank < 1:
            raise ValueError("a free module needs rank at least 1")
        self.order = order if order is not None else TermOverPosition(ring)

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.shifts == other.shifts
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.ring, self.shifts, self.order))

    def __repr__(self):
        return f"{self.ring!r}^{self.rank}{list(self.shifts)}"

    def element(self, comps) -> "ModuleElement":
        comps = tuple(comps)
        if len(comps) != self.rank:
            raise ValueError(f"expected {self.rank} components, got {len(comps)}")
        for p in comps:
            if p.ring != self.ring:
                raise ValueError("component ring does not match module ring")
        return ModuleElement(self, comps)


class ModuleElement:
    """Immutable element of a free module, stored componentwise.  Its lead
    term and its integer form are computed on first request and kept."""

    __slots__ = ("module", "comps", "_lead", "_form")

    def __init__(self, module: FreeModule, comps: tuple):
        self.module = module
        self.comps = comps
        self._lead = None
        self._form = None

    def integer_form(self):
        """(num, den, comps, bits), the form module_divide reduces on, with
        self = num/den * comps.  Over QQ the components have coprime integer
        coefficients, num and den are positive integers and bits is the
        largest coefficient's bit length (fields.Field.integer_form); over
        a prime field the form is (1, 1, self.comps, None).  A basis element
        is a divisor many times, so its form is built once and kept.  An
        S-element comes with its form set (_lift_spair builds it in integer
        form), and module_divide reads only that."""
        if self._form is None:
            ring = self.module.ring
            form = ring.field.integer_form(t.coeff for p in self.comps for t in p.terms)
            if form is None:
                self._form = (1, 1, self.comps, None)
            else:
                num, den, ints, bits = form
                new = tuple.__new__
                it = iter(ints)
                # zip stops at the end of p.terms without drawing from it
                comps = tuple(
                    Polynomial(
                        ring, tuple([new(Term, (c, t[1])) for t, c in zip(p.terms, it)]), p._keys
                    )
                    for p in self.comps
                )
                self._form = (num, den, comps, bits)
        return self._form

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.comps)

    def lead_term(self) -> ModuleTerm:
        if self._lead is not None:
            return self._lead
        order = self.module.order
        best = None
        best_key = None
        for ci, p in enumerate(self.comps):
            if p.is_zero:
                continue
            t = p.lead_term
            k = order.key(t.monomial, ci)
            if best_key is None or k > best_key:
                best_key = k
                best = ModuleTerm(t.coeff, t.monomial, ci)
        if best is None:
            raise ValueError("zero module element has no lead term")
        self._lead = best
        return best

    def degree(self) -> int:
        """Degree of a homogeneous element (term degree plus shift)."""
        degs = {
            p.total_degree() + s
            for p, s in zip(self.comps, self.module.shifts)
            if not p.is_zero
        }
        if not degs:
            raise ValueError("zero element has no degree")
        return max(degs)

    def is_homogeneous(self) -> bool:
        degs = set()
        for p, s in zip(self.comps, self.module.shifts):
            if p.is_zero:
                continue
            if not p.is_homogeneous():
                return False
            degs.add(p.total_degree() + s)
        return len(degs) <= 1

    def _check(self, other: "ModuleElement"):
        if self.module != other.module:
            raise ValueError("module mismatch")

    def __add__(self, other):
        self._check(other)
        return ModuleElement(
            self.module, tuple(a + b for a, b in zip(self.comps, other.comps))
        )

    def __sub__(self, other):
        self._check(other)
        return ModuleElement(
            self.module, tuple(a - b for a, b in zip(self.comps, other.comps))
        )

    def __neg__(self):
        return ModuleElement(self.module, tuple(-a for a in self.comps))

    def monomial_mul(self, coeff, mono) -> "ModuleElement":
        return ModuleElement(
            self.module, tuple(p.monomial_mul(coeff, mono) for p in self.comps)
        )

    def scalar_mul(self, c) -> "ModuleElement":
        return ModuleElement(self.module, tuple(p.scalar_mul(c) for p in self.comps))

    def apply(self, targets):
        """Evaluate against targets: sum of comps[i] * targets[i]."""
        if len(targets) != self.module.rank:
            raise ValueError("target count does not match rank")
        ring = self.module.ring
        if isinstance(targets[0], Polynomial):
            return _combine(ring, self.comps, [(t,) for t in targets], 1)[0]
        module = targets[0].module
        return ModuleElement(
            module, _combine(ring, self.comps, [t.comps for t in targets], module.rank)
        )

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.module == other.module
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.module, self.comps))

    def __repr__(self):
        return "(" + ", ".join(str(p) for p in self.comps) + ")"


def as_module_elements(polys):
    """Wrap polynomials as elements of the rank-1 module S(0)."""
    ring = polys[0].ring
    m0 = FreeModule(ring, (0,), TermOverPosition(ring))
    return m0, [m0.element((p,)) for p in polys]


# ---------------------------------------------------------------------------
# division in a module
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModuleDivisionResult:
    remainder: ModuleElement
    quotients: tuple  # one Polynomial per divisor
    steps: int


DEADLINE_STRIDE = 256  # division steps between two deadline checks


def module_divide(g: ModuleElement, divisors,
                  opts: BuchbergerOptions | None = None) -> ModuleDivisionResult:
    """Least-index division of g by a list of module elements.

    The steps run on integer forms (ModuleElement.integer_form).  The
    dividend is held as rho * h, with one scale rho = rn/rd for all its
    components, and each divisor f as sigma * f~ with lead coefficient e.  A
    step h <- a*h - b*x^q*f~ takes (a, b) from field.cancel(t, e) for the
    lead coefficient t of h, and rd <- rd * a.  Its quotient coefficient is
    rho * b / sigma and a remainder term is rho * t, each one field.div of
    two integers, so quotients and remainder are those of the division over
    the field itself.  Over QQ these are the only Fractions, and the content
    of h is divided out (and rn/rd reduced) when a reduced lead has more
    than twice the bits of the lead that prompted the last removal (at
    first, of the largest coefficient of h).  Over a prime field
    rho = sigma = a = 1 and b = t/e.

    The lead falls at every step, so by multiplicativity each divisor's
    quotient terms arrive in strictly descending order and no sort or merge
    is needed.  Each component keeps a read offset, so moving its lead to
    the remainder copies nothing; a step merges only the components the
    chosen divisor has (and, when a is not one, scales the others).  A
    divisor's lead is compared by exponents only when its divisibility mask
    (poly.mono_mask) fits inside the current lead's, which passes every true
    divisor.  Under opts the deadline is checked every DEADLINE_STRIDE steps.
    """
    divisors = list(divisors)
    module = g.module
    ring = module.ring
    field = ring.field
    fdiv, fmul = field.div, field.mul
    mask = ring.monomial_mask
    masks = ring._mask_cache  # a miss (or a zero mask) falls back to mask()
    new = tuple.__new__
    candidates = {}  # component -> [(index, lead, lead mask)] by ascending index
    for i, f in enumerate(divisors):
        lt = f.lead_term()
        candidates.setdefault(lt.component, []).append((i, lt, mask(lt.monomial)))

    rn, rd, comps, bits = g.integer_form()
    comps = list(comps)
    starts = [0] * len(comps)  # read offset of each component
    limit = None if bits is None else 2 * bits
    # a lone component needs no order between components
    key = module.order.key if len(comps) > 1 else lambda mono, ci: True
    keys = [None if p.is_zero else key(p.lead_monomial, ci) for ci, p in enumerate(comps)]
    quotients = [[] for _ in divisors]  # quotient terms, descending (see below)
    forms = {}  # divisor index -> (sigma numerator, denominator, components, e)
    rem_terms = [[] for _ in comps]
    steps = 0
    while True:
        best_ci = -1
        best_key = None
        for ci, k in enumerate(keys):
            if k is not None and (best_key is None or k > best_key):
                best_key = k
                best_ci = ci
        if best_ci < 0:
            break
        terms = comps[best_ci].terms
        t, lead = terms[starts[best_ci]]
        outside = ~(masks.get(lead) or mask(lead))
        for i, lt, lead_mask in candidates.get(best_ci, ()):
            if lead_mask & outside:
                continue
            q = mono_div(lead, lt.monomial)
            if q is not None:
                form = forms.get(i)
                if form is None:
                    sn, sd, fcomps, _ = divisors[i].integer_form()
                    form = forms[i] = (sn, sd, fcomps, fcomps[lt.component].terms[0].coeff)
                sn, sd, fcomps, e = form
                a, b = field.cancel(t, e)
                if a != 1:
                    rd *= a
                    for ci2, fp in enumerate(fcomps):
                        if fp.is_zero and keys[ci2] is not None:
                            p, start = comps[ci2], starts[ci2]
                            comps[ci2] = Polynomial(ring, tuple([
                                new(Term, (fmul(a, c), m)) for c, m in p.terms[start:]
                            ]), _keys_from(p, start))
                            starts[ci2] = 0
                c = fdiv(rn * b * sd, rd * sn)
                quotients[i].append(new(Term, (c, q)))
                for ci2, fp in enumerate(fcomps):
                    if fp.is_zero:
                        continue
                    p = comps[ci2]
                    if starts[ci2]:
                        p = Polynomial(ring, p.terms[starts[ci2]:], _keys_from(p, starts[ci2]))
                        starts[ci2] = 0
                    updated = comps[ci2] = p.submul(b, q, fp, a)
                    keys[ci2] = None if updated.is_zero else key(updated.lead_monomial, ci2)
                if limit is not None and t.bit_length() > limit:
                    rn, rd, comps = _remove_content(ring, rn, rd, comps, starts)
                    limit = 2 * t.bit_length()
                break
        else:
            rem_terms[best_ci].append(new(Term, (fdiv(rn * t, rd), lead)))
            start = starts[best_ci] = starts[best_ci] + 1
            keys[best_ci] = None if start == len(terms) else key(terms[start].monomial, best_ci)
        steps += 1
        if opts is not None and not steps % DEADLINE_STRIDE:
            opts.check_deadline()

    remainder = ModuleElement(
        module, tuple(Polynomial(ring, tuple(ts)) for ts in rem_terms)
    )
    zero = ring.zero()
    qpolys = tuple(Polynomial(ring, tuple(ts)) if ts else zero for ts in quotients)
    return ModuleDivisionResult(remainder, qpolys, steps)


def _keys_from(p, start):
    """The term keys of p from position start on, when p keeps them."""
    return None if p._keys is None else p._keys[start:]


def _remove_content(ring, rn, rd, comps, starts):
    """Divide the content of integer components, read from their offsets,
    into the scale rn/rd.  Returns (rn, rd, components); the offsets are
    reset when the content is not one."""
    num = 0
    for p, s in zip(comps, starts):
        for c, _ in islice(p.terms, s, None):
            num = gcd(num, c)
            if num == 1:
                return rn, rd, comps
    if num == 0:  # nothing left
        return rn, rd, comps
    comps = [
        Polynomial(
            ring, tuple([Term(c // num, m) for c, m in islice(p.terms, s, None)]), _keys_from(p, s)
        )
        for p, s in zip(comps, starts)
    ]
    starts[:] = [0] * len(comps)
    rn *= num
    h = gcd(rn, rd)
    return rn // h, rd // h, comps


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

@dataclass
class BuchbergerOptions:
    """Knobs for the completion loop: stop above a pair degree, give up
    past a deadline."""

    degree_cap: int | None = None
    deadline: float | None = None  # absolute time.monotonic() stamp

    def check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceeded("completion exceeded its time budget")


class ModuleGroebnerBasis:
    """Completion output: monic basis elements, and transform rows writing
    each element as a combination of the original generators.  The rows
    are replayed from the completion's records on first read and kept; the
    records are then dropped."""

    def __init__(self, module, elements, generators, complete, history, reduction):
        self.module = module
        self.elements = list(elements)
        self.generators = list(generators)
        self.complete = complete
        self._records = (history, reduction)
        self._transform = None

    @property
    def transform(self):
        if self._transform is None:
            self._transform = _replay(self.module.ring, len(self.generators), *self._records)
            self._records = None
        return self._transform

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def normal_form(self, g: ModuleElement) -> ModuleElement:
        return module_divide(g, self.elements).remainder

    def contains(self, g: ModuleElement) -> bool:
        return self.normal_form(g).is_zero


def gebauer_moller_update(pending, live, leads, masks, new, product_rule):
    """Gebauer–Möller pair update for the lead leads[new] joining the basis.

    pending maps every untreated pair (i, j), i < j, to the lcm of its
    leads; live lists the earlier indices whose leads no later lead
    divides.  Both are edited in place.  masks[k] is the divisibility mask
    of leads[k] (poly.mono_mask): a mask test only rules divisibility out,
    and mono_div confirms every test it passes.  An old pair goes when the
    new lead divides its lcm and the lcm of neither sub-pair with the new
    lead equals it (the B_k rule).  Of the new pairs (i, new), i live, one
    per lcm survives, none whose lcm is a proper multiple of another's (M
    and F), and with product_rule none of a class holding coprime leads.
    Without product_rule the kept and treated pairs' trivial syzygies
    generate the syzygies of the leads, under any selection order (Gebauer
    and Moller, 1988).  Returns the surviving new pairs as a dict
    (i, new) -> lcm.
    """
    mono, comp = leads[new].monomial, leads[new].component
    new_mask = masks[new]
    doomed = [
        pair for pair, lcm in pending.items()
        if leads[pair[0]].component == comp
        and not new_mask & ~(masks[pair[0]] | masks[pair[1]])
        and mono_div(lcm, mono) is not None
        and mono_lcm(leads[pair[0]].monomial, mono) != lcm
        and mono_lcm(leads[pair[1]].monomial, mono) != lcm
    ]
    for pair in doomed:
        del pending[pair]

    # lcm -> [least index i, some pair of the class is coprime, lcm mask, degree]
    classes = {}
    for i in live:
        lt = leads[i]
        if lt.component != comp:
            continue
        lcm = mono_lcm(lt.monomial, mono)
        coprime = product_rule and not masks[i] & masks[new]
        if lcm in classes:
            classes[lcm][1] = classes[lcm][1] or coprime
        else:
            classes[lcm] = [i, coprime, masks[i] | masks[new], mono_degree(lcm)]
    fresh = {}
    for lcm, (i, coprime, lcm_mask, degree) in classes.items():
        # a proper divisor of lcm has a smaller degree
        if coprime or any(
            d < degree and not m & ~lcm_mask and mono_div(lcm, other) is not None
            for other, (_, _, m, d) in classes.items()
        ):
            continue
        fresh[(i, new)] = lcm

    # retire the live leads that new divides: their later pairs are
    # covered through new
    live[:] = [
        i for i in live
        if leads[i].component != comp
        or new_mask & ~masks[i]
        or mono_div(leads[i].monomial, mono) is None
    ]
    live.append(new)
    return fresh


def surviving_pairs(leads, product_rule: bool = True):
    """Pairs (i, j) that the update keeps when the leads join in order."""
    masks = [mono_mask(lt.monomial) for lt in leads]
    pending, live = {}, []
    for new in range(len(leads)):
        pending.update(gebauer_moller_update(pending, live, leads, masks, new, product_rule))
    return set(pending)


def module_buchberger(gens, opts: BuchbergerOptions | None = None) -> ModuleGroebnerBasis:
    """Complete a generating list to a Groebner basis of the submodule.

    The output is the reduced basis (monic, minimal leads, fully
    tail-reduced) sorted by (degree, descending lead); it is the unique
    reduced basis of the submodule unless a cap stopped the loop.

    Pairs are pruned by the Gebauer–Möller update (the coprime rule for
    ideals only) and treated by ascending (degree, i, j) from a heap.
    Under opts.degree_cap the loop stops at the first pair above the cap.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("cannot complete an empty generating list")
    module = gens[0].module
    ring = module.ring
    field = ring.field
    opts = opts or BuchbergerOptions()
    for g in gens:
        if g.module != module:
            raise ValueError("generators live in different modules")
        if g.is_zero:
            raise ValueError("zero generator")
    if not ring.order.is_well_order:
        for g in gens:
            if not g.is_homogeneous():
                raise ValueError(
                    "weight orders are only total degree by degree; "
                    "generators must be homogeneous"
                )

    product_rule = module.rank == 1

    basis = []
    history = []  # (scale, source) per element; see _replay
    leads = []
    masks = []    # divisibility mask of each lead
    pending = {}  # untreated pair (i, j) -> lcm
    heap = []     # (pair degree, i, j); entries the update dropped are stale
    live = []

    def pair_degree(i, lcm):
        return mono_degree(lcm) + module.shifts[leads[i].component]

    def append_element(elem, source):
        lc = elem.lead_term().coeff
        scale = None
        if lc != field.one:
            scale = field.inv(lc)
            elem = elem.scalar_mul(scale)
        basis.append(elem)
        history.append((scale, source))
        lead = elem.lead_term()
        leads.append(lead)
        masks.append(ring.monomial_mask(lead.monomial))
        fresh = gebauer_moller_update(pending, live, leads, masks, len(basis) - 1, product_rule)
        pending.update(fresh)
        for (i, j), lcm in fresh.items():
            heapq.heappush(heap, (pair_degree(i, lcm), i, j))

    for idx, g in enumerate(gens):
        append_element(g, idx)

    complete = True
    cap = opts.degree_cap
    while pending:
        opts.check_deadline()
        degree, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        del pending[(i, j)]
        if cap is not None and degree > cap:
            complete = False
            break  # every pair left on the heap is above the cap too

        rem, coeffs = _lift_spair(basis, leads, i, j, opts)
        if not rem.is_zero:
            append_element(rem, [(k, c) for k, c in enumerate(coeffs) if not c.is_zero])

    basis, reduction = _interreduce(module, basis, opts)
    return ModuleGroebnerBasis(module, basis, gens, complete, history, reduction)


def _replay(ring, width, history, reduction):
    """Transform rows from a completion's records.  history holds one
    (scale, source) per appended element: the inverse lead coefficient it
    was scaled by (None for none), and a generator index or the nonzero
    (index, coefficient) pairs over the earlier elements; the scale goes
    into the coefficients, so each row is one _combine.  reduction, from
    _interreduce, holds the kept positions, each kept element's nonzero
    (position, quotient) pairs over the other kept ones, and their order;
    a reduced row is row - sum q * rows[k], one _combine with coefficient
    one on the row itself."""
    one, zero = ring.field.one, ring.zero()
    rows = []
    for scale, source in history:
        scale = one if scale is None else scale
        if isinstance(source, int):
            row = tuple(ring.constant(scale) if k == source else zero for k in range(width))
        else:
            coeffs = [c.scalar_mul(scale) for _, c in source]
            row = _combine(ring, coeffs, [rows[k] for k, _ in source], width)
        rows.append(row)
    kept, quotients, order = reduction
    rows = [rows[i] for i in kept]
    unit = ring.one()
    reduced = [
        _combine(ring, [unit] + [-q for _, q in pairs], [row] + [rows[k] for k, _ in pairs], width)
        if pairs else row
        for row, pairs in zip(rows, quotients)
    ]
    return [reduced[pos] for pos in order]


def _interreduce(module, basis, opts):
    """Minimal leads, full tail reduction, canonical sort; the deadline of
    opts is checked once per kept element.  Returns the elements and the
    record from which _replay reduces their rows."""
    def key(elem):
        lt = elem.lead_term()
        return (
            mono_degree(lt.monomial) + module.shifts[lt.component],
            tuple(_neg_key(module.order.key(lt.monomial, lt.component))),
        )

    idxs = sorted(range(len(basis)), key=lambda i: key(basis[i]))
    kept = []
    kept_leads = []  # (lead, lead mask) per kept element
    for i in idxs:
        lt = basis[i].lead_term()
        lead_mask = module.ring.monomial_mask(lt.monomial)
        if any(
            kl.component == lt.component
            and not km & ~lead_mask
            and mono_div(lt.monomial, kl.monomial) is not None
            for kl, km in kept_leads
        ):
            continue
        kept.append(i)
        kept_leads.append((lt, lead_mask))

    elements = [basis[i] for i in kept]
    reduced = []
    quotients = []
    for pos, elem in enumerate(elements):
        opts.check_deadline()
        others = elements[:pos] + elements[pos + 1:]
        pairs = []
        if others:
            div = module_divide(elem, others, opts)
            elem = div.remainder
            pairs = [
                (k if k < pos else k + 1, q)
                for k, q in enumerate(div.quotients) if not q.is_zero
            ]
        reduced.append(elem)
        quotients.append(pairs)

    order = sorted(range(len(reduced)), key=lambda pos: key(reduced[pos]))
    return [reduced[pos] for pos in order], (kept, quotients, order)


def _neg_key(key):
    """Order-reversing wrapper so sorted() puts larger keys first."""
    if isinstance(key, tuple):
        return tuple(_neg_key(k) for k in key)
    return -key


def _lift_spair(elements, leads, i, j, opts=None):
    """Divide the S-element of elements i < j (same lead component) once
    through the list, under the deadline of opts.

    Returns (remainder, coeffs): coeffs[k] is the coefficient of element k
    in remainder = sum coeffs[k] * elements[k], that is the trivial-syzygy
    terms c_i x^u at i and -c_j x^v at j minus the quotients.  With a zero
    remainder, coeffs is the syzygy that Schreyer's construction attaches
    to the pair; in the completion it is the new element's transform row
    over the basis.

    The S-element is formed from the two integer forms f~ (with leads t_i,
    t_j), each component one merge a x^u f~_i - b x^v f~_j by
    Polynomial.submul with scale a, where a t_i == b t_j == lam: over QQ
    (a, b) comes from field.cancel, so the S-element is 1/lam times those
    integer components, and module_divide starts from that form without
    building a Fraction; over a prime field a = 1/t_i, b = 1/t_j and
    lam = 1.  A zero S-element is not divided.
    """
    li, lj = leads[i], leads[j]
    module = elements[i].module
    ring, field = module.ring, module.ring.field
    lcm = mono_lcm(li.monomial, lj.monomial)
    u, v = mono_div(lcm, li.monomial), mono_div(lcm, lj.monomial)
    _, _, fi, bits_i = elements[i].integer_form()
    _, _, fj, bits_j = elements[j].integer_form()
    ti, tj = fi[li.component].terms[0].coeff, fj[lj.component].terms[0].coeff
    if bits_i is None:  # a prime field
        a, b, lam, bits = field.inv(ti), field.inv(tj), 1, None
    else:
        a, b = field.cancel(ti, tj)
        lam = a * ti
        # a bound on the coefficients' bit length, for the content removal
        bits = max(bits_i + a.bit_length(), bits_j + b.bit_length()) + 1
    comps = tuple(pi.monomial_mul(1, u).submul(b, v, pj, a) for pi, pj in zip(fi, fj))
    # module_divide reads only the form; over QQ the components are lam * s
    s = ModuleElement(module, comps)
    s._form = (1, lam, comps, bits) if lam > 0 else (-1, -lam, comps, bits)
    if s.is_zero:
        rem, coeffs = s, [ring.zero()] * len(elements)
    else:
        div = module_divide(s, elements, opts)
        rem, coeffs = div.remainder, [-q for q in div.quotients]
    ci, cj = field.inv(li.coeff), field.inv(lj.coeff)
    coeffs[i] = coeffs[i] + Polynomial(ring, (Term(ci, u),))
    coeffs[j] = coeffs[j] - Polynomial(ring, (Term(cj, v),))
    return rem, tuple(coeffs)


def _integer_terms(p):
    """(num, den, terms) with p = num/den * sum of the (integer, monomial)
    terms, the form _combine multiplies (fields.Field.integer_form); over
    a prime field, p's own terms under scale one."""
    if not p.terms:
        return 1, 1, ()
    form = p.ring.field.integer_form(c for c, _ in p.terms)
    if form is None:
        return 1, 1, p.terms
    return form[0], form[1], list(zip(form[2], [m for _, m in p.terms]))


def _combine(ring, coeffs, rows, width):
    """The row vector coeffs times the matrix rows: a width-tuple whose
    entry col is sum_k coeffs[k] * rows[k][col], exact over either field.

    Factors are taken in integer form (_integer_terms); a row entry may
    come converted, for callers that push many vectors through one row
    set.  Each column sums integer products into one {monomial: int}
    accumulator under one denominator D, raised to the lcm (and the
    accumulator multiplied up) when a product's scale brings a new one.
    Each column is sorted once by the ring's cached key, and each
    coefficient is one field.div(v, D), zeros dropped.
    """
    accs = [{} for _ in range(width)]
    dens = [1] * width
    for c, row in zip(coeffs, rows):
        if not c.terms:
            continue
        cn, cd, cterms = _integer_terms(c)
        for col, t in enumerate(row):
            tn, td, tterms = t if type(t) is tuple else _integer_terms(t)
            if not tterms:
                continue
            h = gcd(cn * tn, cd * td)
            num, den = cn * tn // h, cd * td // h
            acc, d = accs[col], dens[col]
            if d % den:
                up = den // gcd(d, den)
                for m in acc:
                    acc[m] *= up
                d = dens[col] = d * up
            num *= d // den
            get = acc.get
            for a, ma in cterms:
                a *= num
                for b, mb in tterms:
                    m = tuple(map(add, ma, mb))
                    acc[m] = get(m, 0) + a * b

    fdiv, key, new = ring.field.div, ring._key, tuple.__new__
    return tuple(
        Polynomial(ring, tuple([
            new(Term, (c, m)) for m in sorted(acc, key=key, reverse=True) if (c := fdiv(acc[m], d))
        ]))
        for acc, d in zip(accs, dens)
    )


def is_module_groebner(elements) -> bool:
    """Whether every S-pair of the list reduces to zero against it: the
    Schreyer construction goes through (each pair divided once)."""
    elements = list(elements)
    if any(e.is_zero for e in elements):
        raise ValueError("zero element in basis")
    return _syzygies_of_basis(elements) is not None


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------

def syzygy_module_for(elements) -> FreeModule:
    """Free module whose basis maps onto the given elements, carrying the
    Schreyer order they induce."""
    module = elements[0].module
    leads = [e.lead_term() for e in elements]
    shifts = tuple(e.degree() if e.is_homogeneous() else 0 for e in elements)
    order = SchreyerOrder(leads, module.order)
    return FreeModule(module.ring, shifts, order)


def _syzygies_of_basis(basis_elements, pair_subset=None, opts=None):
    """Syzygies of a Groebner basis via the Schreyer construction, or None
    when the list is not a Groebner basis (some S-pair leaves a remainder).
    The divisions run under the deadline of opts.

    Each pair is lifted once, and its coefficient vector is the syzygy.
    With all pairs (the default) the output is a Groebner basis of the
    syzygy module under the induced order; a pair_subset that still
    generates the trivial syzygies yields a generating set."""
    elements = list(basis_elements)
    m1 = syzygy_module_for(elements)
    leads = [e.lead_term() for e in elements]
    out = []
    for j in range(len(elements)):
        for i in range(j):
            li, lj = leads[i], leads[j]
            if li.component != lj.component:
                continue
            if pair_subset is not None and (i, j) not in pair_subset:
                continue
            rem, coeffs = _lift_spair(elements, leads, i, j, opts)
            if not rem.is_zero:
                return None
            syz = ModuleElement(m1, coeffs)
            u = mono_div(mono_lcm(li.monomial, lj.monomial), li.monomial)
            assert syz.lead_term()[1:] == (u, i), (
                "syzygy lead drifted from the trivial syzygy lead"
            )
            out.append(syz)
    return out


def syzygy_generators(elements, opts: BuchbergerOptions | None = None,
                      lex_sort: bool = False):
    """Generators of Syz(elements) for an arbitrary generating list.

    Complete to a reduced basis F with transform T (so F = T * elements),
    divide each input back through F to get quotients Q, and combine:
    syzygies of F pushed through T, plus the conversion relations, the
    nonzero rows of (Id - Q T).  Any relation h among the inputs splits as
    h = h (Id - Q T) + (h Q) T with h Q a syzygy of F, so these generate.
    """
    basis = module_buchberger(elements, opts)
    if not basis.complete:
        raise CapInterrupted("degree cap interrupted the completion")
    if lex_sort:
        order = sorted(
            range(len(basis.elements)),
            key=lambda i: basis.elements[i].lead_term().monomial,
            reverse=True,
        )
        felems = [basis.elements[i] for i in order]
        rows = [basis.transform[i] for i in order]
    else:
        felems = basis.elements
        rows = basis.transform

    ring = felems[0].module.ring
    target = syzygy_module_for(elements)
    pairs = surviving_pairs([e.lead_term() for e in felems], product_rule=False)
    syz = _syzygies_of_basis(felems, pair_subset=pairs, opts=opts)
    if syz is None:
        raise AssertionError("a completed basis failed its own Groebner check")
    rows = [tuple(map(_integer_terms, row)) for row in rows]  # converted once for all pushes
    out = []
    for s in syz:
        pushed = target.element(_combine(ring, s.comps, rows, target.rank))
        if not pushed.is_zero:
            out.append(pushed)

    one, zero = ring.one(), ring.zero()
    for a, g in enumerate(elements):
        div = module_divide(g, felems, opts)
        if not div.remainder.is_zero:
            raise AssertionError("generator failed to divide through its own basis")
        unit = tuple(one if k == a else zero for k in range(target.rank))
        coeffs = [one] + [-q for q in div.quotients]
        elem = target.element(_combine(ring, coeffs, [unit, *rows], target.rank))
        if not elem.is_zero:
            out.append(elem)
    return out


def syzygies(F, opts: BuchbergerOptions | None = None):
    """Generators of the syzygy module of F.

    One pass of the Schreyer construction divides each S-pair once.  When
    every remainder is zero, F (or a ModuleGroebnerBasis's elements) is a
    Groebner basis and the output is a Groebner basis of the syzygy module
    under the induced order.  Otherwise the pass stops at the first nonzero
    remainder, and F is completed and its syzygies are carried back onto
    the original generators through the transform.
    """
    elements = list(F.elements if isinstance(F, ModuleGroebnerBasis) else F)
    if not elements:
        return []
    if isinstance(elements[0], Polynomial):
        _, elements = as_module_elements(elements)
    for k, e in enumerate(elements):
        if e.is_zero:
            raise ValueError(f"zero element at position {k}")
    syz = _syzygies_of_basis(elements, opts=opts)
    return syz if syz is not None else syzygy_generators(elements, opts)


# ---------------------------------------------------------------------------
# minimal generators
# ---------------------------------------------------------------------------

def minimalize_generators(items, opts: BuchbergerOptions | None = None):
    """Trim a homogeneous generating list to a minimal one.

    Candidates are scanned by ascending degree (ties by input position) and
    kept when they lie outside the span of the degree-d multiples of those
    kept before; graded Nakayama makes the survivor count intrinsic.  That
    is a rank question (Lazard, 1983): per degree, one oracle.Echelon takes
    the multiples m*k of the kept k of lower degree, then the candidates,
    each kept when it raises the rank.  Columns are (component, monomial)
    pairs in descending module order, so rows are reduced at their leads.
    Only multiples linked to a candidate's columns through shared columns
    join: a row space is the direct sum of those of its connected components.
    No completion runs, so a degree cap has nothing to truncate; the
    deadline of opts is checked as each row is built and as it is reduced.
    """
    items = list(items)
    wrap = bool(items) and isinstance(items[0], Polynomial)
    elements = [e for e in (as_module_elements(items)[1] if wrap else items) if not e.is_zero]
    if not all(e.is_homogeneous() for e in elements):
        raise ValueError("minimal generators need homogeneous input")
    opts = opts or BuchbergerOptions()
    kept = []
    by_degree = sorted(range(len(elements)), key=lambda i: (elements[i].degree(), i))
    for _, group in groupby(by_degree, key=lambda i: elements[i].degree()):
        group = [elements[i] for i in group]
        rows = [_row(cand) for cand in group]
        columns = list({c: None for row in rows for c in row})
        seen = set(columns)
        multiples = {}  # (kept position, monomial m) -> row of m * kept[position]
        for comp, mono in columns:  # grows as the multiples bring new columns
            for pos, k in enumerate(kept):
                for t in k.comps[comp].terms:
                    m = mono_div(mono, t.monomial)
                    if m is not None and (pos, m) not in multiples:
                        opts.check_deadline()
                        multiples[pos, m] = row = _row(k, m)
                        columns.extend(c for c in row if c not in seen)
                        seen.update(row)
        module = group[0].module
        columns.sort(key=lambda c: module.order.key(c[1], c[0]), reverse=True)
        index = {c: n for n, c in enumerate(columns)}
        echelon = Echelon(module.ring.field)
        for row in multiples.values():
            opts.check_deadline()
            echelon.add({index[c]: x for c, x in row.items()})
        for cand, row in zip(group, rows):
            opts.check_deadline()
            if echelon.add({index[c]: x for c, x in row.items()}):
                kept.append(cand)
    return [e.comps[0] for e in kept] if wrap else kept


def _row(elem, mono=None):
    """Sparse row {(component, monomial): coeff} of mono * elem."""
    return {
        (ci, t.monomial if mono is None else mono_mul(t.monomial, mono)): t.coeff
        for ci, p in enumerate(elem.comps)
        for t in p.terms
    }
