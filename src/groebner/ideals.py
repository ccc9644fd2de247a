"""Derived ideal operations: initial ideals, elimination, saturation,
quotients, Hilbert functions, membership certificates, Borel-fixedness and
the saturation defect.

Hilbert functions, saturations and their defects read Hilbert series off
leads in ``series``, their one home, which the completion engine shares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import ceil, comb, log2

from .buchberger import BuchbergerOptions, GroebnerBasis, buchberger
from .division import divide
from .modules import CapInterrupted, _combine, _neg_key, syzygies
from .orders import GREVLEX, OrderSpec, eliminate_order
from .poly import (
    CoordinateChange,
    Polynomial,
    PolynomialRing,
    Term,
    last_variable_change,
    mono_degree,
    mono_div,
    mono_divides,
)
from .resolutions import free_resolution, regularity
from .series import _exact_quotient, _minimal_monomials, _numerator, _series_values

__all__ = [
    "MonomialIdeal", "initial_ideal", "eliminate", "saturate_variable",
    "ideal_quotient", "ideal_quotient_saturation", "hilbert_function",
    "MembershipCertificate", "membership", "is_borel_fixed",
    "homogenize", "homogenize_polynomial", "dehomogenize_polynomial",
    "CoordinateChange", "generic_change", "saturation", "SatDefect", "sat_defect",
]


def _complete_basis(gens, order=None, opts=None, through=None) -> GroebnerBasis:
    """Basis, or CapInterrupted: derived operations must never read a
    truncated basis as if it were the whole story.

    A caller that reads only degrees <= D of a homogeneous ideal passes
    through=D, and the completion stops above D unless the caller's cap
    stops it first.  Pairs are treated by ascending degree, so the run is a
    prefix of the full one, and the interreduction sorts by degree: the
    elements of degree <= D and their transform rows are those of the full
    basis, at the same positions.  Only they can divide a term of degree
    <= D, so divisions of such polynomials match too (Lazard, 1983).
    """
    cap = opts.degree_cap if opts else None
    if (through is not None and (cap is None or cap >= through)
            and all(g.is_homogeneous() for g in gens)):
        return buchberger(gens, order=order, opts=replace(opts or BuchbergerOptions(),
                                                          degree_cap=through))
    gb = buchberger(gens, order=order, opts=opts)
    if not gb.complete:
        raise CapInterrupted("degree cap interrupted the completion")
    return gb


# ---------------------------------------------------------------------------
# monomial ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators of a monomial ideal, canonically sorted."""

    ring: PolynomialRing
    gens: tuple

    @classmethod
    def from_monomials(cls, ring, monos):
        minimal = _minimal_monomials(tuple(m) for m in monos)
        # within a degree, larger monomials first
        ordered = sorted(
            minimal, key=lambda m: (mono_degree(m), _neg_key(ring.monomial_key(m)))
        )
        return cls(ring, tuple(ordered))

    def contains(self, mono) -> bool:
        return any(mono_divides(g, tuple(mono)) for g in self.gens)

    def polynomials(self):
        return [self.ring.monomial(m) for m in self.gens]

    def monomials_of_degree(self, d: int):
        from .oracle import monomials_of_degree as all_monos

        return [m for m in all_monos(self.ring.nvars, d) if self.contains(m)]

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)


def initial_ideal(gens, order: OrderSpec | None = None,
                  opts: BuchbergerOptions | None = None) -> MonomialIdeal:
    """Minimal generators of the ideal of lead terms, via the reduced basis."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("zero ideal has no initial ideal generators")
    gb = _complete_basis(gens, order=order, opts=opts)
    return MonomialIdeal.from_monomials(gb.ring, [f.lead_monomial for f in gb.elements])


# ---------------------------------------------------------------------------
# elimination and saturation
# ---------------------------------------------------------------------------

def _supported_on(f: Polynomial, first_kept: int) -> bool:
    return all(all(e == 0 for e in t.monomial[:first_kept]) for t in f.terms)


def eliminate(gens, first_kept: int, opts: BuchbergerOptions | None = None):
    """Generators of the intersection with k[x_i, ..., x_n], i = first_kept.

    Runs the dedicated elimination order (total degree in the projected
    variables first, grevlex tiebreak); the survivors form a Groebner basis
    of the intersection under the induced order.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ring = gens[0].ring
    if first_kept <= 0:
        return list(_complete_basis(gens, opts=opts).elements)
    if first_kept >= ring.nvars:
        raise ValueError("nothing would be kept")
    gb = _complete_basis(gens, order=eliminate_order(first_kept), opts=opts)
    return [f for f in gb.elements if _supported_on(f, first_kept)]


def _strip_variable(f: Polynomial, var_index: int) -> Polynomial:
    """f over the largest power of x_var_index dividing it; dividing every
    term by one monomial keeps their order."""
    shared = min(t.monomial[var_index] for t in f.terms)
    if shared == 0:
        return f
    unit = tuple(shared if k == var_index else 0 for k in range(f.ring.nvars))
    return Polynomial(f.ring, tuple(Term(t.coeff, mono_div(t.monomial, unit)) for t in f.terms))


def saturate_variable(gens, opts: BuchbergerOptions | None = None):
    """Reduced grevlex basis of (I : x_n^infinity) for the last variable.

    Under grevlex the last variable divides a homogeneous element exactly
    when it divides its lead term, so stripping shared x_n powers from the
    grevlex basis of I yields a basis of the saturation in one pass; a
    second completion only reduces it.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    return list(_complete_basis(_saturate_last(gens, opts)[1], opts=opts).elements)


def _saturate_last(gens, opts):
    """(grevlex basis of I, the same basis stripped of x_n powers) for
    nonzero gens: one completion.  For homogeneous I the stripped list is a
    grevlex basis of (I : x_n^infinity), but not a reduced one: its leads
    are the stripped leads (see saturate_variable)."""
    gb = _complete_basis(gens, order=GREVLEX, opts=opts)
    last = gb.ring.nvars - 1
    return gb.elements, [_strip_variable(f, last) for f in gb.elements]


def ideal_quotient(gens, f: Polynomial, opts: BuchbergerOptions | None = None):
    """Generators of (I : f) = {g : f*g in I}.

    The colon ideal falls out of syzygies of [f, generators]: the first
    coordinate of any relation multiplies f into I, and every such
    multiplier arises this way.
    """
    gens = [g for g in gens if not g.is_zero]
    if f.is_zero:
        raise ValueError("cannot divide an ideal by zero")
    if not gens:
        return []
    ring = gens[0].ring
    if f.ring != ring:
        raise ValueError("ring mismatch")
    rels = syzygies([f] + gens, opts)
    coords = [s.comps[0] for s in rels if not s.comps[0].is_zero]
    if not coords:
        return []
    return list(_complete_basis(coords, opts=opts).elements)


def ideal_quotient_saturation(gens, f: Polynomial, opts: BuchbergerOptions | None = None):
    """Reduced basis of (I : f^infinity) in the ring of I.

    (I : f^infinity) is (I, 1 - t*f) intersected with k[x] (Rabinowitsch):
    one elimination of a fresh first variable t, in a grevlex ring since a
    weight order has no weight for t, and one completion back in the ring
    of I.  A weight order still refuses inhomogeneous I or f, as its
    completions do.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    if f.is_zero:
        raise ValueError("cannot divide an ideal by zero")
    ring = gens[0].ring
    if f.ring != ring:
        raise ValueError("ring mismatch")
    if not ring.order.is_well_order and not all(g.is_homogeneous() for g in gens + [f]):
        raise ValueError("weight orders need homogeneous generators")
    name = "t"
    while name in ring.names:
        name += "_"
    tring = PolynomialRing(ring.field, (name,) + ring.names, GREVLEX)

    def lift(g):
        return tring.polynomial((c, (0,) + m) for c, m in g.terms)

    t = tring.variable(0)
    kept = eliminate([lift(g) for g in gens] + [tring.one() - t * lift(f)], 1, opts)
    dropped = [ring.polynomial((c, m[1:]) for c, m in g.terms) for g in kept]
    return list(_complete_basis(dropped, opts=opts).elements)


# ---------------------------------------------------------------------------
# Hilbert functions
# ---------------------------------------------------------------------------

def hilbert_function(ideal, d_max: int, opts: BuchbergerOptions | None = None) -> list:
    """dim_k (S/I)_d for d = 0..d_max.

    Polynomial input routes through the initial ideal, which shares the
    Hilbert function; its degrees <= d_max need the basis only through
    d_max, so the completion stops there (see _complete_basis), and a cap
    in opts raises CapInterrupted only when it lies below d_max and cuts
    the completion.  Monomial input is counted directly.
    """
    if isinstance(ideal, MonomialIdeal):
        return _series_values(_numerator(ideal.gens), ideal.ring.nvars, d_max)
    gens = [g for g in ideal if not g.is_zero]
    if not gens:
        raise ValueError("pass a MonomialIdeal or nonzero generators")
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("Hilbert functions need homogeneous input")
    gb = _complete_basis(gens, opts=opts, through=d_max)
    return _series_values(_numerator(f.lead_monomial for f in gb.elements), gb.ring.nvars, d_max)


# ---------------------------------------------------------------------------
# membership certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipCertificate:
    member: bool
    coefficients: tuple
    max_coeff_degree: int | None

    def expand(self, gens):
        acc = None
        for a, g in zip(self.coefficients, gens):
            piece = a * g
            acc = piece if acc is None else acc + piece
        return acc


def membership(g: Polynomial, gens, opts: BuchbergerOptions | None = None) -> MembershipCertificate:
    """Decide g in (gens) and, for members, produce the exact combination.

    Every input takes one route.  g and the nonzero generators are
    homogenized into grevlex with a fresh homogenizer u last, and (gens)^h
    is completed once.  If e is the largest power of u dividing a basis
    element, then u^e (I^h : u^infinity) lies in I^h (Bayer-Stillman), so g
    is a member exactly when u^k g^h reduces to zero for some k <= e; the
    quotients of the first such k, rolled through the transform and
    dehomogenized, are the certificate.  Homogeneous input has e = 0.  On a
    grevlex ring this is the ring's own arithmetic; rings under other orders
    get their certificates from the grevlex basis.  The certificate has one
    coefficient per generator, zero at a zero generator; when every
    generator is zero, g is a member exactly when it is zero.

    When the nonzero generators are homogeneous, g lies in I exactly when
    each homogeneous part g_d lies in I_d, d <= deg g, so (gens)^h is completed
    only through deg g (see _complete_basis): a cap in opts raises
    CapInterrupted only when it lies below deg g and cuts the completion.
    Inhomogeneous generators are completed in full, since the power of u
    to try is read off the whole basis.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("membership in the zero ideal is just g == 0")
    ring = g.ring
    if any(f.ring != ring for f in gens):
        raise ValueError("ring mismatch")

    nonzero = [i for i, f in enumerate(gens) if not f.is_zero]
    if not nonzero:
        if g.is_zero:
            return MembershipCertificate(True, (ring.zero(),) * len(gens), 0)
        return MembershipCertificate(False, (), None)

    name = "u"
    while name in ring.names:
        name += "_"
    hring = ring.with_order(GREVLEX).append_variable(name)
    # homogenizing makes every generator homogeneous; only the caller's own
    # homogeneous generators make one degree enough
    through = g.total_degree() if all(gens[i].is_homogeneous() for i in nonzero) else None
    gb = _complete_basis([homogenize_polynomial(gens[i], hring) for i in nonzero],
                         opts=opts, through=through)
    gh = homogenize_polynomial(g, hring)
    u = hring.variable(name)
    power = hring.one()
    for _ in range(max(f.lead_monomial[-1] for f in gb.elements) + 1):
        div = divide(gh * power, gb.elements)
        if div.remainder.is_zero:
            coeffs = [ring.zero()] * len(gens)
            for i, c in zip(nonzero, _combine(hring, div.quotients, gb.transform, len(nonzero))):
                coeffs[i] = dehomogenize_polynomial(c, ring)
            degs = [a.total_degree() for a in coeffs if not a.is_zero]
            return MembershipCertificate(True, tuple(coeffs), max(degs) if degs else 0)
        power = power * u
    return MembershipCertificate(False, (), None)


# ---------------------------------------------------------------------------
# Borel fixedness
# ---------------------------------------------------------------------------

def is_borel_fixed(M: MonomialIdeal) -> bool:
    """Stability under upper-triangular exchanges x_j -> x_i, i < j.

    The exchange test characterizes Borel fixedness in characteristic zero
    (or p larger than every exponent in sight); callers over small prime
    fields get the combinatorial check, not a group-theoretic certificate.
    """
    for m in M.gens:
        for j in range(1, len(m)):
            if m[j] == 0:
                continue
            for i in range(j):
                swapped = tuple(
                    e + 1 if k == i else e - 1 if k == j else e for k, e in enumerate(m)
                )
                if not M.contains(swapped):
                    return False
    return True


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------

def homogenize_polynomial(f: Polynomial, hring: PolynomialRing) -> Polynomial:
    if f.is_zero:
        return hring.zero()
    d = f.total_degree()
    return hring.polynomial(
        (t.coeff, t.monomial + (d - mono_degree(t.monomial),)) for t in f.terms
    )


def dehomogenize_polynomial(f: Polynomial, ring: PolynomialRing) -> Polynomial:
    return ring.polynomial((t.coeff, t.monomial[:-1]) for t in f.terms)


def homogenize(gens):
    """Homogenize each generator to its own degree with a new last
    variable u; returns (extended ring, new generators, old ring).  Under a
    weight order u gets weight 0."""
    gens = list(gens)
    if not gens:
        raise ValueError("nothing to homogenize")
    ring = gens[0].ring
    order = ring.order
    if order.kind == "weight":
        order = replace(order, weights=order.weights + (0,))
    hring = ring.append_variable("u", order)
    return hring, [homogenize_polynomial(g, hring) for g in gens], ring


# ---------------------------------------------------------------------------
# generic coordinate changes and full saturation
# ---------------------------------------------------------------------------

def generic_change(gens, seed: int = 0) -> tuple:
    """Apply a seeded random invertible linear change of coordinates."""
    from .oracle import invert_matrix

    gens = list(gens)
    ring = gens[0].ring
    rng = random.Random(seed)
    for _ in range(64):
        matrix = [
            [ring.field.random_scalar(rng) for _ in range(ring.nvars)]
            for _ in range(ring.nvars)
        ]
        inverse = invert_matrix(matrix, ring.field)
        if inverse is not None:
            change = CoordinateChange(ring, matrix, inverse)
            return [change.apply(g) for g in gens], change
    raise RuntimeError("could not sample an invertible change of coordinates")


def _saturation_forms(field, k, seed):
    """The coefficients c of the forms x_k + sum_{i<k} c_i x_i that
    _generic_saturation tries, the first drawn from the seed.  A drawn form
    falls in a given proper subspace with probability at most 1/q over F_q,
    so max(3, ceil(64 / log2 q)) are drawn (three over QQ); when F_q has no
    more forms than that, all q^k are tried, counting up from the seeded
    one in base q."""
    rng = random.Random(seed)
    q = field.modulus
    draws = 3 if q is None else max(3, ceil(64 / log2(q)))
    forms = [[field.random_scalar(rng) for _ in range(k)] for _ in range(draws)]
    if q is not None and q ** k <= draws:
        start = sum(c * q ** i for i, c in enumerate(forms[0]))
        return [[n % q ** k // q ** i % q for i in range(k)] for n in range(start, start + q ** k)]
    return forms


def _generic_saturation(gens, seed: int, opts: BuchbergerOptions | None):
    """(basis, change, defect, numerator): a grevlex basis of
    sat I = (I : m^infinity) in the coordinates of change, for nonzero
    homogeneous gens, the defect series {d: dim (sat I / I)_d}, and N_J,
    the Hilbert-series numerator of S/sat I over (1-t)^n.  The basis is the
    stripped one of _saturate_last, not reduced, so each form tried costs
    one completion.

    sat I = (I : l^infinity) for one general linear form l (Bayer-Stillman),
    and changing the last variable alone makes l that variable.  For any l,
    J = (I : l^infinity) contains sat I and is saturated, and two different
    saturated ideals differ in every large degree.  So J = sat I exactly
    when (1-t)^n divides N_I - N_J, the difference of the Hilbert-series
    numerators read off the leads, and the quotient is the defect series.
    An unlucky form fails the division, and the next seeded form is tried.
    """
    ring, nvars = gens[0].ring, gens[0].ring.nvars
    for coeffs in _saturation_forms(ring.field, nvars - 1, seed):
        change = last_variable_change(ring, nvars, coeffs)
        basis, sat = _saturate_last([change.apply(g) for g in gens], opts)
        n_i, n_j = (_numerator(f.lead_monomial for f in b) for b in (basis, sat))
        defect = _exact_quotient({d: n_i.get(d, 0) - n_j.get(d, 0) for d in n_i | n_j}, nvars)
        if defect is not None:
            return sat, change, defect, n_j
    raise RuntimeError("no general linear form found; the field may be too small")


def saturation(gens, seed: int = 0, opts: BuchbergerOptions | None = None):
    """Full saturation (I : m^infinity), as the reduced basis in the
    original coordinates.

    The saturation is (I : l^infinity) for a seeded general linear form l,
    proved exact by its Hilbert polynomial (see _generic_saturation); its
    stripped basis is carried back through the inverse change and
    completed once, two completions in all for a form that passes.
    RuntimeError means no tried form passed (see _saturation_forms): over
    a small field that happens when every form it has is a zero divisor.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    if not all(g.is_homogeneous() for g in gens):
        raise ValueError("saturation by the irrelevant ideal needs homogeneous input")
    sat, change, _, _ = _generic_saturation(gens, seed, opts)
    return list(_complete_basis([change.unapply(f) for f in sat], opts=opts).elements)


@dataclass(frozen=True)
class SatDefect:
    """dim_k(sat I / I) and its breakdown {d: dim (sat I / I)_d}, the
    regularity of I, and the bound binom(reg + n, n + 1) on the total.

    The regularity is exact in each of sat_defect's three cases: read off
    the defect alone when sat I is the unit ideal, off the Hilbert series
    of sat I when sat I cuts out finitely many points, and off the minimal
    resolution of I otherwise (see sat_defect for the proof).  Each
    Hilbert-series read behind it is made in ``series``, their one home.
    """

    total: int
    by_degree: dict
    regularity: int
    bound: int


def sat_defect(gens, seed: int = 0, opts: BuchbergerOptions | None = None) -> SatDefect:
    """dim_k(sat I / I) with its per-degree breakdown.

    The breakdown is the quotient of the Hilbert-series division that proves
    the saturation exact (see _generic_saturation), so the saturation stays
    in the coordinates where it was computed.  The defect lives below the
    regularity of I; the recorded bound is the closed ball count
    binom(reg + n, n + 1), which every run also asserts.

    The regularity comes from the saturation J = sat I whenever it can.
    H^0_m(S/I) = J/I, and J/I has finite length, so S/I and S/J share every
    higher local cohomology: reg I = max(e + 1, reg J), e the top degree of
    the defect series (Bayer-Stillman 1987; Eisenbud, "The Geometry of
    Syzygies", ch. 4).  Three cases:

    - J is the unit ideal: S/I has finite length and reg I = e + 1.
    - (1-t)^(n-1) divides N_J, that is dim S/J <= 1: J = (J : l) for the
      form l it was saturated by, so l is a nonzerodivisor on S/J and
      reg S/J = reg S/(J, l).  S/(J, l) has finite length and the series
      N_J / (1-t)^(n-1), a polynomial of degree reg J - 1; one exact
      division tests the case and gives the series.
    - otherwise the regularity is read off the minimal resolution of I.

    The zero ideal has no regularity to read, so it raises ValueError, as
    free_resolution does.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("nothing to resolve")
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("saturation defect needs homogeneous input")
    # unit ideal: nothing to saturate
    if any(g.total_degree() == 0 for g in gens):
        return SatDefect(0, {}, 0, 0)

    _, _, by_degree, n_sat = _generic_saturation(gens, seed, opts)
    n = gens[0].ring.nvars - 1
    reg = max(by_degree, default=-1) + 1
    # a unit saturation has the numerator 0; otherwise the series of S/(J, l)
    if n_sat:
        section = _exact_quotient(n_sat, n)
        if section is None:
            reg = regularity(free_resolution(gens, opts))
        else:
            reg = max(reg, max(section) + 1)
    total = sum(by_degree.values())
    bound = comb(reg + n, n + 1)
    if total > bound:
        raise AssertionError(
            f"saturation defect {total} exceeded its regularity bound {bound}"
        )
    return SatDefect(total, by_degree, reg, bound)
