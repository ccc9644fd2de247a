"""Weight-vector degenerations: initial forms, one-parameter flat families,
and the Hilbert-function flatness check.

A weight vector W acts through the diagonal substitution x_i -> t^(w_i) x_i.
Rescaling each generator so its least t-power is zero gives polynomials over
S[t] whose t=1 slice is the original ideal and whose t=0 slice is the ideal
of initial forms.  We never compute in S[t]: the exponent of t on a term
x^A is just W.A minus the generator's baseline, so a completed basis under
the weight order carries the whole family implicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .buchberger import BuchbergerOptions
from .ideals import _complete_basis, hilbert_function
from .orders import weight_order
from .poly import Polynomial, PolynomialRing

__all__ = [
    "initial_form", "FamilyMember", "FlatFamily", "flat_family",
    "family_from_generators", "FlatnessReport", "flatness_check",
]


def _weight_of(mono, W):
    return sum(w * e for w, e in zip(W, mono))


def initial_form(f: Polynomial, W) -> Polynomial:
    """Sum of the terms of f with minimal weight W.A (the t -> 0 limit)."""
    if f.is_zero:
        raise ValueError("zero polynomial has no initial form")
    W = tuple(W)
    if len(W) != f.ring.nvars:
        raise ValueError("weight vector length does not match the ring")
    weights = [(_weight_of(t.monomial, W), t) for t in f.terms]
    least = min(w for w, _ in weights)
    return Polynomial(f.ring, tuple(t for w, t in weights if w == least))


class FamilyMember(NamedTuple):
    poly: Polynomial          # the t = 1 fiber
    t_exponents: tuple        # one exponent per stored term


def _member_for(f: Polynomial, W) -> FamilyMember:
    ws = [_weight_of(t.monomial, W) for t in f.terms]
    least = min(ws)
    return FamilyMember(f, tuple(w - least for w in ws))


@dataclass(frozen=True)
class FlatFamily:
    ring: PolynomialRing
    weights: tuple
    members: tuple

    def generators_at_one(self):
        return [m.poly for m in self.members]

    def generators_at_zero(self):
        return [
            Polynomial(
                m.poly.ring,
                tuple(t for t, e in zip(m.poly.terms, m.t_exponents) if e == 0),
            )
            for m in self.members
        ]

    def to_json(self) -> str:
        blob = []
        for m in self.members:
            blob.append(
                [
                    {
                        "monomial": list(t.monomial),
                        "coeff": str(t.coeff),
                        "t_exp": e,
                    }
                    for t, e in zip(m.poly.terms, m.t_exponents)
                ]
            )
        return json.dumps({"weights": list(self.weights), "generators": blob})

    def __str__(self):
        lines = []
        for m in self.members:
            parts = []
            for t, e in zip(m.poly.terms, m.t_exponents):
                single = Polynomial(m.poly.ring, (t,))
                body = str(single)
                sign = "- " if body.startswith("-") else ("+ " if parts else "")
                body = body.lstrip("-")
                tpow = "" if e == 0 else ("t*" if e == 1 else f"t^{e}*")
                parts.append(f"{sign}{tpow}{body}")
            lines.append(" ".join(parts))
        return "\n".join(lines)


def family_from_generators(gens, W) -> FlatFamily:
    """Wrap generators with their t-exponent bookkeeping, no completion.

    Useful to inspect candidate families that may fail flatness.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("empty family")
    W = tuple(W)
    ring = gens[0].ring
    if len(W) != ring.nvars:
        raise ValueError("weight vector length does not match the ring")
    return FlatFamily(ring, W, tuple(_member_for(g, W) for g in gens))


def flat_family(gens, W, opts: BuchbergerOptions | None = None) -> FlatFamily:
    """Complete generators into a flat degeneration along W.

    Buchberger under the weight order, ties broken by grevlex, produces a
    basis whose t=1 fiber is the ideal and whose t=0 fiber is in_W(I); the
    t-exponents are reconstructed from W afterwards.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("empty family")
    W = tuple(W)
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError("flat families need homogeneous input")
    gb = _complete_basis(gens, order=weight_order(W), opts=opts)
    return FlatFamily(gb.ring, W, tuple(_member_for(f, W) for f in gb.elements))


@dataclass(frozen=True)
class FlatnessReport:
    passed: bool
    first_mismatch_degree: int | None
    general_fiber: list
    special_fiber: list

    def __str__(self):
        verdict = "PASS" if self.passed else f"FAIL at degree {self.first_mismatch_degree}"
        return (
            f"flatness: {verdict}\n"
            f"  t=1 Hilbert function: {self.general_fiber}\n"
            f"  t=0 Hilbert function: {self.special_fiber}"
        )


def flatness_check(family: FlatFamily,
                   opts: BuchbergerOptions | None = None) -> FlatnessReport:
    """Hilbert-function proxy for flatness of the family over the t-line.

    A flat degeneration keeps the Hilbert function constant, and the t=0
    ideal of a completed basis realizes it; any extra central-fiber
    component shows up as a dimension drop in some degree, reported here.
    The fibers are compared in degrees 0 through the top generator degree
    plus 3, each Hilbert function completed under opts: a cap that cuts
    either completion below that degree raises CapInterrupted.
    """
    t1 = [g for g in family.generators_at_one() if not g.is_zero]
    t0 = [g for g in family.generators_at_zero() if not g.is_zero]
    if not t1:
        return FlatnessReport(True, None, [], [])
    d_max = max(g.total_degree() for g in t1) + 3
    h1 = hilbert_function(t1, d_max, opts)
    h0 = hilbert_function(t0, d_max, opts)
    first = next((d for d in range(d_max + 1) if h1[d] != h0[d]), None)
    return FlatnessReport(first is None, first, h1, h0)

