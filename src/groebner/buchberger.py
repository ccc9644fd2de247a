"""Groebner bases of ideals: completion and the Groebner check.

This is the rank-1 face of the module engine in modules.py, which also
holds the one pair criterion, the Gebauer–Möller update.  Basis elements
come back monic with a transform matrix over the original generators, built
when first read, so every basis element can be re-expanded exactly as a
combination of the input.
"""

from __future__ import annotations

from .division import divide
from .modules import (
    BuchbergerOptions,
    DeadlineExceeded,
    ModuleGroebnerBasis,
    as_module_elements,
    is_module_groebner,
    module_buchberger,
)
from .orders import OrderSpec
from .poly import Polynomial

__all__ = [
    "GroebnerBasis", "buchberger", "is_groebner",
    "BuchbergerOptions", "DeadlineExceeded",
]


class GroebnerBasis:
    """Reduced basis with provenance.

    elements   monic polynomials, canonically sorted
    transform  row i writes elements[i] as sum(transform[i][j] * generators[j]);
               the module basis builds the rows on first read
    """

    def __init__(self, ring, generators, basis: ModuleGroebnerBasis):
        self.ring = ring
        self.order = ring.order
        self.elements = [e.comps[0] for e in basis.elements]
        self.generators = list(generators)
        self.complete = basis.complete
        self._basis = basis

    @property
    def transform(self):
        return self._basis.transform

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def normal_form(self, g: Polynomial) -> Polynomial:
        g = g.reorder(self.ring) if g.ring != self.ring else g
        return divide(g, self.elements).remainder

    def contains(self, g: Polynomial) -> bool:
        return self.normal_form(g).is_zero

    def max_degree(self) -> int:
        return max(f.total_degree() for f in self.elements)


def buchberger(gens, order: OrderSpec | None = None, opts: BuchbergerOptions | None = None,
               **kwargs) -> GroebnerBasis:
    """Complete generators to a Groebner basis under the given order.

    The order defaults to the generators' ring order; passing one re-sorts
    the input into a ring copy first.  Keyword arguments are shorthand for
    BuchbergerOptions fields.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("cannot complete an empty generating list")
    if kwargs:
        if opts is not None:
            raise ValueError("pass either opts or keyword options, not both")
        opts = BuchbergerOptions(**kwargs)
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
        if g.is_zero:
            raise ValueError("zero generator")
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        gens = [g.reorder(ring) for g in gens]

    _, elements = as_module_elements(gens)
    return GroebnerBasis(ring, gens, module_buchberger(elements, opts))


def is_groebner(F, order: OrderSpec | None = None) -> bool:
    """True when every S-pair of the list reduces to zero against it."""
    F = list(F)
    if not F:
        raise ValueError("empty list")
    ring = F[0].ring
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        F = [f.reorder(ring) for f in F]
    return is_module_groebner(as_module_elements(F)[1])
