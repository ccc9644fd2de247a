"""Multivariate division with remainder and quotients, plus S-polynomials.

Division is the rank-1 case of modules.module_divide: it picks the
least-index divisor whose lead term divides the current lead, subtracts the
matching multiple, and moves irreducible lead terms to the remainder.  The
result satisfies g = sum(quotients[i] * F[i]) + remainder exactly, and no
remainder term is divisible by any divisor lead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modules import as_module_elements, module_divide
from .poly import Polynomial, mono_div, mono_lcm

__all__ = ["DivisionResult", "divide", "s_polynomial", "normal_form"]


@dataclass(frozen=True)
class DivisionResult:
    remainder: Polynomial
    quotients: tuple
    reduction_steps: int


def divide(g: Polynomial, divisors) -> DivisionResult:
    divisors = list(divisors)
    if not divisors:
        raise ValueError("need at least one divisor")
    ring = g.ring
    for f in divisors:
        if f.ring != ring:
            raise ValueError("divisor ring does not match dividend ring")
        if f.is_zero:
            raise ValueError("zero divisor")
    if not ring.order.is_well_order:
        # weight orders only totalize degree by degree
        if not g.is_homogeneous() or any(not f.is_homogeneous() for f in divisors):
            raise ValueError("division under a weight order needs homogeneous input")
    _, (dividend, *elements) = as_module_elements([g] + divisors)
    div = module_divide(dividend, elements)
    return DivisionResult(div.remainder.comps[0], div.quotients, div.steps)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Cancel the lead terms of f and g at the lcm of their lead monomials."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of a zero polynomial")
    field = f.ring.field
    lcm = mono_lcm(f.lead_monomial, g.lead_monomial)
    return f.monomial_mul(
        field.inv(f.lead_coeff), mono_div(lcm, f.lead_monomial)
    ) - g.monomial_mul(field.inv(g.lead_coeff), mono_div(lcm, g.lead_monomial))


def normal_form(g: Polynomial, basis) -> Polynomial:
    """Remainder of g on division by a Groebner basis; canonical modulo the
    ideal, and zero exactly when g lies in it.  A basis object answers
    through its own normal_form, which first moves g to the basis's order;
    a plain list is divided through as it stands."""
    if hasattr(basis, "normal_form"):
        return basis.normal_form(g)
    if not basis:
        return g
    return divide(g, basis).remainder
