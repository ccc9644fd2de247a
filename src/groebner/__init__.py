"""Exact computer algebra over polynomial rings: Groebner bases, syzygies,
free resolutions, regularity, and weight-vector degenerations."""

from .buchberger import (
    BuchbergerOptions,
    DeadlineExceeded,
    GroebnerBasis,
    buchberger,
    is_groebner,
)
from .degeneration import (
    FlatFamily,
    family_from_generators,
    flat_family,
    flatness_check,
    initial_form,
)
from .division import DivisionResult, divide, normal_form, s_polynomial
from .families import mayr_meyer, random_ideal, twisted_cubic
from .fields import GF, QQ, Field, PrimeField, RationalField
from .ideals import (
    MembershipCertificate,
    MonomialIdeal,
    SatDefect,
    eliminate,
    generic_change,
    hilbert_function,
    homogenize,
    ideal_quotient,
    ideal_quotient_saturation,
    initial_ideal,
    is_borel_fixed,
    membership,
    sat_defect,
    saturate_variable,
    saturation,
)
from .modules import (
    CapInterrupted,
    FreeModule,
    ModuleElement,
    PositionOverTerm,
    SchreyerOrder,
    TermOverPosition,
    as_module_elements,
    minimalize_generators,
    module_buchberger,
    syzygies,
)
from .oracle import (
    ideal_dim_in_degree,
    initial_ideal_in_degree,
    membership_in_degree,
    monomials_of_degree,
)
from .orders import GREVLEX, LEX, OrderSpec, compare, eliminate_order, weight_order
from .poly import Polynomial, PolynomialRing, Term
from .resolutions import (
    INCONCLUSIVE,
    NOT_REGULAR,
    REGULAR,
    BettiTable,
    FreeResolution,
    bayer_stillman_test,
    free_resolution,
    regularity,
)

__version__ = "0.1.0"
