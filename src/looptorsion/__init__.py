"""Torsion primes of finitely presented graded algebras, computed exactly.

The package builds the parameterized relation families presenting two
graded algebras (an inner algebra E on six generators and a full
algebra AX on eight), computes their degreewise abelian-group structure
by a closed-form count and, as its oracle, by integer Smith normal
form, relates the two through a derivation action, evaluates Hilbert
and loop-space Poincare series, and classifies torsion primes by
elementary number theory.
"""

from .freealg import (
    CONVENTIONS,
    DEFAULT_CONVENTION,
    GRADED,
    UNGRADED,
    Element,
    bracket,
    format_element,
    multiply,
    parse_element,
    words_of_degree,
)
from .presentation import (
    Params,
    RelationSet,
    THEOREM1_PARAMS,
    coeff_sequence,
    relation_set_AX,
    relation_set_E,
    rho,
    sigma,
    tau,
)
from .quotient import (
    GradedPiece,
    TorsionReport,
    element_order,
    graded_piece,
    ideal_spanning_matrix,
    torsion_primes_up_to,
)
from .series import PowerSeries, dimension_series, invert_series, roos_poincare
from .action import (
    DerivationSpec,
    act,
    check_preserves_ideal,
    select_convention,
    semi_tensor_dimension_check,
)
from .numtheory import (
    PrimeClassification,
    census,
    classify_prime_theorem1,
    divides_some_am,
    is_prime,
    legendre,
    power_witness,
    theorem2_params,
)
from .verify import run_verification

__all__ = [
    "CONVENTIONS",
    "DEFAULT_CONVENTION",
    "GRADED",
    "UNGRADED",
    "DerivationSpec",
    "Element",
    "GradedPiece",
    "Params",
    "PowerSeries",
    "PrimeClassification",
    "RelationSet",
    "THEOREM1_PARAMS",
    "TorsionReport",
    "act",
    "bracket",
    "census",
    "check_preserves_ideal",
    "classify_prime_theorem1",
    "coeff_sequence",
    "dimension_series",
    "divides_some_am",
    "element_order",
    "format_element",
    "graded_piece",
    "ideal_spanning_matrix",
    "invert_series",
    "is_prime",
    "legendre",
    "multiply",
    "parse_element",
    "power_witness",
    "relation_set_AX",
    "relation_set_E",
    "rho",
    "roos_poincare",
    "run_verification",
    "select_convention",
    "semi_tensor_dimension_check",
    "sigma",
    "tau",
    "theorem2_params",
    "torsion_primes_up_to",
    "words_of_degree",
]
