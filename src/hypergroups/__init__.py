"""Invariants of fusion rings and abelian normalizable hypergroups.

Structure-constant tensors in, full invariant suite out: character tables,
formal codegrees, dual hypergroups, Burnside and dual-Burnside verdicts,
grouplike groups, adjoint subrings, universal gradings, nilpotency classes,
Galois orbits, and modular-categorification exclusion certificates.
"""

from .core import (
    Element,
    FlagSet,
    FusionData,
    basis_element,
    multiply,
    normalize,
    orders,
    regular_element,
    rescale,
    validate,
)
from .errors import HypergroupError
from .tolerance import Tolerance
from .spectra import (
    CharacterTable,
    character_table,
    fp_character,
    integral_element,
    order,
    verify_fp_value,
)
from .dual import (
    double_dual_check,
    dual_codegrees,
    dual_hypergroup,
)
from .burnside import (
    burnside_report,
    product_P,
    sgn_values,
    vanishing_elements,
)
from .structure import (
    CentralSeries,
    GradingResult,
    SubHypergroup,
    adjoint,
    central_series,
    commutator_sub,
    generated_sub,
    kernel_of_character,
    kernel_of_element,
    perp,
    quotient,
    support,
    universal_grading,
)
from .analysis import RingAnalysis
from .galois import OrbitPartition, check_codegree_conjugation, galois_orbits, weak_integrality
from .criteria import (
    ExclusionVerdict,
    burnside_exclusion,
    divisibility_test,
    frobenius_test,
    modular_prime_support,
    near_group_modular_test,
    squarefree_factor_test,
)
from . import builders

__version__ = "0.1.0"

__all__ = [
    "Element",
    "FlagSet",
    "FusionData",
    "basis_element",
    "multiply",
    "normalize",
    "orders",
    "regular_element",
    "rescale",
    "validate",
    "HypergroupError",
    "CharacterTable",
    "Tolerance",
    "character_table",
    "fp_character",
    "integral_element",
    "order",
    "verify_fp_value",
    "double_dual_check",
    "dual_codegrees",
    "dual_hypergroup",
    "burnside_report",
    "product_P",
    "sgn_values",
    "vanishing_elements",
    "CentralSeries",
    "GradingResult",
    "SubHypergroup",
    "adjoint",
    "central_series",
    "commutator_sub",
    "generated_sub",
    "kernel_of_character",
    "kernel_of_element",
    "perp",
    "quotient",
    "support",
    "universal_grading",
    "RingAnalysis",
    "OrbitPartition",
    "check_codegree_conjugation",
    "galois_orbits",
    "weak_integrality",
    "ExclusionVerdict",
    "burnside_exclusion",
    "divisibility_test",
    "frobenius_test",
    "modular_prime_support",
    "near_group_modular_test",
    "squarefree_factor_test",
    "builders",
    "__version__",
]
