"""Workbench for finite semirings and semimodules.

Validate table-presented structures, build the expectation semiring of a
semimodule, enumerate and classify ideals and elements, exhaustively
enumerate small structures, machine-verify the structural facts about the
products on a catalog grid, and compute expectations over weighted DAGs.
"""

from .catalog import (
    OrderTooLarge,
    UnknownName,
    are_isomorphic,
    builtin,
    builtin_pairs,
    enumerate_semimodules,
    enumerate_semirings,
    product_module,
    self_module,
    standard_modules,
    trivial_module,
    zmod_quotient_module,
)
from .construct import (
    ExpectationInstance,
    build_expectation,
    embed_s,
    graded_decomposition,
    matrix_iso_check,
    zero_m_ideal_nilpotency,
    zero_scalar_slice,
)
from .elements import (
    Census,
    classify,
)
from .ideals import (
    CarrierTooLarge,
    Ideal,
    NotAnIdeal,
    NotASubmodule,
    Subsemimodule,
    annihilator,
    enumerate_ideals,
    enumerate_subsemimodules,
    is_maximal,
    is_primary,
    is_primary_submodule,
    is_prime,
    is_subtractive,
    is_weak_gaussian,
    is_weakly_prime,
    radical,
    residual,
    submodule_radical,
)
from .numeric import (
    CycleDetected,
    DimensionMismatch,
    InvalidGraph,
    NonFiniteTotal,
    NumericWeight,
    TooManyPaths,
    WeightedDag,
    ZeroMass,
    brute_force_total,
    count_paths,
    expectation,
    forward_total,
    graph_from_dict,
    graph_to_dict,
    lift_edge,
    wadd,
    wmul,
    wone,
    wzero,
)
from .tables import (
    AxiomViolation,
    BaseMismatch,
    FiniteSemimodule,
    FiniteSemiring,
    InvalidStructure,
    SizeMismatch,
    Subset,
    is_commutative_mul,
    semimodule_to_dict,
    semiring_as_module,
    semiring_to_dict,
    semimodule_violations,
    semiring_violations,
    v_set,
    validate_semimodule,
    validate_semiring,
)
from .theorems import (
    CheckRecord,
    GridCell,
    VerificationReport,
    default_grid,
    run_pair,
    run_suite,
    weakly_prime_forward_probe,
)

__version__ = "0.1.0"
