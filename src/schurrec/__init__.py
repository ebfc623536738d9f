"""Exact recurrences, minimal annihilators and root asymptotics for
stretched skew Schur polynomial sequences."""

from .partitions import (
    IntVector,
    Partition,
    add,
    contains,
    dominates,
    format_partition,
    parse_partition,
    partitions_up_to,
    scale,
    sort_decreasing,
    stretch_condition,
    subtract,
)
from .tableaux import (
    ColumnView,
    SkewShape,
    Tableau,
    column_factors,
    column_tableau,
    columns,
    decompose,
    empty_tableau,
    enumerate_tableaux,
    insert,
    is_valid_ssyt,
    iter_tableaux,
    sits_inside,
    stabilization_index,
    weight,
)
from .polynomials import (
    MultiPoly,
    complete_homogeneous,
    eval_all_ones,
    monomial_symmetric,
    skew_schur,
    skew_schur_jacobi_trudi,
    weight_monomial,
)
from .kostka import (
    first_tableau_of_weight,
    kostka,
    m_basis_reconstruction,
    schur_in_m_basis,
    stretch_positivity_check,
)
from .recurrence import (
    CharPoly,
    ConjectureReport,
    InvalidFamilyError,
    MinimalReport,
    PolynomialityReport,
    SchurSequence,
    VerifyResult,
    berlekamp_massey,
    build_sequence,
    char_poly,
    conjecture_check,
    conjectured_weights,
    minimal_report,
    polynomiality_check,
    verify_certificate,
    verify_recurrence,
)
from .asymptotics import (
    ComplexPoly,
    DegenerateSpecialization,
    ExperimentResult,
    RootCloud,
    RootConvergenceError,
    clouds_to_csv,
    find_roots,
    limit_experiment,
    specialize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
