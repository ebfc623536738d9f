"""Exact recurrences, minimal annihilators and root asymptotics for
stretched skew Schur polynomial sequences.

The tableau side (partitions, tableaux, polynomials, kostka) needs no
arrays and is imported here.  The engine names, those of `recurrence` and
`asymptotics` and the two modules themselves, load their module on first
access, so `import schurrec` and the table-free commands of `schurrec.cli`
do not import numpy.  `recurrence` itself imports `_dense`, and with it
numpy, at its top: whoever imports the engine pays numpy there, before
its first computation, not inside one.
"""

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
    CharPoly,
    MultiPoly,
    char_poly,
    complete_homogeneous,
    eval_all_ones,
    monomial_symmetric,
    skew_schur,
    skew_schur_jacobi_trudi,
    weight_monomial,
)
from .kostka import (
    PolynomialityReport,
    first_tableau_of_weight,
    kostka,
    m_basis_reconstruction,
    polynomiality_check,
    schur_in_m_basis,
    stretch_positivity_check,
)
# The names __getattr__ serves, by the engine module that defines them.
_LAZY = {
    "recurrence": (
        "ConjectureReport", "InvalidFamilyError", "MinimalReport", "SchurSequence", "VerifyResult",
        "berlekamp_massey", "build_sequence", "conjecture_check", "conjectured_weights", "minimal_report",
        "verify_certificate", "verify_recurrence",
    ),
    "asymptotics": (
        "ComplexPoly", "DegenerateSpecialization", "ExperimentResult", "RootCloud", "RootConvergenceError",
        "clouds_to_csv", "find_roots", "limit_experiment", "specialize",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_HOME))
