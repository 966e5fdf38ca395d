"""Exact decomposition of the skew-symmetric part of rational group algebras.

For a finite group G and an involution sigma of QG the package computes, in
exact rational/cyclotomic arithmetic: the skew and symmetric subspaces, the
Wedderburn components of QG through Galois orbits of the character table, the
orthogonal/symplectic/unitary classification of every component against sigma,
a nonsingular bilinear form on the regular module whose adjoint involution is
sigma, and the integral skew lattice of ZG.
"""

from .errors import ComputationError, SkewlieError, SpecError
from .forms import (
    AdjointRealization,
    BilinearForm,
    adjoint_space_matches_skew_span,
    check_adjoint_identity,
    form_report,
    integral_skew_lattice,
    realize_adjoint_form,
    skew_adjoint_space,
)
from .groups import (
    ConjugacyData,
    Group,
    build_group,
    conjugacy_classes,
    exponent,
    sign_characters,
    square_root_count,
)
from .indicators import (
    IndicatorReport,
    complex_dimension_identity,
    fs_indicator,
    indicator_report,
    involution_count_identity,
)
from .involutions import (
    AlgebraElement,
    Involution,
    skew_space,
)
from .wedderburn import (
    CentralIdempotent,
    CharacterTable,
    ComponentReport,
    DecompositionReport,
    GaloisOrbit,
    character_table,
    class_structure_constants,
    classify_components,
    component_skew_dim,
    decomposition_report,
    find_dixon_prime,
    galois_orbits,
    rational_idempotents,
    sigma_action_on_components,
    table_orthogonality,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AdjointRealization",
    "BilinearForm",
    "CentralIdempotent",
    "CharacterTable",
    "ComponentReport",
    "ComputationError",
    "ConjugacyData",
    "DecompositionReport",
    "GaloisOrbit",
    "Group",
    "IndicatorReport",
    "Involution",
    "SkewlieError",
    "SpecError",
    "adjoint_space_matches_skew_span",
    "build_group",
    "character_table",
    "check_adjoint_identity",
    "class_structure_constants",
    "classify_components",
    "complex_dimension_identity",
    "component_skew_dim",
    "conjugacy_classes",
    "decomposition_report",
    "exponent",
    "find_dixon_prime",
    "form_report",
    "fs_indicator",
    "galois_orbits",
    "indicator_report",
    "integral_skew_lattice",
    "involution_count_identity",
    "rational_idempotents",
    "realize_adjoint_form",
    "sigma_action_on_components",
    "sign_characters",
    "skew_adjoint_space",
    "skew_space",
    "square_root_count",
    "table_orthogonality",
]
