"""Exact computations with Coxeter groups, buildings and the cohomology
of their realizations."""

from .coxmatrix import (
    INF,
    CoxeterError,
    CoxeterMatrix,
    SphericalPoset,
    cosine_gram_definite,
    coxeter_degrees,
    is_spherical,
    parse_coxeter_matrix,
    spherical_poset,
)
from .groups import Element, ElementTable, enumerate_ball, enumerate_group
from .intlinalg import (
    OMEGA,
    AbGroup,
    CochainComplex,
    GradedGroup,
    SNFResult,
    TorsionObstruction,
    determinant,
    direct_complement,
    quotient_structure,
    smith_normal_form,
)
from .complexes import (
    MirroredComplex,
    SimplicialComplex,
    classical_chamber,
    davis_chamber,
    flag_complex,
    local_groups,
    metric_flag_check,
    nerve,
    relative_cohomology,
)
from .chambers import (
    ChamberError,
    ChamberSystem,
    digon_building,
    fano_building,
    parse_chamber_system,
    product_building,
    projective_plane_building,
    thin_building,
    verify_building,
)
from .decomposition import (
    BuildingDecomposition,
    DecompositionWitness,
    filtration_ranks,
    sigma_formula_check,
)
from .realization import (
    formula_cross_check,
    realization_cohomology,
    realize,
)
from .hc import (
    GrowthSeries,
    HcReport,
    duality_check,
    graded_module_report,
    hc_standard_realization,
    thin_multiplicity_series,
    vcd,
)

__version__ = "0.1.0"
