"""Seeds of geometric-type cluster algebras, partial seed homomorphisms,
Green's relations on the endomorphism semigroup, and triangulated-polygon
realizations."""

from .errors import (
    HomError,
    LaurentViolation,
    ParseError,
    ResourceCapExceeded,
    SeedError,
    SpecError,
    TheoremViolation,
)
from .seeds import (
    ExtendedExchangeMatrix,
    Seed,
    ValidationReport,
    connected_components,
    find_symmetrizer,
    is_connected,
    matrix_mutation,
    mutate_seed_matrix,
    require_valid,
    validate_seed,
)
from .poly import (
    ClusterEnumeration,
    LabeledSeedState,
    MultiPoly,
    enumerate_clusters,
    exchange,
    initial_state,
    mutate_state,
)
from .homs import (
    PartialSeedHom,
    SubSeedSpec,
    automorphism_group,
    check_partial_hom,
    compose,
    empty_hom,
    enumerate_seed_isos,
    factor_through_image,
    find_seed_iso,
    identity_inclusion,
    image_seed,
    image_spec,
    inverse_iso,
    is_retraction,
    is_seed_iso,
    mixing_subseed,
    require_hom,
)
from .semigroup import (
    GreenPartition,
    HClassGroup,
    SemigroupTable,
    check_structural_green,
    d_by_composition,
    enumerate_endpar,
    green_relations,
    h_class_group,
    idempotents,
    is_id_form,
    is_linear_an,
    is_regular_element,
    partition_classes,
    projected_endpar_bound,
    regular_D_classes,
    regularity_linear_an,
    subseed_components,
)
from .classify import (
    ClassificationReport,
    IsoClass,
    is_subalgebra_type,
    iso_classes_of_subseeds,
    spec_universe_size,
    theorem_number_report,
)
from .surface import (
    SurfaceData,
    b_matrix_from_triangulation,
    check_theorem_sur,
    curve_crosses,
    cut_along,
    diagonals_cross,
    enumerate_triangulations,
    make_surface,
    paunched_surface,
    seed_from_surface,
    shear_contribution,
    shear_coordinates,
    surface_iso,
    triangles_of,
    validate_surface,
)

__version__ = "0.1.0"
