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
    Seed,
    ValidationReport,
    find_symmetrizer,
    matrix_mutation,
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
    enumerate_seed_isos,
    find_seed_iso,
    image_spec,
    mixing_subseed,
    require_hom,
)
from .semigroup import (
    GreenPartition,
    HClassGroup,
    SemigroupTable,
    StructuralGreenReport,
    check_structural_green,
    enumerate_endpar,
    green_relations,
    h_class_group,
    partition_classes,
    projected_endpar_bound,
    regular_D_classes,
)
from .classify import (
    ClassificationReport,
    IsoClass,
    is_subalgebra_type,
    iso_classes_of_subseeds,
    theorem_number_report,
)
from .surface import (
    SurfaceData,
    check_theorem_sur,
    curve_crosses,
    cut_along,
    diagonals_cross,
    make_surface,
    paunched_surface,
    seed_from_surface,
    surface_iso,
    validate_surface,
)

__version__ = "0.1.0"
