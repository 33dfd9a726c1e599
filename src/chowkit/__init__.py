"""Exact symbolic computation with cellular Chow rings.

Rings carry integer structure constants over explicit cell bases;
correspondences, fibration projector families, motive decompositions and
Chow-Kunneth lifts are all verified as exact identities, never numerically.
"""

from .report import Report
from .rings import (
    BasisCell,
    ChowRing,
    Cycle,
    KunnethRing,
    external_product,
    is_delta_normalized,
    kunneth_product,
    verify_pairing,
)
from .correspondences import (
    Correspondence,
    MorphismData,
    act,
    action_matrix,
    ambient_act,
    compose,
    constant_morphism,
    correspondence_from_action,
    diagonal,
    dual_basis_cycles,
    graph_from_morphism,
    identity_morphism,
    multiplication_correspondence,
    product_morphism,
    projection_morphism,
    tensor,
    transpose,
    zero_correspondence,
)
from .fibrations import (
    FiberedCycle,
    FibrationModel,
    ProjectorFamily,
    ambient_extend,
    build_projector_family,
    duality_report,
    duality_triple,
    manin_battery,
    trivial_fibration,
    validate_fibration,
    verify_projector_family,
)
from .motives import (
    ModelMotiveDecomposition,
    Motive,
    MotiveDecomposition,
    decompose_model,
    decompose_motive,
    fiber_projectors,
    unit_motive,
    verify_projector_system,
)
from .murre import (
    CKDecomposition,
    cellular_ck,
    ck_battery,
    lift_base_correspondence,
    lift_ck,
    lifted_blocks,
    verify_action_window,
    verify_block_diagonality,
    verify_ck,
    verify_motive_isomorphism,
)
from .identities import (
    compose_oracle,
    compose_oracle_battery,
    run_identity_battery,
    standard_morphisms,
)
from .catalog import (
    CatalogEntry,
    catalog_entries,
    grassmannian,
    hirzebruch,
    linear_embedding,
    point,
    product_model,
    projective_bundle_model,
    projective_space,
    resolve,
    standard_models,
    standard_rings,
)
from .fileio import (
    FileFormatError,
    dump_fibration,
    dump_ring,
    load_fibration,
    load_ring,
    parse_fibration,
    parse_ring,
    save_fibration,
    save_ring,
)
from .sampling import (
    random_correspondence,
    random_cycle,
    random_fibered_cycle,
    seeded_rng,
)

__version__ = "0.1.0"
