"""Tropical (max-plus) statistics over the projective torus and tree space."""

from .core import (
    EQ_TOL,
    NEG_INF,
    TropicalHyperplane,
    TropicalPoint,
    TropicalPolytope,
    TropicalSegment,
    canonicalize,
    distance_to_hyperplane,
    in_polytope,
    project_onto_polytope,
    scalar_mul,
    sector_of,
    trop_add,
    trop_combine,
    trop_distance,
    trop_mul,
    trop_segment,
    tropical_combination,
)
from .datagen import SimConfig, TwoClassSample, make_two_class_sample, simulate_equidistant
from .location import (
    LocationResult,
    check_ultrametric_closure,
    fermat_weber,
    frechet_mean,
    frechet_objective,
    fw_objective,
)
from .pca import (
    PcaModel,
    check_ultrametric_cells,
    exhaustive_principal_polytope,
    fit_principal_polytope,
    pca_coordinates,
    pca_objective,
)
from .solver import minimize_convex
from .svm import (
    LabeledSample,
    NotSeparableError,
    SectorAssignment,
    SvmModel,
    classify,
    train_hard,
    train_soft,
)
from .treeio import (
    DissimilarityMap,
    NewickError,
    PhyloTree,
    UltrametricPoint,
    cophenetic,
    index_pair,
    is_equidistant,
    pair_index,
    parse_newick,
    serialize_newick,
    three_point_check,
    topology_id,
    ultrametric_to_tree,
)

__version__ = "0.1.0"
