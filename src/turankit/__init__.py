"""Workbench for three-edge hypergraph Turan problems at desk scale: named
constructions, classification of three-edge r-graphs, folding reductions,
exact forbidden-pattern optima, and odd-bipartite stability diagnostics."""

from .hypergraph import (
    MAX_VERTICES,
    Hypergraph,
    RegionProfile,
    VertexMap,
    canonical_regions,
    copies_of,
    edge_mask,
    edge_vertices,
    find_isomorphism,
    format_hypergraph,
    from_masks,
    is_isomorphic,
    link,
    make_hypergraph,
    max_degree,
    min_positive_degree,
    parse_hypergraph,
)
from .constructions import (
    Partition,
    complete_rgraph,
    expanded_triangle,
    matching,
    max_odd_bipartite,
    odd_bipartite,
    odd_bipartite_count,
    suspension,
)
from .morphisms import (
    COLLAPSED,
    REACHED_MIN_DEGREE_2,
    FoldStep,
    ReductionTrace,
    find_homomorphism,
    fold_vertex,
    reduce_to_core,
    reduce_to_max_degree3,
)
from .catalog import (
    CatalogEntry,
    ClassificationReport,
    ThreeEdgeCatalog,
    enumerate_three_edge,
    verify_classification,
)
from .solver import (
    DEFAULT_BUDGET_NODES,
    DEFAULT_BUDGET_SECS,
    SOLVER_VERSION,
    STATUS_LOWER_BOUND,
    STATUS_OPTIMAL,
    DensityIncreased,
    ResultCache,
    SolveRecord,
    TripleSystem,
    audit_density_monotone,
    density_sequence,
    export_cnf,
    export_ilp,
    forbidden_triples,
    solve_exact,
    solve_family,
)
from .stability import (
    DeviationReport,
    LinkPartitionScan,
    best_partition,
    deviation,
    heavy_missing_vertices,
    link_partition_scan,
    partition_distance,
)

__version__ = "0.1.0"
