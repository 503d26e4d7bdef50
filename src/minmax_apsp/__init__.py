"""Exact all-pairs shortest paths for directed graphs with weights in {-1, 0, 1}.

The engine halves all distances recursively through canonical rewiring and a
two-hop closure, then recovers each pair's parity with two target min-max
products; the restricted product answers heavy target values through one
BLAS Boolean matrix product and light ones through short sorted-row scans.
That product is a solve's only cubic kernel; brute-force oracles
(Floyd-Warshall, the (min, +) and (min, max) products) serve as checks.
"""

from .extmat import (
    NEG_INF,
    POS_INF,
    BitMatrix,
    VerificationError,
    bool_closure,
    bool_product,
    bounded_hop_closure,
    ext_add,
    ext_ceil_half,
    minplus_product,
)
from .graph import (
    SignedGraph,
    adjacency_from_graph,
    canonical_adjacency,
    is_delta_regular,
    one_regular_apsp,
    oracle_apsp,
)
from .products import (
    ROUTE_ABSENT,
    ROUTE_HEAVY,
    ROUTE_LIGHT,
    ROUTE_TARGET_INF,
    RestrictedInstance,
    RowIndex,
    build_heavy_matrix,
    build_row_index,
    minmax_product,
    occurrence_cutoff,
    restricted_target_minmax,
    target_minmax_naive,
)
from .reduction import (
    LevelTrace,
    RecursionTrace,
    apsp_minus_zero_one,
    assemble_distances,
    parity_masks,
    parity_products,
    solve_apsp,
    two_hop_target,
)
from .cli import (
    gen_random_graph,
    format_edge_list,
    format_matrix,
    parse_edge_list,
    parse_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "NEG_INF",
    "POS_INF",
    "BitMatrix",
    "VerificationError",
    "bool_closure",
    "bool_product",
    "bounded_hop_closure",
    "ext_add",
    "ext_ceil_half",
    "minplus_product",
    "SignedGraph",
    "adjacency_from_graph",
    "canonical_adjacency",
    "is_delta_regular",
    "one_regular_apsp",
    "oracle_apsp",
    "ROUTE_ABSENT",
    "ROUTE_HEAVY",
    "ROUTE_LIGHT",
    "ROUTE_TARGET_INF",
    "RestrictedInstance",
    "RowIndex",
    "build_heavy_matrix",
    "build_row_index",
    "minmax_product",
    "occurrence_cutoff",
    "restricted_target_minmax",
    "target_minmax_naive",
    "LevelTrace",
    "RecursionTrace",
    "apsp_minus_zero_one",
    "assemble_distances",
    "parity_masks",
    "parity_products",
    "solve_apsp",
    "two_hop_target",
    "gen_random_graph",
    "format_edge_list",
    "format_matrix",
    "parse_edge_list",
    "parse_matrix",
]
