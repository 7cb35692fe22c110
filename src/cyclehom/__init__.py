"""Exact cycle-homomorphism counting and cycle detection.

Counts homomorphisms of a length-l cycle in bounded-degeneracy graphs in
subquadratic time, counts them combinatorially in general graphs and
digraphs, and detects directed k-cycles by color coding, all with exact
arbitrary-precision arithmetic.
"""

from .comb import (
    DegreeSignature,
    PathTable,
    hom_alt_cycle_comb,
    hom_two_paths,
    path_table_high,
    path_table_low,
)
from .detect import (
    GadgetInstance,
    PartitionedGraph,
    TransversalCount,
    build_detection_gadget,
    detect_cycle_degenerate,
    detect_directed_cycle,
    transversal_count,
)
from .general import (
    detect_cycle_general_directed,
    hom_cycle_general,
    path_table_general,
)
from .graphs import (
    DegeneracyOrdering,
    Digraph,
    Graph,
    GraphError,
    ParseError,
    degeneracy_ordering,
    orient_acyclic,
    parse_graph,
    split_by_ordering,
    write_graph,
)
from .algebra import (
    BlowupSpec,
    RecoverySystem,
    blowup,
    build_recovery_system,
    decompose_linear_combination,
    tensor_product,
)
from .matmul import (
    CherryTable,
    CostParams,
    EvaluationPlan,
    build_cherry_table,
    cost_model_ck,
    hom_alt_cycle_matmul,
    plan_matrix_chain,
)
from .ops import OpCounter
from .oracle import (
    enumerate_cycle_orientations,
    has_simple_cycle_brute,
    hom_count_brute,
    trace_power,
)
from .pipeline import EngineError, hom_cycle_degenerate
from .ring import TruncatedPolynomial
from .walks import WalkPair, WeightedDigraph, build_walk_weights, restrict_view

__all__ = [
    "BlowupSpec",
    "CherryTable",
    "CostParams",
    "DegeneracyOrdering",
    "DegreeSignature",
    "Digraph",
    "EngineError",
    "EvaluationPlan",
    "GadgetInstance",
    "Graph",
    "GraphError",
    "OpCounter",
    "ParseError",
    "PartitionedGraph",
    "PathTable",
    "RecoverySystem",
    "TransversalCount",
    "TruncatedPolynomial",
    "WalkPair",
    "WeightedDigraph",
    "blowup",
    "build_cherry_table",
    "build_detection_gadget",
    "build_recovery_system",
    "build_walk_weights",
    "cost_model_ck",
    "decompose_linear_combination",
    "degeneracy_ordering",
    "detect_cycle_degenerate",
    "detect_cycle_general_directed",
    "detect_directed_cycle",
    "enumerate_cycle_orientations",
    "has_simple_cycle_brute",
    "hom_alt_cycle_comb",
    "hom_alt_cycle_matmul",
    "hom_count_brute",
    "hom_cycle_degenerate",
    "hom_cycle_general",
    "hom_two_paths",
    "orient_acyclic",
    "parse_graph",
    "path_table_general",
    "path_table_high",
    "path_table_low",
    "plan_matrix_chain",
    "restrict_view",
    "split_by_ordering",
    "tensor_product",
    "trace_power",
    "transversal_count",
    "write_graph",
]
