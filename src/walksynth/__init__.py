"""Community detection by fitting a block-structured synthetic random walk
to the stationary walk a network induces."""

from .graph import (
    EdgeListParseError,
    Graph,
    InfeasibleModelError,
    PlantedPartitionParams,
    dump_edge_list,
    load_edge_list,
    planted_partition,
    write_label_map,
)
from .metrics import (
    ClusterStatsRow,
    ami,
    classify_nodes,
    cluster_stats,
    contingency,
    greedy_match,
    write_cluster_stats_csv,
)
from .objective import (
    FRESH,
    OBJECTIVES,
    FlowMoveState,
    ObjectiveReport,
    evaluate_partition,
    modularity,
)
from .optimizer import OptimizerConfig, brute_force_optimum, optimize, set_partitions
from .partitions import Partition, partition_for_graph, read_partition_labels, write_partition
from .walk import (
    IsolatedNodeError,
    RandomWalk,
    cluster_aggregates,
    mutual_info_nodes,
    transition_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "EdgeListParseError",
    "Graph",
    "InfeasibleModelError",
    "PlantedPartitionParams",
    "dump_edge_list",
    "load_edge_list",
    "planted_partition",
    "write_label_map",
    "ClusterStatsRow",
    "ami",
    "classify_nodes",
    "cluster_stats",
    "contingency",
    "greedy_match",
    "write_cluster_stats_csv",
    "FRESH",
    "OBJECTIVES",
    "FlowMoveState",
    "ObjectiveReport",
    "evaluate_partition",
    "modularity",
    "OptimizerConfig",
    "brute_force_optimum",
    "optimize",
    "set_partitions",
    "Partition",
    "partition_for_graph",
    "read_partition_labels",
    "write_partition",
    "IsolatedNodeError",
    "RandomWalk",
    "cluster_aggregates",
    "mutual_info_nodes",
    "transition_matrix",
]
