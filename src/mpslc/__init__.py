"""Single-linkage clustering toolkit on a simulated massively-parallel runtime."""

from .core import (
    CapacityError,
    InputError,
    Metric,
    PointSet,
    Seed,
    SparsePoint,
    UnsupportedMetricError,
    derive_seed,
    distance,
    rng_stream,
)
from .mpc import (
    MpcConfig,
    MpcContractError,
    MpcTrace,
    SpanningTree,
    WeightedEdgeList,
    boruvka_mst,
    connected_components,
    distributed_sort,
    run_level,
)
from .partition import (
    HierarchicalPartition,
    PartitionParams,
    level_diameter,
    sample_partition,
)
from .slc import (
    Clustering,
    SlcParams,
    approximate_mst,
    derive_eps,
    k_slc_from_mst,
    verify_per_edge_guarantee,
)
from .unitstep import level_step
from .hamming import (
    build_auxiliary_graph,
    hamming_mst,
)
from .hardness import (
    GraphInstance,
    GraphKind,
    JlParams,
    gen_cycle_vectors,
    gen_edge_vectors,
    gen_hamming_points,
    jl_project,
)

__version__ = "0.1.0"
