"""Fault-tolerant strong-connectivity preservers for directed multigraphs."""

from .digraph import DiGraph, Edge, SccPartition, parse, scc, serialize
from .errors import CapabilityError, InputError
from .expander import (
    ExpanderHierarchy,
    HierarchyParams,
    build_hierarchy,
    giant_component_check,
    is_unbreakable,
    sparsest_cut_wrt,
)
from .flowcut import (
    Cut,
    FlowValue,
    canonicalize_in_reachable,
    canonicalize_out_reachable,
    farthest_min_cut,
    max_flow,
    symmetric_connectivity,
)
from .fpt import (
    FptCache,
    critical_edge_container,
    fpt_container_all_pairs,
    fpt_preserver,
)
from .impcut import (
    ContainerResult,
    check_anti_isolation,
    enumerate_important_cuts,
    important_cut_container,
)
from .kconn import (
    DemandPairs,
    Decomposition,
    check_kcritical_cut_bound,
    demand_pairs,
    greedy_kconn_preserver,
    unbreakability_decomposition,
)
from .preservers import (
    PreserverResult,
    global_from_single_source,
    greedy_preserver,
    hierarchy_preserver,
    is_ft_critical,
    sscp,
    st_from_global,
)
from .variants import VariantSpec
from .verify import (
    VerifyResult,
    enumerate_critical_edges,
    verify_bounded_degree_ft,
    verify_bounded_degree_witness,
    verify_color_ft,
    verify_color_witness,
    verify_ft,
    verify_ft_by_cuts,
    verify_kconn,
    verify_kconn_by_cuts,
)

__version__ = "0.1.0"
