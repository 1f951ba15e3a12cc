"""steffenlab: exact edge-coloring analysis of loopless multigraphs."""

from .multigraph import (
    BasicInvariants,
    Multigraph,
    SimpleGraphView,
    basic_invariants,
    build,
    from_json_obj,
    induced,
    parse,
    parse_any,
    remove_edges,
    serialize,
    to_json_obj,
)
from .invariants import (
    INFINITE_GIRTH,
    CycleSeq,
    DensityWitness,
    ShortCycleViolation,
    check_short_cycle_properties,
    density,
    girth,
    shortest_cycle,
    steffen_bound,
    subgraph_girth,
)
from .coloring import (
    DegreeIdentityReport,
    EdgeColoring,
    MatchingDecomposition,
    chromatic_index,
    degree_identity_check,
    extract_critical,
    is_critical,
    is_k_colorable,
    near_perfect_matching_decomposition,
    validate_coloring,
)
from .structure import (
    CyclePartition,
    Fan,
    RingSubgraph,
    cycle_partition,
    enumerate_cycles,
    fan_bound_check,
    find_ring_subgraph_with_chi,
    is_ring_graph,
    max_fan,
    verify_cycle_partition,
)
from .generators import (
    EnumSpec,
    canonical_form,
    enumerate_with_keys,
    mu_complete,
    mu_cycle,
    random_multigraph,
    ring,
)
from .scan import LemmaSuiteReport, ScanConfig, ScanSummary, run_lemma_suite, run_scan

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
