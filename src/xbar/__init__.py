"""1D crosspoint arrays: minimal layouts, enumeration-sort simulation, query circuits."""

from .array_builder import (
    Layout,
    ValidationReport,
    build,
    build_even,
    build_odd,
    min_pe_count,
    replicate_lower_bound,
    validate,
)
from .cyclic_perm import (
    Cycle,
    Permutation,
    QPartition,
    cycle_decomposition,
    partition_Q,
    power,
)
from .netlist import DepthReport, Gate, NetBuilder, Netlist, depth, evaluate, legalize
from .pe_simulator import (
    ComparisonMatrix,
    RankVector,
    SortTrace,
    compare_phase,
    detect_write_conflicts,
    load_phase,
    phase_count,
    rank_phase,
    sort,
)
from .query_circuits import (
    RankQueryResult,
    build_encoder,
    build_max_circuit,
    build_min_circuit,
    build_ones_counter,
    build_popcount_tree,
    build_priority_encoder,
    build_rank_circuit_threshold,
    max_index,
    min_index,
    rank_at_least_probabilistic,
    rank_via_adder_tree,
    search,
    select_rank,
)

__version__ = "0.1.0"
