"""Road-network upgrade planning: user-equilibrium assignment, upgrade
interaction analysis, budgeted selection, and multi-period scheduling."""

from .errors import DataError, ParseError, RoadworksError, SolverError
from .network import (
    DemandMatrix,
    Link,
    LinkColumns,
    LinkModification,
    Network,
    Upgrade,
    UpgradeSet,
    apply_upgrades,
    demand_fingerprint,
    network_fingerprint,
    parse_demand,
    parse_network,
    parse_nodes,
    parse_upgrades,
    write_network,
)
from .shortest_path import ShortestPathTree, all_or_nothing, shortest_paths
from .equilibrium import (
    Assignment,
    SolverSettings,
    bpr_integral,
    bpr_latency,
    format_flow_file,
    relative_gap,
    solve_with,
    vht,
    write_flow_file,
)
from .scenario import (
    DeltaBook,
    DeltaTable,
    FileDeltaCache,
    MemoryDeltaCache,
    canonical_subset,
    compute_deltas,
    error_report,
    estimate_delta,
    format_error_report,
    restricted,
    table_from_cache,
)
from .interaction import (
    UpgradeLocation,
    compute_locations,
    format_pair_list,
    kmeans,
    pairwise_distances,
    parse_pair_list,
    predict_pairs_clustering,
    predict_pairs_count,
    predict_pairs_threshold,
)
from .portfolio import (
    Selection,
    SelectionProblem,
    better_assignment,
    better_selection,
    evaluate_selection,
    format_selection,
    optimize_subset,
)
from .scheduler import (
    FeasibilityReport,
    GrowthRule,
    PlanningHorizon,
    Schedule,
    check_growth_zones,
    check_schedule,
    format_schedule_listing,
    format_schedule_table,
    greedy_schedule,
    independent_schedule,
    parse_growth_rules,
    period_singles,
    period_spend,
    present_value,
    realized_npv,
    schedule_npv,
)

__version__ = "0.1.0"
