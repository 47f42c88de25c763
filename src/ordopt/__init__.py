"""ordopt: sort-order-aware cost-based query optimization plus a simulated
external sort that exploits partially sorted input."""

from .catalog_stats import (
    BlockConfig,
    Catalog,
    CatalogRelation,
    IndexDef,
    blocks,
    distinct_count,
    expr_blocks,
    expr_stats,
    load_catalog,
    scan_paths,
)
from .cost_model import (
    CostParams,
    access_paths,
    enforce_cost,
    full_sort_cost,
    load_params,
    partial_sort_cost,
    sort_cpu_cost,
)
from .errors import (
    ConfigError,
    DuplicateAttribute,
    NotAPrefix,
    OrdoptError,
    ParseError,
    TooLarge,
    UnknownAttribute,
    UnknownRelation,
    UnsortedPrefix,
    ValidationError,
)
from .extsort import Record, SortMetrics, SortSpec, gen_segmented_input, sort_mrs, sort_srs
from .favorable_orders import (
    FavorableOrderIndex,
    index_for_query,
    restrict_orders,
)
from .logical_expr import (
    AGG_ATTR,
    GroupBy,
    Join,
    LogicalExpr,
    Project,
    QuerySpec,
    Scan,
    Select,
    parse_query,
    query_attrs,
    query_to_dict,
)
from .optimizer import (
    HEURISTICS,
    Optimizer,
    PhysicalPlan,
    format_plan,
    interesting_orders,
    load_plan_document,
    optimize_query,
    read_plan_document,
    plan_document,
)
from .order_algebra import (
    EMPTY,
    AttrSet,
    SortOrder,
    canonical_permutation,
    concat,
    is_prefix,
    lcp,
    lcp_with_set,
    order,
    subtract,
)
from .order_refinement import (
    LabeledTree,
    assignment_benefit,
    join_prefix_benefit,
    path_order,
    refine_plan,
    refine_with,
    tree_approx,
)

__version__ = "0.1.0"

#: The brute-force oracles, imported on first use: the optimizer and the
#: sort never call them, and compiling them weighs on every import.
_ORACLE = ("OracleGuard", "brute_best_plan", "brute_tree_benefit", "exact_minimal_favorable_orders", "reference_sort")


def __getattr__(name: str):
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
